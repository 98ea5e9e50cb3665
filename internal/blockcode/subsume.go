package blockcode

import "repro/internal/huffman"

// SubsumeOptimize implements the improvement the paper identifies in
// Section 3.3: plain Huffman coding over covering frequencies can be
// suboptimal when one MV subsumes another. If all blocks covered by MV j
// are also matched by MV i (v_i subsumes v_j), dropping v_j and folding its
// frequency into v_i sometimes shrinks the total compressed size, because
// the removed codeword shortens the remaining code even though v_i spends
// more fill bits.
//
// The pass greedily evaluates every subsuming pair, applies the single best
// improving merge, and repeats until no merge improves the size. It returns
// a new Covering/Code pair; the MV set itself is unchanged (dropped MVs
// simply end up with zero frequency and no codeword).
func (s *MVSet) SubsumeOptimize(cov *Covering) (*Covering, *huffman.Code, int, error) {
	freqs := append([]int(nil), cov.Freqs...)
	assign := append([]int(nil), cov.Assign...)

	// size is CompressedBits under the Huffman code of f, found without
	// building the code: its codeword bits plus every MV's fill bits.
	nx := make([]int, len(s.MVs))
	for i, mv := range s.MVs {
		nx[i] = mv.CountX()
	}
	scratch := make([]int, len(freqs))
	size := func(f []int) int {
		bits, _ := huffman.Cost(append(scratch[:0], f...))
		for i, fi := range f {
			bits += fi * nx[i]
		}
		return bits
	}

	bestSize := size(freqs)
	trial := make([]int, len(freqs))
	for {
		bestFrom, bestTo := -1, -1
		for j := range s.MVs {
			if freqs[j] == 0 {
				continue
			}
			for i := range s.MVs {
				if i == j || freqs[i] == 0 || !s.MVs[i].Subsumes(s.MVs[j]) {
					continue
				}
				copy(trial, freqs)
				trial[i] += trial[j]
				trial[j] = 0
				if sz := size(trial); sz < bestSize {
					bestSize, bestFrom, bestTo = sz, j, i
				}
			}
		}
		if bestFrom < 0 {
			break
		}
		for b := range assign {
			if assign[b] == bestFrom {
				assign[b] = bestTo
			}
		}
		freqs[bestTo] += freqs[bestFrom]
		freqs[bestFrom] = 0
	}

	code, err := huffman.Build(freqs)
	if err != nil {
		return nil, nil, 0, err
	}
	out := &Covering{Assign: assign, Freqs: freqs}
	return out, code, s.CompressedBits(out, code.Lengths), nil
}

// BuildHuffmanOpt is BuildHuffman followed by the subsumption post-pass.
func (s *MVSet) BuildHuffmanOpt(ms *BlockMultiset, originalBits int) (*Result, error) {
	res, err := s.BuildHuffman(ms, originalBits)
	if err != nil {
		return nil, err
	}
	cov, code, sz, err := s.SubsumeOptimize(res.Covering)
	if err != nil {
		return nil, err
	}
	if sz < res.CompressedBits {
		res.Covering = cov
		res.Code = code
		res.CompressedBits = sz
	}
	return res, nil
}
