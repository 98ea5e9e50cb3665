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

	size := func(f []int) (int, *huffman.Code, error) {
		code, err := huffman.Build(f)
		if err != nil {
			return 0, nil, err
		}
		return s.CompressedBits(&Covering{Freqs: f}, code.Lengths), code, nil
	}

	bestSize, bestCode, err := size(freqs)
	if err != nil {
		return nil, nil, 0, err
	}

	for {
		improved := false
		bestFrom, bestTo, bestNew := -1, -1, bestSize
		for j := range s.MVs {
			if freqs[j] == 0 {
				continue
			}
			for i := range s.MVs {
				if i == j || freqs[i] == 0 {
					continue
				}
				if !s.MVs[i].Subsumes(s.MVs[j]) {
					continue
				}
				trial := append([]int(nil), freqs...)
				trial[i] += trial[j]
				trial[j] = 0
				sz, _, err := size(trial)
				if err != nil {
					continue
				}
				if sz < bestNew {
					bestNew, bestFrom, bestTo = sz, j, i
					improved = true
				}
			}
		}
		if !improved {
			break
		}
		for b := range assign {
			if assign[b] == bestFrom {
				assign[b] = bestTo
			}
		}
		freqs[bestTo] += freqs[bestFrom]
		freqs[bestFrom] = 0
		bestSize = bestNew
	}

	var err2 error
	bestSize, bestCode, err2 = size(freqs)
	if err2 != nil {
		return nil, nil, 0, err2
	}
	return &Covering{Assign: assign, Freqs: freqs}, bestCode, bestSize, nil
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
