// Package blockcode implements the fixed-length input-block code framework
// of Section 2 of the paper: the test-set string is partitioned into input
// blocks of length K; a set of matching vectors (MVs) over {0,1,U} covers
// the blocks; each block is encoded as the prefix codeword of its MV
// followed by the block's values at the MV's U positions.
package blockcode

import (
	"fmt"
	"sort"

	"repro/internal/bitstream"
	"repro/internal/huffman"
	"repro/internal/testset"
	"repro/internal/tritvec"
)

// Partition splits the flattened test-set string of ts into input blocks of
// length k, padding the final block with X values as required by the paper
// ("the test set string is filled up by adding … X values in the end").
func Partition(ts *testset.TestSet, k int) []tritvec.Vector {
	if k <= 0 {
		panic("blockcode: K must be positive")
	}
	flat := ts.Flatten()
	return PartitionFlat(flat, k)
}

// PartitionFlat splits an arbitrary trit string into K-blocks with X
// padding.
func PartitionFlat(flat tritvec.Vector, k int) []tritvec.Vector {
	n := flat.Len()
	nblocks := (n + k - 1) / k
	blocks := make([]tritvec.Vector, nblocks)
	for i := 0; i < nblocks; i++ {
		lo := i * k
		hi := lo + k
		if hi <= n {
			blocks[i] = flat.Slice(lo, hi)
		} else {
			b := tritvec.New(k)
			b.CopyFrom(flat.Slice(lo, n), 0)
			blocks[i] = b
		}
	}
	return blocks
}

// MVSet is an ordered set of matching vectors of a common length K.
type MVSet struct {
	K   int
	MVs []tritvec.Vector
}

// NewMVSet validates that all vectors have length k.
func NewMVSet(k int, mvs []tritvec.Vector) (*MVSet, error) {
	for i, v := range mvs {
		if v.Len() != k {
			return nil, fmt.Errorf("blockcode: MV %d has length %d, want %d", i, v.Len(), k)
		}
	}
	return &MVSet{K: k, MVs: mvs}, nil
}

// WithAllU returns a copy of s whose last MV is forced to all-U, the
// paper's device for making every instance solvable. If an all-U MV is
// already present the set is returned unchanged (as a copy).
func (s *MVSet) WithAllU() *MVSet {
	out := &MVSet{K: s.K, MVs: append([]tritvec.Vector(nil), s.MVs...)}
	for _, v := range out.MVs {
		if v.CountX() == s.K {
			return out
		}
	}
	if len(out.MVs) == 0 {
		out.MVs = append(out.MVs, tritvec.New(s.K))
		return out
	}
	out.MVs[len(out.MVs)-1] = tritvec.New(s.K)
	return out
}

// UPositions returns, for every MV, the ascending indices of its U
// positions: the order in which Encode writes a block's fill bits and
// Decode reads them back.
func (s *MVSet) UPositions() [][]int {
	upos := make([][]int, len(s.MVs))
	for i, mv := range s.MVs {
		upos[i] = mv.XPositions()
	}
	return upos
}

// Covering is the result of assigning each block to an MV.
type Covering struct {
	// Assign[b] is the index (into the MVSet) of the MV covering block b,
	// or -1 if no MV matches.
	Assign []int
	// Freqs[i] is the number of blocks covered by MV i.
	Freqs []int
	// Uncovered counts blocks with no matching MV.
	Uncovered int
}

// OK reports whether every block was covered.
func (c *Covering) OK() bool { return c.Uncovered == 0 }

// Cover assigns each block to the first matching MV in min-U order
// (Section 3.2: MVs are processed sorted by increasing number of Us).
func (s *MVSet) Cover(blocks []tritvec.Vector) *Covering {
	return s.coverOrdered(blocks, s.orderMinU())
}

// CoverByEncoding assigns each block to the matching MV with minimal total
// encoding length given per-MV codeword lengths.
func (s *MVSet) CoverByEncoding(blocks []tritvec.Vector, codeLens []int) *Covering {
	order := make([]int, len(s.MVs))
	for i := range order {
		order[i] = i
	}
	cost := func(i int) int { return codeLens[i] + s.MVs[i].CountX() }
	sort.SliceStable(order, func(a, b int) bool { return cost(order[a]) < cost(order[b]) })
	return s.coverOrdered(blocks, order)
}

// orderMinU returns MV indices sorted by ascending number of U positions,
// stable in original index order.
func (s *MVSet) orderMinU() []int {
	order := make([]int, len(s.MVs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return s.MVs[order[a]].CountX() < s.MVs[order[b]].CountX()
	})
	return order
}

func (s *MVSet) coverOrdered(blocks []tritvec.Vector, order []int) *Covering {
	cov := &Covering{Assign: make([]int, len(blocks)), Freqs: make([]int, len(s.MVs))}
	for b, blk := range blocks {
		cov.Assign[b] = -1
		for _, i := range order {
			if s.MVs[i].Matches(blk) {
				cov.Assign[b] = i
				cov.Freqs[i]++
				break
			}
		}
		if cov.Assign[b] == -1 {
			cov.Uncovered++
		}
	}
	return cov
}

// CompressedBits returns Σ_i Freqs[i]·(|C(v_i)| + NU(v_i)) for the given
// codeword lengths.
func (s *MVSet) CompressedBits(cov *Covering, codeLens []int) int {
	total := 0
	for i, f := range cov.Freqs {
		if f > 0 {
			total += f * (codeLens[i] + s.MVs[i].CountX())
		}
	}
	return total
}

// Rate returns the paper's compression rate in percent:
// 100·(original − compressed)/original. Negative rates (expansion) are
// possible and reported as such, as in the paper's tables.
func Rate(originalBits, compressedBits int) float64 {
	if originalBits == 0 {
		return 0
	}
	return 100 * float64(originalBits-compressedBits) / float64(originalBits)
}

// Result bundles everything produced by compressing a block sequence with
// an MV set.
type Result struct {
	Set            *MVSet
	Code           *huffman.Code
	Covering       *Covering
	OriginalBits   int
	CompressedBits int
	// Stream is the actual encoded bitstream (nil when only sizing was
	// requested).
	Stream *bitstream.Writer
}

// RatePercent returns the compression rate of the result.
func (r *Result) RatePercent() float64 { return Rate(r.OriginalBits, r.CompressedBits) }

// BuildHuffman covers the blocks with s (min-U order) and constructs the
// Huffman code from the observed frequencies. It returns an error if any
// block is uncovered.
func (s *MVSet) BuildHuffman(blocks []tritvec.Vector, originalBits int) (*Result, error) {
	cov := s.Cover(blocks)
	if !cov.OK() {
		return nil, fmt.Errorf("blockcode: %d of %d blocks uncovered", cov.Uncovered, len(blocks))
	}
	code, err := huffman.Build(cov.Freqs)
	if err != nil {
		return nil, err
	}
	return &Result{
		Set:            s,
		Code:           code,
		Covering:       cov,
		OriginalBits:   originalBits,
		CompressedBits: s.CompressedBits(cov, code.Lengths),
	}, nil
}

// Encode emits the bitstream for blocks under the covering and code in res.
// Unspecified block values at U positions are transmitted as 0 (any fill is
// acceptable: the position was a don't-care).
func Encode(blocks []tritvec.Vector, res *Result) (*bitstream.Writer, error) {
	w := bitstream.NewWriter()
	code := res.Code
	upos := res.Set.UPositions()
	for b, blk := range blocks {
		mv := res.Covering.Assign[b]
		if mv < 0 {
			return nil, fmt.Errorf("blockcode: block %d uncovered", b)
		}
		if code.Lengths[mv] == 0 {
			return nil, fmt.Errorf("blockcode: MV %d used but has no codeword", mv)
		}
		w.WriteBits(code.Words[mv], code.Lengths[mv])
		for _, pos := range upos[mv] {
			switch blk.Get(pos) {
			case tritvec.One:
				w.WriteBit(1)
			default: // Zero or X → 0 fill
				w.WriteBit(0)
			}
		}
	}
	res.Stream = w
	if w.Len() != res.CompressedBits {
		return nil, fmt.Errorf("blockcode: stream length %d != accounted size %d", w.Len(), res.CompressedBits)
	}
	return w, nil
}

// Decode reconstructs the first totalBits trits of a block-coded
// test-set string from r, as the hardware decoder does: each block's
// codeword selects an MV, whose specified bits and then the transmitted
// fill bits at its U positions go straight into one flat vector. A final
// partial block's fill bits are read but not stored. Truncation errors
// wrap bitstream.ErrEOS. A *bitstream.Reader must hold a codeword bit
// per block before the output is allocated, which bounds the output by
// K trits per payload bit whatever a container header declares.
func Decode(r bitstream.Source, set *MVSet, code *huffman.Code, totalBits int) (tritvec.Vector, error) {
	if totalBits < 0 {
		return tritvec.Vector{}, fmt.Errorf("blockcode: negative output size %d", totalBits)
	}
	dec, err := huffman.NewTableDecoder(code)
	if err != nil {
		return tritvec.Vector{}, err
	}
	k := set.K
	nblocks := (totalBits + k - 1) / k
	if br, ok := r.(*bitstream.Reader); ok {
		if err := br.Err(); err != nil { // declared bits beyond the buffer
			return tritvec.Vector{}, fmt.Errorf("blockcode: %w", err)
		}
		if nblocks > br.Remaining() {
			return tritvec.Vector{}, fmt.Errorf("blockcode: %d blocks but only %d payload bits: %w",
				nblocks, br.Remaining(), bitstream.ErrEOS)
		}
	}
	upos := set.UPositions()
	out := tritvec.New(totalBits)
	for b := 0; b < nblocks; b++ {
		sym, err := dec.Decode(r)
		if err != nil {
			return tritvec.Vector{}, fmt.Errorf("blockcode: block %d: %w", b, err)
		}
		if sym < 0 || sym >= len(set.MVs) {
			return tritvec.Vector{}, fmt.Errorf("blockcode: block %d: decoded invalid MV index %d", b, sym)
		}
		lo, mv := b*k, set.MVs[sym]
		if lo+k > totalBits {
			mv = mv.Slice(0, totalBits-lo) // past totalBits is the encoder's X padding
		}
		out.CopyFrom(mv, lo)
		for _, pos := range upos[sym] {
			bit, err := r.ReadBit()
			if err != nil {
				return tritvec.Vector{}, fmt.Errorf("blockcode: block %d fill: %w", b, err)
			}
			if lo+pos < totalBits {
				out.SetWordMSB(lo+pos, uint64(bit), 1)
			}
		}
	}
	return out, nil
}

// Verify checks losslessness on a flat test-set string: decoded is
// fully specified and keeps every specified bit of original.
func Verify(original, decoded tritvec.Vector) error {
	if original.Len() != decoded.Len() {
		return fmt.Errorf("blockcode: decoded %d trits, original has %d", decoded.Len(), original.Len())
	}
	if decoded.CountX() != 0 {
		return fmt.Errorf("blockcode: decoded string not fully specified")
	}
	if !original.Subsumes(decoded) {
		return fmt.Errorf("blockcode: decoded string incompatible with original")
	}
	return nil
}

// CompressHuffman is the one-call convenience: partition ts into K-blocks,
// cover with set, Huffman-encode, emit and verify the stream.
func CompressHuffman(ts *testset.TestSet, set *MVSet) (*Result, error) {
	blocks := Partition(ts, set.K)
	res, err := set.BuildHuffman(blocks, ts.TotalBits())
	if err != nil {
		return nil, err
	}
	if _, err := Encode(blocks, res); err != nil {
		return nil, err
	}
	return res, nil
}
