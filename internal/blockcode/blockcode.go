// Package blockcode implements the fixed-length input-block code framework
// of Section 2 of the paper: the test-set string is partitioned into input
// blocks of length K; a set of matching vectors (MVs) over {0,1,U} covers
// the blocks; each block is encoded as the prefix codeword of its MV
// followed by the block's values at the MV's U positions.
//
// A set is cut once: Partition is a view of the flattened string, and
// Dedup reads each block in place into a BlockMultiset, the distinct
// blocks with their multiplicities and the block sequence as one index
// per block. Covering, code construction and encoding all take the
// multiset, so a block that repeats is matched against the MVs once.
package blockcode

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/bitstream"
	"repro/internal/huffman"
	"repro/internal/testset"
	"repro/internal/tritvec"
)

// Blocks is a test-set string cut into K-blocks. It is a view of the
// flattened string, not a copy per block: Dedup reads each block in
// place. The last block is padded with X as required by the paper ("the
// test set string is filled up by adding … X values in the end").
type Blocks struct {
	flat tritvec.Vector
	k, n int
}

// Partition cuts the flattened test-set string of ts into K-blocks. It
// panics if k is not positive, or if the string has more blocks than the
// 32-bit block index of a BlockMultiset holds.
func Partition(ts *testset.TestSet, k int) Blocks {
	if k <= 0 {
		panic("blockcode: K must be positive")
	}
	return Blocks{flat: ts.Flatten(), k: k, n: blockCount(ts.TotalBits(), k)}
}

// blockCount returns the number of K-blocks in a string of bits trits.
func blockCount(bits, k int) int {
	n := (bits + k - 1) / k
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("blockcode: %d blocks of %d trits exceed the 32-bit block index", n, k))
	}
	return n
}

// Len returns the number of blocks.
func (b Blocks) Len() int { return b.n }

// block returns a copy of block i, X-padded to K trits.
func (b Blocks) block(i int) tritvec.Vector {
	lo, hi := i*b.k, (i+1)*b.k
	if hi <= b.flat.Len() {
		return b.flat.Slice(lo, hi)
	}
	v := tritvec.New(b.k)
	v.CopyFrom(b.flat.Slice(lo, b.flat.Len()), 0)
	return v
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

// Covering is the result of assigning each distinct block of a
// BlockMultiset to an MV. Block b of the sequence is covered by
// Assign[Seq[b]].
type Covering struct {
	// Assign[d] is the index (into the MVSet) of the MV covering distinct
	// block d, or -1 if no MV matches.
	Assign []int
	// Freqs[i] is the number of blocks covered by MV i, counted with
	// multiplicity, as if the whole sequence were covered.
	Freqs []int
	// Uncovered counts blocks, with multiplicity, that no MV matches.
	Uncovered int
}

// OK reports whether every block was covered.
func (c *Covering) OK() bool { return c.Uncovered == 0 }

// CoverMultiset assigns each distinct block to the first matching MV in
// min-U order (Section 3.2: MVs are processed sorted by increasing number
// of Us), with ties in MV index order.
func (s *MVSet) CoverMultiset(ms *BlockMultiset) *Covering {
	nu := make([]int, len(s.MVs))
	order := make([]int, len(s.MVs))
	for i, mv := range s.MVs {
		nu[i], order[i] = mv.CountX(), i
	}
	sort.SliceStable(order, func(a, b int) bool { return nu[order[a]] < nu[order[b]] })
	cov := &Covering{Assign: make([]int, len(ms.Blocks)), Freqs: make([]int, len(s.MVs))}
	for d, blk := range ms.Blocks {
		cov.Assign[d] = -1
		for _, i := range order {
			if s.MVs[i].Matches(blk) {
				cov.Assign[d] = i
				cov.Freqs[i] += ms.Counts[d]
				break
			}
		}
		if cov.Assign[d] < 0 {
			cov.Uncovered += ms.Counts[d]
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

// Result bundles everything produced by compressing a block multiset
// with an MV set.
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

// BuildHuffman covers the blocks of ms with s (min-U order) and
// constructs the Huffman code from the observed frequencies. It returns
// an error if any block is uncovered.
func (s *MVSet) BuildHuffman(ms *BlockMultiset, originalBits int) (*Result, error) {
	cov := s.CoverMultiset(ms)
	if !cov.OK() {
		return nil, fmt.Errorf("blockcode: %d of %d blocks uncovered", cov.Uncovered, ms.Total)
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

// Encode emits the bitstream for the block sequence of ms under the
// covering and code in res. Unspecified block values at U positions are
// transmitted as 0 (any fill is acceptable: the position was a
// don't-care). Each distinct block's fill bits are gathered once, up to
// 64 to a word, and written a word at a time for every occurrence.
func Encode(ms *BlockMultiset, res *Result) (*bitstream.Writer, error) {
	w := bitstream.NewWriter()
	code := res.Code
	upos := res.Set.UPositions()
	// fill[d·kw+i]: distinct block d's values at U positions 64i… of
	// its MV, the first in the highest of the word's bits.
	kw := (res.Set.K + 63) / 64
	fill := make([]uint64, len(ms.Blocks)*kw)
	for d, blk := range ms.Blocks {
		if mv := res.Covering.Assign[d]; mv >= 0 {
			_, val := blk.Words()
			for i, pos := range upos[mv] {
				f := &fill[d*kw+i/64]
				*f = *f<<1 | val[pos>>6]>>uint(pos&63)&1
			}
		}
	}
	for b, d := range ms.Seq {
		mv := res.Covering.Assign[d]
		if mv < 0 {
			return nil, fmt.Errorf("blockcode: block %d uncovered", b)
		}
		if code.Lengths[mv] == 0 {
			return nil, fmt.Errorf("blockcode: MV %d used but has no codeword", mv)
		}
		w.WriteBits(code.Words[mv], code.Lengths[mv])
		for i, n := int(d)*kw, len(upos[mv]); n > 0; i, n = i+1, n-64 {
			w.WriteBits(fill[i], min(n, 64))
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
// wrap bitstream.ErrEOS. r must hold a codeword bit per block before the
// output is allocated, which bounds the output by K trits per payload
// bit whatever a container header declares.
func Decode(r *bitstream.Reader, set *MVSet, code *huffman.Code, totalBits int) (tritvec.Vector, error) {
	if totalBits < 0 {
		return tritvec.Vector{}, fmt.Errorf("blockcode: negative output size %d", totalBits)
	}
	dec, err := huffman.NewTableDecoder(code)
	if err != nil {
		return tritvec.Vector{}, err
	}
	k := set.K
	nblocks := (totalBits + k - 1) / k
	if err := r.Err(); err != nil { // declared bits beyond the buffer
		return tritvec.Vector{}, fmt.Errorf("blockcode: %w", err)
	}
	if nblocks > r.Remaining() {
		return tritvec.Vector{}, fmt.Errorf("blockcode: %d blocks but only %d payload bits: %w",
			nblocks, r.Remaining(), bitstream.ErrEOS)
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

// CompressHuffman is the one-call convenience: cover the blocks of ms
// with set, Huffman-encode and emit the stream.
func CompressHuffman(ms *BlockMultiset, set *MVSet, originalBits int) (*Result, error) {
	res, err := set.BuildHuffman(ms, originalBits)
	if err != nil {
		return nil, err
	}
	if _, err := Encode(ms, res); err != nil {
		return nil, err
	}
	return res, nil
}
