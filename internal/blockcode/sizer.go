package blockcode

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/huffman"
	"repro/internal/tritvec"
)

// Sizer computes the compressed size of a matching-vector set, given as
// an EA genome, over one block multiset: the paper's fitness (Sections
// 3.2–3.3) without materializing the MVs, the covering or the code. Its
// size equals, bit for bit, the CompressedBits of MVSet.BuildHuffman on
// the same MVs, which stays the reference.
//
// Blocks are covered bit-sliced. For each position j and bit value b a
// mask of ⌈L/64⌉ words marks the MVs, in min-U order, that accept b at j
// (U or equal to b). A block's candidates are the AND of the masks of
// its specified bits, and the lowest candidate is the covering MV. A
// block thus costs its number of specified bits, not a scan over MVs.
//
// A Sizer keeps one evaluation's scratch and is not safe for concurrent
// use. Clone returns a Sizer that shares the read-only block planes.
type Sizer struct {
	k, l   int
	kw, lw int // words per block plane (⌈K/64⌉) and per MV mask (⌈L/64⌉)

	// Read-only after NewSizer, shared by clones.
	care, val []uint64 // unique blocks' planes, kw words each, contiguous
	counts    []int    // block multiplicities
	full      []uint64 // lw words with every MV rank set

	// Scratch for one evaluation.
	genCare, genVal []uint64 // the genome's care/val bits, K·L of them
	mvCare, mvVal   []uint64 // MV planes, kw words each, by MV index
	nu              []int    // U positions per MV
	order           []int    // MV index by min-U rank
	start           []int    // counting-sort offsets by U count
	lanes           []uint64 // rejection bits, see Size
	masks           []uint64 // masks[(2j+b)·lw:][:lw]: ranks accepting b at j
	cand            []uint64 // lw words
	freqs           []int    // covered blocks per rank
}

// NewSizer builds a sizer for genomes of l matching vectors of length k
// over the blocks of ms, which must all have length k.
func NewSizer(ms *BlockMultiset, k, l int) *Sizer {
	if k <= 0 || l <= 0 {
		panic(fmt.Sprintf("blockcode: sizer needs positive K and L, got %d and %d", k, l))
	}
	kw, lw := (k+63)/64, (l+63)/64
	s := &Sizer{
		k: k, l: l, kw: kw, lw: lw,
		care:   make([]uint64, len(ms.Blocks)*kw),
		val:    make([]uint64, len(ms.Blocks)*kw),
		counts: make([]int, len(ms.Blocks)),
		full:   make([]uint64, lw),
	}
	// Blocks go in order of their specified-bit count, so the cover's
	// loop over care bits runs the same length for long stretches and
	// its exit branch predicts well. Frequencies are sums, so the order
	// changes no result.
	order := make([]int, len(ms.Blocks))
	for u, b := range ms.Blocks {
		if b.Len() != k {
			panic(fmt.Sprintf("blockcode: block %d has length %d, sizer K is %d", u, b.Len(), k))
		}
		order[u] = u
	}
	sort.SliceStable(order, func(a, b int) bool {
		return ms.Blocks[order[a]].CountSpecified() < ms.Blocks[order[b]].CountSpecified()
	})
	for u, src := range order {
		care, val := ms.Blocks[src].Words()
		copy(s.care[u*kw:], care)
		copy(s.val[u*kw:], val)
		s.counts[u] = ms.Counts[src]
	}
	for x := range s.full {
		s.full[x] = ^uint64(0)
	}
	if r := l % 64; r != 0 {
		s.full[lw-1] = 1<<uint(r) - 1
	}
	s.allocScratch()
	return s
}

// Clone returns a sizer over the same blocks with its own scratch.
func (s *Sizer) Clone() *Sizer {
	c := &Sizer{k: s.k, l: s.l, kw: s.kw, lw: s.lw, care: s.care, val: s.val, counts: s.counts, full: s.full}
	c.allocScratch()
	return c
}

func (s *Sizer) allocScratch() {
	k, l, kw, lw := s.k, s.l, s.kw, s.lw
	// One spare word lets extract read past the last genome bit.
	s.genCare, s.genVal = make([]uint64, (k*l+63)/64+1), make([]uint64, (k*l+63)/64+1)
	s.mvCare, s.mvVal = make([]uint64, l*kw), make([]uint64, l*kw)
	s.nu, s.order, s.start = make([]int, l), make([]int, l), make([]int, k+2)
	s.lanes = make([]uint64, 2*((k+7)/8)*8*lw)
	s.masks = make([]uint64, 2*k*lw)
	s.cand = make([]uint64, lw)
	s.freqs = make([]int, l)
}

// Size returns the compressed size in bits of the blocks under the MV set
// encoded by genes: L·K genes, row-major, each taken mod 3 as a trit in
// the tritvec encoding (0=U, 1=0, 2=1). It is false when a block is left
// uncovered or there are no blocks. Size allocates nothing.
func (s *Sizer) Size(genes []uint8) (int, bool) {
	k, l, kw, lw := s.k, s.l, s.kw, s.lw
	n := k * l
	if len(genes) != n {
		panic(fmt.Sprintf("blockcode: genome has %d genes, want %d", len(genes), n))
	}

	// Pack the genome into care/val bits, 8 genes at a time. Trit t is
	// U, 0, 1 for t = 0, 1, 2, so its care bit is (t+1)>>1 and its value
	// t>>1. For 8 genes below 3 that is computed per byte lane, and a
	// multiply gathers the lanes' low bits into one byte.
	clear(s.genCare)
	clear(s.genVal)
	for q := 0; q < n; q += 8 {
		x := uint64(0x80) // a short tail takes the per-gene path
		if q+8 <= n {
			x = binary.LittleEndian.Uint64(genes[q:])
		}
		var care, val uint64
		if (x+0x7d7d7d7d7d7d7d7d|x)&0x8080808080808080 == 0 {
			care = ((x + 0x0101010101010101) >> 1 & 0x0101010101010101) * 0x0102040810204080 >> 56
			val = (x >> 1 & 0x0101010101010101) * 0x0102040810204080 >> 56
		} else {
			for j, g := range genes[q:min(n, q+8)] {
				t := uint64(g % 3)
				care |= (t + 1) >> 1 << uint(j)
				val |= t >> 1 << uint(j)
			}
		}
		s.genCare[q>>6] |= care << (uint(q) & 63)
		s.genVal[q>>6] |= val << (uint(q) & 63)
	}
	for i := 0; i < l; i++ {
		specified := 0
		for w := 0; w < kw; w++ {
			off, width := i*k+w*64, min(64, k-w*64)
			care := extract(s.genCare, off, width)
			s.mvCare[i*kw+w], s.mvVal[i*kw+w] = care, extract(s.genVal, off, width)
			specified += bits.OnesCount64(care)
		}
		s.nu[i] = k - specified
	}

	// Min-U order: counting sort by U count, stable by MV index, which is
	// the order MVSet.CoverMultiset uses.
	start := s.start
	clear(start)
	for _, u := range s.nu {
		start[u+1]++
	}
	for u := 1; u <= k; u++ {
		start[u] += start[u-1]
	}
	for i, u := range s.nu {
		s.order[start[u]] = i
		start[u]++
	}

	// Acceptance masks. Rank r rejects 0 at j if it holds 1 there, and
	// rejects 1 if it holds 0. Each rank spreads its rejection bits for
	// positions 8c..8c+7 into byte lanes of word lanes[(b·nc+c)·ng+r/8],
	// at bit r%8 of each lane. Transposing each 8×8 byte tile then gives
	// every position a word over 64 ranks.
	nc, ng := (k+7)/8, 8*lw
	lanes := s.lanes
	clear(lanes)
	for r, i := range s.order {
		g, q := r>>3, uint(r)&7
		for c := 0; c < nc; c++ {
			sh := uint(c&7) * 8
			care, val := s.mvCare[i*kw+c>>3]>>sh, s.mvVal[i*kw+c>>3]>>sh
			lanes[c*ng+g] |= tritvec.Spread(byte(val)) << q
			lanes[(nc+c)*ng+g] |= tritvec.Spread(byte(care&^val)) << q
		}
	}
	for b := 0; b < 2; b++ {
		for c := 0; c < nc; c++ {
			for x := 0; x < lw; x++ {
				tile := (*[8]uint64)(lanes[(b*nc+c)*ng+8*x:])
				transposeBytes(tile)
				for i := 0; i < 8 && 8*c+i < k; i++ {
					s.masks[(2*(8*c+i)+b)*lw+x] = ^tile[i]
				}
			}
		}
	}

	// Cover: each unique block goes to its lowest-ranked accepting MV.
	// For L ≤ 64, the paper's setting, the candidates fit one register;
	// looping over mask words there made an s5378 evaluation a quarter
	// or more slower.
	clear(s.freqs)
	var covered bool
	if lw == 1 {
		covered = s.coverOneWord()
	} else {
		covered = s.coverWords()
	}
	if !covered {
		return 0, false
	}

	// Size = Huffman codeword bits + fill bits at the U positions.
	fill := 0
	for r, f := range s.freqs {
		fill += f * s.nu[s.order[r]]
	}
	code, ok := huffman.Cost(s.freqs)
	if !ok {
		return 0, false
	}
	return code + fill, true
}

// coverOneWord is the cover for L ≤ 64, where a candidate set is one
// word. It adds each block's multiplicity to its MV's rank and is false
// at the first uncovered block.
func (s *Sizer) coverOneWord() bool {
	kw := s.kw
	for u, n := range s.counts {
		cand := s.full[0]
		for w := 0; w < kw; w++ {
			care, val := s.care[u*kw+w], s.val[u*kw+w]
			for care != 0 {
				tz := bits.TrailingZeros64(care)
				care &= care - 1
				cand &= s.masks[2*(w*64+tz)+int(val>>uint(tz)&1)]
			}
		}
		if cand == 0 {
			return false
		}
		s.freqs[bits.TrailingZeros64(cand)] += n
	}
	return true
}

// coverWords is coverOneWord for any L.
func (s *Sizer) coverWords() bool {
	kw, lw, cand := s.kw, s.lw, s.cand
	for u, n := range s.counts {
		copy(cand, s.full)
		for w := 0; w < kw; w++ {
			care, val := s.care[u*kw+w], s.val[u*kw+w]
			for care != 0 {
				tz := bits.TrailingZeros64(care)
				care &= care - 1
				m := s.masks[(2*(w*64+tz)+int(val>>uint(tz)&1))*lw:][:lw]
				for x := range cand {
					cand[x] &= m[x]
				}
			}
		}
		r := -1
		for x, c := range cand {
			if c != 0 {
				r = x*64 + bits.TrailingZeros64(c)
				break
			}
		}
		if r < 0 {
			return false
		}
		s.freqs[r] += n
	}
	return true
}

// extract returns the width ≤ 64 bits of plane p that start at bit off.
// p must hold a word beyond the last bit read.
func extract(p []uint64, off, width int) uint64 {
	w, sh := off>>6, uint(off)&63
	v := p[w] >> sh
	if sh != 0 {
		v |= p[w+1] << (64 - sh)
	}
	if width < 64 {
		v &= 1<<uint(width) - 1
	}
	return v
}

// transposeBytes transposes the 8×8 byte matrix whose row g is t[g]:
// byte i of t[g] becomes byte g of t[i]. Each step swaps the
// off-diagonal halves of ever smaller blocks.
func transposeBytes(t *[8]uint64) {
	for g := 0; g < 4; g++ {
		d := (t[g]>>32 ^ t[g+4]) & 0x00000000ffffffff
		t[g+4] ^= d
		t[g] ^= d << 32
	}
	for _, g := range [4]int{0, 1, 4, 5} {
		d := (t[g]>>16 ^ t[g+2]) & 0x0000ffff0000ffff
		t[g+2] ^= d
		t[g] ^= d << 16
	}
	for g := 0; g < 8; g += 2 {
		d := (t[g]>>8 ^ t[g+1]) & 0x00ff00ff00ff00ff
		t[g+1] ^= d
		t[g] ^= d << 8
	}
}
