package blockcode

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/huffman"
)

// Sizer computes the compressed size of a matching-vector set, given as
// an EA genome, over one block multiset: the paper's fitness (Sections
// 3.2–3.3) without materializing the MVs, the covering or the code. Its
// size equals, bit for bit, the CompressedBits of MVSet.BuildHuffman on
// the same MVs, which stays the reference.
//
// Blocks are covered through acceptance tables. For each position j and
// bit value b a mask of ⌈L/64⌉ words marks the MVs, in min-U order, that
// accept b at j (U or equal to b). Positions go in groups of four, and a
// block's four trits in a group are one base-3 code (X, 0, 1 as digits
// 0, 1, 2), stored when the sizer is built. Each evaluation builds one
// table per group whose entry for code t is the AND of the masks of t's
// specified trits; a block's candidates are the AND of its groups'
// entries, and the lowest candidate is the covering MV. A block thus
// costs ⌈K/4⌉ table reads whatever its specified bits, and a group's
// table 72 ANDs of ⌈L/64⌉ words per evaluation.
//
// A Sizer keeps one evaluation's scratch and is not safe for concurrent
// use. Clone returns a Sizer that shares the read-only block codes.
type Sizer struct {
	k, l   int
	lw     int // words per MV mask (⌈L/64⌉)
	groups int // ⌈K/4⌉ position groups

	// Read-only after NewSizer, shared by clones.
	codes  []uint8  // codes[g·n+u]: block u's code over group g, n blocks
	counts []int    // block multiplicities, the multiset's own
	full   []uint64 // lw words with every MV rank set

	// Scratch for one evaluation.
	words  []uint64 // words[i·⌈K/8⌉+c]: MV i's genes 8c..8c+7, see geneLanes
	nu     []int    // U positions per MV
	order  []int    // MV index by min-U rank
	start  []int    // counting-sort offsets by U count
	lanes  []uint64 // rejection bits in byte lanes, see Size
	tables []uint64 // tables[81(g·lw+x)+t]: word x of the ranks accepting code t over group g
	cand   []uint64 // cand[x·t+u]: word x of the ranks accepting block u of a tile of t
	freqs  []int    // covered blocks per rank
}

// pow3 holds the weights of a group's four base-3 digits.
var pow3 = [4]int{1, 3, 9, 27}

// tileWords bounds the candidate words of one tile of blocks, so that
// the cover's scratch stays in cache through the passes over the groups
// and does not grow with the number of blocks.
const tileWords = 2048

// NewSizer builds a sizer for genomes of l matching vectors of length k
// over the blocks of ms, which must all have length k. The sizer reads
// ms.Counts in place.
func NewSizer(ms *BlockMultiset, k, l int) *Sizer {
	if k <= 0 || l <= 0 {
		panic(fmt.Sprintf("blockcode: sizer needs positive K and L, got %d and %d", k, l))
	}
	n, lw, groups := len(ms.Blocks), (l+63)/64, (k+3)/4
	s := &Sizer{
		k: k, l: l, lw: lw, groups: groups,
		codes:  make([]uint8, groups*n),
		counts: ms.Counts,
		full:   make([]uint64, lw),
	}
	for u, b := range ms.Blocks {
		if b.Len() != k {
			panic(fmt.Sprintf("blockcode: block %d has length %d, sizer K is %d", u, b.Len(), k))
		}
		care, val := b.Words()
		for j := 0; j < k; j++ {
			w, sh := j>>6, uint(j)&63
			digit := care[w]>>sh&1 + val[w]>>sh&1
			s.codes[(j>>2)*n+u] += uint8(int(digit) * pow3[j&3])
		}
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
	c := &Sizer{k: s.k, l: s.l, lw: s.lw, groups: s.groups, codes: s.codes, counts: s.counts, full: s.full}
	c.allocScratch()
	return c
}

func (s *Sizer) allocScratch() {
	k, l, lw := s.k, s.l, s.lw
	s.words = make([]uint64, l*((k+7)/8))
	s.nu, s.order, s.start = make([]int, l), make([]int, l), make([]int, k+2)
	s.lanes = make([]uint64, 2*((k+7)/8)*8*lw)
	s.tables = make([]uint64, 81*s.groups*lw)
	for i := 0; i < s.groups*lw; i++ {
		s.tables[81*i] = s.full[i%lw] // code 0, all X: every rank accepts
	}
	s.cand = make([]uint64, min(len(s.counts), max(1, tileWords/lw))*lw)
	s.freqs = make([]int, l)
}

// Size returns the compressed size in bits of the blocks under the MV set
// encoded by genes: L·K genes, row-major, each taken mod 3 as a trit in
// the tritvec encoding (0=U, 1=0, 2=1). It is false when a block is left
// uncovered or there are no blocks. Size allocates nothing.
func (s *Sizer) Size(genes []uint8) (int, bool) {
	k, l, lw := s.k, s.l, s.lw
	n := k * l
	if len(genes) != n {
		panic(fmt.Sprintf("blockcode: genome has %d genes, want %d", len(genes), n))
	}

	// Read each MV's genes eight to a word, one to a byte lane (see
	// geneLanes), and count its specified positions.
	nc, words := (k+7)/8, s.words
	for i := 0; i < l; i++ {
		specified := 0
		for c := 0; c < nc; c++ {
			x := geneLanes(genes, i*k+8*c, min(8, k-8*c))
			words[i*nc+c] = x
			specified += bits.OnesCount64((x | x>>1) & laneLow)
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
	// rejects 1 if it holds 0. Each rank ORs its holds-1 and holds-0
	// lanes for positions 8c..8c+7, bit 0 of each lane, into word
	// lanes[(b·nc+c)·ng+r/8] at bit r%8 of each lane. Transposing each
	// 8×8 byte tile then gives every position a word over 64 ranks,
	// which is the table entry of the code with that position's one
	// digit b+1.
	ng := 8 * lw
	lanes := s.lanes
	clear(lanes)
	for r, i := range s.order {
		g, q := r>>3, uint(r)&7
		for c, x := range words[i*nc : (i+1)*nc] {
			lanes[c*ng+g] |= x >> 1 & laneLow << q
			lanes[(nc+c)*ng+g] |= x & laneLow << q
		}
	}
	for b := 0; b < 2; b++ {
		for c := 0; c < nc; c++ {
			for x := 0; x < lw; x++ {
				tile := (*[8]uint64)(lanes[(b*nc+c)*ng+8*x:])
				transposeBytes(tile)
				for i := 0; i < 8 && 8*c+i < k; i++ {
					j := 8*c + i
					s.tables[81*((j>>2)*lw+x)+(b+1)*pow3[j&3]] = ^tile[i] & s.full[x]
				}
			}
		}
	}
	// The other entries: code t + d·3^p, for t < 3^p, accepts what t and
	// the one-digit code d·3^p both accept.
	for g := 0; g < s.groups; g++ {
		for x := 0; x < lw; x++ {
			tab := s.tables[81*(g*lw+x):][:81]
			for p := 1; p < min(4, k-4*g); p++ {
				step := pow3[p]
				for t := 1; t < step; t++ {
					tab[t+step] = tab[t] & tab[step]
					tab[t+2*step] = tab[t] & tab[2*step]
				}
			}
		}
	}

	// Cover: each unique block goes to its lowest-ranked accepting MV.
	// Blocks go in tiles of tileWords/lw (at least one). Within a tile,
	// word by word and group after group, each block's table entry is
	// ANDed into its candidates, a pass over one table and one row of
	// codes at a time. The last group's pass also adds each block's
	// multiplicity to its lowest candidate's rank; an uncovered block
	// ends the evaluation. With one group that pass ANDs group 0 again,
	// which changes nothing.
	nb, last := len(s.counts), s.groups-1
	tile := max(1, tileWords/lw)
	clear(s.freqs)
	for lo := 0; lo < nb; lo += tile {
		hi := min(nb, lo+tile)
		nt := hi - lo
		for x := 0; x < lw; x++ {
			cand := s.cand[x*nt:][:nt]
			tab := s.tables[81*x:][:81]
			for u, c := range s.codes[lo:hi] {
				cand[u] = tab[c]
			}
			for g := 1; g < last; g++ {
				tab := s.tables[81*(g*lw+x):][:81]
				for u, c := range s.codes[g*nb+lo : g*nb+hi] {
					cand[u] &= tab[c]
				}
			}
		}
		codes, counts := s.codes[last*nb+lo:last*nb+hi], s.counts[lo:hi]
		if lw == 1 {
			// For L ≤ 64, the paper's setting, the candidates are one
			// word; reading them without the loop over words took a
			// quarter off BenchmarkFitness.
			cand, tab := s.cand[:nt], s.tables[81*last:][:81]
			for u, c := range codes {
				v := cand[u] & tab[c]
				if v == 0 {
					return 0, false
				}
				s.freqs[bits.TrailingZeros64(v)] += counts[u]
			}
			continue
		}
		for u, f := range counts {
			r := -1
			for x := 0; x < lw; x++ {
				if v := s.cand[x*nt+u] & s.tables[81*(last*lw+x)+int(codes[u])]; v != 0 {
					r = 64*x + bits.TrailingZeros64(v)
					break
				}
			}
			if r < 0 {
				return 0, false
			}
			s.freqs[r] += f
		}
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

// laneLow is bit 0 of every byte lane of a word.
const laneLow = 0x0101010101010101

// geneLanes returns genes off..off+w-1, 0 < w ≤ 8, as the byte lanes of
// a word: lane j holds gene off+j taken mod 3, trit t, and the lanes
// from w on hold 0. Trit t is U, 0, 1 for t = 0, 1, 2, so bit 0 of a
// lane's t|t>>1 is its specified bit, of t>>1 its holds-1 bit and of t
// its holds-0 bit. Where fewer than eight genes are left from off, or a
// gene is 3 or more, tritLanes builds the word gene by gene.
func geneLanes(genes []uint8, off, w int) uint64 {
	if off+8 <= len(genes) {
		x := binary.LittleEndian.Uint64(genes[off:]) & (^uint64(0) >> (64 - 8*uint(w)))
		// A lane's bit 7 is set in x+0x7d… or x exactly when the lane
		// is at least 3; a carry out of a lane comes only from a lane
		// of 0x83 or more, whose own bit 7 is set in x.
		if (x+0x7d7d7d7d7d7d7d7d|x)&0x8080808080808080 == 0 {
			return x
		}
	}
	return tritLanes(genes[off : off+w])
}

// tritLanes returns gene j of genes, taken mod 3, in byte lane j.
func tritLanes(genes []uint8) uint64 {
	var x uint64
	for j, g := range genes {
		x |= uint64(g%3) << (8 * uint(j))
	}
	return x
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
