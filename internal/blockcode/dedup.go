package blockcode

import (
	"math/bits"
	"math/rand"

	"repro/internal/tritvec"
)

// BlockMultiset is a cut test-set string as its distinct blocks: real
// test-set strings repeat blocks heavily (sparse specified bits), so
// covering and sizing over the distinct blocks weighted by multiplicity
// is dramatically cheaper than over the raw sequence while producing
// identical frequencies and sizes. Seq keeps the sequence for Encode.
type BlockMultiset struct {
	Blocks []tritvec.Vector // distinct blocks, in first-occurrence order
	Counts []int            // Counts[d] is the multiplicity of Blocks[d]
	Seq    []int32          // Seq[b] is the index in Blocks of block b
	Total  int              // the number of blocks, Σ Counts
}

// Dedup collapses equal blocks, preserving first-occurrence order. It
// reads each block in place, a care and a value word per 64 trits, and
// looks it up by a 64-bit digest of those words without allocating.
// The digest is keyed by two words drawn for the call: blocks built to
// share an unkeyed digest would make every lookup walk their chain.
func Dedup(blocks Blocks) *BlockMultiset {
	return dedup(blocks, keyed(rand.Uint64(), rand.Uint64()))
}

// keyed returns Dedup's digest step under the keys k0 and k1: it folds
// a block's care and value words into the digest h by one 64×64-bit
// multiply of the keyed words whose two halves are XORed, the mix of
// wyhash and of Go's map hash where AES is missing.
func keyed(k0, k1 uint64) func(h, care, val uint64) uint64 {
	return func(h, care, val uint64) uint64 {
		hi, lo := bits.Mul64(care^k0, val^k1^h)
		return hi ^ lo
	}
}

// dedup is Dedup under the digest that fold builds, word by word from
// 0. The distinct blocks that share a digest form a chain, compared
// word by word, so a digest collision never merges two blocks.
func dedup(blocks Blocks, fold func(h, care, val uint64) uint64) *BlockMultiset {
	k := blocks.k
	ms := &BlockMultiset{Seq: make([]int32, blocks.n), Total: blocks.n}
	index := make(map[uint64]int32) // digest → the last distinct block with it
	var next []int32                // next[d]: the previous distinct block with d's digest, or -1
	key := make([]uint64, 2*((k+63)/64))
	for b := range ms.Seq {
		h := uint64(0)
		for i := 0; 64*i < k; i++ {
			care, val := blocks.flat.Window(b*k+64*i, min(64, k-64*i))
			key[2*i], key[2*i+1] = care, val
			h = fold(h, care, val)
		}
		d, ok := index[h]
		if !ok {
			d = -1
		}
		head := d
		for d >= 0 && !ms.holds(d, key) {
			d = next[d]
		}
		if d < 0 {
			d = int32(len(ms.Blocks))
			index[h] = d
			next = append(next, head)
			ms.Blocks = append(ms.Blocks, blocks.block(b))
			ms.Counts = append(ms.Counts, 0)
		}
		ms.Counts[d]++
		ms.Seq[b] = d
	}
	return ms
}

// holds reports whether distinct block d has the care and value words
// of key, interleaved as Dedup reads them.
func (ms *BlockMultiset) holds(d int32, key []uint64) bool {
	care, val := ms.Blocks[d].Words()
	for w := range care {
		if care[w] != key[2*w] || val[w] != key[2*w+1] {
			return false
		}
	}
	return true
}
