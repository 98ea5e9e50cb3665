package blockcode

import (
	"encoding/binary"

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
// reads each block in place, a care and a value word per 64 trits,
// looks the words up without allocating and copies each distinct block
// once.
func Dedup(blocks Blocks) *BlockMultiset {
	k := blocks.k
	ms := &BlockMultiset{Seq: make([]int32, blocks.n), Total: blocks.n}
	index := make(map[string]int32)
	key := make([]byte, 0, 16*((k+63)/64))
	for b := range ms.Seq {
		key = key[:0]
		for off := 0; off < k; off += 64 {
			care, val := blocks.flat.Window(b*k+off, min(64, k-off))
			key = binary.LittleEndian.AppendUint64(key, care)
			key = binary.LittleEndian.AppendUint64(key, val)
		}
		d, ok := index[string(key)]
		if !ok {
			d = int32(len(ms.Blocks))
			index[string(key)] = d
			ms.Blocks = append(ms.Blocks, blocks.block(b))
			ms.Counts = append(ms.Counts, 0)
		}
		ms.Counts[d]++
		ms.Seq[b] = d
	}
	return ms
}
