// Package selhuff implements selective Huffman coding of test data (Jas,
// Ghosh-Dastidar & Touba, VTS'99): the test-set string is zero-filled and
// cut into fixed blocks of K bits; the D most frequent block patterns
// receive Huffman codewords marked with a '1' flag bit, all other blocks
// are transmitted raw behind a '0' flag.
package selhuff

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/bitstream"
	"repro/internal/huffman"
	"repro/internal/runlength"
	"repro/internal/testset"
	"repro/internal/tritvec"
)

// Result reports an encoding.
type Result struct {
	K, D           int
	OriginalBits   int
	CompressedBits int
	Stream         *bitstream.Writer
	// Dictionary holds the encoded patterns in symbol order.
	Dictionary []uint64
	Code       *huffman.Code
}

// RatePercent returns the paper-style compression rate.
func (r *Result) RatePercent() float64 {
	if r.OriginalBits == 0 {
		return 0
	}
	return 100 * float64(r.OriginalBits-r.CompressedBits) / float64(r.OriginalBits)
}

// Compress encodes ts with block size k and dictionary size d.
func Compress(ts *testset.TestSet, k, d int) (*Result, error) {
	if k < 1 || k > 62 {
		return nil, fmt.Errorf("selhuff: block size %d out of range", k)
	}
	if d < 1 {
		return nil, fmt.Errorf("selhuff: dictionary size %d out of range", d)
	}
	flat := runlength.ZeroFill(ts)
	freq := make(map[uint64]int)
	words := make([]uint64, (flat.Len()+k-1)/k)
	for b := range words {
		// The block's value bits, first trit most significant; the
		// string is zero-filled, and past its end reads as 0.
		_, val := flat.Window(b*k, k)
		words[b] = bits.Reverse64(val) >> uint(64-k)
		freq[words[b]]++
	}
	type pf struct {
		w uint64
		f int
	}
	all := make([]pf, 0, len(freq))
	for w, f := range freq {
		all = append(all, pf{w, f})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].f != all[j].f {
			return all[i].f > all[j].f
		}
		return all[i].w < all[j].w
	})
	if d > len(all) {
		d = len(all)
	}
	dict := make([]uint64, d)
	index := make(map[uint64]int, d)
	freqs := make([]int, d)
	for i := 0; i < d; i++ {
		dict[i] = all[i].w
		index[all[i].w] = i
		freqs[i] = all[i].f
	}
	code, err := huffman.Build(freqs)
	if err != nil {
		return nil, err
	}
	w := bitstream.NewWriter()
	for _, word := range words {
		if sym, ok := index[word]; ok {
			w.WriteBit(1)
			w.WriteBits(code.Words[sym], code.Lengths[sym])
		} else {
			w.WriteBit(0)
			w.WriteBits(word, k)
		}
	}
	return &Result{
		K: k, D: d,
		OriginalBits:   ts.TotalBits(),
		CompressedBits: w.Len(),
		Stream:         w,
		Dictionary:     dict,
		Code:           code,
	}, nil
}

// Decompress reconstructs totalBits bits using the result's dictionary.
// Every block spends at least its flag bit, so r must hold one bit per
// block before the output is allocated: the output is bounded by K trits
// per payload bit whatever a container header declares.
func Decompress(r *bitstream.Reader, res *Result, totalBits int) (tritvec.Vector, error) {
	if res.K < 1 || res.K > 62 {
		return tritvec.Vector{}, fmt.Errorf("selhuff: block size %d out of range", res.K)
	}
	if totalBits < 0 {
		return tritvec.Vector{}, fmt.Errorf("selhuff: negative output size %d", totalBits)
	}
	if len(res.Dictionary) < len(res.Code.Lengths) {
		return tritvec.Vector{}, fmt.Errorf("selhuff: code has %d symbols for %d dictionary words",
			len(res.Code.Lengths), len(res.Dictionary))
	}
	dec, err := huffman.NewTableDecoder(res.Code)
	if err != nil {
		return tritvec.Vector{}, err
	}
	if err := r.Err(); err != nil { // declared bits beyond the buffer
		return tritvec.Vector{}, fmt.Errorf("selhuff: %w", err)
	}
	if nblocks := (totalBits + res.K - 1) / res.K; nblocks > r.Remaining() {
		return tritvec.Vector{}, fmt.Errorf("selhuff: %d blocks but only %d payload bits: %w",
			nblocks, r.Remaining(), bitstream.ErrEOS)
	}
	out := tritvec.New(totalBits)
	pos := 0
	for pos < totalBits {
		flag, err := r.ReadBit()
		if err != nil {
			return tritvec.Vector{}, err
		}
		var word uint64
		if flag == 1 {
			sym, err := dec.Decode(r)
			if err != nil {
				return tritvec.Vector{}, err
			}
			word = res.Dictionary[sym]
		} else {
			word, err = r.ReadBits(res.K)
			if err != nil {
				return tritvec.Vector{}, err
			}
		}
		k := res.K
		if k > totalBits-pos {
			// Final partial block: its high bits fill the tail.
			word >>= uint(k - (totalBits - pos))
			k = totalBits - pos
		}
		out.SetWordMSB(pos, word, k)
		pos += k
	}
	return out, nil
}
