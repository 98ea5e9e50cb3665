package selhuff

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/huffman"
	"repro/internal/testset"
	"repro/internal/tritvec"
)

// refDecompress is the per-bit selective-Huffman decoder Decompress is
// held to: flags and raw blocks one ReadBit at a time, codewords
// through the bit-at-a-time trie, one trit written at a time, and no
// payload-length guard.
func refDecompress(r *bitstream.Reader, res *Result, totalBits int) (tritvec.Vector, error) {
	trie, err := huffman.NewDecoder(res.Code)
	if err != nil {
		return tritvec.Vector{}, err
	}
	out := tritvec.New(totalBits)
	for pos := 0; pos < totalBits; {
		flag, err := r.ReadBit()
		if err != nil {
			return tritvec.Vector{}, err
		}
		var word uint64
		if flag == 1 {
			sym, err := trie.Decode(r)
			if err != nil {
				return tritvec.Vector{}, err
			}
			word = res.Dictionary[sym]
		} else {
			for i := 0; i < res.K; i++ {
				bit, err := r.ReadBit()
				if err != nil {
					return tritvec.Vector{}, err
				}
				word = word<<1 | uint64(bit)
			}
		}
		// MSB first; a final partial block keeps the high bits.
		for i := res.K - 1; i >= 0 && pos < totalBits; i-- {
			t := tritvec.Zero
			if word>>uint(i)&1 == 1 {
				t = tritvec.One
			}
			out.Set(pos, t)
			pos++
		}
	}
	return out, nil
}

func TestDecompressPeekerMatchesFallback(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for trial := 0; trial < 60; trial++ {
		ts := testset.Random(1+r.Intn(48), 1+r.Intn(24), []float64{0.05, 0.3, 0.9}[trial%3], r)
		k := 1 + r.Intn(12)
		d := 1 + r.Intn(8)
		res, err := Compress(ts, k, d)
		if err != nil {
			t.Fatal(err)
		}
		total := ts.TotalBits()
		fast, err := Decompress(bitstream.FromWriter(res.Stream), res, total)
		if err != nil {
			t.Fatalf("Decompress: %v", err)
		}
		slow, err := refDecompress(bitstream.FromWriter(res.Stream), res, total)
		if err != nil {
			t.Fatalf("per-bit reference: %v", err)
		}
		if !fast.Equal(slow) {
			t.Fatalf("k=%d d=%d decoders disagree:\nfast %s\nref  %s", k, d, fast, slow)
		}
	}
}

func TestDecompressPathsAgreeOnHostileStreams(t *testing.T) {
	// Random garbage against a fixed dictionary: whatever the reference
	// does (decode or error), Decompress must do the same, down to the
	// ErrEOS class. Its payload-length guard only fails streams the
	// reference runs out of.
	r := rand.New(rand.NewSource(62))
	ts := testset.Random(32, 16, 0.3, r)
	res, err := Compress(ts, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		buf := make([]byte, r.Intn(40))
		r.Read(buf)
		nbit := len(buf)*8 - r.Intn(8)
		if nbit < 0 {
			nbit = 0
		}
		total := r.Intn(300)
		fast, errFast := Decompress(bitstream.NewReader(buf, nbit), res, total)
		slow, errSlow := refDecompress(bitstream.NewReader(buf, nbit), res, total)
		if (errFast == nil) != (errSlow == nil) ||
			errors.Is(errFast, bitstream.ErrEOS) != errors.Is(errSlow, bitstream.ErrEOS) {
			t.Fatalf("total=%d: Decompress err=%v, reference err=%v", total, errFast, errSlow)
		}
		if errFast == nil && !fast.Equal(slow) {
			t.Fatalf("total=%d: hostile decode disagrees\nfast %s\nref  %s", total, fast, slow)
		}
	}
}
