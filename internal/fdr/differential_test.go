package fdr

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/testset"
	"repro/internal/tritvec"
)

// refDecompress is the per-bit FDR decoder Decompress is held to: it
// reads the group prefix one ReadBit at a time, writes one trit at a
// time and keeps its own run loop. End of stream before a codeword's
// first bit leaves implied zeros.
func refDecompress(r *bitstream.Reader, totalBits int) (tritvec.Vector, error) {
	out := tritvec.New(totalBits)
	for pos := 0; pos < totalBits; {
		bit, err := r.ReadBit()
		if err == bitstream.ErrEOS {
			for ; pos < totalBits; pos++ {
				out.Set(pos, tritvec.Zero)
			}
			break
		}
		if err != nil {
			return tritvec.Vector{}, err
		}
		k := 1
		for bit == 1 {
			if k++; k > maxGroup {
				return tritvec.Vector{}, fmt.Errorf("prefix exceeds group %d: invalid stream", maxGroup)
			}
			if bit, err = r.ReadBit(); err != nil {
				return tritvec.Vector{}, fmt.Errorf("truncated prefix: %w", err)
			}
		}
		tail, err := r.ReadBits(k)
		if err != nil {
			return tritvec.Vector{}, fmt.Errorf("truncated tail: %w", err)
		}
		for n := groupBase(k) + int(tail); n > 0 && pos < totalBits; n-- {
			out.Set(pos, tritvec.Zero)
			pos++
		}
		if pos < totalBits {
			out.Set(pos, tritvec.One)
			pos++
		}
	}
	return out, nil
}

func TestDecompressPeekerMatchesFallback(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		ts := testset.Random(1+r.Intn(48), 1+r.Intn(24), []float64{0.05, 0.3, 0.9}[trial%3], r)
		res, err := Compress(ts)
		if err != nil {
			t.Fatal(err)
		}
		total := ts.TotalBits()
		fast, err := Decompress(bitstream.FromWriter(res.Stream), total)
		if err != nil {
			t.Fatalf("Decompress: %v", err)
		}
		slow, err := refDecompress(bitstream.FromWriter(res.Stream), total)
		if err != nil {
			t.Fatalf("per-bit reference: %v", err)
		}
		if !fast.Equal(slow) {
			t.Fatalf("decoders disagree:\nfast %s\nref  %s", fast, slow)
		}
	}
}

func TestDecompressPathsAgreeOnHostileStreams(t *testing.T) {
	// Random garbage: whatever the reference does (decode or error),
	// Decompress must do the same, down to the ErrEOS class.
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		buf := make([]byte, r.Intn(40))
		r.Read(buf)
		nbit := len(buf)*8 - r.Intn(8)
		if nbit < 0 {
			nbit = 0
		}
		total := r.Intn(400)
		fast, errFast := Decompress(bitstream.NewReader(buf, nbit), total)
		slow, errSlow := refDecompress(bitstream.NewReader(buf, nbit), total)
		if (errFast == nil) != (errSlow == nil) ||
			errors.Is(errFast, bitstream.ErrEOS) != errors.Is(errSlow, bitstream.ErrEOS) {
			t.Fatalf("total=%d: Decompress err=%v, reference err=%v", total, errFast, errSlow)
		}
		if errFast == nil && !fast.Equal(slow) {
			t.Fatalf("total=%d: hostile decode disagrees\nfast %s\nref  %s", total, fast, slow)
		}
	}
}

func TestDecompressPrefixCapBothPaths(t *testing.T) {
	// 62 prefix ones would put the codeword past group 62 — hostile
	// input for Decompress and the reference alike, rejected with the
	// same diagnosis.
	w := bitstream.NewWriter()
	for i := 0; i < 70; i++ {
		w.WriteBit(1)
	}
	for _, decode := range []func(*bitstream.Reader, int) (tritvec.Vector, error){
		Decompress, refDecompress,
	} {
		_, err := decode(bitstream.FromWriter(w), 10)
		if err == nil || !strings.Contains(err.Error(), "invalid stream") {
			t.Fatalf("oversized unary prefix accepted: %v", err)
		}
	}
}
