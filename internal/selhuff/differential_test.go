package selhuff

import (
	"math/rand"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/testset"
)

// sourceOnly hides the Peeker fast path, forcing the per-bit fallback
// paths the batched decoder must stay bit-identical with.
type sourceOnly struct{ bitstream.Source }

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
			t.Fatalf("peeker path: %v", err)
		}
		slow, err := Decompress(sourceOnly{bitstream.FromWriter(res.Stream)}, res, total)
		if err != nil {
			t.Fatalf("fallback path: %v", err)
		}
		if !fast.Equal(slow) {
			t.Fatalf("k=%d d=%d decode paths disagree:\npeek %s\nfall %s", k, d, fast, slow)
		}
	}
}

func TestDecompressPathsAgreeOnHostileStreams(t *testing.T) {
	// Random garbage against a fixed dictionary: whatever one path does
	// (decode or error), the other must do the same.
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
		slow, errSlow := Decompress(sourceOnly{bitstream.NewReader(buf, nbit)}, res, total)
		if (errFast == nil) != (errSlow == nil) {
			t.Fatalf("total=%d: peek err=%v, fallback err=%v", total, errFast, errSlow)
		}
		if errFast == nil && !fast.Equal(slow) {
			t.Fatalf("total=%d: hostile decode disagrees\npeek %s\nfall %s", total, fast, slow)
		}
	}
}
