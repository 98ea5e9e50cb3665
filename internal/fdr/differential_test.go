package fdr

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/testset"
)

// sourceOnly hides the Peeker fast path, forcing the bit-at-a-time
// fallback the new decoder must stay bit-identical with.
type sourceOnly struct{ bitstream.Source }

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
			t.Fatalf("peeker path: %v", err)
		}
		slow, err := Decompress(sourceOnly{bitstream.FromWriter(res.Stream)}, total)
		if err != nil {
			t.Fatalf("fallback path: %v", err)
		}
		if !fast.Equal(slow) {
			t.Fatalf("decode paths disagree:\npeek %s\nfall %s", fast, slow)
		}
	}
}

func TestDecompressPathsAgreeOnHostileStreams(t *testing.T) {
	// Random garbage: whatever one path does (decode or error), the
	// others must do the same.
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
		slow, errSlow := Decompress(sourceOnly{bitstream.NewReader(buf, nbit)}, total)
		if (errFast == nil) != (errSlow == nil) {
			t.Fatalf("total=%d: peek err=%v, fallback err=%v", total, errFast, errSlow)
		}
		if errFast == nil && !fast.Equal(slow) {
			t.Fatalf("total=%d: hostile decode disagrees\npeek %s\nfall %s", total, fast, slow)
		}
	}
}

func TestDecompressPrefixCapBothPaths(t *testing.T) {
	// 62 prefix ones would put the codeword past group 62 — hostile
	// input on either decode path, rejected with the same diagnosis.
	w := bitstream.NewWriter()
	for i := 0; i < 70; i++ {
		w.WriteBit(1)
	}
	for _, src := range []bitstream.Source{
		bitstream.FromWriter(w),
		sourceOnly{bitstream.FromWriter(w)},
	} {
		_, err := Decompress(src, 10)
		if err == nil || !strings.Contains(err.Error(), "invalid stream") {
			t.Fatalf("oversized unary prefix accepted: %v", err)
		}
	}
}
