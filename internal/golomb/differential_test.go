package golomb

import (
	"math"
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
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		ts := testset.Random(1+r.Intn(48), 1+r.Intn(24), []float64{0.05, 0.3, 0.9}[trial%3], r)
		m := []int{1, 2, 3, 4, 8, 16, 64}[r.Intn(7)]
		res, err := Compress(ts, m)
		if err != nil {
			t.Fatal(err)
		}
		total := ts.TotalBits()
		fast, err := Decompress(bitstream.FromWriter(res.Stream), m, total)
		if err != nil {
			t.Fatalf("peeker path: %v", err)
		}
		slow, err := Decompress(sourceOnly{bitstream.FromWriter(res.Stream)}, m, total)
		if err != nil {
			t.Fatalf("fallback path: %v", err)
		}
		if !fast.Equal(slow) {
			t.Fatalf("m=%d decode paths disagree:\npeek %s\nfall %s", m, fast, slow)
		}
	}
}

func TestDecompressPathsAgreeOnHostileStreams(t *testing.T) {
	// Random garbage: whatever one path does (decode or error), the
	// others must do the same.
	r := rand.New(rand.NewSource(32))
	for trial := 0; trial < 200; trial++ {
		buf := make([]byte, r.Intn(40))
		r.Read(buf)
		nbit := len(buf)*8 - r.Intn(8)
		if nbit < 0 {
			nbit = 0
		}
		m := 1 + r.Intn(300)
		total := r.Intn(400)
		fast, errFast := Decompress(bitstream.NewReader(buf, nbit), m, total)
		slow, errSlow := Decompress(sourceOnly{bitstream.NewReader(buf, nbit)}, m, total)
		if (errFast == nil) != (errSlow == nil) {
			t.Fatalf("m=%d total=%d: peek err=%v, fallback err=%v", m, total, errFast, errSlow)
		}
		if errFast == nil && !fast.Equal(slow) {
			t.Fatalf("m=%d total=%d: hostile decode disagrees\npeek %s\nfall %s", m, total, fast, slow)
		}
	}
}

func TestDecompressRunLengthOverflow(t *testing.T) {
	// A quotient of 2 with M = 2^62 would wrap q*m+rem past MaxInt to a
	// negative run; the decoder must report corruption instead of
	// silently mis-decoding.
	m := 1 << 62
	if 2*m+0 > 0 || math.MaxInt/m >= 2 {
		t.Fatal("test premise broken: 2*m must wrap")
	}
	w := bitstream.NewWriter()
	w.WriteBit(1)
	w.WriteBit(1)
	w.WriteBit(0)      // quotient 2
	w.WriteBits(0, 62) // truncated-binary remainder 0 for M = 2^62
	for _, src := range []bitstream.Source{
		bitstream.FromWriter(w),
		sourceOnly{bitstream.FromWriter(w)},
	} {
		_, err := Decompress(src, m, 10)
		if err == nil || !strings.Contains(err.Error(), "corrupt") {
			t.Fatalf("overflowing run accepted: %v", err)
		}
	}
}
