package bitstream

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// errOverCap marks the per-bit reference's over-cap failure.
var errOverCap = errors.New("unary count over cap")

// refUnary is the per-bit unary read ReadUnary is held to: one ReadBit
// per bit, failing as soon as the (max+1)th 1 is read.
func refUnary(r *Reader, max int) (int, error) {
	bit, err := r.ReadBit()
	if err != nil {
		return 0, err // ErrEOS itself at a boundary, or the sticky error
	}
	n := 0
	for bit == 1 {
		if n++; n > max {
			return 0, errOverCap
		}
		if bit, err = r.ReadBit(); err != nil {
			return 0, fmt.Errorf("cut: %w", err)
		}
	}
	return n, nil
}

// unaryClass names what a unary read returned, in the terms callers
// rely on.
func unaryClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case err == ErrEOS:
		return "boundary"
	case errors.Is(err, ErrEOS):
		return "cut"
	case errors.Is(err, ErrBitCount):
		return "sticky"
	}
	return "over cap"
}

// ReadUnary agrees with the per-bit loop at every bit offset of random
// buffers: the count, the bits consumed and the class of the error. The
// buffers run from all 1s to sparse 1s, so runs cross the 56-bit peek
// window, reach the cap and reach the end of the stream.
func TestReadUnaryMatchesPerBit(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	caps := []int{0, 1, 5, 55, 56, 57, 61, 62, 111, 112, 200, math.MaxInt}
	seen := map[string]int{}
	for trial := 0; trial < 120; trial++ {
		buf := make([]byte, rng.Intn(30))
		ones := []float64{1, 0.99, 0.9, 0.5, 0.1}[trial%5]
		for i := range buf {
			for b := 0; b < 8; b++ {
				if rng.Float64() < ones {
					buf[i] |= 0x80 >> uint(b)
				}
			}
		}
		nbit := len(buf)*8 - rng.Intn(8)
		if nbit < 0 {
			nbit = 0
		}
		for start := 0; start <= nbit; start++ {
			for _, max := range caps {
				fast, ref := NewReader(buf, nbit), NewReader(buf, nbit)
				if err := fast.Skip(start); err != nil {
					t.Fatal(err)
				}
				if err := ref.Skip(start); err != nil {
					t.Fatal(err)
				}
				n, err := fast.ReadUnary(max)
				wantN, wantErr := refUnary(ref, max)
				seen[unaryClass(err)]++
				if got, want := unaryClass(err), unaryClass(wantErr); got != want {
					t.Fatalf("nbit=%d start=%d max=%d: %s (%v), per-bit %s (%v)",
						nbit, start, max, got, err, want, wantErr)
				}
				switch {
				case err == nil && (n != wantN || fast.Pos() != ref.Pos()):
					t.Fatalf("nbit=%d start=%d max=%d: count %d at bit %d, per-bit %d at bit %d",
						nbit, start, max, n, fast.Pos(), wantN, ref.Pos())
				case err == ErrEOS && fast.Pos() != start:
					t.Fatalf("nbit=%d start=%d: end of stream at a boundary consumed %d bits",
						nbit, start, fast.Pos()-start)
				}
			}
		}
	}
	for _, class := range []string{"ok", "boundary", "cut", "over cap"} {
		if seen[class] == 0 {
			t.Errorf("no read ended %s: %v", class, seen)
		}
	}
}

// A unary read from a reader constructed with an oversized bit count
// returns the sticky construction error.
func TestReadUnaryStickyError(t *testing.T) {
	r := NewReader([]byte{0x00}, 9)
	if _, err := r.ReadUnary(math.MaxInt); !errors.Is(err, ErrBitCount) {
		t.Fatalf("oversized reader: got %v, want ErrBitCount", err)
	}
}
