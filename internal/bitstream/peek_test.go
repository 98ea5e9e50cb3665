package bitstream

import (
	"errors"
	"math/rand"
	"testing"
)

// randStream writes nbit random bits and returns the writer plus the
// bits as a slice for reference checking.
func randStream(nbit int, r *rand.Rand) (*Writer, []uint) {
	w := NewWriter()
	bitsOut := make([]uint, nbit)
	for i := range bitsOut {
		b := uint(r.Intn(2))
		bitsOut[i] = b
		w.WriteBit(b)
	}
	return w, bitsOut
}

// refWindow gathers bits [pos, pos+n) of ref MSB-first.
func refWindow(ref []uint, pos, n int) uint64 {
	var v uint64
	for i := 0; i < n; i++ {
		v = v<<1 | uint64(ref[pos+i])
	}
	return v
}

// checkPeeker drives p through a random interleave of peeks, skips and
// reads and verifies every result against the reference bit slice. The
// PeekBits contract under test: avail == min(n, PeekMax, remaining), the
// window matches the stream, and peeking never consumes.
func checkPeeker(t *testing.T, p *Reader, ref []uint, r *rand.Rand) {
	t.Helper()
	pos := 0
	for pos < len(ref) {
		n := r.Intn(PeekMax + 2) // occasionally over PeekMax
		want := n
		if want > PeekMax {
			want = PeekMax
		}
		if rem := len(ref) - pos; want > rem {
			want = rem
		}
		v, avail := p.PeekBits(n)
		if avail != want {
			t.Fatalf("pos=%d PeekBits(%d): avail=%d, want %d", pos, n, avail, want)
		}
		if wantV := refWindow(ref, pos, avail); v != wantV {
			t.Fatalf("pos=%d PeekBits(%d): v=%#x, want %#x", pos, n, v, wantV)
		}
		// Peek again with a different width: must still not have consumed.
		if v2, a2 := p.PeekBits(avail); a2 != avail || v2 != v {
			t.Fatalf("pos=%d second peek moved: (%#x,%d) vs (%#x,%d)", pos, v2, a2, v, avail)
		}
		if avail == 0 {
			continue // n == 0 draw; bits remain, retry with a wider window
		}
		// Consume some of the window, alternating Skip and ReadBits.
		take := 1 + r.Intn(avail)
		if r.Intn(2) == 0 {
			if err := p.Skip(take); err != nil {
				t.Fatalf("pos=%d Skip(%d): %v", pos, take, err)
			}
		} else {
			got, err := p.ReadBits(take)
			if err != nil {
				t.Fatalf("pos=%d ReadBits(%d): %v", pos, take, err)
			}
			if want := refWindow(ref, pos, take); got != want {
				t.Fatalf("pos=%d ReadBits(%d)=%#x, want %#x", pos, take, got, want)
			}
		}
		pos += take
	}
	// Exhausted: peeks return empty, skips report end of stream.
	if v, avail := p.PeekBits(8); avail != 0 || v != 0 {
		t.Fatalf("peek at EOS: (%#x,%d), want (0,0)", v, avail)
	}
	if err := p.Skip(1); !errors.Is(err, ErrEOS) {
		t.Fatalf("Skip past EOS: %v, want ErrEOS", err)
	}
	if err := p.Skip(-1); !errors.Is(err, ErrBitCount) {
		t.Fatalf("Skip(-1): %v, want ErrBitCount", err)
	}
}

func TestReaderPeekSkipProperty(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		nbit := r.Intn(500)
		w, ref := randStream(nbit, r)
		rd := FromWriter(w)
		checkPeeker(t, rd, ref, r)
	}
}

func TestReaderPeekUnlimited(t *testing.T) {
	// nbit < 0 exposes the whole buffer, the zero padding of a partial
	// last byte included, and the peek window clips to it.
	r := rand.New(rand.NewSource(23))
	w, ref := randStream(21, r)
	rd := NewReader(w.Bytes(), -1)
	ref = append(ref, 0, 0, 0)
	v, avail := rd.PeekBits(56)
	if avail != 24 {
		t.Fatalf("avail=%d, want 24", avail)
	}
	if want := refWindow(ref, 0, 24); v != want {
		t.Fatalf("v=%#x, want %#x", v, want)
	}
	if err := rd.Skip(24); err != nil {
		t.Fatal(err)
	}
	if _, avail := rd.PeekBits(1); avail != 0 {
		t.Fatalf("avail=%d after exhausting the buffer, want 0", avail)
	}
}

func TestReaderPeekOversizedDeclaredCount(t *testing.T) {
	// A hostile container header declaring more bits than the buffer
	// holds: the reader exposes zero bits, so peeks are empty and the
	// sticky ErrBitCount still surfaces through Skip.
	rd := NewReader([]byte{0xFF}, 64)
	if _, avail := rd.PeekBits(8); avail != 0 {
		t.Fatalf("avail=%d, want 0", avail)
	}
	if err := rd.Skip(1); !errors.Is(err, ErrBitCount) {
		t.Fatalf("Skip: %v, want ErrBitCount", err)
	}
}

func TestPeekDoesNotExceedLimitMidAccumulator(t *testing.T) {
	// Eight bytes are buffered but only 3 bits are in the payload: the
	// window must clip at the limit even though the 64-bit word loaded
	// at the read position holds all eight bytes.
	rd := NewReader([]byte{0b10100000, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, 3)
	v, avail := rd.PeekBits(56)
	if avail != 3 || v != 0b101 {
		t.Fatalf("got (%#b,%d), want (0b101,3)", v, avail)
	}
	if err := rd.Skip(3); err != nil {
		t.Fatal(err)
	}
	if err := rd.Skip(1); !errors.Is(err, ErrEOS) {
		t.Fatalf("Skip past limit: %v, want ErrEOS", err)
	}
}
