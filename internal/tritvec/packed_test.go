package tritvec

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// The reference packed codec: one 2-bit code per Get or Set, as the
// binary test-set format and the container's MV tables were written
// and read before the 32-code kernels.

func refAppendPacked(dst []byte, skip int, v Vector) []byte {
	bit := 2 * skip
	if skip > 0 {
		bit += 8 * (len(dst) - 1)
	} else {
		bit = 8 * len(dst)
	}
	for i := 0; i < v.Len(); i++ {
		var code byte
		switch v.Get(i) {
		case Zero:
			code = 1
		case One:
			code = 2
		}
		if bit%8 == 0 {
			dst = append(dst, 0)
		}
		dst[bit/8] |= code << uint(6-bit%8)
		bit += 2
	}
	return dst
}

func refParsePacked(src []byte, skip, n int) (Vector, error) {
	v := New(n)
	for i := 0; i < n; i++ {
		bit := 2 * (skip + i)
		switch code := src[bit/8] >> uint(6-bit%8) & 3; code {
		case 1:
			v.Set(i, Zero)
		case 2:
			v.Set(i, One)
		case 3:
			return Vector{}, fmt.Errorf("tritvec: invalid trit code 3 at position %d", i)
		}
	}
	return v, nil
}

// TestPackedMatchesReference holds both kernels to the per-code loops
// at every length up to 130, every skip, with and without a 11 code,
// and on a reused destination whose spare capacity holds garbage.
func TestPackedMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for n := 0; n <= 130; n++ {
		for skip := 0; skip < 4; skip++ {
			v := RandomTernary(n, r)
			var prefix []byte
			if skip > 0 {
				// The taken codes, then zero bits, as AppendPacked leaves them.
				prefix = []byte{byte(r.Intn(256)) &^ (0xff >> uint(2*skip))}
			}
			want := refAppendPacked(append([]byte(nil), prefix...), skip, v)
			got := v.AppendPacked(append([]byte(nil), prefix...), skip)
			if !bytes.Equal(got, want) {
				t.Fatalf("n=%d skip=%d: AppendPacked %x, reference %x", n, skip, got, want)
			}
			garbage := bytes.Repeat([]byte{0xff}, len(want)+16)
			copy(garbage, prefix)
			if got := v.AppendPacked(garbage[:len(prefix)], skip); !bytes.Equal(got, want) {
				t.Fatalf("n=%d skip=%d: AppendPacked over spare capacity %x, reference %x", n, skip, got, want)
			}
			back, err := ParsePacked(want, skip, n)
			if err != nil || !back.Equal(v) {
				t.Fatalf("n=%d skip=%d: ParsePacked %v (%v), want %v", n, skip, back, err, v)
			}
			// Random bytes: some codes are 11, and the bits around the
			// codes must not matter.
			src := make([]byte, (skip+n+3)/4+r.Intn(3))
			r.Read(src)
			got2, err := ParsePacked(src, skip, n)
			want2, werr := refParsePacked(src, skip, n)
			if fmt.Sprint(err) != fmt.Sprint(werr) || werr == nil && !got2.Equal(want2) {
				t.Fatalf("n=%d skip=%d src=%x: ParsePacked %v (%v), reference %v (%v)", n, skip, src, got2, err, want2, werr)
			}
		}
	}
}

func TestPackedPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"short source":  func() { _, _ = ParsePacked([]byte{0}, 1, 4) },
		"negative skip": func() { _, _ = ParsePacked([]byte{0}, -1, 1) },
		"negative n":    func() { _, _ = ParsePacked([]byte{0}, 0, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}
