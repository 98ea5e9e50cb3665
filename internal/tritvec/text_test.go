package tritvec

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// refFromString and refString are the per-trit parse and format loops
// that FromString and String ran before the eight-trit kernels; the
// kernels must agree with them on every input, errors included.

func refFromString(s string) (Vector, error) {
	v := New(len(s))
	for i := 0; i < len(s); i++ {
		t, err := ParseTrit(s[i])
		if err != nil {
			return Vector{}, err
		}
		v.Set(i, t)
	}
	return v, nil
}

func refString(v Vector) string {
	var sb strings.Builder
	for i := 0; i < v.Len(); i++ {
		sb.WriteString(v.Get(i).String())
	}
	return sb.String()
}

// textInput draws n characters, mostly the fast-lane '0', '1' and 'X',
// sometimes another spelling of X, and with probability bad one byte
// outside the alphabet.
func textInput(r *rand.Rand, n int, bad float64) []byte {
	b := make([]byte, n)
	for i := range b {
		if r.Intn(8) == 0 {
			b[i] = "xuU-"[r.Intn(4)]
		} else {
			b[i] = "01X"[r.Intn(3)]
		}
	}
	if n > 0 && r.Float64() < bad {
		b[r.Intn(n)] = byte(r.Intn(256))
	}
	return b
}

func TestParseMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 2000; trial++ {
		in := textInput(r, r.Intn(300), 0.3)
		got, gotErr := Parse(in)
		want, wantErr := refFromString(string(in))
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%q: err %v, want %v", in, gotErr, wantErr)
		}
		if wantErr == nil && !got.Equal(want) {
			t.Fatalf("%q:\nkernel %s\nref    %s", in, refString(got), refString(want))
		}
		if fs, err := FromString(string(in)); fmt.Sprint(err) != fmt.Sprint(wantErr) || wantErr == nil && !fs.Equal(want) {
			t.Fatalf("%q: FromString disagrees with Parse", in)
		}
	}
}

func TestAppendToMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for trial := 0; trial < 1000; trial++ {
		v := RandomTernary(r.Intn(300), r)
		if trial%3 == 0 && v.Len() > 0 {
			v = v.Slice(r.Intn(v.Len()), v.Len()) // a shifted copy
		}
		prefix := []byte("abc")[:r.Intn(4)]
		got := v.AppendTo(prefix)
		want := string(prefix) + refString(v)
		if string(got) != want {
			t.Fatalf("n=%d:\nkernel %q\nref    %q", v.Len(), got, want)
		}
		if v.String() != refString(v) {
			t.Fatalf("n=%d: String disagrees with the reference", v.Len())
		}
	}
}

var sink Vector

// Every constructor makes one allocation: both planes share it.
func TestOneAllocationPerVector(t *testing.T) {
	v := RandomTernary(1000, rand.New(rand.NewSource(23)))
	for name, f := range map[string]func(){
		"New":   func() { sink = New(1000) },
		"Clone": func() { sink = v.Clone() },
		"Slice": func() { sink = v.Slice(13, 900) },
	} {
		if got := testing.AllocsPerRun(100, f); got != 1 {
			t.Errorf("%s: %v allocations, want 1", name, got)
		}
	}
	// Split takes one allocation for the vectors and one for their planes.
	if got := testing.AllocsPerRun(100, func() { _ = v.Split(10) }); got != 2 {
		t.Errorf("Split: %v allocations, want 2", got)
	}
	// The care plane cannot grow into the value plane.
	if c, _ := New(64).Words(); cap(c) != len(c) {
		t.Fatalf("care plane has capacity %d beyond its %d words", cap(c), len(c))
	}
}
