package tritvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParseTrit(t *testing.T) {
	cases := []struct {
		c    byte
		want Trit
		ok   bool
	}{
		{'0', Zero, true}, {'1', One, true}, {'x', X, true}, {'X', X, true},
		{'u', X, true}, {'U', X, true}, {'-', X, true}, {'2', X, false}, {' ', X, false},
	}
	for _, c := range cases {
		got, err := ParseTrit(c.c)
		if (err == nil) != c.ok {
			t.Errorf("ParseTrit(%q) err=%v, want ok=%v", c.c, err, c.ok)
		}
		if err == nil && got != c.want {
			t.Errorf("ParseTrit(%q)=%v, want %v", c.c, got, c.want)
		}
	}
}

func TestTritString(t *testing.T) {
	if Zero.String() != "0" || One.String() != "1" || X.String() != "X" {
		t.Fatal("Trit.String mismatch")
	}
}

func TestSetGetRoundTrip(t *testing.T) {
	v := New(130) // spans three words
	for i := 0; i < v.Len(); i++ {
		if v.Get(i) != X {
			t.Fatalf("new vector not all-X at %d", i)
		}
	}
	r := rand.New(rand.NewSource(1))
	ref := make([]Trit, 130)
	for iter := 0; iter < 2000; iter++ {
		i := r.Intn(130)
		tr := Trit(r.Intn(3))
		v.Set(i, tr)
		ref[i] = tr
		j := r.Intn(130)
		if v.Get(j) != ref[j] {
			t.Fatalf("Get(%d)=%v want %v", j, v.Get(j), ref[j])
		}
	}
}

func TestFromStringString(t *testing.T) {
	s := "01X10XX1"
	v := MustFromString(s)
	if v.String() != s {
		t.Fatalf("round trip: got %q want %q", v.String(), s)
	}
	if v.StringU() != "01U10UU1" {
		t.Fatalf("StringU: got %q", v.StringU())
	}
	if _, err := FromString("01Z"); err == nil {
		t.Fatal("expected error for invalid character")
	}
}

func TestMatchesPaperExamples(t *testing.T) {
	// From the paper's introduction: 111100 and 111011 both match 111UUU.
	mv := MustFromString("111UUU")
	for _, s := range []string{"111100", "111011", "111000", "111111"} {
		if !mv.Matches(MustFromString(s)) {
			t.Errorf("%s should match 111UUU", s)
		}
	}
	for _, s := range []string{"011000", "101111", "110000"} {
		if mv.Matches(MustFromString(s)) {
			t.Errorf("%s should not match 111UUU", s)
		}
	}
	// X in the block matches any MV value.
	if !MustFromString("1U0").Matches(MustFromString("1XX")) {
		t.Error("X positions in block must match specified MV positions")
	}
}

func TestMatchesSymmetric(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		a := RandomTernary(20, r)
		b := RandomTernary(20, r)
		if a.Matches(b) != b.Matches(a) {
			t.Fatalf("Matches not symmetric for %s vs %s", a, b)
		}
	}
}

func TestSubsumes(t *testing.T) {
	cases := []struct {
		gen, spec string
		want      bool
	}{
		{"111U", "1110", true},
		{"111U", "1111", true},
		{"UUUU", "0110", true},
		{"1110", "111U", false},
		{"111U", "110U", false},
		{"111U", "111U", true},
		{"0UU0", "01X0", false}, // X at a position subsumer doesn't care about is fine; here pos2 is X but subsumer has U there => fine; pos1: subsumer U. so actually true?
	}
	// Fix the last case: 0UU0 subsumes 01X0? Subsumer specified at 0 and 3:
	// spec has 0 at pos0 and 0 at pos3 -> true.
	cases[len(cases)-1].want = true
	for _, c := range cases {
		g := MustFromString(c.gen)
		s := MustFromString(c.spec)
		if got := g.Subsumes(s); got != c.want {
			t.Errorf("%s subsumes %s: got %v want %v", c.gen, c.spec, got, c.want)
		}
	}
}

func TestSubsumesImpliesMatchSetContainment(t *testing.T) {
	// Property: if a.Subsumes(b), every fully-specified w matched by b is
	// matched by a. Exhaustive over length 6.
	r := rand.New(rand.NewSource(3))
	for iter := 0; iter < 200; iter++ {
		a := RandomTernary(6, r)
		b := RandomTernary(6, r)
		if !a.Subsumes(b) {
			continue
		}
		for bits := 0; bits < 64; bits++ {
			w := New(6)
			for j := 0; j < 6; j++ {
				if bits>>uint(j)&1 == 1 {
					w.Set(j, One)
				} else {
					w.Set(j, Zero)
				}
			}
			if b.Matches(w) && !a.Matches(w) {
				t.Fatalf("a=%s subsumes b=%s but w=%s matched only by b", a, b, w)
			}
		}
	}
}

func TestCounts(t *testing.T) {
	v := MustFromString("01XX10X")
	if v.CountSpecified() != 4 {
		t.Errorf("CountSpecified=%d want 4", v.CountSpecified())
	}
	if v.CountX() != 3 {
		t.Errorf("CountX=%d want 3", v.CountX())
	}
	got := v.XPositions()
	want := []int{2, 3, 6}
	if len(got) != len(want) {
		t.Fatalf("XPositions=%v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("XPositions=%v want %v", got, want)
		}
	}
}

func TestSliceConcat(t *testing.T) {
	v := MustFromString("01X10XX1")
	s := v.Slice(2, 5)
	if s.String() != "X10" {
		t.Fatalf("Slice got %q", s.String())
	}
	// Slices copied back end to end rebuild the original.
	c := New(v.Len())
	c.CopyFrom(v.Slice(0, 2), 0)
	c.CopyFrom(v.Slice(2, 8), 2)
	if !c.Equal(v) {
		t.Fatalf("concatenated slices != original: %s vs %s", c, v)
	}
	if v.Slice(3, 3).Len() != 0 {
		t.Fatal("empty Slice should have length 0")
	}
}

func TestCopyFrom(t *testing.T) {
	v := New(10)
	v.CopyFrom(MustFromString("101"), 4)
	if v.String() != "XXXX101XXX" {
		t.Fatalf("CopyFrom got %q", v.String())
	}
}

func TestSpecify(t *testing.T) {
	v := MustFromString("0X1X")
	if v.Specify(Zero).String() != "0010" {
		t.Fatalf("Specify(0) got %q", v.Specify(Zero).String())
	}
	if v.Specify(One).String() != "0111" {
		t.Fatalf("Specify(1) got %q", v.Specify(One).String())
	}
}

// TestCompatible is the lossless acceptance test: a decoded block is
// compatible with the original when it keeps every specified bit of it,
// which is what Subsumes checks.
func TestCompatible(t *testing.T) {
	orig := MustFromString("1X0X")
	dec := MustFromString("1101")
	if !orig.Subsumes(dec) {
		t.Fatal("decoded block preserving specified bits must be compatible")
	}
	bad := MustFromString("0101")
	if orig.Subsumes(bad) {
		t.Fatal("flipped specified bit must not be compatible")
	}
}

func TestHammingSpecified(t *testing.T) {
	a := MustFromString("110X")
	b := MustFromString("011X")
	if got := a.HammingSpecified(b); got != 2 {
		t.Fatalf("HammingSpecified=%d want 2", got)
	}
}

func TestEqualClone(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	v := RandomTernary(100, r)
	c := v.Clone()
	if !v.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Set(50, One)
	c.Set(50, X)
	v.Set(50, X)
	if !v.Equal(c) {
		t.Fatal("setting X should normalize value plane")
	}
	c.Set(3, One)
	v.Set(3, Zero)
	if v.Equal(c) {
		t.Fatal("different vectors reported equal")
	}
	if v.Equal(New(99)) {
		t.Fatal("different lengths reported equal")
	}
}

func TestPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	v := New(4)
	mustPanic("Get", func() { v.Get(4) })
	mustPanic("Set", func() { v.Set(-1, One) })
	mustPanic("Matches", func() { v.Matches(New(5)) })
	mustPanic("Subsumes", func() { v.Subsumes(New(5)) })
	mustPanic("Slice", func() { v.Slice(2, 5) })
	mustPanic("Split width", func() { v.Split(0) })
	mustPanic("Split remainder", func() { v.Split(3) })
	mustPanic("Specify", func() { v.Specify(X) })
	mustPanic("negative", func() { New(-1) })
	mustPanic("CopyFrom", func() { v.CopyFrom(New(3), 2) })
	mustPanic("Window width", func() { v.Window(0, 65) })
	mustPanic("Window position", func() { v.Window(-1, 1) })
	mustPanic("Hamming", func() { v.HammingSpecified(New(5)) })
}

// quick-check properties

func TestQuickMatchesReflexive(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%100) + 1
		r := rand.New(rand.NewSource(seed))
		v := RandomTernary(n, r)
		return v.Matches(v) && v.Subsumes(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSubsumeTransitive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(40) + 1
		// Build a chain: c fully random; b generalizes c; a generalizes b.
		c := RandomTernary(n, r)
		b := c.Clone()
		a := b.Clone()
		for i := 0; i < n; i++ {
			if r.Intn(3) == 0 {
				b.Set(i, X)
			}
			if b.Get(i) == X || r.Intn(3) == 0 {
				a.Set(i, X)
			}
		}
		return a.Subsumes(b) && b.Subsumes(c) && a.Subsumes(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickStringRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(200) + 1
		v := RandomTernary(n, r)
		w, err := FromString(v.String())
		return err == nil && w.Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSpecifyMatchesOriginal(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(100) + 1
		v := RandomTernary(n, r)
		return v.Matches(v.Specify(Zero)) && v.Matches(v.Specify(One)) &&
			v.Subsumes(v.Specify(One))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMatches(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	v := RandomTernary(12, r)
	o := RandomTernary(12, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = v.Matches(o)
	}
}
