package testset

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"
)

func TestScannerFixedCount(t *testing.T) {
	in := "4 3\n01X1\n# comment\n\n1111\nXXXX\n"
	sc, err := NewScanner(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Width() != 4 || sc.Expected() != 3 {
		t.Fatalf("header parsed as width=%d expected=%d", sc.Width(), sc.Expected())
	}
	var got []string
	for {
		v, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, v.String())
	}
	want := []string{"01X1", "1111", "XXXX"}
	if len(got) != len(want) {
		t.Fatalf("got %d patterns", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pattern %d: got %s want %s", i, got[i], want[i])
		}
	}
	if sc.Patterns() != 3 {
		t.Fatalf("Patterns=%d", sc.Patterns())
	}
	// EOF is sticky.
	if _, err := sc.Next(); err != io.EOF {
		t.Fatalf("after EOF: %v", err)
	}
}

func TestScannerStreamingHeader(t *testing.T) {
	in := "3 *\n010\n111\n"
	sc, err := NewScanner(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Expected() != -1 {
		t.Fatalf("Expected=%d want -1", sc.Expected())
	}
	n := 0
	for {
		_, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 2 {
		t.Fatalf("scanned %d patterns", n)
	}
	// Read accepts the streaming header too.
	ts, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if ts.NumPatterns() != 2 || ts.Width != 3 {
		t.Fatalf("Read got %dx%d", ts.NumPatterns(), ts.Width)
	}
}

func TestScannerErrors(t *testing.T) {
	cases := map[string]string{
		"count mismatch": "4 2\n0101\n",
		"ragged pattern": "4 1\n01\n",
		"bad trit":       "4 1\n01z1\n",
		"bad star width": "0 *\n",
	}
	for name, in := range cases {
		sc, err := NewScanner(strings.NewReader(in))
		if err != nil {
			continue // header-level rejection is fine
		}
		ok := true
		for ok {
			if _, err := sc.Next(); err != nil {
				if err == io.EOF {
					t.Fatalf("%s: scanned cleanly", name)
				}
				ok = false
			}
		}
	}
	if _, err := NewScanner(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := NewScanner(strings.NewReader("# only comments\n\n")); err == nil {
		t.Fatal("comment-only input accepted")
	}
}

func TestPatternWriterRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	orig := Random(9, 25, 0.5, rng)
	var buf bytes.Buffer
	pw, err := NewPatternWriter(&buf, 9, -1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range orig.Patterns {
		if err := pw.WritePattern(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	if pw.Patterns() != 25 {
		t.Fatalf("Patterns=%d", pw.Patterns())
	}
	if !strings.HasPrefix(buf.String(), "9 *\n") {
		t.Fatalf("missing streaming header: %q", buf.String()[:10])
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumPatterns() != orig.NumPatterns() {
		t.Fatalf("round-trip lost patterns: %d vs %d", got.NumPatterns(), orig.NumPatterns())
	}
	for i := range orig.Patterns {
		if !orig.Patterns[i].Equal(got.Patterns[i]) {
			t.Fatalf("pattern %d changed", i)
		}
	}
	if err := pw.WritePattern(orig.Patterns[0].Slice(0, 4)); err == nil {
		t.Fatal("wrong-width pattern accepted")
	}

	// With the count known up front the output is byte-identical to
	// TestSet.Write.
	var counted, whole bytes.Buffer
	if pw, err = NewPatternWriter(&counted, 9, orig.NumPatterns()); err != nil {
		t.Fatal(err)
	}
	for _, p := range orig.Patterns {
		if err := pw.WritePattern(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := orig.Write(&whole); err != nil {
		t.Fatal(err)
	}
	if counted.String() != whole.String() {
		t.Fatalf("counted PatternWriter output differs from TestSet.Write:\n%q\n%q", counted.String()[:12], whole.String()[:12])
	}
}
