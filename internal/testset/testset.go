// Package testset represents scan test sets: T patterns of n trits each
// over {0,1,X}, exactly as in Section 2 of the paper. The whole test set is
// viewed as one string t1…t_{T·n} and partitioned into fixed-length input
// blocks by the blockcode package.
//
// A test set travels in two formats: text (Write, PatternWriter) and the
// packed TSET binary (WriteBinary). Scanner is the one reader of both:
// it recognises the binary magic and yields either format a pattern at
// a time, and Read collects what it yields.
package testset

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/tritvec"
)

// TestSet is an ordered collection of equal-width test patterns.
type TestSet struct {
	// Width is the number of circuit inputs n (trits per pattern).
	Width int
	// Patterns holds the T test patterns, each of length Width.
	Patterns []tritvec.Vector
}

// New returns an empty test set for circuits with n inputs.
func New(n int) *TestSet {
	if n <= 0 {
		panic("testset: width must be positive")
	}
	return &TestSet{Width: n}
}

// Add appends a pattern; its length must equal the test set width.
func (ts *TestSet) Add(p tritvec.Vector) {
	if p.Len() != ts.Width {
		panic(fmt.Sprintf("testset: pattern length %d != width %d", p.Len(), ts.Width))
	}
	ts.Patterns = append(ts.Patterns, p)
}

// NumPatterns returns T.
func (ts *TestSet) NumPatterns() int { return len(ts.Patterns) }

// TotalBits returns T·n, the original (uncompressed) test set size in bits.
// X positions count as one bit each, as in the paper's compression-rate
// definition.
func (ts *TestSet) TotalBits() int { return ts.Width * len(ts.Patterns) }

// Flatten concatenates all patterns into the test set string t1…t_{T·n}.
func (ts *TestSet) Flatten() tritvec.Vector {
	out := tritvec.New(ts.TotalBits())
	for i, p := range ts.Patterns {
		out.CopyFrom(p, i*ts.Width)
	}
	return out
}

// FromFlat splits a flat string back into patterns of the given width,
// copies over one backing array (tritvec.Vector.Split). The string
// length must be a multiple of width.
func FromFlat(flat tritvec.Vector, width int) (*TestSet, error) {
	if width <= 0 || flat.Len()%width != 0 {
		return nil, fmt.Errorf("testset: flat length %d not a multiple of width %d", flat.Len(), width)
	}
	return &TestSet{Width: width, Patterns: flat.Split(width)}, nil
}

// SpecifiedBits returns the number of specified (0/1) positions.
func (ts *TestSet) SpecifiedBits() int {
	n := 0
	for _, p := range ts.Patterns {
		n += p.CountSpecified()
	}
	return n
}

// CareDensity returns the fraction of specified bits, in [0,1].
func (ts *TestSet) CareDensity() float64 {
	if ts.TotalBits() == 0 {
		return 0
	}
	return float64(ts.SpecifiedBits()) / float64(ts.TotalBits())
}

// Clone returns a deep copy.
func (ts *TestSet) Clone() *TestSet {
	out := New(ts.Width)
	for _, p := range ts.Patterns {
		out.Add(p.Clone())
	}
	return out
}

// Compatible reports whether other preserves every specified bit of ts
// (same dimensions, and each pattern of ts subsumes the corresponding
// pattern of other). This is the acceptance criterion after
// decompress(compress(ts)).
func (ts *TestSet) Compatible(other *TestSet) bool {
	if other == nil || ts.Width != other.Width || len(ts.Patterns) != len(other.Patterns) {
		return false
	}
	for i, p := range ts.Patterns {
		if !p.Subsumes(other.Patterns[i]) {
			return false
		}
	}
	return true
}

// Write emits the textual format through a PatternWriter: a header line
// "width T", then one line of trit characters per pattern.
func (ts *TestSet) Write(w io.Writer) error {
	pw, err := NewPatternWriter(w, ts.Width, len(ts.Patterns))
	if err != nil {
		return err
	}
	for _, p := range ts.Patterns {
		if err := pw.WritePattern(p); err != nil {
			return err
		}
	}
	return pw.Close()
}

// Read parses a test set in the textual format produced by Write or the
// binary format produced by WriteBinary, through a Scanner. In text,
// blank lines and lines starting with '#' are ignored, and both
// fixed-count ("width count") and streaming ("width *") headers are
// accepted. Use Scanner to consume a set one pattern at a time instead
// of buffering the whole set.
func Read(r io.Reader) (*TestSet, error) {
	sc, err := NewScanner(r)
	if err != nil {
		return nil, err
	}
	ts := New(sc.Width())
	for {
		v, err := sc.Next()
		if err == io.EOF {
			return ts, nil
		}
		if err != nil {
			return nil, err
		}
		ts.Add(v)
	}
}

// ParseStrings builds a test set from pattern strings (testing helper).
func ParseStrings(patterns ...string) (*TestSet, error) {
	if len(patterns) == 0 {
		return nil, fmt.Errorf("testset: no patterns")
	}
	ts := New(len(patterns[0]))
	for _, s := range patterns {
		v, err := tritvec.FromString(s)
		if err != nil {
			return nil, err
		}
		if v.Len() != ts.Width {
			return nil, fmt.Errorf("testset: ragged pattern %q", s)
		}
		ts.Add(v)
	}
	return ts, nil
}

// Random returns a test set with each trit drawn independently:
// P(specified)=density, then 0/1 uniform. Deterministic given r.
func Random(width, patterns int, density float64, r *rand.Rand) *TestSet {
	ts := New(width)
	for i := 0; i < patterns; i++ {
		p := tritvec.New(width)
		for j := 0; j < width; j++ {
			if r.Float64() < density {
				if r.Intn(2) == 0 {
					p.Set(j, tritvec.Zero)
				} else {
					p.Set(j, tritvec.One)
				}
			}
		}
		ts.Add(p)
	}
	return ts
}

// Stats summarizes a test set.
type Stats struct {
	Width       int
	Patterns    int
	TotalBits   int
	Specified   int
	CareDensity float64
}

// Summary computes Stats for ts.
func (ts *TestSet) Summary() Stats {
	return Stats{
		Width:       ts.Width,
		Patterns:    len(ts.Patterns),
		TotalBits:   ts.TotalBits(),
		Specified:   ts.SpecifiedBits(),
		CareDensity: ts.CareDensity(),
	}
}

// String renders the stats compactly.
func (s Stats) String() string {
	return fmt.Sprintf("width=%d patterns=%d bits=%d specified=%d density=%.3f",
		s.Width, s.Patterns, s.TotalBits, s.Specified, s.CareDensity)
}
