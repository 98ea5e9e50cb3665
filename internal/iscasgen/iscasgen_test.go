package iscasgen

import (
	"math"
	"testing"

	"repro/internal/ninec"
)

func TestRegistryDimensionsValid(t *testing.T) {
	for _, m := range Table1() {
		if err := m.Validate(); err != nil {
			t.Errorf("Table 1 %s: %v", m.Name, err)
		}
		if m.Kind != StuckAt {
			t.Errorf("%s: wrong kind", m.Name)
		}
	}
	for _, m := range Table2() {
		if err := m.Validate(); err != nil {
			t.Errorf("Table 2 %s: %v", m.Name, err)
		}
		if m.Kind != PathDelay {
			t.Errorf("%s: wrong kind", m.Name)
		}
	}
}

func TestRegistrySizesMatchPaper(t *testing.T) {
	// Spot-check exact sizes quoted in the paper.
	checks := []struct {
		name string
		kind Kind
		bits int
	}{
		{"s349", StuckAt, 624},
		{"s38417", StuckAt, 2068352},
		{"s27", PathDelay, 448},
		{"s38584", PathDelay, 81190512},
	}
	for _, c := range checks {
		m, err := Find(c.name, c.kind)
		if err != nil {
			t.Fatal(err)
		}
		if m.Bits != c.bits {
			t.Errorf("%s: bits=%d want %d", c.name, m.Bits, c.bits)
		}
	}
}

func TestRegistryCounts(t *testing.T) {
	if len(Table1()) != 39 {
		t.Errorf("Table 1 has %d circuits, paper has 39", len(Table1()))
	}
	if len(Table2()) != 29 {
		t.Errorf("Table 2 has %d circuits, paper has 29", len(Table2()))
	}
}

func TestPaperAveragesConsistent(t *testing.T) {
	// The stored per-circuit rates must reproduce the paper's average
	// rows (to rounding).
	check := func(name string, metas []Meta, wants [4]float64, get func(Meta) [4]float64) {
		var sums [4]float64
		for _, m := range metas {
			v := get(m)
			for i := range sums {
				sums[i] += v[i]
			}
		}
		for i := range sums {
			avg := sums[i] / float64(len(metas))
			if math.Abs(avg-wants[i]) > 0.15 {
				t.Errorf("%s column %d: registry average %.2f vs paper %.1f", name, i, avg, wants[i])
			}
		}
	}
	check("Table1", Table1(), [4]float64{42.6, 46.8, 54.2, 55.9}, func(m Meta) [4]float64 {
		return [4]float64{m.Paper9C, m.Paper9CHC, m.PaperEA, m.PaperEA2}
	})
	check("Table2", Table2(), [4]float64{48.7, 52.1, 55.6, 58.6}, func(m Meta) [4]float64 {
		return [4]float64{m.Paper9C, m.Paper9CHC, m.PaperEA, m.PaperEA2}
	})
}

func TestFindErrors(t *testing.T) {
	if _, err := Find("c17", StuckAt); err == nil {
		t.Fatal("c17 is not in the paper's tables")
	}
	if _, err := Find("s27", StuckAt); err == nil {
		t.Fatal("s27 only appears in Table 2")
	}
	if _, err := Find("s27", PathDelay); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDimensions(t *testing.T) {
	m, _ := Find("s349", StuckAt)
	ts, err := Generate(m, GenOptions{SkipCalibration: true, Density: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if ts.Width != 24 || ts.TotalBits() != 624 {
		t.Fatalf("dims %d x %d", ts.Width, ts.NumPatterns())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	m, _ := Find("s298", StuckAt)
	a, err := Generate(m, GenOptions{SkipCalibration: true, Density: 0.3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(m, GenOptions{SkipCalibration: true, Density: 0.3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Compatible(b) || !b.Compatible(a) {
		t.Fatal("generation not deterministic")
	}
	c, err := Generate(m, GenOptions{SkipCalibration: true, Density: 0.3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if a.Compatible(c) && c.Compatible(a) {
		t.Fatal("different seeds produced identical test sets")
	}
}

func TestGenerateMaxBitsScaling(t *testing.T) {
	m, _ := Find("s38417", StuckAt)
	ts, err := Generate(m, GenOptions{MaxBits: 50000, SkipCalibration: true, Density: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if ts.TotalBits() > 50000 {
		t.Fatalf("MaxBits not honored: %d", ts.TotalBits())
	}
	if ts.Width != m.Width {
		t.Fatal("scaling must preserve width")
	}
}

func TestGeneratePathDelayPairs(t *testing.T) {
	m, _ := Find("s27", PathDelay)
	ts, err := Generate(m, GenOptions{SkipCalibration: true, Density: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if ts.NumPatterns()%2 != 0 {
		t.Fatal("path-delay set must have paired patterns")
	}
	// Pairs must be correlated: v2 shares most specified positions of v1.
	same, total := 0, 0
	for i := 0; i+1 < ts.NumPatterns(); i += 2 {
		v1, v2 := ts.Patterns[i], ts.Patterns[i+1]
		for j := 0; j < v1.Len(); j++ {
			if v1.Get(j) != 0 || v2.Get(j) != 0 { // either specified
				total++
				if v1.Get(j) == v2.Get(j) {
					same++
				}
			}
		}
	}
	if total == 0 || float64(same)/float64(total) < 0.6 {
		t.Fatalf("pairs not correlated: %d/%d", same, total)
	}
}

func TestCalibrationHitsPaper9CRate(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration test in -short mode")
	}
	// For a few representative circuits across the rate spectrum, the
	// calibrated test set's measured 9C rate must be close to the
	// published one — this is the substitution's load-bearing property.
	for _, name := range []string{"s386", "s444", "s13207"} {
		m, err := Find(name, StuckAt)
		if err != nil {
			t.Fatal(err)
		}
		ts, err := Generate(m, GenOptions{MaxBits: 200000})
		if err != nil {
			t.Fatal(err)
		}
		res, err := ninec.Compress(ts, 8)
		if err != nil {
			t.Fatal(err)
		}
		if diff := math.Abs(res.RatePercent() - m.Paper9C); diff > 6 {
			t.Errorf("%s: measured 9C %.1f%% vs paper %.1f%% (|Δ|=%.1f)",
				name, res.RatePercent(), m.Paper9C, diff)
		}
	}
}

func TestCalibrationPathDelay(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration test in -short mode")
	}
	m, err := Find("s382", PathDelay)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := Generate(m, GenOptions{MaxBits: 200000})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ninec.Compress(ts, 8)
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(res.RatePercent() - m.Paper9C); diff > 6 {
		t.Errorf("s382 PD: measured 9C %.1f%% vs paper %.1f%%", res.RatePercent(), m.Paper9C)
	}
}

func TestKindString(t *testing.T) {
	if StuckAt.String() != "stuck-at" || PathDelay.String() != "path-delay" {
		t.Fatal("Kind.String wrong")
	}
}
