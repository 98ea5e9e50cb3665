package tables

import (
	"strings"
	"testing"

	"repro/internal/iscasgen"
)

func TestRunAblations(t *testing.T) {
	cfg := smallConfig()
	abl, err := RunAblations("s349", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(abl) != 3 {
		t.Fatalf("expected 3 ablations, got %d", len(abl))
	}
	for _, a := range abl {
		if len(a.Entries) < 2 {
			t.Fatalf("%s: too few entries", a.Name)
		}
		if !strings.Contains(a.String(), "%") {
			t.Fatalf("%s: unformatted output", a.Name)
		}
	}
}

func TestAblationSearchOrdering(t *testing.T) {
	cfg := smallConfig()
	cfg.Runs = 2
	cfg.Generations = 50
	cfg.NoImprove = 20
	m, err := iscasgen.Find("s298", iscasgen.StuckAt)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := iscasgen.Generate(m, iscasgen.GenOptions{MaxBits: cfg.MaxBits, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := cfg.eaParams(8, 32, 1)
	a, err := AblationSearch(ts, p)
	if err != nil {
		t.Fatal(err)
	}
	get := func(name string) float64 {
		for _, e := range a.Entries {
			if strings.Contains(e.Variant, name) {
				return e.Rate
			}
		}
		t.Fatalf("entry %q missing", name)
		return 0
	}
	random := get("random")
	eaRate := get("EA (paper)")
	seeded := get("seeded")
	if eaRate <= random {
		t.Fatalf("EA %.2f not above random %.2f — search adds nothing?", eaRate, random)
	}
	// Seeded EA must be at least the greedy seed's quality (elitism).
	if seeded < get("greedy")-1e-9 {
		t.Fatalf("seeded EA %.2f below greedy %.2f", seeded, get("greedy"))
	}
}

func TestAblationSubsumeNeverWorse(t *testing.T) {
	cfg := smallConfig()
	m, _ := iscasgen.Find("s344", iscasgen.StuckAt)
	ts, err := iscasgen.Generate(m, iscasgen.GenOptions{MaxBits: cfg.MaxBits, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, err := AblationSubsume(ts, cfg.eaParams(8, 16, 2))
	if err != nil {
		t.Fatal(err)
	}
	// Note: the two runs share EA seeds, so the underlying MV sets are
	// identical and the post-pass can only help.
	if a.Entries[1].Rate < a.Entries[0].Rate-1e-9 {
		t.Fatalf("subsume pass worsened rate: %.2f -> %.2f",
			a.Entries[0].Rate, a.Entries[1].Rate)
	}
}

func TestRunAblationsUnknownCircuit(t *testing.T) {
	if _, err := RunAblations("nope", smallConfig()); err == nil {
		t.Fatal("unknown circuit accepted")
	}
}
