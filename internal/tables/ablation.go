package tables

import (
	"fmt"
	"math/rand"

	"repro/internal/blockcode"
	"repro/internal/core"
	"repro/internal/ea"
	"repro/internal/iscasgen"
	"repro/internal/mvheur"
	"repro/internal/testset"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Ablation compares design variants on one test set; each entry is one
// variant's rate.
type Ablation struct {
	Name    string
	Entries []AblationEntry
}

// AblationEntry is one variant's measured compression rate.
type AblationEntry struct {
	Variant string
	Rate    float64
}

// String renders the ablation as a small table.
func (a Ablation) String() string {
	s := a.Name + ":\n"
	for _, e := range a.Entries {
		s += fmt.Sprintf("  %-32s %7.2f%%\n", e.Variant, e.Rate)
	}
	return s
}

// AblationSubsume compares the EA result with and without the §3.3
// subsumption post-pass.
func AblationSubsume(ts *testset.TestSet, p core.Params) (Ablation, error) {
	p.SubsumeOpt = false
	plain, err := core.Compress(ts, p)
	if err != nil {
		return Ablation{}, err
	}
	p.SubsumeOpt = true
	opt, err := core.Compress(ts, p)
	if err != nil {
		return Ablation{}, err
	}
	return Ablation{
		Name: "subsumption post-pass (§3.3)",
		Entries: []AblationEntry{
			{"plain Huffman", plain.Final.RatePercent()},
			{"with subsume fold", opt.Final.RatePercent()},
		},
	}, nil
}

// AblationOperators compares crossover styles at an equal budget.
func AblationOperators(ts *testset.TestSet, p core.Params) (Ablation, error) {
	var entries []AblationEntry
	for _, kind := range []struct {
		name string
		k    ea.CrossoverKind
	}{{"uniform crossover", ea.UniformCrossover}, {"two-point crossover", ea.TwoPointCrossover}} {
		pc := p
		pc.EA.Crossover = kind.k
		res, err := core.Compress(ts, pc)
		if err != nil {
			return Ablation{}, err
		}
		entries = append(entries, AblationEntry{kind.name, res.BestRate})
	}
	return Ablation{Name: "crossover operator", Entries: entries}, nil
}

// AblationSearch compares random MV sets, the greedy heuristic, and the
// EA at matched (K, L) — separating the value of the generalized problem
// formulation from the value of evolutionary search.
func AblationSearch(ts *testset.TestSet, p core.Params) (Ablation, error) {
	ms := blockcode.Dedup(blockcode.Partition(ts, p.K))

	// Random baseline: best of p.Runs random MV sets.
	randBest := -1e18
	for run := 0; run < p.Runs; run++ {
		set := core.RandomMVSet(p.K, p.L, 0.5, newRand(p.EA.Seed+int64(run)))
		res, err := set.BuildHuffman(ms, ts.TotalBits())
		if err != nil {
			continue
		}
		randBest = max(randBest, res.RatePercent())
	}

	greedy, err := mvheur.Rate(ts, p.K, p.L, mvheur.DefaultOptions())
	if err != nil {
		return Ablation{}, err
	}
	eaRes, err := core.Compress(ts, p)
	if err != nil {
		return Ablation{}, err
	}
	pg := p
	pg.SeedGreedy = true
	eaSeeded, err := core.Compress(ts, pg)
	if err != nil {
		return Ablation{}, err
	}
	return Ablation{
		Name: "search strategy at matched (K,L)",
		Entries: []AblationEntry{
			{"best random MV set", randBest},
			{"greedy heuristic (mvheur)", greedy},
			{"EA (paper)", eaRes.BestRate},
			{"EA seeded with greedy", eaSeeded.BestRate},
		},
	}, nil
}

// RunAblations executes every ablation on a calibrated registry circuit.
func RunAblations(circuit string, cfg Config) ([]Ablation, error) {
	m, err := iscasgen.Find(circuit, iscasgen.StuckAt)
	if err != nil {
		return nil, err
	}
	ts, err := iscasgen.Generate(m, iscasgen.GenOptions{MaxBits: cfg.MaxBits, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	p := cfg.eaParams(8, 32, cfg.Seed)
	var out []Ablation
	if a, err := AblationSubsume(ts, p); err == nil {
		out = append(out, a)
	} else {
		return nil, err
	}
	if a, err := AblationOperators(ts, p); err == nil {
		out = append(out, a)
	} else {
		return nil, err
	}
	if a, err := AblationSearch(ts, p); err == nil {
		out = append(out, a)
	} else {
		return nil, err
	}
	return out, nil
}
