// Package scenario generates realistic test-pattern corpora from
// seeded benchmark circuits: stuck-at ATPG sets, robust path-delay
// two-pattern sets, and multichain splits of them. The conformance and
// adversarial suites (and the serve fuzz harness) feed on these instead
// of purely random patterns — ATPG output has the structure the paper's
// codecs exploit (dense don't-cares, correlated blocks), so corruption
// and round-trip checks run against the distribution the system
// actually serves.
//
// Everything is deterministic in (benchmark, seed): the same arguments
// always produce the same patterns, so fuzz seed corpora and golden
// expectations stay stable across runs and worker counts.
package scenario

import (
	"fmt"

	"repro/internal/atpg"
	"repro/internal/circuit"
	"repro/internal/delay"
	"repro/internal/iscasgen"
	"repro/internal/multichain"
	"repro/internal/testset"
)

// Scenario is one generated pattern set with its provenance.
type Scenario struct {
	// Name identifies the source: "<benchmark>/<kind>" (multichain
	// scenarios append "/chainN").
	Name string
	// Kind is "stuck-at", "path-delay", or "multichain".
	Kind string
	Set  *testset.TestSet
}

// Circuit builds the registry benchmark's netlist of the given kind,
// the one the flow generates (iscasgen.Circuit).
func Circuit(benchmark string, kind iscasgen.Kind, seed int64) (*circuit.Circuit, error) {
	m, err := iscasgen.Find(benchmark, kind)
	if err != nil {
		return nil, err
	}
	return iscasgen.Circuit(m, seed)
}

// StuckAt runs PODEM stuck-at ATPG at its default options on the
// benchmark's generated circuit and returns the uncompacted pattern set
// (no fault dropping: one pattern per detected fault).
func StuckAt(benchmark string, seed int64) (Scenario, error) {
	c, err := Circuit(benchmark, iscasgen.StuckAt, seed)
	if err != nil {
		return Scenario{}, err
	}
	res, err := atpg.Generate(c, atpg.DefaultOptions())
	if err != nil {
		return Scenario{}, err
	}
	return Scenario{Name: benchmark + "/stuck-at", Kind: "stuck-at", Set: res.Tests}, nil
}

// PathDelay generates robust path-delay two-pattern tests (flattened
// v1, v2, v1, v2, ...) for the benchmark's generated circuit.
func PathDelay(benchmark string, seed int64) (Scenario, error) {
	c, err := Circuit(benchmark, iscasgen.PathDelay, seed)
	if err != nil {
		return Scenario{}, err
	}
	res, err := delay.Generate(c, delay.DefaultOptions())
	if err != nil {
		return Scenario{}, err
	}
	return Scenario{Name: benchmark + "/path-delay", Kind: "path-delay", Set: res.Tests}, nil
}

// Multichain splits the benchmark's stuck-at set over n interleaved
// scan chains, one scenario per chain — the substring distribution a
// multi-chain decoder sees.
func Multichain(benchmark string, n int, seed int64) ([]Scenario, error) {
	base, err := StuckAt(benchmark, seed)
	if err != nil {
		return nil, err
	}
	chains, err := multichain.Split(base.Set, n, multichain.Interleaved)
	if err != nil {
		return nil, err
	}
	out := make([]Scenario, len(chains))
	for i, ch := range chains {
		out[i] = Scenario{
			Name: fmt.Sprintf("%s/multichain/chain%d", benchmark, i),
			Kind: "multichain",
			Set:  ch,
		}
	}
	return out, nil
}

// Corpus is the default cross-kind corpus: one small stuck-at set, one
// path-delay set, and a 3-chain split — enough shape diversity for
// conformance sweeps without making suites slow. All derived from seed.
func Corpus(seed int64) ([]Scenario, error) {
	out := []Scenario{}
	sa, err := StuckAt("s298", seed)
	if err != nil {
		return nil, err
	}
	out = append(out, sa)
	pd, err := PathDelay("s298", seed)
	if err != nil {
		return nil, err
	}
	out = append(out, pd)
	mc, err := Multichain("s344", 3, seed)
	if err != nil {
		return nil, err
	}
	return append(out, mc...), nil
}
