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
	"hash/fnv"

	"repro/internal/atpg"
	"repro/internal/circuit"
	"repro/internal/delay"
	"repro/internal/iscasgen"
	"repro/internal/multichain"
	"repro/internal/pipeline"
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

// Circuit builds the deterministic netlist for a registry benchmark,
// mirroring the flow's generator: input count from the registry row
// (capped at 64), denser fanin-3 netlists for stuck-at, shallow
// fanin-2 ones for path-delay (robust paths need them).
func Circuit(benchmark string, kind iscasgen.Kind, seed int64) (*circuit.Circuit, error) {
	m, err := iscasgen.Find(benchmark, kind)
	if err != nil {
		return nil, err
	}
	inputs := m.Width
	if inputs > 64 {
		inputs = 64
	}
	gates, fanin := 4*inputs, 3
	if kind == iscasgen.PathDelay {
		gates, fanin = 3*inputs, 2
	}
	if gates < 40 {
		gates = 40
	}
	outputs := inputs / 3
	if outputs < 2 {
		outputs = 2
	}
	h := fnv.New64a()
	h.Write([]byte(benchmark))
	return circuit.Random(benchmark, circuit.RandomOptions{
		Inputs: inputs, Gates: gates, Outputs: outputs, MaxFanin: fanin,
		Seed: pipeline.Seed(seed^int64(h.Sum64()), 0),
	})
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
