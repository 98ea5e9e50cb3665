package iscasgen

import (
	"hash/fnv"

	"repro/internal/circuit"
	"repro/internal/pipeline"
)

// Circuit builds the deterministic netlist that stands in for registry
// row m when a flow or a scenario runs test generation on it: a seeded
// random netlist whose input count matches the row, capped at 64 so ATPG
// stays tractable (the row only sizes the shape). Stuck-at rows get
// denser fanin-3 netlists; path-delay rows get shallow fanin-2 ones —
// deep reconvergent circuits rarely satisfy the strict robust
// steady-side-input condition, so they would generate near-empty test
// sets. The netlist's seed is pipeline.Seed(seed ^ FNV-1a(m.Name), 0),
// so the same (m, seed) always yields the same netlist.
func Circuit(m Meta, seed int64) (*circuit.Circuit, error) {
	inputs := min(m.Width, 64)
	gates, fanin := 4*inputs, 3
	if m.Kind == PathDelay {
		gates, fanin = 3*inputs, 2
	}
	h := fnv.New64a()
	h.Write([]byte(m.Name))
	return circuit.Random(m.Name, circuit.RandomOptions{
		Inputs: inputs, Gates: max(gates, 40), Outputs: max(inputs/3, 2), MaxFanin: fanin,
		Seed: pipeline.Seed(seed^int64(h.Sum64()), 0),
	})
}
