package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestShortRuns runs every workload of BENCHMARK.json for one second,
// untraced and traced, and checks that no op failed and that the run
// printed exactly the metrics BENCHMARK.json names, each with its unit.
func TestShortRuns(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	traces := []string{"0", "1"}
	if testing.Short() {
		traces = traces[:1]
	}
	for _, w := range spec.Workloads {
		for _, trace := range traces {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "3", "--seconds", "1", "--trace", trace, "--out", t.TempDir()}
				if code := run(args, &out); code != 0 {
					t.Fatalf("exit %d", code)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s has unit %q, want %q", m.Name, got.Unit, m.Unit)
					case !strings.Contains(out.String(), m.Name):
						t.Errorf("metric %s not printed by name", m.Name)
					}
				}
			})
		}
	}
}

// TestServePlan checks the serve-mix rotation: odd, every (input, codec)
// pair fresh once, the 6:1:1 kind split by position, and every
// repeatEvery-th sync op a repeat of an earlier fresh sync op.
func TestServePlan(t *testing.T) {
	const nsets = 68
	plan := servePlan(nsets, planSeed)
	if len(plan)%2 == 0 {
		t.Fatalf("rotation of %d entries is even", len(plan))
	}
	fresh := map[[2]any]int{}
	repeats, sync := 0, 0
	for e, p := range plan {
		if p.repeat < 0 {
			if p.kind != opKind(e) {
				t.Errorf("entry %d has kind %d, position says %d", e, p.kind, opKind(e))
			}
			fresh[[2]any{p.set, p.codec}]++
			continue
		}
		repeats++
		r := plan[p.repeat]
		if p.repeat >= e || r.repeat >= 0 || r.kind == kindAsync || r.set != p.set || r.codec != p.codec || r.kind != p.kind {
			t.Errorf("entry %d repeats entry %d, which is not an earlier fresh sync op like it", e, p.repeat)
		}
	}
	for e := range plan {
		if opKind(e) != kindAsync {
			sync++
		}
	}
	if len(fresh) != nsets*len(fastCodecs) {
		t.Errorf("%d distinct fresh pairs, want %d", len(fresh), nsets*len(fastCodecs))
	}
	if repeats != sync/repeatEvery {
		t.Errorf("%d repeats of %d sync ops, want one in %d", repeats, sync, repeatEvery)
	}
}
