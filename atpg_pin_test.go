package tcomp_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	tcomp "repro"
	"repro/internal/atpg"
	"repro/internal/circuit"
)

// atpgPins are PODEM's outputs recorded with the search that
// re-simulated both machines of the whole circuit after every input
// assignment: the SHA-256 of the test set's text form and the
// detected, untestable and aborted fault counts. Incremental implication
// must leave every search decision, and so every pin, unchanged.
// Re-record them only for a deliberate change to the search itself,
// and say so.
var atpgPins = []struct {
	name string
	// circuit builds the netlist: a stuck-at or path-delay flow circuit,
	// or a random one.
	circuit                       func() (*circuit.Circuit, error)
	opt                           func(*atpg.Options)
	digest                        string
	detected, untestable, aborted int
}{
	{"flow/s298/seed1", flowCircuit("s298", 1), nil, "5aa733f3fce8cc8ff5beaec31af5ab2278256e9d3a1421e3f0926c5a421055e7", 46, 101, 0},
	{"flow/s298/seed2", flowCircuit("s298", 2), nil, "8fb50c041af995ead6a58479dc1620c01088fbd20db13fa93b0e67ac1c0ad750", 88, 67, 0},
	{"flow/s344/seed1", flowCircuit("s344", 1), nil, "babaf8151b3f120e3ece83a30627bfd17d895f65042ceff7233827d6aec1775f", 143, 72, 1},
	{"flow/s344/seed2", flowCircuit("s344", 2), nil, "b2a418866348e39e9fd7eafefd5b978cc01cc946c258dfb9b2cb2b35ab3a19ca", 100, 118, 0},
	{"flow/s420/seed1", flowCircuit("s420", 1), nil, "f8c230ababeb4eab952101187e995c2c9848de4e390ac35cfe804bed383b816c", 181, 115, 10},
	{"flow/s420/seed2", flowCircuit("s420", 2), nil, "e61eb32b61dd8cfdd4fe0e0976328bae59e5e56ea92873cb7d29631d82a112e8", 199, 103, 0},
	{"flow/s298/path-delay/seed1", flowCircuit("s298", 1, tcomp.FlowTests(tcomp.FlowPathDelay)), nil,
		"dc267ab41010aaa125196b97ca67bd5649441ef53c02dcf60eeef4904bab6fce", 54, 68, 0},
	{"flow/s420/path-delay/seed1", flowCircuit("s420", 1, tcomp.FlowTests(tcomp.FlowPathDelay)), nil,
		"787b2410ba9179a2fbf2e8f9690e6d5d7ce7758cb74060952deb3b8f9fa960ec", 144, 92, 0},
	{"random/dropping", randomCircuit(16, 90, 5, 3, 61),
		func(o *atpg.Options) { o.FaultDropping = true }, "0e945b02fd273b0c08ea63116bb76b2eeafb0983234719e56eae9bb53e11f26a", 82, 109, 0},
	{"random/uncollapsed", randomCircuit(12, 70, 4, 4, 62),
		func(o *atpg.Options) { o.Collapse = false }, "502ad5a1e921b46e372eb4d43aa4cf6b401ef6da8b70e5ea1bd162bff2f1baca", 86, 78, 0},
	{"random/no-xmax", randomCircuit(14, 80, 5, 3, 63),
		func(o *atpg.Options) { o.XMaximize = false }, "73f4a04acb37c71fd6cba3d88bd750d69e2e184f5f0edb4a40f543c5481277cf", 65, 103, 0},
	{"random/aborts", randomCircuit(30, 150, 8, 4, 64),
		func(o *atpg.Options) { o.MaxBacktracks = 10 }, "0386b23ebe33865def837d0efcb1da18b92bcaa8ea3c0bf7786dd5fe560f58cc", 95, 57, 176},
}

func flowCircuit(benchmark string, seed int64, opts ...tcomp.FlowOption) func() (*circuit.Circuit, error) {
	return func() (*circuit.Circuit, error) {
		return tcomp.NewTestFlow(append(opts, tcomp.FlowSeed(seed))...).GenerateCircuit(context.Background(), benchmark)
	}
}

func randomCircuit(inputs, gates, outputs, fanin int, seed int64) func() (*circuit.Circuit, error) {
	return func() (*circuit.Circuit, error) {
		return circuit.Random("r", circuit.RandomOptions{
			Inputs: inputs, Gates: gates, Outputs: outputs, MaxFanin: fanin, Seed: seed,
		})
	}
}

// TestATPGOutputPinned compares PODEM's test sets and fault counts with
// the values recorded in atpgPins, across the stuck-at flow circuits and
// two path-delay ones (pinning both shapes of the flow's generator) at
// their default options and random circuits under every option that
// changes the search's path: fault dropping, the uncollapsed fault list,
// no X-maximization and a backtrack limit low enough to abort faults.
func TestATPGOutputPinned(t *testing.T) {
	for _, pin := range atpgPins {
		t.Run(pin.name, func(t *testing.T) {
			c, err := pin.circuit()
			if err != nil {
				t.Fatal(err)
			}
			opt := atpg.DefaultOptions()
			if pin.opt != nil {
				pin.opt(&opt)
			}
			res, err := atpg.Generate(c, opt)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := res.Tests.Write(&buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			got := fmt.Sprintf("%s %d %d %d", hex.EncodeToString(sum[:]), res.Detected, res.Untestable, res.Aborted)
			want := fmt.Sprintf("%s %d %d %d", pin.digest, pin.detected, pin.untestable, pin.aborted)
			if got != want {
				t.Errorf("digest, detected, untestable, aborted = %s, pinned %s (%d patterns)", got, want, res.Tests.NumPatterns())
			}
		})
	}
}

// TestATPGSearchAllocatesNothing checks that PODEM's search steps
// allocate nothing: on the s420 flow circuit, whose search backtracks
// into the thousands, ATPG's allocations stay small and hardly grow
// when the backtrack limit rises twentyfold.
func TestATPGSearchAllocatesNothing(t *testing.T) {
	c, err := flowCircuit("s420", 1)()
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(maxBT int) float64 {
		opt := atpg.DefaultOptions()
		opt.MaxBacktracks = maxBT
		return testing.AllocsPerRun(1, func() {
			if _, err := atpg.Generate(c, opt); err != nil {
				t.Fatal(err)
			}
		})
	}
	low, high := allocs(100), allocs(2000)
	t.Logf("allocs per Generate: %.0f at MaxBacktracks 100, %.0f at 2000", low, high)
	if high >= 3000 {
		t.Errorf("%.0f allocs per Generate at MaxBacktracks 2000, want under 3000", high)
	}
	if high >= 1.05*low {
		t.Errorf("allocs grow from %.0f to %.0f between MaxBacktracks 100 and 2000, want under 5%%", low, high)
	}
}
