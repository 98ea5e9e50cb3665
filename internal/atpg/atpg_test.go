package atpg

import (
	"context"
	"testing"

	"repro/internal/circuit"
	"repro/internal/faults"
	"repro/internal/testset"
	"repro/internal/tritvec"
)

func TestGenerateC17FullCoverage(t *testing.T) {
	c := circuit.C17()
	res, err := Generate(c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// c17 is fully testable: every collapsed fault must be detected.
	if res.Aborted != 0 || res.Untestable != 0 {
		t.Fatalf("c17: aborted=%d untestable=%d", res.Aborted, res.Untestable)
	}
	if res.Coverage() != 1.0 {
		t.Fatalf("c17 coverage %.3f, want 1.0", res.Coverage())
	}
	if res.Tests.NumPatterns() == 0 {
		t.Fatal("no patterns generated")
	}
}

func TestPatternsContainX(t *testing.T) {
	c := circuit.C17()
	res, err := Generate(c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Tests.CareDensity() >= 1.0 {
		t.Fatal("X-maximized uncompacted patterns should contain don't-cares")
	}
}

func TestEveryPatternVerifies(t *testing.T) {
	// Each emitted pattern must definitely detect at least one fault.
	c, err := circuit.Random("r", circuit.RandomOptions{Inputs: 8, Gates: 40, Outputs: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Generate(c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	fl := faults.Collapse(c)
	for pi, p := range res.Tests.Patterns {
		ok := false
		for _, f := range fl {
			if faults.DefinitelyDetects(c, p, f) {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("pattern %d (%s) detects no fault", pi, p)
		}
	}
}

func TestFaultDroppingShrinksTestSet(t *testing.T) {
	c, err := circuit.Random("r", circuit.RandomOptions{Inputs: 8, Gates: 60, Outputs: 5, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	noDrop, err := Generate(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.FaultDropping = true
	drop, err := Generate(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if drop.Tests.NumPatterns() > noDrop.Tests.NumPatterns() {
		t.Fatalf("dropping increased pattern count: %d > %d",
			drop.Tests.NumPatterns(), noDrop.Tests.NumPatterns())
	}
	if drop.Detected < noDrop.Detected {
		t.Fatalf("dropping lost detections: %d < %d", drop.Detected, noDrop.Detected)
	}
}

func TestCoverageConfirmedByFaultSimulation(t *testing.T) {
	// Patterns generated by ATPG, re-verified independently by the
	// bit-parallel fault simulator (X filled randomly): simulator
	// coverage must be at least the ATPG-claimed coverage.
	c, err := circuit.Random("r", circuit.RandomOptions{Inputs: 10, Gates: 80, Outputs: 6, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Generate(c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	fl := faults.Collapse(c)
	det := faults.NewSimulator(c, 99).Run(res.Tests, fl)
	simCov := faults.Coverage(det)
	if simCov < res.Coverage()-1e-9 {
		t.Fatalf("fault-sim coverage %.3f below ATPG coverage %.3f", simCov, res.Coverage())
	}
}

func TestUntestableFaultDetected(t *testing.T) {
	// y = OR(a, NOT(a)) is constant 1: y stuck-at-1 is untestable.
	b := circuit.NewBuilder("redundant")
	b.AddInput("a")
	if _, err := b.AddGate("na", circuit.Not, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddGate("y", circuit.Or, "a", "na"); err != nil {
		t.Fatal(err)
	}
	b.AddOutput("y")
	c, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Generate(c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Untestable == 0 {
		t.Fatalf("expected untestable faults in redundant circuit: %+v", res)
	}
}

func TestXMaximizePreservesDetection(t *testing.T) {
	c := circuit.C17()
	fl := faults.Collapse(c)
	f := fl[0]
	p := newPodem(context.Background(), c, 1000)
	if st := p.run(f); st != statusDetected {
		t.Fatalf("run status %v", st)
	}
	pattern := p.imp.Assignment()
	maximizeX(c, p.imp)
	max := p.imp.Assignment()
	if !faults.DefinitelyDetects(c, max, f) {
		t.Fatal("X-maximization broke detection")
	}
	if max.CountX() < pattern.CountX() {
		t.Fatal("X-maximization reduced don't-cares")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	c, err := circuit.Random("r", circuit.RandomOptions{Inputs: 7, Gates: 30, Outputs: 3, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Generate(c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a.Tests.NumPatterns() != b.Tests.NumPatterns() || a.Detected != b.Detected {
		t.Fatal("ATPG not deterministic")
	}
	for i := range a.Tests.Patterns {
		if !a.Tests.Patterns[i].Equal(b.Tests.Patterns[i]) {
			t.Fatal("patterns differ across runs")
		}
	}
}

func TestGenerateUsableByCompressor(t *testing.T) {
	// The ATPG output plugs straight into the test set pipeline.
	c := circuit.C17()
	res, err := Generate(c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var _ *testset.TestSet = res.Tests
	if res.Tests.Width != len(c.Inputs) {
		t.Fatal("width mismatch")
	}
	flat := res.Tests.Flatten()
	if flat.Len() != res.Tests.TotalBits() {
		t.Fatal("flatten size mismatch")
	}
	_ = tritvec.Vector{}
}
