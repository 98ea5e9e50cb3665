package tcomp

// Integration tests across module boundaries: circuit → ATPG →
// compression → container → hardware decode → fault simulation, and the
// path-delay equivalent. These are the executable version of the paper's
// experimental flow.

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/atpg"
	"repro/internal/bitstream"
	"repro/internal/blockcode"
	"repro/internal/circuit"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/decoder"
	"repro/internal/delay"
	"repro/internal/faults"
	"repro/internal/iscasgen"
	"repro/internal/multichain"
	"repro/internal/ninec"
	"repro/internal/testset"
)

func smallEAParams(seed int64, k, l int) core.Params {
	p := core.DefaultParams(seed)
	p.K, p.L = k, l
	p.Runs = 2
	p.EA.MaxGenerations = 50
	p.EA.MaxNoImprove = 20
	return p
}

// TestStuckAtFlowPreservesCoverage is the Table 1 pipeline end to end on
// a real circuit: the decompressed (fully specified) patterns must
// detect every fault the original X-patterns detected.
func TestStuckAtFlowPreservesCoverage(t *testing.T) {
	c, err := circuit.Random("int16", circuit.RandomOptions{Inputs: 14, Gates: 90, Outputs: 6, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := atpg.Generate(c, atpg.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ts := gen.Tests
	if ts.NumPatterns() == 0 {
		t.Fatal("ATPG produced no patterns")
	}

	res, err := core.Compress(ts, smallEAParams(31, 7, 16))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := blockcode.Decode(bitstream.FromWriter(res.Final.Stream),
		res.Final.Set, res.Final.Code, ts.TotalBits())
	if err != nil {
		t.Fatal(err)
	}
	if err := blockcode.Verify(ts.Flatten(), dec); err != nil {
		t.Fatal(err)
	}
	decTS, err := testset.FromFlat(dec, ts.Width)
	if err != nil {
		t.Fatal(err)
	}
	// Every fault definitely detected by an original pattern must be
	// detected by the corresponding decompressed pattern (which is a
	// specialization of it).
	fl := faults.Collapse(c)
	for _, f := range fl {
		for pi, p := range ts.Patterns {
			if faults.DefinitelyDetects(c, p, f) {
				if !faults.DefinitelyDetects(c, decTS.Patterns[pi], f) {
					t.Fatalf("fault %s: pattern %d lost detection after decompression", f.Name(c), pi)
				}
				break
			}
		}
	}
}

// TestPathDelayFlowPreservesRobustness: decompressed two-pattern tests
// stay robust.
func TestPathDelayFlowPreservesRobustness(t *testing.T) {
	c := circuit.C17()
	gen, err := delay.Generate(c, delay.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ts := gen.Tests
	res, err := ninec.CompressHC(ts, 2) // tiny width: use K=2
	if err != nil {
		t.Fatal(err)
	}
	dec, err := blockcode.Decode(bitstream.FromWriter(res.Stream), res.Set, res.Code, ts.TotalBits())
	if err != nil {
		t.Fatal(err)
	}
	decTS, err := testset.FromFlat(dec, ts.Width)
	if err != nil {
		t.Fatal(err)
	}
	// Re-associate pairs with paths exactly as delay.Generate emitted
	// them and confirm each decompressed pair is still robust.
	paths := delay.EnumeratePaths(c, 1000)
	idx := 0
	verified := 0
	for _, path := range paths {
		for dir := 0; dir < 2; dir++ {
			if idx+1 >= ts.NumPatterns() {
				break
			}
			v1, v2 := ts.Patterns[idx], ts.Patterns[idx+1]
			if delay.VerifyRobust(c, path, v1, v2) != nil {
				continue
			}
			if err := delay.VerifyRobust(c, path, decTS.Patterns[idx], decTS.Patterns[idx+1]); err != nil {
				t.Fatalf("pair %d lost robustness: %v", idx/2, err)
			}
			verified++
			idx += 2
		}
	}
	if verified == 0 {
		t.Fatal("no pairs verified — pairing logic broken")
	}
}

// TestContainerThroughFSM exercises serialize → parse → hardware decode.
func TestContainerThroughFSM(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	ts := testset.Random(20, 60, 0.3, r)
	res, err := core.Compress(ts, smallEAParams(33, 10, 16))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := container.Write(&buf, container.MethodEA, ts.Width, ts.NumPatterns(), res.Final); err != nil {
		t.Fatal(err)
	}
	cf, err := container.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fsm, err := decoder.New(cf.Set, cf.Code)
	if err != nil {
		t.Fatal(err)
	}
	dec, st, err := fsm.Run(bitstream.NewReader(cf.Payload, cf.NBits), cf.Width*cf.Patterns)
	if err != nil {
		t.Fatal(err)
	}
	if st.InputBits != cf.NBits {
		t.Fatalf("FSM consumed %d of %d payload bits", st.InputBits, cf.NBits)
	}
	if err := blockcode.Verify(ts.Flatten(), dec); err != nil {
		t.Fatal(err)
	}
}

// TestCalibratedRegistryOrdering runs the three methods on calibrated
// test sets of mixed sizes and confirms the paper's ordering per circuit
// family (averaged).
func TestCalibratedRegistryOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("registry ordering in -short mode")
	}
	var sum9c, sumhc, sumea float64
	names := []string{"s349", "s444", "s1494"}
	for _, name := range names {
		m, err := iscasgen.Find(name, iscasgen.StuckAt)
		if err != nil {
			t.Fatal(err)
		}
		ts, err := iscasgen.Generate(m, iscasgen.GenOptions{MaxBits: 8000, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		n, err := ninec.Compress(ts, 8)
		if err != nil {
			t.Fatal(err)
		}
		h, err := ninec.CompressHC(ts, 8)
		if err != nil {
			t.Fatal(err)
		}
		e, err := core.Compress(ts, smallEAParams(5, 12, 32))
		if err != nil {
			t.Fatal(err)
		}
		sum9c += n.RatePercent()
		sumhc += h.RatePercent()
		sumea += e.BestRate
	}
	if !(sum9c <= sumhc && sumhc < sumea) {
		t.Fatalf("ordering broken: 9C %.1f, 9C+HC %.1f, EA %.1f", sum9c, sumhc, sumea)
	}
}

// TestMultichainDecodePreservesTestSet: per-chain compression round-trips
// through decode and merge back to a compatible test set.
func TestMultichainDecodePreservesTestSet(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	ts := testset.Random(18, 40, 0.3, r)
	chains, err := multichain.Split(ts, 3, multichain.Interleaved)
	if err != nil {
		t.Fatal(err)
	}
	decChains := make([]*testset.TestSet, len(chains))
	for i, ch := range chains {
		res, err := core.Compress(ch, smallEAParams(int64(40+i), 6, 8))
		if err != nil {
			t.Fatal(err)
		}
		dec, err := blockcode.Decode(bitstream.FromWriter(res.Final.Stream),
			res.Final.Set, res.Final.Code, ch.TotalBits())
		if err != nil {
			t.Fatal(err)
		}
		decChains[i], err = testset.FromFlat(dec, ch.Width)
		if err != nil {
			t.Fatal(err)
		}
	}
	merged, err := multichain.Merge(decChains, ts.Width, multichain.Interleaved)
	if err != nil {
		t.Fatal(err)
	}
	if !ts.Compatible(merged) {
		t.Fatal("multichain decode+merge lost specified bits")
	}
}

// TestBenchFileRoundTripThroughATPG: write a generated circuit to .bench,
// parse it back, and confirm ATPG produces identical test sets.
func TestBenchFileRoundTripThroughATPG(t *testing.T) {
	c1, err := circuit.Random("rt", circuit.RandomOptions{Inputs: 8, Gates: 40, Outputs: 4, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c1.WriteBench(&buf); err != nil {
		t.Fatal(err)
	}
	c2, err := circuit.ParseBench("rt2", &buf)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := atpg.Generate(c1, atpg.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := atpg.Generate(c2, atpg.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Detected != r2.Detected || r1.Tests.NumPatterns() != r2.Tests.NumPatterns() {
		t.Fatalf("bench round trip changed ATPG outcome: %d/%d vs %d/%d",
			r1.Detected, r1.Tests.NumPatterns(), r2.Detected, r2.Tests.NumPatterns())
	}
}
