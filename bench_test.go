// Benchmarks regenerating the paper's exhibits. One bench per table and
// figure (Tables 1 and 2, the Figure 1 EA loop, the (K,L) sweep behind
// the EA-Best column), plus ablations for the choices the paper leaves
// open (subsumption post-pass, crossover operator) and micro-benchmarks
// for the hot paths.
//
// The per-iteration work uses scaled test sets (tables.QuickConfig) so the
// suite completes in minutes; `cmd/experiments` regenerates the complete
// 39+29-circuit tables and writes EXPERIMENTS.md-ready output.
//
// This file is an external test package (tcomp_test): internal/tables
// itself imports the repro facade for the codec registry, so an
// in-package test importing tables would form a cycle.
package tcomp_test

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	tcomp "repro"
	"repro/internal/atpg"
	"repro/internal/blockcode"
	"repro/internal/core"
	"repro/internal/ea"
	"repro/internal/huffman"
	"repro/internal/iscasgen"
	"repro/internal/ninec"
	"repro/internal/tables"
	"repro/internal/testset"
)

// benchConfig returns the scaled experiment configuration used by the
// table benches.
func benchConfig(circuits ...string) tables.Config {
	c := tables.QuickConfig(1)
	c.MaxBits = 12000
	c.Runs = 1
	c.Generations = 30
	c.NoImprove = 12
	c.Sweep = false
	c.Circuits = circuits
	return c
}

// BenchmarkTable1 regenerates Table 1 (stuck-at) on a representative
// circuit subset spanning the paper's rate spectrum, reporting the four
// column averages as metrics.
func BenchmarkTable1(b *testing.B) {
	cfg := benchConfig("s349", "s298", "s386", "s444", "c432", "s838")
	var rows []tables.Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = tables.RunTable1(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	r9c, r9chc, rea, rea2 := tables.Averages(rows)
	b.ReportMetric(r9c, "avg9C%")
	b.ReportMetric(r9chc, "avg9CHC%")
	b.ReportMetric(rea, "avgEA%")
	b.ReportMetric(rea2, "avgEABest%")
}

// BenchmarkTable2 regenerates Table 2 (path delay) on a representative
// subset, reporting 9C, 9C+HC, EA1 (K=8,L=9) and EA2 (K=12,L=64) averages.
func BenchmarkTable2(b *testing.B) {
	cfg := benchConfig("s27", "s298", "s382", "s526", "s1494")
	var rows []tables.Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = tables.RunTable2(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	r9c, r9chc, ea1, ea2 := tables.Averages(rows)
	b.ReportMetric(r9c, "avg9C%")
	b.ReportMetric(r9chc, "avg9CHC%")
	b.ReportMetric(ea1, "avgEA1%")
	b.ReportMetric(ea2, "avgEA2%")
}

// BenchmarkEAConvergence exercises the Figure 1 loop and reports the
// best-fitness trajectory (initial vs final) — the data behind the
// paper's claim that the EA finds good MV sets.
func BenchmarkEAConvergence(b *testing.B) {
	m, err := iscasgen.Find("s444", iscasgen.StuckAt)
	if err != nil {
		b.Fatal(err)
	}
	ts, err := iscasgen.Generate(m, iscasgen.GenOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	p := core.DefaultParams(1)
	p.Runs = 1
	p.EA.MaxGenerations = 60
	p.EA.MaxNoImprove = 60
	var res *core.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = core.Compress(ts, p)
		if err != nil {
			b.Fatal(err)
		}
	}
	hist := res.Runs[0].History
	b.ReportMetric(hist[0].Best, "gen0rate%")
	b.ReportMetric(hist[len(hist)-1].Best, "finalrate%")
	b.ReportMetric(float64(res.Runs[0].Evals), "evals")
}

// BenchmarkEACompress times the paper's compressor at its defaults
// (K=12, L=64, S=10, C=5, 5 runs) on a full Table 1 set, with a fixed
// 100 generations a run so every iteration does the same work: ns/op
// and allocs/op ratchet the EA engine and its fitness kernel.
func BenchmarkEACompress(b *testing.B) {
	m, err := iscasgen.Find("s5378", iscasgen.StuckAt)
	if err != nil {
		b.Fatal(err)
	}
	ts, err := iscasgen.Generate(m, iscasgen.GenOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	p := tcomp.DefaultEAParams(1)
	p.EA.MaxGenerations = 100
	p.EA.MaxNoImprove = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Compress(ts, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkATPG times stuck-at PODEM at its default options on the s420
// flow circuit at flow seed 1, the flow whose test generation is the
// longest: ns/op and allocs/op ratchet the search and its implication
// engine.
func BenchmarkATPG(b *testing.B) {
	c, err := tcomp.NewTestFlow(tcomp.FlowSeed(1)).GenerateCircuit(context.Background(), "s420")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := atpg.Generate(c, atpg.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepKL backs the EA-Best column and the paper's stability
// remark: rates across a (K,L) grid stay within a narrow band.
func BenchmarkSweepKL(b *testing.B) {
	m, err := iscasgen.Find("s298", iscasgen.StuckAt)
	if err != nil {
		b.Fatal(err)
	}
	ts, err := iscasgen.Generate(m, iscasgen.GenOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	base := core.DefaultParams(2)
	base.Runs = 1
	base.EA.MaxGenerations = 25
	base.EA.MaxNoImprove = 10
	var best core.SweepPoint
	var points []core.SweepPoint
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, best, err = core.Sweep(ts, base, []int{8, 12, 16}, []int{16, 64})
		if err != nil {
			b.Fatal(err)
		}
	}
	worst := best.Rate
	for _, p := range points {
		if p.Rate < worst {
			worst = p.Rate
		}
	}
	b.ReportMetric(best.Rate, "bestrate%")
	b.ReportMetric(best.Rate-worst, "spread%")
}

// benchmarkSweepWorkers times the (K,L) sweep at a fixed pipeline worker
// count. The work is bit-for-bit identical at every worker count (see
// core.SweepCtx), so Serial vs Parallel is a pure wall-clock comparison.
func benchmarkSweepWorkers(b *testing.B, workers int) {
	m, err := iscasgen.Find("s298", iscasgen.StuckAt)
	if err != nil {
		b.Fatal(err)
	}
	ts, err := iscasgen.Generate(m, iscasgen.GenOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	base := core.DefaultParams(2)
	base.Runs = 1
	base.EA.MaxGenerations = 25
	base.EA.MaxNoImprove = 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := core.SweepCtx(context.Background(), ts, base,
			[]int{8, 12, 16}, []int{16, 64}, workers)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepSerial is the 1-worker baseline for the pipeline engine.
func BenchmarkSweepSerial(b *testing.B) { benchmarkSweepWorkers(b, 1) }

// BenchmarkSweepParallel shards the same sweep across all CPUs; on a
// multi-core machine it must beat BenchmarkSweepSerial.
func BenchmarkSweepParallel(b *testing.B) { benchmarkSweepWorkers(b, runtime.NumCPU()) }

// BenchmarkAblationSubsume measures the Section 3.3 subsumption post-pass
// (paper: "handling such cases explicitly could improve the compression
// rate").
func BenchmarkAblationSubsume(b *testing.B) {
	m, _ := iscasgen.Find("s510", iscasgen.StuckAt)
	ts, err := iscasgen.Generate(m, iscasgen.GenOptions{Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	p := core.DefaultParams(3)
	p.Runs = 1
	p.EA.MaxGenerations = 30
	p.EA.MaxNoImprove = 12
	var plain, opt *core.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.SubsumeOpt = false
		plain, err = core.Compress(ts, p)
		if err != nil {
			b.Fatal(err)
		}
		p.SubsumeOpt = true
		opt, err = core.Compress(ts, p)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(plain.Final.RatePercent(), "plain%")
	b.ReportMetric(opt.Final.RatePercent(), "subsume%")
}

// BenchmarkAblationOperators compares uniform vs two-point crossover (the
// paper leaves operator tuning as future work).
func BenchmarkAblationOperators(b *testing.B) {
	m, _ := iscasgen.Find("s400", iscasgen.StuckAt)
	ts, err := iscasgen.Generate(m, iscasgen.GenOptions{Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	run := func(kind ea.CrossoverKind) float64 {
		p := core.DefaultParams(5)
		p.Runs = 1
		p.EA.MaxGenerations = 30
		p.EA.MaxNoImprove = 12
		p.EA.Crossover = kind
		res, err := core.Compress(ts, p)
		if err != nil {
			b.Fatal(err)
		}
		return res.BestRate
	}
	var uni, two float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		uni = run(ea.UniformCrossover)
		two = run(ea.TwoPointCrossover)
	}
	b.ReportMetric(uni, "uniform%")
	b.ReportMetric(two, "twopoint%")
}

// --- micro-benchmarks on the hot paths ---

func benchTestSet(b *testing.B, density float64) *testset.TestSet {
	b.Helper()
	return testset.Random(64, 200, density, rand.New(rand.NewSource(7)))
}

// BenchmarkCovering measures the reference min-U covering, which the
// fitness sizer replaced in the EA's inner loop.
func BenchmarkCovering(b *testing.B) {
	ts := benchTestSet(b, 0.3)
	blocks := blockcode.Partition(ts, 12)
	set := core.RandomMVSet(12, 64, 0.5, rand.New(rand.NewSource(8)))
	ms := blockcode.Dedup(blocks)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cov := set.CoverMultiset(ms)
		if !cov.OK() {
			b.Fatal("uncovered")
		}
	}
}

// BenchmarkFitness measures one full fitness evaluation, the EA's inner
// loop: the sizer reads the genome's genes as byte lanes, covers the
// blocks in min-U order through its acceptance tables and sizes the
// Huffman code. BenchmarkCovering and BenchmarkHuffmanBuild time the
// reference path it replaced.
func BenchmarkFitness(b *testing.B) {
	ts := benchTestSet(b, 0.3)
	ms := blockcode.Dedup(blockcode.Partition(ts, 12))
	set := core.RandomMVSet(12, 64, 0.5, rand.New(rand.NewSource(9)))
	genes := core.MVsToGenes(set.MVs, 12)
	s := blockcode.NewSizer(ms, 12, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Size(genes); !ok {
			b.Fatal("uncovered")
		}
	}
}

// BenchmarkFitnessShapes measures the fitness evaluation at shapes
// other than BenchmarkFitness's K=12, L=64 over 200 patterns: the
// largest block and MV count of the experiments' sweep (K=16, L=128,
// two mask words), K=64 over a sparse set (5% specified), where the
// sizer reads 16 position groups per block however few of its bits are
// specified, and K=12, L=64 over 20 patterns (105 distinct blocks), the
// size of a flow's sets, where reading the genome weighs most against
// the cover.
func BenchmarkFitnessShapes(b *testing.B) {
	for _, c := range []struct {
		name     string
		k, l     int
		patterns int
		density  float64
	}{
		{"K16L128", 16, 128, 1000, 0.3},
		{"K64L64sparse", 64, 64, 1000, 0.05},
		{"K12L64small", 12, 64, 20, 0.3},
	} {
		b.Run(c.name, func(b *testing.B) {
			ts := testset.Random(64, c.patterns, c.density, rand.New(rand.NewSource(7)))
			ms := blockcode.Dedup(blockcode.Partition(ts, c.k))
			set := core.RandomMVSet(c.k, c.l, 0.5, rand.New(rand.NewSource(9)))
			genes := core.MVsToGenes(set.MVs, c.k)
			s := blockcode.NewSizer(ms, c.k, c.l)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := s.Size(genes); !ok {
					b.Fatal("uncovered")
				}
			}
		})
	}
}

// Benchmark9C measures baseline 9C compression throughput.
func Benchmark9C(b *testing.B) {
	ts := benchTestSet(b, 0.25)
	b.SetBytes(int64(ts.TotalBits() / 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ninec.Compress(ts, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHuffmanBuild measures code construction at the paper's L=64.
func BenchmarkHuffmanBuild(b *testing.B) {
	r := rand.New(rand.NewSource(10))
	freqs := make([]int, 64)
	for i := range freqs {
		freqs[i] = r.Intn(1000)
	}
	freqs[0] = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := huffman.Build(freqs); err != nil {
			b.Fatal(err)
		}
	}
}
