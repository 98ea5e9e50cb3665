// Package core implements the paper's primary contribution: determining a
// set of L matching vectors of length K by evolutionary optimization
// (Section 3), covering the input blocks with them (Section 3.2) and
// Huffman-encoding the result (Section 3.3).
//
// An EA individual is a string of K·L genes over {0,1,U}; its fitness is
// the compression rate achieved by the corresponding MV set. One MV is
// pinned to all-U so no instance is unsolvable, exactly as in the paper.
package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/blockcode"
	"repro/internal/ea"
	"repro/internal/mvheur"
	"repro/internal/ninec"
	"repro/internal/pipeline"
	"repro/internal/testset"
	"repro/internal/tritvec"
)

// Params configures the EA compressor.
type Params struct {
	K int // input block length (paper default 12)
	L int // number of matching vectors (paper default 64)

	EA ea.Config

	// ForceAllU pins one MV to all-U so covering never fails (paper:
	// "One of the MVs was set to all-U, such that there were no
	// insolvable instances").
	ForceAllU bool
	// SubsumeOpt applies the Section 3.3 subsumption post-pass to the
	// final covering (an explicit improvement the paper identifies but
	// does not implement).
	SubsumeOpt bool
	// SeedNineC injects the 9C matching-vector set into the initial
	// population (the paper suggests this would rule out losing to 9C;
	// requires even K).
	SeedNineC bool
	// SeedGreedy injects the mvheur greedy MV set into the initial
	// population, guaranteeing the EA is at least as good as the
	// heuristic under elitism.
	SeedGreedy bool
	// Runs is the number of independent EA runs; the paper reports the
	// average over 5 runs and also best-of.
	Runs int
	// Workers bounds batch-level parallelism when the independent EA runs
	// (and sweep points) execute on the pipeline engine: 0 = one worker
	// per CPU, 1 = serial. Any worker count produces identical results.
	Workers int
}

// DefaultParams returns the paper's default configuration for Table 1:
// L=64, K=12, S=10, C=5, pc=30%, pm=30%, pi=10%, 5 runs, all-U pinned.
func DefaultParams(seed int64) Params {
	return Params{
		K:         12,
		L:         64,
		EA:        ea.DefaultConfig(seed),
		ForceAllU: true,
		Runs:      5,
	}
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	if p.K <= 0 {
		return fmt.Errorf("core: K must be positive, got %d", p.K)
	}
	if p.L <= 0 {
		return fmt.Errorf("core: L must be positive, got %d", p.L)
	}
	if p.Runs <= 0 {
		return fmt.Errorf("core: Runs must be positive, got %d", p.Runs)
	}
	if p.SeedNineC && p.K%2 != 0 {
		return fmt.Errorf("core: SeedNineC requires even K")
	}
	return p.EA.Validate()
}

// runSeed is the historical per-run seed derivation (Seed + run·7919),
// kept so the parallel engine reproduces the original serial results
// exactly.
func runSeed(base int64, run int) int64 { return base + int64(run)*7919 }

// geneToTrit maps an EA gene to a matching-vector trit. Genes use the
// tritvec encoding directly: 0=U(X), 1=0, 2=1.
func geneToTrit(g ea.Gene) tritvec.Trit { return tritvec.Trit(g % 3) }

// GenesToMVs decodes a genome of K·L genes into L matching vectors.
func GenesToMVs(genes []ea.Gene, k, l int) []tritvec.Vector {
	mvs := make([]tritvec.Vector, l)
	for i := 0; i < l; i++ {
		v := tritvec.New(k)
		for j := 0; j < k; j++ {
			v.Set(j, geneToTrit(genes[i*k+j]))
		}
		mvs[i] = v
	}
	return mvs
}

// MVsToGenes is the inverse of GenesToMVs.
func MVsToGenes(mvs []tritvec.Vector, k int) []ea.Gene {
	genes := make([]ea.Gene, 0, len(mvs)*k)
	for _, v := range mvs {
		for j := 0; j < k; j++ {
			genes = append(genes, ea.Gene(v.Get(j)))
		}
	}
	return genes
}

// problem adapts MV determination to the ea.Problem interface.
type problem struct {
	k, l      int
	origBits  int
	forceAllU bool
	// sizers holds clones of one blockcode.Sizer built per compression:
	// the EA runs share the problem and call Fitness concurrently, and
	// each call needs scratch.
	sizers sync.Pool
}

// newProblem builds the EA problem for the deduplicated blocks ms of a
// test set of origBits bits.
func newProblem(ms *blockcode.BlockMultiset, k, l, origBits int, forceAllU bool) *problem {
	p := &problem{k: k, l: l, origBits: origBits, forceAllU: forceAllU}
	proto := blockcode.NewSizer(ms, k, l)
	p.sizers.New = func() any { return proto.Clone() }
	p.sizers.Put(proto)
	return p
}

// invalidFitness is "a sufficiently small number, such that it is lower
// than the fitness of an individual leading to a valid solution" — any
// valid compression rate is > -100·K (even pure expansion is bounded by
// the all-U encoding).
const invalidFitness = -1e9

func (p *problem) GenomeLen() int { return p.k * p.l }
func (p *problem) Alphabet() int  { return 3 }

func (p *problem) Repair(genes []ea.Gene) {
	if !p.forceAllU {
		return
	}
	// Pin the last MV's genes to U (gene value 0 == tritvec.X).
	for j := (p.l - 1) * p.k; j < p.l*p.k; j++ {
		genes[j] = 0
	}
}

// Fitness is the compression rate of the genome's MV set, or
// invalidFitness when it leaves a block uncovered.
func (p *problem) Fitness(genes []ea.Gene) float64 {
	s := p.sizers.Get().(*blockcode.Sizer)
	compressed, ok := s.Size(genes)
	p.sizers.Put(s)
	if !ok {
		return invalidFitness
	}
	return blockcode.Rate(p.origBits, compressed)
}

// RunOutcome describes one EA run.
type RunOutcome struct {
	Seed        int64
	Rate        float64
	Generations int
	Evals       int
	History     []ea.GenStats
}

// Result is the full outcome of Compress.
type Result struct {
	Params Params
	// Final is the encoded result built from the best run's MV set
	// (including the subsumption pass when enabled).
	Final *blockcode.Result
	// Runs holds per-run outcomes; AverageRate is their mean (the
	// paper's 'EA' columns), BestRate the maximum.
	Runs        []RunOutcome
	AverageRate float64
	BestRate    float64
}

// Compress runs the EA compressor on ts.
func Compress(ts *testset.TestSet, p Params) (*Result, error) {
	return CompressCtx(context.Background(), ts, p)
}

// CompressCtx is Compress with cancellation. The p.Runs independent EA
// runs execute as pipeline jobs (p.Workers-wide); per-run seeds are a
// function of p.EA.Seed and the run index only, so the aggregate result
// is byte-identical for every worker count, including the serial one.
func CompressCtx(ctx context.Context, ts *testset.TestSet, p Params) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ms := blockcode.Dedup(blockcode.Partition(ts, p.K))
	prob := newProblem(ms, p.K, p.L, ts.TotalBits(), p.ForceAllU)

	var seeds [][]ea.Gene
	padToL := func(mvs []tritvec.Vector) []ea.Gene {
		mvs = append([]tritvec.Vector(nil), mvs...)
		for len(mvs) < p.L {
			mvs = append(mvs, tritvec.New(p.K))
		}
		return MVsToGenes(mvs[:p.L], p.K)
	}
	if p.SeedNineC {
		nine, err := ninec.MVs(p.K)
		if err != nil {
			return nil, err
		}
		seeds = append(seeds, padToL(nine.MVs))
	}
	if p.SeedGreedy {
		g := mvheur.Greedy(ms, p.K, p.L, mvheur.DefaultOptions())
		seeds = append(seeds, padToL(g.MVs))
	}

	jobs := make([]pipeline.Job[*ea.Result], p.Runs)
	for run := 0; run < p.Runs; run++ {
		cfg := p.EA
		cfg.Seed = runSeed(p.EA.Seed, run)
		jobs[run] = pipeline.Job[*ea.Result]{
			Name: fmt.Sprintf("run%d", run),
			Run: func(ctx context.Context, _ int64) (*ea.Result, error) {
				return ea.RunCtx(ctx, cfg, prob, seeds...)
			},
		}
	}
	outs, err := pipeline.Run(ctx, pipeline.Config{Workers: p.Workers}, jobs)
	if err != nil {
		return nil, err
	}

	res := &Result{Params: p}
	var bestGenes []ea.Gene
	best := invalidFitness
	for run, jr := range outs {
		out := jr.Value
		res.Runs = append(res.Runs, RunOutcome{
			Seed:        runSeed(p.EA.Seed, run),
			Rate:        out.Best.Fitness,
			Generations: out.Generations,
			Evals:       out.Evals,
			History:     out.History,
		})
		res.AverageRate += out.Best.Fitness
		if out.Best.Fitness > best {
			best = out.Best.Fitness
			bestGenes = out.Best.Genes
		}
	}
	res.AverageRate /= float64(p.Runs)
	res.BestRate = best

	if bestGenes == nil || best <= invalidFitness {
		return nil, fmt.Errorf("core: no valid MV set found (enable ForceAllU)")
	}

	set := &blockcode.MVSet{K: p.K, MVs: GenesToMVs(bestGenes, p.K, p.L)}
	var final *blockcode.Result
	if p.SubsumeOpt {
		final, err = set.BuildHuffmanOpt(ms, ts.TotalBits())
	} else {
		final, err = set.BuildHuffman(ms, ts.TotalBits())
	}
	if err != nil {
		return nil, err
	}
	if _, err := blockcode.Encode(ms, final); err != nil {
		return nil, err
	}
	res.Final = final
	if p.SubsumeOpt && final.RatePercent() > res.BestRate {
		res.BestRate = final.RatePercent()
	}
	return res, nil
}

// SweepPoint is one (K, L) configuration's outcome.
type SweepPoint struct {
	K, L int
	Rate float64 // best rate across the runs at this configuration
}

// Sweep evaluates the compressor across (K, L) configurations and returns
// all points plus the best ("EA-Best" column: "We generated data for
// numerous values of K and L … we report our best results"). The grid
// runs on the pipeline engine with base.Workers job-level parallelism.
//
// Seeding changed with the pipeline refactor: each grid point now runs
// on its own seed derived from base.EA.Seed and the point's index
// (pipeline.Seed) instead of every point sharing base.EA.Seed, so sweep
// numbers differ from the pre-pipeline serial implementation at the same
// seed. Runs remain fully reproducible and worker-count independent.
func Sweep(ts *testset.TestSet, base Params, ks, ls []int) ([]SweepPoint, SweepPoint, error) {
	return SweepCtx(context.Background(), ts, base, ks, ls, base.Workers)
}

// SweepCtx is Sweep with explicit cancellation and worker count. Every
// (K, L) point is one pipeline job whose EA seed is derived from
// base.EA.Seed and the point's grid index (pipeline.Seed), so the sweep
// is reproducible bit-for-bit at any worker count: 1 worker and N
// workers return identical points and identical best.
func SweepCtx(ctx context.Context, ts *testset.TestSet, base Params, ks, ls []int, workers int) ([]SweepPoint, SweepPoint, error) {
	type gridPoint struct{ k, l int }
	var grid []gridPoint
	for _, k := range ks {
		for _, l := range ls {
			grid = append(grid, gridPoint{k, l})
		}
	}
	jobs := make([]pipeline.Job[SweepPoint], len(grid))
	for i, gp := range grid {
		gp := gp
		jobs[i] = pipeline.Job[SweepPoint]{
			Name: fmt.Sprintf("K=%d/L=%d", gp.k, gp.l),
			Run: func(ctx context.Context, seed int64) (SweepPoint, error) {
				p := base
				p.K, p.L = gp.k, gp.l
				p.EA.Seed = seed
				if p.SeedNineC && gp.k%2 != 0 {
					p.SeedNineC = false
				}
				r, err := CompressCtx(ctx, ts, p)
				if err != nil {
					return SweepPoint{}, fmt.Errorf("core: sweep K=%d L=%d: %v", gp.k, gp.l, err)
				}
				return SweepPoint{K: gp.k, L: gp.l, Rate: r.BestRate}, nil
			},
		}
	}
	results, err := pipeline.Run(ctx, pipeline.Config{Workers: workers, RootSeed: base.EA.Seed}, jobs)
	if err != nil {
		return nil, SweepPoint{}, err
	}
	points := pipeline.Values(results)
	best := SweepPoint{Rate: invalidFitness}
	for _, pt := range points {
		if pt.Rate > best.Rate {
			best = pt
		}
	}
	return points, best, nil
}

// RandomMVSet returns L random matching vectors of length K with the given
// U bias — a baseline for EA effectiveness tests.
func RandomMVSet(k, l int, pU float64, r *rand.Rand) *blockcode.MVSet {
	mvs := make([]tritvec.Vector, l)
	for i := range mvs {
		v := tritvec.New(k)
		for j := 0; j < k; j++ {
			if r.Float64() < pU {
				v.Set(j, tritvec.X)
			} else if r.Intn(2) == 0 {
				v.Set(j, tritvec.Zero)
			} else {
				v.Set(j, tritvec.One)
			}
		}
		mvs[i] = v
	}
	mvs[l-1] = tritvec.New(k)
	return &blockcode.MVSet{K: k, MVs: mvs}
}
