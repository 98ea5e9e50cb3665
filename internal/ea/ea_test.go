package ea

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// oneMax is the classic benchmark: fitness = number of genes equal to 1.
type oneMax struct {
	n     int
	alpha int
}

func (p oneMax) GenomeLen() int { return p.n }
func (p oneMax) Alphabet() int  { return p.alpha }
func (p oneMax) Repair([]Gene)  {}
func (p oneMax) Fitness(g []Gene) float64 {
	s := 0
	for _, x := range g {
		if x == 1 {
			s++
		}
	}
	return float64(s)
}

// pinned requires gene 0 to be 2 after Repair.
type pinned struct{ oneMax }

func (p pinned) Repair(g []Gene) { g[0] = 2 }

func TestValidate(t *testing.T) {
	good := DefaultConfig(1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.PopSize = 1 },
		func(c *Config) { c.Children = 0 },
		func(c *Config) { c.PCross = -0.1 },
		func(c *Config) { c.PMut = 1.5 },
		func(c *Config) { c.PCross, c.PMut, c.PInv = 0, 0, 0 },
		func(c *Config) { c.MaxNoImprove, c.MaxGenerations, c.MaxEvals = 0, 0, 0 },
	}
	for i, mod := range bad {
		c := DefaultConfig(1)
		mod(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestRunSolvesOneMax(t *testing.T) {
	cfg := DefaultConfig(42)
	cfg.PopSize = 20
	cfg.Children = 20
	cfg.MaxNoImprove = 200
	cfg.MaxGenerations = 2000
	res, err := Run(cfg, oneMax{n: 30, alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Fitness < 28 {
		t.Fatalf("EA reached only %.0f/30 on OneMax", res.Best.Fitness)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	cfg := DefaultConfig(7)
	cfg.MaxGenerations = 50
	cfg.MaxNoImprove = 50
	a, err := Run(cfg, oneMax{n: 20, alpha: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, oneMax{n: 20, alpha: 3})
	if err != nil {
		t.Fatal(err)
	}
	if a.Best.Fitness != b.Best.Fitness || a.Generations != b.Generations || a.Evals != b.Evals {
		t.Fatalf("non-deterministic: %+v vs %+v", a.Best.Fitness, b.Best.Fitness)
	}
	for i := range a.Best.Genes {
		if a.Best.Genes[i] != b.Best.Genes[i] {
			t.Fatal("best genomes differ across identical runs")
		}
	}
}

func TestElitismMonotoneBest(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.MaxGenerations = 100
	cfg.MaxNoImprove = 100
	res, err := Run(cfg, oneMax{n: 25, alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, g := range res.History {
		if g.Best < prev {
			t.Fatalf("best fitness decreased: gen %d %.1f < %.1f", g.Generation, g.Best, prev)
		}
		prev = g.Best
	}
}

func TestRepairInvariantMaintained(t *testing.T) {
	cfg := DefaultConfig(5)
	cfg.MaxGenerations = 30
	cfg.MaxNoImprove = 30
	res, err := Run(cfg, pinned{oneMax{n: 10, alpha: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Genes[0] != 2 {
		t.Fatal("Repair pin not maintained on best individual")
	}
}

func TestSeedIndividualUsed(t *testing.T) {
	// Seeding the optimum must make the run start at the optimum.
	n := 15
	opt := make([]Gene, n)
	for i := range opt {
		opt[i] = 1
	}
	cfg := DefaultConfig(11)
	cfg.MaxGenerations = 1
	cfg.MaxNoImprove = 1
	res, err := Run(cfg, oneMax{n: n, alpha: 2}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Fitness != float64(n) {
		t.Fatalf("seeded optimum lost: best=%.0f", res.Best.Fitness)
	}
	// Wrong-length seed rejected.
	if _, err := Run(cfg, oneMax{n: n, alpha: 2}, make([]Gene, n+1)); err == nil {
		t.Fatal("bad seed length accepted")
	}
}

func TestMaxEvalsBudget(t *testing.T) {
	cfg := DefaultConfig(13)
	cfg.MaxEvals = 30
	cfg.MaxGenerations = 0
	cfg.MaxNoImprove = 0
	cfg.MaxEvals = 30
	res, err := Run(cfg, oneMax{n: 10, alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Budget may be exceeded by at most one generation's children.
	if res.Evals > 30+cfg.Children {
		t.Fatalf("evals=%d exceeded budget", res.Evals)
	}
}

func TestTwoPointCrossover(t *testing.T) {
	src := newSource(1)
	a := make([]Gene, 10)
	b := make([]Gene, 10)
	for i := range b {
		b[i] = 1
	}
	c1, c2 := make([]Gene, 10), make([]Gene, 10)
	crossover(rand.New(src), src, TwoPointCrossover, c1, c2, a, b)
	// children must be complementary and contain a contiguous swapped
	// segment
	for i := range c1 {
		if c1[i]+c2[i] != 1 {
			t.Fatalf("complementarity violated at %d", i)
		}
	}
	changes := 0
	for i := 1; i < len(c1); i++ {
		if c1[i] != c1[i-1] {
			changes++
		}
	}
	if changes > 2 {
		t.Fatalf("two-point crossover produced %d segment changes", changes)
	}
}

func TestUniformCrossoverPreservesMultiset(t *testing.T) {
	src := newSource(2)
	a := []Gene{0, 0, 0, 0, 0}
	b := []Gene{1, 1, 1, 1, 1}
	c1, c2 := make([]Gene, 5), make([]Gene, 5)
	crossover(rand.New(src), src, UniformCrossover, c1, c2, a, b)
	for i := range c1 {
		if c1[i]+c2[i] != 1 {
			t.Fatal("uniform crossover must exchange positionwise")
		}
	}
}

// referenceUniformCrossover is uniform crossover as the engine wrote it
// before children went into reused buffers: fresh copies of the parents
// and one rng.Intn(2) per gene, 0 swapping the gene.
func referenceUniformCrossover(rng *rand.Rand, a, b []Gene) ([]Gene, []Gene) {
	c1 := append([]Gene(nil), a...)
	c2 := append([]Gene(nil), b...)
	for k := range c1 {
		if rng.Intn(2) == 0 {
			c1[k], c2[k] = c2[k], c1[k]
		}
	}
	return c1, c2
}

// TestUniformCrossoverMatchesReference: crossover over the buffered
// source makes the children of math/rand's per-gene Intn(2) and leaves
// the stream where math/rand leaves it, so every later draw of a run is
// unchanged too. 768 genes is more than one refill of the buffer, so
// each crossover crosses a refill at a different gene.
func TestUniformCrossoverMatchesReference(t *testing.T) {
	ref := rand.New(rand.NewSource(29))
	src := newSource(29)
	got := rand.New(src)
	parents := rand.New(rand.NewSource(31))
	const n = 768
	a, b := make([]Gene, n), make([]Gene, n)
	c1, c2 := make([]Gene, n), make([]Gene, n)
	for iter := 0; iter < 100; iter++ {
		for i := range a {
			a[i], b[i] = Gene(parents.Intn(3)), Gene(parents.Intn(3))
		}
		w1, w2 := referenceUniformCrossover(ref, a, b)
		crossover(got, src, UniformCrossover, c1, c2, a, b)
		if !bytes.Equal(c1, w1) || !bytes.Equal(c2, w2) {
			t.Fatalf("crossover %d: children differ from the reference", iter)
		}
	}
	if ref.Int63() != got.Int63() {
		t.Fatal("crossover consumed a different number of draws than the reference")
	}
}

// TestSourceMatchesMathRand: source returns rand.NewSource(seed)'s
// stream value for value, whether it is read a value at a time, as
// Int63 or through take, whose reads end at a refill or anywhere else.
func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, -1, 1<<31 - 1, 1 << 31, 1 << 40, math.MinInt64} {
		ref := rand.NewSource(seed).(rand.Source64)
		s := newSource(seed)
		reads := rand.New(rand.NewSource(seed ^ 0x5eed))
		for drawn := 0; drawn < 1_000_000; {
			switch reads.Intn(3) {
			case 0:
				if got, want := s.Uint64(), ref.Uint64(); got != want {
					t.Fatalf("seed %d, draw %d: Uint64 %#x, math/rand %#x", seed, drawn, got, want)
				}
				drawn++
			case 1:
				if got, want := s.Int63(), ref.Int63(); got != want {
					t.Fatalf("seed %d, draw %d: Int63 %#x, math/rand %#x", seed, drawn, got, want)
				}
				drawn++
			case 2:
				n := 1 + reads.Intn(2*longLag)
				v := s.take(n)
				if len(v) < 1 || len(v) > n {
					t.Fatalf("seed %d, draw %d: take(%d) returned %d values", seed, drawn, n, len(v))
				}
				for i, got := range v {
					if want := ref.Uint64(); got != want {
						t.Fatalf("seed %d, draw %d: take value %#x, math/rand %#x", seed, drawn+i, got, want)
					}
				}
				drawn += len(v)
			}
		}
		s.Seed(seed)
		if got, want := s.Uint64(), rand.NewSource(seed).(rand.Source64).Uint64(); got != want {
			t.Fatalf("seed %d: reseeded source starts at %#x, math/rand at %#x", seed, got, want)
		}
	}
}

func TestMutateChangesAtMostOneGene(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := make([]Gene, 8)
	for iter := 0; iter < 100; iter++ {
		a := make([]Gene, 8)
		for i := range a {
			a[i] = Gene(rng.Intn(3))
		}
		mutate(rng, c, a, 3)
		diff := 0
		for i := range a {
			if a[i] != c[i] {
				diff++
			}
		}
		if diff > 1 {
			t.Fatalf("mutation changed %d genes", diff)
		}
	}
}

func TestInvertIsReversal(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := []Gene{0, 1, 2, 3, 4, 5, 6, 7}
	c := make([]Gene, len(a))
	// Property: inversion preserves the multiset of genes.
	for iter := 0; iter < 50; iter++ {
		invert(rng, c, a)
		var countA, countC [8]int
		for i := range a {
			countA[a[i]]++
			countC[c[i]]++
		}
		if countA != countC {
			t.Fatal("inversion changed gene multiset")
		}
	}
}

// cancelling cancels its run's context at its n-th Fitness call.
type cancelling struct {
	oneMax
	n      int
	cancel context.CancelFunc
}

func (p *cancelling) Fitness(g []Gene) float64 {
	if p.n--; p.n == 0 {
		p.cancel()
	}
	return p.oneMax.Fitness(g)
}

// TestQuickPopulationSizeInvariant: however a run ends, by either cap,
// by MaxNoImprove or by a cancelled context, Generations counts the
// generations it ran: Evals is S + Generations·C, and History holds the
// initial population and one entry per generation.
func TestQuickPopulationSizeInvariant(t *testing.T) {
	f := func(seed int64, m uint8) bool {
		limit := 1 + int(m%30)
		for stop := 0; stop < 4; stop++ {
			cfg := DefaultConfig(seed)
			cfg.MaxGenerations, cfg.MaxNoImprove, cfg.MaxEvals = 0, 0, 0
			ctx, cancel := context.WithCancel(context.Background())
			var p Problem = oneMax{n: 8, alpha: 2}
			switch stop {
			case 0:
				cfg.MaxGenerations = limit
			case 1:
				cfg.MaxEvals = cfg.PopSize + 3*limit
			case 2:
				cfg.MaxNoImprove = limit
			case 3:
				cfg.MaxGenerations = 1000
				p = &cancelling{oneMax{n: 40, alpha: 2}, cfg.PopSize + limit, cancel}
			}
			res, err := RunCtx(ctx, cfg, p)
			cancel()
			if res == nil || (err != nil) != (stop == 3) {
				t.Logf("seed %d, stop %d: result %v, error %v", seed, stop, res, err)
				return false
			}
			s, c, g := cfg.PopSize, cfg.Children, res.Generations
			var ended bool
			switch stop {
			case 0:
				ended = g == limit
			case 1:
				ended = res.Evals >= cfg.MaxEvals && res.Evals-c < cfg.MaxEvals
			case 2:
				ended = g >= limit && res.History[g].Best == res.History[g-limit].Best
			case 3:
				ended = errors.Is(err, context.Canceled) && g < cfg.MaxGenerations
			}
			if !ended || res.Evals != s+g*c || len(res.History) != g+1 {
				t.Logf("seed %d, stop %d (limit %d): %d generations, %d evals, %d history entries",
					seed, stop, limit, g, res.Evals, len(res.History))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDegenerateProblemRejected(t *testing.T) {
	cfg := DefaultConfig(1)
	if _, err := Run(cfg, oneMax{n: 0, alpha: 2}); err == nil {
		t.Fatal("zero-length genome accepted")
	}
	if _, err := Run(cfg, oneMax{n: 5, alpha: 1}); err == nil {
		t.Fatal("unary alphabet accepted")
	}
}

func TestPickOperatorDistribution(t *testing.T) {
	cfg := DefaultConfig(1)
	rng := rand.New(rand.NewSource(99))
	var counts [3]int
	for i := 0; i < 10000; i++ {
		counts[pickOperator(rng, cfg)]++
	}
	// 30/30/10 normalized => ~42.8%, 42.8%, 14.3%
	if counts[opCross] < 3500 || counts[opMut] < 3500 || counts[opInv] < 800 {
		t.Fatalf("operator distribution off: %v", counts)
	}
}

func TestRunCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := DefaultConfig(17)
	_, err := RunCtx(ctx, cfg, oneMax{n: 20, alpha: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// flat gives every genome the same fitness. Truncation keeps population
// members ahead of the children they tie with, so the population stays
// the initial one for the whole run.
type flat struct{ oneMax }

func (flat) Fitness([]Gene) float64 { return 0 }

// counting records the genome and generation of every Fitness call.
// Repair runs once per individual created, S times for the initial
// population and C times per generation, each before that generation's
// Fitness calls, so the repairs so far give the generation.
type counting struct {
	Problem
	s, c    int
	repairs int
	calls   []evaluation
}

type evaluation struct {
	gen   int
	genes string
}

func (p *counting) Repair(g []Gene) {
	p.repairs++
	p.Problem.Repair(g)
}

func (p *counting) Fitness(g []Gene) float64 {
	p.calls = append(p.calls, evaluation{(p.repairs - p.s) / p.c, string(g)})
	return p.Problem.Fitness(g)
}

// TestEvaluatesEachNewGenomeOnce: a child that repeats a member of its
// population or an earlier child of its generation is not evaluated
// again, while Evals still counts it.
func TestEvaluatesEachNewGenomeOnce(t *testing.T) {
	cfg := DefaultConfig(23)
	cfg.MaxGenerations = 200
	cfg.MaxNoImprove = 0
	p := &counting{Problem: flat{oneMax{n: 4, alpha: 2}}, s: cfg.PopSize, c: cfg.Children}
	res, err := Run(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.calls) >= res.Evals {
		t.Fatalf("%d fitness calls for %d individuals generated", len(p.calls), res.Evals)
	}
	pop := map[string]bool{}
	seen := map[evaluation]bool{}
	for _, e := range p.calls {
		if e.gen == 0 {
			pop[e.genes] = true
			continue
		}
		if pop[e.genes] {
			t.Fatalf("generation %d evaluated a genome of its population", e.gen)
		}
		if seen[e] {
			t.Fatalf("generation %d evaluated one genome twice", e.gen)
		}
		seen[e] = true
	}

	one := &counting{Problem: oneMax{n: 30, alpha: 2}, s: cfg.PopSize, c: cfg.Children}
	if res, err = Run(DefaultConfig(23), one); err != nil {
		t.Fatal(err)
	}
	if len(one.calls) >= res.Evals {
		t.Fatalf("oneMax: %d fitness calls for %d individuals generated", len(one.calls), res.Evals)
	}
}

// TestGenerationsAllocateNothing: a run allocates its genomes up front,
// so 100 times more generations cost only History's regrowths.
func TestGenerationsAllocateNothing(t *testing.T) {
	allocs := func(gens int) float64 {
		cfg := DefaultConfig(19)
		cfg.MaxGenerations = gens
		cfg.MaxNoImprove = 0
		return testing.AllocsPerRun(1, func() {
			if _, err := Run(cfg, oneMax{n: 768, alpha: 3}); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(100), allocs(10000)
	if long > short+16 {
		t.Fatalf("%.0f allocations at 10000 generations, %.0f at 100", long, short)
	}
}

// BenchmarkGenerations times the engine alone: 200 generations at the
// paper's S, C and operator rates over 768 genes in {0, 1, 2}, K·L at
// K = 12 and L = 64, under oneMax, a fitness that costs one pass over
// the genes.
func BenchmarkGenerations(b *testing.B) {
	cfg := DefaultConfig(1)
	cfg.MaxGenerations, cfg.MaxNoImprove = 200, 0
	p := oneMax{n: 768, alpha: 3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, p); err != nil {
			b.Fatal(err)
		}
	}
}
