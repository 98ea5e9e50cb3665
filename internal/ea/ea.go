// Package ea implements the evolutionary algorithm of Figure 1 of the
// paper (the role played there by the GAME package): a population of S
// individuals, C children per generation produced by crossover, mutation
// and inversion, truncation selection of the best S out of S+C, and
// termination on a fitness-stagnation window or an evaluation budget.
//
// The engine is problem-agnostic: individuals are genomes over a small
// integer alphabet and fitness is supplied by the caller. A run is
// serial and allocates its genomes once: each generation writes its
// children into the buffers of the previous generation's losers and
// calls Fitness only for children whose genome is new to the generation.
// Independent runs execute in parallel one level up, as pipeline jobs
// (core.CompressCtx).
//
// Every random draw of a run comes from one source, which continues
// rand.NewSource(Config.Seed)'s stream value for value: rand.New over it
// serves the scalar draws, and uniform crossover reads one buffered
// output per gene in place of a call to rand.Intn(2).
package ea

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
)

// Gene is one genome symbol; the paper's alphabet is {0, 1, U}.
type Gene = uint8

// Problem defines the optimization instance.
type Problem interface {
	// GenomeLen returns the genome length (K·L in the paper).
	GenomeLen() int
	// Alphabet returns the number of gene values; genes take values
	// 0..Alphabet()-1.
	Alphabet() int
	// Fitness evaluates a genome; higher is better. It must be a function
	// of the genome alone: a child that repeats a member of its
	// population, or an earlier child of its generation, takes that
	// genome's fitness without a call. Runs sharing a Problem call it
	// concurrently.
	Fitness(genes []Gene) float64
	// Repair normalizes a genome in place after random init or an
	// operator application (e.g. re-pinning the all-U matching vector).
	// May be a no-op.
	Repair(genes []Gene)
}

// CrossoverKind selects the recombination style.
type CrossoverKind int

const (
	// UniformCrossover swaps each gene between the two children
	// independently with probability 1/2 ("genes of one parent in several
	// positions and the genes of the other parent in others").
	UniformCrossover CrossoverKind = iota
	// TwoPointCrossover exchanges the gene segment between two random cut
	// points.
	TwoPointCrossover
)

// Config holds the EA parameters. The zero value is not usable; call
// DefaultConfig for the paper's defaults.
type Config struct {
	PopSize   int     // S: population size
	Children  int     // C: children per generation
	PCross    float64 // probability a child pair is produced by crossover
	PMut      float64 // probability a child is produced by mutation
	PInv      float64 // probability a child is produced by inversion
	Crossover CrossoverKind

	// MaxNoImprove terminates after this many consecutive generations
	// without a best-fitness improvement (paper: 500 for Table 2).
	MaxNoImprove int
	// MaxGenerations is a hard cap on generations (0 = unlimited).
	MaxGenerations int
	// MaxEvals bounds the number of individuals generated (Result.Evals),
	// the paper's "limit on the number of generated legal solutions"
	// (0 = unlimited).
	MaxEvals int

	Seed int64
}

// DefaultConfig returns the parameters reported in Section 4: S=10, C=5,
// crossover 30%, mutation 30%, inversion 10%.
func DefaultConfig(seed int64) Config {
	return Config{
		PopSize:        10,
		Children:       5,
		PCross:         0.30,
		PMut:           0.30,
		PInv:           0.10,
		Crossover:      UniformCrossover,
		MaxNoImprove:   100,
		MaxGenerations: 5000,
		MaxEvals:       0,
		Seed:           seed,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.PopSize < 2 {
		return fmt.Errorf("ea: PopSize must be >= 2, got %d", c.PopSize)
	}
	if c.Children < 1 {
		return fmt.Errorf("ea: Children must be >= 1, got %d", c.Children)
	}
	for _, p := range []float64{c.PCross, c.PMut, c.PInv} {
		if p < 0 || p > 1 {
			return fmt.Errorf("ea: operator probability out of [0,1]")
		}
	}
	if c.PCross+c.PMut+c.PInv <= 0 {
		return fmt.Errorf("ea: all operator probabilities are zero")
	}
	if c.MaxNoImprove <= 0 && c.MaxGenerations <= 0 && c.MaxEvals <= 0 {
		return fmt.Errorf("ea: no termination condition configured")
	}
	return nil
}

// Individual pairs a genome with its fitness.
type Individual struct {
	Genes   []Gene
	Fitness float64
}

// GenStats records one generation for convergence analysis (the data behind
// Figure 1's loop).
type GenStats struct {
	Generation int
	Best       float64
	Mean       float64
	Evals      int // cumulative individuals generated (see Result.Evals)
}

// Result is the outcome of a run.
type Result struct {
	Best        Individual
	Generations int
	// Evals counts the individuals generated: the initial population
	// and every child, also those whose fitness was not recomputed.
	Evals   int
	History []GenStats
}

// Run executes the EA on problem with config cfg. Deterministic given
// cfg.Seed.
func Run(cfg Config, problem Problem, seedIndividuals ...[]Gene) (*Result, error) {
	return RunCtx(context.Background(), cfg, problem, seedIndividuals...)
}

// RunCtx is Run with cancellation: when ctx is cancelled the EA stops at
// the next generation boundary and returns ctx's error alongside the
// best-so-far result (nil if the initial population was not evaluated).
func RunCtx(ctx context.Context, cfg Config, problem Problem, seedIndividuals ...[]Gene) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := problem.GenomeLen()
	alpha := problem.Alphabet()
	if n <= 0 || alpha < 2 {
		return nil, fmt.Errorf("ea: degenerate problem (len=%d alphabet=%d)", n, alpha)
	}
	for _, s := range seedIndividuals {
		if len(s) != n {
			return nil, fmt.Errorf("ea: seed individual has length %d, want %d", len(s), n)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	src := newSource(cfg.Seed)
	rng := rand.New(src)

	// One allocation holds every genome of the run: S+C working
	// individuals, a spare for the second child of a crossover that
	// would overflow C, and Best. all[:S] is the population, sorted;
	// all[S:] are this generation's children, written over the buffers
	// of the previous generation's losers.
	s, c := cfg.PopSize, cfg.Children
	arena := make([]Gene, (s+c+2)*n)
	genome := func(i int) []Gene { return arena[i*n : (i+1)*n : (i+1)*n] }
	all := make([]Individual, s+c)
	for i := range all {
		all[i].Genes = genome(i)
	}
	spare := genome(s + c)
	pop, kids := all[:s], all[s:]

	for i := range pop {
		g := pop[i].Genes
		if i < len(seedIndividuals) {
			copy(g, seedIndividuals[i])
		} else {
			for j := range g {
				g[j] = Gene(rng.Intn(alpha))
			}
		}
		problem.Repair(g)
	}
	for i := range pop {
		pop[i].Fitness = problem.Fitness(pop[i].Genes)
	}
	evals := s
	sortPop(pop)

	res := &Result{Best: Individual{Genes: genome(s + c + 1), Fitness: pop[0].Fitness}}
	copy(res.Best.Genes, pop[0].Genes)
	res.History = append(res.History, stats(0, pop, evals))

	noImprove := 0
	gen := 0
	for {
		if err := ctx.Err(); err != nil {
			res.Generations = gen
			res.Evals = evals
			return res, err
		}
		if cfg.MaxGenerations > 0 && gen >= cfg.MaxGenerations {
			break
		}
		if cfg.MaxEvals > 0 && evals >= cfg.MaxEvals {
			break
		}
		gen++

		for i := 0; i < c; {
			switch pickOperator(rng, cfg) {
			case opCross:
				a := pop[rng.Intn(s)].Genes
				b := pop[rng.Intn(s)].Genes
				c2 := spare
				if i+1 < c {
					c2 = kids[i+1].Genes
				}
				crossover(rng, src, cfg.Crossover, kids[i].Genes, c2, a, b)
				problem.Repair(kids[i].Genes)
				if i+1 < c {
					problem.Repair(c2)
				}
				i += 2
			case opMut:
				mutate(rng, kids[i].Genes, pop[rng.Intn(s)].Genes, alpha)
				problem.Repair(kids[i].Genes)
				i++
			case opInv:
				invert(rng, kids[i].Genes, pop[rng.Intn(s)].Genes)
				problem.Repair(kids[i].Genes)
				i++
			}
		}
		for i := s; i < len(all); i++ {
			all[i].Fitness = fitness(problem, all[i].Genes, all[:i])
		}
		evals += c

		sortPop(all)
		if pop[0].Fitness > res.Best.Fitness {
			copy(res.Best.Genes, pop[0].Genes)
			res.Best.Fitness = pop[0].Fitness
			noImprove = 0
		} else {
			noImprove++
		}
		res.History = append(res.History, stats(gen, pop, evals))

		if cfg.MaxNoImprove > 0 && noImprove >= cfg.MaxNoImprove {
			break
		}
	}

	res.Generations = gen
	res.Evals = evals
	return res, nil
}

// fitness returns the fitness of genes, taken from the first of known
// with the same genome, so a generation evaluates each new genome once.
func fitness(problem Problem, genes []Gene, known []Individual) float64 {
	for _, k := range known {
		if bytes.Equal(k.Genes, genes) {
			return k.Fitness
		}
	}
	return problem.Fitness(genes)
}

type operator int

const (
	opCross operator = iota
	opMut
	opInv
)

func pickOperator(rng *rand.Rand, cfg Config) operator {
	total := cfg.PCross + cfg.PMut + cfg.PInv
	x := rng.Float64() * total
	if x < cfg.PCross {
		return opCross
	}
	if x < cfg.PCross+cfg.PMut {
		return opMut
	}
	return opInv
}

// crossover writes the children of parents a and b into c1 and c2,
// which must not overlap a or b. rng must draw from src.
func crossover(rng *rand.Rand, src *source, kind CrossoverKind, c1, c2, a, b []Gene) {
	switch kind {
	case TwoPointCrossover:
		copy(c1, a)
		copy(c2, b)
		i, j := rng.Intn(len(a)), rng.Intn(len(a))
		if i > j {
			i, j = j, i
		}
		copy(c1[i:j+1], b[i:j+1])
		copy(c2[i:j+1], a[i:j+1])
	default: // UniformCrossover
		for len(a) > 0 {
			draws := src.take(len(a))
			n := len(draws)
			x, y, z1, z2 := a[:n], b[:n], c1[:n], c2[:n]
			for k, r := range draws {
				// Bit 32 of a draw is the value rng.Intn(2) returns
				// from it; 0 swaps the gene between the children.
				swap := Gene(r>>32&1) - 1
				d := (x[k] ^ y[k]) & swap
				z1[k] = x[k] ^ d
				z2[k] = y[k] ^ d
			}
			a, b, c1, c2 = a[n:], b[n:], c1[n:], c2[n:]
		}
	}
}

// mutate writes parent into child with one randomly selected gene
// replaced by a random value (the paper's mutation operator).
func mutate(rng *rand.Rand, child, parent []Gene, alphabet int) {
	copy(child, parent)
	i := rng.Intn(len(child))
	child[i] = Gene(rng.Intn(alphabet))
}

// invert writes parent into child with the gene order reversed between
// two random positions (the paper's inversion operator).
func invert(rng *rand.Rand, child, parent []Gene) {
	copy(child, parent)
	i, j := rng.Intn(len(child)), rng.Intn(len(child))
	if i > j {
		i, j = j, i
	}
	slices.Reverse(child[i : j+1])
}

// sortPop orders by descending fitness, stable so earlier individuals win
// ties (deterministic runs).
func sortPop(pop []Individual) {
	slices.SortStableFunc(pop, func(a, b Individual) int { return cmp.Compare(b.Fitness, a.Fitness) })
}

func stats(gen int, pop []Individual, evals int) GenStats {
	sum := 0.0
	for _, ind := range pop {
		sum += ind.Fitness
	}
	return GenStats{Generation: gen, Best: pop[0].Fitness, Mean: sum / float64(len(pop)), Evals: evals}
}
