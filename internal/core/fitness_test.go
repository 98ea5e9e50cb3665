package core

import (
	"math/rand"
	"testing"

	"repro/internal/blockcode"
	"repro/internal/ea"
	"repro/internal/huffman"
	"repro/internal/iscasgen"
	"repro/internal/testset"
)

// fitnessReference is the fitness path the sizer replaced: decode the
// MVs, cover the unique blocks in min-U order, build the Huffman code
// and account the size.
func fitnessReference(ms *blockcode.BlockMultiset, genes []ea.Gene, k, l, origBits int) float64 {
	set := &blockcode.MVSet{K: k, MVs: GenesToMVs(genes, k, l)}
	cov := set.CoverMultiset(ms)
	if !cov.OK() {
		return invalidFitness
	}
	code, err := huffman.Build(cov.Freqs)
	if err != nil {
		return invalidFitness
	}
	return blockcode.Rate(origBits, set.CompressedBits(cov, code.Lengths))
}

// TestFitnessMatchesReference requires bit-identical fitness values on
// a Table 1 set and random sets, for random genomes and for their
// mutants, with and without the pinned all-U MV.
func TestFitnessMatchesReference(t *testing.T) {
	m, err := iscasgen.Find("s420", iscasgen.StuckAt)
	if err != nil {
		t.Fatal(err)
	}
	s420, err := iscasgen.Generate(m, iscasgen.GenOptions{Seed: 1, MaxBits: 20000})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	sets := []*testset.TestSet{s420, testset.Random(40, 60, 0.2, r), testset.Random(33, 30, 0.7, r)}
	for _, ts := range sets {
		for _, kl := range [][2]int{{12, 64}, {8, 9}, {5, 70}} {
			k, l := kl[0], kl[1]
			ms := blockcode.Dedup(blockcode.Partition(ts, k))
			for _, pin := range []bool{true, false} {
				prob := newProblem(ms, k, l, ts.TotalBits(), pin)
				genes := make([]ea.Gene, k*l)
				for iter := 0; iter < 40; iter++ {
					if iter%8 == 0 {
						for i := range genes {
							genes[i] = ea.Gene(r.Intn(3))
						}
					} else {
						genes[r.Intn(len(genes))] = ea.Gene(r.Intn(3))
					}
					prob.Repair(genes)
					want := fitnessReference(ms, genes, k, l, ts.TotalBits())
					if got := prob.Fitness(genes); got != want {
						t.Fatalf("K=%d L=%d pin=%v: fitness %v, reference %v", k, l, pin, got, want)
					}
				}
			}
		}
	}
}

func TestFitnessAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	r := rand.New(rand.NewSource(7))
	ts := testset.Random(64, 200, 0.3, r)
	prob := newProblem(blockcode.Dedup(blockcode.Partition(ts, 12)), 12, 64, ts.TotalBits(), true)
	genes := MVsToGenes(RandomMVSet(12, 64, 0.5, r).MVs, 12)
	prob.Fitness(genes) // warm-up
	if n := testing.AllocsPerRun(100, func() { prob.Fitness(genes) }); n != 0 {
		t.Fatalf("Fitness allocates %.1f times per call", n)
	}
}
