package core

import (
	"math/rand"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/blockcode"
	"repro/internal/ea"
	"repro/internal/ninec"
	"repro/internal/testset"
	"repro/internal/tritvec"
)

// quickParams returns small-but-real EA parameters for tests.
func quickParams(seed int64) Params {
	p := DefaultParams(seed)
	p.K = 8
	p.L = 16
	p.Runs = 2
	p.EA.MaxGenerations = 60
	p.EA.MaxNoImprove = 30
	return p
}

func TestValidate(t *testing.T) {
	if err := DefaultParams(1).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Params){
		func(p *Params) { p.K = 0 },
		func(p *Params) { p.L = 0 },
		func(p *Params) { p.Runs = 0 },
		func(p *Params) { p.K = 7; p.SeedNineC = true },
		func(p *Params) { p.EA.PopSize = 0 },
	}
	for i, mod := range bad {
		p := DefaultParams(1)
		mod(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestGenesMVsRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	k, l := 6, 4
	mvs := make([]tritvec.Vector, l)
	for i := range mvs {
		mvs[i] = tritvec.RandomTernary(k, r)
	}
	genes := MVsToGenes(mvs, k)
	back := GenesToMVs(genes, k, l)
	for i := range mvs {
		if !mvs[i].Equal(back[i]) {
			t.Fatalf("MV %d: %s != %s", i, mvs[i], back[i])
		}
	}
}

func TestCompressRoundTripAndVerify(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	ts := testset.Random(16, 60, 0.3, r)
	res, err := Compress(ts, quickParams(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Final == nil || res.Final.Stream == nil {
		t.Fatal("no final stream")
	}
	dec, err := blockcode.Decode(bitstream.FromWriter(res.Final.Stream), res.Final.Set, res.Final.Code, ts.TotalBits())
	if err != nil {
		t.Fatal(err)
	}
	if err := blockcode.Verify(ts.Flatten(), dec); err != nil {
		t.Fatal(err)
	}
	if res.BestRate < res.AverageRate-1e-9 {
		t.Fatalf("best %.2f < average %.2f", res.BestRate, res.AverageRate)
	}
	if len(res.Runs) != 2 {
		t.Fatalf("runs=%d", len(res.Runs))
	}
}

func TestCompressBeats9COnStructuredInput(t *testing.T) {
	// Structured test set with "almost matching" blocks — the paper's
	// motivating case where EA-found MVs with arbitrary U positions beat
	// the fixed 9C set.
	r := rand.New(rand.NewSource(23))
	ts := testset.New(16)
	base := tritvec.MustFromString("1101001101010011")
	for i := 0; i < 150; i++ {
		p := base.Clone()
		// perturb one or two fixed positions
		p.Set(3, tritvec.Trit(1+r.Intn(2)))
		p.Set(11, tritvec.Trit(1+r.Intn(2)))
		ts.Add(p)
	}
	nine, err := ninec.Compress(ts, 8)
	if err != nil {
		t.Fatal(err)
	}
	p := quickParams(3)
	res, err := Compress(ts, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestRate <= nine.RatePercent() {
		t.Fatalf("EA (%.2f%%) did not beat 9C (%.2f%%) on structured input",
			res.BestRate, nine.RatePercent())
	}
}

func TestForceAllUNeverFails(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	ts := testset.Random(24, 20, 0.9, r) // dense: hard to cover
	p := quickParams(5)
	p.EA.MaxGenerations = 10
	p.EA.MaxNoImprove = 10
	res, err := Compress(ts, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.Covering.Uncovered != 0 {
		t.Fatal("uncovered blocks despite ForceAllU")
	}
}

func TestNoForceAllUCanFail(t *testing.T) {
	// Without the all-U MV and with a tiny random population, some runs
	// may find no covering set; Compress must still either succeed or
	// return a clean error, not panic.
	r := rand.New(rand.NewSource(31))
	ts := testset.Random(24, 20, 0.95, r)
	p := quickParams(7)
	p.ForceAllU = false
	p.EA.MaxGenerations = 2
	p.EA.MaxNoImprove = 2
	p.Runs = 1
	_, err := Compress(ts, p)
	_ = err // either outcome is acceptable; this is a no-panic test
}

func TestSeedNineCAtLeastAsGoodAs9CHC(t *testing.T) {
	// With the 9C MV set injected into the initial population, elitism
	// guarantees the EA result is at least as good as 9C+HC covering
	// with the same MVs under min-U order.
	r := rand.New(rand.NewSource(37))
	ts := testset.Random(16, 80, 0.25, r)
	hc, err := ninec.CompressHC(ts, 8)
	if err != nil {
		t.Fatal(err)
	}
	p := quickParams(11)
	p.K = 8
	p.L = 9
	p.SeedNineC = true
	p.Runs = 1
	res, err := Compress(ts, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestRate < hc.RatePercent()-1e-9 {
		t.Fatalf("seeded EA (%.2f%%) below 9C+HC (%.2f%%)", res.BestRate, hc.RatePercent())
	}
}

func TestSubsumeOptNotWorse(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	ts := testset.Random(16, 60, 0.3, r)
	p := quickParams(13)
	p.Runs = 1
	plain, err := Compress(ts, p)
	if err != nil {
		t.Fatal(err)
	}
	p.SubsumeOpt = true
	opt, err := Compress(ts, p)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Final.CompressedBits > plain.Final.CompressedBits {
		t.Fatalf("subsume opt worsened size: %d > %d",
			opt.Final.CompressedBits, plain.Final.CompressedBits)
	}
}

func TestSweep(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	ts := testset.Random(12, 40, 0.3, r)
	base := quickParams(17)
	base.Runs = 1
	base.EA.MaxGenerations = 20
	base.EA.MaxNoImprove = 10
	points, best, err := Sweep(ts, base, []int{4, 6}, []int{8, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("points=%d", len(points))
	}
	for _, pt := range points {
		if pt.Rate > best.Rate {
			t.Fatal("best not maximal")
		}
	}
}

func TestRandomMVSetCoversEverything(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	set := RandomMVSet(8, 10, 0.5, r)
	ts := testset.Random(16, 30, 0.5, r)
	cov := set.CoverMultiset(blockcode.Dedup(blockcode.Partition(ts, 8)))
	if !cov.OK() {
		t.Fatal("RandomMVSet must include all-U and cover everything")
	}
}

func TestFitnessInvalidWithoutCover(t *testing.T) {
	ts, _ := testset.ParseStrings("1111")
	blocks := blockcode.Partition(ts, 4)
	prob := newProblem(blockcode.Dedup(blocks), 4, 1, 4, false)
	genes := []ea.Gene{1, 1, 1, 1} // MV = 0000, cannot cover 1111
	if f := prob.Fitness(genes); f != invalidFitness {
		t.Fatalf("fitness=%f want invalid", f)
	}
	genes = []ea.Gene{0, 0, 0, 0} // all-U covers
	if f := prob.Fitness(genes); f <= invalidFitness {
		t.Fatal("valid genome scored invalid")
	}
}

// TestCompressAllocationsDoNotGrowWithBlocks compresses a set and then
// the same patterns repeated 8 times. Its bit count is a multiple of
// both block lengths, so both sets cut into the same distinct blocks:
// 9C, 9C+HC and a 20-generation EA may allocate only a few times more
// on the larger set (the output stream's regrowth), never once per
// block.
func TestCompressAllocationsDoNotGrowWithBlocks(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	ts := testset.Random(48, 128, 0.3, rand.New(rand.NewSource(5)))
	ts8 := testset.New(ts.Width)
	for i := 0; i < 8; i++ {
		for _, p := range ts.Patterns {
			ts8.Add(p)
		}
	}
	p := DefaultParams(1)
	p.EA.MaxGenerations = 20
	p.Workers = 1 // parallel runs may each clone a sizer from the pool
	for _, c := range []struct {
		name     string
		compress func(*testset.TestSet) error
	}{
		{"9c", func(ts *testset.TestSet) error { _, err := ninec.Compress(ts, 8); return err }},
		{"9chc", func(ts *testset.TestSet) error { _, err := ninec.CompressHC(ts, 8); return err }},
		{"ea", func(ts *testset.TestSet) error { _, err := Compress(ts, p); return err }},
	} {
		allocs := func(ts *testset.TestSet) float64 {
			return testing.AllocsPerRun(5, func() {
				if err := c.compress(ts); err != nil {
					t.Fatal(err)
				}
			})
		}
		if small, large := allocs(ts), allocs(ts8); large > small+16 {
			t.Errorf("%s allocates %v times on %d patterns and %v on %d: it allocates per block",
				c.name, small, ts.NumPatterns(), large, ts8.NumPatterns())
		}
	}
}
