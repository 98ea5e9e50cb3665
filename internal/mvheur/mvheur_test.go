package mvheur

import (
	"math/rand"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/blockcode"
	"repro/internal/ninec"
	"repro/internal/testset"
	"repro/internal/tritvec"
)

func TestGeneralize(t *testing.T) {
	a := tritvec.MustFromString("110X01")
	b := tritvec.MustFromString("100101")
	g := generalize(a, b)
	if g.String() != "1X0X01" {
		t.Fatalf("generalize=%q", g.String())
	}
	if !g.Matches(a) || !g.Matches(b) {
		t.Fatal("generalization must match both parents")
	}
}

// multiset cuts a test set whose patterns are the given blocks.
func multiset(t *testing.T, k int, blocks ...string) *blockcode.BlockMultiset {
	t.Helper()
	ts, err := testset.ParseStrings(blocks...)
	if err != nil {
		t.Fatal(err)
	}
	return blockcode.Dedup(blockcode.Partition(ts, k))
}

func TestGreedyAlwaysCovers(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for iter := 0; iter < 20; iter++ {
		ts := testset.Random(16, 30, r.Float64(), r)
		ms := blockcode.Dedup(blockcode.Partition(ts, 8))
		set := Greedy(ms, 8, 8, DefaultOptions())
		if len(set.MVs) > 8 {
			t.Fatalf("L exceeded: %d", len(set.MVs))
		}
		cov := set.CoverMultiset(ms)
		if !cov.OK() {
			t.Fatal("greedy set with all-U backstop failed to cover")
		}
	}
}

func TestGreedyPicksFrequentBlocks(t *testing.T) {
	// A dominant repeated block must appear as an MV (or a generalization
	// of it).
	dom := tritvec.MustFromString("11001100")
	var blocks []string
	for i := 0; i < 50; i++ {
		blocks = append(blocks, dom.String())
	}
	blocks = append(blocks, "00110011")
	set := Greedy(multiset(t, 8, blocks...), 8, 4, DefaultOptions())
	found := false
	for _, mv := range set.MVs {
		if mv.Matches(dom) && mv.CountSpecified() >= 4 {
			found = true
		}
	}
	if !found {
		t.Fatal("dominant block not represented in greedy MV set")
	}
}

func TestMergeGeneralizes(t *testing.T) {
	// Blocks 110100 and 110000 (distance 1) should merge into 110U00,
	// the paper's introduction example of an efficient MV.
	var blocks []string
	for i := 0; i < 10; i++ {
		blocks = append(blocks, "110100", "110000")
	}
	// Noise so L is tight and merging pays off.
	blocks = append(blocks, "001111", "111111")
	set := Greedy(multiset(t, 6, blocks...), 6, 3, DefaultOptions())
	found := false
	for _, mv := range set.MVs {
		if mv.StringU() == "110U00" {
			found = true
		}
	}
	if !found {
		mvs := ""
		for _, mv := range set.MVs {
			mvs += mv.StringU() + " "
		}
		t.Fatalf("expected merged MV 110U00, got %s", mvs)
	}
}

func TestCompressRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	ts := testset.Random(16, 40, 0.3, r)
	res, err := Compress(ts, 8, 16, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	dec, err := blockcode.Decode(bitstream.FromWriter(res.Stream), res.Set, res.Code, ts.TotalBits())
	if err != nil {
		t.Fatal(err)
	}
	if err := blockcode.Verify(ts.Flatten(), dec); err != nil {
		t.Fatal(err)
	}
}

func TestHeuristicBeats9COnStructuredData(t *testing.T) {
	// The generalized formulation alone (no EA) should already beat 9C
	// on data with repeated almost-matching blocks.
	r := rand.New(rand.NewSource(3))
	ts := testset.New(16)
	base := tritvec.MustFromString("1101001101010011")
	for i := 0; i < 100; i++ {
		p := base.Clone()
		p.Set(5, tritvec.Trit(1+r.Intn(2)))
		ts.Add(p)
	}
	nine, err := ninec.Compress(ts, 8)
	if err != nil {
		t.Fatal(err)
	}
	rate, err := Rate(ts, 8, 16, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rate <= nine.RatePercent() {
		t.Fatalf("greedy %.1f%% did not beat 9C %.1f%% on structured data",
			rate, nine.RatePercent())
	}
}

func TestRateMatchesCompress(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	ts := testset.Random(12, 30, 0.4, r)
	res, err := Compress(ts, 6, 10, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rate, err := Rate(ts, 6, 10, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if diff := rate - res.RatePercent(); diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("Rate %.4f != Compress rate %.4f", rate, res.RatePercent())
	}
}

func TestZeroOptionDefaults(t *testing.T) {
	ms := blockcode.Dedup(blockcode.Partition(mustTS(t), 4))
	set := Greedy(ms, 4, 4, Options{}) // zero options normalized
	if len(set.MVs) == 0 {
		t.Fatal("empty MV set")
	}
}

func mustTS(t *testing.T) *testset.TestSet {
	t.Helper()
	ts, err := testset.ParseStrings("01011010", "01011010", "11110000")
	if err != nil {
		t.Fatal(err)
	}
	return ts
}
