package ninec

import (
	"math/rand"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/blockcode"
	"repro/internal/testset"
	"repro/internal/tritvec"
)

func TestMVsK6(t *testing.T) {
	set, err := MVs(6)
	if err != nil {
		t.Fatal(err)
	}
	// Exactly the nine vectors from the paper's introduction, in order.
	want := []string{
		"000000", "111111", "000111", "111000",
		"111UUU", "UUU111", "000UUU", "UUU000", "UUUUUU",
	}
	if len(set.MVs) != 9 {
		t.Fatalf("len=%d", len(set.MVs))
	}
	for i, w := range want {
		if got := set.MVs[i].StringU(); got != w {
			t.Errorf("v(%d) = %s want %s", i+1, got, w)
		}
	}
}

func TestMVsRejectsOddK(t *testing.T) {
	for _, k := range []int{0, -2, 3, 7} {
		if _, err := MVs(k); err == nil {
			t.Errorf("K=%d accepted", k)
		}
	}
}

func TestFixedCodePrefixFree(t *testing.T) {
	c := FixedCode()
	if !c.IsPrefixFree() {
		t.Fatal("fixed 9C code must be prefix free")
	}
	wantWords := []string{"0", "10", "11000", "11001", "11010", "11011", "11100", "11101", "1111"}
	for i, w := range wantWords {
		if got := c.WordString(i); got != w {
			t.Errorf("C(v%d) = %q want %q", i+1, got, w)
		}
	}
}

func TestPaperIntroductionEncodings(t *testing.T) {
	// From the paper: with K=6, input block 111100 is coded C(v5)100 and
	// 111011 as C(v5)011; 111000 can be coded C(v4) (shortest).
	set, _ := MVs(6)
	code := FixedCode()
	ts, err := testset.ParseStrings("111100", "111011", "111000")
	if err != nil {
		t.Fatal(err)
	}
	cov := set.CoverMultiset(blockcode.Dedup(blockcode.Partition(ts, 6)))
	if cov.Assign[0] != 4 { // v5 = 111UUU
		t.Errorf("111100 covered by v%d, want v5", cov.Assign[0]+1)
	}
	if cov.Assign[1] != 4 {
		t.Errorf("111011 covered by v%d, want v5", cov.Assign[1]+1)
	}
	if cov.Assign[2] != 3 { // v4 = 111000, 5-bit codeword, no fills
		t.Errorf("111000 covered by v%d, want v4", cov.Assign[2]+1)
	}
	// Encoding lengths: C(v5)+3 fills = 8 bits; C(v4) = 5 bits.
	if got := code.Lengths[4] + set.MVs[4].CountX(); got != 8 {
		t.Errorf("C(ib,v5) length=%d want 8", got)
	}
	if got := code.Lengths[3] + set.MVs[3].CountX(); got != 5 {
		t.Errorf("C(ib,v4) length=%d want 5", got)
	}
}

func TestCompressRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	ts := testset.Random(16, 50, 0.25, r)
	res, err := Compress(ts, 8)
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

func TestCompressHCAtLeastAsGoodOnAverageInputs(t *testing.T) {
	// Huffman codewords adapt to frequencies; with a strongly skewed
	// block distribution 9C+HC must beat plain 9C (matching the paper's
	// uniform improvement from column 9C to 9C+HC).
	r := rand.New(rand.NewSource(10))
	ts := testset.New(16)
	for i := 0; i < 200; i++ {
		// Mostly all-zero patterns, occasionally random.
		p := tritvec.New(16)
		if r.Intn(10) == 0 {
			p.FillRandom(r)
		} else {
			p = tritvec.MustFromString("0000000000000000")
		}
		ts.Add(p)
	}
	plain, err := Compress(ts, 8)
	if err != nil {
		t.Fatal(err)
	}
	hc, err := CompressHC(ts, 8)
	if err != nil {
		t.Fatal(err)
	}
	if hc.RatePercent() < plain.RatePercent()-1e-9 {
		t.Fatalf("9C+HC (%.2f%%) worse than 9C (%.2f%%) on skewed input",
			hc.RatePercent(), plain.RatePercent())
	}
}

func TestCompressAllXInput(t *testing.T) {
	// An all-X test set is maximally compressible: every block matches
	// v1 (all zeros fill) — rate must be strongly positive.
	ts := testset.New(8)
	for i := 0; i < 10; i++ {
		ts.Add(tritvec.New(8))
	}
	res, err := Compress(ts, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.RatePercent() < 80 {
		t.Fatalf("all-X rate = %.1f%%, expected ~87.5%%", res.RatePercent())
	}
}

func TestCompressRejectsOddK(t *testing.T) {
	ts, _ := testset.ParseStrings("010101")
	if _, err := Compress(ts, 3); err == nil {
		t.Fatal("odd K accepted")
	}
	if _, err := CompressHC(ts, 3); err == nil {
		t.Fatal("odd K accepted by HC")
	}
}
