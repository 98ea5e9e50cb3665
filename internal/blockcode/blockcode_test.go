package blockcode

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitstream"
	"repro/internal/testset"
	"repro/internal/tritvec"
)

func mvset(t *testing.T, k int, mvs ...string) *MVSet {
	t.Helper()
	vs := make([]tritvec.Vector, len(mvs))
	for i, s := range mvs {
		vs[i] = tritvec.MustFromString(s)
	}
	set, err := NewMVSet(k, vs)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestPartitionPadding(t *testing.T) {
	ts, err := testset.ParseStrings("0110", "1XX0")
	if err != nil {
		t.Fatal(err)
	}
	blocks := Partition(ts, 3)
	want := []string{"011", "01X", "X0X"}
	if len(blocks) != len(want) {
		t.Fatalf("nblocks=%d", len(blocks))
	}
	for i, w := range want {
		if blocks[i].String() != w {
			t.Errorf("block %d = %q want %q", i, blocks[i], w)
		}
	}
	// Exact division: no padding.
	blocks = Partition(ts, 4)
	if len(blocks) != 2 || blocks[1].String() != "1XX0" {
		t.Fatalf("K=4 partition wrong: %v", blocks)
	}
}

func TestNewMVSetValidation(t *testing.T) {
	if _, err := NewMVSet(3, []tritvec.Vector{tritvec.New(4)}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestWithAllU(t *testing.T) {
	set := mvset(t, 3, "000", "111")
	out := set.WithAllU()
	if out.MVs[1].CountX() != 3 {
		t.Fatal("last MV not forced to all-U")
	}
	// Original untouched.
	if set.MVs[1].CountX() != 0 {
		t.Fatal("WithAllU mutated receiver")
	}
	// Already has all-U: unchanged.
	set2 := mvset(t, 3, "XXX", "111")
	out2 := set2.WithAllU()
	if out2.MVs[1].CountX() != 0 {
		t.Fatal("WithAllU should keep existing all-U set intact")
	}
	// Empty set gains one.
	set3 := &MVSet{K: 2}
	if got := set3.WithAllU(); len(got.MVs) != 1 || got.MVs[0].CountX() != 2 {
		t.Fatal("WithAllU on empty set")
	}
}

func TestCoverMinUOrder(t *testing.T) {
	// Block 111000 matches both 111000 (0 Us) and 111UUU (3 Us); min-U
	// covering must pick the exact vector.
	set := mvset(t, 6, "111UUU", "111000", "UUUUUU")
	blocks := []tritvec.Vector{
		tritvec.MustFromString("111000"),
		tritvec.MustFromString("111110"),
		tritvec.MustFromString("000000"),
	}
	cov := set.Cover(blocks)
	if !cov.OK() {
		t.Fatal("uncovered")
	}
	if cov.Assign[0] != 1 {
		t.Fatalf("block 0 assigned to %d, want exact MV 1", cov.Assign[0])
	}
	if cov.Assign[1] != 0 {
		t.Fatalf("block 1 assigned to %d, want 111UUU", cov.Assign[1])
	}
	if cov.Assign[2] != 2 {
		t.Fatalf("block 2 assigned to %d, want all-U", cov.Assign[2])
	}
	if cov.Freqs[0] != 1 || cov.Freqs[1] != 1 || cov.Freqs[2] != 1 {
		t.Fatalf("freqs=%v", cov.Freqs)
	}
}

func TestCoverUncovered(t *testing.T) {
	set := mvset(t, 2, "00")
	blocks := []tritvec.Vector{tritvec.MustFromString("11")}
	cov := set.Cover(blocks)
	if cov.OK() || cov.Uncovered != 1 || cov.Assign[0] != -1 {
		t.Fatalf("expected uncovered block: %+v", cov)
	}
}

func TestCoverByEncoding(t *testing.T) {
	// With fixed code lengths, a cheap long-U vector can beat an exact one.
	set := mvset(t, 4, "1111", "UUUU")
	// exact codeword costs 10 bits, all-U costs 1+4=5.
	lens := []int{10, 1}
	blocks := []tritvec.Vector{tritvec.MustFromString("1111")}
	cov := set.CoverByEncoding(blocks, lens)
	if cov.Assign[0] != 1 {
		t.Fatalf("CoverByEncoding picked %d", cov.Assign[0])
	}
}

func TestRate(t *testing.T) {
	if Rate(100, 40) != 60 {
		t.Fatal("rate 60 expected")
	}
	if Rate(100, 110) != -10 {
		t.Fatal("negative rate expected")
	}
	if Rate(0, 0) != 0 {
		t.Fatal("zero original")
	}
}

func TestEncodeDecodeVerify(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	ts := testset.Random(16, 40, 0.35, r)
	set := mvset(t, 8, "UUUUUUUU", "00000000", "11111111", "0000UUUU")
	res, err := CompressHuffman(ts, set)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stream == nil || res.Stream.Len() != res.CompressedBits {
		t.Fatal("stream size mismatch")
	}
	dec, err := Decode(bitstream.FromWriter(res.Stream), set, res.Code, ts.TotalBits())
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(ts.Flatten(), dec); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeAllocatesPerCall pins Decode's allocations to a constant
// per call: the output, the code table and the U positions, never
// anything per block. 1 Ki and 8 Ki blocks decode under one MV set and
// code with the same count.
func TestDecodeAllocatesPerCall(t *testing.T) {
	const k = 8
	ts := testset.Random(64, 1024, 0.35, rand.New(rand.NewSource(5))) // 8 Ki blocks
	set := mvset(t, k, "UUUUUUUU", "00000000", "11111111", "0000UUUU", "UU11UU00")
	res, err := CompressHuffman(ts, set)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(blocks int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := Decode(bitstream.FromWriter(res.Stream), set, res.Code, blocks*k); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(1<<10), allocs(8<<10); small != large {
		t.Fatalf("Decode allocates %v times for 1 Ki blocks, %v for 8 Ki: per-block allocation", small, large)
	}
}

func TestVerifyFailures(t *testing.T) {
	orig := tritvec.MustFromString("1X")
	if err := Verify(orig, tritvec.MustFromString("1")); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := Verify(orig, tritvec.MustFromString("1X")); err == nil {
		t.Fatal("non-fully-specified decode accepted")
	}
	if err := Verify(orig, tritvec.MustFromString("00")); err == nil {
		t.Fatal("incompatible decode accepted")
	}
	if err := Verify(orig, tritvec.MustFromString("10")); err != nil {
		t.Fatalf("valid decode rejected: %v", err)
	}
}

func TestBuildHuffmanUncoveredError(t *testing.T) {
	ts, _ := testset.ParseStrings("11")
	set := mvset(t, 2, "00")
	if _, err := set.BuildHuffman(Partition(ts, 2), ts.TotalBits()); err == nil {
		t.Fatal("expected uncovered error")
	}
}

func TestCompressedBitsAccounting(t *testing.T) {
	set := mvset(t, 4, "1111", "UUUU")
	cov := &Covering{Freqs: []int{3, 2}}
	lens := []int{1, 2}
	// 3*(1+0) + 2*(2+4) = 15
	if got := set.CompressedBits(cov, lens); got != 15 {
		t.Fatalf("CompressedBits=%d want 15", got)
	}
}

func TestDedup(t *testing.T) {
	blocks := []tritvec.Vector{
		tritvec.MustFromString("01X"),
		tritvec.MustFromString("01X"),
		tritvec.MustFromString("111"),
		tritvec.MustFromString("01X"),
	}
	ms := Dedup(blocks)
	if len(ms.Blocks) != 2 || ms.Total != 4 {
		t.Fatalf("dedup blocks=%d total=%d", len(ms.Blocks), ms.Total)
	}
	if ms.Counts[0] != 3 || ms.Counts[1] != 1 {
		t.Fatalf("counts=%v", ms.Counts)
	}
	// 0X1 and 0 X 1 with different care patterns must not collide.
	b2 := []tritvec.Vector{tritvec.MustFromString("0X"), tritvec.MustFromString("00")}
	if ms2 := Dedup(b2); len(ms2.Blocks) != 2 {
		t.Fatal("X and 0 collided in dedup key")
	}
}

func TestCoverMultisetMatchesCover(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	for iter := 0; iter < 30; iter++ {
		ts := testset.Random(12, 30, r.Float64()*0.8, r)
		blocks := Partition(ts, 6)
		set := &MVSet{K: 6}
		for i := 0; i < 5; i++ {
			set.MVs = append(set.MVs, tritvec.RandomTernary(6, r))
		}
		set.MVs = append(set.MVs, tritvec.New(6)) // all-U
		covA := set.Cover(blocks)
		covB := set.CoverMultiset(Dedup(blocks))
		for i := range covA.Freqs {
			if covA.Freqs[i] != covB.Freqs[i] {
				t.Fatalf("iter %d: freqs differ %v vs %v", iter, covA.Freqs, covB.Freqs)
			}
		}
		if covA.Uncovered != covB.Uncovered {
			t.Fatalf("uncovered differ")
		}
	}
}

func TestQuickLossless(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := r.Intn(10) + 2
		width := r.Intn(3*k) + 1 // a partial final block when k does not divide the bit count
		ts := testset.Random(width, r.Intn(30)+1, r.Float64(), r)
		// Random MV set + all-U.
		var mvs []tritvec.Vector
		for i := 0; i < r.Intn(6)+1; i++ {
			mvs = append(mvs, tritvec.RandomTernary(k, r))
		}
		mvs = append(mvs, tritvec.New(k))
		set, err := NewMVSet(k, mvs)
		if err != nil {
			return false
		}
		res, err := CompressHuffman(ts, set)
		if err != nil {
			return false
		}
		dec, err := Decode(bitstream.FromWriter(res.Stream), set, res.Code, ts.TotalBits())
		if err != nil {
			return false
		}
		return Verify(ts.Flatten(), dec) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for K<=0")
		}
	}()
	PartitionFlat(tritvec.New(4), 0)
}
