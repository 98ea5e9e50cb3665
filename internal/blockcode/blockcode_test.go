package blockcode

import (
	"math"
	"math/rand"
	"slices"
	"sort"
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

// multiset cuts a test set whose patterns are the given blocks.
func multiset(t *testing.T, k int, blocks ...string) *BlockMultiset {
	t.Helper()
	return Dedup(Partition(mustSet(t, blocks...), k))
}

// mustSet parses a test set whose patterns are the given strings.
func mustSet(t *testing.T, patterns ...string) *testset.TestSet {
	t.Helper()
	ts, err := testset.ParseStrings(patterns...)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func TestPartitionPadding(t *testing.T) {
	ts, err := testset.ParseStrings("0110", "1XX0")
	if err != nil {
		t.Fatal(err)
	}
	blocks := Partition(ts, 3)
	want := []string{"011", "01X", "X0X"}
	if blocks.Len() != len(want) {
		t.Fatalf("nblocks=%d", blocks.Len())
	}
	for i, w := range want {
		if got := blocks.block(i).String(); got != w {
			t.Errorf("block %d = %q want %q", i, got, w)
		}
	}
	// Exact division: no padding.
	blocks = Partition(ts, 4)
	if blocks.Len() != 2 || blocks.block(1).String() != "1XX0" {
		t.Fatalf("K=4 partition wrong: %d blocks, last %s", blocks.Len(), blocks.block(1))
	}
}

func TestNewMVSetValidation(t *testing.T) {
	if _, err := NewMVSet(3, []tritvec.Vector{tritvec.New(4)}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestCoverMinUOrder(t *testing.T) {
	// Block 111000 matches both 111000 (0 Us) and 111UUU (3 Us); min-U
	// covering must pick the exact vector.
	set := mvset(t, 6, "111UUU", "111000", "UUUUUU")
	cov := set.CoverMultiset(multiset(t, 6, "111000", "111110", "000000"))
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
	cov := set.CoverMultiset(multiset(t, 2, "11"))
	if cov.OK() || cov.Uncovered != 1 || cov.Assign[0] != -1 {
		t.Fatalf("expected uncovered block: %+v", cov)
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
	res, err := CompressHuffman(Dedup(Partition(ts, 8)), set, ts.TotalBits())
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
	res, err := CompressHuffman(Dedup(Partition(ts, k)), set, ts.TotalBits())
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
	if _, err := set.BuildHuffman(Dedup(Partition(ts, 2)), ts.TotalBits()); err == nil {
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
	ms := multiset(t, 3, "01X", "01X", "111", "01X")
	if len(ms.Blocks) != 2 || ms.Total != 4 {
		t.Fatalf("dedup blocks=%d total=%d", len(ms.Blocks), ms.Total)
	}
	if ms.Counts[0] != 3 || ms.Counts[1] != 1 {
		t.Fatalf("counts=%v", ms.Counts)
	}
	if want := []int32{0, 0, 1, 0}; !slices.Equal(ms.Seq, want) {
		t.Fatalf("seq=%v want %v", ms.Seq, want)
	}
	// 0X and 00 with different care patterns must not collide.
	if ms2 := multiset(t, 2, "0X", "00"); len(ms2.Blocks) != 2 {
		t.Fatal("X and 0 collided in dedup key")
	}
	// The X-padded last block equals a full block of the same trits.
	ms3 := multiset(t, 2, "0X0X0")
	if len(ms3.Blocks) != 1 || ms3.Counts[0] != 3 || ms3.Blocks[0].String() != "0X" {
		t.Fatalf("padded block: %d distinct, counts %v", len(ms3.Blocks), ms3.Counts)
	}
	// Blocks that share a digest stay apart, and the second occurrence of
	// the first is found past the second in their chain: under a digest
	// that is always 0 every block is on one chain.
	ms4 := dedup(Partition(mustSet(t, "01", "00", "01", "00", "00"), 2), zeroDigest)
	if len(ms4.Blocks) != 2 || !slices.Equal(ms4.Counts, []int{2, 3}) || !slices.Equal(ms4.Seq, []int32{0, 1, 0, 1, 1}) {
		t.Fatalf("colliding blocks: %d distinct, counts %v, seq %v", len(ms4.Blocks), ms4.Counts, ms4.Seq)
	}
	if ms4.Blocks[0].String() != "01" || ms4.Blocks[1].String() != "00" {
		t.Fatalf("colliding blocks stored as %v", ms4.Blocks)
	}
}

// zeroDigest puts every block on one chain.
func zeroDigest(h, care, val uint64) uint64 { return 0 }

// TestDedupOneChainMatchesDedup holds Dedup to dedup with every block
// on one chain, which finds a block by comparing it with each distinct
// block: the same blocks, counts and sequence, for K within, at and
// beyond one word and for padded last blocks.
func TestDedupOneChainMatchesDedup(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	for iter := 0; iter < 40; iter++ {
		k := []int{1, 6, 13, 64, 70, 130}[iter%6]
		// Low densities repeat blocks, high ones make them distinct.
		ts := testset.Random(1+r.Intn(2*k), r.Intn(40), r.Float64()*0.5, r)
		got, want := Dedup(Partition(ts, k)), dedup(Partition(ts, k), zeroDigest)
		if !slices.EqualFunc(got.Blocks, want.Blocks, tritvec.Vector.Equal) ||
			!slices.Equal(got.Counts, want.Counts) || !slices.Equal(got.Seq, want.Seq) || got.Total != want.Total {
			t.Fatalf("iter %d K=%d: Dedup %v %v %v, one chain %v %v %v",
				iter, k, got.Blocks, got.Counts, got.Seq, want.Blocks, want.Counts, want.Seq)
		}
	}
}

// TestDedupKeyedDigest feeds Dedup blocks built offline to share one
// value of care·m ^ val, m = 0x9e3779b97f4a7c15: every 64-trit block
// with at most three X whose 1s are those of care·m. An unkeyed digest
// that mixes that value by a bijection puts them all on one chain, and
// a lookup then walks the chain. Under Dedup's keyed digest no two of
// them may share a digest, beyond the odds of a random 64-bit collision.
func TestDedupKeyedDigest(t *testing.T) {
	const m = 0x9e3779b97f4a7c15
	var family [][2]uint64
	seen := make(map[uint64]bool)
	// Position 64 stands for none: a shift by 64 is 0.
	for a := 0; a <= 64; a++ {
		for b := a; b <= 64; b++ {
			for c := b; c <= 64; c++ {
				care := ^(uint64(1)<<uint(a) | uint64(1)<<uint(b) | uint64(1)<<uint(c))
				if val := care * m; val&^care == 0 && !seen[care] {
					seen[care] = true
					family = append(family, [2]uint64{care, val})
				}
			}
		}
	}
	if len(family) < 4000 {
		t.Fatalf("only %d blocks in the family", len(family))
	}

	fold := keyed(rand.Uint64(), rand.Uint64())
	chains := make(map[uint64]int)
	longest := 0
	for _, w := range family {
		h := fold(0, w[0], w[1])
		chains[h]++
		longest = max(longest, chains[h])
	}
	if longest > 2 {
		t.Fatalf("%d of %d crafted blocks share one keyed digest", longest, len(family))
	}

	// Dedup keeps every crafted block apart, each seen twice.
	pats := make([]string, 0, 2*len(family))
	for _, w := range family {
		pats = append(pats, wordBlock(w[0], w[1]))
	}
	pats = append(pats, pats...)
	ms := Dedup(Partition(mustSet(t, pats...), 64))
	if len(ms.Blocks) != len(family) || ms.Total != 2*len(family) {
		t.Fatalf("%d distinct of %d blocks, want %d of %d", len(ms.Blocks), ms.Total, len(family), 2*len(family))
	}
	for d, b := range ms.Blocks {
		if ms.Counts[d] != 2 || b.String() != pats[d] {
			t.Fatalf("distinct block %d: %s seen %d times, want %s twice", d, b, ms.Counts[d], pats[d])
		}
	}
}

// wordBlock spells the 64 trits of a care and a value word.
func wordBlock(care, val uint64) string {
	b := make([]byte, 64)
	for j := range b {
		switch {
		case care>>uint(j)&1 == 0:
			b[j] = 'X'
		case val>>uint(j)&1 == 1:
			b[j] = '1'
		default:
			b[j] = '0'
		}
	}
	return string(b)
}

// refPartition cuts ts into one X-padded vector per block, the copy per
// block that the Blocks view replaced.
func refPartition(ts *testset.TestSet, k int) []tritvec.Vector {
	flat := ts.Flatten()
	var blocks []tritvec.Vector
	for lo := 0; lo < flat.Len(); lo += k {
		b := tritvec.New(k)
		b.CopyFrom(flat.Slice(lo, min(lo+k, flat.Len())), 0)
		blocks = append(blocks, b)
	}
	return blocks
}

// refCover covers every block of the sequence on its own, in min-U
// order: the reference CoverMultiset is held to.
func refCover(s *MVSet, blocks []tritvec.Vector) *Covering {
	order := make([]int, len(s.MVs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return s.MVs[order[a]].CountX() < s.MVs[order[b]].CountX()
	})
	cov := &Covering{Assign: make([]int, len(blocks)), Freqs: make([]int, len(s.MVs))}
	for b, blk := range blocks {
		cov.Assign[b] = -1
		for _, i := range order {
			if s.MVs[i].Matches(blk) {
				cov.Assign[b] = i
				cov.Freqs[i]++
				break
			}
		}
		if cov.Assign[b] == -1 {
			cov.Uncovered++
		}
	}
	return cov
}

// TestCoverMultisetMatchesCover holds the multiset cover to covering
// every block on its own, for K within, at and beyond one word and for
// padded last blocks: the same frequencies, the same uncovered count and
// the same MV for every block of the sequence.
func TestCoverMultisetMatchesCover(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	for iter := 0; iter < 60; iter++ {
		k := []int{1, 6, 13, 64, 70}[iter%5]
		ts := testset.Random(1+r.Intn(2*k), r.Intn(30), r.Float64()*0.8, r)
		set := &MVSet{K: k}
		for i := 0; i < 5; i++ {
			set.MVs = append(set.MVs, tritvec.RandomTernary(k, r))
		}
		if iter%3 != 0 {
			set.MVs = append(set.MVs, tritvec.New(k)) // all-U
		}
		blocks := refPartition(ts, k)
		ms := Dedup(Partition(ts, k))
		ref, cov := refCover(set, blocks), set.CoverMultiset(ms)
		if !slices.Equal(ref.Freqs, cov.Freqs) || ref.Uncovered != cov.Uncovered {
			t.Fatalf("iter %d: freqs %v uncovered %d, reference %v and %d",
				iter, cov.Freqs, cov.Uncovered, ref.Freqs, ref.Uncovered)
		}
		if ms.Total != len(blocks) || len(ms.Seq) != len(blocks) {
			t.Fatalf("iter %d: %d blocks in the multiset, %d cut", iter, ms.Total, len(blocks))
		}
		for b, d := range ms.Seq {
			if !ms.Blocks[d].Equal(blocks[b]) || cov.Assign[d] != ref.Assign[b] {
				t.Fatalf("iter %d block %d: %s to MV %d, reference %s to MV %d",
					iter, b, ms.Blocks[d], cov.Assign[d], blocks[b], ref.Assign[b])
			}
		}
	}
}

// refEncode is the per-bit writer Encode replaced: each occurrence's
// fill bits one Get and one WriteBit at a time.
func refEncode(ms *BlockMultiset, res *Result) []byte {
	w := bitstream.NewWriter()
	upos := res.Set.UPositions()
	for _, d := range ms.Seq {
		mv := res.Covering.Assign[d]
		w.WriteBits(res.Code.Words[mv], res.Code.Lengths[mv])
		for _, pos := range upos[mv] {
			if ms.Blocks[d].Get(pos) == tritvec.One {
				w.WriteBit(1)
			} else {
				w.WriteBit(0)
			}
		}
	}
	return w.Bytes()
}

// TestEncodeMatchesPerBitWriter holds Encode's word-at-a-time fill to
// the per-bit writer, byte for byte, for K within, at and beyond one
// word, so also for MVs with more than 64 U positions.
func TestEncodeMatchesPerBitWriter(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for _, k := range []int{1, 5, 8, 12, 63, 64, 65, 130} {
		for iter := 0; iter < 5; iter++ {
			ts := testset.Random(1+r.Intn(3*k), 1+r.Intn(30), r.Float64(), r)
			mvs := []tritvec.Vector{tritvec.New(k)}
			for i := 0; i < r.Intn(6); i++ {
				mvs = append(mvs, tritvec.RandomTernary(k, r))
			}
			set, err := NewMVSet(k, mvs)
			if err != nil {
				t.Fatal(err)
			}
			ms := Dedup(Partition(ts, k))
			res, err := CompressHuffman(ms, set, ts.TotalBits())
			if err != nil {
				t.Fatal(err)
			}
			if got, want := res.Stream.Bytes(), refEncode(ms, res); !slices.Equal(got, want) {
				t.Fatalf("K=%d iter %d: Encode wrote %x, per-bit writer %x", k, iter, got, want)
			}
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
		res, err := CompressHuffman(Dedup(Partition(ts, k)), set, ts.TotalBits())
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
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	ts, _ := testset.ParseStrings("0110")
	mustPanic("K=0", func() { Partition(ts, 0) })
	// A cut refuses more blocks than the 32-bit block index holds,
	// rather than wrap.
	mustPanic("2^31 blocks", func() { blockCount(math.MaxInt32+1, 1) })
	if n := blockCount(2*math.MaxInt32, 2); n != math.MaxInt32 {
		t.Fatalf("blockCount = %d, want %d", n, math.MaxInt32)
	}
}
