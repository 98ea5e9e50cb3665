package blockcode_test

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/blockcode"
	"repro/internal/core"
	"repro/internal/testset"
	"repro/internal/tritvec"
)

// sizeReference is the path the sizer replaces: decode the genome into
// MVs, cover the blocks in min-U order, build the Huffman code and
// account the size.
func sizeReference(ms *blockcode.BlockMultiset, genes []uint8, k, l int) (int, bool) {
	set := &blockcode.MVSet{K: k, MVs: core.GenesToMVs(genes, k, l)}
	res, err := set.BuildHuffman(ms, 0)
	if err != nil {
		return 0, false
	}
	return res.CompressedBits, true
}

// sizerCase derives blocks and a genome from fuzz arguments. The blocks
// come from a random test set (0 to 40 patterns, so also none); the
// genome repeats genome's bytes, raw (the sizer takes them mod 3), or is
// random when genome is empty. pin sets the last MV to all-U.
func sizerCase(k, l int, pin bool, density uint8, seed int64, genome []byte) (*blockcode.BlockMultiset, []uint8) {
	r := rand.New(rand.NewSource(seed))
	ts := testset.Random(1+r.Intn(3*k), r.Intn(41), float64(density%101)/100, r)
	genes := make([]uint8, k*l)
	for i := range genes {
		if len(genome) > 0 {
			genes[i] = genome[i%len(genome)]
		} else {
			genes[i] = uint8(r.Intn(3))
		}
	}
	if pin {
		clear(genes[(l-1)*k:])
	}
	return blockcode.Dedup(blockcode.Partition(ts, k)), genes
}

func checkSizer(t *testing.T, k, l int, pin bool, density uint8, seed int64, genome []byte) {
	t.Helper()
	ms, genes := sizerCase(k, l, pin, density, seed, genome)
	want, wantOK := sizeReference(ms, genes, k, l)
	s := blockcode.NewSizer(ms, k, l)
	for pass := 0; pass < 2; pass++ { // the second pass reuses the scratch
		got, ok := s.Size(genes)
		if got != want || ok != wantOK {
			t.Fatalf("K=%d L=%d pin=%v density=%d seed=%d: sizer %d, %v; reference %d, %v",
				k, l, pin, density, seed, got, ok, want, wantOK)
		}
	}
}

// laneCase is a sizer case for the sizer's byte-lane reads of the
// genome, eight genes to a word.
type laneCase struct {
	k, l    int
	pin     bool
	density uint8
	seed    int64
	genome  []byte // nil: random genes
}

// laneCases cover K·L not a multiple of 8, MVs whose last word holds
// fewer than eight of their genes next to an MV of raw gene bytes of 3
// or more, and such bytes in the genome's last word, where fewer than
// eight genes are left. Their genomes are mostly U, so that the blocks
// are covered and the sizes compared.
func laneCases() []laneCase {
	r := rand.New(rand.NewSource(79))
	// mvs returns l MVs of length k, each gene U with probability
	// 4/5. Each MV i with raw(i) has a multiple of 3 added to every
	// gene, raw bytes from 3 to 254 that are the same trits mod 3.
	mvs := func(k, l int, raw func(i int) bool) []byte {
		g := make([]byte, k*l)
		for i := range g {
			if r.Intn(5) == 0 {
				g[i] = byte(1 + r.Intn(2))
			}
			if raw(i / k) {
				g[i] += byte(3 * (1 + r.Intn(84)))
			}
		}
		return g
	}
	odd := func(i int) bool { return i%2 == 1 }
	return []laneCase{
		{7, 9, true, 30, 1, nil},
		{9, 7, true, 30, 6, nil},
		{12, 64, false, 10, 9, mvs(12, 64, odd)},
		{9, 7, false, 10, 6, mvs(9, 7, odd)},
		{7, 9, false, 10, 7, mvs(7, 9, odd)},
		{7, 9, false, 10, 9, mvs(7, 9, func(i int) bool { return i == 8 })},
		{9, 7, false, 10, 4, mvs(9, 7, func(i int) bool { return i == 6 })},
	}
}

// FuzzSizer compares the sizer with the reference path. Its seeds cover
// K and L below, at and above one 64-bit word, K around the sizer's
// groups of four positions, all-X and fully specified sets, genomes
// with and without the pinned all-U MV, genomes that leave blocks
// uncovered, and laneCases.
func FuzzSizer(f *testing.F) {
	seed := int64(0)
	for _, k := range []uint8{1, 12, 63, 64, 65, 130} {
		for _, l := range []uint8{1, 63, 64, 65, 128} {
			seed++
			f.Add(k, l, true, uint8(30), seed, []byte(nil))
			f.Add(k, l, false, uint8(10), seed, []byte(nil))
		}
	}
	// All MVs all-0: every block holding a 1 is uncovered.
	f.Add(uint8(12), uint8(64), false, uint8(80), int64(1), []byte{1})
	// The same, rescued by the pinned all-U MV.
	f.Add(uint8(12), uint8(64), true, uint8(80), int64(1), []byte{1})
	// All-U everywhere: every MV ties on U count.
	f.Add(uint8(8), uint8(9), false, uint8(50), int64(2), []byte{0})
	// Raw gene bytes outside {0,1,2}.
	f.Add(uint8(5), uint8(7), false, uint8(40), int64(3), []byte{255, 7, 3, 128, 5})
	// K just under, at and over one and two groups of four positions,
	// each at L = 9 (at K = 8 the 9C shape) and at one full word.
	for _, k := range []uint8{3, 4, 5, 8, 9} {
		for _, l := range []uint8{9, 64} {
			seed++
			f.Add(k, l, true, uint8(40), seed, []byte(nil))
		}
	}
	// An all-X set, and a fully specified one.
	f.Add(uint8(12), uint8(64), true, uint8(0), int64(4), []byte(nil))
	f.Add(uint8(12), uint8(64), true, uint8(100), int64(5), []byte(nil))
	for _, c := range laneCases() {
		f.Add(uint8(c.k), uint8(c.l), c.pin, c.density, c.seed, c.genome)
	}
	f.Fuzz(func(t *testing.T, k, l uint8, pin bool, density uint8, seed int64, genome []byte) {
		kk, ll := int(k), int(l)
		if kk == 0 || kk > 130 {
			kk = 1 + kk%130
		}
		if ll == 0 || ll > 128 {
			ll = 1 + ll%128
		}
		checkSizer(t, kk, ll, pin, density, seed, genome)
	})
}

// TestSizerMatchesReference runs the fuzz comparison on random shapes
// and on laneCases.
func TestSizerMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for i := 0; i < 300; i++ {
		checkSizer(t, 1+r.Intn(70), 1+r.Intn(70), r.Intn(4) != 0, uint8(r.Intn(101)), r.Int63(), nil)
	}
	for _, c := range laneCases() {
		checkSizer(t, c.k, c.l, c.pin, c.density, c.seed, c.genome)
	}
}

// TestSizerAcrossTiles sizes sets of more distinct blocks than two
// tiles of the sizer's cover hold (2 048 candidate words, so 2 048
// blocks at one mask word), at one, two and three mask words: with
// every block covered, and with one uncovered block, the last distinct
// block, in the last tile. Every MV holds 0 at position 0 and MV L-2
// is U everywhere else, so only a block with a 1 there is left
// uncovered, unless the last MV is all-U.
func TestSizerAcrossTiles(t *testing.T) {
	const k = 12
	r := rand.New(rand.NewSource(78))
	for _, l := range []int{64, 100, 130} {
		ts := testset.Random(96, 600, 0.5, r)
		for _, p := range ts.Patterns {
			for j := 0; j < ts.Width; j += k {
				p.Set(j, tritvec.Zero)
			}
		}
		last := ts.Patterns[len(ts.Patterns)-1]
		last.Set(ts.Width-k, tritvec.One)
		ms := blockcode.Dedup(blockcode.Partition(ts, k))
		if n := len(ms.Blocks); n <= 2*2048 || !ms.Blocks[n-1].Equal(last.Slice(ts.Width-k, ts.Width)) {
			t.Fatalf("L=%d: %d distinct blocks, the last %s", l, n, ms.Blocks[n-1])
		}
		genes := make([]uint8, k*l)
		for i := range genes {
			genes[i] = uint8(r.Intn(3))
			if i%k == 0 {
				genes[i] = 1
			}
		}
		clear(genes[(l-2)*k+1 : (l-1)*k])
		s := blockcode.NewSizer(ms, k, l)
		for _, pin := range []bool{false, true} {
			if pin {
				clear(genes[(l-1)*k:])
			}
			want, wantOK := sizeReference(ms, genes, k, l)
			if got, ok := s.Size(genes); got != want || ok != wantOK || ok != pin {
				t.Fatalf("L=%d pin=%v: sizer %d, %v; reference %d, %v", l, pin, got, ok, want, wantOK)
			}
		}
	}
}

// TestSizerMinUTies pins the stable min-U order: MVs with equal U counts
// cover in index order, so the earlier one takes the block.
func TestSizerMinUTies(t *testing.T) {
	ts, err := testset.ParseStrings("0000", "1111", "0011")
	if err != nil {
		t.Fatal(err)
	}
	ms := blockcode.Dedup(blockcode.Partition(ts, 4))
	// MV 0 = 00UU and MV 1 = 0UU0 both have two U; MV 2 = UUUU. Block
	// 0000 goes to MV 0; to MV 1 the code would have three symbols.
	genes := []uint8{1, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0}
	want, _ := sizeReference(ms, genes, 4, 3)
	got, ok := blockcode.NewSizer(ms, 4, 3).Size(genes)
	if !ok || got != want {
		t.Fatalf("sizer %d, %v; reference %d", got, ok, want)
	}
}

// TestSizerClonesConcurrent sizes different genomes on clones at once;
// under -race it also proves clones share no scratch.
func TestSizerClonesConcurrent(t *testing.T) {
	ms, _ := sizerCase(12, 64, true, 30, 5, nil)
	s := blockcode.NewSizer(ms, 12, 64)
	genomes := make([][]uint8, 4)
	want := make([]int, len(genomes))
	for g := range genomes {
		_, genomes[g] = sizerCase(12, 64, true, 30, int64(10+g), nil)
		want[g], _ = s.Size(genomes[g])
	}
	var wg sync.WaitGroup
	errs := make([]int, len(genomes))
	for g := range genomes {
		wg.Add(1)
		go func(g int, c *blockcode.Sizer) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if got, _ := c.Size(genomes[g]); got != want[g] {
					errs[g] = got
					return
				}
			}
		}(g, s.Clone())
	}
	wg.Wait()
	for g, got := range errs {
		if got != 0 {
			t.Errorf("genome %d sized %d on a clone, %d alone", g, got, want[g])
		}
	}
}
