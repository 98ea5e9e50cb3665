package blockcode

import (
	"testing"

	"repro/internal/bitstream"
	"repro/internal/huffman"
	"repro/internal/testset"
)

// TestPaperSection33Example reproduces the worked example from Section 3.3:
// MVs v1=111U (F=5), v2=1110 (F=3), v3=0000 (F=2). Plain Huffman coding
// yields 20 bits of compressed data; folding v2 into the subsuming v1
// yields 18 bits.
func TestPaperSection33Example(t *testing.T) {
	set := mvset(t, 4, "111U", "1110", "0000")

	freqs := []int{5, 3, 2}
	code, err := huffman.Build(freqs)
	if err != nil {
		t.Fatal(err)
	}
	plain := set.CompressedBits(&Covering{Freqs: freqs}, code.Lengths)
	if plain != 20 {
		t.Fatalf("plain Huffman size = %d bits, paper says 20", plain)
	}

	cov := &Covering{Assign: assignFromFreqs(freqs), Freqs: freqs}
	_, _, optimized, err := set.SubsumeOptimize(cov)
	if err != nil {
		t.Fatal(err)
	}
	if optimized != 18 {
		t.Fatalf("subsume-optimized size = %d bits, paper says 18", optimized)
	}
}

// assignFromFreqs builds a block->MV assignment consistent with freqs.
func assignFromFreqs(freqs []int) []int {
	var assign []int
	for mv, f := range freqs {
		for i := 0; i < f; i++ {
			assign = append(assign, mv)
		}
	}
	return assign
}

func TestSubsumeOptimizeNeverWorse(t *testing.T) {
	// Construct a covering on real blocks and confirm the pass is
	// monotone (never increases size) and keeps the covering valid.
	ts, err := testset.ParseStrings(
		"11101110", "11101111", "00000000", "11100000",
		"11101110", "11101111", "00000000", "11101110",
	)
	if err != nil {
		t.Fatal(err)
	}
	set := mvset(t, 8, "1110111U", "11101110", "00000000", "UUUUUUUU")
	ms := Dedup(Partition(ts, 8))
	res, err := set.BuildHuffman(ms, ts.TotalBits())
	if err != nil {
		t.Fatal(err)
	}
	cov2, code2, sz, err := set.SubsumeOptimize(res.Covering)
	if err != nil {
		t.Fatal(err)
	}
	if sz > res.CompressedBits {
		t.Fatalf("subsume pass increased size: %d > %d", sz, res.CompressedBits)
	}
	// Every reassigned block must still be matched by its new MV.
	for d, mv := range cov2.Assign {
		if !set.MVs[mv].Matches(ms.Blocks[d]) {
			t.Fatalf("block %s reassigned to non-matching MV %d", ms.Blocks[d], mv)
		}
	}
	if code2.TotalBits(cov2.Freqs) > code2.TotalBits(cov2.Freqs) {
		t.Fatal("unreachable")
	}
}

func TestBuildHuffmanOptEndToEnd(t *testing.T) {
	ts, err := testset.ParseStrings(
		"11101110", "11101111", "00000000", "11100000",
		"11101110", "11101111", "00000000", "11101110",
	)
	if err != nil {
		t.Fatal(err)
	}
	set := mvset(t, 8, "1110111U", "11101110", "00000000", "UUUUUUUU")
	ms := Dedup(Partition(ts, 8))
	plain, err := set.BuildHuffman(ms, ts.TotalBits())
	if err != nil {
		t.Fatal(err)
	}
	opt, err := set.BuildHuffmanOpt(ms, ts.TotalBits())
	if err != nil {
		t.Fatal(err)
	}
	if opt.CompressedBits > plain.CompressedBits {
		t.Fatalf("opt %d worse than plain %d", opt.CompressedBits, plain.CompressedBits)
	}
	// The optimized result must still encode and round-trip.
	if _, err := Encode(ms, opt); err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(bitstream.FromWriter(opt.Stream), opt.Set, opt.Code, ts.TotalBits())
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(ts.Flatten(), dec); err != nil {
		t.Fatal(err)
	}
}
