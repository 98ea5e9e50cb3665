package fdr

import (
	"bytes"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/runlength"
	"repro/internal/testset"
	"repro/internal/tritvec"
)

func TestDecompressTruncatedTail(t *testing.T) {
	w := bitstream.NewWriter()
	w.WriteBit(1) // prefix claims group >= 2, then stream ends
	w.WriteBit(0)
	w.WriteBit(1) // only 1 of 2 tail bits
	if _, err := Decompress(bitstream.FromWriter(w), 100); err == nil {
		t.Fatal("truncated tail accepted")
	}
}

func TestDecompressEmptyStreamImpliesZeros(t *testing.T) {
	dec, err := Decompress(bitstream.NewReader(nil, 0), 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if dec.Get(i) != tritvec.Zero {
			t.Fatal("implied fill must be zero")
		}
	}
}

func TestLongRunSingleCodeword(t *testing.T) {
	// Unlike fixed-counter run-length coding, FDR encodes any run length
	// in one codeword of 2·group(n) bits.
	ts := testset.New(100)
	p := tritvec.New(100)
	for i := 0; i < 99; i++ {
		p.Set(i, tritvec.Zero)
	}
	p.Set(99, tritvec.One)
	ts.Add(p)
	res, err := Compress(ts)
	if err != nil {
		t.Fatal(err)
	}
	if res.CompressedBits != EncodedLen(99) {
		t.Fatalf("run of 99 cost %d bits, want %d", res.CompressedBits, EncodedLen(99))
	}
	dec, err := Decompress(bitstream.FromWriter(res.Stream), 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := runlength.Verify(ts, dec); err != nil {
		t.Fatal(err)
	}
}

func TestAllZeroTestSet(t *testing.T) {
	// No 1s at all: a single trailing run, maximal compression.
	ts := testset.New(64)
	ts.Add(tritvec.New(64)) // all X -> zero fill
	res, err := Compress(ts)
	if err != nil {
		t.Fatal(err)
	}
	if res.RatePercent() < 80 {
		t.Fatalf("all-X rate %.1f%%, expected near-maximal", res.RatePercent())
	}
	dec, err := Decompress(bitstream.FromWriter(res.Stream), 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := runlength.Verify(ts, dec); err != nil {
		t.Fatal(err)
	}
}

// TestDecompressHostileUnaryPrefix pins the hostile-input fix: a payload
// of all 1-bits drives the unary group count past any legal codeword;
// Decompress, like the per-bit reference, must reject it with an error,
// never panic.
func TestDecompressHostileUnaryPrefix(t *testing.T) {
	hostile := bytes.Repeat([]byte{0xFF}, 16) // 128 one-bits
	if _, err := Decompress(bitstream.NewReader(hostile, -1), 1<<20); err == nil {
		t.Fatal("Decompress accepted a 128-bit unary prefix")
	}
	if _, err := refDecompress(bitstream.NewReader(hostile, -1), 1<<20); err == nil {
		t.Fatal("per-bit reference accepted a 128-bit unary prefix")
	}
}
