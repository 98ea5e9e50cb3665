package tcomp_test

import (
	"context"
	"fmt"
	"log"

	tcomp "repro"
)

// Example demonstrates the end-to-end API: compress a test set with don't-
// cares using the 9C+HC baseline, decompress, and verify losslessness.
func Example() {
	ts, err := tcomp.ParseTestSet(
		"11110000",
		"1111XXXX",
		"00000000",
		"XXXX0000",
	)
	if err != nil {
		log.Fatal(err)
	}
	codec, err := tcomp.Lookup("9chc")
	if err != nil {
		log.Fatal(err)
	}
	art, err := codec.Compress(context.Background(), ts, tcomp.WithBlockLen(8))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d -> %d bits\n", art.OriginalBits, art.CompressedBits)
	dec, err := tcomp.Decompress(art)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("lossless:", tcomp.VerifyLossless(ts, dec))
	// Output:
	// 32 -> 6 bits
	// lossless: true
}

// ExampleCompressEA shows the paper's evolutionary compressor on a test
// set whose blocks "almost match" — the case its arbitrary-U matching
// vectors are built for.
func ExampleCompressEA() {
	ts, err := tcomp.ParseTestSet(
		"110100", "110000", "110100", "110000",
		"110100", "110000", "110100", "110001",
	)
	if err != nil {
		log.Fatal(err)
	}
	p := tcomp.DefaultEAParams(7)
	p.K, p.L = 6, 4
	p.Runs = 2
	p.EA.MaxGenerations = 200
	p.EA.MaxNoImprove = 80
	res, err := tcomp.CompressEA(ts, p)
	if err != nil {
		log.Fatal(err)
	}
	// The EA finds an MV like 110U0U and encodes each 6-bit block in a
	// codeword plus at most two fill bits.
	fmt.Println("compressed below half:", res.Final.CompressedBits < res.Final.OriginalBits/2)
	// The registry's "ea" codec runs the same EA and returns an artifact,
	// which Decompress expands.
	codec, err := tcomp.Lookup("ea")
	if err != nil {
		log.Fatal(err)
	}
	art, err := codec.Compress(context.Background(), ts, tcomp.WithEAParams(p))
	if err != nil {
		log.Fatal(err)
	}
	dec, err := tcomp.Decompress(art)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("lossless:", tcomp.VerifyLossless(ts, dec))
	// Output:
	// compressed below half: true
	// lossless: true
}
