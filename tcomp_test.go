package tcomp

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"repro/internal/ninec"
	"repro/internal/testset"
)

func exampleTestSet(t *testing.T, seed int64) *TestSet {
	t.Helper()
	return testset.Random(24, 50, 0.25, rand.New(rand.NewSource(seed)))
}

func quickEAParams(seed int64) EAParams {
	p := DefaultEAParams(seed)
	p.Runs = 1
	p.EA.MaxGenerations = 30
	p.EA.MaxNoImprove = 15
	return p
}

// roundTrip compresses ts through the named registry codec and checks
// that the artifact decompresses back to ts's specified bits.
func roundTrip(t *testing.T, name string, ts *TestSet, opts ...Option) *Artifact {
	t.Helper()
	codec, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	art, err := codec.Compress(context.Background(), ts, opts...)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decompress(art)
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyLossless(ts, dec) {
		t.Fatalf("%s round trip lost specified bits", name)
	}
	return art
}

func TestFacadeEndToEnd(t *testing.T) {
	ts := exampleTestSet(t, 1)
	res, err := CompressEA(ts, quickEAParams(1))
	if err != nil {
		t.Fatal(err)
	}
	art := roundTrip(t, "ea", ts, WithEAParams(quickEAParams(1)))
	if art.CompressedBits != res.Final.CompressedBits {
		t.Fatalf("ea codec compressed to %d bits, CompressEA to %d", art.CompressedBits, res.Final.CompressedBits)
	}
}

func TestFacade9CEndToEnd(t *testing.T) {
	ts := exampleTestSet(t, 2)
	for _, name := range []string{"9c", "9chc"} {
		roundTrip(t, name, ts, WithBlockLen(8))
	}
}

func TestFacadeIO(t *testing.T) {
	ts, err := ParseTestSet("01XX10", "111000")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ts.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTestSet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyLossless(ts, back) || !VerifyLossless(back, ts) {
		t.Fatal("I/O round trip changed test set")
	}
	if NewTestSet(4).Width != 4 {
		t.Fatal("NewTestSet width")
	}
}

func TestFacadeDecoderFSM(t *testing.T) {
	ts := exampleTestSet(t, 3)
	res, err := ninec.CompressHC(ts, 8)
	if err != nil {
		t.Fatal(err)
	}
	fsm, err := NewDecoderFSM(res)
	if err != nil {
		t.Fatal(err)
	}
	if fsm.Area().GateEquivalents <= 0 {
		t.Fatal("decoder area must be positive")
	}
}
