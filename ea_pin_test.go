package tcomp_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	tcomp "repro"
	"repro/internal/iscasgen"
)

// eaPins are SHA-256 digests of v2 containers written by the paper's
// compressor (K=12, L=64, 2 runs) on small generated sets, recorded with
// the reference fitness path (GenesToMVs → CoverMultiset → huffman.Build).
// A faster fitness kernel must leave them unchanged: with bit-identical
// fitness values the evolution, the chosen MV set and every container
// byte stay the same. Re-record them only for a deliberate change to the
// evolution itself, and say so.
var eaPins = []struct {
	circuit string
	kind    iscasgen.Kind
	seed    int64
	stop    string // "budget": 150 generations; "paper": the stop rule
	digest  string
}{
	{"s298", iscasgen.StuckAt, 1, "budget", "73e9a190b5a18deb1e878115a702fcfc716660a0e3f7fc619a23856c174e8c79"},
	{"s298", iscasgen.StuckAt, 1, "paper", "709645984478bb122b77e81875ed001c84f9c702d96a0942496ee41c4d1c1bf3"},
	{"s420", iscasgen.StuckAt, 2, "budget", "a19869227547366d0b435941d541ee4a95ca9a2a6d39f957eb8f72f131e41e9f"},
	{"s420", iscasgen.StuckAt, 2, "paper", "28c400e830cfb782730383575eb8a600c0403e4d37f02847a93df48d021ff978"},
	{"s444", iscasgen.PathDelay, 3, "budget", "965215e0a7562a4d8768bcb5a48f18b106c2e6d7b594de500f3c246298e56d5d"},
	{"s444", iscasgen.PathDelay, 3, "paper", "5e3b79c95bb097055bd7569579d0a2791c7ea62ca0f6612c97e3f41d942863ba"},
}

// TestEAOutputPinned compares the ea codec's container bytes with the
// digests recorded in eaPins. The determinism suites compare worker
// counts within one build; this pin is what catches a kernel change that
// alters the evolution between builds.
func TestEAOutputPinned(t *testing.T) {
	codec, err := tcomp.Lookup("ea")
	if err != nil {
		t.Fatal(err)
	}
	for _, pin := range eaPins {
		name := fmt.Sprintf("%s/%s", pin.circuit, pin.stop)
		t.Run(name, func(t *testing.T) {
			m, err := iscasgen.Find(pin.circuit, pin.kind)
			if err != nil {
				t.Fatal(err)
			}
			ts, err := iscasgen.Generate(m, iscasgen.GenOptions{Seed: pin.seed, MaxBits: 8000})
			if err != nil {
				t.Fatal(err)
			}
			p := tcomp.DefaultEAParams(pin.seed)
			p.Runs = 2
			if pin.stop == "budget" {
				p.EA.MaxGenerations = 150
				p.EA.MaxNoImprove = 0
			}
			a, err := codec.Compress(context.Background(), ts, tcomp.WithEAParams(p))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := tcomp.Write(&buf, a); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != pin.digest {
				t.Errorf("container sha256 %s, pinned %s (rate %.4f%%)", got, pin.digest, a.RatePercent())
			}
		})
	}
}
