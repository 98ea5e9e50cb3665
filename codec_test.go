package tcomp

// Registry semantics and the shared codec conformance suite: every
// registered scheme must round-trip through Compress → Write → Open →
// Decompress with VerifyLossless true.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/container"
	"repro/internal/testset"
)

// sevenCodecs is the fixed set of schemes the paper compares; the
// registry must expose every one of them.
var sevenCodecs = []string{"9c", "9chc", "ea", "fdr", "golomb", "rl", "selhuff"}

// conformanceOpts is a single option list valid for every codec: each
// reads the knobs it understands and ignores the rest.
func conformanceOpts(seed int64) []Option {
	p := DefaultEAParams(seed)
	p.K, p.L = 8, 16
	p.Runs = 1
	p.EA.MaxGenerations = 20
	p.EA.MaxNoImprove = 10
	return []Option{WithSeed(seed), WithWorkers(2), WithEAParams(p)}
}

func TestCodecsListsAllSeven(t *testing.T) {
	names := Codecs()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Codecs() not sorted: %v", names)
		}
	}
	got := strings.Join(names, ",")
	for _, want := range sevenCodecs {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("codec %q not registered (have %s)", want, got)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("lzw"); err == nil {
		t.Fatal("Lookup of unregistered codec succeeded")
	}
}

type fakeCodec struct{ name string }

func (f fakeCodec) Name() string { return f.name }
func (f fakeCodec) Compress(context.Context, *TestSet, ...Option) (*Artifact, error) {
	return nil, fmt.Errorf("fakeCodec: not a real codec")
}
func (f fakeCodec) Decompress(*Artifact) (*TestSet, error) {
	return nil, fmt.Errorf("fakeCodec: not a real codec")
}

// unregisterForTest removes a test-only codec so the process-global
// registry stays clean for other tests iterating Codecs().
func unregisterForTest(t *testing.T, name string) {
	t.Cleanup(func() {
		registryMu.Lock()
		delete(registry, name)
		registryMu.Unlock()
	})
}

func TestRegisterDuplicatePanics(t *testing.T) {
	Register(fakeCodec{name: "x-dup-test"})
	unregisterForTest(t, "x-dup-test")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register(fakeCodec{name: "x-dup-test"})
}

func TestRegisterInvalidPanics(t *testing.T) {
	for name, c := range map[string]Codec{"nil": nil, "empty-name": fakeCodec{}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%s) did not panic", name)
				}
			}()
			Register(c)
		}()
	}
}

// TestCodecConformance is the shared suite: for every scheme, compress a
// deterministic test set, serialize as a universal container, reopen,
// decompress through the registry, and check losslessness. This is the
// acceptance property — all seven schemes round-trip through one API,
// including the four (golomb, fdr, rl, selhuff) the legacy container
// could not represent.
func TestCodecConformance(t *testing.T) {
	for _, name := range sevenCodecs {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			codec, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			if codec.Name() != name {
				t.Fatalf("Name() = %q, registered as %q", codec.Name(), name)
			}
			for seed := int64(1); seed <= 3; seed++ {
				ts := testset.Random(16, 40, 0.3, rand.New(rand.NewSource(seed)))
				art, err := codec.Compress(context.Background(), ts, conformanceOpts(seed)...)
				if err != nil {
					t.Fatalf("seed %d: Compress: %v", seed, err)
				}
				if art.Codec != name {
					t.Fatalf("artifact names codec %q, want %q", art.Codec, name)
				}
				if art.Width != ts.Width || art.Patterns != ts.NumPatterns() {
					t.Fatalf("artifact dimensions %dx%d, want %dx%d",
						art.Width, art.Patterns, ts.Width, ts.NumPatterns())
				}

				// Direct decompression (no serialization).
				direct, err := codec.Decompress(art)
				if err != nil {
					t.Fatalf("seed %d: direct Decompress: %v", seed, err)
				}
				if !VerifyLossless(ts, direct) {
					t.Fatalf("seed %d: direct round trip lost specified bits", seed)
				}

				// Container round trip: Write → Open → Decompress.
				var buf bytes.Buffer
				if err := Write(&buf, art); err != nil {
					t.Fatalf("seed %d: Write: %v", seed, err)
				}
				art2, err := Open(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatalf("seed %d: Open: %v", seed, err)
				}
				if art2.Codec != name || art2.NBits != art.NBits ||
					!bytes.Equal(art2.Params, art.Params) || !bytes.Equal(art2.Payload, art.Payload) {
					t.Fatalf("seed %d: artifact changed across serialization", seed)
				}
				dec, err := Decompress(art2)
				if err != nil {
					t.Fatalf("seed %d: Decompress: %v", seed, err)
				}
				if !VerifyLossless(ts, dec) {
					t.Fatalf("seed %d: container round trip lost specified bits", seed)
				}
			}
		})
	}
}

// TestDecompressAllocationsDoNotGrowWithPatterns holds every codec's
// decompression to the same number of allocations at 1 Ki and 8 Ki
// patterns: the decoded string, the patterns over one backing array and
// the codec's own tables, nothing per pattern or block. AllocsPerRun
// counts the mallocs of every goroutine in the test binary, which can
// only add to the decoder's own, so each side is the least of five
// measurements.
func TestDecompressAllocationsDoNotGrowWithPatterns(t *testing.T) {
	small := testset.Random(48, 1024, 0.3, rand.New(rand.NewSource(6)))
	large := testset.New(small.Width)
	for i := 0; i < 8; i++ {
		for _, p := range small.Patterns {
			large.Add(p)
		}
	}
	for _, name := range sevenCodecs {
		codec, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		allocs := func(ts *TestSet) float64 {
			art, err := codec.Compress(context.Background(), ts, conformanceOpts(1)...)
			if err != nil {
				t.Fatalf("%s: Compress: %v", name, err)
			}
			least := math.Inf(1)
			for i := 0; i < 5; i++ {
				least = min(least, testing.AllocsPerRun(3, func() {
					if _, err := codec.Decompress(art); err != nil {
						t.Fatalf("%s: Decompress: %v", name, err)
					}
				}))
			}
			return least
		}
		if s, l := allocs(small), allocs(large); s != l {
			t.Errorf("%s decompression allocates %v times on %d patterns and %v on %d",
				name, s, small.NumPatterns(), l, large.NumPatterns())
		}
	}
}

// TestBlockDecodeHostileArtifact: a block-codec header may declare the
// largest legal test set over a one-byte payload, with an NBits that
// claims far more than the byte or one that is honest. The block
// decoders (9c and selective Huffman) allocate their output whole, so
// they must see the payload cannot pay for it before allocating: the
// decode fails wrapping ErrBitCount or ErrEOS, and the heap grows by
// nowhere near the 256 MiB a MaxTotalBits output takes.
func TestBlockDecodeHostileArtifact(t *testing.T) {
	ts, err := ParseTestSet("01X10X01", "1X0X1X0X")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"9c", "selhuff"} {
		for _, nbits := range []int{container.MaxTotalBits, 8} {
			t.Run(fmt.Sprintf("%s/nbits=%d", name, nbits), func(t *testing.T) {
				codec, err := Lookup(name)
				if err != nil {
					t.Fatal(err)
				}
				art, err := codec.Compress(context.Background(), ts)
				if err != nil {
					t.Fatal(err)
				}
				art.Width, art.Patterns = 1<<15, container.MaxTotalBits>>15
				art.Payload, art.NBits = art.Payload[:1], nbits

				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				_, err = Decompress(art)
				runtime.ReadMemStats(&after)
				if !errors.Is(err, bitstream.ErrBitCount) && !errors.Is(err, bitstream.ErrEOS) {
					t.Fatalf("hostile artifact decoded with %v, want an error wrapping ErrBitCount or ErrEOS", err)
				}
				if grown := after.TotalAlloc - before.TotalAlloc; grown > 16<<20 {
					t.Fatalf("decoding a hostile artifact allocated %d MiB", grown>>20)
				}
			})
		}
	}
}

func TestDecompressUnknownCodec(t *testing.T) {
	if _, err := Decompress(&Artifact{Codec: "lzw", Width: 4, Patterns: 1}); err == nil {
		t.Fatal("Decompress with unregistered codec succeeded")
	}
	if _, err := Decompress(nil); err == nil {
		t.Fatal("Decompress(nil) succeeded")
	}
}

func TestCompressContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ts := testset.Random(12, 10, 0.3, rand.New(rand.NewSource(1)))
	for _, name := range sevenCodecs {
		codec, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := codec.Compress(ctx, ts, conformanceOpts(1)...); err == nil {
			t.Errorf("%s: Compress with cancelled context succeeded", name)
		}
	}
}

// TestCodecOptionsRespected spot-checks that the per-codec knobs reach
// the underlying coders and are reflected in the serialized params.
func TestCodecOptionsRespected(t *testing.T) {
	ts := testset.Random(16, 30, 0.3, rand.New(rand.NewSource(9)))
	ctx := context.Background()

	golombC, _ := Lookup("golomb")
	art, err := golombC.Compress(ctx, ts, WithGolombM(16))
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Params) != 4 || art.Params[3] != 16 {
		t.Fatalf("golomb params %v do not pin M=16", art.Params)
	}

	rlC, _ := Lookup("rl")
	art, err = rlC.Compress(ctx, ts, WithCounterWidth(6))
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Params) != 1 || art.Params[0] != 6 {
		t.Fatalf("rl params %v do not pin b=6", art.Params)
	}

	shC, _ := Lookup("selhuff")
	art, err = shC.Compress(ctx, ts, WithBlockLen(4), WithDictSize(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Params) < 3 || art.Params[0] != 4 {
		t.Fatalf("selhuff params %v do not pin K=4", art.Params)
	}
	if dec, err := shC.Decompress(art); err != nil || !VerifyLossless(ts, dec) {
		t.Fatalf("selhuff K=4 D=3 round trip failed: %v", err)
	}

	nineC, _ := Lookup("9c")
	if _, err := nineC.Compress(ctx, ts, WithBlockLen(7)); err == nil {
		t.Fatal("9c accepted odd block length")
	}
}

// TestWithSeedOverridesEAParams pins the documented precedence: an
// explicit WithSeed wins over the seed inside WithEAParams, and omitting
// WithSeed leaves the WithEAParams seed untouched.
func TestWithSeedOverridesEAParams(t *testing.T) {
	ts := testset.Random(12, 20, 0.3, rand.New(rand.NewSource(2)))
	eaC, _ := Lookup("ea")
	quick := func(seed int64) EAParams {
		p := DefaultEAParams(seed)
		p.K, p.L = 6, 8
		p.Runs = 1
		p.EA.MaxGenerations = 10
		p.EA.MaxNoImprove = 5
		return p
	}
	run := func(opts ...Option) *Artifact {
		t.Helper()
		art, err := eaC.Compress(context.Background(), ts, append(opts, WithWorkers(1))...)
		if err != nil {
			t.Fatal(err)
		}
		return art
	}
	overridden := run(WithEAParams(quick(1)), WithSeed(99))
	direct := run(WithEAParams(quick(99)))
	if !bytes.Equal(overridden.Payload, direct.Payload) || !bytes.Equal(overridden.Params, direct.Params) {
		t.Fatal("WithSeed did not override the WithEAParams seed")
	}
	kept := run(WithEAParams(quick(99)))
	if !bytes.Equal(kept.Payload, direct.Payload) {
		t.Fatal("EA run not deterministic at fixed seed")
	}
}
