package tcomp_test

// Benchmark regression harness for the streaming engine: buffered
// whole-set compression vs the chunked StreamWriter/StreamReader path,
// both directions, on every codec but the EA. CI runs these (with the
// bitstream micro-benchmarks), ratchets them against the committed
// BENCH_codec.json baseline and archives the new figures.

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"testing"

	tcomp "repro"
	"repro/internal/testset"
)

func benchSet() *tcomp.TestSet {
	rng := rand.New(rand.NewSource(7))
	return testset.Random(256, 2048, 0.3, rng) // 512 Kbit
}

func BenchmarkStreamVsBuffered(b *testing.B) {
	ts := benchSet()
	for _, codec := range []string{"fdr", "golomb", "rl", "selhuff", "9c", "9chc"} {
		codec := codec
		c, err := tcomp.Lookup(codec)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("compress/buffered/"+codec, func(b *testing.B) {
			b.SetBytes(int64(ts.TotalBits() / 8))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.Compress(context.Background(), ts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("compress/stream/"+codec, func(b *testing.B) {
			b.SetBytes(int64(ts.TotalBits() / 8))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sw, err := tcomp.NewStreamWriter(context.Background(), io.Discard, codec, ts.Width)
				if err != nil {
					b.Fatal(err)
				}
				if err := sw.WriteSet(ts); err != nil {
					b.Fatal(err)
				}
				if err := sw.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})

		art, err := c.Compress(context.Background(), ts)
		if err != nil {
			b.Fatal(err)
		}
		var container bytes.Buffer
		sw, err := tcomp.NewStreamWriter(context.Background(), &container, codec, ts.Width)
		if err != nil {
			b.Fatal(err)
		}
		if err := sw.WriteSet(ts); err != nil {
			b.Fatal(err)
		}
		if err := sw.Close(); err != nil {
			b.Fatal(err)
		}
		raw := container.Bytes()

		b.Run("decompress/buffered/"+codec, func(b *testing.B) {
			b.SetBytes(int64(ts.TotalBits() / 8))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tcomp.Decompress(art); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("decompress/stream/"+codec, func(b *testing.B) {
			b.SetBytes(int64(ts.TotalBits() / 8))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sr, err := tcomp.NewStreamReader(bytes.NewReader(raw))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sr.ReadAll(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
