package tcomp

// Differential test suite for the streaming codec engine: for every
// registered codec, the chunked stream path must agree with the buffered
// path — byte-identical payloads and decodes when the chunking is
// aligned, specified-bit-preserving decodes under arbitrary chunking —
// and the hardware FSM model, which decodes through the one block
// decoder, must consume exactly the payload a block codec wrote and
// report its cycles.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/blockcode"
	"repro/internal/container"
	"repro/internal/decoder"
	"repro/internal/pipeline"
	"repro/internal/testset"
)

// streamTestOpts returns cheap per-codec options so the EA runs in test
// time.
func streamTestOpts(seed int64) []Option {
	p := DefaultEAParams(seed)
	p.EA.MaxGenerations = 30
	p.EA.MaxNoImprove = 10
	p.Runs = 1
	p.L = 16
	return []Option{WithSeed(seed), WithEAParams(p)}
}

// roundTripStream pushes ts through StreamWriter/StreamReader with the
// given chunk size and returns the container bytes and decoded set.
func roundTripStream(t *testing.T, ts *TestSet, codec string, chunkPats, workers int, opts []Option) ([]byte, *TestSet) {
	t.Helper()
	var buf bytes.Buffer
	all := append(append([]Option{}, opts...), WithChunkPatterns(chunkPats), WithWorkers(workers))
	sw, err := NewStreamWriter(context.Background(), &buf, codec, ts.Width, all...)
	if err != nil {
		t.Fatalf("%s: NewStreamWriter: %v", codec, err)
	}
	if err := sw.WriteSet(ts); err != nil {
		t.Fatalf("%s: WriteSet: %v", codec, err)
	}
	if err := sw.Close(); err != nil {
		t.Fatalf("%s: Close: %v", codec, err)
	}
	raw := append([]byte(nil), buf.Bytes()...)
	sr, err := NewStreamReader(&buf)
	if err != nil {
		t.Fatalf("%s: NewStreamReader: %v", codec, err)
	}
	dec, err := sr.ReadAll()
	if err != nil {
		t.Fatalf("%s: ReadAll: %v", codec, err)
	}
	if sr.TotalPatterns() != ts.NumPatterns() {
		t.Fatalf("%s: trailer says %d patterns, want %d", codec, sr.TotalPatterns(), ts.NumPatterns())
	}
	return raw, dec
}

// equalSets reports trit-for-trit equality.
func equalSets(a, b *TestSet) bool {
	if a.Width != b.Width || a.NumPatterns() != b.NumPatterns() {
		return false
	}
	for i := range a.Patterns {
		if !a.Patterns[i].Equal(b.Patterns[i]) {
			return false
		}
	}
	return true
}

// TestStreamMatchesBufferedSingleChunk drives every registered codec
// through the streaming path with the whole set in one chunk and the
// buffered path with the chunk's derived seed: payload bytes and decoded
// sets must be byte-identical.
func TestStreamMatchesBufferedSingleChunk(t *testing.T) {
	for _, name := range Codecs() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			const rootSeed = int64(7)
			rng := rand.New(rand.NewSource(101))
			ts := testset.Random(24, 40, 0.35, rng)
			opts := streamTestOpts(rootSeed)

			raw, streamDec := roundTripStream(t, ts, name, ts.NumPatterns(), 1, opts)

			// The buffered twin of chunk 0 uses the engine-derived seed.
			bufOpts := append(append([]Option{}, opts...), WithSeed(pipeline.Seed(rootSeed, 0)))
			codec, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			art, err := codec.Compress(context.Background(), ts, bufOpts...)
			if err != nil {
				t.Fatalf("buffered Compress: %v", err)
			}

			// Byte-identical compressed payload.
			cr, err := container.NewChunkReader(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			chunk, err := cr.Next()
			if err != nil {
				t.Fatalf("Next: %v", err)
			}
			if !bytes.Equal(chunk.Payload, art.Payload) || chunk.NBits != art.NBits {
				t.Fatalf("stream payload (%d bits) differs from buffered payload (%d bits)", chunk.NBits, art.NBits)
			}
			if !bytes.Equal(chunk.Params, art.Params) {
				t.Fatalf("stream params differ from buffered params")
			}
			if _, err := cr.Next(); err != io.EOF {
				t.Fatalf("expected exactly one chunk, got err %v", err)
			}

			// Byte-identical decode.
			bufDec, err := Decompress(art)
			if err != nil {
				t.Fatalf("buffered Decompress: %v", err)
			}
			if !equalSets(streamDec, bufDec) {
				t.Fatalf("streaming decode differs from buffered decode")
			}
			if !VerifyLossless(ts, streamDec) {
				t.Fatalf("streaming decode lost specified bits")
			}
		})
	}
}

// TestStreamMatchesBufferedChunked exercises multi-chunk streams. The
// zero-fill codecs decode to the zero-filled original regardless of
// chunk boundaries, so their streaming decode must equal the buffered
// decode trit for trit; the MV-based block codecs fill don't-cares from
// per-chunk tables, so they are held to the lossless criterion.
func TestStreamMatchesBufferedChunked(t *testing.T) {
	zeroFill := map[string]bool{"golomb": true, "fdr": true, "rl": true, "selhuff": true}
	for _, name := range Codecs() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, chunkPats := range []int{1, 7, 16} {
				rng := rand.New(rand.NewSource(int64(chunkPats)))
				ts := testset.Random(16, 33, 0.4, rng)
				opts := streamTestOpts(3)
				_, streamDec := roundTripStream(t, ts, name, chunkPats, 4, opts)
				if !VerifyLossless(ts, streamDec) {
					t.Fatalf("chunk=%d: streaming decode lost specified bits", chunkPats)
				}
				if zeroFill[name] {
					codec, _ := Lookup(name)
					art, err := codec.Compress(context.Background(), ts, opts...)
					if err != nil {
						t.Fatal(err)
					}
					bufDec, err := Decompress(art)
					if err != nil {
						t.Fatal(err)
					}
					if !equalSets(streamDec, bufDec) {
						t.Fatalf("chunk=%d: streaming decode differs from buffered decode", chunkPats)
					}
				}
			}
		})
	}
}

// TestStreamDeterministicAcrossWorkers pins the engine invariant on the
// streaming path: the container bytes must not depend on the worker
// count.
func TestStreamDeterministicAcrossWorkers(t *testing.T) {
	for _, name := range Codecs() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(5))
			ts := testset.Random(16, 40, 0.35, rng)
			opts := streamTestOpts(11)
			serial, _ := roundTripStream(t, ts, name, 6, 1, opts)
			parallel, _ := roundTripStream(t, ts, name, 6, 8, opts)
			if !bytes.Equal(serial, parallel) {
				t.Fatalf("container bytes differ between 1 and 8 workers")
			}
		})
	}
}

// TestFSMMatchesBlockDecode runs each block codec's payload through the
// hardware FSM model on a set whose bit count K does not divide. The
// model decodes through the one block decoder, so it must return what
// the codec's Decompress does and keep every specified bit; it must
// also consume exactly the payload and report ⌈bits/K⌉ blocks and
// InputBits + K·Blocks cycles.
func TestFSMMatchesBlockDecode(t *testing.T) {
	for _, name := range []string{"ea", "9c", "9chc"} {
		name := name
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			ts := testset.Random(21, 31, 0.3, rng)
			codec, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			art, err := codec.Compress(context.Background(), ts, streamTestOpts(2)...)
			if err != nil {
				t.Fatal(err)
			}
			set, code, err := container.DecodeBlockParams(art.Params)
			if err != nil {
				t.Fatal(err)
			}
			bits := ts.TotalBits()
			if bits%set.K == 0 {
				t.Fatalf("K=%d divides %d bits: no partial final block", set.K, bits)
			}
			fsm, err := decoder.New(set, code)
			if err != nil {
				t.Fatal(err)
			}
			flat, st, err := fsm.Run(art.BitReader(), bits)
			if err != nil {
				t.Fatalf("FSM: %v", err)
			}
			want, err := codec.Decompress(art)
			if err != nil {
				t.Fatalf("codec decode: %v", err)
			}
			if !flat.Equal(want.Flatten()) {
				t.Fatal("FSM output differs from the codec's decode")
			}
			if err := blockcode.Verify(ts.Flatten(), flat); err != nil {
				t.Fatal(err)
			}
			if st.InputBits != art.NBits {
				t.Fatalf("FSM consumed %d bits, payload has %d", st.InputBits, art.NBits)
			}
			if blocks := (bits + set.K - 1) / set.K; st.Blocks != blocks {
				t.Fatalf("FSM reports %d blocks, want %d", st.Blocks, blocks)
			}
			if st.Cycles != st.InputBits+set.K*st.Blocks {
				t.Fatalf("FSM reports %d cycles, want %d input bits + %d·%d", st.Cycles, st.InputBits, set.K, st.Blocks)
			}
		})
	}
}

// TestStreamReaderTruncationAndCorruption pins the failure modes: a
// flipped payload bit must be caught by the chunk CRC, and a truncated
// stream must surface an error rather than a silent short read.
func TestStreamReaderTruncationAndCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ts := testset.Random(16, 40, 0.4, rng)
	var buf bytes.Buffer
	sw, err := NewStreamWriter(context.Background(), &buf, "fdr", 16, WithChunkPatterns(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteSet(ts); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	t.Run("corrupt", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		bad[len(bad)/2] ^= 0x40 // inside some frame body
		sr, err := NewStreamReader(bytes.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sr.ReadAll(); err == nil {
			t.Fatal("corrupted container decoded without error")
		}
	})
	t.Run("truncate", func(t *testing.T) {
		for _, cut := range []int{len(raw) - 1, len(raw) - 7, len(raw) / 2, 20} {
			sr, err := NewStreamReader(bytes.NewReader(raw[:cut]))
			if err != nil {
				continue // header itself truncated: fine
			}
			if _, err := sr.ReadAll(); err == nil {
				t.Fatalf("container truncated to %d bytes decoded without error", cut)
			}
		}
	})
}

// TestStreamReaderEOSWrapping pins that a bit-level truncation reaches
// the caller as bitstream.ErrEOS through every codec wrapper: a v3 chunk
// whose frame is intact (CRC-valid) but whose payload stops halfway must
// fail NextChunk with an error wrapping ErrEOS, and an artifact that
// declares more payload bits than it carries must fail Decompress with
// one wrapping ErrBitCount. The rl format is the one exception to the
// first check: it defines an early end of stream as implied trailing
// zeros (its encoder relies on that), so a cut rl payload decodes.
func TestStreamReaderEOSWrapping(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	ts := testset.Random(16, 24, 0.4, rng)
	for _, name := range Codecs() {
		codec, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		art, err := codec.Compress(context.Background(), ts, streamTestOpts(1)...)
		if err != nil {
			t.Fatalf("%s: Compress: %v", name, err)
		}
		cut := art.NBits / 2
		var buf bytes.Buffer
		cw, err := container.NewChunkWriter(&buf, container.StreamHeader{
			Codec: name, Width: ts.Width, ChunkPatterns: ts.NumPatterns(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := cw.WriteChunk(&container.Chunk{
			Patterns: art.Patterns, Params: art.Params,
			Payload: art.Payload[:(cut+7)/8], NBits: cut,
		}); err != nil {
			t.Fatal(err)
		}
		if err := cw.Close(); err != nil {
			t.Fatal(err)
		}
		sr, err := NewStreamReader(&buf)
		if err != nil {
			t.Fatalf("%s: NewStreamReader: %v", name, err)
		}
		_, err = sr.NextChunk()
		if name == "rl" {
			if err != nil {
				t.Fatalf("rl: chunk cut to %d of %d bits: %v, want implied zeros", cut, art.NBits, err)
			}
		} else if !errors.Is(err, bitstream.ErrEOS) {
			t.Fatalf("%s: chunk cut to %d of %d bits: got %v, want ErrEOS wrap", name, cut, art.NBits, err)
		}

		hostile := *art
		hostile.NBits = 8*len(art.Payload) + 1
		if _, err := Decompress(&hostile); !errors.Is(err, bitstream.ErrBitCount) {
			t.Fatalf("%s: declared bits past the payload: got %v, want ErrBitCount wrap", name, err)
		}
	}
}

// genPattern returns pattern i of a deterministic pseudo-random test set
// without materializing the set — the producer side of the memory test.
func genPattern(width int, i int64) Vector {
	rng := rand.New(rand.NewSource(0xC0FFEE ^ i))
	p := testset.Random(width, 1, 0.3, rng)
	return p.Patterns[0]
}

// TestStreamMemoryBudget pushes a test set far larger than the allowed
// heap growth through tcompress-style StreamWriter → pipe → StreamReader
// and fails if the live heap ever grows past a hard budget: the proof
// that streaming runs at O(chunk), not O(test set).
func TestStreamMemoryBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("memory budget test moves tens of MiB")
	}
	const (
		width    = 1024
		patterns = 64 << 10 // 64 Mbit: ~16 MiB as an in-memory TestSet
		budget   = 12 << 20 // hard live-heap growth cap, under one TestSet copy
	)
	totalBits := width * patterns
	// A tritvec holds 2 bits per trit (care+value words), so the buffered
	// path would hold at least totalBits/4 bytes; the budget must be
	// smaller for the test to prove anything.
	if totalBits/4 <= budget {
		t.Fatalf("test is vacuous: in-memory set %d bytes within budget %d", totalBits/4, budget)
	}

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	var peak uint64

	pr, pw := io.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	var writeErr error
	go func() {
		defer wg.Done()
		sw, err := NewStreamWriter(context.Background(), pw, "fdr", width, WithWorkers(2))
		if err == nil {
			for i := int64(0); i < patterns; i++ {
				if err = sw.WritePattern(genPattern(width, i)); err != nil {
					break
				}
			}
			if err == nil {
				err = sw.Close()
			}
		}
		writeErr = err
		pw.CloseWithError(err)
	}()

	sr, err := NewStreamReader(pr)
	if err != nil {
		t.Fatalf("NewStreamReader: %v", err)
	}
	var got int64
	// sample records the live heap (post-GC), the number the budget
	// bounds: transient garbage between samples is the collector's
	// business, resident data is ours.
	sample := func() {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > peak {
			peak = ms.HeapAlloc
		}
	}
	for {
		v, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next at pattern %d: %v", got, err)
		}
		// Verify a sample of specified bits against the generator.
		if got%4096 == 0 {
			want := genPattern(width, got)
			if !want.Subsumes(v) {
				t.Fatalf("pattern %d does not preserve specified bits", got)
			}
			sample()
		}
		got++
	}
	wg.Wait()
	if writeErr != nil {
		t.Fatalf("writer: %v", writeErr)
	}
	if got != patterns {
		t.Fatalf("decoded %d patterns, want %d", got, patterns)
	}
	grow := int64(peak) - int64(before.HeapAlloc)
	t.Logf("heap growth peak: %.1f MiB over %.1f MiB of test data",
		float64(grow)/(1<<20), float64(totalBits)/8/(1<<20))
	if grow > budget {
		t.Fatalf("heap grew %d bytes, budget %d: streaming is not O(chunk)", grow, budget)
	}
}

// TestStreamWriterErrors pins the checked error paths of the public API.
func TestStreamWriterErrors(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewStreamWriter(context.Background(), &buf, "nope", 8); err == nil {
		t.Fatal("unknown codec accepted")
	}
	if _, err := NewStreamWriter(context.Background(), &buf, "fdr", 0); err == nil {
		t.Fatal("zero width accepted")
	}
	sw, err := NewStreamWriter(context.Background(), &buf, "fdr", 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.WritePattern(tritvecOfWidth(4)); err == nil {
		t.Fatal("wrong-width pattern accepted")
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sw.WritePattern(tritvecOfWidth(8)); err == nil {
		t.Fatal("write after Close accepted")
	}
	if err := sw.Close(); err != nil {
		t.Fatal("Close is not idempotent")
	}
	// An empty stream round-trips to an empty set.
	sr, err := NewStreamReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := sr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if ts.NumPatterns() != 0 || ts.Width != 8 {
		t.Fatalf("empty stream decoded to %dx%d", ts.NumPatterns(), ts.Width)
	}
}

func tritvecOfWidth(n int) Vector {
	rng := rand.New(rand.NewSource(1))
	return testset.Random(n, 1, 0.5, rng).Patterns[0]
}
