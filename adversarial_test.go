package tcomp

// Adversarial decode conformance: no registered codec may panic on
// hostile input. Every codec is exercised through both decode paths —
// the buffered universal container (Open/Decompress) and the chunked
// stream (NewStreamReader) — against truncated containers, bit/byte
// corruption, hand-built artifacts with inconsistent dimensions, empty
// test sets, and fully X-laden inputs. A decode may succeed (corruption
// can land in don't-care fill bits) or fail with an error; it must
// never take the process down. This is the package-level half of the
// serving-core contract (the daemon-level half lives in
// internal/serve's FuzzServeAnyEndpoint).

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/bitstream"
	"repro/internal/container"
	"repro/internal/huffman"
	"repro/internal/selhuff"
	"repro/internal/testset"
)

// adversarialSet is small enough to mutate exhaustively but exercises
// every coder: mixed cares, long 0-runs, X-runs, and a ragged tail.
func adversarialSet(t *testing.T) *TestSet {
	t.Helper()
	ts, err := ParseTestSet(
		"0000000010XXXX01",
		"XXXXXXXXXXXXXXXX",
		"1111000011110000",
		"0X0X0X0X0X0X0X0X",
		"0000000000000000",
	)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// mustNotPanic runs f and converts a panic into a test failure naming
// the scenario, so one bad codec reports instead of aborting the suite.
func mustNotPanic(t *testing.T, scenario string, f func()) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Errorf("%s panicked: %v", scenario, p)
		}
	}()
	f()
}

// TestAdversarialBufferedDecode mutates every codec's v2 container —
// every truncation length and every byte flipped — and requires the
// Open/Decompress path to return errors, never panic.
func TestAdversarialBufferedDecode(t *testing.T) {
	ts := adversarialSet(t)
	for _, name := range Codecs() {
		codec, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		art, err := codec.Compress(context.Background(), ts, conformanceOpts(1)...)
		if err != nil {
			t.Fatalf("%s: compress: %v", name, err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, art); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		blob := buf.Bytes()

		decode := func(scenario string, b []byte) {
			mustNotPanic(t, scenario, func() {
				a, err := Open(bytes.NewReader(b))
				if err != nil {
					return // rejected at parse: exactly right
				}
				// A flipped dimension byte can declare a large-but-legal
				// decode (validation only rejects products beyond
				// MaxTotalBits); run-length decoders then legitimately
				// synthesize megabits of implied zeros. That is correct
				// behavior with nothing left to prove, so bound the work
				// to keep the exhaustive mutation sweep fast. The hostile
				// (over-cap) product class is pinned separately in
				// TestAdversarialArtifacts.
				if a.Width*a.Patterns > 1<<20 {
					return
				}
				_, _ = Decompress(a) // error or success; no panic
			})
		}
		for cut := 0; cut < len(blob); cut++ {
			decode(fmt.Sprintf("%s: truncated at %d", name, cut), blob[:cut])
		}
		for i := 0; i < len(blob); i++ {
			for _, flip := range []byte{0xFF, 0x80, 0x01} {
				mut := append([]byte(nil), blob...)
				mut[i] ^= flip
				decode(fmt.Sprintf("%s: byte %d ^ %#x", name, i, flip), mut)
			}
		}
	}
}

// TestAdversarialStreamingDecode does the same through NewStreamReader,
// which opens every container version: truncations and byte flips of a
// chunked v3 stream and of a v2 container must error (or decode
// cleanly), never panic.
func TestAdversarialStreamingDecode(t *testing.T) {
	ts := adversarialSet(t)
	for _, name := range Codecs() {
		blobs := map[string][]byte{}
		for _, format := range []string{"v2", "v3"} {
			var buf bytes.Buffer
			if _, err := CompressTo(context.Background(), &buf, name, format, ts.Width, PatternsOf(ts), nil,
				append(conformanceOpts(1), WithChunkPatterns(2))...); err != nil {
				t.Fatalf("%s: %s container: %v", name, format, err)
			}
			blobs[format] = buf.Bytes()
		}

		decode := func(scenario string, b []byte) {
			mustNotPanic(t, scenario, func() {
				// A v2 container decodes whole on open. Bound a flipped
				// dimension's large-but-legal decode exactly as
				// TestAdversarialBufferedDecode does.
				if a, err := Open(bytes.NewReader(b)); err == nil && a.Width*a.Patterns > 1<<20 {
					return
				}
				sr, err := NewStreamReader(bytes.NewReader(b))
				if err != nil {
					return
				}
				_, _ = sr.ReadAll()
			})
		}
		for format, blob := range blobs {
			step := 1
			if len(blob) > 512 {
				step = len(blob) / 512
			}
			for cut := 0; cut < len(blob); cut += step {
				decode(fmt.Sprintf("%s: %s truncated at %d", name, format, cut), blob[:cut])
			}
			for i := 0; i < len(blob); i += step {
				mut := append([]byte(nil), blob...)
				mut[i] ^= 0xFF
				decode(fmt.Sprintf("%s: %s byte %d flipped", name, format, i), mut)
			}
		}
	}
}

// TestAdversarialArtifacts drives hand-built artifacts — the shapes a
// buggy caller or a hostile header could produce — through Decompress:
// inconsistent payload bit counts (the historical NewReader panic),
// hostile dimension products, zero patterns, and empty payloads.
func TestAdversarialArtifacts(t *testing.T) {
	ts := adversarialSet(t)
	for _, name := range Codecs() {
		codec, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		art, err := codec.Compress(context.Background(), ts, conformanceOpts(1)...)
		if err != nil {
			t.Fatalf("%s: compress: %v", name, err)
		}

		// NBits beyond the payload: previously bitstream.NewReader
		// panicked ("nbit exceeds buffer"); now the decode must fail
		// with an error wrapping bitstream.ErrBitCount.
		over := *art
		over.NBits = len(over.Payload)*8 + 64
		over.CompressedBits = over.NBits
		mustNotPanic(t, name+": oversized NBits", func() {
			if _, err := Decompress(&over); err == nil {
				t.Errorf("%s: decompressing an artifact with NBits beyond the payload succeeded", name)
			} else if !errors.Is(err, bitstream.ErrBitCount) && !errors.Is(err, bitstream.ErrEOS) {
				t.Errorf("%s: oversized NBits error %v does not wrap ErrBitCount/ErrEOS", name, err)
			}
		})

		// A header demanding more blocks than the payload has bits: the
		// block codecs must reject it before allocating block slots (a
		// K=1 blob with MaxTotalBits-scale dimensions would otherwise
		// reserve gigabytes of Vector headers from a tiny container).
		if name == "ea" || name == "9c" || name == "9chc" {
			short := *art
			short.Width, short.Patterns = 1<<15, 1<<15 // 2^30 bits, within MaxTotalBits
			mustNotPanic(t, name+": blocks beyond payload", func() {
				if _, err := Decompress(&short); err == nil {
					t.Errorf("%s: decode with %d blocks over %d payload bits succeeded", name, short.Width*short.Patterns, short.NBits)
				}
			})
		}

		// Hostile dimension product: must be rejected by validation, not
		// by the allocator.
		huge := *art
		huge.Width, huge.Patterns = container.MaxWidth, container.MaxPatterns
		mustNotPanic(t, name+": hostile dimensions", func() {
			if _, err := Decompress(&huge); err == nil {
				t.Errorf("%s: decompressing a %dx%d artifact succeeded", name, huge.Width, huge.Patterns)
			}
		})

		// Zero patterns with a leftover payload: decoders must not read
		// past what the dimensions imply.
		empty := *art
		empty.Patterns = 0
		mustNotPanic(t, name+": zero patterns", func() { _, _ = Decompress(&empty) })

		// Empty payload: everything is implied zeros or an EOS error.
		bare := *art
		bare.Payload, bare.NBits = nil, 0
		mustNotPanic(t, name+": empty payload", func() { _, _ = Decompress(&bare) })
	}
}

// TestAdversarialCompressInputs: compression of degenerate inputs — an
// empty test set, a fully unspecified one — returns an artifact or an
// error, never panics; successful artifacts round-trip losslessly.
func TestAdversarialCompressInputs(t *testing.T) {
	allX, err := ParseTestSet("XXXXXXXX", "XXXXXXXX")
	if err != nil {
		t.Fatal(err)
	}
	inputs := []struct {
		label string
		ts    *TestSet
	}{
		{"empty set", NewTestSet(8)},
		{"all-X set", allX},
	}
	for _, name := range Codecs() {
		codec, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range inputs {
			scenario := fmt.Sprintf("%s: compress %s", name, in.label)
			mustNotPanic(t, scenario, func() {
				art, err := codec.Compress(context.Background(), in.ts, conformanceOpts(1)...)
				if err != nil {
					return // a clean rejection is acceptable
				}
				var buf bytes.Buffer
				if err := Write(&buf, art); err != nil {
					t.Errorf("%s: write: %v", scenario, err)
					return
				}
				back, err := Open(&buf)
				if err != nil {
					t.Errorf("%s: reopen: %v", scenario, err)
					return
				}
				dec, err := Decompress(back)
				if err != nil {
					t.Errorf("%s: decode: %v", scenario, err)
					return
				}
				if !VerifyLossless(in.ts, dec) {
					t.Errorf("%s: lossy round-trip", scenario)
				}
			})
		}
	}
}

// TestScannerRejectsHostileHeaders pins the parse boundary: absurd or
// malformed textual headers fail in NewScanner with an error instead of
// reaching the constructors that treat bad dimensions as programmer
// error.
func TestScannerRejectsHostileHeaders(t *testing.T) {
	for _, header := range []string{
		"0 1",
		"-4 1",
		"4 -1",
		"99999999999999999999 1", // overflows int
		"16777217 *",             // above MaxHeaderWidth
		"4 268435457",            // above MaxHeaderPatterns
		"x y",
	} {
		if _, err := testset.NewScanner(bytes.NewReader([]byte(header + "\n0101\n"))); err == nil {
			t.Errorf("header %q accepted, want error", header)
		}
	}
}

// TestSelhuffParamsLargeDictionary hands decodeSelhuffParams the largest
// dictionary a selhuff parameter blob holds, 65 535 words from the
// request: checking that its stored code is prefix-free must take well
// under a second, and one duplicated codeword among them must still be
// found.
func TestSelhuffParamsLargeDictionary(t *testing.T) {
	const d = 0xFFFF
	res := &selhuff.Result{K: 16, D: d, Dictionary: make([]uint64, d),
		Code: &huffman.Code{Lengths: make([]int, d), Words: make([]uint64, d)}}
	for i := range res.Dictionary {
		res.Dictionary[i] = uint64(i)
		res.Code.Lengths[i], res.Code.Words[i] = 16, uint64(i)
	}
	blob, err := encodeSelhuffParams(res)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	got, err := decodeSelhuffParams(blob)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if got.D != d {
		t.Fatalf("decoded %d dictionary words, want %d", got.D, d)
	}
	t.Logf("%d-word selhuff params decoded in %v", d, elapsed)
	if elapsed > 500*time.Millisecond {
		t.Errorf("%d-word selhuff params took %v to decode, want well under a second", d, elapsed)
	}

	res.Code.Words[d-1] = 12345
	if blob, err = encodeSelhuffParams(res); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeSelhuffParams(blob); err == nil {
		t.Fatal("a stored code with a duplicated codeword was accepted")
	}
}
