package tcomp

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/testset"
)

// fuzzMaxTrits caps Width·Patterns in FuzzDecompress, so every execution
// decodes at most 64 Ki trits and stays fast. It bounds time, not
// memory: how much a decoder may allocate for a declared size is not
// what this target checks.
const fuzzMaxTrits = 1 << 16

// FuzzDecompress drives every codec's decoder through Decompress with a
// codec, dimensions, a parameter blob and a payload taken from the fuzz
// input. Decompress must never panic, and a decode that succeeds must
// be Width×Patterns and fully specified. The corpus seeds one valid
// artifact per codec and truncations of its payload and parameters.
func FuzzDecompress(f *testing.F) {
	ts := testset.Random(13, 9, 0.3, rand.New(rand.NewSource(81)))
	for i, name := range sevenCodecs {
		codec, err := Lookup(name)
		if err != nil {
			f.Fatal(err)
		}
		art, err := codec.Compress(context.Background(), ts, conformanceOpts(1)...)
		if err != nil {
			f.Fatal(err)
		}
		add := func(params []byte, nbits int) {
			f.Add(uint8(i), uint16(art.Width), uint16(art.Patterns), params, art.Payload[:(nbits+7)/8], uint32(nbits))
		}
		for _, nbits := range []int{art.NBits, art.NBits - 1, art.NBits / 2, 1, 0} {
			add(art.Params, max(nbits, 0))
		}
		add(art.Params[:len(art.Params)/2], art.NBits)
	}
	f.Fuzz(func(t *testing.T, codec uint8, width, patterns uint16, params, payload []byte, nbits uint32) {
		w := 1 + int(width)%fuzzMaxTrits
		p := int(patterns) % (fuzzMaxTrits/w + 1)
		art := &Artifact{
			Codec:    sevenCodecs[int(codec)%len(sevenCodecs)],
			Width:    w,
			Patterns: p,
			Params:   params,
			Payload:  payload,
			NBits:    int(nbits),
		}
		dec, err := Decompress(art)
		if err != nil {
			return
		}
		if dec.Width != w || dec.NumPatterns() != p {
			t.Fatalf("%s decoded %dx%d, artifact declares %dx%d", art.Codec, dec.NumPatterns(), dec.Width, p, w)
		}
		for i, pat := range dec.Patterns {
			if pat.Len() != w || pat.CountX() != 0 {
				t.Fatalf("%s pattern %d is %q, want %d specified trits", art.Codec, i, pat, w)
			}
		}
	})
}
