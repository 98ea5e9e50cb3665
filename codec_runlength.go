package tcomp

import (
	"context"
	"encoding/binary"
	"fmt"

	"repro/internal/bitstream"
	"repro/internal/fdr"
	"repro/internal/golomb"
	"repro/internal/runlength"
	"repro/internal/tritvec"
)

// The run-length-family coders (Golomb, FDR, fixed-block run-length)
// zero-fill the don't-cares and encode 0-runs; decompression therefore
// reconstructs the zero-filled string, which preserves every specified
// bit of the original. Their parameter blobs are scalars:
//
//	golomb: M  uint32   (1..maxGolombM)
//	rl:     b  uint8    counter width (1..30)
//	fdr:    —  (empty; the code is parameter-free)

const maxGolombM = 1 << 20

func init() {
	Register(&codec{
		name: "golomb",
		encode: func(_ context.Context, ts *TestSet, o options) (encoded, error) {
			var res *golomb.Result
			var err error
			if o.golombM > 0 {
				res, err = golomb.Compress(ts, o.golombM)
			} else {
				res, err = golomb.CompressBest(ts)
			}
			if err != nil {
				return encoded{}, err
			}
			if res.M > maxGolombM {
				return encoded{}, fmt.Errorf("tcomp: golomb M %d exceeds format limit %d", res.M, maxGolombM)
			}
			return encoded{params: binary.BigEndian.AppendUint32(nil, uint32(res.M)), payload: res.Stream, extra: res}, nil
		},
		decode: func(params []byte, r *bitstream.Reader, totalBits int) (tritvec.Vector, error) {
			if len(params) != 4 {
				return tritvec.Vector{}, fmt.Errorf("tcomp: golomb params are %d bytes, want 4", len(params))
			}
			m := int(binary.BigEndian.Uint32(params))
			if m < 1 || m > maxGolombM {
				return tritvec.Vector{}, fmt.Errorf("tcomp: golomb M %d out of range [1,%d]", m, maxGolombM)
			}
			return golomb.Decompress(r, m, totalBits)
		},
	})
	Register(&codec{
		name: "fdr",
		encode: func(_ context.Context, ts *TestSet, _ options) (encoded, error) {
			res, err := fdr.Compress(ts)
			if err != nil {
				return encoded{}, err
			}
			return encoded{payload: res.Stream, extra: res}, nil
		},
		decode: func(params []byte, r *bitstream.Reader, totalBits int) (tritvec.Vector, error) {
			if len(params) != 0 {
				return tritvec.Vector{}, fmt.Errorf("tcomp: fdr expects an empty parameter blob, got %d bytes", len(params))
			}
			return fdr.Decompress(r, totalBits)
		},
	})
	Register(&codec{
		name: "rl",
		encode: func(_ context.Context, ts *TestSet, o options) (encoded, error) {
			b := o.counterW
			if b == 0 {
				b = 4
			}
			res, err := runlength.Compress(ts, b)
			if err != nil {
				return encoded{}, err
			}
			return encoded{params: []byte{byte(b)}, payload: res.Stream, extra: res}, nil
		},
		decode: func(params []byte, r *bitstream.Reader, totalBits int) (tritvec.Vector, error) {
			if len(params) != 1 {
				return tritvec.Vector{}, fmt.Errorf("tcomp: rl params are %d bytes, want 1", len(params))
			}
			b := int(params[0])
			if b < runlength.MinCounterWidth || b > runlength.MaxCounterWidth {
				return tritvec.Vector{}, fmt.Errorf("tcomp: rl counter width %d out of range [%d,%d]",
					b, runlength.MinCounterWidth, runlength.MaxCounterWidth)
			}
			return runlength.Decompress(r, b, totalBits)
		},
	})
}
