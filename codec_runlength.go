package tcomp

import (
	"context"
	"encoding/binary"
	"fmt"

	"repro/internal/fdr"
	"repro/internal/golomb"
	"repro/internal/runlength"
	"repro/internal/testset"
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

type golombCodec struct{}

func (golombCodec) Name() string { return "golomb" }

func (golombCodec) Compress(ctx context.Context, ts *TestSet, opts ...Option) (*Artifact, error) {
	o := buildOptions(opts)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var res *golomb.Result
	var err error
	if o.golombM > 0 {
		res, err = golomb.Compress(ts, o.golombM)
	} else {
		res, err = golomb.CompressBest(ts)
	}
	if err != nil {
		return nil, err
	}
	if res.M > maxGolombM {
		return nil, fmt.Errorf("tcomp: golomb M %d exceeds format limit %d", res.M, maxGolombM)
	}
	params := make([]byte, 4)
	binary.BigEndian.PutUint32(params, uint32(res.M))
	return &Artifact{
		Codec:          "golomb",
		Width:          ts.Width,
		Patterns:       ts.NumPatterns(),
		OriginalBits:   res.OriginalBits,
		CompressedBits: res.CompressedBits,
		Params:         params,
		Payload:        res.Stream.Bytes(),
		NBits:          res.Stream.Len(),
		Extra:          res,
	}, nil
}

func (golombCodec) Decompress(a *Artifact) (*TestSet, error) {
	if len(a.Params) != 4 {
		return nil, fmt.Errorf("tcomp: golomb params are %d bytes, want 4", len(a.Params))
	}
	m := int(binary.BigEndian.Uint32(a.Params))
	if m < 1 || m > maxGolombM {
		return nil, fmt.Errorf("tcomp: golomb M %d out of range [1,%d]", m, maxGolombM)
	}
	flat, err := golomb.Decompress(a.BitReader(), m, a.Width*a.Patterns)
	if err != nil {
		return nil, err
	}
	return testset.FromFlat(flat, a.Width)
}

type fdrCodec struct{}

func (fdrCodec) Name() string { return "fdr" }

func (fdrCodec) Compress(ctx context.Context, ts *TestSet, opts ...Option) (*Artifact, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := fdr.Compress(ts)
	if err != nil {
		return nil, err
	}
	return &Artifact{
		Codec:          "fdr",
		Width:          ts.Width,
		Patterns:       ts.NumPatterns(),
		OriginalBits:   res.OriginalBits,
		CompressedBits: res.CompressedBits,
		Payload:        res.Stream.Bytes(),
		NBits:          res.Stream.Len(),
		Extra:          res,
	}, nil
}

func (fdrCodec) Decompress(a *Artifact) (*TestSet, error) {
	if len(a.Params) != 0 {
		return nil, fmt.Errorf("tcomp: fdr expects an empty parameter blob, got %d bytes", len(a.Params))
	}
	flat, err := fdr.Decompress(a.BitReader(), a.Width*a.Patterns)
	if err != nil {
		return nil, err
	}
	return testset.FromFlat(flat, a.Width)
}

type rlCodec struct{}

func (rlCodec) Name() string { return "rl" }

func (rlCodec) Compress(ctx context.Context, ts *TestSet, opts ...Option) (*Artifact, error) {
	o := buildOptions(opts)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b := o.counterW
	if b == 0 {
		b = 4
	}
	res, err := runlength.Compress(ts, b)
	if err != nil {
		return nil, err
	}
	return &Artifact{
		Codec:          "rl",
		Width:          ts.Width,
		Patterns:       ts.NumPatterns(),
		OriginalBits:   res.OriginalBits,
		CompressedBits: res.CompressedBits,
		Params:         []byte{byte(b)},
		Payload:        res.Stream.Bytes(),
		NBits:          res.Stream.Len(),
		Extra:          res,
	}, nil
}

func (rlCodec) Decompress(a *Artifact) (*TestSet, error) {
	if len(a.Params) != 1 {
		return nil, fmt.Errorf("tcomp: rl params are %d bytes, want 1", len(a.Params))
	}
	b := int(a.Params[0])
	if b < runlength.MinCounterWidth || b > runlength.MaxCounterWidth {
		return nil, fmt.Errorf("tcomp: rl counter width %d out of range [%d,%d]",
			b, runlength.MinCounterWidth, runlength.MaxCounterWidth)
	}
	flat, err := runlength.Decompress(a.BitReader(), b, a.Width*a.Patterns)
	if err != nil {
		return nil, err
	}
	return testset.FromFlat(flat, a.Width)
}

func init() {
	Register(golombCodec{})
	Register(fdrCodec{})
	Register(rlCodec{})
}
