package tcomp

import (
	"context"
	"fmt"

	"repro/internal/blockcode"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/ninec"
	"repro/internal/testset"
)

// blockCodec adapts the three block-structured schemes — the paper's EA
// compressor and the 9C / 9C+HC baselines — to the Codec interface. They
// share one artifact shape: the parameter blob carries the MV table and
// codeword list (container.EncodeBlockParams), the payload the encoded
// block stream.
type blockCodec struct {
	name     string
	compress func(ctx context.Context, ts *TestSet, o options) (*blockcode.Result, any, error)
}

func (c *blockCodec) Name() string { return c.name }

func (c *blockCodec) Compress(ctx context.Context, ts *TestSet, opts ...Option) (*Artifact, error) {
	o := buildOptions(opts)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, extra, err := c.compress(ctx, ts, o)
	if err != nil {
		return nil, err
	}
	if res.Stream == nil {
		return nil, fmt.Errorf("tcomp: %s produced no encoded stream", c.name)
	}
	params, err := container.EncodeBlockParams(res.Set, res.Code)
	if err != nil {
		return nil, err
	}
	return &Artifact{
		Codec:          c.name,
		Width:          ts.Width,
		Patterns:       ts.NumPatterns(),
		OriginalBits:   res.OriginalBits,
		CompressedBits: res.CompressedBits,
		Params:         params,
		Payload:        res.Stream.Bytes(),
		NBits:          res.Stream.Len(),
		Extra:          extra,
	}, nil
}

func (c *blockCodec) Decompress(a *Artifact) (*TestSet, error) {
	set, code, err := container.DecodeBlockParams(a.Params)
	if err != nil {
		return nil, err
	}
	flat, err := blockcode.Decode(a.BitReader(), set, code, a.Width*a.Patterns)
	if err != nil {
		return nil, err
	}
	return testset.FromFlat(flat, a.Width)
}

// eaParamsFromOptions resolves the evolutionary compressor's
// configuration: WithEAParams as the base (else the paper defaults at
// the option seed), refined by the scalar options.
func eaParamsFromOptions(o options) EAParams {
	p := DefaultEAParams(o.seed)
	if o.ea != nil {
		p = *o.ea
		if o.seedSet {
			p.EA.Seed = o.seed
		}
	}
	if o.blockLen > 0 {
		p.K = o.blockLen
	}
	if o.mvCount > 0 {
		p.L = o.mvCount
	}
	if o.runs > 0 {
		p.Runs = o.runs
	}
	if o.workers != 0 {
		p.Workers = o.workers
	}
	return p
}

// blockLenOr returns the option block length or the codec default.
func blockLenOr(o options, def int) int {
	if o.blockLen > 0 {
		return o.blockLen
	}
	return def
}

func init() {
	Register(&blockCodec{
		name: "ea",
		compress: func(ctx context.Context, ts *TestSet, o options) (*blockcode.Result, any, error) {
			res, err := core.CompressCtx(ctx, ts, eaParamsFromOptions(o))
			if err != nil {
				return nil, nil, err
			}
			return res.Final, res, nil
		},
	})
	Register(&blockCodec{
		name: "9c",
		compress: func(ctx context.Context, ts *TestSet, o options) (*blockcode.Result, any, error) {
			res, err := ninec.Compress(ts, blockLenOr(o, 8))
			return res, nil, err
		},
	})
	Register(&blockCodec{
		name: "9chc",
		compress: func(ctx context.Context, ts *TestSet, o options) (*blockcode.Result, any, error) {
			res, err := ninec.CompressHC(ts, blockLenOr(o, 8))
			return res, nil, err
		},
	})
}
