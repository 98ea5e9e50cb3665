package tcomp

import (
	"context"

	"repro/internal/bitstream"
	"repro/internal/blockcode"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/ninec"
	"repro/internal/tritvec"
)

// The three block-structured schemes, the paper's EA compressor and the
// 9C / 9C+HC baselines, share one artifact shape: the parameter blob
// carries the MV table and codeword list (container.EncodeBlockParams),
// the payload the encoded block stream.

// blockEncoded frames a block-code result, or passes its error on.
func blockEncoded(res *blockcode.Result, extra any, err error) (encoded, error) {
	if err != nil {
		return encoded{}, err
	}
	params, err := container.EncodeBlockParams(res.Set, res.Code)
	if err != nil {
		return encoded{}, err
	}
	return encoded{params: params, payload: res.Stream, extra: extra}, nil
}

// decodeBlock is the decode step of all three block codecs.
func decodeBlock(params []byte, r *bitstream.Reader, totalBits int) (tritvec.Vector, error) {
	set, code, err := container.DecodeBlockParams(params)
	if err != nil {
		return tritvec.Vector{}, err
	}
	return blockcode.Decode(r, set, code, totalBits)
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
	Register(&codec{
		name: "ea",
		encode: func(ctx context.Context, ts *TestSet, o options) (encoded, error) {
			res, err := core.CompressCtx(ctx, ts, eaParamsFromOptions(o))
			if err != nil {
				return encoded{}, err
			}
			return blockEncoded(res.Final, res, nil)
		},
		decode: decodeBlock,
	})
	Register(&codec{
		name: "9c",
		encode: func(_ context.Context, ts *TestSet, o options) (encoded, error) {
			res, err := ninec.Compress(ts, blockLenOr(o, 8))
			return blockEncoded(res, nil, err)
		},
		decode: decodeBlock,
	})
	Register(&codec{
		name: "9chc",
		encode: func(_ context.Context, ts *TestSet, o options) (encoded, error) {
			res, err := ninec.CompressHC(ts, blockLenOr(o, 8))
			return blockEncoded(res, nil, err)
		},
		decode: decodeBlock,
	})
}
