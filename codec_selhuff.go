package tcomp

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"

	"repro/internal/bitstream"
	"repro/internal/huffman"
	"repro/internal/selhuff"
	"repro/internal/tritvec"
)

// Selective Huffman coding's parameter blob carries the dictionary the
// decoder needs (big-endian):
//
//	k     uint8    block size (1..62)
//	d     uint16   dictionary size (>= 1)
//	per d: dictionary pattern uint64
//	per d: codeword length uint8 (1..64), codeword bits uint64
func init() {
	Register(&codec{
		name: "selhuff",
		encode: func(_ context.Context, ts *TestSet, o options) (encoded, error) {
			d := o.dictSize
			if d == 0 {
				d = 8
			}
			res, err := selhuff.Compress(ts, blockLenOr(o, 8), d)
			if err != nil {
				return encoded{}, err
			}
			params, err := encodeSelhuffParams(res)
			if err != nil {
				return encoded{}, err
			}
			return encoded{params: params, payload: res.Stream, extra: res}, nil
		},
		decode: func(params []byte, r *bitstream.Reader, totalBits int) (tritvec.Vector, error) {
			res, err := decodeSelhuffParams(params)
			if err != nil {
				return tritvec.Vector{}, err
			}
			return selhuff.Decompress(r, res, totalBits)
		},
	})
}

func encodeSelhuffParams(res *selhuff.Result) ([]byte, error) {
	if res.K < 1 || res.K > 62 {
		return nil, fmt.Errorf("tcomp: selhuff block size %d out of range [1,62]", res.K)
	}
	if len(res.Dictionary) < 1 || len(res.Dictionary) > 0xFFFF {
		return nil, fmt.Errorf("tcomp: selhuff dictionary size %d out of range [1,65535]", len(res.Dictionary))
	}
	if len(res.Code.Lengths) != len(res.Dictionary) {
		return nil, fmt.Errorf("tcomp: selhuff code has %d entries for %d dictionary words",
			len(res.Code.Lengths), len(res.Dictionary))
	}
	var buf bytes.Buffer
	buf.WriteByte(byte(res.K))
	if err := binary.Write(&buf, binary.BigEndian, uint16(len(res.Dictionary))); err != nil {
		return nil, err
	}
	for _, w := range res.Dictionary {
		if err := binary.Write(&buf, binary.BigEndian, w); err != nil {
			return nil, err
		}
	}
	for i := range res.Dictionary {
		l := res.Code.Lengths[i]
		if l < 0 || l > 64 {
			return nil, fmt.Errorf("tcomp: selhuff codeword %d length %d out of range [0,64]", i, l)
		}
		buf.WriteByte(byte(l))
		if err := binary.Write(&buf, binary.BigEndian, res.Code.Words[i]); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

func decodeSelhuffParams(blob []byte) (*selhuff.Result, error) {
	r := bytes.NewReader(blob)
	k, err := r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("tcomp: truncated selhuff params: %v", err)
	}
	if k < 1 || k > 62 {
		return nil, fmt.Errorf("tcomp: selhuff block size %d out of range [1,62]", k)
	}
	var d uint16
	if err := binary.Read(r, binary.BigEndian, &d); err != nil {
		return nil, fmt.Errorf("tcomp: truncated selhuff params: %v", err)
	}
	if d < 1 {
		return nil, fmt.Errorf("tcomp: selhuff dictionary size must be >= 1")
	}
	dict := make([]uint64, d)
	for i := range dict {
		if err := binary.Read(r, binary.BigEndian, &dict[i]); err != nil {
			return nil, fmt.Errorf("tcomp: truncated selhuff dictionary: %v", err)
		}
	}
	lengths := make([]int, d)
	words := make([]uint64, d)
	for i := range lengths {
		l, err := r.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("tcomp: truncated selhuff code: %v", err)
		}
		if l > 64 {
			return nil, fmt.Errorf("tcomp: selhuff codeword %d length %d exceeds 64", i, l)
		}
		lengths[i] = int(l)
		if err := binary.Read(r, binary.BigEndian, &words[i]); err != nil {
			return nil, fmt.Errorf("tcomp: truncated selhuff code: %v", err)
		}
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("tcomp: %d trailing bytes in selhuff params", r.Len())
	}
	code := &huffman.Code{Lengths: lengths, Words: words}
	if !code.IsPrefixFree() {
		return nil, fmt.Errorf("tcomp: selhuff stored code is not prefix-free")
	}
	return &selhuff.Result{K: int(k), D: int(d), Dictionary: dict, Code: code}, nil
}
