// Per-codec parameter blobs for the v2 universal container. The block
// codecs (ea, 9c, 9chc) share one blob layout — essentially the v1
// structural header relocated behind the opaque-params indirection:
//
//	k      uint16   block length (1..MaxBlockLen)
//	nMVs   uint16   matching-vector count (1..65535)
//	per MV: k trits packed 2 bits each (00=U, 01=0, 10=1), byte-padded
//	per MV: codeword length uint8 (0..64), codeword bits uint64
//
// The scalar coders define their own micro-blobs in the public package
// (golomb: M uint32; rl: b uint8; fdr: empty; selhuff: dictionary+code).
package container

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/blockcode"
	"repro/internal/huffman"
	"repro/internal/tritvec"
)

// MaxBlockLen bounds the block length K a blob may declare.
const MaxBlockLen = 1 << 12

// maxCodewordLen is the widest codeword the uint64 word field can carry.
const maxCodewordLen = 64

// EncodeBlockParams serializes an MV set and its codeword table as a
// block-codec parameter blob.
func EncodeBlockParams(set *blockcode.MVSet, code *huffman.Code) ([]byte, error) {
	if set == nil || code == nil {
		return nil, fmt.Errorf("container: nil MV set or code")
	}
	if set.K < 1 || set.K > MaxBlockLen {
		return nil, fmt.Errorf("container: block length %d out of range [1,%d]", set.K, MaxBlockLen)
	}
	if len(set.MVs) < 1 || len(set.MVs) > 0xFFFF {
		return nil, fmt.Errorf("container: MV count %d out of range [1,65535]", len(set.MVs))
	}
	if len(code.Lengths) != len(set.MVs) || len(code.Words) != len(set.MVs) {
		return nil, fmt.Errorf("container: code has %d/%d entries for %d MVs",
			len(code.Lengths), len(code.Words), len(set.MVs))
	}
	for i, l := range code.Lengths {
		if l < 0 || l > maxCodewordLen {
			return nil, fmt.Errorf("container: codeword %d length %d out of range [0,%d]", i, l, maxCodewordLen)
		}
	}
	buf := binary.BigEndian.AppendUint16(nil, uint16(set.K))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(set.MVs)))
	return appendBlockTables(buf, set, code), nil
}

// appendBlockTables appends the MV table and codeword list shared by the
// v1 body and the v2 block-parameter blob, as readBlockTables reads
// them: each MV packed 2 bits per trit and byte-padded, then each
// codeword's length byte and bits.
func appendBlockTables(buf []byte, set *blockcode.MVSet, code *huffman.Code) []byte {
	for _, mv := range set.MVs {
		buf = mv.AppendPacked(buf, 0)
	}
	for i := range set.MVs {
		buf = append(buf, uint8(code.Lengths[i]))
		buf = binary.BigEndian.AppendUint64(buf, code.Words[i])
	}
	return buf
}

// DecodeBlockParams parses a block-codec parameter blob, validating the
// dimensions and that the stored code is prefix-free. The blob must be
// exactly consumed.
func DecodeBlockParams(blob []byte) (*blockcode.MVSet, *huffman.Code, error) {
	r := bytes.NewReader(blob)
	var k, nMVs uint16
	for _, v := range []interface{}{&k, &nMVs} {
		if err := binary.Read(r, binary.BigEndian, v); err != nil {
			return nil, nil, fmt.Errorf("container: truncated block params: %v", err)
		}
	}
	set, code, err := readBlockTables(r, int(k), int(nMVs))
	if err != nil {
		return nil, nil, err
	}
	if r.Len() != 0 {
		return nil, nil, fmt.Errorf("container: %d trailing bytes in block params", r.Len())
	}
	return set, code, nil
}

// readBlockTables reads the MV table and codeword list shared by the v1
// body and the v2 block-parameter blob.
func readBlockTables(r io.Reader, k, nMVs int) (*blockcode.MVSet, *huffman.Code, error) {
	if k < 1 || k > MaxBlockLen {
		return nil, nil, fmt.Errorf("container: block length %d out of range [1,%d]", k, MaxBlockLen)
	}
	if nMVs < 1 {
		return nil, nil, fmt.Errorf("container: MV count %d out of range [1,65535]", nMVs)
	}
	mvs := make([]tritvec.Vector, nMVs)
	for i := range mvs {
		mv, err := readMV(r, k)
		if err != nil {
			return nil, nil, err
		}
		mvs[i] = mv
	}
	set, err := blockcode.NewMVSet(k, mvs)
	if err != nil {
		return nil, nil, err
	}
	lengths := make([]int, nMVs)
	words := make([]uint64, nMVs)
	for i := range lengths {
		var l uint8
		if err := binary.Read(r, binary.BigEndian, &l); err != nil {
			return nil, nil, err
		}
		if int(l) > maxCodewordLen {
			return nil, nil, fmt.Errorf("container: codeword %d length %d exceeds %d", i, l, maxCodewordLen)
		}
		if err := binary.Read(r, binary.BigEndian, &words[i]); err != nil {
			return nil, nil, err
		}
		lengths[i] = int(l)
	}
	code := &huffman.Code{Lengths: lengths, Words: words}
	if !code.IsPrefixFree() {
		return nil, nil, fmt.Errorf("container: stored code is not prefix-free")
	}
	return set, code, nil
}
