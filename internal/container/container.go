// Package container defines the on-disk format for compressed test data:
// a self-describing header followed by the encoded bitstream. The format
// is what a tester would ship together with the decoder configuration.
//
// Two format versions exist. Version 2 (see v2.go) is the universal
// container written by all current tools: it names the codec and carries
// an opaque per-codec parameter blob, so every registered compression
// scheme round-trips. Version 1, kept readable for compatibility, is the
// legacy block-codec-only layout (big-endian):
//
//	magic   [4]byte  "TCMP"
//	version uint8    (1)
//	method  uint8    (Method)
//	k       uint16   block length
//	width   uint32   circuit inputs
//	tCount  uint32   pattern count
//	nMVs    uint16   matching vector count
//	per MV: k trits packed 2 bits each (00=U, 01=0, 10=1), byte-padded
//	per MV: codeword length uint8, codeword bits uint64
//	nbits   uint32   payload bit count
//	payload ceil(nbits/8) bytes
//
// Both readers bounds-check every header field (dimension caps, chunked
// section reads) before allocating, so truncated or hostile containers
// fail fast instead of exhausting memory.
package container

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/blockcode"
	"repro/internal/huffman"
	"repro/internal/tritvec"
)

// Method identifies the compression scheme.
type Method uint8

// Known methods.
const (
	MethodEA Method = iota + 1
	Method9C
	Method9CHC
)

// String names the method.
func (m Method) String() string {
	switch m {
	case MethodEA:
		return "ea"
	case Method9C:
		return "9c"
	case Method9CHC:
		return "9c+hc"
	}
	return fmt.Sprintf("method(%d)", uint8(m))
}

var magic = [4]byte{'T', 'C', 'M', 'P'}

// File is a parsed compressed container.
type File struct {
	Method   Method
	K        int
	Width    int
	Patterns int
	Set      *blockcode.MVSet
	Code     *huffman.Code
	Payload  []byte
	NBits    int
}

// Write serializes a compression result.
func Write(w io.Writer, method Method, width, patterns int, res *blockcode.Result) error {
	if res.Stream == nil {
		return fmt.Errorf("container: result has no encoded stream")
	}
	if len(res.Set.MVs) > 0xFFFF || res.Set.K > 0xFFFF {
		return fmt.Errorf("container: dimensions exceed format limits")
	}
	buf := append(append([]byte(nil), magic[:]...), 1, uint8(method))
	buf = binary.BigEndian.AppendUint16(buf, uint16(res.Set.K))
	buf = binary.BigEndian.AppendUint32(buf, uint32(width))
	buf = binary.BigEndian.AppendUint32(buf, uint32(patterns))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(res.Set.MVs)))
	buf = appendBlockTables(buf, res.Set, res.Code)
	buf = binary.BigEndian.AppendUint32(buf, uint32(res.Stream.Len()))
	if _, err := w.Write(buf); err != nil {
		return err
	}
	_, err := w.Write(res.Stream.Bytes())
	return err
}

func readMV(r io.Reader, k int) (tritvec.Vector, error) {
	buf := make([]byte, (2*k+7)/8)
	if _, err := io.ReadFull(r, buf); err != nil {
		return tritvec.Vector{}, err
	}
	mv, err := tritvec.ParsePacked(buf, 0, k)
	if err != nil {
		return tritvec.Vector{}, fmt.Errorf("container: MV table: %w", err)
	}
	return mv, nil
}

// Read parses a legacy v1 container. New code should prefer ReadAny,
// which also understands the universal v2 format.
func Read(r io.Reader) (*File, error) {
	var m [4]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return nil, err
	}
	if m != magic {
		return nil, fmt.Errorf("container: bad magic %q", m)
	}
	var version uint8
	if err := binary.Read(r, binary.BigEndian, &version); err != nil {
		return nil, err
	}
	if version != 1 {
		return nil, fmt.Errorf("container: unsupported version %d", version)
	}
	return readV1Body(r)
}

// readV1Body parses everything after the magic and version byte of a v1
// container, bounds-checking each dimension before it drives an
// allocation.
func readV1Body(r io.Reader) (*File, error) {
	var method uint8
	var k, nMVs uint16
	var width, patterns uint32
	for _, v := range []interface{}{&method, &k, &width, &patterns, &nMVs} {
		if err := binary.Read(r, binary.BigEndian, v); err != nil {
			return nil, err
		}
	}
	f := &File{Method: Method(method), K: int(k), Width: int(width), Patterns: int(patterns)}
	if f.Width < 1 || f.Width > MaxWidth {
		return nil, fmt.Errorf("container: width %d out of range [1,%d]", f.Width, MaxWidth)
	}
	if f.Patterns > MaxPatterns {
		return nil, fmt.Errorf("container: pattern count %d exceeds %d", f.Patterns, MaxPatterns)
	}
	if err := ValidateDims(f.Width, f.Patterns); err != nil {
		return nil, err
	}
	set, code, err := readBlockTables(r, f.K, int(nMVs))
	if err != nil {
		return nil, err
	}
	f.Set, f.Code = set, code
	var nbits uint32
	if err := binary.Read(r, binary.BigEndian, &nbits); err != nil {
		return nil, err
	}
	if nbits > MaxPayloadBits {
		return nil, fmt.Errorf("container: payload bit count %d exceeds %d", nbits, MaxPayloadBits)
	}
	f.NBits = int(nbits)
	if f.Payload, err = readSized(r, (f.NBits+7)/8); err != nil {
		return nil, err
	}
	return f, nil
}
