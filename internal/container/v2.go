// Format v2: the universal container. Where v1 hard-codes the
// block-codec header (MV table + codeword list) and can therefore only
// carry ea/9c/9chc results, v2 stores the codec *name* plus an opaque
// per-codec parameter blob, so every registered scheme round-trips
// through the same file format.
//
// Layout (big-endian):
//
//	magic    [4]byte  "TCMP"
//	version  uint8    (2)
//	nameLen  uint8    codec-name length (1..MaxCodecName)
//	name     [nameLen]byte  lowercase codec name ([a-z0-9+_-])
//	width    uint32   circuit inputs (1..MaxWidth)
//	tCount   uint32   pattern count (0..MaxPatterns)
//	paramLen uint32   parameter-blob length (0..MaxParamBytes)
//	params   [paramLen]byte  codec-specific (see EncodeBlockParams etc.)
//	nbits    uint32   payload bit count (0..MaxPayloadBits)
//	payload  ceil(nbits/8) bytes
//
// Every reader enforces the Max* limits before trusting a header field,
// and all variable-size sections are read in bounded chunks, so a
// hostile header can never drive an allocation beyond what the stream
// actually contains.
package container

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Format limits, enforced symmetrically by writers and readers.
const (
	// Version2 is the universal-container format version.
	Version2 = 2
	// MaxCodecName bounds the codec-name length.
	MaxCodecName = 32
	// MaxWidth bounds the circuit-input count.
	MaxWidth = 1 << 24
	// MaxPatterns bounds the pattern count.
	MaxPatterns = 1 << 24
	// MaxParamBytes bounds the per-codec parameter blob.
	MaxParamBytes = 1 << 24
	// MaxPayloadBits bounds the encoded payload (128 MiB).
	MaxPayloadBits = 1 << 30
	// MaxTotalBits bounds the decoded size Width·Patterns. Width and
	// Patterns are individually capped, but their product is what a
	// decoder allocates: without this cap a 30-byte header declaring
	// 2^24×2^24 would drive a terabyte-scale allocation and take the
	// process down before a single payload bit is read.
	MaxTotalBits = 1 << 30
)

// Container is a parsed universal container: a codec name, the test-set
// dimensions, the codec's parameter blob, and the encoded payload. It is
// the on-disk twin of the public tcomp.Artifact.
type Container struct {
	// Version records the on-disk version the container was read from
	// (1 for legacy files, 2 otherwise). Writers always emit v2.
	Version  int
	Codec    string
	Width    int
	Patterns int
	Params   []byte
	Payload  []byte
	NBits    int
}

// TotalBits returns Width·Patterns, the uncompressed size.
func (c *Container) TotalBits() int { return c.Width * c.Patterns }

// ValidateDims checks that a (width, patterns) pair is individually in
// range and that its product — the bit count every decoder allocates for
// — stays under MaxTotalBits. The product is computed in 64-bit so a
// hostile header cannot overflow the check itself.
func ValidateDims(width, patterns int) error {
	if width < 1 || width > MaxWidth {
		return fmt.Errorf("container: width %d out of range [1,%d]", width, MaxWidth)
	}
	if patterns < 0 || patterns > MaxPatterns {
		return fmt.Errorf("container: pattern count %d out of range [0,%d]", patterns, MaxPatterns)
	}
	if total := int64(width) * int64(patterns); total > MaxTotalBits {
		return fmt.Errorf("container: decoded size %d bits (width %d × patterns %d) exceeds %d",
			total, width, patterns, MaxTotalBits)
	}
	return nil
}

func validateCodecName(name string) error {
	if len(name) == 0 || len(name) > MaxCodecName {
		return fmt.Errorf("container: codec name length %d out of range [1,%d]", len(name), MaxCodecName)
	}
	for i := 0; i < len(name); i++ {
		b := name[i]
		switch {
		case b >= 'a' && b <= 'z', b >= '0' && b <= '9', b == '+', b == '-', b == '_':
		default:
			return fmt.Errorf("container: codec name %q contains invalid byte %q", name, b)
		}
	}
	return nil
}

func (c *Container) validate() error {
	if err := validateCodecName(c.Codec); err != nil {
		return err
	}
	if c.Width < 1 || c.Width > MaxWidth {
		return fmt.Errorf("container: width %d out of range [1,%d]", c.Width, MaxWidth)
	}
	if c.Patterns < 0 || c.Patterns > MaxPatterns {
		return fmt.Errorf("container: pattern count %d out of range [0,%d]", c.Patterns, MaxPatterns)
	}
	if err := ValidateDims(c.Width, c.Patterns); err != nil {
		return err
	}
	if len(c.Params) > MaxParamBytes {
		return fmt.Errorf("container: parameter blob %d bytes exceeds %d", len(c.Params), MaxParamBytes)
	}
	if c.NBits < 0 || c.NBits > MaxPayloadBits {
		return fmt.Errorf("container: payload bit count %d out of range [0,%d]", c.NBits, MaxPayloadBits)
	}
	if len(c.Payload) != (c.NBits+7)/8 {
		return fmt.Errorf("container: payload is %d bytes, want %d for %d bits",
			len(c.Payload), (c.NBits+7)/8, c.NBits)
	}
	return nil
}

// readSized reads exactly n bytes without trusting n for a single up-front
// allocation: data arrives in bounded chunks, so a hostile length field
// costs at most one chunk of memory before the stream runs dry.
func readSized(r io.Reader, n int) ([]byte, error) {
	const chunk = 64 << 10
	if n < 0 {
		return nil, fmt.Errorf("container: negative section size %d", n)
	}
	buf := make([]byte, 0, min(n, chunk))
	for len(buf) < n {
		c := min(n-len(buf), chunk)
		tmp := make([]byte, c)
		if _, err := io.ReadFull(r, tmp); err != nil {
			return nil, fmt.Errorf("container: truncated section (%d of %d bytes): %w", len(buf), n, err)
		}
		buf = append(buf, tmp...)
	}
	return buf, nil
}

// WriteV2 serializes a universal container in format v2.
func WriteV2(w io.Writer, c *Container) error {
	if c == nil {
		return fmt.Errorf("container: nil container")
	}
	if err := c.validate(); err != nil {
		return err
	}
	if _, err := w.Write(magic[:]); err != nil {
		return err
	}
	hdr := []interface{}{
		uint8(Version2), uint8(len(c.Codec)),
	}
	for _, v := range hdr {
		if err := binary.Write(w, binary.BigEndian, v); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, c.Codec); err != nil {
		return err
	}
	for _, v := range []interface{}{
		uint32(c.Width), uint32(c.Patterns), uint32(len(c.Params)),
	} {
		if err := binary.Write(w, binary.BigEndian, v); err != nil {
			return err
		}
	}
	if _, err := w.Write(c.Params); err != nil {
		return err
	}
	if err := binary.Write(w, binary.BigEndian, uint32(c.NBits)); err != nil {
		return err
	}
	_, err := w.Write(c.Payload)
	return err
}

// ReadAny parses a container of any supported version. Legacy v1 files
// (block codecs only) are converted in place: the method byte becomes the
// codec name and the structural MV/codeword header is re-encoded as the
// equivalent block-parameter blob, so callers see one uniform shape.
func ReadAny(r io.Reader) (*Container, error) {
	version, rest, err := Sniff(r)
	if err != nil {
		return nil, err
	}
	if err := discardPrologue(rest); err != nil {
		return nil, err
	}
	switch version {
	case 1:
		f, err := readV1Body(rest)
		if err != nil {
			return nil, err
		}
		return v1ToContainer(f)
	case Version2:
		return readV2Body(rest)
	}
	return nil, fmt.Errorf("container: version 3 is a chunked stream container; read it with tcomp.NewStreamReader (or tdecompress, which auto-detects it)")
}

func readV2Body(r io.Reader) (*Container, error) {
	var nameLen uint8
	if err := binary.Read(r, binary.BigEndian, &nameLen); err != nil {
		return nil, err
	}
	if nameLen == 0 || int(nameLen) > MaxCodecName {
		return nil, fmt.Errorf("container: codec name length %d out of range [1,%d]", nameLen, MaxCodecName)
	}
	name, err := readSized(r, int(nameLen))
	if err != nil {
		return nil, err
	}
	c := &Container{Version: Version2, Codec: string(name)}
	if err := validateCodecName(c.Codec); err != nil {
		return nil, err
	}
	var width, patterns, paramLen uint32
	for _, v := range []interface{}{&width, &patterns, &paramLen} {
		if err := binary.Read(r, binary.BigEndian, v); err != nil {
			return nil, err
		}
	}
	c.Width, c.Patterns = int(width), int(patterns)
	if c.Width < 1 || c.Width > MaxWidth {
		return nil, fmt.Errorf("container: width %d out of range [1,%d]", c.Width, MaxWidth)
	}
	if c.Patterns > MaxPatterns {
		return nil, fmt.Errorf("container: pattern count %d exceeds %d", c.Patterns, MaxPatterns)
	}
	if err := ValidateDims(c.Width, c.Patterns); err != nil {
		return nil, err
	}
	if paramLen > MaxParamBytes {
		return nil, fmt.Errorf("container: parameter blob %d bytes exceeds %d", paramLen, MaxParamBytes)
	}
	if c.Params, err = readSized(r, int(paramLen)); err != nil {
		return nil, err
	}
	var nbits uint32
	if err := binary.Read(r, binary.BigEndian, &nbits); err != nil {
		return nil, err
	}
	if nbits > MaxPayloadBits {
		return nil, fmt.Errorf("container: payload bit count %d exceeds %d", nbits, MaxPayloadBits)
	}
	c.NBits = int(nbits)
	if c.Payload, err = readSized(r, (c.NBits+7)/8); err != nil {
		return nil, err
	}
	return c, nil
}

// v1ToContainer lifts a parsed legacy file into the universal shape.
func v1ToContainer(f *File) (*Container, error) {
	var codec string
	switch f.Method {
	case MethodEA:
		codec = "ea"
	case Method9C:
		codec = "9c"
	case Method9CHC:
		codec = "9chc"
	default:
		return nil, fmt.Errorf("container: v1 file has unknown method %d", uint8(f.Method))
	}
	params, err := EncodeBlockParams(f.Set, f.Code)
	if err != nil {
		return nil, fmt.Errorf("container: v1 conversion: %v", err)
	}
	return &Container{
		Version:  1,
		Codec:    codec,
		Width:    f.Width,
		Patterns: f.Patterns,
		Params:   params,
		Payload:  f.Payload,
		NBits:    f.NBits,
	}, nil
}
