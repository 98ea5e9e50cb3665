package testset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"repro/internal/tritvec"
)

// Binary format: the text format costs one byte per trit, which is
// unwieldy for the registry's multi-megabit path-delay sets. The binary
// format packs two bits per trit (00=X, 01=0, 10=1) behind a small
// header.
//
// Layout (big-endian): magic "TSET", version uint8 (1), width uint32,
// patterns uint32, then ceil(width*patterns*2/8) payload bytes in
// pattern-major order. The header obeys the text format's caps, and
// width·patterns may not exceed 2³¹−1 trits. Scanner reads the format
// a pattern at a time; tritvec.ParsePacked and Vector.AppendPacked
// convert the 2-bit codes.

const (
	binMagic = "TSET"
	// readStep bounds how far a pattern's byte buffer grows ahead of the
	// bytes that arrive, so a header declaring a wide pattern over a
	// short payload costs one step of memory, not the declared width.
	readStep = 64 << 10
)

// WriteBinary emits the packed binary format.
func (ts *TestSet) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	buf := append([]byte(binMagic), 1)
	buf = binary.BigEndian.AppendUint32(buf, uint32(ts.Width))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(ts.Patterns)))
	// A pattern ending inside a byte leaves that byte in buf for the
	// next, whose first skip codes it holds.
	skip := 0
	for _, p := range ts.Patterns {
		buf = p.AppendPacked(buf, skip)
		skip = (skip + p.Len()) % 4
		full := len(buf) - (skip+3)/4
		if _, err := bw.Write(buf[:full]); err != nil {
			return err
		}
		buf = append(buf[:0], buf[full:]...)
	}
	if _, err := bw.Write(buf); err != nil {
		return err
	}
	return bw.Flush()
}

// newBinaryScanner parses the binary header that follows the magic.
func newBinaryScanner(br *bufio.Reader) (*Scanner, error) {
	var h [9]byte // version, width, patterns
	if _, err := io.ReadFull(br, h[:]); err != nil {
		return nil, fmt.Errorf("testset: truncated binary header: %w", err)
	}
	if h[0] != 1 {
		return nil, fmt.Errorf("testset: unsupported binary version %d", h[0])
	}
	width, patterns := binary.BigEndian.Uint32(h[1:]), binary.BigEndian.Uint32(h[5:])
	if width == 0 || width > MaxHeaderWidth || patterns > MaxHeaderPatterns {
		return nil, fmt.Errorf("testset: implausible binary dimensions %dx%d", width, patterns)
	}
	if total := int64(width) * int64(patterns); total > 1<<31-1 {
		return nil, fmt.Errorf("testset: implausible binary size %d trits", total)
	}
	return &Scanner{br: br, width: int(width), want: int(patterns)}, nil
}

// nextBinary reads the next pattern's bytes, growing the buffer as they
// arrive, and decodes them once they are all there. A pattern ending
// inside a byte leaves that byte in the buffer for the next, as in
// WriteBinary.
func (s *Scanner) nextBinary() (tritvec.Vector, error) {
	if s.seen == s.want {
		return tritvec.Vector{}, io.EOF
	}
	need := (s.skip + s.width + 3) / 4
	for n := len(s.buf); n < need; n = len(s.buf) {
		step := min(need-n, readStep)
		s.buf = slices.Grow(s.buf, step)[:n+step]
		got, err := io.ReadFull(s.br, s.buf[n:])
		s.buf = s.buf[:n+got]
		if err != nil {
			return tritvec.Vector{}, fmt.Errorf("testset: truncated binary payload at pattern %d: %w", s.seen, err)
		}
	}
	v, err := tritvec.ParsePacked(s.buf, s.skip, s.width)
	if err != nil {
		return tritvec.Vector{}, fmt.Errorf("testset: binary pattern %d: %w", s.seen, err)
	}
	s.skip = (s.skip + s.width) % 4
	s.buf = append(s.buf[:0], s.buf[need-(s.skip+3)/4:need]...)
	s.seen++
	return v, nil
}
