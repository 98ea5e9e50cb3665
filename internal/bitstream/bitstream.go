// Package bitstream provides MSB-first bit-level writers and readers for
// compressed test data. Codewords are emitted most-significant-bit first so
// that a prefix code can be decoded by walking bits in stream order.
//
// The hot paths are word-at-a-time: WriteBits splits its 64-bit argument
// into whole output bytes instead of looping per bit, and ReadBits,
// PeekBits and ReadUnary take their bits from one big-endian 64-bit
// load. Every container version, including each chunk of a v3 stream,
// holds its payload in memory by the time it is decoded, so the
// in-memory Reader is the one bit reader and every decoder takes a
// *Reader: there is no bit-at-a-time input interface beside it.
package bitstream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// ErrEOS is returned when reading past the end of the stream. Decoders
// wrap it; test with errors.Is(err, ErrEOS).
var ErrEOS = errors.New("bitstream: end of stream")

// ErrBitCount is returned (wrapped) when a bit count lies outside [0,64],
// or when a reader is constructed over a buffer too small for its declared
// bit count. No read path in this package panics, so counts derived from
// hostile container headers surface as checked errors. The only
// remaining panic is Writer.WriteBits, whose bit counts are always
// produced by encoders, never parsed from input (use TryWriteBits for
// untrusted counts).
var ErrBitCount = errors.New("bitstream: bit count out of range [0,64]")

// PeekMax is the largest window PeekBits serves: a peek of up to 56 bits
// is short only at the true end of the stream, so a scanner may treat a
// short window as the end of the stream.
const PeekMax = 56

// Writer accumulates bits MSB-first into a byte buffer.
type Writer struct {
	buf  []byte
	nbit int // total bits written
}

// NewWriter returns an empty Writer.
func NewWriter() *Writer { return &Writer{} }

// WriteBit appends a single bit (0 or 1).
func (w *Writer) WriteBit(b uint) {
	if w.nbit&7 == 0 {
		w.buf = append(w.buf, 0)
	}
	if b != 0 {
		w.buf[w.nbit>>3] |= 0x80 >> uint(w.nbit&7)
	}
	w.nbit++
}

// WriteBits appends the low n bits of v, most significant first. It
// panics if n is outside [0,64]; use TryWriteBits when n comes from
// untrusted input.
func (w *Writer) WriteBits(v uint64, n int) {
	if err := w.TryWriteBits(v, n); err != nil {
		panic(fmt.Sprintf("bitstream: WriteBits n=%d", n))
	}
}

// TryWriteBits appends the low n bits of v, most significant first,
// returning an error wrapping ErrBitCount when n is outside [0,64]. This
// is the checked entry point for streaming code paths where n may derive
// from hostile input.
func (w *Writer) TryWriteBits(v uint64, n int) error {
	if n < 0 || n > 64 {
		return fmt.Errorf("bitstream: WriteBits n=%d: %w", n, ErrBitCount)
	}
	if n == 0 {
		return nil
	}
	if n < 64 {
		v &= 1<<uint(n) - 1
	}
	// Fill the free low bits of the current partial byte.
	if free := len(w.buf)*8 - w.nbit; free > 0 {
		if n <= free {
			w.buf[len(w.buf)-1] |= byte(v << uint(free-n))
			w.nbit += n
			return nil
		}
		w.buf[len(w.buf)-1] |= byte(v >> uint(n-free))
		w.nbit += free
		n -= free
	}
	// Append whole bytes, most significant first.
	for n >= 8 {
		n -= 8
		w.buf = append(w.buf, byte(v>>uint(n)))
		w.nbit += 8
	}
	if n > 0 {
		w.buf = append(w.buf, byte(v<<uint(8-n)))
		w.nbit += n
	}
	return nil
}

// Len returns the number of bits written.
func (w *Writer) Len() int { return w.nbit }

// Bytes returns the accumulated buffer; the final byte is zero-padded.
func (w *Writer) Bytes() []byte { return w.buf }

// Reset truncates the writer to empty.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.nbit = 0
}

// Reader consumes bits MSB-first from a byte buffer. It never panics on
// hostile input: a declared bit count exceeding the buffer, or a read
// past the end, surfaces as an error wrapping ErrBitCount / ErrEOS.
type Reader struct {
	buf  []byte
	nbit int   // total valid bits
	pos  int   // next bit to read
	err  error // sticky construction error (declared bits exceed buffer)
}

// NewReader returns a Reader over buf exposing nbit valid bits. If nbit is
// negative, all of buf (len*8 bits) is exposed. If nbit exceeds the
// buffer — a corrupt container header declaring more payload bits than it
// shipped — the reader is still returned, but every read fails with an
// error wrapping ErrBitCount, so decode paths report corruption instead
// of panicking.
func NewReader(buf []byte, nbit int) *Reader {
	if nbit < 0 {
		nbit = len(buf) * 8
	}
	r := &Reader{buf: buf, nbit: nbit}
	if nbit > len(buf)*8 {
		r.nbit = 0
		r.err = fmt.Errorf("bitstream: declared %d bits but buffer holds only %d: %w",
			nbit, len(buf)*8, ErrBitCount)
	}
	return r
}

// FromWriter returns a Reader over the bits accumulated in w.
func FromWriter(w *Writer) *Reader { return NewReader(w.Bytes(), w.Len()) }

// Err returns the sticky construction error, if any.
func (r *Reader) Err() error { return r.err }

// ReadBit returns the next bit. At end of stream the error is ErrEOS; a
// reader constructed with an oversized bit count returns its sticky
// construction error instead.
func (r *Reader) ReadBit() (uint, error) {
	if r.pos >= r.nbit {
		if r.err != nil {
			return 0, r.err
		}
		return 0, ErrEOS
	}
	b := uint(r.buf[r.pos>>3] >> uint(7-r.pos&7) & 1)
	r.pos++
	return b, nil
}

// ReadBits reads n bits MSB-first into the low bits of the result,
// taking them from a 64-bit window rather than one bit at a time. A
// count outside [0,64] returns an error wrapping ErrBitCount (the count
// may derive from a hostile container parameter); reading past the end
// returns ErrEOS.
func (r *Reader) ReadBits(n int) (uint64, error) {
	if n < 0 || n > 64 {
		return 0, fmt.Errorf("bitstream: ReadBits n=%d: %w", n, ErrBitCount)
	}
	if r.pos+n > r.nbit {
		if r.err != nil {
			return 0, r.err
		}
		return 0, ErrEOS
	}
	if n == 0 {
		return 0, nil
	}
	p := r.pos
	r.pos += n
	return r.gather(p, n), nil
}

// gather reads n in-bounds bits starting at bit position p without
// advancing; callers have already checked p+n <= nbit and 0 < n <= 64.
// It loads the eight bytes at p>>3 as one big-endian word and shifts out
// the p&7 bits already consumed, which leaves 64-p&7 valid bits. Only
// inside the last 7 bytes of the buffer is the word assembled byte by
// byte, and only a 58-64-bit read at an unaligned offset needs the
// ninth byte.
func (r *Reader) gather(p, n int) uint64 {
	i, off := p>>3, uint(p&7)
	var w uint64
	if i+8 <= len(r.buf) {
		w = binary.BigEndian.Uint64(r.buf[i:])
		if n > 64-int(off) {
			// p+n <= nbit puts the ninth byte inside the buffer.
			return (w<<off | uint64(r.buf[i+8])>>(8-off)) >> uint(64-n)
		}
	} else {
		for j, b := range r.buf[i:] {
			w |= uint64(b) << (56 - 8*uint(j))
		}
	}
	return w << off >> uint(64-n)
}

// PeekBits returns the next min(n, PeekMax, Remaining()) bits MSB-first
// in the low bits of v without consuming them. A reader constructed
// with an oversized bit count exposes zero bits, so its sticky error
// still surfaces through the read the caller falls back to.
func (r *Reader) PeekBits(n int) (v uint64, avail int) {
	if n > PeekMax {
		n = PeekMax
	}
	if rem := r.nbit - r.pos; n > rem {
		n = rem
	}
	if n <= 0 {
		return 0, 0
	}
	return r.gather(r.pos, n), n
}

// Skip consumes n bits without decoding them.
func (r *Reader) Skip(n int) error {
	if n < 0 {
		return fmt.Errorf("bitstream: Skip n=%d: %w", n, ErrBitCount)
	}
	if r.pos+n > r.nbit {
		r.pos = r.nbit
		if r.err != nil {
			return r.err
		}
		return ErrEOS
	}
	r.pos += n
	return nil
}

// ReadUnary reads a unary count, a run of 1s closed by a 0, and returns
// the number of 1s; the closing 0 is consumed. It scans PeekMax bits per
// step with one LeadingZeros64. With no bit left it returns ErrEOS
// itself and consumes nothing: the stream ended at a codeword boundary.
// A stream that ends inside the run is an error wrapping ErrEOS, and a
// run of more than max 1s an error wrapping neither sentinel. A reader
// constructed with an oversized bit count returns its sticky error.
func (r *Reader) ReadUnary(max int) (int, error) {
	if r.pos >= r.nbit {
		if r.err != nil {
			return 0, r.err
		}
		return 0, ErrEOS
	}
	n := 0
	for {
		v, avail := r.PeekBits(PeekMax)
		if avail == 0 {
			return 0, fmt.Errorf("bitstream: unary count has no closing 0: %w", ErrEOS)
		}
		// Leading 1s of the window = leading 0s of its complement once
		// the window is left-aligned in the 64-bit word.
		lead := bits.LeadingZeros64(^(v << uint(64-avail)))
		if lead > max-n {
			return 0, fmt.Errorf("bitstream: unary count exceeds %d: invalid stream", max)
		}
		if lead < avail {
			r.pos += lead + 1
			return n + lead, nil
		}
		n += avail
		r.pos += avail
	}
}

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return r.nbit - r.pos }

// Pos returns the number of bits consumed so far.
func (r *Reader) Pos() int { return r.pos }
