package bitstream

// Property-based tests for the word-at-a-time fast paths. The reference
// implementations below are the original bit-at-a-time loops, kept here
// verbatim: every random (v,n) sequence must produce byte-identical
// buffers through both writers and identical values through both
// readers (word-wise ReadBits, reference bit-wise ReadBit).

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// refWriter is the pre-word-at-a-time Writer: one append per bit.
type refWriter struct {
	buf  []byte
	nbit int
}

func (w *refWriter) writeBit(b uint) {
	if w.nbit%8 == 0 {
		w.buf = append(w.buf, 0)
	}
	if b != 0 {
		w.buf[w.nbit/8] |= 0x80 >> uint(w.nbit%8)
	}
	w.nbit++
}

func (w *refWriter) writeBits(v uint64, n int) {
	for i := n - 1; i >= 0; i-- {
		w.writeBit(uint(v >> uint(i) & 1))
	}
}

// refRead is the pre-word-at-a-time ReadBits: one ReadBit per bit.
func refRead(r *Reader, n int) (uint64, error) {
	var v uint64
	for i := 0; i < n; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint64(b)
	}
	return v, nil
}

type op struct {
	v uint64
	n int
}

// randomOps derives a (v,n) sequence from a seed, mixing WriteBits sizes
// with single-bit writes (the dominant codec pattern).
func randomOps(seed int64, count int) []op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]op, count)
	for i := range ops {
		var n int
		switch rng.Intn(4) {
		case 0:
			n = 1
		case 1:
			n = rng.Intn(8) + 1
		case 2:
			n = rng.Intn(32) + 1
		default:
			n = rng.Intn(64) + 1
		}
		v := rng.Uint64()
		if n < 64 {
			v &= 1<<uint(n) - 1
		}
		ops[i] = op{v, n}
	}
	return ops
}

func TestWordWriterMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		ops := randomOps(seed, 1+int(seed%97))
		w := NewWriter()
		ref := &refWriter{}
		for _, o := range ops {
			w.WriteBits(o.v, o.n)
			ref.writeBits(o.v, o.n)
		}
		if w.Len() != ref.nbit {
			t.Fatalf("seed %d: fast Len %d, reference %d", seed, w.Len(), ref.nbit)
		}
		if !bytes.Equal(w.Bytes(), ref.buf) {
			t.Fatalf("seed %d: fast writer bytes diverge from bit-at-a-time reference", seed)
		}
	}
}

func TestWordReaderMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		ops := randomOps(seed, 1+int(seed%83))
		w := NewWriter()
		for _, o := range ops {
			w.WriteBits(o.v, o.n)
		}
		fast := FromWriter(w)
		ref := FromWriter(w)
		for i, o := range ops {
			fv, ferr := fast.ReadBits(o.n)
			rv, rerr := refRead(ref, o.n)
			if ferr != nil || rerr != nil {
				t.Fatalf("seed %d op %d: errors %v/%v", seed, i, ferr, rerr)
			}
			if fv != o.v || rv != o.v {
				t.Fatalf("seed %d op %d: wrote %x/%d, read fast=%x ref=%x",
					seed, i, o.v, o.n, fv, rv)
			}
		}
		if fast.Remaining() != 0 {
			t.Fatalf("seed %d: %d bits left over", seed, fast.Remaining())
		}
		if _, err := fast.ReadBits(1); !errors.Is(err, ErrEOS) {
			t.Fatalf("seed %d: ReadBits past end: %v", seed, err)
		}
	}
}

// TestInterleavedBitAndWord mixes WriteBit with WriteBits at every
// alignment, the pattern the prefix-code encoders produce.
func TestInterleavedBitAndWord(t *testing.T) {
	for lead := 0; lead < 9; lead++ {
		for n := 0; n <= 64; n++ {
			w := NewWriter()
			ref := &refWriter{}
			for i := 0; i < lead; i++ {
				w.WriteBit(uint(i) & 1)
				ref.writeBit(uint(i) & 1)
			}
			v := uint64(0xA5A5A5A5A5A5A5A5)
			if n < 64 {
				v &= 1<<uint(n) - 1
			}
			w.WriteBits(v, n)
			ref.writeBits(v, n)
			w.WriteBit(1)
			ref.writeBit(1)
			if !bytes.Equal(w.Bytes(), ref.buf) || w.Len() != ref.nbit {
				t.Fatalf("lead=%d n=%d: divergence from reference", lead, n)
			}
		}
	}
}

// bitsOf returns buf's bits MSB-first, one per element.
func bitsOf(buf []byte) []uint {
	out := make([]uint, 0, 8*len(buf))
	for _, b := range buf {
		for i := 7; i >= 0; i-- {
			out = append(out, uint(b>>uint(i)&1))
		}
	}
	return out
}

// TestReaderTinyBuffers peeks and reads every width 0-64 at every bit
// offset of buffers of 0-16 bytes, whose payload ends anywhere in the
// last byte. Every read that starts inside the last 7 bytes assembles
// its window byte by byte, and a read past the payload wraps ErrEOS.
func TestReaderTinyBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for size := 0; size <= 16; size++ {
		buf := make([]byte, size)
		rng.Read(buf)
		ref := bitsOf(buf)
		for _, nbit := range []int{8 * size, max(0, 8*size-1-rng.Intn(7))} {
			for p := 0; p <= nbit; p++ {
				for n := 0; n <= 64; n++ {
					rd := NewReader(buf, nbit)
					if err := rd.Skip(p); err != nil {
						t.Fatalf("size=%d nbit=%d: Skip(%d): %v", size, nbit, p, err)
					}
					v, avail := rd.PeekBits(n)
					if want := min(n, PeekMax, nbit-p); avail != want || v != refWindow(ref, p, want) {
						t.Fatalf("size=%d nbit=%d p=%d: PeekBits(%d)=(%#x,%d), want (%#x,%d)",
							size, nbit, p, n, v, avail, refWindow(ref, p, want), want)
					}
					got, err := rd.ReadBits(n)
					if p+n > nbit {
						if !errors.Is(err, ErrEOS) {
							t.Fatalf("size=%d nbit=%d p=%d: ReadBits(%d) past end: %v, want ErrEOS",
								size, nbit, p, n, err)
						}
						continue
					}
					if err != nil || got != refWindow(ref, p, n) {
						t.Fatalf("size=%d nbit=%d p=%d: ReadBits(%d)=%#x err %v, want %#x",
							size, nbit, p, n, got, err, refWindow(ref, p, n))
					}
				}
			}
		}
	}
}

// TestReaderLimit pins the declared bit count as the end of the stream:
// a read past it wraps ErrEOS even where the buffer holds more bytes,
// and leaves the position at the limit.
func TestReaderLimit(t *testing.T) {
	rd := NewReader([]byte{0xFF, 0xFF}, 10)
	if v, err := rd.ReadBits(10); err != nil || v != 0x3FF {
		t.Fatalf("got %x err %v", v, err)
	}
	if _, err := rd.ReadBit(); !errors.Is(err, ErrEOS) {
		t.Fatalf("limit not enforced: %v", err)
	}
	if _, err := rd.ReadBits(6); !errors.Is(err, ErrEOS) {
		t.Fatalf("ReadBits past limit: %v", err)
	}
	if rd.Pos() != 10 {
		t.Fatalf("Pos=%d want 10", rd.Pos())
	}
}

// TestReaderEOSWrapping pins the checked end of the stream: a read past
// the payload wraps ErrEOS, and an out-of-range count wraps ErrBitCount.
func TestReaderEOSWrapping(t *testing.T) {
	if _, err := NewReader([]byte{0xFF}, 8).ReadBits(16); !errors.Is(err, ErrEOS) {
		t.Fatalf("ReadBits past end: got %v, want ErrEOS", err)
	}
	if _, err := NewReader(nil, -1).ReadBit(); !errors.Is(err, ErrEOS) {
		t.Fatalf("ReadBit on empty: got %v, want ErrEOS", err)
	}
	if _, err := NewReader(nil, -1).ReadBits(65); !errors.Is(err, ErrBitCount) {
		t.Fatalf("ReadBits(65) did not wrap ErrBitCount")
	}
	if err := NewWriter().TryWriteBits(0, 65); !errors.Is(err, ErrBitCount) {
		t.Fatalf("TryWriteBits(65) did not wrap ErrBitCount")
	}
}

// TestReaderWideReads reads 57-64-bit values written after 0-7 lead
// bits, so each wide read starts at every bit offset, both where the
// ninth byte is in the middle of the buffer and where it is the last
// byte.
func TestReaderWideReads(t *testing.T) {
	vals := []uint64{0, 1, 0xFFFFFFFFFFFFFFFF, 0x8000000000000001, 0xDEADBEEFCAFEF00D}
	for lead := 0; lead < 8; lead++ {
		for n := 57; n <= 64; n++ {
			w := NewWriter()
			w.WriteBits(0, lead)
			for _, v := range vals {
				w.WriteBits(v, n)
			}
			rd := FromWriter(w)
			if err := rd.Skip(lead); err != nil {
				t.Fatal(err)
			}
			for i, v := range vals {
				if n < 64 {
					v &= 1<<uint(n) - 1
				}
				got, err := rd.ReadBits(n)
				if err != nil || got != v {
					t.Fatalf("lead=%d n=%d val %d: got %x err %v, want %x", lead, n, i, got, err, v)
				}
			}
			if rd.Remaining() != 0 {
				t.Fatalf("lead=%d n=%d: %d bits left over", lead, n, rd.Remaining())
			}
		}
	}
}

// FuzzBitstreamWords interprets the fuzz input as a (v,n) op sequence
// and cross-checks the word-wise writer and reader against the
// bit-at-a-time references on every mutation.
func FuzzBitstreamWords(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0xFF})
	f.Add([]byte{64, 1, 2, 3, 4, 5, 6, 7, 8, 33, 0xAA, 0xBB, 0xCC, 0xDD, 0xEE})
	f.Add([]byte{8, 0x80, 57, 1, 2, 3, 4, 5, 6, 7, 3, 0x05, 64, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		var ops []op
		for len(data) > 0 {
			n := int(data[0])%64 + 1
			data = data[1:]
			nbytes := (n + 7) / 8
			var v uint64
			for i := 0; i < nbytes; i++ {
				v <<= 8
				if i < len(data) {
					v |= uint64(data[i])
				}
			}
			if nbytes <= len(data) {
				data = data[nbytes:]
			} else {
				data = nil
			}
			if n < 64 {
				v &= 1<<uint(n) - 1
			}
			ops = append(ops, op{v, n})
			if len(ops) >= 1<<12 {
				break
			}
		}
		w := NewWriter()
		ref := &refWriter{}
		for _, o := range ops {
			if err := w.TryWriteBits(o.v, o.n); err != nil {
				t.Fatalf("TryWriteBits(%x, %d): %v", o.v, o.n, err)
			}
			ref.writeBits(o.v, o.n)
		}
		if !bytes.Equal(w.Bytes(), ref.buf) || w.Len() != ref.nbit {
			t.Fatal("word-wise writer diverges from bit-at-a-time reference")
		}
		fast := FromWriter(w)
		slow := FromWriter(w)
		for i, o := range ops {
			fv, err := fast.ReadBits(o.n)
			if err != nil {
				t.Fatalf("op %d: fast read: %v", i, err)
			}
			rv, err := refRead(slow, o.n)
			if err != nil {
				t.Fatalf("op %d: reference read: %v", i, err)
			}
			if fv != o.v || rv != o.v {
				t.Fatalf("op %d: wrote %x/%d, read fast=%x ref=%x", i, o.v, o.n, fv, rv)
			}
		}
		if _, err := fast.ReadBits(1); !errors.Is(err, ErrEOS) {
			t.Fatalf("ReadBits past end: %v, want ErrEOS", err)
		}
	})
}

func BenchmarkBitstreamWrite(b *testing.B) {
	ops := randomOps(1, 4096)
	b.Run("WriteBits", func(b *testing.B) {
		w := NewWriter()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w.Reset()
			for _, o := range ops {
				w.WriteBits(o.v, o.n)
			}
		}
		b.SetBytes(int64(w.Len() / 8))
	})
	b.Run("WriteBit", func(b *testing.B) {
		w := NewWriter()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w.Reset()
			for j := 0; j < 4096; j++ {
				w.WriteBit(uint(j) & 1)
			}
		}
		b.SetBytes(4096 / 8)
	})
}

func BenchmarkBitstreamRead(b *testing.B) {
	ops := randomOps(2, 4096)
	w := NewWriter()
	for _, o := range ops {
		w.WriteBits(o.v, o.n)
	}
	b.Run("ReadBits", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(w.Len() / 8))
		for i := 0; i < b.N; i++ {
			r := FromWriter(w)
			for _, o := range ops {
				if _, err := r.ReadBits(o.n); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
