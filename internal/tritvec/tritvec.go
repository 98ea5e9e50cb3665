// Package tritvec implements packed ternary vectors over the alphabet
// {0, 1, X}, where X denotes an unspecified value (a don't-care in a test
// pattern, or a U position in a matching vector).
//
// Vectors are stored in two bit planes of 64-bit words: a care plane and a
// value plane. Position j is specified iff care bit j is set; its value is
// then the value bit j. The invariant val ⊆ care holds at all times (an
// unspecified position has value bit 0), and the bits past a vector's
// length are zero in both planes, which makes word-wise equality,
// matching and subsumption tests single AND/XOR expressions.
//
// Vectors convert to and from their two serial forms word-at-a-time:
// trit characters (Parse, AppendTo; text.go) and 2-bit codes, the code
// of the binary test-set format and the container's MV tables
// (ParsePacked, AppendPacked; packed.go).
package tritvec

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
)

// Trit is a single ternary symbol.
type Trit uint8

// The three trit values. X doubles as the matching-vector symbol U: both
// mean "unspecified" and the matching semantics are identical.
const (
	X Trit = iota
	Zero
	One
)

// String returns "X", "0" or "1".
func (t Trit) String() string {
	switch t {
	case Zero:
		return "0"
	case One:
		return "1"
	default:
		return "X"
	}
}

// ParseTrit converts a character to a Trit. Accepted: '0', '1', and any of
// 'x', 'X', 'u', 'U', '-' for the unspecified value.
func ParseTrit(c byte) (Trit, error) {
	switch c {
	case '0':
		return Zero, nil
	case '1':
		return One, nil
	case 'x', 'X', 'u', 'U', '-':
		return X, nil
	}
	return X, fmt.Errorf("tritvec: invalid trit character %q", c)
}

// Vector is a fixed-length ternary vector.
type Vector struct {
	n    int
	care []uint64
	val  []uint64
}

func words(n int) int { return (n + 63) / 64 }

// New returns an all-X vector of length n.
func New(n int) Vector {
	if n < 0 {
		panic("tritvec: negative length")
	}
	return alloc(n)
}

// alloc returns an all-X vector of length n whose two planes share one
// allocation.
func alloc(n int) Vector { return over(make([]uint64, 2*words(n)), n) }

// over returns the vector of length n whose care and value planes are
// the first two runs of words(n) words of p; the full slice expressions
// keep either plane from growing into what follows it.
func over(p []uint64, n int) Vector {
	w := words(n)
	return Vector{n: n, care: p[:w:w], val: p[w : 2*w : 2*w]}
}

// FromString parses a vector from a string of trit characters; see
// Parse.
func FromString(s string) (Vector, error) { return Parse([]byte(s)) }

// MustFromString is FromString that panics on malformed input. For use in
// tests and literals.
func MustFromString(s string) Vector {
	v, err := FromString(s)
	if err != nil {
		panic(err)
	}
	return v
}

// Len returns the number of positions.
func (v Vector) Len() int { return v.n }

// Get returns the trit at position i.
func (v Vector) Get(i int) Trit {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("tritvec: index %d out of range [0,%d)", i, v.n))
	}
	w, b := i/64, uint(i%64)
	if v.care[w]>>b&1 == 0 {
		return X
	}
	if v.val[w]>>b&1 == 1 {
		return One
	}
	return Zero
}

// Set assigns trit t to position i.
func (v Vector) Set(i int, t Trit) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("tritvec: index %d out of range [0,%d)", i, v.n))
	}
	w, b := i/64, uint(i%64)
	mask := uint64(1) << b
	switch t {
	case X:
		v.care[w] &^= mask
		v.val[w] &^= mask
	case Zero:
		v.care[w] |= mask
		v.val[w] &^= mask
	case One:
		v.care[w] |= mask
		v.val[w] |= mask
	}
}

// FillZeros sets positions [pos, pos+n) to Zero word-at-a-time: care
// bits set, value bits cleared, up to 64 positions per plane operation.
// This is the bulk write behind the run-length-family decoders, whose
// output is dominated by long runs of zeros.
func (v Vector) FillZeros(pos, n int) {
	if n <= 0 {
		return
	}
	if pos < 0 || pos+n > v.n {
		panic(fmt.Sprintf("tritvec: FillZeros [%d,%d) out of range [0,%d)", pos, pos+n, v.n))
	}
	w, b := pos>>6, uint(pos&63)
	for n > 0 {
		span := 64 - int(b)
		if span > n {
			span = n
		}
		mask := ^uint64(0)
		if span < 64 {
			mask = (1<<uint(span) - 1) << b
		}
		v.care[w] |= mask
		v.val[w] &^= mask
		n -= span
		w++
		b = 0
	}
}

// SetWordMSB writes the low k bits of word (most significant first, the
// bitstream convention) as fully specified trits at positions
// [pos, pos+k), word-at-a-time. It is the bulk write behind the
// block-codec decoders.
func (v Vector) SetWordMSB(pos int, word uint64, k int) {
	if k == 0 {
		return
	}
	if k < 0 || k > 64 {
		panic(fmt.Sprintf("tritvec: SetWordMSB k=%d out of range [0,64]", k))
	}
	if pos < 0 || pos+k > v.n {
		panic(fmt.Sprintf("tritvec: SetWordMSB [%d,%d) out of range [0,%d)", pos, pos+k, v.n))
	}
	// The planes store position pos+i at word bit i (LSB-first), while
	// word carries position pos+i at bit k-1-i (MSB-first): a single
	// bit reversal converts the whole block.
	rev := bits.Reverse64(word << uint(64-k))
	w, b := pos>>6, uint(pos&63)
	for k > 0 {
		span := 64 - int(b)
		if span > k {
			span = k
		}
		mask := ^uint64(0)
		if span < 64 {
			mask = (1<<uint(span) - 1) << b
		}
		v.care[w] |= mask
		v.val[w] = v.val[w]&^mask | rev<<b&mask
		rev >>= uint(span)
		k -= span
		w++
		b = 0
	}
}

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	c := alloc(v.n)
	copy(c.care, v.care)
	copy(c.val, v.val)
	return c
}

// Equal reports whether v and o have the same length and identical trits.
func (v Vector) Equal(o Vector) bool {
	if v.n != o.n {
		return false
	}
	for i := range v.care {
		if v.care[i] != o.care[i] || v.val[i] != o.val[i] {
			return false
		}
	}
	return true
}

// String renders the vector with '0', '1' and 'X'; see AppendTo.
func (v Vector) String() string { return string(v.AppendTo(make([]byte, 0, v.n))) }

// StringU renders the vector with '0', '1' and 'U' (matching-vector
// notation, as used in the paper).
func (v Vector) StringU() string {
	return strings.Map(func(r rune) rune {
		if r == 'X' {
			return 'U'
		}
		return r
	}, v.String())
}

// Matches reports whether v matches o per the paper's definition: there is
// no position j where both are specified with different values. X/U matches
// anything. Panics if lengths differ.
func (v Vector) Matches(o Vector) bool {
	if v.n != o.n {
		panic("tritvec: Matches on vectors of different length")
	}
	for i := range v.care {
		if (v.care[i] & o.care[i] & (v.val[i] ^ o.val[i])) != 0 {
			return false
		}
	}
	return true
}

// Subsumes reports whether every vector matched by o is also matched by v;
// structurally, every specified position of v is specified in o with the
// same value. (v is "more general or equal".)
func (v Vector) Subsumes(o Vector) bool {
	if v.n != o.n {
		panic("tritvec: Subsumes on vectors of different length")
	}
	for i := range v.care {
		if v.care[i]&^o.care[i] != 0 {
			return false
		}
		if (v.val[i]^o.val[i])&v.care[i] != 0 {
			return false
		}
	}
	return true
}

// CountSpecified returns the number of 0/1 positions.
func (v Vector) CountSpecified() int {
	n := 0
	for _, w := range v.care {
		n += bits.OnesCount64(w)
	}
	return n
}

// CountX returns the number of unspecified positions.
func (v Vector) CountX() int { return v.n - v.CountSpecified() }

// XPositions returns the indices of unspecified positions in ascending
// order.
func (v Vector) XPositions() []int {
	pos := make([]int, 0, v.CountX())
	for i := 0; i < v.n; i++ {
		w, b := i/64, uint(i%64)
		if v.care[w]>>b&1 == 0 {
			pos = append(pos, i)
		}
	}
	return pos
}

// Slice returns a copy of positions [lo, hi), read a word at a time
// as Window reads, so splitting a flat decode string back into patterns
// costs O(words), not O(bits).
func (v Vector) Slice(lo, hi int) Vector {
	if lo < 0 || hi > v.n || lo > hi {
		panic(fmt.Sprintf("tritvec: bad slice [%d,%d) of length %d", lo, hi, v.n))
	}
	out := alloc(hi - lo)
	v.copyOut(out, lo)
	return out
}

// Split cuts v into consecutive vectors of width positions, copies that
// share one backing array: splitting a flat decode string back into T
// patterns takes two allocations, not T. Each copy's planes are capped,
// so no vector can grow into the next. Split panics unless width is
// positive and divides v's length.
func (v Vector) Split(width int) []Vector {
	if width <= 0 || v.n%width != 0 {
		panic(fmt.Sprintf("tritvec: cannot split length %d into width %d", v.n, width))
	}
	step := 2 * words(width)
	out := make([]Vector, v.n/width)
	p := make([]uint64, step*len(out))
	for i := range out {
		out[i] = over(p[i*step:], width)
		v.copyOut(out[i], i*width)
	}
	return out
}

// copyOut fills out with v's positions from lo on, a word at a time.
func (v Vector) copyOut(out Vector, lo int) {
	for i := range out.care {
		out.care[i], out.val[i] = window(v.care, lo+64*i), window(v.val, lo+64*i)
	}
	if r := uint(out.n & 63); r != 0 {
		mask := uint64(1)<<r - 1
		out.care[len(out.care)-1] &= mask
		out.val[len(out.val)-1] &= mask
	}
}

// Window returns the width ≤ 64 positions of v that start at pos as a
// care word and a value word, position pos+i at bit i; positions past
// the end read as X. It is the in-place block read of the block codecs.
// A width over 64 or a negative pos panics.
func (v Vector) Window(pos, width int) (care, val uint64) {
	if uint(width) > 64 {
		panic(fmt.Sprintf("tritvec: Window of %d positions, over 64", width))
	}
	mask := ^uint64(0) >> (64 - uint(width))
	return window(v.care, pos) & mask, window(v.val, pos) & mask
}

// window returns the 64 bits of plane p that start at bit pos; bits past
// the plane read as 0, and a negative pos fails the index.
func window(p []uint64, pos int) (x uint64) {
	w, b := pos>>6, uint(pos)&63
	if w < len(p) {
		x = p[w] >> b
		if b != 0 && w+1 < len(p) {
			x |= p[w+1] << (64 - b)
		}
	}
	return x
}

// insertBits overwrites k (<= 64) bits of a plane at bit offset off
// with the low k bits of x (LSB-first position order).
func insertBits(dst []uint64, off int, x uint64, k int) {
	if k <= 0 {
		return
	}
	if k < 64 {
		x &= 1<<uint(k) - 1
	}
	w, b := off>>6, uint(off&63)
	span := 64 - int(b)
	if span > k {
		span = k
	}
	mask := ^uint64(0)
	if span < 64 {
		mask = (1<<uint(span) - 1) << b
	}
	dst[w] = dst[w]&^mask | x<<b&mask
	if k > span {
		k2 := uint(k - span)
		mask2 := uint64(1)<<k2 - 1
		dst[w+1] = dst[w+1]&^mask2 | x>>uint(span)&mask2
	}
}

// CopyFrom copies o into v starting at position off, word-at-a-time.
func (v Vector) CopyFrom(o Vector, off int) {
	if off < 0 || off+o.n > v.n {
		panic("tritvec: CopyFrom out of range")
	}
	for i := 0; i < len(o.care); i++ {
		k := o.n - i*64
		if k > 64 {
			k = 64
		}
		insertBits(v.care, off+i*64, o.care[i], k)
		insertBits(v.val, off+i*64, o.val[i], k)
	}
}

// FillRandom assigns uniformly random fully-specified values to all
// positions, overwriting existing content.
func (v Vector) FillRandom(r *rand.Rand) {
	for i := 0; i < v.n; i++ {
		if r.Intn(2) == 0 {
			v.Set(i, Zero)
		} else {
			v.Set(i, One)
		}
	}
}

// RandomTernary returns a vector of length n with each position drawn
// uniformly from {0, 1, X}.
func RandomTernary(n int, r *rand.Rand) Vector {
	v := New(n)
	for i := 0; i < n; i++ {
		v.Set(i, Trit(r.Intn(3)))
	}
	return v
}

// Specify returns a fully specified copy of v where every X position is
// replaced by fill, word-at-a-time (bits beyond the length stay zero so
// word-wise Equal keeps working).
func (v Vector) Specify(fill Trit) Vector {
	if fill == X {
		panic("tritvec: Specify fill must be 0 or 1")
	}
	c := v.Clone()
	for i := range c.care {
		k := c.n - i*64
		mask := ^uint64(0)
		if k < 64 {
			mask = 1<<uint(k) - 1
		}
		if fill == One {
			c.val[i] |= ^c.care[i] & mask
		}
		c.care[i] = mask
	}
	return c
}

// Words exposes the raw planes for word-level hot loops. The returned
// slices alias v's storage and must not be resized.
func (v Vector) Words() (care, val []uint64) { return v.care, v.val }

// HammingSpecified counts positions where both vectors are specified and
// differ.
func (v Vector) HammingSpecified(o Vector) int {
	if v.n != o.n {
		panic("tritvec: HammingSpecified on vectors of different length")
	}
	n := 0
	for i := range v.care {
		n += bits.OnesCount64(v.care[i] & o.care[i] & (v.val[i] ^ o.val[i]))
	}
	return n
}
