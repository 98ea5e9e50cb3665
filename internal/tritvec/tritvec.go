// Package tritvec implements packed ternary vectors over the alphabet
// {0, 1, X}, where X denotes an unspecified value (a don't-care in a test
// pattern, or a U position in a matching vector).
//
// Vectors are stored in two bit planes of 64-bit words: a care plane and a
// value plane. Position j is specified iff care bit j is set; its value is
// then the value bit j. The invariant val ⊆ care holds at all times (an
// unspecified position has value bit 0), which makes word-wise equality,
// matching and subsumption tests single AND/XOR expressions.
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
	w := words(n)
	return Vector{n: n, care: make([]uint64, w), val: make([]uint64, w)}
}

// FromString parses a vector from a string of trit characters.
func FromString(s string) (Vector, error) {
	v := New(len(s))
	for i := 0; i < len(s); i++ {
		t, err := ParseTrit(s[i])
		if err != nil {
			return Vector{}, err
		}
		v.Set(i, t)
	}
	return v, nil
}

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
	c := Vector{n: v.n, care: make([]uint64, len(v.care)), val: make([]uint64, len(v.val))}
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

// String renders the vector with '0', '1' and 'X'.
func (v Vector) String() string {
	var sb strings.Builder
	sb.Grow(v.n)
	for i := 0; i < v.n; i++ {
		sb.WriteString(v.Get(i).String())
	}
	return sb.String()
}

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

// Slice returns a copy of positions [lo, hi). Both planes are extracted
// word-at-a-time (a funnel shift per output word), so splitting a flat
// decode string back into patterns costs O(words), not O(bits).
func (v Vector) Slice(lo, hi int) Vector {
	if lo < 0 || hi > v.n || lo > hi {
		panic(fmt.Sprintf("tritvec: bad slice [%d,%d) of length %d", lo, hi, v.n))
	}
	out := Vector{n: hi - lo}
	out.care = sliceWords(v.care, lo, out.n)
	out.val = sliceWords(v.val, lo, out.n)
	return out
}

// sliceWords extracts n bits of a plane starting at bit offset lo.
func sliceWords(src []uint64, lo, n int) []uint64 {
	out := make([]uint64, words(n))
	w, b := lo>>6, uint(lo&63)
	for i := range out {
		x := src[w+i] >> b
		if b != 0 && w+i+1 < len(src) {
			x |= src[w+i+1] << (64 - b)
		}
		out[i] = x
	}
	if r := uint(n & 63); r != 0 {
		out[len(out)-1] &= 1<<r - 1
	}
	return out
}

// Concat returns the concatenation of the given vectors.
func Concat(vs ...Vector) Vector {
	total := 0
	for _, v := range vs {
		total += v.n
	}
	out := New(total)
	off := 0
	for _, v := range vs {
		for i := 0; i < v.n; i++ {
			out.Set(off+i, v.Get(i))
		}
		off += v.n
	}
	return out
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

// Compatible reports whether v's specified positions are preserved in o:
// for every position where v is specified, o is specified with the same
// value. This is the lossless-compression acceptance criterion: the decoded
// (fully specified) block must be Compatible with the original block.
func (v Vector) Compatible(o Vector) bool {
	return v.Subsumes(o) // same structural condition, kept as a named alias
}

// Overlay returns a copy of v where every X position takes o's trit. Used
// by the decoder: MV specified bits overlaid with transmitted fill bits.
func (v Vector) Overlay(o Vector) Vector {
	if v.n != o.n {
		panic("tritvec: Overlay on vectors of different length")
	}
	out := v.Clone()
	for i := 0; i < v.n; i++ {
		if out.Get(i) == X {
			out.Set(i, o.Get(i))
		}
	}
	return out
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
