package tritvec

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// The packed kernels: ParsePacked and AppendPacked convert between the
// bit planes and 2-bit codes, most significant first: 00 = X, 01 = 0,
// 10 = 1, and 11 is invalid. The high bit is the value bit and the OR
// of the two the care bit. A big-endian word of 32 codes, bit-reversed,
// holds code i's high bit at bit 2i and its low bit at bit 2i+1, so
// each step gathers or scatters a word's even and odd bits.

// ParsePacked reads n trits from the codes of src that start at code
// skip (code i lies in byte i/4). A 11 code fails with its position in
// the vector. A src shorter than skip+n codes panics.
func ParsePacked(src []byte, skip, n int) (Vector, error) {
	if skip < 0 || n < 0 || skip+n > 4*len(src) {
		panic(fmt.Sprintf("tritvec: ParsePacked of codes [%d,%d) from %d bytes", skip, skip+n, len(src)))
	}
	v := alloc(n)
	src, s := src[skip>>2:], 2*uint(skip&3)
	for q := 0; q < n; q += 32 {
		w := src[q>>2:]
		if len(w) < 9 {
			var tail [9]byte
			copy(tail[:], w)
			w = tail[:]
		}
		x := bits.Reverse64(binary.BigEndian.Uint64(w)<<s | uint64(w[8])>>(8-s))
		mask := uint32(1)<<uint(min(n-q, 32)) - 1 // 1<<32 is 0 for a uint32: all ones
		hi, lo := gatherEven(x)&mask, gatherEven(x>>1)&mask
		if bad := hi & lo; bad != 0 {
			return Vector{}, fmt.Errorf("tritvec: invalid trit code 3 at position %d", q+bits.TrailingZeros32(bad))
		}
		v.care[q>>6] |= uint64(hi|lo) << (uint(q) & 63)
		v.val[q>>6] |= uint64(hi) << (uint(q) & 63)
	}
	return v, nil
}

// AppendPacked appends v's codes to dst and returns the extended slice.
// The first skip codes (0 ≤ skip < 4) of dst's last byte are taken, and
// its other bits zero, as AppendPacked leaves them; skip 0 starts a new
// byte.
func (v Vector) AppendPacked(dst []byte, skip int) []byte {
	start := len(dst) - (skip+3)/4
	end := start + (skip+v.n+3)/4
	dst = slices.Grow(dst, end-len(dst))[:end]
	for b := start; b < end; b += 8 {
		pos := 4*(b-start) - skip // negative only in the first step
		sh := uint(max(-pos, 0))
		care, val := window(v.care, max(pos, 0))<<sh, window(v.val, max(pos, 0))<<sh
		x := bits.Reverse64(scatterEven(uint32(val)) | scatterEven(uint32(care&^val))<<1)
		if pos < 0 {
			x |= uint64(dst[b]) << 56
		}
		var w [8]byte
		binary.BigEndian.PutUint64(w[:], x)
		copy(dst[b:], w[:])
	}
	return dst
}

// gatherEven moves bit 2i of x to bit i.
func gatherEven(x uint64) uint32 {
	x &= 0x5555555555555555
	x = (x | x>>1) & 0x3333333333333333
	x = (x | x>>2) & 0x0f0f0f0f0f0f0f0f
	x = (x | x>>4) & 0x00ff00ff00ff00ff
	x = (x | x>>8) & 0x0000ffff0000ffff
	return uint32(x | x>>16)
}

// scatterEven moves bit i of x to bit 2i.
func scatterEven(x uint32) uint64 {
	y := uint64(x)
	y = (y | y<<16) & 0x0000ffff0000ffff
	y = (y | y<<8) & 0x00ff00ff00ff00ff
	y = (y | y<<4) & 0x0f0f0f0f0f0f0f0f
	y = (y | y<<2) & 0x3333333333333333
	return (y | y<<1) & 0x5555555555555555
}
