package tritvec

import (
	"encoding/binary"
	"slices"
)

// The text kernels: Parse and AppendTo move eight trit characters per
// step between a byte slice and the two bit planes. In a 64-bit word
// holding eight characters (little-endian, so character j is byte lane
// j), a lane holds '0' (0x30), '1' (0x31) or 'X' (0x58). Bit 6 of the
// lane is clear exactly for '0' and '1', and bit 0 is the value, so
//
//	care lane = ^x>>6 & 1, val lane = x & care lane,
//	character = 0x58 - 0x28·care + val,
//
// which no lane carries out of, because each result lies in
// [0x30, 0x58]. Parse rebuilds the characters from the two flags: a group
// equal to its rebuild held only those three.

const (
	laneLow = 0x0101010101010101 // bit 0 of every byte lane
	laneX   = 0x5858585858585858 // eight 'X'
	laneDX  = 0x28               // 'X' - '0'
	// gather, multiplied by a word of 0/1 byte lanes, collects lane j's
	// bit at bit 56+j; >>56 then leaves lane j at bit j.
	gather = 0x0102040810204080
)

// spread[b] holds bit i of b at bit 8i.
var spread = func() (t [256]uint64) {
	for b := range t {
		for i := 0; i < 8; i++ {
			t[b] |= uint64(b>>i&1) << (8 * i)
		}
	}
	return t
}()

// Parse reads a vector from trit characters. A group of eight '0', '1'
// or 'X' characters becomes a care byte and a value byte in a few word
// operations. A group holding any other byte (the spellings 'x', 'u',
// 'U' and '-', or an invalid character) and the last len(b)%8
// characters go through ParseTrit one byte at a time, so the error
// names the first invalid character.
func Parse(b []byte) (Vector, error) {
	v := alloc(len(b))
	for q := 0; q < len(b); q += 8 {
		var care, val uint64
		x, ok := uint64(0), false
		if q+8 <= len(b) {
			x = binary.LittleEndian.Uint64(b[q:])
			care = ^x >> 6 & laneLow
			ok = laneX-care*laneDX+x&care == x
		}
		if ok {
			care, val = care*gather>>56, x&care*gather>>56
		} else {
			var err error
			if care, val, err = parseGroup(b[q:min(q+8, len(b))]); err != nil {
				return Vector{}, err
			}
		}
		v.care[q>>6] |= care << (uint(q) & 63)
		v.val[q>>6] |= val << (uint(q) & 63)
	}
	return v, nil
}

// parseGroup is Parse's byte-at-a-time lane: the care and value bits of
// up to eight characters. Trit t is X, 0, 1 for t = 0, 1, 2, so its care
// bit is (t+1)>>1 and its value bit t>>1.
func parseGroup(b []byte) (care, val uint64, err error) {
	for i, c := range b {
		t, err := ParseTrit(c)
		if err != nil {
			return 0, 0, err
		}
		care |= uint64(t+1) >> 1 << uint(i)
		val |= uint64(t) >> 1 << uint(i)
	}
	return care, val, nil
}

// AppendTo appends v's trit characters ('0', '1', 'X') to dst and
// returns the extended slice. Each step spreads a care byte and a value
// byte over byte lanes and turns them into eight characters.
func (v Vector) AppendTo(dst []byte) []byte {
	n := len(dst)
	dst = slices.Grow(dst, v.n)[:n+v.n]
	out := dst[n:]
	for q := 0; q < v.n; q += 8 {
		sh := uint(q) & 63
		x := laneX - spread[byte(v.care[q>>6]>>sh)]*laneDX + spread[byte(v.val[q>>6]>>sh)]
		if q+8 <= v.n {
			binary.LittleEndian.PutUint64(out[q:], x)
			continue
		}
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], x)
		copy(out[q:], tail[:])
	}
	return dst
}
