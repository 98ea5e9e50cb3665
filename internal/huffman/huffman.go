// Package huffman implements canonical Huffman coding over symbol
// frequencies, as used by the paper to assign prefix codewords to matching
// vectors (Section 3.3). Symbols with zero frequency receive no codeword at
// all — the paper notes that "an MV with a frequency of 0 can be simply
// left out without allocating a codeword to it".
//
// Build, which writes every block-code container, and Cost, which sizes
// every EA fitness evaluation, run one merge, so the size the EA
// optimises is the size the container gets.
package huffman

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/bitstream"
)

// Code is a prefix code over a symbol alphabet 0..n-1. A symbol with
// Lengths[i]==0 has no codeword (zero frequency).
type Code struct {
	// Lengths[i] is the codeword length in bits for symbol i (0 = absent).
	Lengths []int
	// Words[i] holds the codeword bits for symbol i, MSB-first in the low
	// Lengths[i] bits.
	Words []uint64
}

// NumSymbols returns the alphabet size (including absent symbols).
func (c *Code) NumSymbols() int { return len(c.Lengths) }

// NumUsed returns the number of symbols with a codeword.
func (c *Code) NumUsed() int {
	n := 0
	for _, l := range c.Lengths {
		if l > 0 {
			n++
		}
	}
	return n
}

// WordString renders symbol i's codeword as a binary string.
func (c *Code) WordString(i int) string {
	l := c.Lengths[i]
	if l == 0 {
		return ""
	}
	buf := make([]byte, l)
	for b := 0; b < l; b++ {
		buf[b] = byte('0' + (c.Words[i] >> uint(l-1-b) & 1))
	}
	return string(buf)
}

// Build constructs a canonical Huffman code for the given frequencies.
// Zero-frequency symbols are excluded. If exactly one symbol has nonzero
// frequency it is assigned the 1-bit codeword "0" (a degenerate but valid
// prefix code; the stream remains self-delimiting). Build returns an error
// if no symbol has positive frequency.
//
// The lengths come from merge over the used symbols sorted stably by
// frequency, so a tie goes to the lower symbol index, and to a leaf
// before a merged node.
func Build(freqs []int) (*Code, error) {
	var syms []int
	for i, f := range freqs {
		if f < 0 {
			return nil, fmt.Errorf("huffman: negative frequency %d for symbol %d", f, i)
		}
		if f > 0 {
			syms = append(syms, i)
		}
	}
	if len(syms) == 0 {
		return nil, fmt.Errorf("huffman: no symbol with positive frequency")
	}
	lengths := make([]int, len(freqs))
	n := len(syms)
	if n == 1 {
		lengths[syms[0]] = 1
		return canonical(lengths)
	}
	slices.SortStableFunc(syms, func(a, b int) int { return cmp.Compare(freqs[a], freqs[b]) })
	w := make([]int, n)
	for i, s := range syms {
		w[i] = freqs[s]
	}
	up := make([]int, 2*n-1)
	merge(w, up)
	// Turn each merged node's parent into its depth, from the root
	// (whose slot merge leaves 0) down: a parent is a later merge.
	depth := up[n:]
	for m := n - 3; m >= 0; m-- {
		depth[m] = depth[depth[m]] + 1
	}
	for i, s := range syms {
		lengths[s] = depth[up[i]] + 1
	}
	return canonical(lengths)
}

// Cost returns Σ freqs[i]·Lengths[i] of the code Build(freqs) would
// return — the codeword bits of a Huffman code — without building it,
// and false when no frequency is positive. It reorders and overwrites
// freqs, and allocates nothing.
//
// Cost sorts the positive weights and runs merge on them, as Build
// does: the same values in the same order give the same merges, whose
// weights sum to Σ f·len. One used symbol costs 1 bit per occurrence,
// as in Build. Build's 62-bit length cap is not checked: a codeword of
// 63 bits or more needs a total weight above the Fibonacci number
// F(64) ≈ 1.06·10¹³.
func Cost(freqs []int) (int, bool) {
	n := 0
	for _, f := range freqs {
		if f > 0 {
			freqs[n] = f
			n++
		}
	}
	switch n {
	case 0:
		return 0, false
	case 1:
		return freqs[0], true
	}
	w := freqs[:n]
	slices.Sort(w)
	return merge(w, nil), true
}

// merge runs Huffman's algorithm on n ≥ 2 weights w sorted ascending
// and returns the sum of all merged weights, Σ w·len of the tree. The
// leaves and the merged nodes, which come out ascending, wait in two
// queues; each merge takes the two lightest heads, a leaf before a
// merged node of equal weight. If up is not nil (2n-1 long), up[i]
// receives the merge that consumed leaf i and up[n+m] the one that
// consumed merged node m; the root, merge n-2, leaves its slot as is.
func merge(w, up []int) int {
	n := len(w)
	// Leaves are w[leaf:]; merged nodes are w[node:merged]. Merge m
	// consumes two nodes and stores its weight at w[m]: by then at
	// least m+2 leaves are consumed, so the slot is free.
	leaf, node, total := 0, 0, 0
	for merged := 0; merged < n-1; merged++ {
		sum := 0
		for pick := 0; pick < 2; pick++ {
			if leaf < n && (node == merged || w[leaf] <= w[node]) {
				if up != nil {
					up[leaf] = merged
				}
				sum += w[leaf]
				leaf++
			} else {
				if up != nil {
					up[n+node] = merged
				}
				sum += w[node]
				node++
			}
		}
		w[merged] = sum
		total += sum
	}
	return total
}

// FromLengths builds a canonical code from explicit codeword lengths
// (0 = absent). It validates the Kraft inequality.
func FromLengths(lengths []int) (*Code, error) {
	ls := append([]int(nil), lengths...)
	return canonical(ls)
}

// canonical assigns canonical codewords for the given lengths: symbols are
// sorted by (length, symbol index); codewords increase numerically.
func canonical(lengths []int) (*Code, error) {
	type sym struct{ idx, len int }
	var used []sym
	maxLen := 0
	for i, l := range lengths {
		if l < 0 || l > 62 {
			return nil, fmt.Errorf("huffman: invalid code length %d for symbol %d", l, i)
		}
		if l > 0 {
			used = append(used, sym{i, l})
			if l > maxLen {
				maxLen = l
			}
		}
	}
	if len(used) == 0 {
		return nil, fmt.Errorf("huffman: empty code")
	}
	// Kraft sum must be ≤ 1 for a prefix code to exist.
	var kraft uint64
	unit := uint64(1) << uint(maxLen)
	for _, s := range used {
		kraft += unit >> uint(s.len)
	}
	if kraft > unit {
		return nil, fmt.Errorf("huffman: lengths violate Kraft inequality")
	}
	sort.Slice(used, func(i, j int) bool {
		if used[i].len != used[j].len {
			return used[i].len < used[j].len
		}
		return used[i].idx < used[j].idx
	})
	words := make([]uint64, len(lengths))
	var code uint64
	prevLen := used[0].len
	for _, s := range used {
		code <<= uint(s.len - prevLen)
		prevLen = s.len
		words[s.idx] = code
		code++
	}
	return &Code{Lengths: lengths, Words: words}, nil
}

// IsPrefixFree verifies that no codeword is a prefix of another. Canonical
// construction guarantees this; the check exists for tests and for codes
// loaded from external sources (the fixed 9C code table, and the tables
// a container carries). It reads only the low Lengths[i] bits of each
// word, the bits the decoders read; two symbols with the same codeword
// violate it, and so does a length above 64.
//
// It sorts the codewords as bit strings, by left-aligned word and then
// by length, and compares neighbours only: O(n log n). If a is a prefix
// of c, every string sorted between them starts with a too, so some
// adjacent pair violates the check whenever any pair does.
func (c *Code) IsPrefixFree() bool {
	type word struct {
		bits uint64 // left-aligned: the codeword's first bit is bit 63
		len  int
	}
	ws := make([]word, 0, len(c.Lengths))
	for i, l := range c.Lengths {
		if l > 64 {
			return false
		}
		if l > 0 {
			ws = append(ws, word{c.Words[i] << uint(64-l), l})
		}
	}
	slices.SortFunc(ws, func(a, b word) int {
		if a.bits != b.bits {
			return cmp.Compare(a.bits, b.bits)
		}
		return a.len - b.len
	})
	for i := 1; i < len(ws); i++ {
		a, b := ws[i-1], ws[i]
		if (a.bits^b.bits)>>uint(64-min(a.len, b.len)) == 0 {
			return false
		}
	}
	return true
}

// TotalBits returns Σ freqs[i] * Lengths[i] — the codeword contribution to
// the compressed size (fill bits are accounted for by the caller).
func (c *Code) TotalBits(freqs []int) int {
	total := 0
	for i, f := range freqs {
		total += f * c.Lengths[i]
	}
	return total
}

// Explicit builds a Code directly from (length, word) pairs without
// canonicalization. Used for the fixed 9C codeword table from the paper.
func Explicit(lengths []int, words []uint64) (*Code, error) {
	if len(lengths) != len(words) {
		return nil, fmt.Errorf("huffman: lengths/words size mismatch")
	}
	c := &Code{Lengths: append([]int(nil), lengths...), Words: append([]uint64(nil), words...)}
	if !c.IsPrefixFree() {
		return nil, fmt.Errorf("huffman: explicit code is not prefix-free")
	}
	return c, nil
}

// Decoder walks a prefix code bit by bit.
type Decoder struct {
	// children[node][bit] -> next node (>=0) or ^symbol (<0, leaf).
	children [][2]int
}

// NewDecoder builds a decoding trie for c.
func NewDecoder(c *Code) (*Decoder, error) {
	d := &Decoder{children: make([][2]int, 1)}
	d.children[0] = [2]int{-1 - (1 << 30), -1 - (1 << 30)}
	const empty = -1 - (1 << 30)
	for sym, l := range c.Lengths {
		if l == 0 {
			continue
		}
		nodeIdx := 0
		for b := l - 1; b >= 0; b-- {
			bit := int(c.Words[sym] >> uint(b) & 1)
			next := d.children[nodeIdx][bit]
			if b == 0 {
				if next != empty {
					return nil, fmt.Errorf("huffman: code not prefix-free at symbol %d", sym)
				}
				d.children[nodeIdx][bit] = -1 - sym
			} else {
				if next == empty {
					d.children = append(d.children, [2]int{empty, empty})
					next = len(d.children) - 1
					d.children[nodeIdx][bit] = next
				} else if next < 0 {
					return nil, fmt.Errorf("huffman: code not prefix-free at symbol %d", sym)
				}
				nodeIdx = next
			}
		}
	}
	return d, nil
}

// Decode reads r one bit at a time until a symbol is reached.
func (d *Decoder) Decode(r *bitstream.Reader) (int, error) {
	const empty = -1 - (1 << 30)
	nodeIdx := 0
	for {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		next := d.children[nodeIdx][b&1]
		if next == empty {
			return 0, fmt.Errorf("huffman: invalid bit sequence")
		}
		if next < 0 {
			return -1 - next, nil
		}
		nodeIdx = next
	}
}

// maxTableBits bounds the primary lookup table of a TableDecoder: 2^11
// entries cover every codeword of length <= 11 — in practice all of
// them, since selective-Huffman dictionaries are small — while keeping
// the table build O(thousands) even for degenerate codes.
const maxTableBits = 11

type tableEntry struct {
	sym int32 // decoded symbol
	len uint8 // codeword length in bits; 0 = not resolvable by the table
}

// TableDecoder decodes a whole symbol per table probe: it peeks a
// tableBits window, looks the window up in a precomputed table, and
// consumes the matched codeword's length in one Skip. Codewords longer
// than the table window fall back to the bit-at-a-time trie, which also
// owns the error paths (truncated stream, invalid sequence), so both
// decoders are observably identical.
type TableDecoder struct {
	trie      *Decoder
	tableBits int
	entries   []tableEntry
}

// NewTableDecoder builds a table-accelerated decoder for c.
func NewTableDecoder(c *Code) (*TableDecoder, error) {
	trie, err := NewDecoder(c)
	if err != nil {
		return nil, err
	}
	tb := 0
	for _, l := range c.Lengths {
		if l > tb {
			tb = l
		}
	}
	if tb > maxTableBits {
		tb = maxTableBits
	}
	d := &TableDecoder{trie: trie, tableBits: tb, entries: make([]tableEntry, 1<<uint(tb))}
	for sym, l := range c.Lengths {
		if l == 0 || l > tb {
			continue
		}
		// Every window whose first l bits equal the codeword decodes to
		// this symbol, whatever the following bits are. Like the trie,
		// only the low l bits of the word count — codes parsed from a
		// container may carry junk above them.
		base := (c.Words[sym] & (1<<uint(l) - 1)) << uint(tb-l)
		for i := uint64(0); i < 1<<uint(tb-l); i++ {
			d.entries[base+i] = tableEntry{sym: int32(sym), len: uint8(l)}
		}
	}
	return d, nil
}

// Decode reads one symbol from r.
func (d *TableDecoder) Decode(r *bitstream.Reader) (int, error) {
	v, avail := r.PeekBits(d.tableBits)
	if avail > 0 {
		// A short window is zero-padded; a hit still only stands on the
		// len bits that are really there.
		e := d.entries[v<<uint(d.tableBits-avail)]
		if e.len != 0 && int(e.len) <= avail {
			_ = r.Skip(int(e.len)) // cannot fail: the bits were peeked
			return int(e.sym), nil
		}
	}
	return d.trie.Decode(r)
}

// NumNodes returns the number of internal trie nodes — used by the on-chip
// decoder area model.
func (d *Decoder) NumNodes() int { return len(d.children) }

// Edge is one transition of the decoding trie.
type Edge struct {
	From int // source state
	Bit  int // input bit (0 or 1)
	To   int // target state (internal edges only)
	// Leaf marks codeword-completing edges; Symbol is then the decoded
	// symbol and To is meaningless.
	Leaf   bool
	Symbol int
}

// Edges lists all trie transitions, for hardware synthesis of the
// decoder FSM.
func (d *Decoder) Edges() []Edge {
	const empty = -1 - (1 << 30)
	var out []Edge
	for s, ch := range d.children {
		for b := 0; b < 2; b++ {
			next := ch[b]
			if next == empty {
				continue
			}
			if next < 0 {
				out = append(out, Edge{From: s, Bit: b, Leaf: true, Symbol: -1 - next})
			} else {
				out = append(out, Edge{From: s, Bit: b, To: next})
			}
		}
	}
	return out
}
