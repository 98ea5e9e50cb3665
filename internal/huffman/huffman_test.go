package huffman

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitstream"
)

func TestBuildBasic(t *testing.T) {
	// Classic example: frequencies 5,3,2 → lengths 1,2,2.
	c, err := Build([]int{5, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 2}
	for i, l := range want {
		if c.Lengths[i] != l {
			t.Errorf("symbol %d: length %d want %d", i, c.Lengths[i], l)
		}
	}
	if !c.IsPrefixFree() {
		t.Fatal("not prefix free")
	}
	if c.TotalBits([]int{5, 3, 2}) != 5*1+3*2+2*2 {
		t.Fatalf("TotalBits=%d", c.TotalBits([]int{5, 3, 2}))
	}
}

func TestBuildSkipsZeroFreq(t *testing.T) {
	c, err := Build([]int{0, 7, 0, 3, 0})
	if err != nil {
		t.Fatal(err)
	}
	if c.Lengths[0] != 0 || c.Lengths[2] != 0 || c.Lengths[4] != 0 {
		t.Fatal("zero-frequency symbols must have no codeword")
	}
	if c.Lengths[1] != 1 || c.Lengths[3] != 1 {
		t.Fatalf("two-symbol code should be 1/1 bits, got %v", c.Lengths)
	}
	if c.NumUsed() != 2 || c.NumSymbols() != 5 {
		t.Fatalf("NumUsed=%d NumSymbols=%d", c.NumUsed(), c.NumSymbols())
	}
}

func TestBuildSingleSymbol(t *testing.T) {
	c, err := Build([]int{0, 9})
	if err != nil {
		t.Fatal(err)
	}
	if c.Lengths[1] != 1 {
		t.Fatalf("degenerate single-symbol code should get 1 bit, got %d", c.Lengths[1])
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build([]int{0, 0}); err == nil {
		t.Fatal("expected error for all-zero frequencies")
	}
	if _, err := Build([]int{-1, 5}); err == nil {
		t.Fatal("expected error for negative frequency")
	}
	if _, err := Build(nil); err == nil {
		t.Fatal("expected error for empty alphabet")
	}
}

func TestWordString(t *testing.T) {
	c, err := Build([]int{5, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	if c.WordString(0) != "0" {
		t.Fatalf("canonical first word = %q", c.WordString(0))
	}
	if got := c.WordString(1); got != "10" {
		t.Fatalf("second word = %q", got)
	}
	cZero := &Code{Lengths: []int{0}, Words: []uint64{0}}
	if cZero.WordString(0) != "" {
		t.Fatal("absent symbol should render empty")
	}
}

func TestFromLengthsKraft(t *testing.T) {
	if _, err := FromLengths([]int{1, 1, 1}); err == nil {
		t.Fatal("Kraft violation not detected")
	}
	c, err := FromLengths([]int{1, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !c.IsPrefixFree() {
		t.Fatal("FromLengths produced non-prefix code")
	}
	if _, err := FromLengths([]int{1, -2}); err == nil {
		t.Fatal("negative length not rejected")
	}
	if _, err := FromLengths([]int{0, 0}); err == nil {
		t.Fatal("empty code not rejected")
	}
}

func TestExplicit(t *testing.T) {
	// The fixed 9C table from the paper must be accepted.
	lengths := []int{1, 2, 5, 5, 5, 5, 5, 5, 4}
	words := []uint64{0b0, 0b10, 0b11000, 0b11001, 0b11010, 0b11011, 0b11100, 0b11101, 0b1111}
	c, err := Explicit(lengths, words)
	if err != nil {
		t.Fatal(err)
	}
	if !c.IsPrefixFree() {
		t.Fatal("9C table should be prefix free")
	}
	// A clashing table must be rejected.
	if _, err := Explicit([]int{1, 2}, []uint64{0, 0b01}); err == nil {
		t.Fatal("prefix clash not rejected")
	}
	if _, err := Explicit([]int{1}, []uint64{0, 1}); err == nil {
		t.Fatal("size mismatch not rejected")
	}
}

// bruteForceOptimal computes the optimal expected code length by trying all
// length assignments satisfying Kraft for tiny alphabets.
func bruteForceOptimal(freqs []int) int {
	var syms []int
	for i, f := range freqs {
		if f > 0 {
			syms = append(syms, i)
		}
	}
	n := len(syms)
	if n == 1 {
		return freqs[syms[0]]
	}
	best := 1 << 30
	lens := make([]int, n)
	maxLen := n
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			// Kraft check
			sum := 0.0
			for _, l := range lens {
				sum += 1 / float64(uint(1)<<uint(l))
			}
			if sum > 1.0000001 {
				return
			}
			total := 0
			for j, s := range syms {
				total += freqs[s] * lens[j]
			}
			if total < best {
				best = total
			}
			return
		}
		for l := 1; l <= maxLen; l++ {
			lens[i] = l
			rec(i + 1)
		}
	}
	rec(0)
	return best
}

func TestOptimalityVsBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for iter := 0; iter < 50; iter++ {
		n := r.Intn(4) + 2
		freqs := make([]int, n)
		for i := range freqs {
			freqs[i] = r.Intn(20) + 1
		}
		c, err := Build(freqs)
		if err != nil {
			t.Fatal(err)
		}
		got := c.TotalBits(freqs)
		want := bruteForceOptimal(freqs)
		if got != want {
			t.Fatalf("freqs=%v: huffman %d bits, optimal %d", freqs, got, want)
		}
	}
}

func TestQuickPrefixFreeAndKraftTight(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(40) + 2
		freqs := make([]int, n)
		nonzero := 0
		for i := range freqs {
			if r.Intn(3) > 0 {
				freqs[i] = r.Intn(1000) + 1
				nonzero++
			}
		}
		if nonzero == 0 {
			freqs[0] = 1
			nonzero = 1
		}
		c, err := Build(freqs)
		if err != nil {
			return false
		}
		if !c.IsPrefixFree() {
			return false
		}
		// For >=2 symbols, Huffman codes satisfy Kraft with equality.
		if nonzero >= 2 {
			maxLen := 0
			for _, l := range c.Lengths {
				if l > maxLen {
					maxLen = l
				}
			}
			var sum, unit uint64 = 0, 1 << uint(maxLen)
			for _, l := range c.Lengths {
				if l > 0 {
					sum += unit >> uint(l)
				}
			}
			if sum != unit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecoderRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for iter := 0; iter < 50; iter++ {
		n := r.Intn(20) + 1
		freqs := make([]int, n)
		for i := range freqs {
			freqs[i] = r.Intn(50)
		}
		freqs[r.Intn(n)] = r.Intn(50) + 1
		c, err := Build(freqs)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := NewDecoder(c)
		if err != nil {
			t.Fatal(err)
		}
		// Encode a random symbol sequence (only used symbols).
		var used []int
		for i, l := range c.Lengths {
			if l > 0 {
				used = append(used, i)
			}
		}
		w := bitstream.NewWriter()
		var seq []int
		for j := 0; j < 200; j++ {
			s := used[r.Intn(len(used))]
			seq = append(seq, s)
			w.WriteBits(c.Words[s], c.Lengths[s])
		}
		rd := bitstream.FromWriter(w)
		for j, want := range seq {
			got, err := dec.Decode(rd)
			if err != nil {
				t.Fatalf("decode %d: %v", j, err)
			}
			if got != want {
				t.Fatalf("decode %d: got %d want %d", j, got, want)
			}
		}
		if rd.Remaining() != 0 {
			t.Fatal("trailing bits after decode")
		}
	}
}

func TestDecoderRejectsNonPrefix(t *testing.T) {
	c := &Code{Lengths: []int{1, 2}, Words: []uint64{0b0, 0b01}}
	if _, err := NewDecoder(c); err == nil {
		t.Fatal("decoder accepted non-prefix code")
	}
}

func TestDecoderNumNodes(t *testing.T) {
	c, err := Build([]int{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(c)
	if err != nil {
		t.Fatal(err)
	}
	// Balanced 4-leaf tree has 3 internal nodes.
	if dec.NumNodes() != 3 {
		t.Fatalf("NumNodes=%d want 3", dec.NumNodes())
	}
}

func TestDecoderEOS(t *testing.T) {
	c, _ := Build([]int{1, 1})
	dec, _ := NewDecoder(c)
	rd := bitstream.NewReader(nil, 0)
	if _, err := dec.Decode(rd); err == nil {
		t.Fatal("expected error at end of stream")
	}
}

// prefixFreeReference is the quadratic check IsPrefixFree replaced: it
// compares every ordered pair of codewords, on their low Lengths[i] bits.
func prefixFreeReference(c *Code) bool {
	type w struct {
		bits uint64
		len  int
	}
	var ws []w
	for i, l := range c.Lengths {
		if l > 0 {
			ws = append(ws, w{c.Words[i] & (1<<uint(l) - 1), l})
		}
	}
	for i := 0; i < len(ws); i++ {
		for j := 0; j < len(ws); j++ {
			if i == j {
				continue
			}
			a, b := ws[i], ws[j]
			if a.len <= b.len && b.bits>>uint(b.len-a.len) == a.bits {
				return false
			}
		}
	}
	return true
}

// TestIsPrefixFreeMatchesReference compares IsPrefixFree with the
// quadratic reference on random codes with and without violations:
// canonical codes, duplicated codewords, a codeword cut down to a prefix
// of another, zero lengths, length-64 words, and bits set above a
// word's length, which neither check may read.
func TestIsPrefixFreeMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	low := func(w uint64, l int) uint64 { return w & (1<<uint(l) - 1) }
	counts := map[bool]int{}
	for iter := 0; iter < 4000; iter++ {
		n := 1 + r.Intn(24)
		lengths := make([]int, n)
		words := make([]uint64, n)
		switch iter % 3 {
		case 0: // canonical, so prefix-free until mutated
			freqs := make([]int, n)
			for i := range freqs {
				freqs[i] = r.Intn(50)
			}
			freqs[0]++
			c, err := Build(freqs)
			if err != nil {
				t.Fatal(err)
			}
			copy(lengths, c.Lengths)
			copy(words, c.Words)
		case 1: // short words: violations are common
			for i := range lengths {
				lengths[i] = r.Intn(6)
				words[i] = low(r.Uint64(), lengths[i])
			}
		case 2: // long words, length 64 among them
			for i := range lengths {
				lengths[i] = []int{0, 64, 63, 1 + r.Intn(64)}[r.Intn(4)]
				words[i] = low(r.Uint64(), lengths[i])
			}
		}
		if i, j := r.Intn(n), r.Intn(n); i != j && lengths[j] > 0 && r.Intn(2) == 0 {
			if r.Intn(2) == 0 {
				lengths[i], words[i] = lengths[j], words[j]
			} else {
				lengths[i] = 1 + r.Intn(lengths[j])
				words[i] = words[j] >> uint(lengths[j]-lengths[i])
			}
		}
		if i := r.Intn(n); lengths[i] < 64 && r.Intn(3) == 0 {
			words[i] |= r.Uint64() << uint(lengths[i])
		}
		c := &Code{Lengths: lengths, Words: words}
		got, want := c.IsPrefixFree(), prefixFreeReference(c)
		if got != want {
			t.Fatalf("lengths %v words %x: IsPrefixFree %v, reference %v", lengths, words, got, want)
		}
		counts[got]++
	}
	if counts[true] < 500 || counts[false] < 500 {
		t.Fatalf("unbalanced cases: %d prefix-free, %d not", counts[true], counts[false])
	}
}

// TestIsPrefixFreeReadsLowBits pins the check to the bits the decoders
// read: a word's bits above its length do not hide a violation.
func TestIsPrefixFreeReadsLowBits(t *testing.T) {
	for _, tc := range []struct {
		lengths []int
		words   []uint64
		want    bool
	}{
		{[]int{1, 2}, []uint64{0b10, 0b00}, false}, // "0" is a prefix of "00"
		{[]int{1, 1}, []uint64{0b11, 0b01}, false}, // "1" twice
		{[]int{1, 2}, []uint64{0b10, 0b10}, true},  // "0" and "10"
		{[]int{64, 64}, []uint64{1 << 63, 1 << 63}, false},
		{[]int{2, 0, 64}, []uint64{0b01, 0b01, 1 << 62}, false}, // "01" starts the 64-bit word
		{[]int{65}, []uint64{0}, false},
	} {
		c := &Code{Lengths: tc.lengths, Words: tc.words}
		if got := c.IsPrefixFree(); got != tc.want {
			t.Errorf("lengths %v words %b: IsPrefixFree %v, want %v", tc.lengths, tc.words, got, tc.want)
		}
	}
}
