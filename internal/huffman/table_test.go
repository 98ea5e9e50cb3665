package huffman

import (
	"math/rand"
	"testing"

	"repro/internal/bitstream"
)

// randomCode builds a Huffman code over n symbols with random skewed
// frequencies (some zero).
func randomCode(n int, r *rand.Rand) *Code {
	freqs := make([]int, n)
	nonzero := false
	for i := range freqs {
		if r.Intn(4) > 0 {
			freqs[i] = 1 << uint(r.Intn(12))
			nonzero = true
		}
	}
	if !nonzero {
		freqs[0] = 1
	}
	c, err := Build(freqs)
	if err != nil {
		panic(err)
	}
	return c
}

func TestTableDecoderMatchesTrie(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	for trial := 0; trial < 100; trial++ {
		c := randomCode(1+r.Intn(40), r)
		td, err := NewTableDecoder(c)
		if err != nil {
			t.Fatal(err)
		}
		trie, err := NewDecoder(c)
		if err != nil {
			t.Fatal(err)
		}
		var used []int
		for sym, l := range c.Lengths {
			if l > 0 {
				used = append(used, sym)
			}
		}
		// Encode a random symbol sequence, then decode it through the
		// table and through the trie, the per-bit reference.
		w := bitstream.NewWriter()
		var want []int
		for i := 0; i < 200; i++ {
			sym := used[r.Intn(len(used))]
			want = append(want, sym)
			w.WriteBits(c.Words[sym], c.Lengths[sym])
		}
		decodeAll := func(decode func() (int, error)) []int {
			out := make([]int, len(want))
			for i := range out {
				sym, err := decode()
				if err != nil {
					t.Fatalf("symbol %d: %v", i, err)
				}
				out[i] = sym
			}
			return out
		}
		rd := bitstream.FromWriter(w)
		viaTable := decodeAll(func() (int, error) { return td.Decode(rd) })
		rd2 := bitstream.FromWriter(w)
		viaTrie := decodeAll(func() (int, error) { return trie.Decode(rd2) })
		for i := range want {
			if viaTable[i] != want[i] || viaTrie[i] != want[i] {
				t.Fatalf("symbol %d: want %d, table=%d trie=%d", i, want[i], viaTable[i], viaTrie[i])
			}
		}
		if rd.Remaining() != 0 {
			t.Fatalf("table decode left %d bits unconsumed", rd.Remaining())
		}
	}
}

func TestTableDecoderErrorsMatchTrie(t *testing.T) {
	// On garbage and truncated streams the table decoder must fail
	// exactly where the trie does.
	r := rand.New(rand.NewSource(52))
	for trial := 0; trial < 200; trial++ {
		c := randomCode(1+r.Intn(20), r)
		td, err := NewTableDecoder(c)
		if err != nil {
			t.Fatal(err)
		}
		trie, err := NewDecoder(c)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, r.Intn(6))
		r.Read(buf)
		nbit := len(buf)*8 - r.Intn(8)
		if nbit < 0 {
			nbit = 0
		}
		run := func(decode func(*bitstream.Reader) (int, error)) ([]int, error) {
			src := bitstream.NewReader(buf, nbit)
			var out []int
			for i := 0; i < 50; i++ {
				sym, err := decode(src)
				if err != nil {
					return out, err
				}
				out = append(out, sym)
			}
			return out, nil
		}
		gotFast, errFast := run(td.Decode)
		gotSlow, errSlow := run(trie.Decode)
		if (errFast == nil) != (errSlow == nil) || len(gotFast) != len(gotSlow) {
			t.Fatalf("paths diverge: fast %v/%v, slow %v/%v", gotFast, errFast, gotSlow, errSlow)
		}
		for i := range gotFast {
			if gotFast[i] != gotSlow[i] {
				t.Fatalf("symbol %d: fast=%d slow=%d", i, gotFast[i], gotSlow[i])
			}
		}
	}
}

func TestTableDecoderLongCodewords(t *testing.T) {
	// A deep code (lengths beyond maxTableBits) must decode via the trie
	// fallback mid-stream without losing sync.
	lengths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 18}
	c, err := FromLengths(lengths)
	if err != nil {
		t.Fatal(err)
	}
	td, err := NewTableDecoder(c)
	if err != nil {
		t.Fatal(err)
	}
	w := bitstream.NewWriter()
	want := []int{18, 0, 17, 5, 16, 11, 12, 0, 18}
	for _, sym := range want {
		w.WriteBits(c.Words[sym], c.Lengths[sym])
	}
	rd := bitstream.FromWriter(w)
	for i, wantSym := range want {
		sym, err := td.Decode(rd)
		if err != nil {
			t.Fatalf("symbol %d: %v", i, err)
		}
		if sym != wantSym {
			t.Fatalf("symbol %d: got %d want %d", i, sym, wantSym)
		}
	}
	if rd.Remaining() != 0 {
		t.Fatalf("%d bits left over", rd.Remaining())
	}
}
