package huffman

import (
	"container/heap"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// The heap builder below is the earlier Build, kept verbatim as the
// reference the two-queue merge must reproduce: a min-heap of pointer
// nodes ordered by frequency and then by creation order (a leaf's order
// is its symbol index), and a recursive walk for the depths.

type node struct {
	freq   int
	order  int // tie-break: deterministic builds
	symbol int // leaf symbol, -1 for internal
	left   *node
	right  *node
}

type nodeHeap []*node

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].freq != h[j].freq {
		return h[i].freq < h[j].freq
	}
	return h[i].order < h[j].order
}
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func heapBuild(freqs []int) (*Code, error) {
	n := len(freqs)
	h := make(nodeHeap, 0, n)
	for i, f := range freqs {
		if f < 0 {
			return nil, fmt.Errorf("huffman: negative frequency %d for symbol %d", f, i)
		}
		if f > 0 {
			h = append(h, &node{freq: f, order: i, symbol: i})
		}
	}
	if len(h) == 0 {
		return nil, fmt.Errorf("huffman: no symbol with positive frequency")
	}
	lengths := make([]int, n)
	if len(h) == 1 {
		lengths[h[0].symbol] = 1
		return canonical(lengths)
	}
	heap.Init(&h)
	order := n
	for h.Len() > 1 {
		a := heap.Pop(&h).(*node)
		b := heap.Pop(&h).(*node)
		heap.Push(&h, &node{freq: a.freq + b.freq, order: order, symbol: -1, left: a, right: b})
		order++
	}
	root := h[0]
	var walk func(nd *node, depth int)
	walk = func(nd *node, depth int) {
		if nd.symbol >= 0 {
			lengths[nd.symbol] = depth
			return
		}
		walk(nd.left, depth+1)
		walk(nd.right, depth+1)
	}
	walk(root, 0)
	return canonical(lengths)
}

// checkMatchesHeap fails t unless Build and heapBuild give freqs the
// same lengths and words, or the same error.
func checkMatchesHeap(t *testing.T, freqs []int) {
	t.Helper()
	want, wantErr := heapBuild(append([]int(nil), freqs...))
	got, err := Build(append([]int(nil), freqs...))
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("Build(%v) error %v, heap builder %v", freqs, err, wantErr)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(got.Lengths, want.Lengths) || !reflect.DeepEqual(got.Words, want.Words) {
		t.Fatalf("Build(%v) = %v / %v, heap builder %v / %v", freqs, got.Lengths, got.Words, want.Lengths, want.Words)
	}
}

// TestBuildMatchesHeap requires Build's two-queue merge to give the
// heap builder's code, word for word, on the error cases, all-equal
// weights (every pop a tie), Fibonacci weights up to the 62-bit length
// cap and past it, random tie-heavy vectors and one 65 536-symbol
// alphabet.
func TestBuildMatchesHeap(t *testing.T) {
	checkMatchesHeap(t, nil)
	checkMatchesHeap(t, []int{0, 0, 0})
	checkMatchesHeap(t, []int{0, 9, 0})
	checkMatchesHeap(t, []int{3, -1, 2})
	for n := 1; n <= 130; n++ {
		eq := make([]int, n)
		for i := range eq {
			eq[i] = 7
		}
		checkMatchesHeap(t, eq)
	}
	// Fibonacci weights build the deepest tree their total allows; 64
	// of them need a 63-bit codeword, which both builders reject.
	fib := []int{1, 1}
	for len(fib) < 64 {
		fib = append(fib, fib[len(fib)-1]+fib[len(fib)-2])
	}
	for _, n := range []int{3, 40, 63, 64} {
		checkMatchesHeap(t, fib[:n])
		rev := append([]int(nil), fib[:n]...)
		for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
			rev[i], rev[j] = rev[j], rev[i]
		}
		checkMatchesHeap(t, rev)
	}
	r := rand.New(rand.NewSource(29))
	for iter := 0; iter < 6000; iter++ {
		freqs := make([]int, 1+r.Intn(130))
		zeros := r.Float64()
		maxF := []int{1, 2, 3, 4, 10, 1000}[r.Intn(6)]
		for i := range freqs {
			if r.Float64() >= zeros {
				freqs[i] = 1 + r.Intn(maxF)
			}
		}
		checkMatchesHeap(t, freqs)
	}
	big := make([]int, 1<<16)
	for i := range big {
		big[i] = r.Intn(40)
	}
	checkMatchesHeap(t, big)
}

// FuzzBuild turns the fuzz bytes into a frequency vector, one byte a
// symbol, and requires Build to give the heap builder's code or error,
// and Cost to give that code's Σ f·len.
func FuzzBuild(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 5, 0})
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233})
	f.Add([]byte{200, 3, 3, 0, 7, 7, 7, 1, 2, 2, 90})
	f.Fuzz(func(t *testing.T, data []byte) {
		freqs := make([]int, len(data))
		for i, b := range data {
			freqs[i] = int(b)
		}
		checkMatchesHeap(t, freqs)
		want, wantOK := costReference(freqs)
		got, ok := Cost(append([]int(nil), freqs...))
		if got != want || ok != wantOK {
			t.Fatalf("Cost(%v) = %d, %v; Build gives %d, %v", freqs, got, ok, want, wantOK)
		}
	})
}
