package huffman

import (
	"math/rand"
	"testing"
)

// costReference is the path Cost replaces: build the code, sum f·len.
func costReference(freqs []int) (int, bool) {
	c, err := Build(freqs)
	if err != nil {
		return 0, false
	}
	return c.TotalBits(freqs), true
}

// TestCostMatchesBuild compares Cost with Build(f).TotalBits(f) on
// random frequency vectors with zeros, heavy ties and a single used
// symbol, at alphabet sizes around the paper's L=64, and on a deep tree.
func TestCostMatchesBuild(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	check := func(freqs []int) {
		t.Helper()
		want, wantOK := costReference(freqs)
		got, ok := Cost(append([]int(nil), freqs...))
		if got != want || ok != wantOK {
			t.Fatalf("Cost(%v) = %d, %v; Build gives %d, %v", freqs, got, ok, want, wantOK)
		}
	}
	check(nil)
	check([]int{0, 0, 0})
	check([]int{0, 9, 0})
	check([]int{5, 3, 2})
	check([]int{1, 1, 1, 1, 1, 1, 1, 1})
	// Fibonacci weights build the deepest tree their total allows.
	fib := []int{1, 1}
	for len(fib) < 40 {
		fib = append(fib, fib[len(fib)-1]+fib[len(fib)-2])
	}
	check(fib)
	for iter := 0; iter < 5000; iter++ {
		n := 1 + r.Intn(130)
		freqs := make([]int, n)
		zeros := r.Float64()
		maxF := []int{1, 2, 3, 10, 1000, 1 << 20}[r.Intn(6)]
		for i := range freqs {
			if r.Float64() >= zeros {
				freqs[i] = 1 + r.Intn(maxF)
			}
		}
		if iter%10 == 0 {
			// Exactly one used symbol.
			for i := range freqs {
				freqs[i] = 0
			}
			freqs[r.Intn(n)] = 1 + r.Intn(maxF)
		}
		check(freqs)
	}
}
