// Package ninec reimplements the nine-coded compression technique of
// Tehranipour, Nourani and Chakrabarty (DATE 2004), the baseline the paper
// compares against. For an even block length K with half h = K/2, the nine
// matching vectors are
//
//	v1 = 0^K    v2 = 1^K    v3 = 0^h 1^h  v4 = 1^h 0^h
//	v5 = 1^h U^h  v6 = U^h 1^h  v7 = 0^h U^h  v8 = U^h 0^h  v9 = U^K
//
// with the fixed prefix codewords quoted in the paper:
//
//	C(v1)='0' C(v2)='10' C(v3)='11000' C(v4)='11001' C(v5)='11010'
//	C(v6)='11011' C(v7)='11100' C(v8)='11101' C(v9)='1111'
//
// The 9C+HC variant keeps the nine MVs but replaces the fixed codewords
// with a Huffman code over observed frequencies (column '9C+HC' in the
// paper's tables).
package ninec

import (
	"fmt"

	"repro/internal/blockcode"
	"repro/internal/huffman"
	"repro/internal/testset"
	"repro/internal/tritvec"
)

// MVs returns the nine matching vectors for even block length k.
func MVs(k int) (*blockcode.MVSet, error) {
	if k <= 0 || k%2 != 0 {
		return nil, fmt.Errorf("ninec: K must be positive and even, got %d", k)
	}
	h := k / 2
	mk := func(first, second tritvec.Trit) tritvec.Vector {
		v := tritvec.New(k)
		for i := 0; i < h; i++ {
			v.Set(i, first)
			v.Set(h+i, second)
		}
		return v
	}
	mvs := []tritvec.Vector{
		mk(tritvec.Zero, tritvec.Zero), // v1
		mk(tritvec.One, tritvec.One),   // v2
		mk(tritvec.Zero, tritvec.One),  // v3
		mk(tritvec.One, tritvec.Zero),  // v4
		mk(tritvec.One, tritvec.X),     // v5
		mk(tritvec.X, tritvec.One),     // v6
		mk(tritvec.Zero, tritvec.X),    // v7
		mk(tritvec.X, tritvec.Zero),    // v8
		mk(tritvec.X, tritvec.X),       // v9
	}
	return blockcode.NewMVSet(k, mvs)
}

// FixedCode returns the paper's fixed 9C codeword table.
func FixedCode() *huffman.Code {
	lengths := []int{1, 2, 5, 5, 5, 5, 5, 5, 4}
	words := []uint64{
		0b0,     // v1 '0'
		0b10,    // v2 '10'
		0b11000, // v3
		0b11001, // v4
		0b11010, // v5
		0b11011, // v6
		0b11100, // v7
		0b11101, // v8
		0b1111,  // v9
	}
	c, err := huffman.Explicit(lengths, words)
	if err != nil {
		panic("ninec: fixed code invalid: " + err.Error())
	}
	return c
}

// Compress runs original 9C compression (fixed codewords). Each block
// goes to the matching MV with the shortest encoding |C(v)|+NU(v), which
// is how the fixed code is used to best effect. Under the fixed lengths
// that is the min-U order of MVSet.CoverMultiset at every even K: v1–v4
// (1, 2, 5 and 5 bits, no U), then v5–v8 (5+K/2), then v9 (4+K); at K=2
// v5–v8 tie with v9 and both orders break the tie by MV index.
func Compress(ts *testset.TestSet, k int) (*blockcode.Result, error) {
	set, err := MVs(k)
	if err != nil {
		return nil, err
	}
	code := FixedCode()
	ms := blockcode.Dedup(blockcode.Partition(ts, k))
	cov := set.CoverMultiset(ms)
	if !cov.OK() {
		return nil, fmt.Errorf("ninec: uncovered blocks (impossible: v9 is all-U)")
	}
	res := &blockcode.Result{
		Set:            set,
		Code:           code,
		Covering:       cov,
		OriginalBits:   ts.TotalBits(),
		CompressedBits: set.CompressedBits(cov, code.Lengths),
	}
	if _, err := blockcode.Encode(ms, res); err != nil {
		return nil, err
	}
	return res, nil
}

// CompressHC runs the 9C+HC variant: nine MVs, min-U covering, Huffman
// codewords from observed frequencies.
func CompressHC(ts *testset.TestSet, k int) (*blockcode.Result, error) {
	set, err := MVs(k)
	if err != nil {
		return nil, err
	}
	return blockcode.CompressHuffman(blockcode.Dedup(blockcode.Partition(ts, k)), set, ts.TotalBits())
}
