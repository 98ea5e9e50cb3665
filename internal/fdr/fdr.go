// Package fdr implements frequency-directed run-length (FDR) codes
// (Chandra & Chakrabarty, VTS'01): a variable-to-variable code over 0-run
// lengths. Group A_k covers run lengths [2^k − 2, 2^(k+1) − 3]; its
// codewords consist of a k-bit prefix ((k−1) ones followed by a zero) and
// a k-bit tail, so short runs — the frequent case in test data — get the
// shortest codewords.
package fdr

import (
	"fmt"

	"repro/internal/bitstream"
	"repro/internal/runlength"
	"repro/internal/testset"
	"repro/internal/tritvec"
)

// group returns the FDR group k for run length n (k >= 1).
func group(n int) int {
	k := 1
	base := 0 // 2^k - 2 for k=1
	for {
		hi := base + (1 << uint(k)) - 1 // last length in group k
		if n <= hi {
			return k
		}
		base = hi + 1
		k++
	}
}

// groupBase returns the first run length of group k: 2^k - 2.
func groupBase(k int) int { return 1<<uint(k) - 2 }

// EncodedLen returns the FDR codeword length (2k bits) for run length n.
func EncodedLen(n int) int { return 2 * group(n) }

// encodeRun writes the FDR codeword for run length n.
func encodeRun(w *bitstream.Writer, n int) {
	k := group(n)
	for i := 0; i < k-1; i++ {
		w.WriteBit(1)
	}
	w.WriteBit(0)
	w.WriteBits(uint64(n-groupBase(k)), k)
}

// Result reports an encoding.
type Result struct {
	OriginalBits   int
	CompressedBits int
	Stream         *bitstream.Writer
}

// RatePercent returns the paper-style compression rate.
func (r *Result) RatePercent() float64 {
	if r.OriginalBits == 0 {
		return 0
	}
	return 100 * float64(r.OriginalBits-r.CompressedBits) / float64(r.OriginalBits)
}

// Compress FDR-encodes the zero-filled test set string.
func Compress(ts *testset.TestSet) (*Result, error) {
	flat := runlength.ZeroFill(ts)
	runs, trailing := runlength.Runs(flat)
	w := bitstream.NewWriter()
	for _, n := range runs {
		encodeRun(w, n)
	}
	if trailing > 0 {
		encodeRun(w, trailing)
	}
	return &Result{OriginalBits: ts.TotalBits(), CompressedBits: w.Len(), Stream: w}, nil
}

// maxGroup caps the group a codeword may name. Group k covers run
// lengths up to 2^(k+1)-3, so group 62 already exceeds any run an
// int-indexed test set can contain; a longer prefix is hostile input,
// not a codeword. The cap is also this decoder's overflow guard, the
// analogue of golomb's q*m+rem check: groupBase(62) + a 62-bit tail is
// below 2^63, and the tail fits one 64-bit ReadBits.
const maxGroup = 62

// Decompress reconstructs totalBits bits through runlength.Expand. End
// of stream at a codeword boundary means the remaining bits are implied
// zeros; end of stream inside a codeword is an error wrapping
// bitstream.ErrEOS.
func Decompress(r *bitstream.Reader, totalBits int) (tritvec.Vector, error) {
	return runlength.Expand(r, totalBits, func(r *bitstream.Reader) (int, bool, error) {
		// The group prefix is (k−1) ones closed by a zero.
		ones, err := r.ReadUnary(maxGroup - 1)
		if err != nil {
			return 0, false, err // ErrEOS itself at a codeword boundary
		}
		k := ones + 1
		tail, err := r.ReadBits(k)
		if err != nil {
			return 0, false, fmt.Errorf("fdr: truncated tail: %w", err)
		}
		return groupBase(k) + int(tail), true, nil
	})
}
