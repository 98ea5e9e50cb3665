// Package golomb implements Golomb coding of test data 0-runs (Chandra &
// Chakrabarty, VTS'00): don't-cares are filled with 0; each run of 0s
// terminated by a 1 is Golomb-encoded with parameter M (quotient in
// unary, remainder in truncated binary).
package golomb

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/bitstream"
	"repro/internal/runlength"
	"repro/internal/testset"
	"repro/internal/tritvec"
)

// Result reports an encoding.
type Result struct {
	M              int
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

// encodeRun writes one Golomb codeword for run length n.
func encodeRun(w *bitstream.Writer, n, m int) {
	q := n / m
	for i := 0; i < q; i++ {
		w.WriteBit(1)
	}
	w.WriteBit(0)
	writeTruncated(w, n%m, m)
}

// writeTruncated emits r in truncated binary for alphabet size m.
func writeTruncated(w *bitstream.Writer, r, m int) {
	if m == 1 {
		return
	}
	b := bits.Len(uint(m - 1)) // ceil(log2 m)
	cut := 1<<uint(b) - m
	if r < cut {
		w.WriteBits(uint64(r), b-1)
	} else {
		w.WriteBits(uint64(r+cut), b)
	}
}

// readTruncated reads a truncated-binary value for alphabet size m.
func readTruncated(r *bitstream.Reader, m int) (int, error) {
	if m == 1 {
		return 0, nil
	}
	b := bits.Len(uint(m - 1))
	cut := 1<<uint(b) - m
	v, err := r.ReadBits(b - 1)
	if err != nil {
		return 0, err
	}
	if int(v) < cut {
		return int(v), nil
	}
	bit, err := r.ReadBit()
	if err != nil {
		return 0, err
	}
	return int(v)<<1 | int(bit) - cut, nil
}

// Compress encodes ts with Golomb parameter m. A trailing unterminated
// run is encoded as a normal run; the decoder stops at the original
// length.
func Compress(ts *testset.TestSet, m int) (*Result, error) {
	if m < 1 {
		return nil, fmt.Errorf("golomb: M must be >= 1, got %d", m)
	}
	runs, trailing := runlength.Runs(runlength.ZeroFill(ts))
	return encode(ts, runs, trailing, m), nil
}

// encode writes one codeword per run, then one for a trailing run.
func encode(ts *testset.TestSet, runs []int, trailing, m int) *Result {
	w := bitstream.NewWriter()
	for _, n := range runs {
		encodeRun(w, n, m)
	}
	if trailing > 0 {
		encodeRun(w, trailing, m)
	}
	return &Result{M: m, OriginalBits: ts.TotalBits(), CompressedBits: w.Len(), Stream: w}
}

// CompressBest picks M among the powers of two up to 256, as in the
// literature, and encodes once. At M = 2^b a run of n zeros costs
// ⌊n/M⌋ + 1 + b bits, so one pass over the run lengths sizes every
// candidate; a tie keeps the smaller M.
func CompressBest(ts *testset.TestSet) (*Result, error) {
	runs, trailing := runlength.Runs(runlength.ZeroFill(ts))
	codewords := len(runs)
	if trailing > 0 {
		codewords++
	}
	best, bestBits := 0, 0
	for b := 1; b <= 8; b++ {
		size := trailing>>b + codewords*(1+b)
		for _, n := range runs {
			size += n >> b
		}
		if best == 0 || size < bestBits {
			best, bestBits = b, size
		}
	}
	return encode(ts, runs, trailing, 1<<best), nil
}

// Decompress reconstructs totalBits bits through runlength.Expand. End
// of stream at a codeword boundary means the remaining bits are implied
// zeros; end of stream inside a codeword is an error wrapping
// bitstream.ErrEOS.
func Decompress(r *bitstream.Reader, m, totalBits int) (tritvec.Vector, error) {
	if m < 1 {
		return tritvec.Vector{}, fmt.Errorf("golomb: M must be >= 1, got %d", m)
	}
	return runlength.Expand(r, totalBits, func(r *bitstream.Reader) (int, bool, error) {
		q, err := r.ReadUnary(math.MaxInt)
		if err != nil {
			return 0, false, err // ErrEOS itself at a codeword boundary
		}
		rem, err := readTruncated(r, m)
		if err != nil {
			return 0, false, fmt.Errorf("golomb: truncated remainder: %w", err)
		}
		// A hostile stream can drive q high enough that q*m + rem wraps
		// int and produces a small (or negative) run; any such length is
		// corrupt, not merely oversized.
		if q > (math.MaxInt-rem)/m {
			return 0, false, fmt.Errorf("golomb: run length %d*%d+%d overflows: corrupt stream", q, m, rem)
		}
		return q*m + rem, true, nil
	})
}
