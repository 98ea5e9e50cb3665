// Package runlength implements fixed-block run-length coding of test data
// (Jas & Touba, ITC'98 style): don't-cares are filled with 0 to maximize
// 0-runs, and each run of 0s terminated by a 1 is encoded with a b-bit
// counter. A run longer than 2^b-1 is split by emitting the all-ones
// counter value, which means "2^b-1 zeros, no terminating 1".
package runlength

import (
	"fmt"
	"math/bits"

	"repro/internal/bitstream"
	"repro/internal/testset"
	"repro/internal/tritvec"
)

// ZeroFill flattens the test set and replaces every X with 0 — the
// standard fill for run-length-family coders.
func ZeroFill(ts *testset.TestSet) tritvec.Vector {
	return ts.Flatten().Specify(tritvec.Zero)
}

// Runs extracts the 0-run lengths of a fully specified bit string: one
// entry per 1-bit (the zeros preceding it); a trailing run without a
// terminating 1 is returned separately. The scan is word-wise: each
// 64-position word costs one TrailingZeros64 per 1-bit it contains, so
// the long 0-runs typical of test data are skipped a word at a time.
func Runs(flat tritvec.Vector) (runs []int, trailing int) {
	n := flat.Len()
	care, val := flat.Words()
	last := -1 // position of the previous 1-bit
	for w := range val {
		k := n - w*64
		mask := ^uint64(0)
		if k < 64 {
			mask = 1<<uint(k) - 1
		}
		if care[w]&mask != mask {
			panic("runlength: unspecified bit in Runs input")
		}
		for x := val[w]; x != 0; x &= x - 1 {
			pos := w*64 + bits.TrailingZeros64(x)
			runs = append(runs, pos-last-1)
			last = pos
		}
	}
	return runs, n - 1 - last
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

// MinCounterWidth and MaxCounterWidth bound the run counter width b.
// They are the single source of truth for the parameter's range: the
// Compress/Decompress validation here, the container parameter check in
// the public codec, and the range advertised by a tcompd daemon's
// GET /v1/codecs all derive from these constants.
const (
	MinCounterWidth = 1
	MaxCounterWidth = 30
)

// Compress encodes ts with b-bit run counters.
func Compress(ts *testset.TestSet, b int) (*Result, error) {
	if b < MinCounterWidth || b > MaxCounterWidth {
		return nil, fmt.Errorf("runlength: counter width %d out of range", b)
	}
	flat := ZeroFill(ts)
	w := bitstream.NewWriter()
	max := (1 << uint(b)) - 1
	emit := func(run int, terminated bool) {
		for run >= max {
			w.WriteBits(uint64(max), b)
			run -= max
		}
		if terminated {
			w.WriteBits(uint64(run), b)
		} else if run > 0 {
			// Trailing zeros: emit as split runs; the decoder stops at
			// the original length, so a final full-length marker works.
			w.WriteBits(uint64(max), b)
			// Any residue beyond is implied by total length.
		}
	}
	runs, trailing := Runs(flat)
	for _, r := range runs {
		emit(r, true)
	}
	emit(trailing, false)
	return &Result{OriginalBits: ts.TotalBits(), CompressedBits: w.Len(), Stream: w}, nil
}

// Step reads one codeword of a 0-run code from r and returns the run of
// zeros it stands for, never negative, and whether a 1 closes the run.
// It returns ErrEOS itself, not wrapped, only when the stream ends at a
// codeword boundary; end of stream inside a codeword comes back as an
// error wrapping it.
type Step func(r *bitstream.Reader) (run int, closed bool, err error)

// Expand is the one decode loop of the 0-run codes (Golomb, FDR and the
// fixed-block counters here): it fills each run's zeros, writes the
// closing 1 unless the codeword says there is none, and cuts a run at
// totalBits. A stream that ends at a codeword boundary leaves the rest
// as implied zeros, the encoders' trailing run. step supplies the one
// thing the codes differ in, reading one run.
func Expand(r *bitstream.Reader, totalBits int, step Step) (tritvec.Vector, error) {
	if totalBits < 0 {
		return tritvec.Vector{}, fmt.Errorf("runlength: negative output size %d", totalBits)
	}
	out := tritvec.New(totalBits)
	for pos := 0; pos < totalBits; {
		run, closed, err := step(r)
		if err == bitstream.ErrEOS {
			out.FillZeros(pos, totalBits-pos)
			break
		}
		if err != nil {
			return tritvec.Vector{}, err
		}
		run = min(run, totalBits-pos)
		out.FillZeros(pos, run)
		pos += run
		if closed && pos < totalBits {
			out.Set(pos, tritvec.One)
			pos++
		}
	}
	return out, nil
}

// Decompress reconstructs totalBits bits of b-bit counters. A stream
// that ends before totalBits, including a final partial counter, which
// carries no information, implies the rest is zeros.
func Decompress(r *bitstream.Reader, b, totalBits int) (tritvec.Vector, error) {
	if b < MinCounterWidth || b > MaxCounterWidth {
		return tritvec.Vector{}, fmt.Errorf("runlength: counter width %d out of range", b)
	}
	max := uint64(1)<<uint(b) - 1
	return Expand(r, totalBits, func(r *bitstream.Reader) (int, bool, error) {
		// Short of b bits, ReadBits returns ErrEOS itself: a boundary.
		v, err := r.ReadBits(b)
		return int(v), v != max, err
	})
}

// Verify checks that decoded preserves the specified bits of the original
// test set under zero fill.
func Verify(ts *testset.TestSet, decoded tritvec.Vector) error {
	want := ZeroFill(ts)
	if want.Len() != decoded.Len() {
		return fmt.Errorf("runlength: length mismatch %d vs %d", want.Len(), decoded.Len())
	}
	if !want.Equal(decoded) {
		return fmt.Errorf("runlength: decoded stream differs from zero-filled original")
	}
	return nil
}
