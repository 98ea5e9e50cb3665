// Package runlength implements fixed-block run-length coding of test data
// (Jas & Touba, ITC'98 style): don't-cares are filled with 0 to maximize
// 0-runs, and each run of 0s terminated by a 1 is encoded with a b-bit
// counter. A run longer than 2^b-1 is split by emitting the all-ones
// counter value, which means "2^b-1 zeros, no terminating 1".
package runlength

import (
	"errors"
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

// Decompress reconstructs totalBits bits from any bit source. A stream
// that ends before totalBits (including a final partial counter, which
// carries no information) implies the rest is zeros.
func Decompress(r bitstream.Source, b, totalBits int) (tritvec.Vector, error) {
	if b < MinCounterWidth || b > MaxCounterWidth {
		return tritvec.Vector{}, fmt.Errorf("runlength: counter width %d out of range", b)
	}
	if totalBits < 0 {
		return tritvec.Vector{}, fmt.Errorf("runlength: negative output size %d", totalBits)
	}
	out := tritvec.New(totalBits)
	max := uint64(1<<uint(b)) - 1
	pos := 0
	for pos < totalBits {
		v, err := r.ReadBits(b)
		if err != nil {
			if errors.Is(err, bitstream.ErrEOS) {
				// Stream exhausted: the rest is implied zeros.
				out.FillZeros(pos, totalBits-pos)
				pos = totalBits
				break
			}
			return tritvec.Vector{}, err
		}
		n := int(v)
		if n > totalBits-pos {
			n = totalBits - pos
		}
		out.FillZeros(pos, n)
		pos += n
		if v != max && pos < totalBits {
			out.Set(pos, tritvec.One)
			pos++
		}
	}
	return out, nil
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
