// Package fdr implements frequency-directed run-length (FDR) codes
// (Chandra & Chakrabarty, VTS'01): a variable-to-variable code over 0-run
// lengths. Group A_k covers run lengths [2^k − 2, 2^(k+1) − 3]; its
// codewords consist of a k-bit prefix ((k−1) ones followed by a zero) and
// a k-bit tail, so short runs — the frequent case in test data — get the
// shortest codewords.
package fdr

import (
	"errors"
	"fmt"
	"math/bits"

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

// Decompress reconstructs totalBits bits from any bit source; one that
// implements bitstream.Peeker takes the fast path. End of stream at a
// codeword boundary means the remaining bits are implied zeros; end of
// stream inside a codeword is an error wrapping bitstream.ErrEOS.
func Decompress(r bitstream.Source, totalBits int) (tritvec.Vector, error) {
	if totalBits < 0 {
		return tritvec.Vector{}, fmt.Errorf("fdr: negative output size %d", totalBits)
	}
	out := tritvec.New(totalBits)
	pk, _ := r.(bitstream.Peeker)
	pos := 0
	for pos < totalBits {
		k, atEnd, err := readGroup(r, pk)
		if err != nil {
			return tritvec.Vector{}, err
		}
		if atEnd {
			out.FillZeros(pos, totalBits-pos)
			break
		}
		tail, err := r.ReadBits(k)
		if err != nil {
			return tritvec.Vector{}, fmt.Errorf("fdr: truncated tail: %w", err)
		}
		// With k capped at 62, groupBase(k) + tail < 2^63, so the sum
		// cannot wrap int — the group cap is this decoder's overflow
		// guard, the analogue of golomb's q*m+rem check.
		n := groupBase(k) + int(tail)
		if n > totalBits-pos {
			n = totalBits - pos
		}
		out.FillZeros(pos, n)
		pos += n
		if pos < totalBits {
			out.Set(pos, tritvec.One)
			pos++
		}
	}
	return out, nil
}

// readGroup reads the FDR group prefix — (k−1) ones closed by a zero —
// returning k. When the source is a Peeker it scans whole peek windows
// with LeadingZeros64 instead of a bit at a time; the fallback keeps
// third-party Sources working. atEnd reports end of stream before any
// bit of the codeword — the implied-zeros case for the caller.
//
// Group k covers run lengths up to 2^(k+1)-3, so k=62 already exceeds
// any run an int-indexed test set can contain; a longer unary prefix is
// hostile input, not a codeword (and would overflow the in-memory
// reader's 64-bit ReadBits).
func readGroup(r bitstream.Source, pk bitstream.Peeker) (k int, atEnd bool, err error) {
	k = 1
	if pk == nil {
		bit, err := r.ReadBit()
		if err != nil {
			if errors.Is(err, bitstream.ErrEOS) {
				return 0, true, nil
			}
			return 0, false, err
		}
		for bit == 1 {
			k++
			if k > 62 {
				return 0, false, fmt.Errorf("fdr: unary prefix exceeds group %d: invalid stream", k)
			}
			if bit, err = r.ReadBit(); err != nil {
				return 0, false, fmt.Errorf("fdr: truncated prefix: %w", err)
			}
		}
		return k, false, nil
	}
	for {
		v, avail := pk.PeekBits(bitstream.PeekMax)
		if avail == 0 {
			// Exhausted; ReadBit surfaces the underlying error (true EOS
			// or a sticky reader error).
			_, err := r.ReadBit()
			if k == 1 && errors.Is(err, bitstream.ErrEOS) {
				return 0, true, nil
			}
			if k == 1 {
				return 0, false, err
			}
			return 0, false, fmt.Errorf("fdr: truncated prefix: %w", err)
		}
		// Leading 1s of the window = leading 0s of its complement once
		// the window is left-aligned in the 64-bit word.
		lead := bits.LeadingZeros64(^(v << uint(64-avail)))
		if k+lead > 62 {
			return 0, false, fmt.Errorf("fdr: unary prefix exceeds group %d: invalid stream", 63)
		}
		if lead < avail {
			if err := pk.Skip(lead + 1); err != nil {
				return 0, false, err
			}
			return k + lead, false, nil
		}
		k += avail
		if err := pk.Skip(avail); err != nil {
			return 0, false, err
		}
	}
}
