package golomb

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/iscasgen"
	"repro/internal/testset"
	"repro/internal/tritvec"
)

// refCompressBest is CompressBest as a brute force: encode the whole set
// at each M = 2…256 and keep the first smallest stream.
func refCompressBest(ts *testset.TestSet) (*Result, error) {
	var best *Result
	for m := 2; m <= 256; m *= 2 {
		res, err := Compress(ts, m)
		if err != nil {
			return nil, err
		}
		if best == nil || res.CompressedBits < best.CompressedBits {
			best = res
		}
	}
	return best, nil
}

// CompressBest's one-pass choice of M gives the brute force's stream,
// bit for bit, on table sets and on random sets from all-X to all-1.
func TestCompressBestMatchesBruteForce(t *testing.T) {
	var sets []*testset.TestSet
	for _, name := range []string{"s420", "s5378", "s9234", "s38417"} {
		m, err := iscasgen.Find(name, iscasgen.StuckAt)
		if err != nil {
			t.Fatal(err)
		}
		ts, err := iscasgen.Generate(m, iscasgen.GenOptions{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, ts)
	}
	r := rand.New(rand.NewSource(33))
	for trial := 0; trial < 200; trial++ {
		density := []float64{0, 0.01, 0.05, 0.3, 1}[trial%5]
		sets = append(sets, testset.Random(1+r.Intn(64), 1+r.Intn(40), density, r))
	}
	ones, _ := testset.ParseStrings("1111", "1111")
	sets = append(sets, ones)
	for i, ts := range sets {
		got, err := CompressBest(ts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refCompressBest(ts)
		if err != nil {
			t.Fatal(err)
		}
		if got.M != want.M || got.CompressedBits != want.CompressedBits ||
			!bytes.Equal(got.Stream.Bytes(), want.Stream.Bytes()) {
			t.Fatalf("set %d (%dx%d): M=%d, %d bits; brute force M=%d, %d bits",
				i, ts.Width, ts.NumPatterns(), got.M, got.CompressedBits, want.M, want.CompressedBits)
		}
	}
}

// refDecompress is the per-bit Golomb decoder Decompress is held to: it
// reads the quotient one ReadBit at a time, writes one trit at a time
// and keeps its own run loop. End of stream before a codeword's first
// bit leaves implied zeros.
func refDecompress(r *bitstream.Reader, m, totalBits int) (tritvec.Vector, error) {
	out := tritvec.New(totalBits)
	for pos := 0; pos < totalBits; {
		bit, err := r.ReadBit()
		if err == bitstream.ErrEOS {
			for ; pos < totalBits; pos++ {
				out.Set(pos, tritvec.Zero)
			}
			break
		}
		if err != nil {
			return tritvec.Vector{}, err
		}
		q := 0
		for ; bit == 1; q++ {
			if bit, err = r.ReadBit(); err != nil {
				return tritvec.Vector{}, fmt.Errorf("truncated quotient: %w", err)
			}
		}
		rem, err := readTruncated(r, m)
		if err != nil {
			return tritvec.Vector{}, fmt.Errorf("truncated remainder: %w", err)
		}
		if q > (math.MaxInt-rem)/m {
			return tritvec.Vector{}, fmt.Errorf("run %d*%d+%d overflows: corrupt stream", q, m, rem)
		}
		for n := q*m + rem; n > 0 && pos < totalBits; n-- {
			out.Set(pos, tritvec.Zero)
			pos++
		}
		if pos < totalBits {
			out.Set(pos, tritvec.One)
			pos++
		}
	}
	return out, nil
}

func TestDecompressPeekerMatchesFallback(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		ts := testset.Random(1+r.Intn(48), 1+r.Intn(24), []float64{0.05, 0.3, 0.9}[trial%3], r)
		m := []int{1, 2, 3, 4, 8, 16, 64}[r.Intn(7)]
		res, err := Compress(ts, m)
		if err != nil {
			t.Fatal(err)
		}
		total := ts.TotalBits()
		fast, err := Decompress(bitstream.FromWriter(res.Stream), m, total)
		if err != nil {
			t.Fatalf("Decompress: %v", err)
		}
		slow, err := refDecompress(bitstream.FromWriter(res.Stream), m, total)
		if err != nil {
			t.Fatalf("per-bit reference: %v", err)
		}
		if !fast.Equal(slow) {
			t.Fatalf("m=%d decoders disagree:\nfast %s\nref  %s", m, fast, slow)
		}
	}
}

func TestDecompressPathsAgreeOnHostileStreams(t *testing.T) {
	// Random garbage: whatever the reference does (decode or error),
	// Decompress must do the same, down to the ErrEOS class.
	r := rand.New(rand.NewSource(32))
	for trial := 0; trial < 200; trial++ {
		buf := make([]byte, r.Intn(40))
		r.Read(buf)
		nbit := len(buf)*8 - r.Intn(8)
		if nbit < 0 {
			nbit = 0
		}
		m := 1 + r.Intn(300)
		total := r.Intn(400)
		fast, errFast := Decompress(bitstream.NewReader(buf, nbit), m, total)
		slow, errSlow := refDecompress(bitstream.NewReader(buf, nbit), m, total)
		if (errFast == nil) != (errSlow == nil) ||
			errors.Is(errFast, bitstream.ErrEOS) != errors.Is(errSlow, bitstream.ErrEOS) {
			t.Fatalf("m=%d total=%d: Decompress err=%v, reference err=%v", m, total, errFast, errSlow)
		}
		if errFast == nil && !fast.Equal(slow) {
			t.Fatalf("m=%d total=%d: hostile decode disagrees\nfast %s\nref  %s", m, total, fast, slow)
		}
	}
}

func TestDecompressRunLengthOverflow(t *testing.T) {
	// A quotient of 2 with M = 2^62 would wrap q*m+rem past MaxInt to a
	// negative run; the decoder must report corruption instead of
	// silently mis-decoding.
	m := 1 << 62
	if 2*m+0 > 0 || math.MaxInt/m >= 2 {
		t.Fatal("test premise broken: 2*m must wrap")
	}
	w := bitstream.NewWriter()
	w.WriteBit(1)
	w.WriteBit(1)
	w.WriteBit(0)      // quotient 2
	w.WriteBits(0, 62) // truncated-binary remainder 0 for M = 2^62
	for _, decode := range []func(*bitstream.Reader, int, int) (tritvec.Vector, error){
		Decompress, refDecompress,
	} {
		_, err := decode(bitstream.FromWriter(w), m, 10)
		if err == nil || !strings.Contains(err.Error(), "corrupt") {
			t.Fatalf("overflowing run accepted: %v", err)
		}
	}
}
