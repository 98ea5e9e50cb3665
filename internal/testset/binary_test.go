package testset

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"

	"repro/internal/tritvec"
)

// The reference binary path: the binary format's writer and reader as
// they were before the packed kernels and the binary Scanner, one trit
// at a time, the payload read whole in bounded chunks. FuzzText holds
// Read and WriteBinary to these.

func refWriteBinary(w io.Writer, ts *TestSet) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write([]byte(binMagic)); err != nil {
		return err
	}
	for _, v := range []any{uint8(1), uint32(ts.Width), uint32(len(ts.Patterns))} {
		if err := binary.Write(bw, binary.BigEndian, v); err != nil {
			return err
		}
	}
	var cur byte
	nbits := 0
	for _, p := range ts.Patterns {
		for i := 0; i < p.Len(); i++ {
			var code byte
			switch p.Get(i) {
			case tritvec.Zero:
				code = 1
			case tritvec.One:
				code = 2
			}
			cur |= code << uint(6-nbits)
			if nbits += 2; nbits == 8 {
				if err := bw.WriteByte(cur); err != nil {
					return err
				}
				cur, nbits = 0, 0
			}
		}
	}
	if nbits > 0 {
		if err := bw.WriteByte(cur); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func refReadSized(r io.Reader, n int) ([]byte, error) {
	const chunk = 64 << 10
	buf := make([]byte, 0, min(n, chunk))
	for len(buf) < n {
		tmp := make([]byte, min(n-len(buf), chunk))
		if _, err := io.ReadFull(r, tmp); err != nil {
			return nil, fmt.Errorf("testset: truncated binary payload (%d of %d bytes): %w", len(buf), n, err)
		}
		buf = append(buf, tmp...)
	}
	return buf, nil
}

func refReadBinary(r io.Reader) (*TestSet, error) {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, err
	}
	if string(m[:]) != binMagic {
		return nil, fmt.Errorf("testset: bad binary magic %q", m)
	}
	var version uint8
	var width, patterns uint32
	for _, v := range []any{&version, &width, &patterns} {
		if err := binary.Read(br, binary.BigEndian, v); err != nil {
			return nil, err
		}
	}
	if version != 1 {
		return nil, fmt.Errorf("testset: unsupported binary version %d", version)
	}
	if width == 0 || width > MaxHeaderWidth || patterns > MaxHeaderPatterns {
		return nil, fmt.Errorf("testset: implausible binary dimensions %dx%d", width, patterns)
	}
	total64 := int64(width) * int64(patterns)
	if total64 > 1<<31-1 {
		return nil, fmt.Errorf("testset: implausible binary size %d trits", total64)
	}
	payload, err := refReadSized(br, (2*int(total64)+7)/8)
	if err != nil {
		return nil, err
	}
	ts := New(int(width))
	bit := 0
	for p := 0; p < int(patterns); p++ {
		v := tritvec.New(int(width))
		for i := 0; i < int(width); i++ {
			switch code := payload[bit/8] >> uint(6-bit%8) & 3; code {
			case 1:
				v.Set(i, tritvec.Zero)
			case 2:
				v.Set(i, tritvec.One)
			case 3:
				return nil, fmt.Errorf("testset: invalid trit code %d at position %d", code, bit/2)
			}
			bit += 2
		}
		ts.Add(v)
	}
	return ts, nil
}

// refReadAuto is the reference reader for any input: the binary
// reference behind the magic, the text reference otherwise.
func refReadAuto(data []byte) (*TestSet, error) {
	if bytes.HasPrefix(data, []byte(binMagic)) {
		return refReadBinary(bytes.NewReader(data))
	}
	return refRead(bytes.NewReader(data))
}

func binaryOf(t testing.TB, ts *TestSet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ts.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func sameSets(a, b *TestSet) bool {
	if a.Width != b.Width || a.NumPatterns() != b.NumPatterns() {
		return false
	}
	for i, p := range a.Patterns {
		if !p.Equal(b.Patterns[i]) {
			return false
		}
	}
	return true
}

func TestBinaryRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	ts := Random(37, 53, 0.4, r) // deliberately non-byte-aligned width
	back, err := Read(bytes.NewReader(binaryOf(t, ts)))
	if err != nil {
		t.Fatal(err)
	}
	if !sameSets(back, ts) {
		t.Fatal("binary round trip changed the set")
	}
}

// TestWriteBinaryMatchesReference: WriteBinary gives the reference
// writer's bytes at every width from 1 to 130 and 0 to 9 patterns, and
// Read gives the set back, through a bufio.Reader and through a plain
// reader.
func TestWriteBinaryMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for width := 1; width <= 130; width++ {
		for n := 0; n <= 9; n++ {
			ts := Random(width, n, r.Float64(), r)
			var want bytes.Buffer
			if err := refWriteBinary(&want, ts); err != nil {
				t.Fatal(err)
			}
			got := binaryOf(t, ts)
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("%dx%d: WriteBinary %x, reference %x", width, n, got, want.Bytes())
			}
			for _, in := range []io.Reader{bytes.NewReader(got), bufio.NewReader(bytes.NewReader(got))} {
				back, err := Read(in)
				if err != nil || !sameSets(back, ts) {
					t.Fatalf("%dx%d: read back %v", width, n, err)
				}
			}
		}
	}
}

func TestBinarySmallerThanText(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	ts := Random(100, 100, 0.3, r)
	var txt bytes.Buffer
	if err := ts.Write(&txt); err != nil {
		t.Fatal(err)
	}
	if bin := binaryOf(t, ts); len(bin)*3 > txt.Len() {
		t.Fatalf("binary %d bytes not ~4x smaller than text %d bytes", len(bin), txt.Len())
	}
}

func TestBinaryErrors(t *testing.T) {
	full := binaryOf(t, Random(64, 4, 0.5, rand.New(rand.NewSource(3))))
	bad := append([]byte(nil), full...)
	bad[13+20] |= 0x0c // code 82 of the payload, trit 18 of pattern 1, becomes 11
	for _, tc := range []struct {
		name string
		in   []byte
		want string
	}{
		{"truncated header", []byte("TSET"), "testset: truncated binary header: EOF"},
		{"bad version", append([]byte("TSET"), 9, 0, 0, 0, 1, 0, 0, 0, 1, 0), "unsupported binary version 9"},
		{"zero width", append([]byte("TSET"), 1, 0, 0, 0, 0, 0, 0, 0, 1), "implausible binary dimensions 0x1"},
		{"too many trits", append([]byte("TSET"), 1, 1, 0, 0, 0, 0, 0, 0x80, 0), "implausible binary size"},
		{"truncated payload", full[:len(full)-3], "truncated binary payload at pattern 3"},
		{"11 code", bad, "testset: binary pattern 1: tritvec: invalid trit code 3 at position 18"},
	} {
		_, err := Read(bytes.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestReadSniffsFormat: Read takes either format from a bufio.Reader
// (a Peek) and from a plain reader (a four-byte replay), also one that
// returns a byte per read, and text shorter than the magic still
// parses.
func TestReadSniffsFormat(t *testing.T) {
	ts, _ := ParseStrings("01XX", "1111")
	var txt bytes.Buffer
	if err := ts.Write(&txt); err != nil {
		t.Fatal(err)
	}
	for _, in := range [][]byte{txt.Bytes(), binaryOf(t, ts)} {
		for _, r := range []io.Reader{bytes.NewReader(in), bufio.NewReader(bytes.NewReader(in)), iotest.OneByteReader(bytes.NewReader(in))} {
			got, err := Read(r)
			if err != nil || !sameSets(got, ts) {
				t.Fatalf("%q: %v", in, err)
			}
		}
	}
	for _, in := range []string{"1 0", "2 *", "TSE"} {
		_, err := Read(strings.NewReader(in))
		_, berr := Read(bufio.NewReader(strings.NewReader(in)))
		_, werr := refRead(strings.NewReader(in))
		if fmt.Sprint(err) != fmt.Sprint(werr) || fmt.Sprint(berr) != fmt.Sprint(werr) {
			t.Fatalf("%q: %v / %v, reference %v", in, err, berr, werr)
		}
	}
}

// TestBinaryHostileHeader: a header declaring the widest pattern over
// an empty or one-byte payload fails at a cost of one read step, not of
// the declared width.
func TestBinaryHostileHeader(t *testing.T) {
	hdr := append([]byte("TSET"), 1, 1, 0, 0, 0, 0, 0, 0, 100) // width 2^24, 100 patterns
	for _, payload := range [][]byte{nil, {0x55}} {
		in := append(append([]byte(nil), hdr...), payload...)
		for _, buffered := range []bool{false, true} {
			var r io.Reader = bytes.NewReader(in)
			if buffered {
				r = bufio.NewReader(r)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Read(r)
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), "truncated binary payload at pattern 0") {
				t.Fatalf("payload %x: %v", payload, err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
				t.Fatalf("payload %x, buffered %v: allocated %d bytes, want under 1 MiB", payload, buffered, grew)
			}
		}
	}
}

func TestQuickBinaryRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ts := Random(r.Intn(50)+1, r.Intn(40)+1, r.Float64(), r)
		var buf bytes.Buffer
		if err := ts.WriteBinary(&buf); err != nil {
			return false
		}
		back, err := Read(&buf)
		if err != nil {
			return false
		}
		return ts.Compatible(back) && back.Compatible(ts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
