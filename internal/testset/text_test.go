package testset

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/tritvec"
)

// The reference text path: Read and Write as they were before the
// eight-trit kernels, one trit at a time over sc.Text() lines.
// FuzzText holds the kernels to these on arbitrary bytes.

func refFromString(s string) (tritvec.Vector, error) {
	v := tritvec.New(len(s))
	for i := 0; i < len(s); i++ {
		t, err := tritvec.ParseTrit(s[i])
		if err != nil {
			return tritvec.Vector{}, err
		}
		v.Set(i, t)
	}
	return v, nil
}

func refString(v tritvec.Vector) string {
	var sb strings.Builder
	sb.Grow(v.Len())
	for i := 0; i < v.Len(); i++ {
		sb.WriteString(v.Get(i).String())
	}
	return sb.String()
}

func refRead(r io.Reader) (*TestSet, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<24)
	var ts *TestSet
	want := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if ts == nil {
			width, count, err := parseHeader(line)
			if err != nil {
				return nil, err
			}
			ts, want = New(width), count
			continue
		}
		v, err := refFromString(line)
		if err != nil {
			return nil, err
		}
		if v.Len() != ts.Width {
			return nil, fmt.Errorf("testset: pattern length %d != width %d", v.Len(), ts.Width)
		}
		ts.Add(v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if ts == nil {
		return nil, fmt.Errorf("testset: empty input")
	}
	if want >= 0 && len(ts.Patterns) != want {
		return nil, fmt.Errorf("testset: header promised %d patterns, got %d", want, len(ts.Patterns))
	}
	return ts, nil
}

func refWrite(w io.Writer, ts *TestSet) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d\n", ts.Width, len(ts.Patterns)); err != nil {
		return err
	}
	for _, p := range ts.Patterns {
		if _, err := bw.WriteString(refString(p)); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// FuzzText checks Read, through a plain reader and through a
// bufio.Reader, against the reference for either format: on text it
// returns the reference's patterns or its error text (serve answers
// that text in 400 bodies), and on input behind the binary magic it
// accepts what the reference accepts, with the same patterns. For
// every accepted set, WriteBinary, Write and a streaming PatternWriter
// emit the reference writers' bytes. tritvec.Parse agrees with the
// per-trit loop on the raw input.
func FuzzText(f *testing.F) {
	for _, seed := range []string{
		"4 3\n01X1\n# comment\n\n1111\nXXXX\n",
		"9 2\r\n01X10X1X0\r\n  1x0u1U-00  \r\n",
		"13 *\n0101010101010\n\n#\n1XXXXXXXXXXX1\n",
		"17 1\n01X01X01X01X01X0Z\n",
		"8 2\n01X01X01\n01X01\n",
		"3 1\n0\x001\n",
		"1 1\n\xff\n",
		"5 2\n01-uU\nxxxxx\n",
		"2 3\n01\n10\n",
		"# only a comment",
		"0 *\n",
		"24 1\n\t010101010101010101010101\v\n",
	} {
		f.Add([]byte(seed))
	}
	r := rand.New(rand.NewSource(1))
	for _, width := range []int{1, 2, 3, 5, 7, 31, 32, 33, 64, 65, 100, 127, 130} {
		var buf bytes.Buffer
		if err := refWriteBinary(&buf, Random(width, 3, 0.6, r)); err != nil {
			f.Fatal(err)
		}
		bin := buf.Bytes()
		f.Add(bin)
		if width == 33 {
			f.Add(bin[:len(bin)-2]) // truncated payload
			bad := append([]byte(nil), bin...)
			bad[len(bad)-5] |= 0x30 // a 11 code
			f.Add(bad)
		}
	}
	f.Add([]byte("TSET\x01\x00\x00\x00\x05\x00\x00\x00\x00"))             // zero patterns
	f.Add([]byte("TSET\x01\x01\x00\x00\x00\x00\x00\x00\x64\x55"))         // 2^24 wide, one byte of payload
	f.Add([]byte("TSET\x01\x00\x00\x00\x04\x00\x00\x00\x02\x5a\xa5junk")) // bytes after the payload
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gotErr := Read(bytes.NewReader(data))
		bgot, bErr := Read(bufio.NewReader(bytes.NewReader(data)))
		want, wantErr := refReadAuto(data)
		binaryInput := bytes.HasPrefix(data, []byte(binMagic))
		if binaryInput && ((gotErr == nil) != (wantErr == nil) || (bErr == nil) != (wantErr == nil)) ||
			!binaryInput && (fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || fmt.Sprint(bErr) != fmt.Sprint(wantErr)) {
			t.Fatalf("Read error %q (buffered %q), reference %q", fmt.Sprint(gotErr), fmt.Sprint(bErr), fmt.Sprint(wantErr))
		}
		if wantErr == nil && !sameSets(bgot, want) {
			t.Fatal("Read through a bufio.Reader differs from the reference")
		}
		if wantErr == nil {
			if got.Width != want.Width || got.NumPatterns() != want.NumPatterns() {
				t.Fatalf("Read %dx%d, reference %dx%d", got.Width, got.NumPatterns(), want.Width, want.NumPatterns())
			}
			for i, p := range want.Patterns {
				if !got.Patterns[i].Equal(p) {
					t.Fatalf("pattern %d: %s, reference %s", i, refString(got.Patterns[i]), refString(p))
				}
			}
			var gb, wb bytes.Buffer
			if err := got.WriteBinary(&gb); err != nil {
				t.Fatal(err)
			}
			if err := refWriteBinary(&wb, want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
				t.Fatalf("WriteBinary:\n%x\nreference:\n%x", gb.Bytes(), wb.Bytes())
			}
			var gw, ww, pwOut bytes.Buffer
			if err := got.Write(&gw); err != nil {
				t.Fatal(err)
			}
			if err := refWrite(&ww, want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gw.Bytes(), ww.Bytes()) {
				t.Fatalf("Write:\n%q\nreference:\n%q", gw.Bytes(), ww.Bytes())
			}
			pw, err := NewPatternWriter(&pwOut, want.Width, want.NumPatterns())
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range want.Patterns {
				if err := pw.WritePattern(p); err != nil {
					t.Fatal(err)
				}
			}
			if err := pw.Close(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pwOut.Bytes(), ww.Bytes()) {
				t.Fatalf("PatternWriter:\n%q\nreference:\n%q", pwOut.Bytes(), ww.Bytes())
			}
		}
		v, err := tritvec.Parse(data)
		rv, rerr := refFromString(string(data))
		if fmt.Sprint(err) != fmt.Sprint(rerr) || rerr == nil && !v.Equal(rv) {
			t.Fatalf("Parse %v (%v), reference %v (%v)", refString(v), err, refString(rv), rerr)
		}
		if rerr == nil && string(v.AppendTo(nil)) != refString(rv) {
			t.Fatalf("AppendTo %q, reference %q", v.AppendTo(nil), refString(rv))
		}
	})
}

// Scanning a small set allocates for its patterns, not for a line
// buffer sized for the widest line the format allows.
func TestScanSmallSetAllocations(t *testing.T) {
	var text bytes.Buffer
	text.WriteString("60 16\n")
	for i := 0; i < 16; i++ {
		text.WriteString(strings.Repeat("01X1", 15) + "\n")
	}
	if text.Len() < 900 || text.Len() > 1100 {
		t.Fatalf("set is %d bytes, want about 1 KB", text.Len())
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := Read(bytes.NewReader(text.Bytes())); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 64<<10 {
		t.Fatalf("scanning a %d-byte set allocates %d bytes, want under 64 KiB", text.Len(), per)
	}
}

// A header may declare MaxHeaderWidth, so a pattern that wide must be
// readable, with either line ending; a longer line fails with context.
func TestMaxWidthLine(t *testing.T) {
	pattern := bytes.Repeat([]byte("01X1"), MaxHeaderWidth/4)
	for _, eol := range []string{"\n", "\r\n"} {
		var in bytes.Buffer
		fmt.Fprintf(&in, "%d 1%s", MaxHeaderWidth, eol)
		in.Write(pattern)
		in.WriteString(eol)
		ts, err := Read(&in)
		if err != nil {
			t.Fatalf("eol %q: %v", eol, err)
		}
		if ts.NumPatterns() != 1 || ts.Patterns[0].Len() != MaxHeaderWidth || ts.Patterns[0].CountX() != MaxHeaderWidth/4 {
			t.Fatalf("eol %q: read %d patterns", eol, ts.NumPatterns())
		}
	}
	in := bytes.NewBufferString("4 1\n")
	in.Write(bytes.Repeat([]byte{'0'}, maxLine+1))
	_, err := Read(in)
	if !errors.Is(err, bufio.ErrTooLong) || !strings.HasPrefix(err.Error(), "testset: line longer than") {
		t.Fatalf("over-long line: %v", err)
	}
}
