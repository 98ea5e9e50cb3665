package testset

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"

	"repro/internal/tritvec"
)

// Streaming IO. The textual format's header is "width count"; a
// producer that does not know the pattern count up front (a streaming
// decompressor writing to a pipe) emits "width *" instead, and Scanner
// accepts both. Blank lines and '#' comments are ignored. Scanner also
// reads the binary format (binary.go), which it recognises by its
// magic.

// Scanner reads a test set one pattern at a time, at O(pattern) memory:
// the textual format, or the binary format when the input starts with
// "TSET". It is the one test-set reader; Read collects its patterns.
type Scanner struct {
	sc    *bufio.Scanner // text
	br    *bufio.Reader  // binary
	buf   []byte         // binary: the next pattern's bytes
	skip  int            // binary: codes of buf[0] that belong to the previous pattern
	width int
	want  int // expected pattern count, -1 when the header was "width *"
	seen  int
	done  bool
}

// NewScanner parses the header and returns a Scanner positioned at the
// first pattern. It looks for the binary magic with a Peek when r is a
// *bufio.Reader, which then also reads a binary set; on any other
// reader it reads four bytes, replays them to the text scanner, and
// reads a binary set through a new bufio.Reader. The text scanner's
// line buffer starts small and grows with the longest line, up to
// maxLine.
func NewScanner(r io.Reader) (*Scanner, error) {
	if br, ok := r.(*bufio.Reader); ok {
		if head, _ := br.Peek(len(binMagic)); string(head) == binMagic {
			_, _ = br.Discard(len(binMagic)) // the Peek buffered them
			return newBinaryScanner(br)
		}
	} else {
		var head [len(binMagic)]byte
		n, _ := io.ReadFull(r, head[:])
		if string(head[:n]) == binMagic {
			return newBinaryScanner(bufio.NewReader(r))
		}
		r = io.MultiReader(bytes.NewReader(head[:n]), r)
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLine)
	for sc.Scan() {
		line := content(sc.Bytes())
		if line == nil {
			continue
		}
		width, want, err := parseHeader(string(line))
		if err != nil {
			return nil, err
		}
		return &Scanner{sc: sc, width: width, want: want}, nil
	}
	if err := sc.Err(); err != nil {
		return nil, scanError(err)
	}
	return nil, fmt.Errorf("testset: empty input")
}

// content returns a line without its surrounding white space, or nil
// for a blank line or a '#' comment.
func content(line []byte) []byte {
	line = bytes.TrimSpace(line)
	if len(line) == 0 || line[0] == '#' {
		return nil
	}
	return line
}

// scanError names the format's line cap when a line exceeds it.
func scanError(err error) error {
	if errors.Is(err, bufio.ErrTooLong) {
		return fmt.Errorf("testset: line longer than %d bytes: %w", maxLine, err)
	}
	return err
}

// MaxHeaderWidth and MaxHeaderPatterns bound the dimensions a header
// of either format may declare. Rejecting an absurd header at parse
// time keeps hostile input out of every downstream constructor
// (testset.New and tritvec.New treat bad sizes as programmer error and
// panic), so the parse boundary is where input-derived dimensions are
// checked.
const (
	MaxHeaderWidth    = 1 << 24
	MaxHeaderPatterns = 1 << 28
)

// maxLine caps one line of the textual format, line ending
// included. It leaves room beyond MaxHeaderWidth for a CRLF ending and
// blanks around a pattern of the widest width a header may declare.
const maxLine = MaxHeaderWidth + 4096

func parseHeader(line string) (width, want int, err error) {
	var n int
	if _, err := fmt.Sscanf(line, "%d *", &n); err == nil {
		if n <= 0 || n > MaxHeaderWidth {
			return 0, 0, fmt.Errorf("testset: invalid header %q (width must be in [1,%d])", line, MaxHeaderWidth)
		}
		return n, -1, nil
	}
	var t int
	if _, err := fmt.Sscanf(line, "%d %d", &n, &t); err != nil {
		return 0, 0, fmt.Errorf("testset: bad header %q: %v", line, err)
	}
	if n <= 0 || n > MaxHeaderWidth {
		return 0, 0, fmt.Errorf("testset: invalid header %q (width must be in [1,%d])", line, MaxHeaderWidth)
	}
	if t < 0 || t > MaxHeaderPatterns {
		return 0, 0, fmt.Errorf("testset: invalid header %q (pattern count must be in [0,%d])", line, MaxHeaderPatterns)
	}
	return n, t, nil
}

// Width returns the pattern width from the header.
func (s *Scanner) Width() int { return s.width }

// Expected returns the header's pattern count, or -1 for a streaming
// ("width *") header.
func (s *Scanner) Expected() int { return s.want }

// Patterns returns the number of patterns scanned so far.
func (s *Scanner) Patterns() int { return s.seen }

// Next returns the next pattern, or io.EOF after the last one. When a
// text header promised a count, a mismatch at end of input is an error;
// a binary set ends after its header's count, and bytes after it are
// not read.
func (s *Scanner) Next() (tritvec.Vector, error) {
	if s.done {
		return tritvec.Vector{}, io.EOF
	}
	if s.br != nil {
		return s.nextBinary()
	}
	for s.sc.Scan() {
		line := content(s.sc.Bytes())
		if line == nil {
			continue
		}
		v, err := tritvec.Parse(line)
		if err != nil {
			return tritvec.Vector{}, s.parseOrReadError(err)
		}
		if v.Len() != s.width {
			return tritvec.Vector{}, s.parseOrReadError(
				fmt.Errorf("testset: pattern length %d != width %d", v.Len(), s.width))
		}
		s.seen++
		return v, nil
	}
	if err := s.sc.Err(); err != nil {
		return tritvec.Vector{}, scanError(err)
	}
	s.done = true
	if s.want >= 0 && s.seen != s.want {
		return tritvec.Vector{}, fmt.Errorf("testset: header promised %d patterns, got %d", s.want, s.seen)
	}
	return tritvec.Vector{}, io.EOF
}

// parseOrReadError reports why a scanned line is unusable. When the
// underlying reader already failed — e.g. the body hit an
// http.MaxBytesReader cap — the "line" is a truncated artifact of that
// failure, and the read error (preserved for errors.As/Is) is the real
// story, not whatever parse error the truncation caused.
func (s *Scanner) parseOrReadError(parseErr error) error {
	if rerr := s.sc.Err(); rerr != nil {
		return fmt.Errorf("testset: input truncated by read error: %w", rerr)
	}
	return parseErr
}

// PatternWriter emits the textual format incrementally, at O(pattern)
// memory. Close flushes; it does not close the underlying writer.
type PatternWriter struct {
	bw    *bufio.Writer
	line  []byte // reused: one pattern line and its '\n'
	width int
	n     int
}

// NewPatternWriter writes the header for the given width: "width count"
// when the pattern count is known up front, the streaming "width *"
// when count is negative (the convention of Scanner.Expected).
func NewPatternWriter(w io.Writer, width, count int) (*PatternWriter, error) {
	if width <= 0 {
		return nil, fmt.Errorf("testset: width must be positive")
	}
	n := "*"
	if count >= 0 {
		n = strconv.Itoa(count)
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %s\n", width, n); err != nil {
		return nil, err
	}
	return &PatternWriter{bw: bw, width: width}, nil
}

// WritePattern appends one pattern line.
func (pw *PatternWriter) WritePattern(v tritvec.Vector) error {
	if v.Len() != pw.width {
		return fmt.Errorf("testset: pattern length %d != width %d", v.Len(), pw.width)
	}
	pw.line = append(v.AppendTo(pw.line[:0]), '\n')
	if _, err := pw.bw.Write(pw.line); err != nil {
		return err
	}
	pw.n++
	return nil
}

// Patterns returns the number of patterns written.
func (pw *PatternWriter) Patterns() int { return pw.n }

// Close flushes buffered output.
func (pw *PatternWriter) Close() error { return pw.bw.Flush() }
