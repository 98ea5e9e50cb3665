package testset

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/tritvec"
)

// Streaming textual IO. The textual format's header is "width count";
// a producer that does not know the pattern count up front (a streaming
// decompressor writing to a pipe) emits "width *" instead, and Scanner
// accepts both. Blank lines and '#' comments are ignored, exactly as in
// Read.

// Scanner reads the textual test-set format one pattern at a time, at
// O(pattern) memory. It is the streaming counterpart of Read.
type Scanner struct {
	sc    *bufio.Scanner
	width int
	want  int // expected pattern count, -1 when the header was "width *"
	seen  int
	done  bool
}

// NewScanner parses the header line and returns a Scanner positioned at
// the first pattern.
func NewScanner(r io.Reader) (*Scanner, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		width, want, err := parseHeader(line)
		if err != nil {
			return nil, err
		}
		return &Scanner{sc: sc, width: width, want: want}, nil
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("testset: empty input")
}

// MaxHeaderWidth and MaxHeaderPatterns bound the dimensions a textual
// header may declare, mirroring the binary reader's caps. Rejecting an
// absurd header at parse time keeps hostile input out of every
// downstream constructor (testset.New and tritvec.New treat bad sizes
// as programmer error and panic), so the parse boundary is where
// input-derived dimensions are checked.
const (
	MaxHeaderWidth    = 1 << 24
	MaxHeaderPatterns = 1 << 28
)

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

// Next returns the next pattern, or io.EOF after the last one. When the
// header promised a count, a mismatch at end of input is an error.
func (s *Scanner) Next() (tritvec.Vector, error) {
	if s.done {
		return tritvec.Vector{}, io.EOF
	}
	for s.sc.Scan() {
		line := strings.TrimSpace(s.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := tritvec.FromString(line)
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
		return tritvec.Vector{}, err
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
	if _, err := pw.bw.WriteString(v.String()); err != nil {
		return err
	}
	if err := pw.bw.WriteByte('\n'); err != nil {
		return err
	}
	pw.n++
	return nil
}

// Patterns returns the number of patterns written.
func (pw *PatternWriter) Patterns() int { return pw.n }

// Close flushes buffered output.
func (pw *PatternWriter) Close() error { return pw.bw.Flush() }
