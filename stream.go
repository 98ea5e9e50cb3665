package tcomp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/bitstream"
	"repro/internal/container"
	"repro/internal/pipeline"
	"repro/internal/testset"
	"repro/internal/tritvec"
)

// DefaultChunkBits is the target original-bit size of one stream chunk
// when WithChunkPatterns is not given: big enough that per-chunk codec
// tables amortize, small enough that writer and reader stay at a few
// hundred KiB of working memory.
const DefaultChunkBits = 1 << 20

// chunkResult is what one compression job hands the frame writer.
type chunkResult struct {
	chunk          *container.Chunk
	originalBits   int
	compressedBits int
}

// StreamWriter compresses an arbitrarily large test set through any
// registered codec at O(chunk) memory: patterns accumulate into
// fixed-size chunks, each chunk is compressed independently (in parallel,
// on the pipeline engine, with per-chunk seeds derived from the root seed
// and the chunk index), and the frames are written to the underlying
// io.Writer in chunk order as a v3 chunked container. A parallel run is
// byte-identical to a serial one.
//
// The zero memory ceiling comes at a price the buffered path does not
// pay: each chunk carries its own parameter blob (MV table, Huffman
// dictionary, Golomb M), so compression rates trail the whole-set
// artifact slightly. Buffered Write/Open remain the default for test sets
// that fit in memory.
type StreamWriter struct {
	ctx   context.Context
	codec Codec
	cw    *container.ChunkWriter
	ord   *pipeline.Ordered[*chunkResult]

	width     int
	chunkPats int
	opts      []Option // caller options, re-applied per chunk before the derived seed

	buf       *TestSet
	submitted int // chunks handed to the worker pool
	closed    bool

	// stats is updated by the collector goroutine as each frame is
	// written, and onChunk (when set) sees it there; Close's drain
	// publishes it, so read it only after Close.
	stats   ContainerStats
	onChunk func(ContainerStats)
}

// NewStreamWriter writes the chunked-container header for the named
// codec and returns a StreamWriter. All compression options apply; the
// seed option becomes the root of the per-chunk seed derivation, and
// WithChunkPatterns / WithWorkers shape the chunking and the worker
// pool. Close must be called to terminate the stream.
func NewStreamWriter(ctx context.Context, w io.Writer, codecName string, width int, opts ...Option) (*StreamWriter, error) {
	return newStreamWriter(ctx, w, codecName, width, nil, opts)
}

// newStreamWriter is NewStreamWriter with a hook the collector calls
// after every frame it writes.
func newStreamWriter(ctx context.Context, w io.Writer, codecName string, width int, onChunk func(ContainerStats), opts []Option) (*StreamWriter, error) {
	codec, err := Lookup(codecName)
	if err != nil {
		return nil, err
	}
	if width < 1 {
		return nil, fmt.Errorf("tcomp: stream width %d must be positive", width)
	}
	o := buildOptions(opts)
	chunkPats := o.chunkPats
	if chunkPats <= 0 {
		chunkPats = DefaultChunkBits / width
		if chunkPats < 1 {
			chunkPats = 1
		}
	}
	cw, err := container.NewChunkWriter(w, container.StreamHeader{
		Codec: codecName, Width: width, ChunkPatterns: chunkPats,
	})
	if err != nil {
		return nil, err
	}
	sw := &StreamWriter{
		ctx:       ctx,
		codec:     codec,
		cw:        cw,
		width:     width,
		chunkPats: chunkPats,
		opts:      opts,
		onChunk:   onChunk,
	}
	sw.ord = pipeline.NewOrdered(ctx, pipeline.Config{
		Workers:  o.workers,
		RootSeed: o.seed,
	}, func(res pipeline.Result[*chunkResult]) error {
		if res.Err != nil {
			return res.Err
		}
		if err := sw.cw.WriteChunk(res.Value.chunk); err != nil {
			return err
		}
		sw.stats.Patterns += res.Value.chunk.Patterns
		sw.stats.Chunks++
		sw.stats.OriginalBits += res.Value.originalBits
		sw.stats.CompressedBits += res.Value.compressedBits
		if sw.onChunk != nil {
			sw.onChunk(sw.stats)
		}
		return nil
	})
	return sw, nil
}

// WritePattern appends one pattern to the stream, flushing a chunk frame
// whenever the chunk fills.
func (sw *StreamWriter) WritePattern(v Vector) error {
	if sw.closed {
		return fmt.Errorf("tcomp: WritePattern on closed stream")
	}
	if v.Len() != sw.width {
		return fmt.Errorf("tcomp: pattern length %d != stream width %d", v.Len(), sw.width)
	}
	if sw.buf == nil {
		sw.buf = testset.New(sw.width)
	}
	sw.buf.Add(v)
	if sw.buf.NumPatterns() >= sw.chunkPats {
		return sw.flushChunk()
	}
	return nil
}

// WriteSet appends every pattern of ts.
func (sw *StreamWriter) WriteSet(ts *TestSet) error {
	if ts.Width != sw.width {
		return fmt.Errorf("tcomp: test-set width %d != stream width %d", ts.Width, sw.width)
	}
	for _, p := range ts.Patterns {
		if err := sw.WritePattern(p); err != nil {
			return err
		}
	}
	return nil
}

// flushChunk hands the buffered patterns to the worker pool. The codec
// sees an explicit per-chunk seed derived from (root seed, chunk index),
// so results do not depend on scheduling or worker count.
func (sw *StreamWriter) flushChunk() error {
	ts := sw.buf
	sw.buf = nil
	idx := sw.submitted
	sw.submitted++
	codec, userOpts := sw.codec, sw.opts
	return sw.ord.Submit(fmt.Sprintf("chunk %d", idx), func(ctx context.Context, seed int64) (*chunkResult, error) {
		opts := make([]Option, 0, len(userOpts)+1)
		opts = append(opts, userOpts...)
		opts = append(opts, WithSeed(seed))
		art, err := codec.Compress(ctx, ts, opts...)
		if err != nil {
			return nil, fmt.Errorf("tcomp: chunk %d: %w", idx, err)
		}
		return &chunkResult{
			chunk: &container.Chunk{
				Patterns: ts.NumPatterns(),
				Params:   art.Params,
				Payload:  art.Payload,
				NBits:    art.NBits,
			},
			originalBits:   art.OriginalBits,
			compressedBits: art.CompressedBits,
		}, nil
	})
}

// Close flushes the final partial chunk, waits for all in-flight chunk
// compressions, and writes the stream terminator and trailer. It does
// not close the underlying writer. Close is idempotent.
func (sw *StreamWriter) Close() error {
	if sw.closed {
		return nil
	}
	sw.closed = true
	var flushErr error
	if sw.buf != nil && sw.buf.NumPatterns() > 0 {
		flushErr = sw.flushChunk()
	}
	if err := sw.ord.Close(); err != nil {
		return err
	}
	if flushErr != nil {
		return flushErr
	}
	return sw.cw.Close()
}

// abort joins the in-flight chunk compressions without writing the
// terminator and trailer, so the stream stays visibly truncated: no
// reader mistakes a failed stream for a complete container. Frames
// that finish during the join still land whole.
func (sw *StreamWriter) abort() {
	if !sw.closed {
		sw.closed = true
		_ = sw.ord.Close() // the caller's error is the story
	}
}

// Patterns returns the number of patterns written to the container.
// Valid after Close.
func (sw *StreamWriter) Patterns() int { return sw.stats.Patterns }

// Chunks returns the number of chunk frames written. Valid after Close.
func (sw *StreamWriter) Chunks() int { return sw.stats.Chunks }

// OriginalBits returns the total uncompressed size in bits. Valid after
// Close.
func (sw *StreamWriter) OriginalBits() int { return sw.stats.OriginalBits }

// CompressedBits returns the total encoded payload size in bits (codec
// accounting, excluding container framing). Valid after Close.
func (sw *StreamWriter) CompressedBits() int { return sw.stats.CompressedBits }

// RatePercent returns the paper-style compression rate over the whole
// stream. Valid after Close.
func (sw *StreamWriter) RatePercent() float64 { return sw.stats.RatePercent() }

// ContainerStats is the size accounting of one container: what the
// daemon reports in its X-Tcomp-* headers and a job record in its
// stats. Chunks is 0 for a whole (v1/v2) container.
type ContainerStats struct {
	Patterns       int `json:"patterns"`
	Chunks         int `json:"chunks"`
	OriginalBits   int `json:"original_bits"`
	CompressedBits int `json:"compressed_bits"`
}

// RatePercent returns the paper-style compression rate,
// 100·(orig−comp)/orig.
func (s ContainerStats) RatePercent() float64 {
	if s.OriginalBits == 0 {
		return 0
	}
	return 100 * float64(s.OriginalBits-s.CompressedBits) / float64(s.OriginalBits)
}

// CompressTo is the one container writer behind the daemon's compress
// endpoint, its compress and sweep jobs: it pulls patterns of the given
// width from next until io.EOF and writes them to w as a container of
// the named format.
//
//   - "v2" gathers the whole set, compresses it with one codec call and
//     writes the universal container (Write).
//   - "v3" streams chunk frames through a StreamWriter at O(chunk)
//     memory. onChunk, when non-nil, is called with the running totals
//     after each frame is written, from the writer's collector
//     goroutine.
//
// testset.Scanner.Next, StreamReader.Next and PatternsOf all fit next.
// An error from next comes back unchanged, so the caller can tell bad
// input from a codec failure. A failed v3 stream ends without its
// terminator.
func CompressTo(ctx context.Context, w io.Writer, codecName, format string, width int,
	next func() (Vector, error), onChunk func(ContainerStats), opts ...Option) (ContainerStats, error) {
	switch format {
	case "v2":
		return compressWhole(ctx, w, codecName, width, next, opts)
	case "v3":
		sw, err := newStreamWriter(ctx, w, codecName, width, onChunk, opts)
		if err != nil {
			return ContainerStats{}, err
		}
		for {
			v, err := next()
			if err == io.EOF {
				break
			}
			if err == nil {
				err = sw.WritePattern(v)
			}
			if err != nil {
				sw.abort()
				return ContainerStats{}, err
			}
		}
		if err := sw.Close(); err != nil {
			return ContainerStats{}, err
		}
		return sw.stats, nil
	}
	return ContainerStats{}, fmt.Errorf("tcomp: container format %q must be v2 or v3", format)
}

// compressWhole is CompressTo's v2 branch.
func compressWhole(ctx context.Context, w io.Writer, codecName string, width int, next func() (Vector, error), opts []Option) (ContainerStats, error) {
	codec, err := Lookup(codecName)
	if err != nil {
		return ContainerStats{}, err
	}
	if width < 1 {
		return ContainerStats{}, fmt.Errorf("tcomp: width %d must be positive", width)
	}
	ts := testset.New(width)
	for {
		v, err := next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return ContainerStats{}, err
		}
		if v.Len() != width {
			return ContainerStats{}, fmt.Errorf("tcomp: pattern length %d != width %d", v.Len(), width)
		}
		ts.Add(v)
	}
	art, err := codec.Compress(ctx, ts, opts...)
	if err != nil {
		return ContainerStats{}, err
	}
	if err := Write(w, art); err != nil {
		return ContainerStats{}, err
	}
	return ContainerStats{Patterns: art.Patterns, OriginalBits: art.OriginalBits, CompressedBits: art.CompressedBits}, nil
}

// PatternsOf returns an iterator over ts's patterns in the shape
// CompressTo reads: each pattern in order, then io.EOF.
func PatternsOf(ts *TestSet) func() (Vector, error) {
	i := 0
	return func() (Vector, error) {
		if i >= ts.NumPatterns() {
			return Vector{}, io.EOF
		}
		i++
		return ts.Patterns[i-1], nil
	}
}

// ErrNotContainer marks input that is not a tcomp container at all:
// too short for the magic and version prologue, the wrong magic, or an
// unknown version. A container that is recognised but corrupt fails
// with some other error, so callers can tell "wrong kind of input" from
// "damaged container".
var ErrNotContainer = errors.New("not a tcomp container")

// StreamReader is the one container reader: it opens every container
// version and hands out the decoded patterns one at a time (Next) or a
// chunk at a time (NextChunk).
//
// A chunked v3 container is read at O(chunk) memory. Each chunk frame
// is CRC-checked, then decoded by the codec named in the header through
// an io.Reader-fed bitstream.StreamReader — the same word-at-a-time
// refill path the differential tests pin against the hardware FSM
// model. A whole v1/v2 container is decoded on open, so its errors
// surface from NewStreamReader and its pattern count is known up front
// (Expected); it reads back as one chunk that is not a frame.
type StreamReader struct {
	cr    *container.ChunkReader // nil for a whole (v1/v2) container
	codec Codec
	hdr   container.StreamHeader

	whole    *TestSet // v1/v2: the decoded set, until NextChunk hands it out
	expected int      // v1/v2 pattern count; -1 for v3
	bits     int      // payload bits decoded so far

	cur    *TestSet // decoded chunk being drained by Next
	curPos int
	chunks int // chunk frames successfully decoded so far
	done   bool
}

// NewStreamReader detects the container version and opens it: a v3
// stream has its header parsed and its codec resolved; a v1/v2
// container is parsed and decoded whole. Input that is not a container
// at all fails with an error wrapping ErrNotContainer.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	version, rest, err := container.Sniff(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrNotContainer, err)
	}
	if version == container.Version3 {
		cr, err := container.NewChunkReader(rest)
		var codec Codec
		if err == nil {
			codec, err = Lookup(cr.Header().Codec)
		}
		if err != nil {
			return nil, fmt.Errorf("bad chunked container: %w", err)
		}
		return &StreamReader{cr: cr, codec: codec, hdr: cr.Header(), expected: -1}, nil
	}
	art, err := Open(rest)
	if err != nil {
		return nil, fmt.Errorf("bad container: %w", err)
	}
	ts, err := Decompress(art)
	if err != nil {
		return nil, fmt.Errorf("decompress: %w", err)
	}
	if ts.Width != art.Width || ts.NumPatterns() != art.Patterns {
		return nil, fmt.Errorf("decompress: %s decoded to %dx%d, want %dx%d",
			art.Codec, ts.NumPatterns(), ts.Width, art.Patterns, art.Width)
	}
	return &StreamReader{
		hdr:      container.StreamHeader{Codec: art.Codec, Width: art.Width},
		whole:    ts,
		expected: art.Patterns,
		bits:     art.NBits,
	}, nil
}

// Codec returns the codec name from the container header.
func (sr *StreamReader) Codec() string { return sr.hdr.Codec }

// Width returns the pattern width from the container header.
func (sr *StreamReader) Width() int { return sr.hdr.Width }

// ChunkPatterns returns the nominal chunk size from the stream header
// (0 for a whole v1/v2 container).
func (sr *StreamReader) ChunkPatterns() int { return sr.hdr.ChunkPatterns }

// Expected returns the pattern count a v1/v2 container declares up
// front, or -1 for a v3 stream, whose count arrives with its trailer
// (TotalPatterns). Like testset.Scanner.Expected, it is the count half
// of the textual header: testset.NewPatternWriter writes "width count"
// for it, or "width *" for -1.
func (sr *StreamReader) Expected() int { return sr.expected }

// TotalPatterns returns the container's pattern count: the trailer's
// count for a v3 stream, valid once Next or NextChunk has returned
// io.EOF; the header's for a v1/v2 container.
func (sr *StreamReader) TotalPatterns() int {
	if sr.cr == nil {
		return sr.expected
	}
	return sr.cr.TotalPatterns()
}

// CompressedBits returns the encoded payload bits decoded so far: the
// whole payload of a v1/v2 container, the sum over the frames read of a
// v3 stream (complete once Next or NextChunk has returned io.EOF).
func (sr *StreamReader) CompressedBits() int { return sr.bits }

// ChunkIndex returns the zero-based index of the chunk frame NextChunk
// will read next (always 0 for a whole v1/v2 container, which has no
// frames). After NextChunk or Next returns a non-EOF error, it names
// the frame that failed to parse or decode — cmd/tdecompress uses it to
// point at the corruption instead of dumping an error chain.
func (sr *StreamReader) ChunkIndex() int { return sr.chunks }

// NextChunk decodes and returns the next chunk as a fully specified test
// set, or io.EOF after the final chunk (with the trailer validated). A
// whole v1/v2 container comes back as a single chunk. Non-EOF errors
// name the failing chunk index.
func (sr *StreamReader) NextChunk() (*TestSet, error) {
	if sr.done {
		return nil, io.EOF
	}
	if sr.cr == nil {
		ts := sr.whole
		sr.whole, sr.done = nil, true
		return ts, nil
	}
	c, err := sr.cr.Next()
	if err == io.EOF {
		sr.done = true
		return nil, io.EOF
	}
	if err != nil {
		return nil, fmt.Errorf("tcomp: chunk %d: %w", sr.chunks, err)
	}
	hdr := sr.hdr
	art := &Artifact{
		Codec:          hdr.Codec,
		Width:          hdr.Width,
		Patterns:       c.Patterns,
		OriginalBits:   hdr.Width * c.Patterns,
		CompressedBits: c.NBits,
		Params:         c.Params,
		Payload:        c.Payload,
		NBits:          c.NBits,
		src:            bitstream.NewStreamReader(bytes.NewReader(c.Payload), c.NBits),
	}
	ts, err := sr.codec.Decompress(art)
	if err != nil {
		return nil, fmt.Errorf("tcomp: chunk %d: decode: %w", sr.chunks, err)
	}
	if ts.Width != hdr.Width || ts.NumPatterns() != c.Patterns {
		return nil, fmt.Errorf("tcomp: chunk %d: decoded to %dx%d, want %dx%d",
			sr.chunks, ts.NumPatterns(), ts.Width, c.Patterns, hdr.Width)
	}
	sr.chunks++
	sr.bits += c.NBits
	return ts, nil
}

// Next returns the next decompressed pattern, or io.EOF after the last
// one.
func (sr *StreamReader) Next() (Vector, error) {
	for sr.cur == nil || sr.curPos >= sr.cur.NumPatterns() {
		ts, err := sr.NextChunk()
		if err != nil {
			return tritvec.Vector{}, err
		}
		sr.cur, sr.curPos = ts, 0
	}
	v := sr.cur.Patterns[sr.curPos]
	sr.curPos++
	return v, nil
}

// ReadAll drains the stream into one in-memory test set — the buffered
// convenience for callers that want a chunked file fully in memory
// rather than the streaming memory model.
func (sr *StreamReader) ReadAll() (*TestSet, error) {
	var ts *TestSet
	for {
		chunk, err := sr.NextChunk()
		if err == io.EOF {
			if ts == nil {
				ts = testset.New(sr.Width())
			}
			return ts, nil
		}
		if err != nil {
			return nil, err
		}
		if ts == nil {
			ts = testset.New(sr.Width())
		}
		for _, p := range chunk.Patterns {
			ts.Add(p)
		}
	}
}
