package tables

import (
	"context"
	"fmt"
	"io"
	"strings"

	tcomp "repro"
	"repro/internal/testset"
)

// StreamRate compares one codec's buffered whole-set compression against
// the chunked streaming path: the rate it loses to per-chunk parameter
// tables, and the container framing overhead it pays for O(chunk)
// memory. This is the data behind the README's "streaming costs a little
// rate" claim — measured, not asserted.
type StreamRate struct {
	Codec string
	// BufferedRate is the whole-set compression rate (percent).
	BufferedRate float64
	// StreamRate is the chunked-path compression rate (percent, payload
	// accounting like the buffered number).
	StreamRate float64
	// ContainerBytes is the full v3 container size, framing included.
	ContainerBytes int
	// Chunks is the number of chunk frames.
	Chunks int
}

// countingWriter tallies container bytes without keeping them.
type countingWriter struct{ n int }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += len(p)
	return len(p), nil
}

// StreamRates runs every registered codec over ts twice — buffered and
// chunked with chunkPats patterns per chunk (0 = the streaming default)
// — one codec after another, reported in registry order. Only each
// stream's chunks run in parallel, on the stream writer's worker pool
// (c.Workers wide).
func StreamRates(ctx context.Context, ts *testset.TestSet, c Config, chunkPats int) ([]StreamRate, error) {
	names := tcomp.Codecs()
	out := make([]StreamRate, len(names))
	opts := []tcomp.Option{
		tcomp.WithSeed(c.Seed),
		tcomp.WithEAParams(c.eaParams(12, 64, c.Seed)),
		tcomp.WithChunkPatterns(chunkPats),
	}
	for i, name := range names {
		art, err := compress(ctx, name, ts, opts...)
		if err != nil {
			return nil, fmt.Errorf("tables: %s buffered: %v", name, err)
		}
		cw := &countingWriter{}
		sw, err := tcomp.NewStreamWriter(ctx, cw, name, ts.Width, append(opts, tcomp.WithWorkers(c.Workers))...)
		if err != nil {
			return nil, fmt.Errorf("tables: %s stream: %v", name, err)
		}
		if err := sw.WriteSet(ts); err != nil {
			return nil, fmt.Errorf("tables: %s stream: %v", name, err)
		}
		if err := sw.Close(); err != nil {
			return nil, fmt.Errorf("tables: %s stream: %v", name, err)
		}
		out[i] = StreamRate{
			Codec:          name,
			BufferedRate:   art.RatePercent(),
			StreamRate:     sw.RatePercent(),
			ContainerBytes: cw.n,
			Chunks:         sw.Chunks(),
		}
	}
	return out, nil
}

// FormatStreamRates renders the comparison as a text table.
func FormatStreamRates(w io.Writer, rates []StreamRate) {
	fmt.Fprintf(w, "%-10s %10s %10s %8s %8s %10s\n",
		"codec", "buffered", "stream", "delta", "chunks", "container")
	fmt.Fprintln(w, strings.Repeat("-", 62))
	for _, r := range rates {
		fmt.Fprintf(w, "%-10s %9.2f%% %9.2f%% %+7.2f%% %8d %9db\n",
			r.Codec, r.BufferedRate, r.StreamRate, r.StreamRate-r.BufferedRate, r.Chunks, r.ContainerBytes)
	}
}
