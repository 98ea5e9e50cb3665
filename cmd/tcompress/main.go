// Command tcompress compresses a test-set file with any registered
// codec and can serialize the result as a universal container that
// cmd/tdecompress expands back (auto-detecting the method).
//
// Usage:
//
//	tcompress -in tests.txt -out tests.tcmp -method ea -k 12 -l 64
//	tcompress -in tests.txt -out tests.tcmp -method golomb
//	tcompress -in tests.txt -method 9c -k 8 -stats
//	tcompress -stream -method fdr < tests.txt > tests.tcmp
//	tcompress -remote http://localhost:8077 -method golomb < tests.txt > tests.tcmp
//	tcompress -remote http://localhost:8077 -async -method golomb < tests.txt > tests.tcmp
//	tcompress -list
//
// With -remote the compression is delegated to a tcompd daemon: the
// textual input streams up, the chunked stream container (format v3)
// streams back, and the same -k/-l/-seed/... flags travel as query
// parameters. Repeat submissions hit the daemon's content-addressed
// result cache.
//
// Methods: every codec in the registry (ea, 9c, 9chc, golomb, fdr, rl,
// selhuff); all of them support container output.
//
// With -stream the textual test set is compressed pattern-by-pattern
// into a chunked stream container (format v3) at O(chunk) memory —
// stdin to stdout works as a pipe stage, and chunk compression runs on
// the pipeline worker pool without changing the output bytes. Expand
// with tdecompress, which reads a v3 stream at constant memory too.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"

	tcomp "repro"
	"repro/internal/testset"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tcompress: ")
	var (
		in      = flag.String("in", "", "input test-set file (default stdin)")
		out     = flag.String("out", "", "output container file (any method)")
		method  = flag.String("method", "ea", "codec name: "+strings.Join(tcomp.Codecs(), " | "))
		list    = flag.Bool("list", false, "list registered codecs and exit")
		k       = flag.Int("k", 0, "input block length K (0 = codec default; ea 12, 9c/9chc/selhuff 8)")
		l       = flag.Int("l", 0, "number of matching vectors L (ea; 0 = default 64)")
		runs    = flag.Int("runs", 0, "independent EA runs (ea; 0 = default 5)")
		seed    = flag.Int64("seed", 1, "random seed")
		gens    = flag.Int("gens", 2000, "EA generation cap")
		noimp   = flag.Int("noimprove", 100, "EA no-improvement termination window")
		subsume = flag.Bool("subsume", false, "apply subsumption post-pass (ea)")
		m       = flag.Int("m", 0, "Golomb parameter M (golomb; 0 = pick best power of two)")
		d       = flag.Int("d", 0, "dictionary size D (selhuff; 0 = default 8)")
		b       = flag.Int("b", 0, "run-length counter width in bits (rl; 0 = default 4)")
		stats   = flag.Bool("stats", false, "print test-set statistics")
		workers = flag.Int("workers", 0, "parallel EA runs on the pipeline engine (0 = one per CPU, 1 = serial; results are identical at any setting)")
		stream  = flag.Bool("stream", false, "stream textual patterns through the chunked container format at O(chunk) memory (default stdin to stdout)")
		chunk   = flag.Int("chunk", 0, "patterns per stream chunk (0 = about 1 Mbit of original data per chunk)")
		remote  = flag.String("remote", "", "delegate compression to a tcompd daemon at this base URL (output is a chunked stream container)")
		async   = flag.Bool("async", false, "with -remote: submit as a background job, poll until done, then fetch the result (survives a daemon restart mid-run)")
	)
	flag.Parse()

	if *list {
		for _, name := range tcomp.Codecs() {
			fmt.Println(name)
		}
		return
	}

	codec, err := tcomp.Lookup(*method)
	if err != nil {
		log.Fatal(err)
	}

	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		r = f
	}

	// The EA honors cancellation down to the pipeline engine, so Ctrl-C
	// aborts a long run cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	p := tcomp.DefaultEAParams(*seed)
	p.EA.MaxGenerations = *gens
	p.EA.MaxNoImprove = *noimp
	p.SubsumeOpt = *subsume
	opts := []tcomp.Option{
		tcomp.WithSeed(*seed),
		tcomp.WithWorkers(*workers),
		tcomp.WithEAParams(p),
	}
	if *k > 0 {
		opts = append(opts, tcomp.WithBlockLen(*k))
	}
	if *l > 0 {
		opts = append(opts, tcomp.WithMVCount(*l))
	}
	if *runs > 0 {
		opts = append(opts, tcomp.WithRuns(*runs))
	}
	if *m > 0 {
		opts = append(opts, tcomp.WithGolombM(*m))
	}
	if *d > 0 {
		opts = append(opts, tcomp.WithDictSize(*d))
	}
	if *b > 0 {
		opts = append(opts, tcomp.WithCounterWidth(*b))
	}
	if *chunk > 0 {
		opts = append(opts, tcomp.WithChunkPatterns(*chunk))
	}

	if *remote != "" {
		if *async {
			runAsync(ctx, *remote, r, *out, *method, opts)
		} else {
			runRemote(ctx, *remote, r, *out, *method, opts)
		}
		return
	}
	if *async {
		log.Fatal("-async needs -remote (it is a daemon job submission)")
	}

	if *stream {
		runStream(ctx, r, *out, *method, opts, *stats)
		return
	}

	ts, err := testset.ReadAuto(r)
	if err != nil {
		log.Fatal(err)
	}
	if *stats {
		fmt.Println(ts.Summary())
	}

	art, err := codec.Compress(ctx, ts, opts...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: rate %.2f%% (%d -> %d bits)\n",
		art.Codec, art.RatePercent(), art.OriginalBits, art.CompressedBits)
	if res, ok := art.Extra.(*tcomp.EAResult); ok {
		fmt.Printf("ea runs: average %.2f%%, best %.2f%% over %d runs\n",
			res.AverageRate, res.BestRate, len(res.Runs))
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := tcomp.Write(f, art); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (container v2, codec %s)\n", *out, art.Codec)
	}
}

// runStream compresses the textual test set on r pattern-by-pattern into
// a chunked stream container, without ever holding more than the
// in-flight chunks in memory. Diagnostics go to stderr because stdout is
// the default container sink.
func runStream(ctx context.Context, r io.Reader, out, method string, opts []tcomp.Option, stats bool) {
	sc, err := testset.NewScanner(r)
	if err != nil {
		log.Fatalf("-stream expects the textual test-set format: %v", err)
	}
	var w io.Writer = os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	sw, err := tcomp.NewStreamWriter(ctx, w, method, sc.Width(), opts...)
	if err != nil {
		log.Fatal(err)
	}
	specified := 0
	for {
		v, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			log.Fatal(err)
		}
		if stats {
			specified += v.CountSpecified()
		}
		if err := sw.WritePattern(v); err != nil {
			log.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		log.Fatal(err)
	}
	if stats {
		// The incremental twin of the buffered path's ts.Summary().
		s := testset.Stats{
			Width:     sc.Width(),
			Patterns:  sw.Patterns(),
			TotalBits: sw.OriginalBits(),
			Specified: specified,
		}
		if s.TotalBits > 0 {
			s.CareDensity = float64(s.Specified) / float64(s.TotalBits)
		}
		fmt.Fprintln(os.Stderr, s)
	}
	fmt.Fprintf(os.Stderr, "%s: rate %.2f%% (%d -> %d bits), %d patterns in %d chunks (chunked stream container)\n",
		method, sw.RatePercent(), sw.OriginalBits(), sw.CompressedBits(), sw.Patterns(), sw.Chunks())
}

// remoteHint appends the actionable next step implied by the daemon's
// error class: the typed sentinels distinguish "fix your input" from
// "retry elsewhere" from "report a daemon bug".
func remoteHint(err error) string {
	switch {
	case errors.Is(err, tcomp.ErrTooLarge):
		return fmt.Sprintf("%v (the test set exceeds the daemon's body cap; split it or raise tcompd -max-body)", err)
	case errors.Is(err, tcomp.ErrBadRequest):
		return fmt.Sprintf("%v (fix the request: bad parameter or test-set syntax)", err)
	case errors.Is(err, tcomp.ErrCorruptInput):
		return fmt.Sprintf("%v (the input could not be processed; check the test set)", err)
	case errors.Is(err, tcomp.ErrUnavailable):
		return fmt.Sprintf("%v (daemon draining or saturated; retry or target another instance)", err)
	case errors.Is(err, tcomp.ErrRemoteInternal):
		return fmt.Sprintf("%v (daemon bug, contained server-side; see the daemon log for the stack)", err)
	}
	return err.Error()
}

// runAsync submits the input as a daemon background job, polls until it
// reaches a terminal state, and fetches the result container. Unlike the
// synchronous path, the work survives a daemon restart mid-run: the
// daemon re-queues the job and this poll loop keeps waiting.
func runAsync(ctx context.Context, base string, r io.Reader, out, method string, opts []tcomp.Option) {
	var w io.Writer = os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	c := tcomp.NewClient(base)
	j, err := c.SubmitCompressJob(ctx, method, r, opts...)
	if err != nil {
		if errors.Is(err, tcomp.ErrQueueFull) {
			log.Fatalf("%v (the daemon's job backlog is at capacity; retry later or raise tcompd -max-jobs)", err)
		}
		log.Fatal(remoteHint(err))
	}
	fmt.Fprintf(os.Stderr, "submitted job %s (%s)\n", j.ID, base)
	if j, err = c.WaitJob(ctx, j.ID); err != nil {
		log.Fatal(remoteHint(err))
	}
	if j.State != tcomp.JobDone {
		log.Fatalf("job %s ended %s: %s (%s)", j.ID, j.State, j.Error, j.ErrorCode)
	}
	stats, err := c.JobResult(ctx, j.ID, w)
	if err != nil {
		log.Fatal(remoteHint(err))
	}
	fmt.Fprintf(os.Stderr, "%s: rate %.2f%% (%d -> %d bits), %d patterns in %d chunks (job %s)\n",
		method, stats.RatePercent(), stats.OriginalBits, stats.CompressedBits, stats.Patterns, stats.Chunks, j.ID)
}

// runRemote streams the input through a tcompd daemon and writes the
// returned chunked stream container. Diagnostics (rate, cache state) go
// to stderr because stdout is the default container sink.
func runRemote(ctx context.Context, base string, r io.Reader, out, method string, opts []tcomp.Option) {
	var w io.Writer = os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	c := tcomp.NewClient(base)
	stats, err := c.Compress(ctx, method, r, w, opts...)
	if err != nil {
		log.Fatal(remoteHint(err))
	}
	cached := ""
	if stats.CacheHit {
		cached = ", served from cache"
	}
	fmt.Fprintf(os.Stderr, "%s: rate %.2f%% (%d -> %d bits), %d patterns in %d chunks (remote %s%s)\n",
		method, stats.RatePercent(), stats.OriginalBits, stats.CompressedBits, stats.Patterns, stats.Chunks, base, cached)
}
