package jobs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"runtime/debug"

	tcomp "repro"
	"repro/internal/artifact"
	"repro/internal/pipeline"
	"repro/internal/testset"
)

// outcome is what a successful runner hands back.
type outcome struct {
	digest    artifact.Digest
	size      int64
	stats     *tcomp.ContainerStats
	artifacts []tcomp.JobArtifact // flow jobs: the container and the decoder
}

// execute runs one job's work while holding a token of the shared worker
// budget, so background jobs and interactive requests split the same
// CPU allowance instead of stacking on top of each other. A panic in a
// codec is contained here — it becomes a failed job (internal_panic),
// never a runner that silently leaves the job in "running" forever.
func (m *Manager) execute(ctx context.Context, id string, j tcomp.JobStatus) (out *outcome, err error) {
	if err := m.lim.Acquire(ctx); err != nil {
		return nil, err
	}
	defer m.lim.Release()
	defer func() {
		if r := recover(); r != nil {
			m.log.Error("contained panic in job",
				slog.String("job_id", id),
				slog.String("request_id", j.RequestID),
				slog.Any("panic", r),
				slog.String("stack", string(debug.Stack())))
			out, err = nil, fmt.Errorf("jobs: contained panic (%v): %w", r, pipeline.ErrPanic)
		}
	}()
	switch j.Spec.Kind {
	case KindCompress:
		return m.runCompress(ctx, id, j.Spec)
	case KindDecompress:
		return m.runDecompress(ctx, id, j.Spec)
	case KindSweep:
		return m.runSweep(ctx, id, j.Spec)
	case KindFlow:
		return m.runFlow(ctx, id, j.Spec)
	}
	return nil, fmt.Errorf("jobs: unknown kind %q", j.Spec.Kind) // unreachable: Submit validated
}

// produceTo streams a producer's output into the artifact store through
// a pipe, so job results are written at O(chunk) memory with no
// intermediate file. The producer's error wins over the store's: if the
// producer failed, whatever Put saw downstream is a symptom.
func (m *Manager) produceTo(produce func(w io.Writer) (*tcomp.ContainerStats, error)) (*outcome, error) {
	pr, pw := io.Pipe()
	type putRes struct {
		d   artifact.Digest
		n   int64
		err error
	}
	putc := make(chan putRes, 1)
	go func() {
		d, n, err := m.cfg.Store.Put(pr)
		if err == nil {
			err = fmt.Errorf("jobs: artifact store finished reading early")
		}
		// Unblock a producer still writing (store failure, or trailing
		// bytes after Put decided it was done). A clean completion has the
		// producer close first, so this error is never observed then.
		pr.CloseWithError(err)
		putc <- putRes{d, n, err}
	}()
	stats, perr := func() (*tcomp.ContainerStats, error) {
		// A panicking producer must still release the store goroutine
		// (close the pipe, join) before the panic unwinds to execute's
		// containment — otherwise the Put goroutine leaks, blocked on a
		// pipe nobody writes.
		defer func() {
			if r := recover(); r != nil {
				_ = pw.CloseWithError(fmt.Errorf("jobs: producer panic: %v", r))
				<-putc
				panic(r)
			}
		}()
		return produce(pw)
	}()
	_ = pw.CloseWithError(perr) // nil closes clean; CloseWithError always returns nil
	res := <-putc
	if perr != nil {
		return nil, perr
	}
	if res.d == "" {
		return nil, fmt.Errorf("jobs: storing result: %w", res.err)
	}
	return &outcome{digest: res.d, size: res.n, stats: stats}, nil
}

// openPatterns opens the input blob as a pattern iterator for
// tcomp.CompressTo, sniffing the TSET binary magic: a binary set is
// in-memory-sized by construction and is decoded whole, a textual one
// is scanned a pattern at a time.
func (m *Manager) openPatterns(input string) (width int, next func() (tcomp.Vector, error), closer io.Closer, err error) {
	rc, err := m.cfg.Store.Open(artifact.Digest(input))
	if err != nil {
		return 0, nil, nil, fmt.Errorf("jobs: input artifact: %w", err)
	}
	br := bufio.NewReader(rc)
	if peek, err := br.Peek(4); err == nil && string(peek) == "TSET" {
		ts, err := testset.ReadBinary(br)
		if err != nil {
			_ = rc.Close() // the parse error is the story
			return 0, nil, nil, fmt.Errorf("bad binary test set: %w", err)
		}
		return ts.Width, tcomp.PatternsOf(ts), rc, nil
	}
	sc, err := testset.NewScanner(br)
	if err != nil {
		_ = rc.Close() // the parse error is the story
		return 0, nil, nil, fmt.Errorf("bad test set: %w", err)
	}
	next = func() (tcomp.Vector, error) {
		v, err := sc.Next()
		if err != nil && err != io.EOF {
			return v, fmt.Errorf("bad pattern %d: %w", sc.Patterns(), err)
		}
		return v, err
	}
	return sc.Width(), next, rc, nil
}

// runCompress compresses the input pattern blob into a container blob.
// Progress counts the chunk frames as the writer writes them.
func (m *Manager) runCompress(ctx context.Context, id string, spec tcomp.JobSpec) (*outcome, error) {
	opts, err := tcomp.ParamOptions(spec.Params)
	if err != nil {
		return nil, err
	}
	width, next, closer, err := m.openPatterns(spec.Input)
	if err != nil {
		return nil, err
	}
	defer closer.Close()
	progress := func(st tcomp.ContainerStats) {
		m.setProgress(id, tcomp.JobProgress{Patterns: st.Patterns, Chunks: st.Chunks})
	}
	return m.produceTo(func(w io.Writer) (*tcomp.ContainerStats, error) {
		st, err := tcomp.CompressTo(ctx, w, spec.Codec, spec.Format, width, next, progress, opts...)
		if err != nil {
			return nil, err
		}
		return &st, nil
	})
}

// runDecompress expands a container blob (any version) into a textual
// pattern blob — the exact bytes the synchronous endpoint would answer.
func (m *Manager) runDecompress(ctx context.Context, id string, spec tcomp.JobSpec) (*outcome, error) {
	rc, err := m.cfg.Store.Open(artifact.Digest(spec.Input))
	if err != nil {
		return nil, fmt.Errorf("jobs: input artifact: %w", err)
	}
	defer rc.Close()
	sr, err := tcomp.NewStreamReader(bufio.NewReader(rc))
	if err != nil {
		return nil, err
	}
	return m.produceTo(func(w io.Writer) (*tcomp.ContainerStats, error) {
		pw, err := testset.NewPatternWriter(w, sr.Width(), sr.Expected())
		if err != nil {
			return nil, err
		}
		chunk := 0
		for {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			v, err := sr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, fmt.Errorf("stream corrupt or truncated at chunk %d: %w", sr.ChunkIndex(), err)
			}
			if err := pw.WritePattern(v); err != nil {
				return nil, err
			}
			if c := sr.ChunkIndex(); c != chunk {
				chunk = c
				m.setProgress(id, tcomp.JobProgress{Patterns: pw.Patterns(), Chunks: chunk})
			}
		}
		if err := pw.Close(); err != nil {
			return nil, err
		}
		n := pw.Patterns()
		return &tcomp.ContainerStats{Patterns: n, Chunks: sr.ChunkIndex(), OriginalBits: n * sr.Width(), CompressedBits: sr.CompressedBits()}, nil
	})
}

// SweepReport is the JSON artifact a sweep job produces: one row per
// codec, each the result of streaming the same input through that codec.
type SweepReport struct {
	Patterns int              `json:"patterns"`
	Width    int              `json:"width"`
	Codecs   []SweepCodecStat `json:"codecs"`
}

// SweepCodecStat is one codec's row in a sweep report.
type SweepCodecStat struct {
	Codec          string  `json:"codec"`
	Chunks         int     `json:"chunks"`
	OriginalBits   int     `json:"original_bits"`
	CompressedBits int     `json:"compressed_bits"`
	RatePercent    float64 `json:"rate_percent"`
}

// runSweep streams the input through every requested codec (re-opening
// the blob per codec, so memory stays O(chunk)) and stores the rate
// comparison as a JSON report.
func (m *Manager) runSweep(ctx context.Context, id string, spec tcomp.JobSpec) (*outcome, error) {
	opts, err := tcomp.ParamOptions(spec.Params)
	if err != nil {
		return nil, err
	}
	report := SweepReport{}
	best := 0
	for i, codecName := range spec.Codecs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		width, next, closer, err := m.openPatterns(spec.Input)
		if err != nil {
			return nil, err
		}
		st, err := tcomp.CompressTo(ctx, io.Discard, codecName, "v3", width, next, nil, opts...)
		_ = closer.Close() // input re-opens next iteration
		if err != nil {
			return nil, fmt.Errorf("%s: %w", codecName, err)
		}
		report.Patterns = st.Patterns
		report.Width = width
		report.Codecs = append(report.Codecs, SweepCodecStat{
			Codec:          codecName,
			Chunks:         st.Chunks,
			OriginalBits:   st.OriginalBits,
			CompressedBits: st.CompressedBits,
			RatePercent:    st.RatePercent(),
		})
		if best == 0 || st.CompressedBits < best {
			best = st.CompressedBits
		}
		m.setProgress(id, tcomp.JobProgress{Patterns: st.Patterns, Chunks: i + 1})
	}
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return nil, err
	}
	b = append(b, '\n')
	return m.produceTo(func(w io.Writer) (*tcomp.ContainerStats, error) {
		if _, err := io.Copy(w, bytes.NewReader(b)); err != nil {
			return nil, err
		}
		return &tcomp.ContainerStats{
			Patterns: report.Patterns, Chunks: len(report.Codecs),
			OriginalBits:   report.Patterns * report.Width,
			CompressedBits: best,
		}, nil
	})
}

// runFlow runs the full hardware-test pipeline (circuit → test
// generation → codec advisor race → winner container + Verilog decoder)
// and stores three blobs: the JSON tcomp.FlowReport as the job output,
// plus the container and decoder as named artifacts on the job record.
func (m *Manager) runFlow(ctx context.Context, id string, spec tcomp.JobSpec) (*outcome, error) {
	opts, err := tcomp.ParamOptions(spec.Params)
	if err != nil {
		return nil, err
	}
	seed := int64(1)
	if v := spec.Params["seed"]; v != 0 {
		seed = v
	}
	// Flow progress is stages completed (of 4), the way sweep counts
	// codecs; the metrics hook rides the same observer.
	stages := 0
	flowOpts := []tcomp.FlowOption{
		tcomp.FlowSeed(seed),
		tcomp.FlowWorkers(int(spec.Params["workers"])),
		tcomp.FlowCodecOptions(opts...),
		tcomp.FlowStageObserver(func(stage string, seconds float64) {
			if m.cfg.FlowObserve != nil {
				m.cfg.FlowObserve(stage, seconds)
			}
			stages++
			m.setProgress(id, tcomp.JobProgress{Chunks: stages})
		}),
	}
	if len(spec.Codecs) > 0 {
		flowOpts = append(flowOpts, tcomp.FlowCodecs(spec.Codecs...))
	}
	if spec.Tests != "" {
		flowOpts = append(flowOpts, tcomp.FlowTests(spec.Tests))
	}
	if spec.Sample > 0 {
		flowOpts = append(flowOpts, tcomp.FlowSamplePatterns(spec.Sample))
	}
	flow := tcomp.NewTestFlow(flowOpts...)

	var c *tcomp.Circuit
	if spec.Benchmark != "" {
		c, err = flow.GenerateCircuit(ctx, spec.Benchmark)
	} else {
		var rc io.ReadCloser
		rc, err = m.cfg.Store.Open(artifact.Digest(spec.Input))
		if err != nil {
			return nil, fmt.Errorf("jobs: input artifact: %w", err)
		}
		c, err = flow.ParseCircuit("submitted", rc)
		_ = rc.Close()
	}
	if err != nil {
		return nil, err
	}

	res, err := flow.Run(ctx, c)
	if err != nil {
		return nil, err
	}
	if m.cfg.FlowCoverage != nil {
		m.cfg.FlowCoverage(res.Tests.CoveragePercent)
	}

	store := func(name string, blob []byte) (tcomp.JobArtifact, error) {
		d, n, err := m.cfg.Store.Put(bytes.NewReader(blob))
		if err != nil {
			return tcomp.JobArtifact{}, fmt.Errorf("jobs: storing flow %s: %w", name, err)
		}
		return tcomp.JobArtifact{Name: name, Digest: string(d), Size: n}, nil
	}
	cArt, err := store("container", res.ContainerBytes)
	if err != nil {
		return nil, err
	}
	vArt, err := store("verilog", res.VerilogBytes)
	if err != nil {
		return nil, err
	}
	report := tcomp.FlowReport{FlowResult: *res, Artifacts: []tcomp.JobArtifact{cArt, vArt}}
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return nil, err
	}
	b = append(b, '\n')
	out, err := m.produceTo(func(w io.Writer) (*tcomp.ContainerStats, error) {
		if _, err := w.Write(b); err != nil {
			return nil, err
		}
		return &tcomp.ContainerStats{
			Patterns: res.Tests.Patterns, Chunks: res.Container.Chunks,
			OriginalBits:   res.Container.OriginalBits,
			CompressedBits: res.Container.CompressedBits,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	out.artifacts = report.Artifacts
	return out, nil
}
