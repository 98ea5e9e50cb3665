// Package jobs turns the engine's synchronous compress/decompress calls
// into durable background work: a Manager accepts job specs over a
// bounded queue, runs them on Workers goroutines, each taking the next
// job as soon as it is free, under the daemon's shared Limiter (jobs
// and interactive requests draw from one worker budget), and journals
// every state transition to disk so a daemon restart recovers the
// queue — finished outputs stay fetchable from the artifact store until
// GC, unfinished work is re-queued and runs again.
//
// The job state machine:
//
//	pending ──▶ running ──▶ done
//	   │           ├──────▶ failed     (error + taxonomy code)
//	   └───────────┴──────▶ cancelled  (user cancel)
//
// A daemon shutdown is not a transition: running jobs are parked back to
// pending in the journal and resume from scratch on the next start —
// sound because compression is a pure function of (input blob,
// parameters), so a re-run produces the identical output blob.
//
// Inputs and outputs live in a content-addressed artifact.Store and jobs
// reference them by digest only, so identical submissions share one
// input blob and identical results collapse to one output blob.
//
// A job record is the root package's tcomp.JobStatus, its spec a
// tcomp.JobSpec: the type the journal persists, the API serves and
// tcomp.Client decodes is one type, so the three cannot drift apart.
package jobs

import (
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	tcomp "repro"
	"repro/internal/artifact"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// The job kinds, the values of tcomp.JobSpec.Kind.
const (
	// KindCompress compresses a test-set blob (textual patterns or TSET
	// binary, read a pattern at a time by testset.Scanner) into a
	// container (v3 chunked by default, v2 on request).
	KindCompress = "compress"
	// KindDecompress expands a container blob (v1/v2/v3 auto-detected)
	// into textual patterns.
	KindDecompress = "decompress"
	// KindSweep streams one test-set blob through several codecs and
	// produces a JSON rate report instead of a container.
	KindSweep = "sweep"
	// KindFlow runs the full hardware-test pipeline: circuit (submitted
	// .bench netlist or generated registry benchmark) → test generation →
	// codec advisor race → winner container + Verilog decoder. The job
	// output is the JSON flow report; the two binary artifacts are stored
	// alongside it and listed on the job record.
	KindFlow = "flow"
)

// Sentinel errors of the Manager API.
var (
	// ErrNotFound: no job with that ID (never submitted, or removed).
	ErrNotFound = errors.New("jobs: job not found")
	// ErrQueueFull: the pending backlog is at MaxQueued; retry later.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrNotDone: the job has not produced a result (still pending or
	// running, or it failed / was cancelled).
	ErrNotDone = errors.New("jobs: job not done")
	// ErrActive: the operation needs a terminal job (Remove on a pending
	// or running job).
	ErrActive = errors.New("jobs: job still active")
	// ErrGone: the job finished but its result artifact has been
	// garbage-collected from the store.
	ErrGone = errors.New("jobs: result artifact no longer available")
	// ErrClosed: the manager is shutting down.
	ErrClosed = errors.New("jobs: manager closed")
)

// Config tunes a Manager.
type Config struct {
	// Store holds job inputs and outputs. Required.
	Store artifact.Store
	// Dir is the journal directory; every state transition is persisted
	// as <Dir>/<id>.json so jobs survive a restart. "" keeps jobs in
	// memory only (tests, ephemeral daemons).
	Dir string
	// Workers bounds concurrently running jobs. <= 0 means GOMAXPROCS.
	Workers int
	// MaxQueued bounds the pending backlog; Submit beyond it returns
	// ErrQueueFull. <= 0 means 64.
	MaxQueued int
	// Limiter is the worker budget jobs share with the rest of the
	// daemon: a job holds one token for its entire execution, exactly
	// like a synchronous request. Nil means the process-wide default.
	Limiter *pipeline.Limiter
	// Observe, when set, is called (without locks held) with a snapshot
	// after every state transition of a live job — the daemon's metrics
	// hook. Journal recovery does not replay old transitions.
	Observe func(j tcomp.JobStatus)
	// FlowObserve, when set, receives each flow stage's wall-clock
	// duration while a flow job runs — the tcompd_flow_stage_seconds
	// hook. Called from worker goroutines; must be concurrency-safe.
	FlowObserve func(stage string, seconds float64)
	// FlowCoverage, when set, receives the coverage percent of every flow
	// job's completed test-generation stage — the
	// tcompd_flow_coverage_percent hook.
	FlowCoverage func(percent float64)
	// Logger receives job lifecycle and journal-failure logs. Nil means
	// slog.Default().
	Logger *slog.Logger
	// Tracer mints the per-job root span (joined to the submitting
	// request's trace via the journalled traceparent). Nil disables span
	// export; trace context still propagates through the job record.
	Tracer *obs.Tracer
}

// state is the Manager's record of one job.
type state struct {
	job       tcomp.JobStatus
	cancel    context.CancelFunc // set while running
	cancelled bool               // user asked for cancellation
}

// Manager owns the queue, the runners, and the journal.
type Manager struct {
	cfg  Config
	lim  *pipeline.Limiter
	log  *slog.Logger
	ctx  context.Context
	stop context.CancelFunc

	queue   chan string
	workers sync.WaitGroup

	mu      sync.Mutex
	jobs    map[string]*state
	order   []string // creation order, for List
	closing bool

	// journalMu orders journal writes: it is held from a job's snapshot
	// through the write and rename of its record, and around Remove's
	// unlink, so the last record to land is always the latest state.
	// Lock order: journalMu before mu.
	journalMu sync.Mutex
}

// NewManager loads the journal (if cfg.Dir is set), re-queues unfinished
// jobs, and starts the worker pool.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Store == nil {
		return nil, errors.New("jobs: Config.Store is required")
	}
	if cfg.MaxQueued <= 0 {
		cfg.MaxQueued = 64
	}
	lim := cfg.Limiter
	if lim == nil {
		lim = pipeline.Default()
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	ctx, stop := context.WithCancel(context.Background())
	m := &Manager{
		cfg:   cfg,
		lim:   lim,
		log:   logger,
		ctx:   ctx,
		stop:  stop,
		queue: make(chan string, cfg.MaxQueued),
		jobs:  map[string]*state{},
	}
	recovered, err := m.loadJournal()
	if err != nil {
		stop()
		return nil, err
	}
	// Recovered jobs run first, in journal order and outside MaxQueued.
	rec := make(chan string, len(recovered))
	for _, id := range recovered {
		rec <- id
	}
	close(rec)
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	m.workers.Add(workers)
	for i := 0; i < workers; i++ {
		go m.work(rec)
	}
	return m, nil
}

// work runs jobs until shutdown: the recovered ones, then each job
// Submit queues, taken as soon as this worker is free. A panic that
// escapes run (execute contains the job's own) is logged and costs that
// job's run, not the worker.
func (m *Manager) work(recovered <-chan string) {
	defer m.workers.Done()
	for {
		id, ok := <-recovered
		if !ok {
			select {
			case <-m.ctx.Done():
				return
			case id = <-m.queue:
			}
		}
		if m.ctx.Err() != nil {
			return
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					m.log.Error("contained panic in job runner", slog.String("job_id", id),
						slog.Any("panic", r), slog.String("stack", string(debug.Stack())))
				}
			}()
			m.run(m.ctx, id)
		}()
	}
}

// Close stops accepting work, cancels running jobs, waits for the
// runners to exit, and parks interrupted jobs back to pending in the
// journal so the next start resumes them. Idempotent.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closing {
		m.mu.Unlock()
		return nil
	}
	m.closing = true
	m.mu.Unlock()
	m.stop()
	m.workers.Wait()
	return nil
}

// Submit validates the spec, journals the new pending job, and queues
// it. It returns ErrQueueFull when the backlog is at MaxQueued.
func (m *Manager) Submit(spec tcomp.JobSpec) (tcomp.JobStatus, error) {
	return m.SubmitCtx(context.Background(), spec)
}

// SubmitCtx is Submit carrying the submitting request's context: the
// context's request ID (if the obs middleware put one there) is stamped
// on the job record, linking the async job back to the HTTP request that
// created it. The context does not bound the job's execution — jobs
// outlive their submitting request by design.
func (m *Manager) SubmitCtx(ctx context.Context, spec tcomp.JobSpec) (tcomp.JobStatus, error) {
	if err := m.validate(&spec); err != nil {
		return tcomp.JobStatus{}, err
	}
	j := tcomp.JobStatus{
		ID:          newID(),
		Spec:        spec,
		State:       tcomp.JobPending,
		Created:     time.Now(),
		RequestID:   obs.RequestID(ctx),
		TraceParent: obs.TraceparentFromContext(ctx),
	}
	m.mu.Lock()
	if m.closing {
		m.mu.Unlock()
		return tcomp.JobStatus{}, ErrClosed
	}
	select {
	case m.queue <- j.ID:
	default:
		m.mu.Unlock()
		return tcomp.JobStatus{}, fmt.Errorf("jobs: %d jobs already queued: %w", cap(m.queue), ErrQueueFull)
	}
	m.jobs[j.ID] = &state{job: j}
	m.order = append(m.order, j.ID)
	m.mu.Unlock()
	m.journal(j.ID)
	m.observe(j)
	return j, nil
}

// validate normalizes and checks a spec before it is accepted.
func (m *Manager) validate(spec *tcomp.JobSpec) error {
	switch spec.Kind {
	case KindCompress:
		if _, err := tcomp.Lookup(spec.Codec); err != nil {
			return err
		}
		switch spec.Format {
		case "":
			spec.Format = "v3"
		case "v2", "v3":
		default:
			return fmt.Errorf("jobs: format %q must be v2 or v3", spec.Format)
		}
	case KindDecompress:
		if spec.Codec != "" || spec.Format != "" || len(spec.Params) > 0 {
			return errors.New("jobs: decompress takes no codec, format, or parameters (the container is self-describing)")
		}
	case KindSweep:
		if len(spec.Codecs) == 0 {
			return errors.New("jobs: sweep needs at least one codec")
		}
		for _, c := range spec.Codecs {
			if _, err := tcomp.Lookup(c); err != nil {
				return err
			}
		}
	case KindFlow:
		if spec.Codec != "" || spec.Format != "" {
			return errors.New("jobs: flow takes codecs (the advisor set), not codec or format")
		}
		for _, c := range spec.Codecs {
			if _, err := tcomp.Lookup(c); err != nil {
				return err
			}
		}
		switch spec.Tests {
		case "", tcomp.FlowStuckAt, tcomp.FlowPathDelay:
		default:
			return fmt.Errorf("jobs: tests %q must be %q or %q", spec.Tests, tcomp.FlowStuckAt, tcomp.FlowPathDelay)
		}
		if spec.Sample < 0 || spec.Sample > 1<<16 {
			return fmt.Errorf("jobs: sample %d out of range [0,%d]", spec.Sample, 1<<16)
		}
		if spec.Benchmark != "" {
			if err := tcomp.FindBenchmark(spec.Benchmark, spec.Tests); err != nil {
				return err
			}
		} else if spec.Input == "" {
			return fmt.Errorf("jobs: flow needs a benchmark name or a .bench netlist body: %w", tcomp.ErrInvalidCircuit)
		}
	default:
		return fmt.Errorf("jobs: unknown kind %q", spec.Kind)
	}
	if _, err := tcomp.ParamOptions(spec.Params); err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	if spec.Kind == KindFlow && spec.Benchmark != "" && spec.Input == "" {
		// A generated-benchmark flow has no input blob to check.
		return nil
	}
	input := artifact.Digest(spec.Input)
	if !input.Valid() {
		return fmt.Errorf("jobs: input %q is not a valid digest", spec.Input)
	}
	if _, err := m.cfg.Store.Stat(input); err != nil {
		return fmt.Errorf("jobs: input artifact: %w", err)
	}
	return nil
}

// Get returns a snapshot of the job.
func (m *Manager) Get(id string) (tcomp.JobStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.jobs[id]
	if !ok {
		return tcomp.JobStatus{}, ErrNotFound
	}
	return st.job, nil
}

// List returns snapshots of all jobs in creation order.
func (m *Manager) List() []tcomp.JobStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]tcomp.JobStatus, 0, len(m.order))
	for _, id := range m.order {
		if st, ok := m.jobs[id]; ok {
			out = append(out, st.job)
		}
	}
	return out
}

// Cancel stops a pending or running job. Cancelling a terminal job is a
// no-op (the race between completion and cancellation is inherent, so it
// is not an error).
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	st, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return ErrNotFound
	}
	var snap tcomp.JobStatus
	switch st.job.State {
	case tcomp.JobPending:
		// Not running yet: transition directly; the runner skips any
		// queued ID whose state is no longer pending.
		st.cancelled = true
		st.job.State = tcomp.JobCancelled
		st.job.Finished = time.Now()
		snap = st.job
	case tcomp.JobRunning:
		st.cancelled = true
		if st.cancel != nil {
			st.cancel() // the runner records the cancelled transition
		}
	}
	m.mu.Unlock()
	if snap.ID != "" {
		m.journal(id)
		m.observe(snap)
	}
	return nil
}

// Remove deletes a terminal job's record and journal entry. The output
// artifact stays in the store (it may be shared by content address) and
// falls to GC. Active jobs return ErrActive — cancel first.
func (m *Manager) Remove(id string) error {
	m.mu.Lock()
	st, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return ErrNotFound
	}
	if !st.job.Terminal() {
		m.mu.Unlock()
		return ErrActive
	}
	delete(m.jobs, id)
	for i, o := range m.order {
		if o == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	m.mu.Unlock()
	if m.cfg.Dir != "" {
		m.journalMu.Lock()
		defer m.journalMu.Unlock()
		if err := os.Remove(m.journalPath(id)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("jobs: removing journal entry: %w", err)
		}
	}
	return nil
}

// Open returns a reader over one blob of a done job, with the blob's
// record and the job snapshot: the job's output when name is "",
// otherwise the named extra artifact (flow jobs: "container",
// "verilog"). An unknown job or artifact name answers ErrNotFound, a
// job without a result ErrNotDone, and a blob GC already collected
// ErrGone.
func (m *Manager) Open(id, name string) (io.ReadCloser, tcomp.JobArtifact, tcomp.JobStatus, error) {
	j, err := m.Get(id)
	if err != nil {
		return nil, tcomp.JobArtifact{}, j, err
	}
	if j.State != tcomp.JobDone {
		return nil, tcomp.JobArtifact{}, j, fmt.Errorf("jobs: job %s is %s: %w", id, j.State, ErrNotDone)
	}
	blob := tcomp.JobArtifact{Digest: j.Output, Size: j.OutputSize}
	if name != "" {
		i := slices.IndexFunc(j.Artifacts, func(a tcomp.JobArtifact) bool { return a.Name == name })
		if i < 0 {
			return nil, tcomp.JobArtifact{}, j, fmt.Errorf("jobs: job %s has no artifact %q: %w", id, name, ErrNotFound)
		}
		blob = j.Artifacts[i]
	}
	r, err := m.cfg.Store.Open(artifact.Digest(blob.Digest))
	if errors.Is(err, artifact.ErrNotFound) {
		err = fmt.Errorf("jobs: job %s: %w", id, ErrGone)
	}
	return r, blob, j, err
}

// run executes one queued job end to end. It never returns an error to
// the pool: failures become job-record state.
func (m *Manager) run(ctx context.Context, id string) {
	m.mu.Lock()
	st, ok := m.jobs[id]
	if !ok || st.job.State != tcomp.JobPending {
		m.mu.Unlock()
		return // cancelled (or removed) while queued
	}
	jctx, jcancel := context.WithCancel(ctx)
	st.cancel = jcancel
	st.job.State = tcomp.JobRunning
	st.job.Started = time.Now()
	snap := st.job
	m.mu.Unlock()
	defer jcancel()
	m.journal(id)
	m.observe(snap)

	// The job's root span joins the submitting request's trace through
	// the journalled traceparent — including on a re-run after a daemon
	// restart, when the submitting process is long gone. Without a
	// traceparent the tracer mints a fresh trace for the job.
	var parentTC *obs.TraceContext
	if snap.TraceParent != "" {
		if tc, perr := obs.ParseTraceparent(snap.TraceParent); perr == nil {
			parentTC = &tc
		}
	}
	jctx, jobSpan := m.cfg.Tracer.StartRoot(jctx, "job "+snap.Spec.Kind, parentTC)
	jobSpan.SetAttrs(obs.String("job_id", id))
	if snap.RequestID != "" {
		jobSpan.SetAttrs(obs.String("request_id", snap.RequestID))
	}

	out, err := m.execute(jctx, id, snap)

	m.mu.Lock()
	st.cancel = nil
	switch {
	case err == nil:
		st.job.State = tcomp.JobDone
		st.job.Output = string(out.digest)
		st.job.OutputSize = out.size
		st.job.Stats = out.stats
		st.job.Artifacts = out.artifacts
		st.job.Progress = tcomp.JobProgress{Patterns: out.stats.Patterns, Chunks: out.stats.Chunks}
	case st.cancelled:
		st.job.State = tcomp.JobCancelled
		st.job.Error = "cancelled"
	case jctx.Err() != nil && m.closing:
		// Daemon shutdown, not failure: park the job for the next start.
		// Re-running from scratch is sound — output is a pure function of
		// (input, params) — and the journal write below makes it durable.
		st.job.State = tcomp.JobPending
		st.job.Started = time.Time{}
		st.job.Progress = tcomp.JobProgress{}
	default:
		st.job.State = tcomp.JobFailed
		st.job.Error = err.Error()
		st.job.ErrorCode = errorCode(st.job.Spec.Kind, err)
	}
	if st.job.State != tcomp.JobPending {
		st.job.Finished = time.Now()
	}
	snap = st.job
	m.mu.Unlock()
	jobSpan.SetAttrs(obs.String("state", snap.State))
	if snap.State == tcomp.JobFailed {
		jobSpan.SetError(err)
	}
	jobSpan.End()
	m.journal(id)
	if snap.State != tcomp.JobPending {
		m.observe(snap)
	}
	attrs := []any{
		slog.String("job_id", id),
		slog.String("kind", snap.Spec.Kind),
		slog.String("state", snap.State),
	}
	if snap.RequestID != "" {
		attrs = append(attrs, slog.String("request_id", snap.RequestID))
	}
	if !snap.Finished.IsZero() {
		attrs = append(attrs, slog.Duration("duration", snap.Finished.Sub(snap.Started)))
	}
	switch snap.State {
	case tcomp.JobFailed:
		attrs = append(attrs, slog.String("error", snap.Error), slog.String("error_code", snap.ErrorCode))
		m.log.Error("job finished", attrs...)
	case tcomp.JobPending:
		// Shutdown parked the job; it re-runs on the next start.
		m.log.Info("job parked for restart", attrs...)
	default:
		m.log.Info("job finished", attrs...)
	}
}

// setProgress publishes a running job's progress. Progress lives in
// memory only: the journal is written on state transitions, and a job
// reloaded from it restarts from scratch, so a journalled progress
// would never be read back.
func (m *Manager) setProgress(id string, p tcomp.JobProgress) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st, ok := m.jobs[id]; ok && st.job.State == tcomp.JobRunning {
		st.job.Progress = p
	}
}

// observe invokes the metrics hook with no locks held.
func (m *Manager) observe(j tcomp.JobStatus) {
	if m.cfg.Observe != nil {
		m.cfg.Observe(j)
	}
}

// errorCode gives a failed job its taxonomy code, the code the
// synchronous endpoint would answer for the same error. serve's
// request_too_large never applies: a job reads its input from the
// store, not from a size-capped request body.
func errorCode(kind string, err error) string {
	if errors.Is(err, pipeline.ErrPanic) {
		return "internal_panic"
	}
	if errors.Is(err, tcomp.ErrInvalidCircuit) {
		return "flow_invalid_circuit"
	}
	if kind == KindDecompress {
		return "corrupt_container"
	}
	return "unprocessable"
}

// ---- journal ----

func (m *Manager) journalPath(id string) string {
	return filepath.Join(m.cfg.Dir, id+".json")
}

// journal persists the job's current snapshot with an atomic
// tmp+rename, so a crash never leaves a torn record. Best-effort: a
// journal write failure is logged, not fatal — the in-memory state
// machine stays authoritative for this process's lifetime. Writes are
// serialized under journalMu, so a writer that snapshotted an older
// state can never rename its record over a newer one.
func (m *Manager) journal(id string) {
	if m.cfg.Dir == "" {
		return
	}
	m.journalMu.Lock()
	defer m.journalMu.Unlock()
	m.mu.Lock()
	st, ok := m.jobs[id]
	var snap tcomp.JobStatus
	if ok {
		snap = st.job
	}
	m.mu.Unlock()
	if !ok {
		return
	}
	b, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		m.log.Error("marshaling journal entry", slog.String("job_id", id), slog.Any("error", err))
		return
	}
	tmp := m.journalPath(id) + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		m.log.Error("writing journal entry", slog.String("job_id", id), slog.Any("error", err))
		return
	}
	if err := os.Rename(tmp, m.journalPath(id)); err != nil {
		m.log.Error("publishing journal entry", slog.String("job_id", id), slog.Any("error", err))
	}
}

// loadJournal reads every job record from Dir and returns the IDs to
// re-queue (pending and interrupted-running jobs), oldest first.
func (m *Manager) loadJournal() ([]string, error) {
	if m.cfg.Dir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(m.cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: creating journal dir: %w", err)
	}
	entries, err := os.ReadDir(m.cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("jobs: reading journal dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		id := strings.TrimSuffix(name, ".json")
		if !validID(id) {
			continue
		}
		b, err := os.ReadFile(filepath.Join(m.cfg.Dir, name))
		if err != nil {
			return nil, fmt.Errorf("jobs: reading journal entry %s: %w", name, err)
		}
		var j tcomp.JobStatus
		if err := json.Unmarshal(b, &j); err != nil {
			// A torn or foreign file: skip it rather than refuse to start.
			m.log.Warn("skipping unreadable journal entry", slog.String("entry", name), slog.Any("error", err))
			continue
		}
		if j.ID != id {
			m.log.Warn("skipping journal entry with mismatched ID", slog.String("entry", name), slog.String("id", j.ID))
			continue
		}
		if j.State == tcomp.JobRunning || j.State == tcomp.JobPending {
			// Interrupted (crash or shutdown): back to the start line.
			j.State = tcomp.JobPending
			j.Started = time.Time{}
			j.Progress = tcomp.JobProgress{}
		}
		m.jobs[id] = &state{job: j}
		m.order = append(m.order, id)
	}
	sort.Slice(m.order, func(a, b int) bool {
		ja, jb := m.jobs[m.order[a]].job, m.jobs[m.order[b]].job
		if !ja.Created.Equal(jb.Created) {
			return ja.Created.Before(jb.Created)
		}
		return ja.ID < jb.ID
	})
	var requeue []string
	for _, id := range m.order {
		if m.jobs[id].job.State == tcomp.JobPending {
			m.journal(id) // persist the running→pending rewrite
			requeue = append(requeue, id)
		}
	}
	return requeue, nil
}

// newID returns a fresh 17-character job ID ("j" + 16 hex chars).
func newID() string {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		// crypto/rand failing means the OS entropy source is broken;
		// nothing better is available, and IDs only need uniqueness.
		panic(fmt.Sprintf("jobs: reading random ID bytes: %v", err))
	}
	return "j" + hex.EncodeToString(b[:])
}

// validID reports whether s looks like an ID newID produced — the guard
// that keeps journal loading and HTTP path segments from smuggling
// arbitrary file names.
func validID(s string) bool {
	if len(s) != 17 || s[0] != 'j' {
		return false
	}
	_, err := hex.DecodeString(s[1:])
	return err == nil
}
