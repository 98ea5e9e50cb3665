// Package pipeline is the repo's batch-execution engine: it shards a
// slice of independent jobs (circuit × coder × parameters in the paper's
// sweep) across a bounded worker pool, derives a deterministic RNG seed
// for every job from a single root seed, and writes each job's result
// into that job's slot of an index-ordered, reproducible report.
//
// The non-negotiable invariant is determinism: given the same root seed
// and job list, a run with N workers produces results byte-identical to a
// serial run. The engine guarantees this by (a) deriving each job's seed
// from the root seed and the job's index only (splitmix64, never from
// scheduling order), and (b) aggregating by job index, never by completion
// order. Anything nondeterministic (wall-clock timing) is kept out of the
// comparable part of a Result.
//
// Nested runs (a parallel sweep whose points each run their EA runs as
// jobs) compose through a shared Limiter: inner runs only spawn helper
// goroutines when a token is free and otherwise run inline, so the
// machine is never oversubscribed and nesting can never deadlock.
package pipeline

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// ErrAborted marks jobs Run skipped because an earlier job failed. An
// aborted job's index is always higher than the lowest failing job's,
// so Run's lowest-index-error guarantee always surfaces a real error.
var ErrAborted = errors.New("pipeline: job aborted after earlier job error")

// Seed derives the RNG seed for job index from root using an splitmix64
// mixing step. The derivation depends only on (root, index), so sharding
// and scheduling cannot perturb it; distinct indices give well-separated
// streams even for adjacent roots.
func Seed(root int64, index int) int64 {
	z := uint64(root) + (uint64(index)+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// Limiter is a counting semaphore bounding the number of helper
// goroutines across all runs that share it. Acquisition is always
// non-blocking (TryAcquire): a run that cannot get a token runs the work
// inline on its own goroutine, which keeps nested runs deadlock-free by
// construction.
type Limiter struct {
	tokens chan struct{}
}

// NewLimiter returns a Limiter with n tokens (minimum 1).
func NewLimiter(n int) *Limiter {
	if n < 1 {
		n = 1
	}
	return &Limiter{tokens: make(chan struct{}, n)}
}

// TryAcquire takes a token if one is free.
func (l *Limiter) TryAcquire() bool {
	select {
	case l.tokens <- struct{}{}:
		return true
	default:
		return false
	}
}

// Acquire blocks until a token is free or ctx is done. It is the
// admission-control entry point for callers that must not proceed
// without a token (a network service queueing requests against a shared
// worker budget), as opposed to the engine's internal TryAcquire, whose
// callers always have inline execution as a fallback. Never call Acquire
// while already holding a token from the same Limiter: unlike TryAcquire
// it can wait, and a hold-and-wait cycle is a deadlock.
//
// Time spent waiting for a token is recorded as a queue_wait span on
// the context's request trace (a no-op outside a traced request). The
// uncontended path records nothing: queue_wait only appears on requests
// that actually queued. A wait that ends in cancellation records too,
// marked with the context error — a request killed while queueing is
// exactly the one whose queue time matters.
func (l *Limiter) Acquire(ctx context.Context) error {
	select {
	case l.tokens <- struct{}{}:
		return nil
	default:
	}
	_, sp := obs.StartSpan(ctx, "queue_wait")
	select {
	case l.tokens <- struct{}{}:
		sp.End()
		return nil
	case <-ctx.Done():
		sp.SetError(ctx.Err())
		sp.End()
		return ctx.Err()
	}
}

// Release returns a token taken by TryAcquire or Acquire.
func (l *Limiter) Release() { <-l.tokens }

// Cap returns the token capacity.
func (l *Limiter) Cap() int { return cap(l.tokens) }

var defaultLimiter = NewLimiter(runtime.GOMAXPROCS(0))

// Default returns the process-wide Limiter, sized to GOMAXPROCS so an
// operator-configured parallelism cap is respected. All runs that don't
// supply their own Limiter share it, so independently started runs
// still respect one global concurrency bound.
func Default() *Limiter { return defaultLimiter }

// Job is one unit of batch work. Run receives a context for cancellation
// and the job's deterministically derived seed; it must be a pure
// function of (seed, its own inputs) for the engine's reproducibility
// guarantee to hold.
type Job[T any] struct {
	// Name labels the job in results and reports (e.g. "s349/K=12/L=64").
	Name string
	// Run executes the job. It is called at most once.
	Run func(ctx context.Context, seed int64) (T, error)
}

// Result is the outcome of one job.
type Result[T any] struct {
	Index int    // position of the job in the input slice
	Name  string // Job.Name
	// Seed is the engine-derived seed offered to Job.Run. It identifies
	// the run only when the job actually seeds from it; jobs with their
	// own deterministic derivation (e.g. core.Compress's historical
	// per-run seeds) ignore it and their callers omit Config.RootSeed.
	Seed int64
	// Value is Run's result. It may be non-zero alongside a non-nil Err
	// when the job returns a partial best-so-far value (e.g. an EA run
	// interrupted by cancellation).
	Value T
	Err   error // Run's error, or ctx.Err() for jobs skipped on cancel
}

// Config tunes an engine run.
type Config struct {
	// Workers bounds job-level parallelism. <= 0 means the GOMAXPROCS
	// default; it is always clamped to len(jobs).
	Workers int
	// RootSeed is the root of the per-job seed derivation.
	RootSeed int64
	// Limiter is the shared concurrency bound helper workers draw from;
	// nil means Default(). The first worker never needs a token, so a
	// saturated limiter degrades to serial execution, never to deadlock.
	Limiter *Limiter
}

func (c Config) workers(n int) int {
	w := c.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

func (c Config) limiter() *Limiter {
	if c.Limiter != nil {
		return c.Limiter
	}
	return Default()
}

// runIndexed drains indices [0, n) across the calling goroutine plus up
// to workers-1 helpers and returns when every index has been processed.
// Each worker re-attempts token acquisition before every index it
// processes, so a batch that starts under a saturated limiter picks up
// parallelism as tokens free, instead of staying serial for its whole
// lifetime. The caller never needs a token (progress guarantee), and
// TryAcquire never blocks, so nesting cannot deadlock.
func runIndexed(lim *Limiter, n, workers int, body func(i int)) {
	var next atomic.Int64
	var active atomic.Int64 // live helper goroutines
	var wg sync.WaitGroup
	var loop func()
	// spawn adds one helper when under the worker budget, there is still
	// unclaimed work, and a limiter token is free. It is called by every
	// worker before each index, which both ramps the pool up at start
	// and tops it back up when tokens are released mid-batch.
	spawn := func() {
		for {
			h := active.Load()
			if int(h) >= workers-1 || int(next.Load()) >= n {
				return
			}
			if !active.CompareAndSwap(h, h+1) {
				continue
			}
			if !lim.TryAcquire() {
				active.Add(-1)
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer lim.Release()
				defer active.Add(-1)
				loop()
			}()
			return
		}
	}
	loop = func() {
		for {
			spawn()
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			body(i)
		}
	}
	loop()
	wg.Wait()
}

// Run executes jobs on the pool and returns their results in job order
// plus the lowest-index error (nil if every job succeeded). The result
// slice always has len(jobs) entries, also under cancellation and
// errors, so a report built from it has a deterministic shape: jobs not
// yet started when ctx is cancelled get Err = ctx.Err(). Run is
// fail-fast — like the serial loops it replaces, it stops dispatching
// new jobs after the first failure rather than burning hours on a
// doomed batch. Which trailing jobs get Err = ErrAborted depends on
// scheduling, but the returned error is always a real job error, never
// ErrAborted.
func Run[T any](ctx context.Context, cfg Config, jobs []Job[T]) ([]Result[T], error) {
	results := make([]Result[T], len(jobs))
	// failedAt is the lowest failing index, len(jobs) while none failed.
	// Only higher indices abort: a job claimed just before the failing
	// one may reach this check after the failure, and must still run.
	var failedAt atomic.Int64
	failedAt.Store(int64(len(jobs)))
	runIndexed(cfg.limiter(), len(jobs), cfg.workers(len(jobs)), func(i int) {
		res := &results[i]
		*res = Result[T]{Index: i, Name: jobs[i].Name, Seed: Seed(cfg.RootSeed, i)}
		if err := ctx.Err(); err != nil {
			res.Err = err
		} else if int64(i) > failedAt.Load() {
			res.Err = ErrAborted
		} else {
			// safeRun contains job panics: a panicking Run becomes a
			// *PanicError on this result instead of tearing down the
			// process hosting every other request.
			res.Value, res.Err = safeRun(func() (T, error) { return jobs[i].Run(ctx, res.Seed) })
			if res.Err != nil {
				for f := failedAt.Load(); int64(i) < f && !failedAt.CompareAndSwap(f, int64(i)); f = failedAt.Load() {
				}
			}
		}
	})
	for _, r := range results {
		if r.Err != nil {
			return results, r.Err
		}
	}
	return results, nil
}

// Values extracts the Value of every result, in index order, assuming Run
// returned without error.
func Values[T any](results []Result[T]) []T {
	vals := make([]T, len(results))
	for i, r := range results {
		vals[i] = r.Value
	}
	return vals
}
