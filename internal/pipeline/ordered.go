package pipeline

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/obs"
)

// Ordered is the engine's incremental counterpart to Run: jobs are
// submitted one at a time (the full job list need not exist up front, so
// a producer reading from a pipe can feed it), run on a bounded worker
// pool, and delivered to a single sink callback strictly in submission
// order — the same deterministic index-ordered aggregation the batch
// engine guarantees, without materializing the batch.
//
// Backpressure is structural: at most window results are in flight, so a
// fast producer over a slow sink (or one slow job) holds O(window) job
// inputs and outputs in memory, never the whole stream. Seeds derive from
// (RootSeed, submission index) exactly as in Run, so a parallel run is
// byte-identical to a serial one.
type Ordered[T any] struct {
	ctx     context.Context
	cfg     Config
	sink    func(Result[T]) error
	queue   chan *orderedSlot[T] // FIFO of submitted, possibly unfinished slots
	workers chan struct{}        // worker-pool tokens
	drained chan struct{}        // collector exit
	next    int                  // submission index
	mu      sync.Mutex
	err     error // first sink/job error, sticky
	closed  bool
}

type orderedSlot[T any] struct {
	done chan struct{}
	res  Result[T]
}

// NewOrdered starts the collector for an ordered run. cfg.Workers bounds
// concurrent jobs (<=0 = GOMAXPROCS); the in-flight window is twice that,
// so workers stay busy while the head-of-line job finishes. sink is
// called from a single goroutine, in submission order, for every
// submitted job — also for failed ones, with Result.Err set. A sink error
// stops delivery (subsequent results are dropped) and surfaces from
// Submit and Close.
func NewOrdered[T any](ctx context.Context, cfg Config, sink func(Result[T]) error) *Ordered[T] {
	workers := cfg.workers(1 << 30) // no job-count clamp: the count is unknown
	o := &Ordered[T]{
		ctx:     ctx,
		cfg:     cfg,
		sink:    sink,
		queue:   make(chan *orderedSlot[T], 2*workers),
		workers: make(chan struct{}, workers),
		drained: make(chan struct{}),
	}
	go o.collect()
	return o
}

func (o *Ordered[T]) collect() {
	defer close(o.drained)
	for s := range o.queue {
		<-s.done
		o.mu.Lock()
		failed := o.err
		if failed == nil && s.res.Err != nil {
			o.err = s.res.Err
		}
		o.mu.Unlock()
		if failed != nil {
			continue // sink already errored: drain without delivering
		}
		if err := o.sink(s.res); err != nil {
			o.mu.Lock()
			if o.err == nil {
				o.err = err
			}
			o.mu.Unlock()
		}
	}
}

// Err returns the first job or sink error observed so far.
func (o *Ordered[T]) Err() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.err
}

// Submit schedules one job. It blocks while the in-flight window is full
// (backpressure) and returns early with the sticky error once any job or
// the sink has failed, so a producer stops promptly instead of pumping a
// doomed stream. Submit and Close must be called from one goroutine (the
// producer); results are delivered concurrently by the collector.
func (o *Ordered[T]) Submit(name string, run func(ctx context.Context, seed int64) (T, error)) error {
	if o.closed {
		return fmt.Errorf("pipeline: Submit on closed Ordered run")
	}
	if err := o.Err(); err != nil {
		return err
	}
	s := &orderedSlot[T]{done: make(chan struct{})}
	s.res = Result[T]{Index: o.next, Name: name, Seed: Seed(o.cfg.RootSeed, o.next)}
	select {
	case o.queue <- s: // reserve the delivery slot (blocks when window is full)
		o.next++
	case <-o.ctx.Done():
		// Record the cancellation in the sticky error: this bail-out
		// creates no slot, so the collector would otherwise never see
		// it and Close could report success for an aborted stream.
		err := o.ctx.Err()
		o.mu.Lock()
		if o.err == nil {
			o.err = err
		}
		o.mu.Unlock()
		return err
	}
	select {
	case o.workers <- struct{}{}:
	case <-o.ctx.Done():
		s.res.Err = o.ctx.Err()
		close(s.done)
		return s.res.Err
	}
	go func() {
		defer func() { <-o.workers }()
		defer close(s.done)
		if err := o.ctx.Err(); err != nil {
			s.res.Err = err
			return
		}
		// Each worker job is a span named after the job.
		sctx, sp := obs.StartSpan(o.ctx, s.res.Name)
		// safeRun contains job panics so one poisoned chunk surfaces as
		// this slot's error instead of killing the whole process.
		s.res.Value, s.res.Err = safeRun(func() (T, error) { return run(sctx, s.res.Seed) })
		sp.SetError(s.res.Err)
		sp.End()
	}()
	return nil
}

// Close waits for every submitted job to finish and be delivered, then
// returns the first error (job, sink, or context). Close is idempotent.
// Delivery of already-submitted results runs to completion: a sink
// blocked inside an uninterruptible Write (a stalled pipe) holds Close
// until that Write returns — cancel the consumer, not just the context.
func (o *Ordered[T]) Close() error {
	if !o.closed {
		o.closed = true
		close(o.queue)
	}
	<-o.drained
	return o.Err()
}
