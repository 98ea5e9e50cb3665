package pipeline

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// TestStreamContainsJobPanic pins the crash-containment contract: a job
// that panics on a worker goroutine becomes that job's error carrying
// the panic value and stack — the process, and the jobs dispatched
// before it, survive.
func TestStreamContainsJobPanic(t *testing.T) {
	jobs := make([]Job[int], 8)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{Name: "job", Run: func(ctx context.Context, seed int64) (int, error) {
			if i == 3 {
				panic("poisoned input")
			}
			return i, nil
		}}
	}
	results, _ := Run(context.Background(), Config{Workers: 4}, jobs)
	if len(results) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(results), len(jobs))
	}
	for _, r := range results {
		switch {
		case r.Index == 3:
			if !errors.Is(r.Err, ErrPanic) {
				t.Fatalf("panicked job err=%v, want ErrPanic", r.Err)
			}
			var pe *PanicError
			if !errors.As(r.Err, &pe) {
				t.Fatalf("panicked job err=%T, want *PanicError", r.Err)
			}
			if pe.Value != "poisoned input" {
				t.Fatalf("panic value %v", pe.Value)
			}
			if !bytes.Contains(pe.Stack, []byte("goroutine")) {
				t.Fatalf("stack not captured: %q", pe.Stack)
			}
		case r.Index < 3:
			if r.Err != nil || r.Value != r.Index {
				t.Fatalf("job %d value=%d err=%v, want %d, nil", r.Index, r.Value, r.Err, r.Index)
			}
		default:
			// Trailing jobs either ran or were aborted by fail-fast.
			if r.Err != nil && !errors.Is(r.Err, ErrAborted) {
				t.Fatalf("job %d err=%v, want nil or ErrAborted", r.Index, r.Err)
			}
		}
	}
}

// TestRunSurfacesPanicAsError checks the fail-fast path: Run reports the
// panic like any other job error.
func TestRunSurfacesPanicAsError(t *testing.T) {
	jobs := []Job[int]{{Name: "boom", Run: func(ctx context.Context, seed int64) (int, error) {
		panic(42)
	}}}
	_, err := Run(context.Background(), Config{}, jobs)
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("err=%v, want ErrPanic", err)
	}
}

// TestOrderedContainsJobPanic: the incremental executor delivers a
// panicking job's slot with a *PanicError and keeps the sticky error so
// the producer stops pumping a doomed stream.
func TestOrderedContainsJobPanic(t *testing.T) {
	var delivered atomic.Int64
	var panicErr error
	o := NewOrdered(context.Background(), Config{Workers: 2}, func(r Result[int]) error {
		delivered.Add(1)
		if r.Err != nil {
			panicErr = r.Err
		}
		return nil
	})
	for i := 0; i < 4; i++ {
		i := i
		err := o.Submit("job", func(ctx context.Context, seed int64) (int, error) {
			if i == 1 {
				panic("mid-stream corruption")
			}
			return i, nil
		})
		if err != nil {
			break // sticky panic error surfaced early: acceptable
		}
	}
	if err := o.Close(); !errors.Is(err, ErrPanic) {
		t.Fatalf("Close err=%v, want ErrPanic", err)
	}
	if panicErr != nil && !errors.Is(panicErr, ErrPanic) {
		t.Fatalf("delivered err=%v, want ErrPanic", panicErr)
	}
}
