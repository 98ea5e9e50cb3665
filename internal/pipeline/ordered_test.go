package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

// TestOrderedDelivery pins the core invariant: results reach the sink in
// submission order with engine-derived seeds, whatever the worker count
// or per-job latency.
func TestOrderedDelivery(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var got []Result[int]
			o := NewOrdered(context.Background(), Config{Workers: workers, RootSeed: 99},
				func(r Result[int]) error {
					got = append(got, r)
					return nil
				})
			const n = 50
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < n; i++ {
				i := i
				delay := time.Duration(rng.Intn(300)) * time.Microsecond
				if err := o.Submit(fmt.Sprintf("job %d", i), func(ctx context.Context, seed int64) (int, error) {
					time.Sleep(delay)
					return i * 10, nil
				}); err != nil {
					t.Fatalf("Submit %d: %v", i, err)
				}
			}
			if err := o.Close(); err != nil {
				t.Fatal(err)
			}
			if len(got) != n {
				t.Fatalf("delivered %d results, want %d", len(got), n)
			}
			for i, r := range got {
				if r.Index != i || r.Value != i*10 {
					t.Fatalf("result %d out of order: %+v", i, r)
				}
				if r.Seed != Seed(99, i) {
					t.Fatalf("result %d has seed %d, want engine derivation %d", i, r.Seed, Seed(99, i))
				}
			}
		})
	}
}

// TestOrderedJobError checks that a failing job surfaces from Submit
// (eventually) and Close, and that delivery stops at the failing index:
// results past it are dropped, exactly like Run stops after a failure.
func TestOrderedJobError(t *testing.T) {
	boom := errors.New("boom")
	var delivered atomic.Int64
	o := NewOrdered(context.Background(), Config{Workers: 2},
		func(r Result[int]) error {
			if r.Err != nil {
				return r.Err
			}
			delivered.Add(1)
			return nil
		})
	for i := 0; i < 100; i++ {
		i := i
		err := o.Submit("job", func(ctx context.Context, seed int64) (int, error) {
			if i == 3 {
				return 0, boom
			}
			return i, nil
		})
		if err != nil {
			break
		}
	}
	if err := o.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close returned %v, want boom", err)
	}
	if delivered.Load() != 3 {
		t.Fatalf("delivered %d successful results, want exactly 3 (indices 0..2)", delivered.Load())
	}
}

// TestOrderedSinkError checks that a sink failure propagates and stops
// further delivery.
func TestOrderedSinkError(t *testing.T) {
	bad := errors.New("sink full")
	calls := 0
	o := NewOrdered(context.Background(), Config{Workers: 4},
		func(r Result[int]) error {
			calls++
			if r.Index == 2 {
				return bad
			}
			if r.Index > 2 {
				t.Fatalf("sink called for index %d after failing at 2", r.Index)
			}
			return nil
		})
	for i := 0; i < 20; i++ {
		if err := o.Submit("job", func(ctx context.Context, seed int64) (int, error) {
			return 0, nil
		}); err != nil {
			break
		}
	}
	if err := o.Close(); !errors.Is(err, bad) {
		t.Fatalf("Close returned %v, want sink error", err)
	}
	if calls < 3 {
		t.Fatalf("sink called %d times, want at least 3", calls)
	}
}

// TestOrderedCancellation checks that context cancellation unblocks the
// producer and surfaces from Close.
func TestOrderedCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	o := NewOrdered(ctx, Config{Workers: 2}, func(r Result[int]) error {
		if r.Err != nil {
			return r.Err
		}
		return nil
	})
	cancel()
	var err error
	for i := 0; i < 100 && err == nil; i++ {
		err = o.Submit("job", func(ctx context.Context, seed int64) (int, error) {
			<-ctx.Done()
			return 0, ctx.Err()
		})
	}
	if cerr := o.Close(); cerr == nil {
		t.Fatal("Close returned nil after cancellation")
	}
}

// TestOrderedSubmitAfterClose pins the misuse error.
func TestOrderedSubmitAfterClose(t *testing.T) {
	o := NewOrdered(context.Background(), Config{Workers: 1}, func(Result[int]) error { return nil })
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	if err := o.Submit("late", func(ctx context.Context, seed int64) (int, error) { return 0, nil }); err == nil {
		t.Fatal("Submit after Close accepted")
	}
	if err := o.Close(); err != nil {
		t.Fatal("Close is not idempotent")
	}
}
