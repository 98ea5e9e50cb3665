package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSeedDependsOnlyOnRootAndIndex(t *testing.T) {
	if Seed(1, 0) != Seed(1, 0) {
		t.Fatal("Seed is not a pure function")
	}
	seen := map[int64]string{}
	for root := int64(0); root < 4; root++ {
		for idx := 0; idx < 64; idx++ {
			s := Seed(root, idx)
			key := fmt.Sprintf("root=%d idx=%d", root, idx)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: %s and %s both give %d", prev, key, s)
			}
			seen[s] = key
		}
	}
}

// jobSet builds n jobs whose value is a function of the derived seed
// only, so any scheduling nondeterminism would show up as a value change.
func jobSet(n int) []Job[uint64] {
	jobs := make([]Job[uint64], n)
	for i := range jobs {
		jobs[i] = Job[uint64]{
			Name: fmt.Sprintf("job%d", i),
			Run: func(_ context.Context, seed int64) (uint64, error) {
				r := rand.New(rand.NewSource(seed))
				v := uint64(0)
				for k := 0; k < 100; k++ {
					v = v*31 + uint64(r.Intn(1000))
				}
				return v, nil
			},
		}
	}
	return jobs
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	jobs := jobSet(50)
	serial, err := Run(context.Background(), Config{Workers: 1, RootSeed: 42}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		par, err := Run(context.Background(), Config{Workers: workers, RootSeed: 42}, jobs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("results with %d workers differ from serial run", workers)
		}
	}
}

func TestRunRootSeedChangesResults(t *testing.T) {
	jobs := jobSet(8)
	a, _ := Run(context.Background(), Config{RootSeed: 1}, jobs)
	b, _ := Run(context.Background(), Config{RootSeed: 2}, jobs)
	if reflect.DeepEqual(Values(a), Values(b)) {
		t.Fatal("different root seeds produced identical values")
	}
}

func TestRunReturnsLowestIndexError(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	jobs := []Job[int]{
		{Name: "ok", Run: func(context.Context, int64) (int, error) { return 1, nil }},
		{Name: "low", Run: func(context.Context, int64) (int, error) { return 0, errLow }},
		{Name: "high", Run: func(context.Context, int64) (int, error) { return 0, errHigh }},
	}
	results, err := Run(context.Background(), Config{Workers: 3}, jobs)
	if !errors.Is(err, errLow) {
		t.Fatalf("want lowest-index error %v, got %v", errLow, err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("want %d results even with errors, got %d", len(jobs), len(results))
	}
	if results[0].Err != nil || results[0].Value != 1 {
		t.Fatalf("successful job not reported: %+v", results[0])
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	jobs := make([]Job[int], 100)
	for i := range jobs {
		jobs[i] = Job[int]{Run: func(ctx context.Context, _ int64) (int, error) {
			once.Do(func() { close(started) })
			<-ctx.Done()
			return 0, ctx.Err()
		}}
	}
	go func() {
		<-started
		cancel()
	}()
	results, err := Run(ctx, Config{Workers: 2}, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("cancelled run must still report all %d jobs, got %d", len(jobs), len(results))
	}
	skipped := 0
	for _, r := range results {
		if errors.Is(r.Err, context.Canceled) {
			skipped++
		}
	}
	if skipped == 0 {
		t.Fatal("expected at least one job to observe cancellation")
	}
}

func TestRunFailFastAbortsTrailingJobs(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int32
	jobs := make([]Job[int], 50)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{Run: func(context.Context, int64) (int, error) {
			ran.Add(1)
			if i == 0 {
				return 0, boom
			}
			return i, nil
		}}
	}
	results, err := Run(context.Background(), Config{Workers: 1}, jobs)
	if !errors.Is(err, boom) {
		t.Fatalf("want real job error, got %v", err)
	}
	if n := ran.Load(); n != 1 {
		t.Fatalf("fail-fast serial run executed %d jobs, want 1", n)
	}
	aborted := 0
	for _, r := range results[1:] {
		if errors.Is(r.Err, ErrAborted) {
			aborted++
		}
	}
	if aborted != len(jobs)-1 {
		t.Fatalf("%d trailing jobs aborted, want %d", aborted, len(jobs)-1)
	}
}

// TestPoolPicksUpFreedTokens asserts a batch started under a saturated
// limiter gains parallelism once tokens free up mid-batch, instead of
// staying serial for its whole lifetime. The batch starts serial because
// the test holds the only token; job 10 releases it. Each later job then
// waits at a rendezvous that opens only when two jobs run at once, which
// needs a helper spawned on the freed token. The deadline fails the test
// instead of hanging it; nothing sleeps.
func TestPoolPicksUpFreedTokens(t *testing.T) {
	lim := NewLimiter(1)
	if !lim.TryAcquire() {
		t.Fatal("setup")
	}
	deadline := time.After(10 * time.Second)
	joined := make(chan struct{})
	var running atomic.Int32
	var joinOnce sync.Once
	var timedOut atomic.Bool
	jobs := make([]Job[int], 40)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{Run: func(context.Context, int64) (int, error) {
			switch {
			case i == 10:
				lim.Release() // frees the only token while the batch is running
			case i > 10:
				if running.Add(1) == 2 {
					joinOnce.Do(func() { close(joined) })
				}
				defer running.Add(-1)
				if !timedOut.Load() {
					select {
					case <-joined:
					case <-deadline:
						timedOut.Store(true)
					}
				}
			}
			return i, nil
		}}
	}
	if _, err := Run(context.Background(), Config{Workers: 4, Limiter: lim}, jobs); err != nil {
		t.Fatal(err)
	}
	if timedOut.Load() {
		t.Fatal("pool never re-acquired the freed limiter token")
	}
}

func TestRunEmptyJobList(t *testing.T) {
	results, err := Run[int](context.Background(), Config{}, nil)
	if err != nil || len(results) != 0 {
		t.Fatalf("empty job list: results=%v err=%v", results, err)
	}
}

func TestResultsCarryDerivedSeeds(t *testing.T) {
	jobs := jobSet(5)
	results, err := Run(context.Background(), Config{RootSeed: 7}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Index != i {
			t.Fatalf("results not index-sorted: pos %d has index %d", i, r.Index)
		}
		if r.Seed != Seed(7, i) {
			t.Fatalf("job %d got seed %d, want %d", i, r.Seed, Seed(7, i))
		}
		if r.Name != fmt.Sprintf("job%d", i) {
			t.Fatalf("job %d name %q", i, r.Name)
		}
	}
}

// TestNestedEngineRuns composes the engine with itself through one shared
// limiter: outer jobs each run an inner batch. Everything must complete
// and stay deterministic.
func TestNestedEngineRuns(t *testing.T) {
	lim := NewLimiter(3)
	outer := make([]Job[[]uint64], 6)
	for i := range outer {
		outer[i] = Job[[]uint64]{
			Name: fmt.Sprintf("outer%d", i),
			Run: func(ctx context.Context, seed int64) ([]uint64, error) {
				inner, err := Run(ctx, Config{RootSeed: seed, Limiter: lim}, jobSet(10))
				if err != nil {
					return nil, err
				}
				return Values(inner), nil
			},
		}
	}
	a, err := Run(context.Background(), Config{Workers: 6, RootSeed: 5, Limiter: lim}, outer)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), Config{Workers: 1, RootSeed: 5, Limiter: lim}, outer)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("nested engine runs not deterministic across worker counts")
	}
}

func TestLimiterBounds(t *testing.T) {
	lim := NewLimiter(2)
	if lim.Cap() != 2 {
		t.Fatalf("cap = %d", lim.Cap())
	}
	if !lim.TryAcquire() || !lim.TryAcquire() {
		t.Fatal("fresh limiter refused tokens")
	}
	if lim.TryAcquire() {
		t.Fatal("limiter exceeded capacity")
	}
	lim.Release()
	if !lim.TryAcquire() {
		t.Fatal("released token not reusable")
	}
	if NewLimiter(0).Cap() != 1 {
		t.Fatal("limiter capacity must clamp to >= 1")
	}
}

func BenchmarkEngineOverhead(b *testing.B) {
	jobs := make([]Job[int], 256)
	for i := range jobs {
		jobs[i] = Job[int]{Run: func(context.Context, int64) (int, error) { return 0, nil }}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), Config{}, jobs); err != nil {
			b.Fatal(err)
		}
	}
}
