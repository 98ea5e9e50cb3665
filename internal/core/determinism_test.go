package core

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/iscasgen"
	"repro/internal/obs"
	"repro/internal/testset"
)

// TestSweepDeterministicAcrossWorkers is the engine's non-negotiable
// invariant at the application level: the (K,L) sweep with 8 workers is
// bit-for-bit identical to the 1-worker run at the same root seed.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	r := rand.New(rand.NewSource(91))
	ts := testset.Random(12, 40, 0.3, r)
	base := DefaultParams(17)
	base.Runs = 1
	base.EA.MaxGenerations = 15
	base.EA.MaxNoImprove = 8

	ks, ls := []int{4, 6, 8}, []int{8, 16}
	serialPts, serialBest, err := SweepCtx(context.Background(), ts, base, ks, ls, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		pts, best, err := SweepCtx(context.Background(), ts, base, ks, ls, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serialPts, pts) {
			t.Fatalf("sweep points with %d workers differ from serial:\n%v\nvs\n%v", workers, pts, serialPts)
		}
		if serialBest != best {
			t.Fatalf("sweep best with %d workers %v differs from serial %v", workers, best, serialBest)
		}
	}
}

// TestCompressDeterministicAcrossWorkers checks the same invariant for
// the multi-run EA: run outcomes, the float aggregation, and the final
// encoded stream must not depend on the worker count.
func TestCompressDeterministicAcrossWorkers(t *testing.T) {
	r := rand.New(rand.NewSource(93))
	ts := testset.Random(16, 50, 0.3, r)
	p := DefaultParams(23)
	p.Runs = 4
	p.EA.MaxGenerations = 15
	p.EA.MaxNoImprove = 8

	p.Workers = 1
	serial, err := CompressCtx(context.Background(), ts, p)
	if err != nil {
		t.Fatal(err)
	}
	p.Workers = 8
	parallel, err := CompressCtx(context.Background(), ts, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Runs, parallel.Runs) {
		t.Fatal("per-run outcomes differ between 1 and 8 workers")
	}
	if serial.AverageRate != parallel.AverageRate || serial.BestRate != parallel.BestRate {
		t.Fatalf("aggregates differ: serial (%v, %v) vs parallel (%v, %v)",
			serial.AverageRate, serial.BestRate, parallel.AverageRate, parallel.BestRate)
	}
	if !reflect.DeepEqual(serial.Final, parallel.Final) {
		t.Fatal("final encoded result differs between 1 and 8 workers")
	}
}

// TestCompressCancelled verifies that a pre-cancelled context aborts the
// pipeline instead of running the EA.
func TestCompressCancelled(t *testing.T) {
	r := rand.New(rand.NewSource(95))
	ts := testset.Random(12, 30, 0.3, r)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CompressCtx(ctx, ts, DefaultParams(1)); err == nil {
		t.Fatal("cancelled CompressCtx returned nil error")
	}
}

// compressWith runs a short four-run compression at the given worker
// count.
func compressWith(t *testing.T, ts *testset.TestSet, workers int) *Result {
	t.Helper()
	p := DefaultParams(13)
	p.Runs = 4
	p.EA.MaxGenerations = 40
	p.EA.MaxNoImprove = 40
	p.Workers = workers
	res, err := CompressCtx(context.Background(), ts, p)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDeterministicGivenSeed: two compressions with the same parameters,
// runs in parallel, agree in every run outcome and in the final encoding.
func TestDeterministicGivenSeed(t *testing.T) {
	ts := testset.Random(12, 40, 0.3, rand.New(rand.NewSource(97)))
	a, b := compressWith(t, ts, 4), compressWith(t, ts, 4)
	if !reflect.DeepEqual(a.Runs, b.Runs) || !reflect.DeepEqual(a.Final, b.Final) {
		t.Fatal("identical compressions differ")
	}
}

// TestWorkerCountDoesNotPerturbResults: the default, tiny and oversized
// worker counts give the serial compression.
func TestWorkerCountDoesNotPerturbResults(t *testing.T) {
	ts := testset.Random(12, 40, 0.3, rand.New(rand.NewSource(99)))
	want := compressWith(t, ts, 1)
	for _, workers := range []int{0, 2, 64} {
		got := compressWith(t, ts, workers)
		if !reflect.DeepEqual(got.Runs, want.Runs) || !reflect.DeepEqual(got.Final, want.Final) {
			t.Fatalf("workers=%d diverged from the serial compression", workers)
		}
	}
}

// spanRecorder is a SpanExporter that keeps every finished span.
type spanRecorder struct {
	mu    sync.Mutex
	spans []obs.SpanData
}

func (r *spanRecorder) ExportSpans(spans []obs.SpanData) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, spans...)
	return nil
}

func (r *spanRecorder) Shutdown(context.Context) error { return nil }

// TestCompressSpansDoNotGrowWithGenerations: a traced compression
// exports as many spans at the paper's stop rule as at five generations
// a run, so no EA generation opens a span.
func TestCompressSpansDoNotGrowWithGenerations(t *testing.T) {
	m, err := iscasgen.Find("s420", iscasgen.StuckAt)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := iscasgen.Generate(m, iscasgen.GenOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	traced := func(p Params) (spans, generations int) {
		rec := &spanRecorder{}
		ctx, root := obs.NewTracer(rec, 1).StartRoot(context.Background(), "compress", nil)
		res, err := CompressCtx(ctx, ts, p)
		root.End()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Runs {
			generations += r.Generations
		}
		return len(rec.spans), generations
	}
	short := DefaultParams(1)
	short.EA.MaxGenerations = 5
	short.EA.MaxNoImprove = 0
	fewSpans, fewGens := traced(short)
	spans, gens := traced(DefaultParams(1))
	if gens <= fewGens {
		t.Fatalf("the default compression ran %d generations, no more than the short one's %d", gens, fewGens)
	}
	if spans != fewSpans {
		t.Fatalf("%d spans exported for %d generations, %d for %d", spans, gens, fewSpans, fewGens)
	}
}
