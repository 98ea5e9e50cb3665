package obs

import (
	"fmt"
	"sync"
	"testing"
)

// TestGaugeSetMaxConcurrent is the regression test for the workers-peak
// lost-update race: N goroutines each push the gauge up and record the
// high-water mark via SetMax; the peak must be the true maximum of the
// values the atomic Add returned, never an under-report. Run under
// -race.
func TestGaugeSetMaxConcurrent(t *testing.T) {
	var busy, peak Gauge
	const goroutines = 64
	const iters = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				peak.SetMax(busy.Add(1))
				busy.Add(-1)
			}
		}()
	}
	wg.Wait()
	if busy.Value() != 0 {
		t.Fatalf("busy = %d after all goroutines released, want 0", busy.Value())
	}
	if p := peak.Value(); p < 1 || p > goroutines {
		t.Fatalf("peak = %d, want within [1, %d]", p, goroutines)
	}
	// SetMax never lowers the value.
	peak.SetMax(peak.Value() - 1)
	if p := peak.Value(); p < 1 {
		t.Fatalf("SetMax lowered the gauge to %d", p)
	}
}

// TestGaugeSetMaxIsMax pins the CAS loop's semantics deterministically.
func TestGaugeSetMaxIsMax(t *testing.T) {
	var g Gauge
	for _, v := range []int64{5, 3, 9, 9, 1} {
		g.SetMax(v)
	}
	if g.Value() != 9 {
		t.Fatalf("SetMax sequence ended at %d, want 9", g.Value())
	}
}

// TestHistogramBuckets pins le (less-or-equal) bucket semantics and the
// sum/count accounting.
func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(1, 2, 5)
	for _, v := range []float64{0.5, 1, 1.5, 2, 4, 100} {
		h.Observe(v)
	}
	_, counts := h.Snapshot()
	want := []int64{2, 2, 1, 1} // le=1: {0.5, 1}; le=2: {1.5, 2}; le=5: {4}; +Inf: {100}
	for i, w := range want {
		if counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, counts[i], w, counts)
		}
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if h.Sum() != 109 {
		t.Fatalf("sum = %g, want 109", h.Sum())
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines;
// the totals must balance. Run under -race.
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(10, 100)
	var wg sync.WaitGroup
	const goroutines, iters = 32, 500
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				h.Observe(float64(i % 150))
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != goroutines*iters {
		t.Fatalf("count = %d, want %d", h.Count(), goroutines*iters)
	}
	_, counts := h.Snapshot()
	total := int64(0)
	for _, c := range counts {
		total += c
	}
	if total != goroutines*iters {
		t.Fatalf("bucket total = %d, want %d", total, goroutines*iters)
	}
}

// TestLabelCounterDoSorted: Do walks keys in sorted order whatever the
// insertion order, which fixes the line order of every labelled family
// in the Prometheus exposition.
func TestLabelCounterDoSorted(t *testing.T) {
	lc := &LabelCounter{}
	lc.Add("/v1/compress", 2)
	lc.Add("/healthz", 1)
	lc.Add("/v1/compress", 1)
	lc.Add("/metrics/prometheus", 4)
	var got []string
	lc.Do(func(key string, c *Counter) { got = append(got, fmt.Sprintf("%s=%d", key, c.Value())) })
	if want := "[/healthz=1 /metrics/prometheus=4 /v1/compress=3]"; fmt.Sprint(got) != want {
		t.Fatalf("Do yielded %v, want %s", got, want)
	}
}
