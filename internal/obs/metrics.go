// Package obs is the daemon's production-observability layer: lock-free
// metric primitives rendered by a zero-dependency Prometheus text
// exposition (the Registry, the one metrics view), spans carried
// through context (the one timing record, exported to a tracer and
// summed onto the request-completion log line), the request-scoped
// Trace that names a request, structured leveled logging helpers over
// log/slog, and the single config layer (flags + env + file) that
// cmd/tcompd loads.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 metric. The zero value is
// ready to use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an int64 metric that can go up and down. The zero value is
// ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta and returns the new value. The return is
// what makes high-water tracking race-free: the value an Add returns is
// the gauge's exact level at that instant, unlike a separate Load that
// can interleave with other writers.
func (g *Gauge) Add(delta int64) int64 { return g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// SetMax raises the gauge to v if v is greater — an atomic
// compare-and-swap max, safe against concurrent SetMax and Set calls.
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if cur >= v || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// LabelCounter is a set of counters keyed by one label value (endpoint
// path, job event, ...). Keys are created on first use and never
// removed.
type LabelCounter struct {
	mu   sync.RWMutex
	m    map[string]*Counter
	keys []string // sorted, for deterministic output
}

// Add increments the counter under key by delta, creating it on first
// use.
func (c *LabelCounter) Add(key string, delta int64) {
	c.counter(key).Add(delta)
}

// Get returns the counter under key, or nil if the key was never added.
func (c *LabelCounter) Get(key string) *Counter {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.m[key]
}

func (c *LabelCounter) counter(key string) *Counter {
	c.mu.RLock()
	ctr := c.m[key]
	c.mu.RUnlock()
	if ctr != nil {
		return ctr
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if ctr = c.m[key]; ctr != nil {
		return ctr
	}
	if c.m == nil {
		c.m = map[string]*Counter{}
	}
	ctr = &Counter{}
	c.m[key] = ctr
	i := sort.SearchStrings(c.keys, key)
	c.keys = append(c.keys, "")
	copy(c.keys[i+1:], c.keys[i:])
	c.keys[i] = key
	return ctr
}

// Do calls f for every (key, counter) pair in sorted key order.
func (c *LabelCounter) Do(f func(key string, c *Counter)) {
	c.mu.RLock()
	keys := append([]string(nil), c.keys...)
	m := make(map[string]*Counter, len(keys))
	for _, k := range keys {
		m[k] = c.m[k]
	}
	c.mu.RUnlock()
	for _, k := range keys {
		f(k, m[k])
	}
}

// Histogram is a fixed-bucket histogram with lock-free observation:
// per-bucket atomic counters plus an atomic float64 sum (CAS on the
// bit pattern). Buckets are cumulative upper bounds in Prometheus
// style; an implicit +Inf bucket catches everything above the last
// bound.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is +Inf
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

// NewHistogram returns a histogram over the given strictly increasing
// upper bounds. It panics on unsorted bounds — bucket layout is a
// compile-time decision, not input data.
func NewHistogram(bounds ...float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not strictly increasing at %d: %v", i, bounds))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v (le semantics)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Snapshot returns the bucket upper bounds and per-bucket (non-
// cumulative) counts; the final count is the +Inf bucket.
func (h *Histogram) Snapshot() (bounds []float64, counts []int64) {
	bounds = h.bounds
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return bounds, counts
}

// HistogramVec is a set of same-bucket histograms keyed by one label
// value (endpoint path, codec name, ...).
type HistogramVec struct {
	bounds []float64
	mu     sync.RWMutex
	m      map[string]*Histogram
	keys   []string // sorted
}

// NewHistogramVec returns a labelled histogram family sharing one
// bucket layout.
func NewHistogramVec(bounds ...float64) *HistogramVec {
	return &HistogramVec{bounds: append([]float64(nil), bounds...), m: map[string]*Histogram{}}
}

// Observe records one observation under key, creating the histogram on
// first use.
func (v *HistogramVec) Observe(key string, x float64) {
	v.histogram(key).Observe(x)
}

// Get returns the histogram under key, or nil if never observed.
func (v *HistogramVec) Get(key string) *Histogram {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.m[key]
}

func (v *HistogramVec) histogram(key string) *Histogram {
	v.mu.RLock()
	h := v.m[key]
	v.mu.RUnlock()
	if h != nil {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h = v.m[key]; h != nil {
		return h
	}
	h = NewHistogram(v.bounds...)
	v.m[key] = h
	i := sort.SearchStrings(v.keys, key)
	v.keys = append(v.keys, "")
	copy(v.keys[i+1:], v.keys[i:])
	v.keys[i] = key
	return h
}

// Do calls f for every (key, histogram) pair in sorted key order.
func (v *HistogramVec) Do(f func(key string, h *Histogram)) {
	v.mu.RLock()
	keys := append([]string(nil), v.keys...)
	m := make(map[string]*Histogram, len(keys))
	for _, k := range keys {
		m[k] = v.m[k]
	}
	v.mu.RUnlock()
	for _, k := range keys {
		f(k, m[k])
	}
}

// formatFloat renders a float the shortest way that round-trips.
func formatFloat(f float64) string {
	if math.IsInf(f, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}
