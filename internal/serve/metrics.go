package serve

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Metrics is the daemon's counter set, built on the lock-free obs
// primitives and registered by reference in a private Prometheus
// text-exposition registry — the one metrics view, served at
// GET /metrics/prometheus. The registry is per Server rather than
// process-global, so every httptest instance in the test suite gets an
// independent namespace.
type Metrics struct {
	prom *obs.Registry

	// Requests counts completed requests per endpoint path.
	Requests *obs.LabelCounter
	// Latency is the per-endpoint request-duration histogram (seconds).
	Latency *obs.HistogramVec
	// InFlight is the number of requests currently being served.
	InFlight *obs.Gauge
	// WorkersBusy is the number of requests currently holding a token of
	// the shared worker budget; WorkersPeak is its high-water mark,
	// maintained with an atomic compare-and-swap max (the historical
	// check-then-set under a mutex could under-report the peak when the
	// busy reading raced a concurrent release).
	WorkersBusy *obs.Gauge
	WorkersPeak *obs.Gauge
	// BytesIn / BytesOut count request-body bytes consumed and
	// response-body bytes produced by the compress/decompress endpoints.
	BytesIn  *obs.Counter
	BytesOut *obs.Counter
	// CacheHits / CacheMisses count result-cache lookups on /v1/compress;
	// CacheEvictions counts entries the LRU budget pushed out. The
	// registry also exposes tcompd_cache_hit_ratio, a gauge computed from
	// the two lookup counters (0 until the first lookup).
	CacheHits      *obs.Counter
	CacheMisses    *obs.Counter
	CacheEvictions *obs.Counter
	// Jobs counts async job lifecycle events: submitted, done, failed,
	// cancelled, and queue_full rejections.
	Jobs *obs.LabelCounter
	// RejectedIDs counts client-supplied X-Request-Id headers that
	// SanitizeRequestID refused (control characters, quotes, over-long).
	// A non-zero rate means a client is malformed or probing the logs.
	RejectedIDs *obs.Counter
	// Errors counts requests that ended in a non-2xx status.
	Errors *obs.Counter
	// Panics counts panics contained by the request middleware — each is
	// a bug that degraded one request instead of killing the daemon.
	// Alert on this: it should stay at zero.
	Panics *obs.Counter

	// Rates holds the per-codec compression-rate histograms (paper-style
	// rate percent; the first bucket collects runs where the coded
	// stream grew past the original).
	Rates *obs.HistogramVec

	// FlowStages holds the per-stage wall-clock histograms of flow jobs
	// (atpg, race, compress, emit-verilog).
	FlowStages *obs.HistogramVec
	// flowCoverage is the coverage percent of the most recent flow
	// test-generation stage, stored as float64 bits for the
	// tcompd_flow_coverage_percent gauge.
	flowCoverage atomic.Uint64
}

// latencyBuckets are the request-duration histogram bounds in seconds:
// sub-millisecond health probes up through multi-minute giant-set
// compressions.
var latencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// rateBuckets are the compression-rate histogram bounds in rate
// percent, following the paper's definition 100·(orig−comp)/orig: the
// <=0 bucket collects runs where the coded stream grew, then ten-point
// decades up to 100.
var rateBuckets = []float64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}

func newMetrics(tracer *obs.Tracer) *Metrics {
	m := &Metrics{
		Requests:       &obs.LabelCounter{},
		Latency:        obs.NewHistogramVec(latencyBuckets...),
		InFlight:       &obs.Gauge{},
		WorkersBusy:    &obs.Gauge{},
		WorkersPeak:    &obs.Gauge{},
		BytesIn:        &obs.Counter{},
		BytesOut:       &obs.Counter{},
		CacheHits:      &obs.Counter{},
		CacheMisses:    &obs.Counter{},
		CacheEvictions: &obs.Counter{},
		Jobs:           &obs.LabelCounter{},
		RejectedIDs:    &obs.Counter{},
		Errors:         &obs.Counter{},
		Panics:         &obs.Counter{},
		Rates:          obs.NewHistogramVec(rateBuckets...),
		FlowStages:     obs.NewHistogramVec(latencyBuckets...),
	}
	hitRatio := func() float64 {
		hits, misses := m.CacheHits.Value(), m.CacheMisses.Value()
		if hits+misses == 0 {
			return 0.0
		}
		return float64(hits) / float64(hits+misses)
	}

	// Names follow the exposition conventions: _total counters,
	// base-unit seconds. TestMetricFamiliesInREADME fails when a family
	// is missing from the README's metric table.
	p := obs.NewRegistry()
	p.CounterVec("tcompd_requests_total", "Completed requests per endpoint path.", "path", m.Requests)
	p.HistogramVec("tcompd_request_duration_seconds", "Request latency per endpoint path.", "path", m.Latency)
	p.Gauge("tcompd_in_flight_requests", "Requests currently being served.", m.InFlight)
	p.Gauge("tcompd_workers_busy", "Requests currently holding a shared worker token.", m.WorkersBusy)
	p.Gauge("tcompd_workers_peak", "High-water mark of concurrently held worker tokens.", m.WorkersPeak)
	p.Counter("tcompd_bytes_in_total", "Request-body bytes consumed.", m.BytesIn)
	p.Counter("tcompd_bytes_out_total", "Response-body bytes produced.", m.BytesOut)
	p.Counter("tcompd_cache_hits_total", "Result-cache hits.", m.CacheHits)
	p.Counter("tcompd_cache_misses_total", "Result-cache misses.", m.CacheMisses)
	p.Counter("tcompd_cache_evictions_total", "Result-cache LRU evictions.", m.CacheEvictions)
	p.GaugeFunc("tcompd_cache_hit_ratio", "Cache hits over lookups (0 until the first lookup).", hitRatio)
	p.CounterVec("tcompd_jobs_total", "Async job lifecycle events.", "event", m.Jobs)
	p.Counter("tcompd_rejected_request_ids_total", "Client-supplied X-Request-Id headers refused by sanitization.", m.RejectedIDs)
	p.Counter("tcompd_errors_total", "Requests answered with a non-2xx status.", m.Errors)
	p.Counter("tcompd_panics_total", "Panics contained by the request middleware.", m.Panics)
	p.HistogramVec("tcompd_compression_rate_percent", "Compression rate per codec, paper-style percent.", "codec", m.Rates)
	p.HistogramVec("tcompd_flow_stage_seconds", "Flow job stage wall-clock per stage (atpg, race, compress, emit-verilog).", "stage", m.FlowStages)
	p.GaugeFunc("tcompd_flow_coverage_percent", "Coverage percent of the most recent flow test-generation stage.", m.FlowCoverage)

	// Runtime telemetry: scheduler and heap gauges every perf claim
	// leans on, sampled through a short-TTL memoizer because
	// ReadMemStats stops the world.
	rt := &runtimeSampler{}
	p.GaugeFunc("tcompd_goroutines", "Live goroutines.", func() float64 {
		return float64(runtime.NumGoroutine())
	})
	p.GaugeFunc("tcompd_heap_alloc_bytes", "Bytes of allocated heap objects.", func() float64 {
		return float64(rt.stats().HeapAlloc)
	})
	p.GaugeFunc("tcompd_heap_objects", "Allocated heap objects.", func() float64 {
		return float64(rt.stats().HeapObjects)
	})
	p.GaugeFunc("tcompd_next_gc_bytes", "Heap size that triggers the next GC cycle.", func() float64 {
		return float64(rt.stats().NextGC)
	})
	p.CounterFunc("tcompd_gc_cycles_total", "Completed GC cycles.", func() float64 {
		return float64(rt.stats().NumGC)
	})

	// Exporter accounting, when the tracer's exporter keeps any (the
	// OTLP exporter's bounded queue): saturation and span loss must be
	// visible before traces silently thin out.
	if st, ok := tracer.ExporterStats(); ok {
		p.GaugeFunc("tcompd_trace_export_queue_depth", "Spans waiting in the trace exporter queue.", func() float64 {
			return float64(st.QueueDepth())
		})
		p.CounterFunc("tcompd_trace_spans_exported_total", "Spans delivered to the trace collector.", func() float64 {
			return float64(st.Exported())
		})
		p.CounterFunc("tcompd_trace_spans_dropped_total", "Spans lost to a full exporter queue or exhausted retries.", func() float64 {
			return float64(st.Dropped())
		})
	}
	m.prom = p
	return m
}

// runtimeSampler memoizes runtime.ReadMemStats for a second: a scrape
// reads several heap gauges per pass, and ReadMemStats stops the world
// each call.
type runtimeSampler struct {
	mu   sync.Mutex
	at   time.Time
	mem  runtime.MemStats
	init bool
}

func (r *runtimeSampler) stats() runtime.MemStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.init || time.Since(r.at) > time.Second {
		runtime.ReadMemStats(&r.mem)
		r.at = time.Now()
		r.init = true
	}
	return r.mem
}

// ObserveRate records one compression run's paper-style rate (percent)
// under the codec's histogram, creating it on first use.
func (m *Metrics) ObserveRate(codec string, rate float64) {
	m.Rates.Observe(codec, rate)
}

// ObserveFlowStage records one flow stage's wall-clock seconds.
func (m *Metrics) ObserveFlowStage(stage string, seconds float64) {
	m.FlowStages.Observe(stage, seconds)
}

// SetFlowCoverage publishes the coverage percent of a flow's completed
// test-generation stage.
func (m *Metrics) SetFlowCoverage(percent float64) {
	m.flowCoverage.Store(math.Float64bits(percent))
}

// FlowCoverage returns the most recently published flow coverage.
func (m *Metrics) FlowCoverage() float64 {
	return math.Float64frombits(m.flowCoverage.Load())
}

// noteWorker tracks the shared-budget occupancy and its high-water
// mark. The atomic Add returns the exact occupancy this caller created,
// and SetMax folds it into the peak with a CAS loop — no window for a
// concurrent release to make the peak under-report.
func (m *Metrics) noteWorker(delta int64) {
	busy := m.WorkersBusy.Add(delta)
	if delta > 0 {
		m.WorkersPeak.SetMax(busy)
	}
}

// Prometheus returns the text-exposition registry (served at
// GET /metrics/prometheus).
func (m *Metrics) Prometheus() *obs.Registry { return m.prom }
