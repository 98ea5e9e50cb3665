// Package serve is the network face of the compression engine: a
// long-running HTTP service (cmd/tcompd) that multiplexes many clients
// over the codec registry, the streaming container, and the pipeline
// worker pool.
//
// Endpoints:
//
//	POST /v1/compress    textual patterns (or binary test set) in,
//	                     container out; ?codec= selects the scheme and
//	                     the remaining query parameters map onto the
//	                     functional options (see GET /v1/codecs).
//	                     ?format=v3 (default) answers a chunked
//	                     container, ?format=v2 the universal one.
//	POST /v1/decompress  container of any version in, textual patterns
//	                     out ("width count" for v1/v2, "width *" for
//	                     v3).
//	GET  /v1/codecs      registry listing with per-codec param schema.
//	POST /v1/jobs        async submission: the body is stored in the
//	                     content-addressed artifact store and the work
//	                     runs as a background job; answers 202 with the
//	                     job record. ?kind= selects compress (default),
//	                     decompress, or sweep; the remaining query
//	                     parameters mirror /v1/compress.
//	GET  /v1/jobs        job listing.
//	GET  /v1/jobs/{id}   one job record (state, progress, stats).
//	GET  /v1/jobs/{id}/result  the finished job's artifact bytes.
//	DELETE /v1/jobs/{id} cancel an active job / remove a terminal one.
//	POST /v1/flows       async hardware-test flow: the body is a .bench
//	                     netlist (or empty with ?benchmark= naming a
//	                     registry circuit to generate); the flow runs
//	                     ATPG, races every codec on a sampled prefix,
//	                     compresses the full set with the winner, and
//	                     synthesizes the Verilog decoder. Answers 202
//	                     with the job record.
//	GET  /v1/flows       flow job listing.
//	GET  /v1/flows/{id}  one flow record.
//	GET  /v1/flows/{id}/result          the JSON flow report.
//	GET  /v1/flows/{id}/artifacts/{name}  a named artifact: "container"
//	                     (the winner's v3 container) or "verilog" (the
//	                     synthesizable decoder module).
//	DELETE /v1/flows/{id} cancel / remove, like /v1/jobs/{id}.
//	GET  /v1/benchmarks  the ISCAS-style registry (paper tables 1 and 2).
//	GET  /healthz        liveness; 503 once draining.
//	GET  /metrics/prometheus  the metrics, as Prometheus text
//	                     exposition 0.0.4.
//
// The container formats are the root package's business: every
// container is written by tcomp.CompressTo and read by
// tcomp.NewStreamReader, the same pair behind the job runner and
// cmd/tdecompress. What stays here is HTTP. A compression is answered
// buffered (Content-Length, stats in X-Tcomp-* headers) when it is
// cacheable or a v2 container; an over-cap v3 compression streams onto
// the response with its stats in trailers. A v1/v2 expansion, decoded
// whole on open, states its pattern count in a header; a v3 expansion
// streams chunk by chunk with the count — or a failure found
// mid-stream — in trailers. A body that is not a container at all
// (tcomp.ErrNotContainer) is a 400, a corrupt one a 422; errors.go has
// the whole taxonomy.
//
// Three properties carry over from the engine. Memory: a v3 stream is
// compressed and expanded chunk by chunk, so a multi-gigabyte test set
// never materializes in RAM. Admission: every request must hold a token
// of one shared pipeline.Limiter before codec work starts, so N
// concurrent requests share a fixed worker budget instead of
// oversubscribing the machine. Determinism: compressed bytes
// are a pure function of (input, codec, parameters) — worker count and
// scheduling never leak into output — which is what makes the
// content-addressed result cache sound.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	tcomp "repro"
	"repro/internal/artifact"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/testset"
)

// Config tunes a Server.
type Config struct {
	// Workers is the shared compression worker budget: the number of
	// requests that may run codec work concurrently. Requests beyond it
	// queue (context-aware) instead of oversubscribing. <= 0 means
	// GOMAXPROCS.
	Workers int
	// CacheBytes bounds the content-addressed result cache. 0 disables
	// caching.
	CacheBytes int64
	// CacheInputBytes caps the canonical input size eligible for
	// caching: larger submissions stream straight through without a
	// cache probe (the probe would have to buffer the input to hash
	// it). <= 0 means 8 MiB.
	CacheInputBytes int64
	// MaxBodyBytes caps a request body. <= 0 means 1 GiB.
	MaxBodyBytes int64
	// JobStore holds async job inputs and outputs (POST /v1/jobs). Nil
	// means a private in-memory store: jobs work, but artifacts do not
	// survive the process. Hand it an artifact.DiskStore for durability.
	JobStore artifact.Store
	// JobDir is the job journal directory; "" keeps job records in
	// memory only.
	JobDir string
	// JobWorkers bounds concurrently running background jobs. <= 0 means
	// GOMAXPROCS — note jobs also hold a token of the shared Workers
	// budget while running, so they never add CPU load beyond it.
	JobWorkers int
	// MaxQueuedJobs bounds the async backlog; submissions beyond it get
	// 429 queue_full. <= 0 means 64.
	MaxQueuedJobs int
	// Logger receives the daemon's structured logs (request completions,
	// contained panics, job transitions). Nil means slog.Default().
	Logger *slog.Logger
	// Tracer mints distributed-trace root spans for requests and jobs
	// and owns the sampling policy + exporter. Nil disables span export
	// but still honors inbound traceparent headers for propagation.
	Tracer *obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CacheInputBytes <= 0 {
		c.CacheInputBytes = 8 << 20
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 30
	}
	return c
}

// Server implements the tcompd HTTP API on top of the tcomp engine.
type Server struct {
	cfg      Config
	lim      *pipeline.Limiter
	cache    *Cache
	metrics  *Metrics
	log      *slog.Logger
	tracer   *obs.Tracer
	store    artifact.Store // job inputs and outputs
	jobs     *jobs.Manager
	mux      *http.ServeMux
	draining atomic.Bool
}

// New builds a Server with its own worker budget, cache, job manager,
// and metrics. The only failure mode is the job journal directory being
// unusable. Call Close on shutdown to stop the job manager.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	s := &Server{
		cfg:     cfg,
		lim:     pipeline.NewLimiter(cfg.Workers),
		cache:   NewCache(cfg.CacheBytes),
		metrics: newMetrics(cfg.Tracer),
		log:     logger,
		tracer:  cfg.Tracer,
	}
	s.cache.onEvict = func() { s.metrics.CacheEvictions.Add(1) }
	store := cfg.JobStore
	if store == nil {
		store = artifact.NewMemStore()
	}
	s.store = store
	mgr, err := jobs.NewManager(jobs.Config{
		Store:     store,
		Dir:       cfg.JobDir,
		Workers:   cfg.JobWorkers,
		MaxQueued: cfg.MaxQueuedJobs,
		Limiter:   s.lim,
		Logger:    logger,
		Tracer:    cfg.Tracer,
		Observe: func(j tcomp.JobStatus) {
			switch j.State {
			case tcomp.JobPending:
				s.metrics.Jobs.Add("submitted", 1)
			case tcomp.JobDone:
				s.metrics.Jobs.Add("done", 1)
			case tcomp.JobFailed:
				s.metrics.Jobs.Add("failed", 1)
			case tcomp.JobCancelled:
				s.metrics.Jobs.Add("cancelled", 1)
			}
		},
		FlowObserve:  s.metrics.ObserveFlowStage,
		FlowCoverage: s.metrics.SetFlowCoverage,
	})
	if err != nil {
		return nil, err
	}
	s.jobs = mgr
	mux := http.NewServeMux()
	mux.Handle("/v1/compress", s.instrument("/v1/compress", s.handleCompress))
	mux.Handle("/v1/decompress", s.instrument("/v1/decompress", s.handleDecompress))
	mux.Handle("/v1/codecs", s.instrument("/v1/codecs", s.handleCodecs))
	mux.Handle("/v1/jobs", s.instrument("/v1/jobs", s.handleJobs))
	mux.Handle("/v1/jobs/", s.instrument("/v1/jobs/", s.handleJobByID))
	mux.Handle("/v1/flows", s.instrument("/v1/flows", s.handleFlows))
	mux.Handle("/v1/flows/", s.instrument("/v1/flows/", s.handleFlowByID))
	mux.Handle("/v1/benchmarks", s.instrument("/v1/benchmarks", s.handleBenchmarks))
	mux.Handle("/healthz", s.instrument("/healthz", s.handleHealthz))
	mux.Handle("/metrics/prometheus", s.instrument("/metrics/prometheus", s.metrics.Prometheus().ServeHTTP))
	s.mux = mux
	return s, nil
}

// Handler returns the service's HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops the background job manager: running jobs are cancelled
// and parked back to pending in the journal for the next start.
func (s *Server) Close() error { return s.jobs.Close() }

// Metrics returns the server's counter set (rendered at
// /metrics/prometheus).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Jobs returns the async job manager.
func (s *Server) Jobs() *jobs.Manager { return s.jobs }

// Cache returns the result cache (for inspection; may have 0 capacity).
func (s *Server) Cache() *Cache { return s.cache }

// WorkerBudget returns the shared concurrency budget.
func (s *Server) WorkerBudget() int { return s.lim.Cap() }

// StartDrain flips /healthz to 503 so load balancers stop routing new
// work here. In-flight and already-accepted requests still complete;
// pair it with http.Server.Shutdown, which stops accepting connections
// and waits for handlers to return.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// instrument wraps a handler with the observability envelope: the
// request trace (an X-Request-Id minted here — or accepted from the
// client after sanitization — set on the response up front, carried
// through context into the jobs and pipeline layers, and stamped on
// every log line and error body), the request counter, the per-endpoint
// latency histogram, the in-flight gauge, error accounting, a
// structured request-completion log line, and the crash-containment
// boundary: a panic escaping the handler (on the request goroutine —
// worker-goroutine panics are already converted to job errors by the
// pipeline engine) is recovered here, counted, logged with its stack,
// and answered as a 500 internal_panic. One buggy request degrades to
// one error response; the daemon keeps serving everyone else.
func (s *Server) instrument(path string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rawID := r.Header.Get("X-Request-Id")
		cleanID := obs.SanitizeRequestID(rawID)
		if rawID != "" && cleanID == "" {
			s.metrics.RejectedIDs.Add(1)
		}
		tr := obs.NewTrace(cleanID)
		ctx := obs.WithTrace(r.Context(), tr)
		// Distributed tracing: a valid inbound traceparent joins this
		// request to the caller's trace (the parse is the sanitization
		// boundary — a hostile header degrades to a fresh trace); the
		// root span covers the whole handler and every stage span nests
		// under it.
		var parent *obs.TraceContext
		if tp := r.Header.Get("traceparent"); tp != "" {
			if tc, err := obs.ParseTraceparent(tp); err == nil {
				parent = &tc
			}
		}
		ctx, span := s.tracer.StartRoot(ctx, r.Method+" "+path, parent)
		span.SetAttrs(obs.String("request_id", tr.RequestID()))
		r = r.WithContext(ctx)
		w.Header().Set("X-Request-Id", tr.RequestID())
		s.metrics.InFlight.Add(1)
		defer s.metrics.InFlight.Add(-1)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		account := func() {
			elapsed := time.Since(start)
			span.SetAttrs(obs.Int("http.status_code", int64(sw.code)))
			if sw.code >= 400 {
				span.SetError(fmt.Errorf("HTTP %d", sw.code))
			}
			span.End()
			s.metrics.Requests.Add(path, 1)
			s.metrics.Latency.Observe(path, elapsed.Seconds())
			if sw.code >= 400 {
				s.metrics.Errors.Add(1)
			}
			// Health probes and scrapes log at debug — they would drown
			// the data-plane lines at every monitoring interval.
			level := slog.LevelInfo
			if path == "/healthz" || path == "/metrics/prometheus" {
				level = slog.LevelDebug
			}
			if sw.code >= 500 {
				level = slog.LevelError
			}
			attrs := append([]any{
				slog.String("request_id", tr.RequestID()),
				slog.String("method", r.Method),
				slog.String("path", path),
				slog.Int("status", sw.code),
				slog.Duration("duration", elapsed),
			}, tr.StageAttrs()...)
			s.log.Log(r.Context(), level, "request", attrs...)
		}
		defer func() {
			p := recover()
			if p == nil {
				account()
				return
			}
			if p == http.ErrAbortHandler {
				// Deliberate connection abort (client gone mid-write);
				// net/http handles it, containment must not mask it.
				account()
				panic(p)
			}
			s.metrics.Panics.Add(1)
			s.log.Error("contained panic",
				slog.String("request_id", tr.RequestID()),
				slog.String("path", path),
				slog.Any("panic", p),
				slog.String("stack", string(debug.Stack())))
			if !sw.wrote {
				writeError(sw, CodeInternalPanic, "internal error (contained panic): %v", p)
				account()
				return
			}
			// Body already streaming: the status line is gone. Handlers
			// that declared the error trailers (the streaming endpoints)
			// get the taxonomy trailers, flushed on return. Buffered
			// responses cannot carry undeclared trailers — net/http
			// silently drops header mutations after WriteHeader — so the
			// only honest signal left is a hard connection abort: the
			// client sees a transport-level truncation instead of a
			// clean 200 over a truncated body.
			if sw.Header().Get("Trailer") != "" {
				trailerError(sw.Header(), CodeInternalPanic,
					fmt.Errorf("internal error (contained panic): %v", p))
				account()
				return
			}
			account()
			panic(http.ErrAbortHandler)
		}()
		h(sw, r)
	})
}

// statusWriter records the response status for the error counter while
// passing Flush through so streamed responses are not buffered whole.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool // header or body bytes sent: status line can't change
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(p)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.NewResponseController reach the real writer.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// enableFullDuplex opts a handler into concurrent request-body reads
// and response writes. Go's HTTP/1.1 server otherwise closes an unread
// body at the first response write, which would break the streaming
// endpoints: they decode chunk N+1 from the request while chunk N's
// patterns are already flowing out. Best-effort — test recorders do not
// support it and do not need it. A full-duplex handler must consume the
// body to EOF itself (drainBody) before returning; the server no longer
// does it and a leftover read races the next request on the connection.
func enableFullDuplex(w http.ResponseWriter) {
	_ = http.NewResponseController(w).EnableFullDuplex()
}

// drainBody reads the remainder of a full-duplex request body. The
// amount is bounded by MaxBytesReader, which every handler wraps the
// body in.
func drainBody(r io.Reader) {
	_, _ = io.Copy(io.Discard, r) // best-effort: bounded by MaxBytesReader
}

// countingReader/countingWriter feed the bytes_in/bytes_out counters.
type countingReader struct {
	r io.Reader
	n *obs.Counter
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

type countingWriter struct {
	w io.Writer
	n *obs.Counter
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// ---- /healthz and /v1/codecs ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, CodeMethodNotAllowed, "use GET")
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	status := "ok"
	code := http.StatusOK
	if s.Draining() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"status": status}) // client gone: nothing to do
}

func (s *Server) handleCodecs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, CodeMethodNotAllowed, "use GET")
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = json.NewEncoder(w).Encode(tcomp.CodecSchemas()) // client gone: nothing to do
}

// ---- /v1/compress ----

// compressRequest is a parsed and validated compress query.
type compressRequest struct {
	codecName string
	format    string // "v2" or "v3"
	opts      []tcomp.Option
	canon     string // canonical parameter string, the query half of the cache key
}

// parseParams reads the codec parameters of q — the keys
// tcomp.ParamKeys lists — and checks them through tcomp.ParamOptions,
// which enforces the shared range table that GET /v1/codecs advertises.
// Any other query key must be one of extra. It is the one query parser
// behind the compress, job and flow endpoints.
func parseParams(q url.Values, extra ...string) (map[string]int64, []tcomp.Option, error) {
	for key := range q {
		if _, ok := tcomp.OptionForParam(key, 0); !ok && !slices.Contains(extra, key) {
			return nil, nil, fmt.Errorf("unknown query parameter %q", key)
		}
	}
	var params map[string]int64
	for _, key := range tcomp.ParamKeys() {
		raw := q.Get(key)
		if raw == "" {
			continue
		}
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("parameter %s=%q is not an integer", key, raw)
		}
		if params == nil {
			params = map[string]int64{}
		}
		params[key] = v
	}
	opts, err := tcomp.ParamOptions(params)
	if err != nil {
		return nil, nil, err
	}
	return params, opts, nil
}

// parseCompressQuery validates the query string; on failure it has
// already answered with a 400 and returns ok=false.
func parseCompressQuery(w http.ResponseWriter, q url.Values) (*compressRequest, bool) {
	params, opts, err := parseParams(q, "codec", "format")
	if err != nil {
		writeError(w, CodeBadRequest, "%v", err)
		return nil, false
	}
	req := &compressRequest{codecName: q.Get("codec"), format: "v3", opts: opts}
	if req.codecName == "" {
		writeError(w, CodeBadRequest, "missing codec parameter (see GET /v1/codecs)")
		return nil, false
	}
	if _, err := tcomp.Lookup(req.codecName); err != nil {
		writeError(w, CodeBadRequest, "%v", err)
		return nil, false
	}
	if f := q.Get("format"); f != "" {
		if f != "v2" && f != "v3" {
			writeError(w, CodeBadRequest, "format %q must be v2 or v3", f)
			return nil, false
		}
		req.format = f
	}
	// The canonical parameter string lists every value that can change
	// the output bytes, in fixed order. workers is deliberately absent:
	// the engine guarantees worker-count-independent bytes, so requests
	// differing only in workers share a cache entry.
	canon := fmt.Sprintf("codec=%s|format=%s", req.codecName, req.format)
	for _, key := range tcomp.ParamKeys() {
		if v, ok := params[key]; ok && key != "workers" {
			canon += fmt.Sprintf("|%s=%d", key, v)
		}
	}
	req.canon = canon
	return req, true
}

// cacheKey derives the content address of a (parameters, input) pair:
// SHA-256 over the canonical parameter string and the canonical textual
// form of the test set. Text and binary submissions of the same
// patterns hash identically.
func (req *compressRequest) cacheKey(ts *testset.TestSet) string {
	h := sha256.New()
	_, _ = io.WriteString(h, req.canon) // sha256 writes cannot fail
	fmt.Fprintf(h, "|w=%d\n", ts.Width)
	for _, p := range ts.Patterns {
		_, _ = io.WriteString(h, p.String())
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// patternFeed is a compress request's pattern source for
// tcomp.CompressTo: the patterns buffered while probing the cache cap,
// then — for an over-cap submission — the rest of the body's scanner. A
// scan failure is kept in err, so the handler answers it as bad input
// rather than as a codec failure.
type patternFeed struct {
	prefix *testset.TestSet
	sc     *testset.Scanner // nil: prefix is the whole submission
	i      int
	err    error
}

func (f *patternFeed) next() (tcomp.Vector, error) {
	if f.i < f.prefix.NumPatterns() {
		f.i++
		return f.prefix.Patterns[f.i-1], nil
	}
	if f.sc == nil {
		return tcomp.Vector{}, io.EOF
	}
	v, err := f.sc.Next()
	if err != nil && err != io.EOF {
		f.err = fmt.Errorf("bad pattern %d: %w", f.sc.Patterns(), err)
		return v, f.err
	}
	return v, err
}

// errorCode classifies a CompressTo failure over this feed.
func (f *patternFeed) errorCode(err error) string {
	if f.err != nil {
		return bodyErrorCode(err, CodeBadRequest)
	}
	return compressErrorCode(err)
}

func (s *Server) handleCompress(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, CodeMethodNotAllowed, "use POST")
		return
	}
	req, ok := parseCompressQuery(w, r.URL.Query())
	if !ok {
		return
	}
	// Admission control: codec work needs a token of the shared budget.
	// Requests queue here (FIFO-ish, context-aware) when all workers are
	// busy, so 64 concurrent clients share cfg.Workers compressions.
	if err := s.lim.Acquire(r.Context()); err != nil {
		writeError(w, CodeUnavailable, "request cancelled while queued for a worker")
		return
	}
	s.metrics.noteWorker(1)
	defer func() {
		s.metrics.noteWorker(-1)
		s.lim.Release()
	}()

	body := &countingReader{r: http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), n: s.metrics.BytesIn}
	br := getBufReader(body)
	defer putBufReader(br)
	// The read span covers the body parse (for an over-cap submission,
	// the prefix buffered before streaming starts); a body that fails
	// to parse ends it as failed.
	_, readSp := obs.StartSpan(r.Context(), "read")
	badBody := func(err error, format string, args ...any) {
		readSp.SetError(err)
		readSp.End()
		writeError(w, bodyErrorCode(err, CodeBadRequest), format, args...)
	}
	if peek, err := br.Peek(4); err == nil && string(peek) == "TSET" {
		// Binary test-set body: the format is already in-memory-sized
		// (bounded by MaxBodyBytes), so the response is buffered. Cache
		// eligibility is measured in canonical *textual* bytes — the
		// unit the cache key hashes — so the same patterns are
		// cacheable regardless of submission encoding.
		ts, err := testset.ReadBinary(br)
		if err != nil {
			badBody(err, "bad binary test set: %v", err)
			return
		}
		readSp.End()
		canonical := int64(ts.NumPatterns()) * int64(ts.Width+1)
		s.compressBuffered(w, r, req, &patternFeed{prefix: ts}, canonical <= s.cfg.CacheInputBytes)
		return
	}

	sc, err := testset.NewScanner(br)
	if err != nil {
		badBody(err, "bad test set: %v", err)
		return
	}
	// Cache probe: buffer patterns while the canonical input stays under
	// the cap. Most submissions end in here and become cacheable; the
	// rare multi-gigabyte set overflows the cap and goes uncached.
	ts := getTestSet(sc.Width())
	defer putTestSet(ts)
	canon := int64(0)
	for {
		v, err := sc.Next()
		if err == io.EOF {
			readSp.End()
			s.compressBuffered(w, r, req, &patternFeed{prefix: ts}, true)
			return
		}
		if err != nil {
			badBody(err, "bad pattern %d: %v", ts.NumPatterns(), err)
			return
		}
		ts.Add(v)
		canon += int64(sc.Width() + 1)
		if canon > s.cfg.CacheInputBytes {
			break
		}
	}
	readSp.End()
	// Over the cap: the buffered prefix plus the rest of the scanner go
	// to the writer uncached. A v2 container is monolithic, so its
	// answer stays buffered (bounded by MaxBodyBytes); v3 streams onto
	// the response at O(chunk) memory.
	feed := &patternFeed{prefix: ts, sc: sc}
	if req.format == "v2" {
		s.compressBuffered(w, r, req, feed, false)
		return
	}
	s.compressStream(w, r, req, feed, body)
}

// compressBuffered serves a submission whose container is assembled in
// memory, consulting the result cache when the input qualified. The
// container is built in a pooled scratch buffer and copied out into an
// exact-size private slice: a Result may enter the cache, whose
// read-only Body must never alias per-request scratch.
func (s *Server) compressBuffered(w http.ResponseWriter, r *http.Request, req *compressRequest, feed *patternFeed, cacheable bool) {
	var key string
	if cacheable && s.cfg.CacheBytes > 0 {
		key = req.cacheKey(feed.prefix)
		if res, ok := s.cache.Get(key); ok {
			s.metrics.CacheHits.Add(1)
			s.writeResult(w, res, "hit")
			return
		}
		s.metrics.CacheMisses.Add(1)
	}
	cctx, compressSp := obs.StartSpan(r.Context(), "compress")
	buf := getScratch()
	defer putScratch(buf)
	st, err := tcomp.CompressTo(cctx, buf, req.codecName, req.format, feed.prefix.Width, feed.next, nil, req.opts...)
	if err != nil {
		compressSp.SetError(err)
		compressSp.End()
		switch {
		case r.Context().Err() != nil:
			// client gone; nothing useful to answer
		case feed.err != nil:
			writeError(w, feed.errorCode(err), "%v", err)
		default:
			writeError(w, feed.errorCode(err), "compress: %v", err)
		}
		return
	}
	compressSp.End()
	res := &Result{Body: append([]byte(nil), buf.Bytes()...), ContainerStats: st}
	s.metrics.ObserveRate(req.codecName, res.RatePercent())
	cacheState := ""
	if key != "" {
		s.cache.Put(key, res)
		cacheState = "miss"
	}
	_, writeSp := obs.StartSpan(r.Context(), "write")
	s.writeResult(w, res, cacheState)
	writeSp.End()
}

// writeResult answers with an in-memory artifact and its stats headers.
func (s *Server) writeResult(w http.ResponseWriter, res *Result, cacheState string) {
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Length", strconv.Itoa(len(res.Body)))
	h.Set("X-Tcomp-Patterns", strconv.Itoa(res.Patterns))
	h.Set("X-Tcomp-Chunks", strconv.Itoa(res.Chunks))
	h.Set("X-Tcomp-Original-Bits", strconv.Itoa(res.OriginalBits))
	h.Set("X-Tcomp-Compressed-Bits", strconv.Itoa(res.CompressedBits))
	if cacheState != "" {
		h.Set("X-Tcomp-Cache", cacheState)
	}
	cw := &countingWriter{w: w, n: s.metrics.BytesOut}
	_, _ = cw.Write(res.Body) // client gone: nothing to do
}

// compressStream serves an over-cap v3 submission: the writer's frames
// flow straight onto the response, so memory stays O(chunk). Stats
// travel as HTTP trailers because they are unknown until the stream
// ends. A failed stream ends without the v3 terminator/trailer — the
// response is a *genuinely* truncated container that any consumer's
// parser rejects, trailer-aware or not — and X-Tcomp-Error names the
// reason.
func (s *Server) compressStream(w http.ResponseWriter, r *http.Request, req *compressRequest, feed *patternFeed, body io.Reader) {
	sctx, streamSp := obs.StartSpan(r.Context(), "stream")
	defer streamSp.End()
	enableFullDuplex(w)
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Trailer", "X-Tcomp-Patterns, X-Tcomp-Chunks, X-Tcomp-Original-Bits, X-Tcomp-Compressed-Bits, X-Tcomp-Error, X-Tcomp-Error-Code")
	cw := &countingWriter{w: w, n: s.metrics.BytesOut}
	st, err := tcomp.CompressTo(sctx, cw, req.codecName, "v3", feed.prefix.Width, feed.next, nil, req.opts...)
	if err != nil {
		streamSp.SetError(err)
		trailerError(h, feed.errorCode(err), err)
		drainBody(body)
		return
	}
	s.metrics.ObserveRate(req.codecName, st.RatePercent())
	h.Set("X-Tcomp-Patterns", strconv.Itoa(st.Patterns))
	h.Set("X-Tcomp-Chunks", strconv.Itoa(st.Chunks))
	h.Set("X-Tcomp-Original-Bits", strconv.Itoa(st.OriginalBits))
	h.Set("X-Tcomp-Compressed-Bits", strconv.Itoa(st.CompressedBits))
}

// ---- /v1/decompress ----

// handleDecompress expands a container of any version. A v1/v2
// container is decoded whole when it is opened, so its answer carries
// the pattern count up front ("width count" header line, X-Tcomp-
// Patterns header). A v3 stream is expanded chunk by chunk onto the
// response ("width *"), with the count — or the failure, should a
// later chunk be corrupt — in the trailers.
func (s *Server) handleDecompress(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, CodeMethodNotAllowed, "use POST")
		return
	}
	if err := s.lim.Acquire(r.Context()); err != nil {
		writeError(w, CodeUnavailable, "request cancelled while queued for a worker")
		return
	}
	s.metrics.noteWorker(1)
	defer func() {
		s.metrics.noteWorker(-1)
		s.lim.Release()
	}()

	body := &countingReader{r: http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), n: s.metrics.BytesIn}
	_, decodeSp := obs.StartSpan(r.Context(), "decompress")
	defer decodeSp.End()
	sr, err := tcomp.NewStreamReader(body)
	if err != nil {
		decodeSp.SetError(err)
		code := decodeErrorCode(err)
		if errors.Is(err, tcomp.ErrNotContainer) {
			code = bodyErrorCode(err, CodeBadRequest)
		}
		writeError(w, code, "%v", err)
		return
	}
	decodeSp.SetAttrs(obs.String("codec", sr.Codec()))
	streamed := sr.Expected() < 0
	h := w.Header()
	h.Set("Content-Type", "text/plain; charset=utf-8")
	h.Set("X-Tcomp-Codec", sr.Codec())
	if streamed {
		enableFullDuplex(w)
		h.Set("Trailer", "X-Tcomp-Patterns, X-Tcomp-Error, X-Tcomp-Error-Code")
	} else {
		h.Set("X-Tcomp-Patterns", strconv.Itoa(sr.Expected()))
	}
	pw, err := testset.NewPatternWriter(&countingWriter{w: w, n: s.metrics.BytesOut}, sr.Width(), sr.Expected())
	if err != nil {
		writeError(w, decodeErrorCode(err), "decompress: %v", err)
		return
	}
	for {
		v, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			// Only a v3 stream fails here, with its text already
			// flowing: truncate it and name the failing chunk in the
			// trailer.
			_ = pw.Close() // truncating deliberately; the trailer names the cause
			decodeSp.SetError(err)
			trailerError(h, decodeErrorCode(err),
				fmt.Errorf("stream corrupt or truncated at chunk %d: %v", sr.ChunkIndex(), err))
			drainBody(body)
			return
		}
		if err := pw.WritePattern(v); err != nil {
			return // client went away mid-response
		}
	}
	if err := pw.Close(); err != nil {
		return
	}
	if streamed {
		h.Set("X-Tcomp-Patterns", strconv.Itoa(pw.Patterns()))
		drainBody(body)
	}
}
