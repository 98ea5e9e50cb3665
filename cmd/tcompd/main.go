// Command tcompd is the test-data compression daemon: a long-running
// HTTP service that multiplexes many clients over the codec registry,
// the chunked stream container, and the shared pipeline worker budget.
// It is the serving face of the engine — the one-shot CLIs (tcompress,
// tdecompress) delegate to it with -remote.
//
// Usage:
//
//	tcompd -addr :8077 -workers 8 -cache-bytes 268435456
//	tcompd -addr :8077 -store-dir /var/lib/tcompd  # durable async jobs
//	tcompd -config /etc/tcompd.json -log-format json
//
// Endpoints: POST /v1/compress, POST /v1/decompress, GET /v1/codecs,
// POST/GET /v1/jobs (async job API), POST/GET /v1/flows (hardware-test
// flow: circuit → ATPG → codec race → container + Verilog decoder),
// GET /v1/benchmarks (the ISCAS-style registry), GET /healthz, and
// GET /metrics/prometheus (the metrics, as Prometheus text exposition).
// See the README's Serving, Test-flow service, and Observability
// sections for curl examples.
//
// Every setting resolves through one layered config: a command-line
// flag beats its TCOMPD_* environment variable (-cache-bytes →
// TCOMPD_CACHE_BYTES), which beats the same key in the -config JSON
// file, which beats the built-in default. A typoed config-file key
// fails startup instead of silently doing nothing.
//
// With -store-dir set, async job artifacts live in a content-addressed
// on-disk store and job records in a journal next to it, so submitted
// work and finished results survive a daemon restart. A background
// sweeper applies -artifact-ttl and -artifact-quota and reclaims
// staging files a crashed process left behind.
//
// On SIGTERM or SIGINT the daemon drains gracefully: /healthz flips to
// 503 so load balancers stop routing here, the listener stops accepting
// new connections, every in-flight request runs to completion (bounded
// by -drain-timeout), running jobs are parked back to pending in the
// journal, and a final metrics snapshot — the same text exposition
// /metrics/prometheus serves — is flushed to stderr.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/artifact"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	os.Exit(run())
}

// run is main with an exit code, so deferred cleanup actually runs
// (os.Exit in main would skip it).
func run() int {
	var (
		addr          = flag.String("addr", ":8077", "listen address (host:port; port 0 picks an ephemeral port)")
		workers       = flag.Int("workers", 0, "shared compression worker budget (0 = one per CPU); concurrent requests and background jobs queue for these tokens instead of oversubscribing")
		cacheBytes    = flag.Int64("cache-bytes", 256<<20, "content-addressed result cache capacity in bytes (0 disables)")
		cacheInputCap = flag.Int64("cache-input-cap", 8<<20, "largest canonical input eligible for caching; bigger submissions stream through uncached")
		maxBody       = flag.Int64("max-body", 1<<30, "request body cap in bytes")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "how long to wait for in-flight requests on shutdown")
		portFile      = flag.String("portfile", "", "write the bound address to this file once listening (for smoke tests and supervisors)")

		storeDir      = flag.String("store-dir", "", "artifact store root for async jobs; empty keeps artifacts and job records in memory only")
		artifactTTL   = flag.Duration("artifact-ttl", 24*time.Hour, "delete artifacts unused for this long (0 disables TTL expiry)")
		artifactQuota = flag.Int64("artifact-quota", 4<<30, "artifact store size bound in bytes; least-recently-used blobs are evicted above it (0 disables)")
		gcInterval    = flag.Duration("gc-interval", 5*time.Minute, "how often the artifact GC sweeper runs")
		maxJobs       = flag.Int("max-jobs", 64, "async job backlog bound; submissions beyond it answer 429 queue_full")
		jobWorkers    = flag.Int("job-workers", 2, "concurrently running background jobs (they also hold shared worker tokens while running)")

		traceExporter = flag.String("trace-exporter", "none", "span exporter: none, otlp (OTLP/HTTP JSON to -trace-endpoint), stdout (JSONL), or file (JSONL to -trace-endpoint path)")
		traceEndpoint = flag.String("trace-endpoint", "http://localhost:4318/v1/traces", "collector URL for -trace-exporter otlp, or output path for -trace-exporter file")
		traceSample   = flag.Float64("trace-sample", 1, "fraction of new traces to sample in [0,1]; inbound traceparent sampling decisions are always honored")

		_         = flag.String("config", "", "JSON config file; flags and TCOMPD_* env vars override its settings")
		logLevel  = flag.String("log-level", "info", "log verbosity: debug, info, warn, or error")
		logFormat = flag.String("log-format", "text", "log encoding: text or json")
		pprofOn   = flag.Bool("pprof", false, "serve net/http/pprof profiles under /debug/pprof/ (off by default: profiles expose internals)")
	)
	if err := obs.LoadFlags(flag.CommandLine, os.Args[1:], "TCOMPD_", os.LookupEnv, "config"); err != nil {
		fmt.Fprintln(os.Stderr, "tcompd:", err)
		return 2
	}

	logger, err := newLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcompd:", err)
		return 2
	}
	slog.SetDefault(logger)

	tracer, err := newTracer(*traceExporter, *traceEndpoint, *traceSample)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcompd:", err)
		return 2
	}

	cfg := serve.Config{
		Workers:         *workers,
		CacheBytes:      *cacheBytes,
		CacheInputBytes: *cacheInputCap,
		MaxBodyBytes:    *maxBody,
		MaxQueuedJobs:   *maxJobs,
		JobWorkers:      *jobWorkers,
		Logger:          logger,
		Tracer:          tracer,
	}
	var store *artifact.DiskStore
	if *storeDir != "" {
		store, err = artifact.NewDiskStore(filepath.Join(*storeDir, "artifacts"))
		if err != nil {
			logger.Error("opening artifact store", slog.Any("error", err))
			return 1
		}
		cfg.JobStore = store
		cfg.JobDir = filepath.Join(*storeDir, "jobs")
	}
	s, err := serve.New(cfg)
	if err != nil {
		logger.Error("starting server", slog.Any("error", err))
		return 1
	}

	handler := s.Handler()
	if *pprofOn {
		// The service mux is private, so pprof is mounted here explicitly
		// rather than through the package's DefaultServeMux side effect —
		// absent the flag, no profiling endpoint exists at all.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		logger.Info("pprof enabled", slog.String("path", "/debug/pprof/"))
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	// The artifact GC sweeper: TTL first, then the LRU quota pass, then
	// orphaned staging files. Only meaningful for the durable store — the
	// in-memory store dies with the process anyway.
	gcStop := make(chan struct{})
	if store != nil && *gcInterval > 0 {
		go func() {
			t := time.NewTicker(*gcInterval)
			defer t.Stop()
			for {
				select {
				case <-gcStop:
					return
				case now := <-t.C:
					st := store.Sweep(now, *artifactTTL, *artifactQuota)
					if st.Expired+st.Evicted+st.TmpRemoved > 0 {
						logger.Info("artifact gc",
							slog.Int("expired", st.Expired),
							slog.Int("evicted", st.Evicted),
							slog.Int("tmp_removed", st.TmpRemoved),
							slog.Int64("freed_bytes", st.FreedBytes),
							slog.Int("blobs", store.Len()),
							slog.Int64("bytes", store.Bytes()))
					}
				}
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listening", slog.String("addr", *addr), slog.Any("error", err))
		return 1
	}
	logger.Info("listening",
		slog.String("addr", ln.Addr().String()),
		slog.Int("workers", s.WorkerBudget()),
		slog.Int64("cache_bytes", *cacheBytes),
		slog.String("store_dir", *storeDir))
	if *portFile != "" {
		if err := os.WriteFile(*portFile, []byte(ln.Addr().String()), 0o644); err != nil {
			logger.Error("writing portfile", slog.Any("error", err))
			return 1
		}
	}

	// Serve until SIGTERM/SIGINT, then drain: stop accepting, let
	// in-flight requests finish, park running jobs, flush metrics.
	idle := make(chan struct{})
	go func() {
		defer close(idle)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
		<-sig
		logger.Info("draining", slog.Duration("timeout", *drainTimeout))
		s.StartDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			logger.Warn("drain incomplete", slog.Any("error", err))
		}
	}()

	if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("serving", slog.Any("error", err))
		return 1
	}
	<-idle
	close(gcStop)
	if err := s.Close(); err != nil {
		logger.Warn("stopping job manager", slog.Any("error", err))
	}
	// Flush buffered spans after the last request and job have ended,
	// bounded so a dead collector cannot hold the shutdown hostage.
	flushCtx, cancelFlush := context.WithTimeout(context.Background(), 5*time.Second)
	if err := tracer.Shutdown(flushCtx); err != nil {
		logger.Warn("trace exporter flush incomplete", slog.Any("error", err))
	}
	cancelFlush()
	_, _ = s.Metrics().Prometheus().WriteTo(os.Stderr) // stderr gone: nowhere left to report
	logger.Info("drained; bye")
	return 0
}

// newTracer builds the span pipeline from the -trace-* settings. The
// exporter selects the sink; sample is the ratio for traces this daemon
// roots itself (inbound traceparent decisions always win).
func newTracer(exporter, endpoint string, sample float64) (*obs.Tracer, error) {
	switch exporter {
	case "", "none":
		return nil, nil
	case "otlp":
		return obs.NewTracer(obs.NewOTLPExporter(obs.OTLPConfig{Endpoint: endpoint}), sample), nil
	case "stdout":
		// Spans go to stdout, logs to stderr: the two streams stay
		// separable under a supervisor.
		return obs.NewTracer(obs.NewWriterExporter(os.Stdout), sample), nil
	case "file":
		f, err := os.OpenFile(endpoint, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("opening trace output file: %w", err)
		}
		return obs.NewTracer(obs.NewWriterExporter(f), sample), nil
	default:
		return nil, fmt.Errorf("unknown -trace-exporter %q (none, otlp, stdout, or file)", exporter)
	}
}

// newLogger builds the daemon's structured logger from the -log-level
// and -log-format settings.
func newLogger(level, format string) (*slog.Logger, error) {
	lv, err := obs.ParseLevel(level)
	if err != nil {
		return nil, err
	}
	return obs.NewLogger(os.Stderr, lv, format)
}
