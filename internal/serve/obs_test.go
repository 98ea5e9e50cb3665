package serve

// Observability coverage: the request-ID trace from response header to
// structured log line to async job record, the Prometheus exposition
// endpoint under concurrent mutation, and error bodies naming their
// request.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	tcomp "repro"
	"repro/internal/obs"
)

// syncBuffer is a goroutine-safe log sink: request completions land
// from handler goroutines while job transitions land from the manager's
// workers.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Lines() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return strings.Split(strings.TrimSpace(b.buf.String()), "\n")
}

// logServer builds a test server whose structured JSON logs land in the
// returned buffer.
func logServer(t *testing.T, cfg Config) (*Server, *tcomp.Client, *syncBuffer) {
	t.Helper()
	logs := &syncBuffer{}
	logger, err := obs.NewLogger(logs, slog.LevelDebug, obs.LogJSON)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Logger = logger
	s := mustServer(t, cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, tcomp.NewClient(hs.URL), logs
}

// logLine is the subset of the JSON log schema the tests assert on.
type logLine struct {
	Msg       string `json:"msg"`
	RequestID string `json:"request_id"`
	Path      string `json:"path"`
	Status    int    `json:"status"`
	JobID     string `json:"job_id"`
	State     string `json:"state"`
}

func linesWithRequestID(t *testing.T, logs *syncBuffer, rid string) []logLine {
	t.Helper()
	var out []logLine
	for _, raw := range logs.Lines() {
		if raw == "" {
			continue
		}
		var l logLine
		if err := json.Unmarshal([]byte(raw), &l); err != nil {
			t.Fatalf("non-JSON log line %q: %v", raw, err)
		}
		if l.RequestID == rid {
			out = append(out, l)
		}
	}
	return out
}

// TestRequestIDEndToEnd pins the tentpole guarantee: the ID a client
// sends as X-Request-Id comes back on the response, is stamped on the
// async job record it created, and names both the HTTP completion and
// the job's lifecycle in the structured logs.
func TestRequestIDEndToEnd(t *testing.T) {
	s, client, logs := logServer(t, Config{Workers: 2, JobWorkers: 1})
	const rid = "e2e-trace-12345"

	ts := randomSet(24, 40, 3)
	body := textOf(t, ts)
	req, err := http.NewRequest(http.MethodPost,
		client.BaseURL+"/v1/jobs?kind=compress&codec=golomb&seed=7", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", rid)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != rid {
		t.Fatalf("response X-Request-Id = %q, want %q", got, rid)
	}
	var rec struct {
		ID        string `json:"id"`
		RequestID string `json:"request_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	if rec.RequestID != rid {
		t.Fatalf("job record request_id = %q, want %q", rec.RequestID, rid)
	}

	// The record keeps the link when fetched later, and through the
	// client's typed view.
	j, err := client.WaitJob(t.Context(), rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != tcomp.JobDone {
		t.Fatalf("job state = %s (%s)", j.State, j.Error)
	}
	if j.RequestID != rid {
		t.Fatalf("fetched job request_id = %q, want %q", j.RequestID, rid)
	}

	// The logs: one request-completion line for the submission and one
	// job-finished line, both naming the same request ID. The job line
	// lands from a worker goroutine after the record turns terminal, so
	// poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		lines := linesWithRequestID(t, logs, rid)
		var sawRequest, sawJob bool
		for _, l := range lines {
			if l.Msg == "request" && l.Path == "/v1/jobs" && l.Status == http.StatusAccepted {
				sawRequest = true
			}
			if l.Msg == "job finished" && l.JobID == rec.ID && l.State == "done" {
				sawJob = true
			}
		}
		if sawRequest && sawJob {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("logs never carried request %s end to end: request=%v job=%v (lines: %v)",
				rid, sawRequest, sawJob, lines)
		}
		time.Sleep(5 * time.Millisecond)
	}
	_ = s
}

// TestRequestIDMintedAndSanitized: absent or hostile client IDs get a
// fresh minted one; error bodies echo the response's ID.
func TestRequestIDMintedAndSanitized(t *testing.T) {
	_, client, _ := logServer(t, Config{Workers: 1})
	for name, hostile := range map[string]string{
		"absent":   "",
		"tabbed":   "evil\tid", // a tab is legal in an HTTP header but not in our IDs
		"quoted":   `has"quote`,
		"oversize": strings.Repeat("x", 200),
	} {
		req, err := http.NewRequest(http.MethodGet, client.BaseURL+"/v1/compress", nil)
		if err != nil {
			t.Fatal(err)
		}
		if hostile != "" {
			req.Header.Set("X-Request-Id", hostile)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		rid := resp.Header.Get("X-Request-Id")
		if len(rid) != 16 {
			t.Fatalf("%s: minted ID %q, want 16 hex chars", name, rid)
		}
		var eb ErrorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if eb.RequestID != rid {
			t.Fatalf("%s: error body request_id = %q, header %q", name, eb.RequestID, rid)
		}
		if eb.Code != CodeMethodNotAllowed {
			t.Fatalf("%s: code = %q", name, eb.Code)
		}
	}
}

// TestPrometheusExposition: after real traffic, the exposition carries
// the per-endpoint latency histogram and per-codec compression-rate
// histogram in valid text format.
func TestPrometheusExposition(t *testing.T) {
	_, client, _ := logServer(t, Config{Workers: 2})
	ts := randomSet(24, 60, 5)
	var out bytes.Buffer
	if _, err := client.Compress(t.Context(), "golomb", bytes.NewReader(textOf(t, ts)), &out, tcomp.WithSeed(7)); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(client.BaseURL + "/metrics/prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	for _, want := range []string{
		`tcompd_request_duration_seconds_bucket{path="/v1/compress",le="+Inf"} 1`,
		`tcompd_request_duration_seconds_count{path="/v1/compress"} 1`,
		`tcompd_compression_rate_percent_bucket{codec="golomb",le="+Inf"} 1`,
		`tcompd_requests_total{path="/v1/compress"} 1`,
		"# TYPE tcompd_request_duration_seconds histogram",
		"# TYPE tcompd_requests_total counter",
		"# TYPE tcompd_in_flight_requests gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// Structural validity: every non-comment line is `name{labels} value`
	// or `name value`, and every metric family has HELP and TYPE.
	lineRE := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$`)
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !lineRE.MatchString(line) {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

// TestPrometheusConcurrentScrape: 64 goroutines hammer every metric
// family while scrapers read the exposition — the -race run proves the
// lock-free primitives and the renderer never tear.
func TestPrometheusConcurrentScrape(t *testing.T) {
	s, client, _ := logServer(t, Config{Workers: 2})
	m := s.Metrics()
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codec := fmt.Sprintf("c%d", i%4)
			path := fmt.Sprintf("/p%d", i%8)
			for n := 0; n < 500; n++ {
				m.Requests.Add(path, 1)
				m.Latency.Observe(path, float64(n%100)/1000)
				m.Rates.Observe(codec, float64(n%120)-10)
				m.BytesIn.Add(1)
				m.InFlight.Add(1)
				m.noteWorker(1)
				m.noteWorker(-1)
				m.InFlight.Add(-1)
				m.Jobs.Add("submitted", 1)
			}
		}(i)
	}
	for i := 0; i < 10; i++ {
		resp, err := http.Get(client.BaseURL + "/metrics/prometheus")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("scrape %d status = %d", i, resp.StatusCode)
		}
	}
	wg.Wait()

	// A final scrape must be internally consistent: the histogram count
	// equals the +Inf bucket for every series.
	resp, err := http.Get(client.BaseURL + "/metrics/prometheus")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	inf := regexp.MustCompile(`tcompd_request_duration_seconds_bucket\{path="/p0",le="\+Inf"\} (\d+)`)
	count := regexp.MustCompile(`tcompd_request_duration_seconds_count\{path="/p0"\} (\d+)`)
	im, cm := inf.FindStringSubmatch(string(body)), count.FindStringSubmatch(string(body))
	if im == nil || cm == nil || im[1] != cm[1] {
		t.Fatalf("+Inf bucket and _count disagree after quiesce: %v vs %v", im, cm)
	}
}

// TestWorkersPeakNotUnderReported is the regression test for the
// lost-update race: N requests hold worker tokens simultaneously, and
// the peak gauge must have seen all N — the historical check-then-set
// could miss the true maximum when a release raced a read.
func TestWorkersPeakNotUnderReported(t *testing.T) {
	s := mustServer(t, Config{Workers: 1})
	m := s.Metrics()
	const n = 64
	start := make(chan struct{})
	var ready, done sync.WaitGroup
	for i := 0; i < n; i++ {
		ready.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			ready.Done()
			<-start
			m.noteWorker(1)
			m.noteWorker(-1)
		}()
	}
	ready.Wait()
	close(start)
	done.Wait()
	if busy := m.WorkersBusy.Value(); busy != 0 {
		t.Fatalf("workers_busy = %d after all released", busy)
	}
	peak := m.WorkersPeak.Value()
	if peak < 1 || peak > n {
		t.Fatalf("workers_peak = %d, want within [1,%d]", peak, n)
	}
}

// logStages returns the stage attributes of the request-completion log
// line for request ID rid, in the order the line lists them: every
// top-level key beyond the line's fixed fields.
func logStages(t *testing.T, logs *syncBuffer, rid string) []string {
	t.Helper()
	fixed := map[string]bool{"time": true, "level": true, "msg": true, "request_id": true,
		"method": true, "path": true, "status": true, "duration": true}
	for _, raw := range logs.Lines() {
		var l logLine
		if json.Unmarshal([]byte(raw), &l) != nil || l.Msg != "request" || l.RequestID != rid {
			continue
		}
		dec := json.NewDecoder(strings.NewReader(raw))
		if _, err := dec.Token(); err != nil { // the opening brace
			t.Fatal(err)
		}
		var stages []string
		for dec.More() {
			key, err := dec.Token()
			if err != nil {
				t.Fatal(err)
			}
			var skip json.RawMessage
			if err := dec.Decode(&skip); err != nil {
				t.Fatal(err)
			}
			if !fixed[key.(string)] {
				stages = append(stages, key.(string))
			}
		}
		return stages
	}
	t.Fatalf("no request log line for %s", rid)
	return nil
}

// TestRequestLogLineStages pins the log line's stage rule: it lists the
// spans directly under the request — under the handler's root span, or
// under no span when no tracer is configured — and nothing nested
// inside them (the codec's own "compress <codec>", pipeline chunks).
func TestRequestLogLineStages(t *testing.T) {
	for name, tracer := range map[string]*obs.Tracer{
		"no tracer": nil,
		"tracer":    obs.NewTracer(obs.NewWriterExporter(io.Discard), 1),
	} {
		t.Run(name, func(t *testing.T) {
			s, client, logs := logServer(t, Config{Workers: 1, CacheBytes: 1 << 20, CacheInputBytes: 1 << 10, Tracer: tracer})
			post := func(rid, path string, body []byte) []byte {
				t.Helper()
				req, err := http.NewRequest(http.MethodPost, client.BaseURL+path, bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				req.Header.Set("X-Request-Id", rid)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				out, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			buffered := post("buffered", "/v1/compress?codec=golomb", textOf(t, randomSet(24, 20, 1)))
			post("overcap", "/v1/compress?codec=golomb", textOf(t, randomSet(24, 400, 2)))
			post("bad", "/v1/compress?codec=golomb", []byte("4 2\n01X1\n01Z1\n"))
			post("decompress", "/v1/decompress", buffered)

			// A request that finds the worker budget full queues; this
			// one is cancelled while it waits.
			if !s.lim.TryAcquire() {
				t.Fatal("worker token unexpectedly held")
			}
			ctx, cancel := context.WithCancel(t.Context())
			cancel()
			req := httptest.NewRequest(http.MethodPost, "/v1/compress?codec=golomb", strings.NewReader("4 1\n0101\n")).WithContext(ctx)
			req.Header.Set("X-Request-Id", "queued")
			s.Handler().ServeHTTP(httptest.NewRecorder(), req)
			s.lim.Release()

			for rid, want := range map[string][]string{
				"buffered":   {"read", "compress", "write"},
				"overcap":    {"read", "stream"},
				"bad":        {"read"},
				"decompress": {"decompress"},
				"queued":     {"queue_wait"},
			} {
				if got := logStages(t, logs, rid); !slices.Equal(got, want) {
					t.Errorf("%s request logged stages %v, want %v", rid, got, want)
				}
			}
		})
	}
}

// TestMetricFamiliesInREADME: every family the exposition can render —
// with and without an OTLP exporter's accounting attached — has a row
// in the README's metric table, its name written out in full.
func TestMetricFamiliesInREADME(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile("`(tcompd_[a-z0-9_]+)(\\{[a-z]+\\})?`")
	documented := map[string]bool{}
	for _, line := range strings.Split(string(readme), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`tcompd_") {
			continue
		}
		for _, m := range nameRE.FindAllStringSubmatch(cells[1], -1) {
			documented[m[1]] = true
		}
	}

	exp := obs.NewOTLPExporter(obs.OTLPConfig{Endpoint: "http://127.0.0.1:4318/v1/traces"})
	t.Cleanup(func() { _ = exp.Shutdown(context.Background()) }) // nothing was exported
	typeRE := regexp.MustCompile(`(?m)^# TYPE (\S+) `)
	for name, tracer := range map[string]*obs.Tracer{
		"no exporter":   nil,
		"OTLP exporter": obs.NewTracer(exp, 1),
	} {
		var b strings.Builder
		if _, err := newMetrics(tracer).Prometheus().WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		families := typeRE.FindAllStringSubmatch(b.String(), -1)
		if len(families) == 0 {
			t.Fatalf("%s: exposition has no families", name)
		}
		for _, f := range families {
			if !documented[f[1]] {
				t.Errorf("%s: family %s has no row in the README's metric table", name, f[1])
			}
		}
	}
}
