package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	tcomp "repro"
	"repro/internal/testset"
)

// mustServer builds a Server for tests, failing on construction errors
// and shutting the job manager down with the test.
func mustServer(tb testing.TB, cfg Config) *Server {
	tb.Helper()
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = s.Close() })
	return s
}

func newTestServer(t *testing.T, cfg Config) (*Server, *tcomp.Client) {
	t.Helper()
	s := mustServer(t, cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, tcomp.NewClient(hs.URL)
}

func randomSet(width, patterns int, seed int64) *testset.TestSet {
	return testset.Random(width, patterns, 0.35, rand.New(rand.NewSource(seed)))
}

func textOf(t *testing.T, ts *testset.TestSet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ts.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// codecOpts returns per-codec options that keep the EA fast in tests
// while exercising every registered scheme.
func codecOpts(name string) []tcomp.Option {
	opts := []tcomp.Option{tcomp.WithSeed(7)}
	if name == "ea" {
		opts = append(opts, tcomp.WithRuns(1), tcomp.WithMVCount(16))
	}
	return opts
}

// TestRoundTripAllCodecs proves the HTTP path is byte-identical to the
// local buffered path for every registered codec, in both container
// formats: the v2 artifact the daemon returns carries the same params
// and payload bytes as a local Compress, and the v3 stream decodes to
// the same fully specified patterns, remotely and locally.
func TestRoundTripAllCodecs(t *testing.T) {
	_, client := newTestServer(t, Config{Workers: 4, CacheBytes: 1 << 20})
	ctx := context.Background()
	ts := randomSet(16, 20, 3)

	for _, name := range tcomp.Codecs() {
		if name == "boom" {
			continue // the deliberately panicking codec from panic_test.go
		}
		name := name
		t.Run(name, func(t *testing.T) {
			opts := codecOpts(name)
			codec, err := tcomp.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			localArt, err := codec.Compress(ctx, ts, opts...)
			if err != nil {
				t.Fatal(err)
			}
			localDec, err := tcomp.Decompress(localArt)
			if err != nil {
				t.Fatal(err)
			}

			// Buffered v2 path: the remote artifact must be bit-for-bit
			// the local one.
			remoteArt, stats, err := client.CompressSet(ctx, name, ts, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(remoteArt.Payload, localArt.Payload) {
				t.Fatalf("remote payload differs from local: %d vs %d bytes", len(remoteArt.Payload), len(localArt.Payload))
			}
			if !bytes.Equal(remoteArt.Params, localArt.Params) {
				t.Fatal("remote params differ from local")
			}
			if stats.CompressedBits != localArt.CompressedBits {
				t.Fatalf("stats report %d compressed bits, local %d", stats.CompressedBits, localArt.CompressedBits)
			}
			remoteDec, err := client.DecompressSet(ctx, remoteArt)
			if err != nil {
				t.Fatal(err)
			}
			requireSameSet(t, localDec, remoteDec)
			if !tcomp.VerifyLossless(ts, remoteDec) {
				t.Fatal("remote round trip lost specified bits")
			}

			// Streaming v3 path: the remote container must be
			// byte-identical to a local StreamWriter run with the same
			// options (chunk seeds derive from the root seed, so the
			// buffered artifact is not the reference here), and the
			// remote expansion must be lossless.
			var localCont bytes.Buffer
			sw, err := tcomp.NewStreamWriter(ctx, &localCont, name, ts.Width, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if err := sw.WriteSet(ts); err != nil {
				t.Fatal(err)
			}
			if err := sw.Close(); err != nil {
				t.Fatal(err)
			}
			var cont bytes.Buffer
			sstats, err := client.Compress(ctx, name, bytes.NewReader(textOf(t, ts)), &cont, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cont.Bytes(), localCont.Bytes()) {
				t.Fatalf("remote v3 container differs from local streaming path: %d vs %d bytes", cont.Len(), localCont.Len())
			}
			if sstats.Patterns != ts.NumPatterns() || sstats.Chunks < 1 {
				t.Fatalf("stream stats %+v implausible for %d patterns", sstats, ts.NumPatterns())
			}
			var text bytes.Buffer
			if err := client.Decompress(ctx, bytes.NewReader(cont.Bytes()), &text); err != nil {
				t.Fatal(err)
			}
			streamDec, err := testset.Read(&text)
			if err != nil {
				t.Fatal(err)
			}
			if !tcomp.VerifyLossless(ts, streamDec) {
				t.Fatal("remote streaming round trip lost specified bits")
			}
		})
	}
}

func requireSameSet(t *testing.T, want, got *testset.TestSet) {
	t.Helper()
	if want.Width != got.Width || want.NumPatterns() != got.NumPatterns() {
		t.Fatalf("dimensions differ: want %dx%d, got %dx%d",
			want.NumPatterns(), want.Width, got.NumPatterns(), got.Width)
	}
	for i := range want.Patterns {
		if want.Patterns[i].String() != got.Patterns[i].String() {
			t.Fatalf("pattern %d differs:\nwant %s\ngot  %s", i, want.Patterns[i], got.Patterns[i])
		}
	}
}

// TestCacheDeterminism: the second identical submission is served from
// the content-addressed cache with identical bytes; a different seed is
// a distinct address.
func TestCacheDeterminism(t *testing.T) {
	s, client := newTestServer(t, Config{Workers: 2, CacheBytes: 1 << 20})
	ctx := context.Background()
	ts := randomSet(24, 30, 11)
	in := textOf(t, ts)

	var first, second, third bytes.Buffer
	st1, err := client.Compress(ctx, "golomb", bytes.NewReader(in), &first, tcomp.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	st2, err := client.Compress(ctx, "golomb", bytes.NewReader(in), &second, tcomp.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if st1.CacheHit {
		t.Fatal("first submission reported a cache hit")
	}
	if !st2.CacheHit {
		t.Fatal("second identical submission missed the cache")
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("cache hit returned different bytes than the fresh compression")
	}
	if st2.CompressedBits != st1.CompressedBits || st2.Patterns != st1.Patterns {
		t.Fatalf("cache hit stats differ: %+v vs %+v", st2, st1)
	}

	// A different seed is a different content address.
	st3, err := client.Compress(ctx, "golomb", bytes.NewReader(in), &third, tcomp.WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	if st3.CacheHit {
		t.Fatal("different seed hit the cache")
	}
	// workers is excluded from the key: same compression, different
	// parallelism, must hit.
	var fourth bytes.Buffer
	st4, err := client.Compress(ctx, "golomb", bytes.NewReader(in), &fourth, tcomp.WithSeed(5), tcomp.WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	if !st4.CacheHit {
		t.Fatal("workers-only variation missed the cache")
	}

	if hits := s.Metrics().CacheHits.Value(); hits != 2 {
		t.Fatalf("cache_hits = %d, want 2", hits)
	}
	if misses := s.Metrics().CacheMisses.Value(); misses != 2 {
		t.Fatalf("cache_misses = %d, want 2", misses)
	}
	if s.Cache().Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", s.Cache().Len())
	}
	if ev := s.Metrics().CacheEvictions.Value(); ev != 0 {
		t.Fatalf("cache_evictions = %d, want 0 (capacity was never exceeded)", ev)
	}
	// The computed hit-ratio gauge: 2 hits / 4 lookups.
	var expo strings.Builder
	if _, err := s.Metrics().Prometheus().WriteTo(&expo); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(expo.String(), "\ntcompd_cache_hit_ratio 0.5\n") {
		t.Fatalf("exposition lacks tcompd_cache_hit_ratio 0.5:\n%s", expo.String())
	}
}

// TestCacheEvictionMetrics: a cache too small for two results evicts the
// older entry on the second insert, and the eviction is counted.
func TestCacheEvictionMetrics(t *testing.T) {
	ts := randomSet(24, 40, 13)
	in := textOf(t, ts)
	var probe bytes.Buffer
	_, client0 := newTestServer(t, Config{Workers: 2, CacheBytes: 1 << 20})
	if _, err := client0.Compress(context.Background(), "golomb", bytes.NewReader(in), &probe); err != nil {
		t.Fatal(err)
	}
	// Room for one result, never two.
	s, client := newTestServer(t, Config{Workers: 2, CacheBytes: int64(probe.Len()) * 3 / 2})
	ctx := context.Background()

	var out bytes.Buffer
	for _, seed := range []int64{1, 2} {
		out.Reset()
		if _, err := client.Compress(ctx, "golomb", bytes.NewReader(in), &out, tcomp.WithSeed(seed)); err != nil {
			t.Fatal(err)
		}
	}
	if ev := s.Metrics().CacheEvictions.Value(); ev != 1 {
		t.Fatalf("cache_evictions = %d, want 1", ev)
	}
	if s.Cache().Len() != 1 {
		t.Fatalf("cache holds %d entries after eviction, want 1", s.Cache().Len())
	}
	// The evicted seed is a miss again; the survivor still hits.
	out.Reset()
	st, err := client.Compress(ctx, "golomb", bytes.NewReader(in), &out, tcomp.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if !st.CacheHit {
		t.Fatal("most recent entry should have survived the eviction")
	}
	out.Reset()
	st, err = client.Compress(ctx, "golomb", bytes.NewReader(in), &out, tcomp.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHit {
		t.Fatal("evicted entry reported a cache hit")
	}
}

// TestGracefulDrain: a request in flight when the daemon starts
// draining runs to completion — zero dropped requests — while new work
// is refused at the listener.
func TestGracefulDrain(t *testing.T) {
	s := mustServer(t, Config{Workers: 2})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	go httpSrv.Serve(ln)
	client := tcomp.NewClient("http://" + ln.Addr().String())
	ctx := context.Background()

	ts := randomSet(16, 8, 2)
	// Trickle the request body through a pipe so the request is
	// mid-flight when Shutdown fires.
	pr, pw := io.Pipe()
	var cont bytes.Buffer
	reqDone := make(chan error, 1)
	go func() {
		_, err := client.Compress(ctx, "fdr", pr, &cont)
		reqDone <- err
	}()
	if _, err := io.WriteString(pw, fmt.Sprintf("%d *\n", ts.Width)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(pw, ts.Patterns[0].String()+"\n"); err != nil {
		t.Fatal(err)
	}
	// Wait until the server has the request in flight.
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().InFlight.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never went in flight")
		}
		time.Sleep(time.Millisecond)
	}

	s.StartDrain()
	shutdownDone := make(chan error, 1)
	go func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- httpSrv.Shutdown(sctx)
	}()

	// The daemon is draining; finish the in-flight upload.
	time.Sleep(20 * time.Millisecond)
	for _, p := range ts.Patterns[1:] {
		if _, err := io.WriteString(pw, p.String()+"\n"); err != nil {
			t.Fatal(err)
		}
	}
	pw.Close()

	if err := <-reqDone; err != nil {
		t.Fatalf("in-flight request dropped during drain: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("graceful shutdown failed: %v", err)
	}
	// The container produced under drain is complete and correct.
	sr, err := tcomp.NewStreamReader(bytes.NewReader(cont.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := sr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !tcomp.VerifyLossless(ts, dec) {
		t.Fatal("drained request produced a lossy container")
	}
	// New connections are refused after shutdown.
	if err := client.Health(context.Background()); err == nil {
		t.Fatal("daemon still accepting connections after Shutdown")
	}
}

// TestSharedWorkerBudget: 64 concurrent clients never occupy more than
// the configured worker budget concurrently, and all of them succeed.
func TestSharedWorkerBudget(t *testing.T) {
	const budget, clients = 2, 64
	s, client := newTestServer(t, Config{Workers: budget})
	ctx := context.Background()

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ts := randomSet(16, 12, int64(100+i))
			var cont bytes.Buffer
			if _, err := client.Compress(ctx, "rl", bytes.NewReader(textOf(t, ts)), &cont, tcomp.WithSeed(int64(i))); err != nil {
				errs <- fmt.Errorf("client %d: %v", i, err)
				return
			}
			sr, err := tcomp.NewStreamReader(bytes.NewReader(cont.Bytes()))
			if err != nil {
				errs <- fmt.Errorf("client %d: %v", i, err)
				return
			}
			dec, err := sr.ReadAll()
			if err != nil {
				errs <- fmt.Errorf("client %d: %v", i, err)
				return
			}
			if !tcomp.VerifyLossless(ts, dec) {
				errs <- fmt.Errorf("client %d: lossy round trip", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if peak := s.Metrics().WorkersPeak.Value(); peak > budget {
		t.Fatalf("worker occupancy peaked at %d, budget is %d", peak, budget)
	}
	if s.WorkerBudget() != budget {
		t.Fatalf("WorkerBudget = %d, want %d", s.WorkerBudget(), budget)
	}
}

// TestHealthzAndDrainStatus pins the liveness contract.
func TestHealthzAndDrainStatus(t *testing.T) {
	s := mustServer(t, Config{Workers: 1})
	get := func() (int, string) {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		var body struct {
			Status string `json:"status"`
		}
		json.Unmarshal(rec.Body.Bytes(), &body)
		return rec.Code, body.Status
	}
	if code, status := get(); code != http.StatusOK || status != "ok" {
		t.Fatalf("healthz before drain: %d %q", code, status)
	}
	s.StartDrain()
	if code, status := get(); code != http.StatusServiceUnavailable || status != "draining" {
		t.Fatalf("healthz during drain: %d %q", code, status)
	}
}

// TestCodecsEndpoint: the registry listing carries every codec and its
// param schema.
func TestCodecsEndpoint(t *testing.T) {
	_, client := newTestServer(t, Config{Workers: 1})
	infos, err := client.Codecs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(infos))
	byName := map[string][]tcomp.CodecParam{}
	for i, info := range infos {
		names[i] = info.Name
		byName[info.Name] = info.Params
	}
	want := tcomp.Codecs()
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("codec listing %v, want %v", names, want)
	}
	var hasSeed bool
	for _, p := range byName["ea"] {
		if p.Query == "seed" {
			hasSeed = true
		}
	}
	if !hasSeed {
		t.Fatal("ea schema lacks the seed parameter")
	}
	if len(byName["fdr"]) != 0 {
		t.Fatalf("fdr schema should be empty, got %v", byName["fdr"])
	}
}

// TestMetricsEndpoint: counters move, the exposition renders them, and
// /metrics/prometheus is the one metrics route.
func TestMetricsEndpoint(t *testing.T) {
	s, client := newTestServer(t, Config{Workers: 2, CacheBytes: 1 << 20})
	ctx := context.Background()
	ts := randomSet(16, 10, 9)
	var cont bytes.Buffer
	if _, err := client.Compress(ctx, "golomb", bytes.NewReader(textOf(t, ts)), &cont); err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := client.Decompress(ctx, bytes.NewReader(cont.Bytes()), &text); err != nil {
		t.Fatal(err)
	}

	reqs := s.Metrics().Requests
	if reqs.Get("/v1/compress").Value() != 1 || reqs.Get("/v1/decompress").Value() != 1 {
		t.Fatalf("request counters: compress %d, decompress %d, want 1 each",
			reqs.Get("/v1/compress").Value(), reqs.Get("/v1/decompress").Value())
	}
	if reqs.Get("/v1/codecs") != nil {
		t.Fatal("Get of a never-requested path must return nil")
	}
	if s.Metrics().BytesIn.Value() == 0 || s.Metrics().BytesOut.Value() == 0 {
		t.Fatal("byte counters did not move")
	}
	if n := s.Metrics().Rates.Get("golomb").Count(); n != 1 {
		t.Fatalf("golomb rate histogram count %d, want 1", n)
	}

	// The HTTP endpoint serves the same exposition; the retired JSON
	// view is gone.
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics/prometheus", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics/prometheus: %d", rec.Code)
	}
	for _, want := range []string{
		`tcompd_requests_total{path="/v1/compress"} 1`,
		`tcompd_requests_total{path="/v1/decompress"} 1`,
		`tcompd_compression_rate_percent_count{codec="golomb"} 1`,
	} {
		if !strings.Contains(rec.Body.String(), "\n"+want+"\n") {
			t.Errorf("exposition missing %q", want)
		}
	}
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("GET /metrics: %d, want 404", rec.Code)
	}
}

// TestCompressErrors pins the error contract of the compress endpoint.
func TestCompressErrors(t *testing.T) {
	s := mustServer(t, Config{Workers: 1})
	do := func(method, target, body string) (int, string) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(method, target, strings.NewReader(body))
		s.Handler().ServeHTTP(rec, req)
		var e struct {
			Error string `json:"error"`
		}
		json.Unmarshal(rec.Body.Bytes(), &e)
		return rec.Code, e.Error
	}
	if code, msg := do(http.MethodGet, "/v1/compress?codec=golomb", ""); code != http.StatusMethodNotAllowed || msg == "" {
		t.Fatalf("GET: %d %q", code, msg)
	}
	if code, msg := do(http.MethodPost, "/v1/compress", "4 1\n0101\n"); code != http.StatusBadRequest || !strings.Contains(msg, "codec") {
		t.Fatalf("missing codec: %d %q", code, msg)
	}
	if code, msg := do(http.MethodPost, "/v1/compress?codec=nope", "4 1\n0101\n"); code != http.StatusBadRequest || !strings.Contains(msg, "nope") {
		t.Fatalf("unknown codec: %d %q", code, msg)
	}
	if code, _ := do(http.MethodPost, "/v1/compress?codec=golomb&format=v9", "4 1\n0101\n"); code != http.StatusBadRequest {
		t.Fatalf("bad format: %d", code)
	}
	if code, msg := do(http.MethodPost, "/v1/compress?codec=golomb&frobnicate=1", "4 1\n0101\n"); code != http.StatusBadRequest || !strings.Contains(msg, "frobnicate") {
		t.Fatalf("unknown param: %d %q", code, msg)
	}
	if code, _ := do(http.MethodPost, "/v1/compress?codec=golomb&chunk=99999999999", "4 1\n0101\n"); code != http.StatusBadRequest {
		t.Fatalf("oversized chunk: %d", code)
	}
	if code, _ := do(http.MethodPost, "/v1/compress?codec=golomb&seed=x", "4 1\n0101\n"); code != http.StatusBadRequest {
		t.Fatalf("non-integer seed: %d", code)
	}
	if code, _ := do(http.MethodPost, "/v1/compress?codec=golomb", "not a test set"); code != http.StatusBadRequest {
		t.Fatalf("bad body: %d", code)
	}
	if code, _ := do(http.MethodPost, "/v1/decompress", "junk"); code != http.StatusBadRequest {
		t.Fatalf("bad container: %d", code)
	}
}

// TestDecompressTruncatedStream: a truncated v3 container surfaces as
// an X-Tcomp-Error trailer naming the failing chunk, which the client
// turns into an error.
func TestDecompressTruncatedStream(t *testing.T) {
	_, client := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	ts := randomSet(16, 40, 17)
	var cont bytes.Buffer
	if _, err := client.Compress(ctx, "rl", bytes.NewReader(textOf(t, ts)), &cont, tcomp.WithChunkPatterns(8)); err != nil {
		t.Fatal(err)
	}
	trunc := cont.Bytes()[:cont.Len()-10]
	var text bytes.Buffer
	err := client.Decompress(ctx, bytes.NewReader(trunc), &text)
	if err == nil {
		t.Fatal("truncated container decompressed without error")
	}
	if !strings.Contains(err.Error(), "chunk") {
		t.Fatalf("error does not name the failing chunk: %v", err)
	}
}

// TestStreamCompressAbort: a failure mid-way through a streamed
// compression yields a *genuinely* truncated container — no v3
// terminator/trailer — plus an X-Tcomp-Error trailer, and the client
// surfaces it as an error rather than reporting success.
func TestStreamCompressAbort(t *testing.T) {
	// Tiny cache-input cap forces the streaming path; the malformed
	// pattern sits past the buffered prefix so the failure happens
	// after response bytes are already flowing.
	_, client := newTestServer(t, Config{Workers: 1, CacheInputBytes: 64})
	ctx := context.Background()
	ts := randomSet(32, 40, 31)
	text := textOf(t, ts)
	bad := append(append([]byte{}, text...), []byte("NOT-A-PATTERN\n")...)

	var cont bytes.Buffer
	_, err := client.Compress(ctx, "rl", bytes.NewReader(bad), &cont, tcomp.WithChunkPatterns(4))
	if err == nil {
		t.Fatal("mid-stream failure reported as success")
	}
	if !strings.Contains(err.Error(), "bad pattern") {
		t.Fatalf("trailer error not surfaced: %v", err)
	}
	// Whatever bytes arrived must NOT parse as a complete container.
	sr, err := tcomp.NewStreamReader(bytes.NewReader(cont.Bytes()))
	if err == nil {
		for {
			if _, err = sr.NextChunk(); err != nil {
				break
			}
		}
		if err == io.EOF {
			t.Fatal("aborted response still parses as a complete container")
		}
	}
}

// TestBinaryBodyCompress: the compress endpoint also accepts the packed
// binary test-set format and hashes it to the same cache address as the
// equivalent text.
func TestBinaryBodyCompress(t *testing.T) {
	_, client := newTestServer(t, Config{Workers: 1, CacheBytes: 1 << 20})
	ctx := context.Background()
	ts := randomSet(16, 10, 21)

	var bin bytes.Buffer
	if err := ts.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	var c1, c2 bytes.Buffer
	st1, err := client.Compress(ctx, "fdr", &bin, &c1)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := client.Compress(ctx, "fdr", bytes.NewReader(textOf(t, ts)), &c2)
	if err != nil {
		t.Fatal(err)
	}
	if st1.CacheHit || !st2.CacheHit {
		t.Fatalf("binary/text equivalence: first hit=%v second hit=%v, want false/true", st1.CacheHit, st2.CacheHit)
	}
	if !bytes.Equal(c1.Bytes(), c2.Bytes()) {
		t.Fatal("binary and textual submissions produced different containers")
	}
}

// TestBinaryHostileHeader: a TSET header declaring 100 patterns of the
// widest width over an empty or one-byte payload answers 400 at the
// cost of one read step, not of the declared width.
func TestBinaryHostileHeader(t *testing.T) {
	h := mustServer(t, Config{Workers: 1}).Handler()
	hdr := "TSET\x01\x01\x00\x00\x00\x00\x00\x00\x64" // width 2^24, 100 patterns
	for _, payload := range []string{"", "\x55"} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/compress?codec=golomb", strings.NewReader(hdr+payload)))
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "truncated binary payload") {
			t.Fatalf("payload %q: status %d, body %s", payload, rec.Code, rec.Body)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Fatalf("payload %q: allocated %d bytes, want under 1 MiB", payload, grew)
		}
	}
}

// TestStreamOverCacheCap: inputs past the cache input cap stream
// through uncached and still round-trip, with stats in trailers.
func TestStreamOverCacheCap(t *testing.T) {
	// A tiny cap forces the streaming path immediately.
	s, client := newTestServer(t, Config{Workers: 2, CacheBytes: 1 << 20, CacheInputBytes: 64})
	ctx := context.Background()
	ts := randomSet(32, 200, 23)
	var cont bytes.Buffer
	stats, err := client.Compress(ctx, "golomb", bytes.NewReader(textOf(t, ts)), &cont, tcomp.WithChunkPatterns(50))
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHit {
		t.Fatal("over-cap submission reported a cache hit")
	}
	if stats.Patterns != 200 || stats.Chunks != 4 {
		t.Fatalf("trailer stats %+v, want 200 patterns in 4 chunks", stats)
	}
	if s.Cache().Len() != 0 {
		t.Fatal("over-cap submission was cached")
	}
	sr, err := tcomp.NewStreamReader(bytes.NewReader(cont.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := sr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !tcomp.VerifyLossless(ts, dec) {
		t.Fatal("over-cap stream lost specified bits")
	}
}

// TestStreamOverCacheCapBinary: a TSET body past the cache input cap
// streams like text: no Content-Length, the stats in trailers, nothing
// cached, and a pattern corrupted past the cap ends the stream with
// X-Tcomp-Error.
func TestStreamOverCacheCapBinary(t *testing.T) {
	s := mustServer(t, Config{Workers: 2, CacheBytes: 1 << 20, CacheInputBytes: 64})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	ts := randomSet(32, 200, 23)
	var bin bytes.Buffer
	if err := ts.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	post := func(body []byte) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(hs.URL+"/v1/compress?codec=golomb&chunk=50", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, out)
		}
		return resp, out
	}

	resp, out := post(bin.Bytes())
	if resp.ContentLength != -1 || resp.Header.Get("Content-Length") != "" {
		t.Fatalf("over-cap answer has Content-Length %d, want none", resp.ContentLength)
	}
	if p, c := resp.Trailer.Get("X-Tcomp-Patterns"), resp.Trailer.Get("X-Tcomp-Chunks"); p != "200" || c != "4" {
		t.Fatalf("trailers give %q patterns in %q chunks, want 200 in 4", p, c)
	}
	if s.Cache().Len() != 0 {
		t.Fatal("over-cap submission was cached")
	}
	sr, err := tcomp.NewStreamReader(bytes.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := sr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !tcomp.VerifyLossless(ts, dec) {
		t.Fatal("over-cap stream lost specified bits")
	}

	// Pattern 150 (8 payload bytes per pattern, behind the 13-byte
	// header) starts with a 11 code.
	bad := append([]byte(nil), bin.Bytes()...)
	bad[13+150*8] |= 0xc0
	resp, _ = post(bad)
	if msg := resp.Trailer.Get("X-Tcomp-Error"); !strings.Contains(msg, "bad pattern 150") {
		t.Fatalf("X-Tcomp-Error %q, want the corrupt pattern named", msg)
	}
}
