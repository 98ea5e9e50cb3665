package serve

// End-to-end coverage of the async job API: the HTTP surface, the
// tcomp.Client job methods, durability across a daemon restart, and the
// artifact GC interplay — all through real request/response cycles.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	tcomp "repro"
	"repro/internal/artifact"
)

// serveGate is a registry codec whose Compress blocks until released —
// the deterministic "job is mid-run right now" hook for cancel and
// queue tests. It delegates to golomb once through the gate.
type serveGate struct {
	mu   sync.Mutex
	gate chan struct{}
}

func (g *serveGate) Name() string { return "servegate" }

func (g *serveGate) block() {
	g.mu.Lock()
	g.gate = make(chan struct{})
	g.mu.Unlock()
}

func (g *serveGate) release() {
	g.mu.Lock()
	if g.gate != nil {
		close(g.gate)
		g.gate = nil
	}
	g.mu.Unlock()
}

func (g *serveGate) Compress(ctx context.Context, ts *tcomp.TestSet, opts ...tcomp.Option) (*tcomp.Artifact, error) {
	g.mu.Lock()
	gate := g.gate
	g.mu.Unlock()
	if gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	c, err := tcomp.Lookup("golomb")
	if err != nil {
		return nil, err
	}
	return c.Compress(ctx, ts, opts...)
}

func (g *serveGate) Decompress(a *tcomp.Artifact) (*tcomp.TestSet, error) {
	c, err := tcomp.Lookup("golomb")
	if err != nil {
		return nil, err
	}
	return c.Decompress(a)
}

var gateCodec = func() *serveGate {
	g := &serveGate{}
	tcomp.Register(g)
	return g
}()

// jobCounter reads one key of the jobs metric map.
func jobCounter(s *Server, key string) int64 {
	v := s.Metrics().Jobs.Get(key)
	if v == nil {
		return 0
	}
	return v.Value()
}

// waitJobCounter polls a jobs counter up to its expected value: the
// Observe hook fires after the state transition is already visible over
// HTTP, so a fresh terminal state may precede its own count by a tick.
func waitJobCounter(t *testing.T, s *Server, key string, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for jobCounter(s, key) != want {
		if time.Now().After(deadline) {
			t.Fatalf("jobs.%s = %d, want %d", key, jobCounter(s, key), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAsyncJobLifecycle is the acceptance flow of the async subsystem:
// a multi-chunk v3 compression submitted as a job completes in the
// background with byte-identical output to the synchronous path, the
// job record and its artifact survive a daemon stop/start over the same
// store directory, and artifact GC turns the result into job_not_found
// while the record itself stays.
func TestAsyncJobLifecycle(t *testing.T) {
	dir := t.TempDir()
	jobDir := filepath.Join(dir, "jobs")
	store1, err := artifact.NewDiskStore(filepath.Join(dir, "artifacts"))
	if err != nil {
		t.Fatal(err)
	}
	s1 := mustServer(t, Config{Workers: 2, CacheBytes: 1 << 20, JobStore: store1, JobDir: jobDir})
	hs1 := httptest.NewServer(s1.Handler())
	client1 := tcomp.NewClient(hs1.URL)
	client1.PollInterval = 2 * time.Millisecond
	ctx := context.Background()

	ts := randomSet(32, 64, 9)
	in := textOf(t, ts)
	opts := []tcomp.Option{tcomp.WithSeed(7), tcomp.WithChunkPatterns(16)}

	// The synchronous reference: same codec, same params, same bytes.
	var syncOut bytes.Buffer
	if _, err := client1.Compress(ctx, "golomb", bytes.NewReader(in), &syncOut, opts...); err != nil {
		t.Fatal(err)
	}

	j, err := client1.SubmitCompressJob(ctx, "golomb", bytes.NewReader(in), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != tcomp.JobPending {
		t.Fatalf("fresh job is %q, want pending", j.State)
	}
	if j.Spec.Input == "" {
		t.Fatal("job record carries no input digest")
	}
	if j, err = client1.WaitJob(ctx, j.ID); err != nil {
		t.Fatal(err)
	}
	if j.State != tcomp.JobDone {
		t.Fatalf("job ended %q (%s: %s), want done", j.State, j.ErrorCode, j.Error)
	}
	if j.Stats == nil || j.Stats.Chunks != 4 || j.Stats.Patterns != 64 {
		t.Fatalf("job stats %+v, want 64 patterns in 4 chunks", j.Stats)
	}
	if j.Progress.Chunks != j.Stats.Chunks {
		t.Fatalf("final progress %+v does not match stats %+v", j.Progress, j.Stats)
	}
	if j.Output == "" || j.OutputSize <= 0 {
		t.Fatalf("done job carries no output (digest %q, size %d)", j.Output, j.OutputSize)
	}

	var asyncOut bytes.Buffer
	st, err := client1.JobResult(ctx, j.ID, &asyncOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(asyncOut.Bytes(), syncOut.Bytes()) {
		t.Fatalf("async result differs from the synchronous path: %d vs %d bytes",
			asyncOut.Len(), syncOut.Len())
	}
	if st.Chunks != 4 || st.Patterns != 64 {
		t.Fatalf("result headers report %+v, want 64 patterns in 4 chunks", st)
	}
	if got := jobCounter(s1, "submitted"); got != 1 {
		t.Fatalf("jobs.submitted = %d, want 1", got)
	}
	waitJobCounter(t, s1, "done", 1)

	// Listing includes the job.
	list, err := client1.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != j.ID {
		t.Fatalf("job listing %v does not contain exactly job %s", list, j.ID)
	}

	// Stop the daemon, start a fresh one over the same directories: the
	// record and the artifact must both have survived.
	hs1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	store2, err := artifact.NewDiskStore(filepath.Join(dir, "artifacts"))
	if err != nil {
		t.Fatal(err)
	}
	s2 := mustServer(t, Config{Workers: 2, JobStore: store2, JobDir: jobDir})
	hs2 := httptest.NewServer(s2.Handler())
	defer hs2.Close()
	client2 := tcomp.NewClient(hs2.URL)

	j2, err := client2.Job(ctx, j.ID)
	if err != nil {
		t.Fatalf("job record did not survive the restart: %v", err)
	}
	if j2.State != tcomp.JobDone || j2.Output != j.Output {
		t.Fatalf("restarted record %+v does not match the original (state %q, output %q)",
			j2, j.State, j.Output)
	}
	var afterRestart bytes.Buffer
	if _, err := client2.JobResult(ctx, j.ID, &afterRestart); err != nil {
		t.Fatalf("result not fetchable after restart: %v", err)
	}
	if !bytes.Equal(afterRestart.Bytes(), syncOut.Bytes()) {
		t.Fatal("post-restart result bytes differ")
	}
	// The fetched container still decodes losslessly.
	sr, err := tcomp.NewStreamReader(bytes.NewReader(afterRestart.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := sr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !tcomp.VerifyLossless(ts, dec) {
		t.Fatal("async round trip lost specified bits")
	}

	// GC expires the artifacts (everything is now "old" against a far
	// future clock): the result answers job_not_found, the record stays.
	swept := store2.Sweep(time.Now().Add(48*time.Hour), 24*time.Hour, 0)
	if swept.Expired == 0 {
		t.Fatal("sweep expired nothing")
	}
	if _, err := client2.JobResult(ctx, j.ID, &bytes.Buffer{}); !errors.Is(err, tcomp.ErrJobNotFound) {
		t.Fatalf("result after GC: %v, want ErrJobNotFound", err)
	}
	if j3, err := client2.Job(ctx, j.ID); err != nil || j3.State != tcomp.JobDone {
		t.Fatalf("job record after GC: %+v, %v — want the done record intact", j3, err)
	}
}

// TestAsyncJobMatchesSyncFormats carries TestAsyncJobLifecycle's
// sync-vs-async identity to the other sync answers: the buffered v2
// container, and a body over CacheInputBytes, which the sync endpoint
// answers uncached (v2 buffered, v3 streamed with trailers). Container
// bytes and size accounting must match the job's.
func TestAsyncJobMatchesSyncFormats(t *testing.T) {
	s := mustServer(t, Config{Workers: 2, CacheBytes: 1 << 20, CacheInputBytes: 1024})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	client := tcomp.NewClient(hs.URL)
	client.PollInterval = 2 * time.Millisecond
	ctx := context.Background()
	opts := []tcomp.Option{tcomp.WithSeed(7), tcomp.WithChunkPatterns(16)}

	for _, n := range []int{16, 200} { // 16·33 bytes fit the cap, 200·33 do not
		in := textOf(t, randomSet(32, n, 9))
		for _, format := range []string{"v2", "v3"} {
			label := fmt.Sprintf("%d patterns, %s", n, format)
			resp, err := http.Post(hs.URL+"/v1/compress?codec=golomb&seed=7&chunk=16&format="+format,
				"text/plain", bytes.NewReader(in))
			if err != nil {
				t.Fatal(err)
			}
			syncOut, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: sync status %d: %v", label, resp.StatusCode, err)
			}
			stat := func(key string) int {
				v := resp.Header.Get(key)
				if v == "" {
					v = resp.Trailer.Get(key)
				}
				i, _ := strconv.Atoi(v)
				return i
			}
			syncStats := tcomp.JobStats{
				Patterns: stat("X-Tcomp-Patterns"), Chunks: stat("X-Tcomp-Chunks"),
				OriginalBits: stat("X-Tcomp-Original-Bits"), CompressedBits: stat("X-Tcomp-Compressed-Bits"),
			}

			j, err := client.SubmitCompressJobFormat(ctx, "golomb", format, bytes.NewReader(in), opts...)
			if err != nil {
				t.Fatal(err)
			}
			if j, err = client.WaitJob(ctx, j.ID); err != nil || j.State != tcomp.JobDone {
				t.Fatalf("%s: job %+v: %v", label, j, err)
			}
			var asyncOut bytes.Buffer
			if _, err := client.JobResult(ctx, j.ID, &asyncOut); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(asyncOut.Bytes(), syncOut) {
				t.Fatalf("%s: async result differs from the synchronous path: %d vs %d bytes",
					label, asyncOut.Len(), len(syncOut))
			}
			if *j.Stats != syncStats || syncStats.Patterns != n {
				t.Fatalf("%s: job stats %+v, sync headers %+v", label, *j.Stats, syncStats)
			}
		}
	}
}

// TestAsyncJobCancelAndQueueFull: cancelling a running job over HTTP
// lands it in cancelled; overfilling the one-deep backlog answers 429
// queue_full (and counts it).
func TestAsyncJobCancelAndQueueFull(t *testing.T) {
	gateCodec.block()
	defer gateCodec.release()
	s, client := newTestServer(t, Config{Workers: 2, JobWorkers: 1, MaxQueuedJobs: 1})
	client.PollInterval = 2 * time.Millisecond
	ctx := context.Background()
	in := textOf(t, randomSet(16, 8, 4))

	blocker, err := client.SubmitCompressJob(ctx, "servegate", bytes.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until it is actually mid-run, then fill the backlog.
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, err := client.Job(ctx, blocker.ID)
		if err != nil {
			t.Fatal(err)
		}
		if j.State == tcomp.JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started running (state %q)", j.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// A running job has no result yet: 409 job_not_done.
	if _, err := client.JobResult(ctx, blocker.ID, &bytes.Buffer{}); !errors.Is(err, tcomp.ErrJobNotDone) {
		t.Fatalf("result of a running job: %v, want ErrJobNotDone", err)
	}

	var sawFull bool
	for i := 0; i < 10 && !sawFull; i++ {
		_, err := client.SubmitCompressJob(ctx, "servegate", bytes.NewReader(in))
		switch {
		case err == nil:
		case errors.Is(err, tcomp.ErrQueueFull):
			sawFull = true
			var re *tcomp.RemoteError
			if !errors.As(err, &re) || re.Status != 429 || re.Code != CodeQueueFull {
				t.Fatalf("queue-full error is %#v, want HTTP 429 queue_full", err)
			}
		default:
			t.Fatal(err)
		}
	}
	if !sawFull {
		t.Fatal("backlog never reported queue_full")
	}
	if got := jobCounter(s, "queue_full"); got == 0 {
		t.Fatal("jobs.queue_full counter never moved")
	}

	// DELETE the running job: it ends cancelled.
	if _, err := client.CancelJob(ctx, blocker.ID); err != nil {
		t.Fatal(err)
	}
	j, err := client.WaitJob(ctx, blocker.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != tcomp.JobCancelled {
		t.Fatalf("job ended %q, want cancelled", j.State)
	}
	// Release the gate so the queued survivors finish and Close is quick.
	gateCodec.release()
	waitJobCounter(t, s, "cancelled", 1)

	// A second DELETE on the now-terminal job removes the record.
	if _, err := client.CancelJob(ctx, blocker.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Job(ctx, blocker.ID); !errors.Is(err, tcomp.ErrJobNotFound) {
		t.Fatalf("removed job still answers: %v, want ErrJobNotFound", err)
	}
}

// TestAsyncJobErrors: the job taxonomy over real HTTP — unknown IDs are
// 404 job_not_found, a failed job's result is 409 job_not_done carrying
// the job's own failure code, and a bad submission is rejected with 400
// before a record is created.
func TestAsyncJobErrors(t *testing.T) {
	s, client := newTestServer(t, Config{Workers: 2})
	client.PollInterval = 2 * time.Millisecond
	ctx := context.Background()

	if _, err := client.Job(ctx, "j0123456789abcdef"); !errors.Is(err, tcomp.ErrJobNotFound) {
		t.Fatalf("unknown job: %v, want ErrJobNotFound", err)
	}
	var re *tcomp.RemoteError
	if _, err := client.JobResult(ctx, "nonsense-id", &bytes.Buffer{}); !errors.As(err, &re) || re.Status != 404 {
		t.Fatalf("unknown job result: %v, want HTTP 404", err)
	}

	// A decompress job over garbage fails with the sync taxonomy code.
	j, err := client.SubmitDecompressJob(ctx, strings.NewReader("this is not a container"))
	if err != nil {
		t.Fatal(err)
	}
	if j, err = client.WaitJob(ctx, j.ID); err != nil {
		t.Fatal(err)
	}
	if j.State != tcomp.JobFailed || j.ErrorCode != CodeCorruptContainer {
		t.Fatalf("garbage decompress ended %q/%q, want failed/corrupt_container", j.State, j.ErrorCode)
	}
	_, err = client.JobResult(ctx, j.ID, &bytes.Buffer{})
	if !errors.Is(err, tcomp.ErrJobNotDone) {
		t.Fatalf("failed job result: %v, want ErrJobNotDone", err)
	}
	if !errors.As(err, &re) || !strings.Contains(re.Message, CodeCorruptContainer) {
		t.Fatalf("409 detail %v does not name the job's failure code", err)
	}
	waitJobCounter(t, s, "failed", 1)

	// Bad submissions: unknown codec, unknown parameter, out-of-range
	// parameter, unknown kind — all 400, no record left behind.
	bad := []string{
		"kind=compress&codec=nope",
		"kind=compress&codec=golomb&bogus=1",
		"kind=compress&codec=golomb&m=999999999",
		"kind=frobnicate",
		"kind=sweep",
		"kind=decompress&codec=golomb",
	}
	h := s.Handler()
	for _, q := range bad {
		req := httptest.NewRequest("POST", "/v1/jobs?"+q, bytes.NewReader(textOf(t, randomSet(8, 2, 1))))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 400 {
			t.Fatalf("submission %q: status %d, want 400", q, rec.Code)
		}
		if got := rec.Header().Get("X-Tcomp-Error-Code"); got != CodeBadRequest {
			t.Fatalf("submission %q: error code %q, want bad_request", q, got)
		}
	}
	list, err := client.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 {
		t.Fatalf("%d job records after the rejected submissions, want 1", len(list))
	}
}
