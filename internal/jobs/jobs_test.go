package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	tcomp "repro"
	"repro/internal/artifact"
	"repro/internal/pipeline"
)

// gateCodec is a registry codec whose Compress blocks on a gate until
// released (or the context dies), then delegates to golomb. It gives the
// lifecycle tests a deterministic "job is mid-run right now" point.
type gateCodec struct {
	mu   sync.Mutex
	gate chan struct{}
}

func (g *gateCodec) Name() string { return "testgate" }

// block arms the gate: the next Compress calls wait until release.
func (g *gateCodec) block() {
	g.mu.Lock()
	g.gate = make(chan struct{})
	g.mu.Unlock()
}

func (g *gateCodec) release() {
	g.mu.Lock()
	if g.gate != nil {
		close(g.gate)
		g.gate = nil
	}
	g.mu.Unlock()
}

func (g *gateCodec) Compress(ctx context.Context, ts *tcomp.TestSet, opts ...tcomp.Option) (*tcomp.Artifact, error) {
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

func (g *gateCodec) Decompress(a *tcomp.Artifact) (*tcomp.TestSet, error) {
	c, err := tcomp.Lookup("golomb")
	if err != nil {
		return nil, err
	}
	return c.Decompress(a)
}

var testGate = func() *gateCodec {
	g := &gateCodec{}
	tcomp.Register(g)
	return g
}()

// panicCodec stands in for an undiscovered codec bug on the runner
// goroutine (the v2 path calls Compress directly, off the pipeline
// workers' recover).
type panicCodec struct{}

func (panicCodec) Name() string { return "jobspanic" }
func (panicCodec) Compress(context.Context, *tcomp.TestSet, ...tcomp.Option) (*tcomp.Artifact, error) {
	panic("jobspanic: compress bug")
}
func (panicCodec) Decompress(*tcomp.Artifact) (*tcomp.TestSet, error) {
	panic("jobspanic: decompress bug")
}

func init() { tcomp.Register(panicCodec{}) }

// testPatterns renders n patterns of the given width as a textual
// test-set blob (sparse care bits, like the paper's sets).
func testPatterns(n, width int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d %d\n", width, n)
	for i := 0; i < n; i++ {
		for j := 0; j < width; j++ {
			switch (i*7 + j) % 11 {
			case 0:
				b.WriteByte('0')
			case 3:
				b.WriteByte('1')
			default:
				b.WriteByte('x')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func newTestManager(t *testing.T, cfg Config) (*Manager, artifact.Store) {
	t.Helper()
	if cfg.Store == nil {
		cfg.Store = artifact.NewMemStore()
	}
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	return m, cfg.Store
}

func putBlob(t *testing.T, s artifact.Store, content string) artifact.Digest {
	t.Helper()
	d, _, err := s.Put(strings.NewReader(content))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// waitState polls until the job reaches want (or any terminal state) and
// returns the snapshot.
func waitState(t *testing.T, m *Manager, id string, want string) tcomp.JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, err := m.Get(id)
		if err != nil {
			t.Fatalf("job %s vanished: %v", id, err)
		}
		if j.State == want {
			return j
		}
		if j.Terminal() {
			t.Fatalf("job %s ended %s (error %q, code %q), want %s", id, j.State, j.Error, j.ErrorCode, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, j.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSubmitPollFetch drives the canonical lifecycle: submit a compress
// job, poll to done, fetch the artifact, and verify it decodes back to
// the submitted patterns.
func TestSubmitPollFetch(t *testing.T) {
	m, store := newTestManager(t, Config{})
	input := testPatterns(64, 32)
	d := putBlob(t, store, input)

	j, err := m.Submit(tcomp.JobSpec{
		Kind: KindCompress, Codec: "golomb", Input: string(d),
		Params: map[string]int64{"seed": 7, "chunk": 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	if j.State != tcomp.JobPending || j.ID == "" {
		t.Fatalf("fresh job %+v", j)
	}
	done := waitState(t, m, j.ID, tcomp.JobDone)
	if done.Output == "" || done.Stats == nil {
		t.Fatalf("done job missing output/stats: %+v", done)
	}
	if done.Stats.Patterns != 64 || done.Stats.Chunks != 4 {
		t.Fatalf("stats %+v, want 64 patterns in 4 chunks", done.Stats)
	}
	if done.Progress.Chunks != 4 {
		t.Fatalf("final progress %+v, want 4 chunks", done.Progress)
	}

	rc, _, fetched, err := m.Open(j.ID, "")
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if fetched.Output != done.Output {
		t.Fatalf("Open job snapshot disagrees: %s vs %s", fetched.Output, done.Output)
	}
	body, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(body)) != done.OutputSize {
		t.Fatalf("artifact is %d bytes, record says %d", len(body), done.OutputSize)
	}
	sr, err := tcomp.NewStreamReader(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := sr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	orig, err := tcomp.ReadTestSet(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if !tcomp.VerifyLossless(orig, dec) {
		t.Fatal("async artifact does not decode back to the submitted patterns")
	}
}

// TestDecompressJob feeds a compress job's artifact into a decompress
// job and verifies the textual output matches the original blob's
// patterns.
func TestDecompressJob(t *testing.T) {
	m, store := newTestManager(t, Config{})
	input := testPatterns(40, 24)
	d := putBlob(t, store, input)

	cj, err := m.Submit(tcomp.JobSpec{Kind: KindCompress, Codec: "rl", Input: string(d)})
	if err != nil {
		t.Fatal(err)
	}
	cdone := waitState(t, m, cj.ID, tcomp.JobDone)

	dj, err := m.Submit(tcomp.JobSpec{Kind: KindDecompress, Input: cdone.Output})
	if err != nil {
		t.Fatal(err)
	}
	ddone := waitState(t, m, dj.ID, tcomp.JobDone)
	rc, _, _, err := m.Open(dj.ID, "")
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	got, err := tcomp.ReadTestSet(rc)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := tcomp.ReadTestSet(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if !tcomp.VerifyLossless(orig, got) {
		t.Fatal("decompress job output does not match the original patterns")
	}
	if ddone.Stats == nil || ddone.Stats.Patterns != 40 {
		t.Fatalf("decompress stats %+v, want 40 patterns", ddone.Stats)
	}
}

// TestBinaryInputMatchesText: a TSET binary input blob compresses to
// the same bytes as its textual twin, in both container formats and in
// a sweep report; a corrupt binary blob fails the job as bad input.
func TestBinaryInputMatchesText(t *testing.T) {
	m, store := newTestManager(t, Config{})
	text := testPatterns(40, 24)
	ts, err := tcomp.ReadTestSet(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if err := ts.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	inputs := []artifact.Digest{putBlob(t, store, text), putBlob(t, store, bin.String())}
	specs := []tcomp.JobSpec{
		{Kind: KindCompress, Codec: "fdr", Format: "v2"},
		{Kind: KindCompress, Codec: "fdr", Format: "v3", Params: map[string]int64{"chunk": 16}},
		{Kind: KindSweep, Codecs: []string{"golomb", "rl"}},
	}
	for _, spec := range specs {
		var done []tcomp.JobStatus
		for _, in := range inputs {
			spec.Input = string(in)
			j, err := m.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			done = append(done, waitState(t, m, j.ID, tcomp.JobDone))
		}
		if done[0].Output != done[1].Output || *done[0].Stats != *done[1].Stats {
			t.Fatalf("%s %s: binary input gave %s %+v, text %s %+v", spec.Kind, spec.Format,
				done[1].Output, done[1].Stats, done[0].Output, done[0].Stats)
		}
	}
	j, err := m.Submit(tcomp.JobSpec{Kind: KindCompress, Codec: "fdr", Input: string(putBlob(t, store, "TSET\x01garbage"))})
	if err != nil {
		t.Fatal(err)
	}
	if got := waitState(t, m, j.ID, tcomp.JobFailed); !strings.Contains(got.Error, "testset: truncated binary header") {
		t.Fatalf("corrupt binary input failed with %q", got.Error)
	}
}

// TestSweepJob checks the multi-codec comparison artifact.
func TestSweepJob(t *testing.T) {
	m, store := newTestManager(t, Config{})
	d := putBlob(t, store, testPatterns(48, 24))
	j, err := m.Submit(tcomp.JobSpec{Kind: KindSweep, Codecs: []string{"golomb", "rl"}, Input: string(d)})
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, m, j.ID, tcomp.JobDone)
	rc, _, _, err := m.Open(j.ID, "")
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	var rep SweepReport
	if err := json.NewDecoder(rc).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Patterns != 48 || len(rep.Codecs) != 2 {
		t.Fatalf("report %+v, want 48 patterns over 2 codecs", rep)
	}
	for _, row := range rep.Codecs {
		if row.OriginalBits != 48*24 || row.CompressedBits <= 0 {
			t.Fatalf("codec row %+v has absurd accounting", row)
		}
	}
	if done.Progress.Chunks != 2 {
		t.Fatalf("sweep progress %+v, want 2 codecs completed", done.Progress)
	}
}

// TestCancelMidRun cancels a job stuck inside the codec and expects a
// cancelled record, not failed.
func TestCancelMidRun(t *testing.T) {
	testGate.block()
	defer testGate.release()
	m, store := newTestManager(t, Config{})
	d := putBlob(t, store, testPatterns(8, 16))
	j, err := m.Submit(tcomp.JobSpec{Kind: KindCompress, Codec: "testgate", Input: string(d)})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, j.ID, tcomp.JobRunning)
	if err := m.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, err := m.Get(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.Terminal() {
			if got.State != tcomp.JobCancelled {
				t.Fatalf("job ended %s (%s), want cancelled", got.State, got.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cancelled job never reached a terminal state")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Cancelling a terminal job is a tolerated no-op; result fetch is not.
	if err := m.Cancel(j.ID); err != nil {
		t.Fatalf("cancel of terminal job: %v", err)
	}
	if _, _, _, err := m.Open(j.ID, ""); !errors.Is(err, ErrNotDone) {
		t.Fatalf("Open on cancelled job = %v, want ErrNotDone", err)
	}
}

// TestCancelQueued cancels a job that never started.
func TestCancelQueued(t *testing.T) {
	testGate.block()
	defer testGate.release()
	m, store := newTestManager(t, Config{Workers: 1})
	d := putBlob(t, store, testPatterns(8, 16))
	// Fill the single worker with a gated job, then queue one more.
	blocker, err := m.Submit(tcomp.JobSpec{Kind: KindCompress, Codec: "testgate", Input: string(d)})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, blocker.ID, tcomp.JobRunning)
	queued, err := m.Submit(tcomp.JobSpec{Kind: KindCompress, Codec: "golomb", Input: string(d)})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	got, err := m.Get(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != tcomp.JobCancelled {
		t.Fatalf("queued job state %s after cancel, want cancelled", got.State)
	}
	testGate.release()
	waitState(t, m, blocker.ID, tcomp.JobDone)
}

// TestHeldJobDoesNotStallQueue: a job held mid-run occupies one worker
// and nothing else, so the short jobs queued behind it all finish on the
// other worker while it still runs.
func TestHeldJobDoesNotStallQueue(t *testing.T) {
	testGate.block()
	defer testGate.release()
	m, store := newTestManager(t, Config{Workers: 2, Limiter: pipeline.NewLimiter(2)})
	d := putBlob(t, store, testPatterns(8, 16))
	held, err := m.Submit(tcomp.JobSpec{Kind: KindCompress, Codec: "testgate", Input: string(d)})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, held.ID, tcomp.JobRunning)
	var short []string
	for i := 0; i < 10; i++ {
		j, err := m.Submit(tcomp.JobSpec{Kind: KindCompress, Codec: "golomb", Input: string(d)})
		if err != nil {
			t.Fatal(err)
		}
		short = append(short, j.ID)
	}
	for _, id := range short {
		waitState(t, m, id, tcomp.JobDone)
	}
	if got, err := m.Get(held.ID); err != nil || got.State != tcomp.JobRunning {
		t.Fatalf("held job is %s (%v) after the short jobs, want running", got.State, err)
	}
	testGate.release()
	waitState(t, m, held.ID, tcomp.JobDone)
}

// TestFailedJobCarriesTaxonomyCode: a decompress job over garbage input
// fails with the corrupt_container classification the sync endpoint
// would have used.
func TestFailedJobCarriesTaxonomyCode(t *testing.T) {
	m, store := newTestManager(t, Config{})
	d := putBlob(t, store, "this is not a container")
	j, err := m.Submit(tcomp.JobSpec{Kind: KindDecompress, Input: string(d)})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	var got tcomp.JobStatus
	for {
		got, err = m.Get(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got.State != tcomp.JobFailed {
		t.Fatalf("job ended %s, want failed", got.State)
	}
	if got.ErrorCode != "corrupt_container" {
		t.Fatalf("error code %q, want corrupt_container", got.ErrorCode)
	}
	if got.Error == "" {
		t.Fatal("failed job has no error message")
	}
}

// TestPanicContained: a codec that panics mid-job degrades to a failed
// job with the internal_panic classification — never a job stuck in
// "running" or a dead runner. Both container formats panic on different
// goroutines (v2 on the runner, v3 on a pipeline worker).
func TestPanicContained(t *testing.T) {
	log.SetOutput(io.Discard) // the contained stacks would drown the test output
	defer log.SetOutput(os.Stderr)
	m, store := newTestManager(t, Config{})
	d := putBlob(t, store, testPatterns(8, 16))
	for _, format := range []string{"v2", "v3"} {
		j, err := m.Submit(tcomp.JobSpec{Kind: KindCompress, Codec: "jobspanic", Format: format, Input: string(d)})
		if err != nil {
			t.Fatal(err)
		}
		got := waitState(t, m, j.ID, tcomp.JobFailed)
		if got.ErrorCode != "internal_panic" {
			t.Fatalf("%s: error code %q, want internal_panic", format, got.ErrorCode)
		}
	}
	// The manager still runs jobs after the panics.
	j, err := m.Submit(tcomp.JobSpec{Kind: KindCompress, Codec: "golomb", Input: string(d)})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, j.ID, tcomp.JobDone)
}

// TestQueueFull: with one gated worker and a tiny backlog bound, repeated
// submissions must hit ErrQueueFull.
func TestQueueFull(t *testing.T) {
	testGate.block()
	defer testGate.release()
	m, store := newTestManager(t, Config{Workers: 1, MaxQueued: 1})
	d := putBlob(t, store, testPatterns(8, 16))
	var full bool
	for i := 0; i < 10; i++ {
		_, err := m.Submit(tcomp.JobSpec{Kind: KindCompress, Codec: "testgate", Input: string(d)})
		if errors.Is(err, ErrQueueFull) {
			full = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !full {
		t.Fatal("10 submissions against MaxQueued=1 never returned ErrQueueFull")
	}
}

// TestSubmitValidation rejects malformed specs up front.
func TestSubmitValidation(t *testing.T) {
	m, store := newTestManager(t, Config{})
	d := putBlob(t, store, testPatterns(4, 8))
	cases := []tcomp.JobSpec{
		{Kind: "mine", Input: string(d)},
		{Kind: KindCompress, Codec: "no-such-codec", Input: string(d)},
		{Kind: KindCompress, Codec: "golomb", Format: "v9", Input: string(d)},
		{Kind: KindCompress, Codec: "golomb", Input: "not-a-digest"},
		{Kind: KindCompress, Codec: "golomb", Input: string(artifact.SumBytes([]byte("never stored")))},
		{Kind: KindCompress, Codec: "golomb", Input: string(d), Params: map[string]int64{"volume": 11}},
		{Kind: KindCompress, Codec: "golomb", Input: string(d), Params: map[string]int64{"k": 9999}},
		{Kind: KindDecompress, Input: string(d), Params: map[string]int64{"k": 4}},
		{Kind: KindSweep, Input: string(d)},
	}
	for i, spec := range cases {
		if _, err := m.Submit(spec); err == nil {
			t.Errorf("case %d: Submit(%+v) accepted a bad spec", i, spec)
		}
	}
	if len(m.List()) != 0 {
		t.Fatalf("rejected submissions left %d job records", len(m.List()))
	}
}

// TestRestartRecovery: a manager shut down mid-job parks the job as
// pending; a new manager over the same journal and store re-runs it to
// completion, and an already-done job's record plus artifact survive.
func TestRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	storeDir := t.TempDir()
	store1, err := artifact.NewDiskStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := NewManager(Config{Store: store1, Dir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	input := testPatterns(32, 16)
	d, _, err := store1.Put(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}

	// Job A completes before the restart.
	ja, err := m1.Submit(tcomp.JobSpec{Kind: KindCompress, Codec: "golomb", Input: string(d)})
	if err != nil {
		t.Fatal(err)
	}
	jaDone := waitState(t, m1, ja.ID, tcomp.JobDone)

	// Job B is gated mid-run when the daemon stops.
	testGate.block()
	jb, err := m1.Submit(tcomp.JobSpec{Kind: KindCompress, Codec: "testgate", Input: string(d)})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m1, jb.ID, tcomp.JobRunning)
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
	testGate.release()

	// "Restart": fresh store + manager over the same directories.
	store2, err := artifact.NewDiskStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := NewManager(Config{Store: store2, Dir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()

	// A's record and artifact survived.
	gotA, err := m2.Get(ja.ID)
	if err != nil {
		t.Fatalf("done job lost across restart: %v", err)
	}
	if gotA.State != tcomp.JobDone || gotA.Output != jaDone.Output {
		t.Fatalf("recovered job A = %+v, want done with output %s", gotA, jaDone.Output)
	}
	rc, _, _, err := m2.Open(ja.ID, "")
	if err != nil {
		t.Fatalf("done job's artifact not fetchable after restart: %v", err)
	}
	body, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	if string(artifact.SumBytes(body)) != jaDone.Output {
		t.Fatal("artifact bytes changed across restart")
	}

	// B was parked pending and now runs to completion.
	gotB := waitState(t, m2, jb.ID, tcomp.JobDone)
	if gotB.Output != jaDone.Output {
		// Same input, same codec family via the gate's golomb delegate, but
		// different codec name in the header — outputs differ; just check
		// it decodes.
		rc, _, _, err := m2.Open(jb.ID, "")
		if err != nil {
			t.Fatal(err)
		}
		defer rc.Close()
		sr, err := tcomp.NewStreamReader(rc)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := sr.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		orig, err := tcomp.ReadTestSet(strings.NewReader(input))
		if err != nil {
			t.Fatal(err)
		}
		if !tcomp.VerifyLossless(orig, dec) {
			t.Fatal("recovered job's artifact does not decode losslessly")
		}
	}
}

// TestRemove: record deletion demands a terminal state and clears the
// journal entry.
func TestRemove(t *testing.T) {
	dir := t.TempDir()
	m, store := newTestManager(t, Config{Dir: dir})
	d := putBlob(t, store, testPatterns(8, 16))
	j, err := m.Submit(tcomp.JobSpec{Kind: KindCompress, Codec: "golomb", Input: string(d)})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, j.ID, tcomp.JobDone)
	if err := m.Remove(j.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get(j.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after Remove = %v, want ErrNotFound", err)
	}
	if err := m.Remove(j.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double Remove = %v, want ErrNotFound", err)
	}
	// The journal entry is gone too: a restart sees nothing.
	m2, err := NewManager(Config{Store: store, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if n := len(m2.List()); n != 0 {
		t.Fatalf("restart after Remove found %d jobs", n)
	}
}

// TestResultGone: GC'ing the output artifact turns Open into
// ErrGone while the job record stays intact.
func TestResultGone(t *testing.T) {
	m, store := newTestManager(t, Config{})
	d := putBlob(t, store, testPatterns(8, 16))
	j, err := m.Submit(tcomp.JobSpec{Kind: KindCompress, Codec: "golomb", Input: string(d)})
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, m, j.ID, tcomp.JobDone)
	if err := store.Delete(artifact.Digest(done.Output)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := m.Open(j.ID, ""); !errors.Is(err, ErrGone) {
		t.Fatalf("Open after GC = %v, want ErrGone", err)
	}
	if got, err := m.Get(j.ID); err != nil || got.State != tcomp.JobDone {
		t.Fatalf("job record damaged by artifact GC: %+v, %v", got, err)
	}
}

// TestSharedLimiter: a job holds a token of the shared budget while
// running, exactly like a synchronous request.
func TestSharedLimiter(t *testing.T) {
	testGate.block()
	lim := pipeline.NewLimiter(1)
	m, store := newTestManager(t, Config{Workers: 4, Limiter: lim})
	d := putBlob(t, store, testPatterns(8, 16))
	j, err := m.Submit(tcomp.JobSpec{Kind: KindCompress, Codec: "testgate", Input: string(d)})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, j.ID, tcomp.JobRunning)
	// Busy-wait until the runner actually holds the token (Acquire happens
	// just after the running transition).
	deadline := time.Now().Add(5 * time.Second)
	for lim.TryAcquire() {
		lim.Release()
		if time.Now().After(deadline) {
			t.Fatal("running job never acquired the shared limiter token")
		}
		time.Sleep(time.Millisecond)
	}
	testGate.release()
	waitState(t, m, j.ID, tcomp.JobDone)
	if !lim.TryAcquire() {
		t.Fatal("finished job did not release the shared limiter token")
	}
	lim.Release()
}

// TestContentAddressedDedup: submitting the same work twice produces two
// job records but one output blob.
func TestContentAddressedDedup(t *testing.T) {
	m, store := newTestManager(t, Config{})
	d := putBlob(t, store, testPatterns(16, 16))
	spec := tcomp.JobSpec{Kind: KindCompress, Codec: "golomb", Input: string(d), Params: map[string]int64{"seed": 3}}
	j1, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	d1 := waitState(t, m, j1.ID, tcomp.JobDone)
	d2 := waitState(t, m, j2.ID, tcomp.JobDone)
	if d1.Output != d2.Output {
		t.Fatalf("identical submissions produced different outputs: %s vs %s", d1.Output, d2.Output)
	}
	blobs := store.Len()
	// input + one shared output = 2
	if blobs != 2 {
		t.Fatalf("store holds %d blobs, want 2 (deduped output)", blobs)
	}
}

// TestJournalKeepsLatestState journals one job from several goroutines
// while its state advances. The record on disk must equal the final
// state: a writer that snapshotted an older state must never land its
// record after a newer one.
func TestJournalKeepsLatestState(t *testing.T) {
	dir := t.TempDir()
	m, _ := newTestManager(t, Config{Dir: dir})
	for round := 0; round < 20; round++ {
		id := newID()
		m.mu.Lock()
		m.jobs[id] = &state{job: tcomp.JobStatus{ID: id, Spec: tcomp.JobSpec{Kind: KindCompress, Codec: "golomb"}, State: tcomp.JobRunning, Created: time.Now()}}
		m.order = append(m.order, id)
		m.mu.Unlock()
		const writers, steps = 8, 25
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < steps; i++ {
					m.mu.Lock()
					m.jobs[id].job.Progress.Chunks++
					m.mu.Unlock()
					m.journal(id)
				}
			}()
		}
		wg.Wait()
		b, err := os.ReadFile(m.journalPath(id))
		if err != nil {
			t.Fatal(err)
		}
		var onDisk tcomp.JobStatus
		if err := json.Unmarshal(b, &onDisk); err != nil {
			t.Fatal(err)
		}
		final, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if onDisk.Progress != final.Progress || onDisk.State != final.State {
			t.Fatalf("round %d: journal holds %+v in %s, final state is %+v in %s",
				round, onDisk.Progress, onDisk.State, final.Progress, final.State)
		}
	}
}
