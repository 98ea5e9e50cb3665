package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"time"

	tcomp "repro"
	"repro/internal/container"
	"repro/internal/iscasgen"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/serve"
)

// serve-mix: the daemon's sync and async paths with the fast codecs. It
// runs text parse, HTTP, the handler, the result cache, containers v2 and
// v3, six codecs' encode and decode and the job queue, and no EA:
// compress beside decompress, cache hits beside misses, sync beside
// async, so a gain on one path that costs another shows.
func init() {
	workloads["serve-mix"] = &workload{clients: 2, setup: setupServe}
}

// serveMaxBits caps every input at two default stream chunks.
const serveMaxBits = 2 * tcomp.DefaultChunkBits

// servePoll is WaitJob's fixed polling interval, far below an async
// operation's time. The client's default backoff grows to 3 s.
const servePoll = 2 * time.Millisecond

// The op kinds. Of every 8 ops, 6 are sync v3 (the CLI path), 1 sync v2
// (the library path) and 1 async. The split is a guess: there is no
// production traffic to copy.
const (
	kindV3 = iota
	kindV2
	kindAsync
)

var kindNames = [...]string{"v3", "v2", "async"}

func opKind(entry int) int {
	switch entry % 8 {
	case 6:
		return kindV2
	case 7:
		return kindAsync
	}
	return kindV3
}

// repeatEvery makes every 4th sync op repeat an earlier op exactly, so
// the cache answers it. Also a guess.
const repeatEvery = 4

// daemon is an in-process tcompd: serve.New configured as tcompd runs
// with no flags, on a loopback listener.
type daemon struct {
	srv       *serve.Server
	hs        *http.Server
	transport *http.Transport
	client    *tcomp.Client
	served    chan struct{} // closed when Serve returns
}

// discardLogger is tcompd's default logger, text at info level, writing
// to io.Discard: the per-request formatting cost stays in the numbers,
// terminal writes stay out.
func discardLogger() *slog.Logger {
	logger, _ := obs.NewLogger(io.Discard, slog.LevelInfo, obs.LogText) // the text format cannot fail
	return logger
}

// tcompdConfig is serve.Config as tcompd builds it with no flags: a 256
// MiB result cache, an in-memory artifact store and 2 job workers.
func tcompdConfig() serve.Config {
	return serve.Config{
		CacheBytes:      256 << 20,
		CacheInputBytes: 8 << 20,
		MaxBodyBytes:    1 << 30,
		MaxQueuedJobs:   64,
		JobWorkers:      2,
		Logger:          discardLogger(),
	}
}

func startDaemon(poll time.Duration) (*daemon, error) {
	srv, err := serve.New(tcompdConfig())
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{
		srv:       srv,
		hs:        &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		transport: http.DefaultTransport.(*http.Transport).Clone(),
		served:    make(chan struct{}),
	}
	d.transport.MaxIdleConnsPerHost = 16
	d.client = tcomp.NewClient("http://" + ln.Addr().String())
	d.client.HTTPClient = &http.Client{Transport: d.transport}
	d.client.PollInterval = poll
	go func() {
		defer close(d.served)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return d, nil
}

func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = d.hs.Shutdown(ctx) // a timeout leaves nothing to clean up but the listener, which Shutdown closed
	<-d.served
	d.transport.CloseIdleConnections()
	_ = d.srv.Close()
}

type serveSet struct {
	name string
	ts   *tcomp.TestSet
	text []byte
}

// servePlanned is one entry of the rotation.
type servePlanned struct {
	kind   int
	set    int
	codec  string
	repeat int // entry this one repeats exactly, or -1
}

// serveRec is what a traced op keeps for its replay.
type serveRec struct {
	i            int
	src          int // op whose parameters it ran (itself unless a repeat)
	p            servePlanned
	hit          bool
	cont         []byte // container bytes as the client received them
	compressID   int64
	decompressID int64
	runID        int64
	pollMs       float64 // from the job's end to WaitJob's return
	fetchMs      float64
	queueMs      float64
	runMs        float64
}

type serveMix struct {
	d     *daemon
	seed  int64
	sets  []serveSet
	plan  []servePlanned
	genMs float64

	mu        sync.Mutex // guards done, recs, traceFrom
	done      map[int]chan struct{}
	recs      []serveRec
	traceFrom int
	metrics0  serveCounters
}

// serveInputs generates the 68 Table 1 and Table 2 sets, each capped at
// serveMaxBits, and their textual form.
func serveInputs(seed int64) ([]serveSet, error) {
	var sets []serveSet
	for _, m := range append(iscasgen.Table1(), iscasgen.Table2()...) {
		ts, err := iscasgen.Generate(m, iscasgen.GenOptions{Seed: seed, MaxBits: serveMaxBits})
		if err != nil {
			return nil, fmt.Errorf("generating %s/%s: %w", m.Name, m.Kind, err)
		}
		var text bytes.Buffer
		if err := ts.Write(&text); err != nil {
			return nil, err
		}
		sets = append(sets, serveSet{
			name: m.Name + "/" + m.Kind.String(),
			ts:   ts,
			text: text.Bytes(),
		})
	}
	return sets, nil
}

// planSeed fixes the rotation's schedule. The workload seed varies the
// test sets' contents and the ops' seeds, not which input, codec and
// kind each op has. The few 2 Mbit inputs set the rotation's time; a
// schedule drawn per seed would change how many of them take the
// costlier v2 and async paths or are answered by the cache.
const planSeed = 1

// servePlan lays out one rotation: every (set, codec) pair once as a
// fresh op, in seeded order, with the kind fixed by position and every
// repeatEvery-th sync op a repeat of one of the last 8 fresh sync ops.
// The rotation is extended by one op if needed to make its length odd.
func servePlan(nsets int, seed int64) []servePlanned {
	rng := rand.New(rand.NewSource(seed))
	type pair struct {
		set   int
		codec string
	}
	var pairs []pair
	for s := 0; s < nsets; s++ {
		for _, c := range fastCodecs {
			pairs = append(pairs, pair{s, c})
		}
	}
	rng.Shuffle(len(pairs), func(a, b int) { pairs[a], pairs[b] = pairs[b], pairs[a] })
	var plan []servePlanned
	var freshSync []int
	fresh, nsync := 0, 0
	for fresh < len(pairs) || len(plan)%2 == 0 {
		e := len(plan)
		kind := opKind(e)
		if kind != kindAsync {
			nsync++
			if nsync%repeatEvery == 0 {
				back := freshSync[max(0, len(freshSync)-8):]
				plan = append(plan, servePlanned{kind: -1, repeat: back[rng.Intn(len(back))]})
				continue
			}
			freshSync = append(freshSync, e)
		}
		p := pairs[fresh%len(pairs)]
		fresh++
		plan = append(plan, servePlanned{kind: kind, set: p.set, codec: p.codec, repeat: -1})
	}
	for e := range plan {
		if r := plan[e].repeat; r >= 0 {
			plan[e] = servePlanned{kind: plan[r].kind, set: plan[r].set, codec: plan[r].codec, repeat: r}
		}
	}
	return plan
}

func setupServe(seed int64) (instance, error) {
	t0 := time.Now()
	sets, err := serveInputs(seed)
	if err != nil {
		return nil, err
	}
	genMs := ms(time.Since(t0))
	d, err := startDaemon(servePoll)
	if err != nil {
		return nil, err
	}
	w := &serveMix{d: d, seed: seed, sets: sets, plan: servePlan(len(sets), planSeed), genMs: genMs,
		done: map[int]chan struct{}{}, traceFrom: -1}
	// Warm-up: one op of each kind on the smallest set, at seeds no timed
	// op uses, so no timed key enters the cache.
	small := 0
	for i, s := range sets {
		if len(s.text) < len(sets[small].text) {
			small = i
		}
	}
	for k := kindV3; k <= kindAsync; k++ {
		p := servePlanned{kind: k, set: small, codec: "golomb", repeat: -1}
		if _, _, err := w.run(context.Background(), p, -1-int64(k), nil, nil); err != nil {
			d.close()
			return nil, fmt.Errorf("warm-up %s: %w", kindNames[k], err)
		}
	}
	return w, nil
}

func (w *serveMix) rotation() int { return len(w.plan) }
func (w *serveMix) close()        { w.d.close() }

// opSeed is op i's seed: unique to the op, so only the deliberate
// repeats hit the cache. The seed is part of the cache key but does not
// change these codecs' bytes.
func (w *serveMix) opSeed(i int) int64 { return pipeline.Seed(w.seed, i) & math.MaxInt64 }

func (w *serveMix) doneCh(i int) chan struct{} {
	w.mu.Lock()
	defer w.mu.Unlock()
	ch, ok := w.done[i]
	if !ok {
		ch = make(chan struct{})
		w.done[i] = ch
	}
	return ch
}

func (w *serveMix) op(ctx context.Context, i int, tr *tracer) (outcome, error) {
	done := w.doneCh(i)
	defer close(done)
	rot := len(w.plan)
	p := w.plan[i%rot]
	src := i
	if p.repeat >= 0 {
		src = i - i%rot + p.repeat
		<-w.doneCh(src) // its result is in the cache once it has finished
	}
	seed := w.opSeed(src)
	root := tr.root(i, "op")
	root.set("kind", kindNames[p.kind])
	root.set("codec", p.codec)
	root.set("set", w.sets[p.set].name)
	var rec *serveRec
	if tr != nil {
		rec = &serveRec{i: i, src: src, p: p}
	}
	t0 := time.Now()
	cont, stats, err := w.run(ctx, p, seed, root, rec)
	lat := time.Since(t0)
	root.end()
	if err != nil {
		return outcome{}, err
	}
	if stats.v2 != nil {
		var buf bytes.Buffer
		if err := tcomp.Write(&buf, stats.v2); err != nil {
			return outcome{}, err
		}
		cont = buf.Bytes()
	}
	if rec != nil {
		rec.cont = cont
		w.keep(rec, rot)
	}
	// The key leaves the seed out: it does not change these codecs'
	// bytes, so every rotation's fresh op, a cache miss at a new seed, is
	// checked against the bytes of the pair's first op.
	return outcome{
		lat:      lat,
		key:      fmt.Sprintf("%s|%s|%s", w.sets[p.set].name, p.codec, kindNames[p.kind]),
		digest:   sha256.Sum256(cont),
		origBits: int64(stats.OriginalBits),
		compBits: int64(stats.CompressedBits),
	}, nil
}

// keep stores the record of a traced op. Container bytes are kept for
// the first traced rotation only, the one the replay covers.
func (w *serveMix) keep(rec *serveRec, rot int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.traceFrom < 0 {
		w.traceFrom = rec.i - rec.i%rot
	}
	if rec.i >= w.traceFrom+rot {
		rec.cont = nil
	}
	w.recs = append(w.recs, *rec)
}

// sizeStats is an op's size accounting. A v2 op also returns the
// artifact the client parsed, which the caller serializes to container
// bytes outside the timed op.
type sizeStats struct {
	OriginalBits, CompressedBits int
	v2                           *tcomp.Artifact
}

// run performs one op of kind p.kind and checks that the decompressed
// patterns are compatible with the submitted set. It returns the
// container bytes of a v3 or async op.
func (w *serveMix) run(ctx context.Context, p servePlanned, seed int64, root *span, rec *serveRec) ([]byte, sizeStats, error) {
	s := w.sets[p.set]
	c := w.d.client
	opt := tcomp.WithSeed(seed)
	var cont []byte
	var st sizeStats
	var dec *tcomp.TestSet
	switch p.kind {
	case kindV2:
		sp := root.child("client.compress_set")
		art, rs, err := c.CompressSet(ctx, p.codec, s.ts, opt)
		sp.end()
		if err != nil {
			return nil, st, fmt.Errorf("compress %s %s v2: %w", s.name, p.codec, err)
		}
		dp := root.child("client.decompress_set")
		dec, err = c.DecompressSet(ctx, art)
		dp.end()
		if err != nil {
			return nil, st, fmt.Errorf("decompress %s %s v2: %w", s.name, p.codec, err)
		}
		st = sizeStats{rs.OriginalBits, rs.CompressedBits, art}
		if rec != nil {
			rec.hit, rec.compressID, rec.decompressID = rs.CacheHit, sp.id(), dp.id()
		}
	case kindV3, kindAsync:
		var buf bytes.Buffer
		if p.kind == kindV3 {
			sp := root.child("client.compress")
			rs, err := c.Compress(ctx, p.codec, bytes.NewReader(s.text), &buf, opt)
			sp.end()
			if err != nil {
				return nil, st, fmt.Errorf("compress %s %s: %w", s.name, p.codec, err)
			}
			st = sizeStats{OriginalBits: rs.OriginalBits, CompressedBits: rs.CompressedBits}
			if rec != nil {
				rec.hit, rec.compressID = rs.CacheHit, sp.id()
			}
		} else {
			var err error
			if st, err = w.async(ctx, p, s, opt, &buf, root, rec); err != nil {
				return nil, st, err
			}
		}
		cont = buf.Bytes()
		dp := root.child("client.decompress")
		var text bytes.Buffer
		err := c.Decompress(ctx, bytes.NewReader(cont), &text)
		dp.end()
		if err != nil {
			return nil, st, fmt.Errorf("decompress %s %s: %w", s.name, p.codec, err)
		}
		if rec != nil {
			rec.decompressID = dp.id()
		}
		pp := root.child("testset.parse")
		pp.set("bytes", text.Len())
		dec, err = tcomp.ReadTestSet(&text)
		pp.end()
		if err != nil {
			return nil, st, fmt.Errorf("parsing decompressed %s: %w", s.name, err)
		}
	}
	vp := root.child("testset.verify")
	ok := s.ts.Compatible(dec)
	vp.end()
	if !ok {
		return nil, st, fmt.Errorf("%s %s %s: decompressed patterns lost specified bits", s.name, p.codec, kindNames[p.kind])
	}
	return cont, st, nil
}

// async submits a compress job, waits for it and fetches its container.
func (w *serveMix) async(ctx context.Context, p servePlanned, s serveSet, opt tcomp.Option, out *bytes.Buffer, root *span, rec *serveRec) (sizeStats, error) {
	c := w.d.client
	sp := root.child("client.submit")
	js, err := c.SubmitCompressJob(ctx, p.codec, bytes.NewReader(s.text), opt)
	sp.end()
	if err != nil {
		return sizeStats{}, fmt.Errorf("submit %s %s: %w", s.name, p.codec, err)
	}
	wp := root.child("client.wait")
	fin, err := c.WaitJob(ctx, js.ID)
	waited := time.Now()
	wp.end()
	if err != nil {
		return sizeStats{}, fmt.Errorf("wait %s: %w", js.ID, err)
	}
	if fin.State != tcomp.JobDone || fin.Stats == nil {
		return sizeStats{}, fmt.Errorf("job %s %s: state %s: %s", js.ID, s.name, fin.State, fin.Error)
	}
	fp := root.child("artifact.fetch")
	_, err = c.JobResult(ctx, js.ID, out)
	fetchMs := fp.end()
	if err != nil {
		return sizeStats{}, fmt.Errorf("job result %s: %w", js.ID, err)
	}
	if rec != nil {
		wp.interval("jobs.queue", fin.Created, fin.Started)
		rec.runID = wp.interval("jobs.run", fin.Started, fin.Finished)
		rec.pollMs, rec.fetchMs = ms(waited.Sub(fin.Finished)), fetchMs
		rec.queueMs = ms(fin.Started.Sub(fin.Created))
		rec.runMs = ms(fin.Finished.Sub(fin.Started))
	}
	return sizeStats{OriginalBits: fin.Stats.OriginalBits, CompressedBits: fin.Stats.CompressedBits}, nil
}

type serveCounters struct{ hits, misses, in, out int64 }

func (w *serveMix) counters() serveCounters {
	m := w.d.srv.Metrics()
	return serveCounters{m.CacheHits.Value(), m.CacheMisses.Value(), m.BytesIn.Value(), m.BytesOut.Value()}
}

func (w *serveMix) beginTrace() { w.metrics0 = w.counters() }

// replayEvery samples the ops of the first traced rotation that are
// replayed: every third, all kinds alike as the kind cycles every 8. A
// replay costs about three times the op's codec work, serially.
const replayEvery = 3

// layers replays a sample of the first traced rotation (replayEvery)
// through the next entry points inward: the handler of a twin server
// with the cache off, the stream or v2 container, the codec and the
// text format.
func (w *serveMix) layers(ctx context.Context, tr *tracer, ph *phase) (map[string]metric, []string, error) {
	l := newLayerSet()
	m1 := w.counters()
	d := serveCounters{m1.hits - w.metrics0.hits, m1.misses - w.metrics0.misses, m1.in - w.metrics0.in, m1.out - w.metrics0.out}
	if d.hits+d.misses > 0 {
		l.set("serve.cache_hit_pct", 100*float64(d.hits)/float64(d.hits+d.misses))
	}
	ops := float64(ph.attempted)
	l.set("serve.bytes_in_per_op", float64(d.in)/ops)
	l.set("serve.bytes_out_per_op", float64(d.out)/ops)
	l.set("iscasgen.generate_ms", w.genMs)

	var async, queue, run, poll, fetch float64
	for _, r := range w.recs {
		if r.p.kind == kindAsync {
			async++
			queue += r.queueMs
			run += r.runMs
			poll += r.pollMs
			fetch += r.fetchMs
		}
	}
	if async > 0 {
		l.set("jobs.queue_wait_ms", queue/async)
		l.set("jobs.run_ms", run/async)
		l.set("client.poll_wait_ms", poll/async)
		l.set("artifact.fetch_ms", fetch/async)
	}

	cfg := tcompdConfig()
	cfg.CacheBytes = 0
	twin, err := serve.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	defer twin.Close()
	rp := &replayer{tr: tr, h: twin.Handler()}
	rot := len(w.plan)
	replayed := map[int64]bool{}
	golomb := map[int64]bool{} // replayed fresh sync v3 golomb ops
	for _, r := range w.recs {
		if r.i >= w.traceFrom+rot || (r.i-w.traceFrom)%replayEvery != 0 {
			continue
		}
		if err := rp.serveOp(ctx, w.sets[r.p.set], w.opSeed(r.src), r); err != nil {
			return nil, nil, fmt.Errorf("replay of op %d: %w", r.i, err)
		}
		replayed[int64(r.i)] = true
		if r.p.kind == kindV3 && r.p.codec == "golomb" && !r.hit {
			golomb[int64(r.i)] = true
		}
	}
	spans := tr.snapshot()
	spanMetrics(l, spans)
	isReplayed := func(s spanRec) bool { return s.Name == "op" && replayed[s.Op] }
	self, _, _ := ledgerOf(spans, isReplayed)
	ledgerMetrics(l, self)
	notes := []string{
		ledgerTable("one serve-mix op, mean of the replayed ops", spans, isReplayed),
		ledgerTable("one serve-mix golomb v3 op, mean of the replayed ones", spans,
			func(s spanRec) bool { return s.Name == "op" && golomb[s.Op] }),
	}
	return l, notes, nil
}

// replayer re-runs ops through the inner entry points.
type replayer struct {
	tr *tracer
	h  http.Handler
}

// serveHTTP calls the twin handler in-process under span parent and
// returns the response body and the handler span, under which the
// handler's inner layers are replayed.
func (rp *replayer) serveHTTP(parent *span, target string, body []byte) ([]byte, *span, error) {
	hs := parent.child("serve.handler")
	req := httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body))
	rr := httptest.NewRecorder()
	rp.h.ServeHTTP(rr, req)
	hs.end()
	if rr.Code != http.StatusOK {
		return nil, nil, fmt.Errorf("twin handler %s: HTTP %d: %s", target, rr.Code, rr.Body.String())
	}
	return rr.Body.Bytes(), hs, nil
}

func (rp *replayer) serveOp(ctx context.Context, s serveSet, seed int64, r serveRec) error {
	q := url.Values{"codec": {r.p.codec}, "seed": {strconv.FormatInt(seed, 10)}}
	switch r.p.kind {
	case kindV3:
		if !r.hit {
			cs := rp.tr.handle(r.i, r.compressID)
			if err := rp.compressV3(ctx, cs, "/v1/compress?"+q.Encode(), s, seed, r); err != nil {
				return err
			}
		}
		return rp.decompressV3(rp.tr.handle(r.i, r.decompressID), r.cont)
	case kindAsync:
		run := rp.tr.handle(r.i, r.runID)
		pp := run.child("testset.parse")
		pp.set("bytes", len(s.text))
		ts, err := tcomp.ReadTestSet(bytes.NewReader(s.text))
		pp.end()
		if err != nil {
			return err
		}
		if err := rp.streamWrite(ctx, run, ts, r.p.codec, seed, r.cont); err != nil {
			return err
		}
		return rp.decompressV3(rp.tr.handle(r.i, r.decompressID), r.cont)
	case kindV2:
		q.Set("format", "v2")
		if !r.hit {
			cs := rp.tr.handle(r.i, r.compressID)
			if err := rp.compressV2(ctx, cs, "/v1/compress?"+q.Encode(), s, seed, r); err != nil {
				return err
			}
		}
		return rp.decompressV2(rp.tr.handle(r.i, r.decompressID), r.cont)
	}
	return fmt.Errorf("unknown op kind %d", r.p.kind)
}

func (rp *replayer) compressV3(ctx context.Context, cs *span, target string, s serveSet, seed int64, r serveRec) error {
	body, h, err := rp.serveHTTP(cs, target, s.text)
	if err != nil {
		return err
	}
	if !bytes.Equal(body, r.cont) {
		return fmt.Errorf("twin handler returned other container bytes than the daemon (%s %s %d vs %d bytes)", s.name, r.p.codec, len(body), len(r.cont))
	}
	pp := h.child("testset.parse")
	pp.set("bytes", len(s.text))
	ts, err := tcomp.ReadTestSet(bytes.NewReader(s.text))
	pp.end()
	if err != nil {
		return err
	}
	return rp.streamWrite(ctx, h, ts, r.p.codec, seed, r.cont)
}

// streamWrite replays the v3 framing under parent, then the codec work
// it wraps as its child: the chunks compressed concurrently the way the
// stream writer does, so the frame's self time is the framing alone.
func (rp *replayer) streamWrite(ctx context.Context, parent *span, ts *tcomp.TestSet, codec string, seed int64, want []byte) error {
	sw := parent.child("stream.write")
	var buf bytes.Buffer
	w, err := tcomp.NewStreamWriter(ctx, &buf, codec, ts.Width, tcomp.WithSeed(seed))
	if err == nil {
		if err = w.WriteSet(ts); err != nil {
			_ = w.Close() // the WriteSet error is the one to report
		} else {
			err = w.Close()
		}
	}
	sw.end()
	if err != nil {
		return err
	}
	if !bytes.Equal(buf.Bytes(), want) {
		return fmt.Errorf("stream writer replay returned other container bytes than the daemon")
	}
	per := max(tcomp.DefaultChunkBits/ts.Width, 1)
	var chunks []*tcomp.TestSet
	for lo := 0; lo < ts.NumPatterns(); lo += per {
		c := tcomp.NewTestSet(ts.Width)
		for _, p := range ts.Patterns[lo:min(lo+per, ts.NumPatterns())] {
			c.Add(p)
		}
		chunks = append(chunks, c)
	}
	codecImpl, err := tcomp.Lookup(codec)
	if err != nil {
		return err
	}
	cs := sw.child("codec.encode")
	comp := make([]int, len(chunks))
	errs := make([]error, len(chunks))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for k, c := range chunks {
		wg.Add(1)
		sem <- struct{}{}
		go func(k int, c *tcomp.TestSet) {
			defer wg.Done()
			defer func() { <-sem }()
			art, err := codecImpl.Compress(ctx, c, tcomp.WithSeed(pipeline.Seed(seed, k)))
			if err != nil {
				errs[k] = err
				return
			}
			comp[k] = art.CompressedBits
		}(k, c)
	}
	wg.Wait()
	total := 0
	for k := range chunks {
		if errs[k] != nil {
			cs.end()
			return errs[k]
		}
		total += comp[k]
	}
	codecAttrs(cs, codec, ts.TotalBits(), total)
	cs.end()
	return nil
}

func (rp *replayer) decompressV3(ds *span, cont []byte) error {
	_, h, err := rp.serveHTTP(ds, "/v1/decompress", cont)
	if err != nil {
		return err
	}
	rs := h.child("stream.read")
	sr, err := tcomp.NewStreamReader(bytes.NewReader(cont))
	var dec *tcomp.TestSet
	if err == nil {
		dec, err = sr.ReadAll()
	}
	rs.end()
	if err != nil {
		return err
	}
	cr, err := container.NewChunkReader(bytes.NewReader(cont))
	if err != nil {
		return err
	}
	hdr := cr.Header()
	cs := rs.child("codec.decode")
	var orig, comp int
	for {
		c, err := cr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			cs.end()
			return err
		}
		art := &tcomp.Artifact{Codec: hdr.Codec, Width: hdr.Width, Patterns: c.Patterns,
			OriginalBits: hdr.Width * c.Patterns, CompressedBits: c.NBits,
			Params: c.Params, Payload: c.Payload, NBits: c.NBits}
		if _, err := tcomp.Decompress(art); err != nil {
			cs.end()
			return err
		}
		orig += art.OriginalBits
		comp += c.NBits
	}
	codecAttrs(cs, hdr.Codec, orig, comp)
	cs.end()
	return rp.format(h, dec)
}

func (rp *replayer) format(parent *span, ts *tcomp.TestSet) error {
	fs := parent.child("testset.format")
	var out bytes.Buffer
	err := ts.Write(&out)
	fs.set("bytes", out.Len())
	fs.end()
	return err
}

func (rp *replayer) compressV2(ctx context.Context, cs *span, target string, s serveSet, seed int64, r serveRec) error {
	if err := rp.format(cs, s.ts); err != nil { // CompressSet formats the set client-side
		return err
	}
	body, h, err := rp.serveHTTP(cs, target, s.text)
	if err != nil {
		return err
	}
	if !bytes.Equal(body, r.cont) {
		return fmt.Errorf("twin handler returned other v2 container bytes than the daemon")
	}
	pp := h.child("testset.parse")
	pp.set("bytes", len(s.text))
	ts, err := tcomp.ReadTestSet(bytes.NewReader(s.text))
	pp.end()
	if err != nil {
		return err
	}
	codec, err := tcomp.Lookup(r.p.codec)
	if err != nil {
		return err
	}
	es := h.child("codec.encode")
	art, err := codec.Compress(ctx, ts, tcomp.WithSeed(seed))
	if err != nil {
		es.end()
		return err
	}
	codecAttrs(es, r.p.codec, art.OriginalBits, art.CompressedBits)
	es.end()
	ws := h.child("container.write")
	var buf bytes.Buffer
	err = tcomp.Write(&buf, art)
	ws.end()
	if err != nil {
		return err
	}
	osp := cs.child("container.open") // CompressSet opens the reply client-side
	_, err = tcomp.Open(bytes.NewReader(r.cont))
	osp.end()
	return err
}

func (rp *replayer) decompressV2(ds *span, cont []byte) error {
	art, err := tcomp.Open(bytes.NewReader(cont))
	if err != nil {
		return err
	}
	ws := ds.child("container.write") // DecompressSet writes the container client-side
	var buf bytes.Buffer
	err = tcomp.Write(&buf, art)
	ws.end()
	if err != nil {
		return err
	}
	text, h, err := rp.serveHTTP(ds, "/v1/decompress", cont)
	if err != nil {
		return err
	}
	osp := h.child("container.open")
	art, err = tcomp.Open(bytes.NewReader(cont))
	osp.end()
	if err != nil {
		return err
	}
	cs := h.child("codec.decode")
	dec, err := tcomp.Decompress(art)
	codecAttrs(cs, art.Codec, art.OriginalBits, art.CompressedBits)
	cs.end()
	if err != nil {
		return err
	}
	if err := rp.format(h, dec); err != nil {
		return err
	}
	pp := ds.child("testset.parse") // DecompressSet parses the reply client-side
	pp.set("bytes", len(text))
	_, err = tcomp.ReadTestSet(bytes.NewReader(text))
	pp.end()
	return err
}
