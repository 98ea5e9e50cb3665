package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"sync"
	"time"

	tcomp "repro"
	"repro/internal/core"
	"repro/internal/pipeline"
)

// flow-async: the paper's use case end to end, circuit to ATPG to codec
// race to container and Verilog decoder, submitted to the daemon as
// flow jobs. It is the only workload that runs atpg, delay, circuit,
// decoder emission and the flow job path, and it uses the EA on small
// sets: the race runs one worker per codec, and a flow runs up to three
// EA compressions (race sample, winner container, decoder source).
func init() {
	workloads["flow-async"] = &workload{clients: 2, setup: setupFlow}
}

// flowPoll is WaitJob's fixed polling interval, far below a flow's 0.7
// s to 7 s.
const flowPoll = 10 * time.Millisecond

// flowSeed is every entry's flow seed. The entries, their seeds and
// their order are fixed: every rotation and every workload seed runs the
// same five flows in the same order. A flow's circuit, and its time,
// follow from its flow seed, and which flows overlap on the two clients
// sets each flow's latency: seeding either would make a rotation's work
// differ from seed to seed.
const flowSeed = 1

type flowEntry struct {
	name, tests string
}

func (e flowEntry) label() string { return e.name + "/" + e.tests }

// flowEntries: five flows, an odd rotation. One client runs the first,
// stuck-at s420, for about as long as the other takes for the remaining
// four, so the two end a rotation close together. In this order the
// second client picks each of its flows while the first is still far
// from done, so every rotation pairs the same flows; with the shortest
// flow last, which client took it flipped from rotation to rotation.
var flowEntries = []flowEntry{
	{"s420", tcomp.FlowStuckAt},
	{"s420", tcomp.FlowPathDelay},
	{"s298", tcomp.FlowPathDelay},
	{"s344", tcomp.FlowPathDelay},
	{"s298", tcomp.FlowStuckAt},
}

// flowRec is what a traced flow keeps for its replay.
type flowRec struct {
	i                   int
	e                   flowEntry
	runID               int64
	pollMs, fetchMs     float64 // pollMs: from the job's end to WaitJob's return
	queueMs, runMs      float64
	container, verilog  []byte
	winner, blockWinner string
}

type flowAsync struct {
	d *daemon

	mu   sync.Mutex // guards recs
	recs []flowRec
}

// setupFlow starts the daemon. The workload seed is not used: see
// flowSeed.
func setupFlow(int64) (instance, error) {
	d, err := startDaemon(flowPoll)
	if err != nil {
		return nil, err
	}
	w := &flowAsync{d: d}
	// Warm-up: the shortest entry's flow on another seed's circuit, which
	// no timed op runs.
	if _, _, err := w.run(context.Background(), flowEntry{"s298", tcomp.FlowPathDelay}, flowSeed+1, nil, nil); err != nil {
		d.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return w, nil
}

func (w *flowAsync) rotation() int { return len(flowEntries) }
func (w *flowAsync) close()        { w.d.close() }
func (w *flowAsync) beginTrace()   {}

func (w *flowAsync) op(ctx context.Context, i int, tr *tracer) (outcome, error) {
	e := flowEntries[i%len(flowEntries)]
	root := tr.root(i, "op")
	root.set("flow", e.label())
	var rec *flowRec
	if tr != nil {
		rec = &flowRec{i: i, e: e}
	}
	t0 := time.Now()
	rep, digest, err := w.run(ctx, e, flowSeed, root, rec)
	lat := time.Since(t0)
	root.end()
	if err != nil {
		return outcome{}, err
	}
	if rec != nil {
		w.mu.Lock()
		w.recs = append(w.recs, *rec)
		w.mu.Unlock()
	}
	return outcome{
		lat:      lat,
		key:      e.label(),
		digest:   digest,
		origBits: int64(rep.Container.OriginalBits),
		compBits: int64(rep.Container.CompressedBits),
		covered:  int64(rep.Tests.Detected),
		targets:  int64(rep.Tests.Targets),
	}, nil
}

// run submits one flow, waits for it, fetches its report and both
// artifacts and checks them: the report says verified, the container
// re-expands to the report's pattern count at the circuit's width, and
// the Verilog declares the decoder module. The digest covers both
// artifacts.
func (w *flowAsync) run(ctx context.Context, e flowEntry, seed int64, root *span, rec *flowRec) (*tcomp.FlowReport, [32]byte, error) {
	var digest [32]byte
	c := w.d.client
	sp := root.child("client.submit")
	js, err := c.SubmitFlow(ctx, tcomp.FlowRequest{Benchmark: e.name, Tests: e.tests, Options: []tcomp.Option{tcomp.WithSeed(seed)}})
	sp.end()
	if err != nil {
		return nil, digest, fmt.Errorf("submit %s: %w", e.label(), err)
	}
	wp := root.child("client.wait")
	fin, err := c.WaitJob(ctx, js.ID)
	waited := time.Now()
	wp.end()
	if err != nil {
		return nil, digest, fmt.Errorf("wait %s: %w", e.label(), err)
	}
	if fin.State != tcomp.JobDone {
		return nil, digest, fmt.Errorf("flow %s: state %s: %s", e.label(), fin.State, fin.Error)
	}
	rp := root.child("client.report")
	rep, err := c.FlowReport(ctx, js.ID)
	rp.end()
	if err != nil {
		return nil, digest, fmt.Errorf("report %s: %w", e.label(), err)
	}
	var cont, vlog bytes.Buffer
	fetchMs := 0.0
	for _, a := range []struct {
		name string
		buf  *bytes.Buffer
	}{{"container", &cont}, {"verilog", &vlog}} {
		fp := root.child("artifact.fetch")
		_, err := c.FlowArtifact(ctx, js.ID, a.name, a.buf)
		fetchMs += fp.end()
		if err != nil {
			return nil, digest, fmt.Errorf("fetch %s of %s: %w", a.name, e.label(), err)
		}
	}
	cp := root.child("check.container")
	sr, err := tcomp.NewStreamReader(bytes.NewReader(cont.Bytes()))
	var dec *tcomp.TestSet
	if err == nil {
		dec, err = sr.ReadAll()
	}
	cp.end()
	switch {
	case err != nil:
		return nil, digest, fmt.Errorf("flow %s container: %w", e.label(), err)
	case !rep.Verified:
		return nil, digest, fmt.Errorf("flow %s: report not verified", e.label())
	case dec.NumPatterns() != rep.Tests.Patterns || dec.Width != rep.CircuitInputs:
		return nil, digest, fmt.Errorf("flow %s: container holds %dx%d, report says %dx%d",
			e.label(), dec.NumPatterns(), dec.Width, rep.Tests.Patterns, rep.CircuitInputs)
	case !bytes.Contains(vlog.Bytes(), []byte("module "+tcomp.FlowDecoderModule)):
		return nil, digest, fmt.Errorf("flow %s: Verilog does not declare module %s", e.label(), tcomp.FlowDecoderModule)
	}
	h := sha256.New()
	h.Write(cont.Bytes())
	h.Write(vlog.Bytes())
	copy(digest[:], h.Sum(nil))
	if rec != nil {
		wp.interval("jobs.queue", fin.Created, fin.Started)
		rec.runID = wp.interval("jobs.run", fin.Started, fin.Finished)
		rec.pollMs, rec.fetchMs = ms(waited.Sub(fin.Finished)), fetchMs
		rec.queueMs = ms(fin.Started.Sub(fin.Created))
		rec.runMs = ms(fin.Finished.Sub(fin.Started))
		rec.container, rec.verilog = cont.Bytes(), vlog.Bytes()
		rec.winner, rec.blockWinner = rep.Race.Winner, rep.Race.BlockWinner
	}
	return rep, digest, nil
}

// The stage indices TestFlow.Run derives its per-stage seeds from.
const (
	stageRace     = 2
	stageCompress = 3
	stageDecoder  = 4
)

// layers replays the first traced run of each entry in-process, stage
// by stage in the order TestFlow.Run calls them, under the job's run
// span, and replays the race's EA and fast-codec entrants on the race
// sample.
func (w *flowAsync) layers(ctx context.Context, tr *tracer, ph *phase) (map[string]metric, []string, error) {
	l := newLayerSet()
	var n, queue, run, poll, fetch float64
	first := map[string]flowRec{}
	for _, r := range w.recs {
		n++
		queue += r.queueMs
		run += r.runMs
		poll += r.pollMs
		fetch += r.fetchMs
		if f, ok := first[r.e.label()]; !ok || r.i < f.i {
			first[r.e.label()] = r
		}
	}
	if n > 0 {
		l.set("jobs.queue_wait_ms", queue/n)
		l.set("jobs.run_ms", run/n)
		l.set("client.poll_wait_ms", poll/n)
		l.set("artifact.fetch_ms", fetch/n)
	}
	var st flowStats
	replayed := map[int64]bool{}
	for _, e := range flowEntries {
		r, ok := first[e.label()]
		if !ok {
			return nil, nil, fmt.Errorf("flow %s was not traced", e.label())
		}
		if err := st.replay(ctx, tr, r); err != nil {
			return nil, nil, fmt.Errorf("replay of %s: %w", e.label(), err)
		}
		replayed[int64(r.i)] = true
	}
	st.fill(l)
	spans := tr.snapshot()
	spanMetrics(l, spans)
	isReplayed := func(s spanRec) bool { return s.Name == "op" && replayed[s.Op] }
	self, _, _ := ledgerOf(spans, isReplayed)
	ledgerMetrics(l, self)
	notes := []string{ledgerTable("one flow-async flow, mean of the rotation's five", spans, isReplayed)}
	return l, notes, nil
}

// flowStats accumulates the replayed flows' stage times and counts.
type flowStats struct {
	n                                float64
	atpg, patterns, aborted          float64
	race, compress, decoderSrc, emit float64
	gates                            float64
	ea                               eaStats
}

func (st *flowStats) fill(l layerSet) {
	if st.n == 0 {
		return
	}
	l.set("atpg.ms", st.atpg/st.n)
	l.set("atpg.patterns", st.patterns/st.n)
	l.set("atpg.aborted", st.aborted/st.n)
	l.set("flow.race_ms", st.race/st.n)
	l.set("flow.compress_ms", st.compress/st.n)
	l.set("flow.decoder_source_ms", st.decoderSrc/st.n)
	l.set("decoder.emit_ms", st.emit/st.n)
	l.set("decoder.gate_equivalents", st.gates/st.n)
	st.ea.fill(l)
}

// replay re-runs flow r in-process with the options the daemon's flow
// job uses, and checks that it reproduces the daemon's artifacts byte
// for byte.
func (st *flowStats) replay(ctx context.Context, tr *tracer, r flowRec) error {
	run := tr.handle(r.i, r.runID)
	seed := int64(flowSeed)
	f := tcomp.NewTestFlow(tcomp.FlowSeed(seed), tcomp.FlowWorkers(0),
		tcomp.FlowCodecOptions(tcomp.WithSeed(seed)), tcomp.FlowTests(r.e.tests))

	sp := run.child("circuit.generate")
	circ, err := f.GenerateCircuit(ctx, r.e.name)
	sp.end()
	if err != nil {
		return err
	}
	sp = run.child("atpg")
	tests, err := f.RunATPG(ctx, circ)
	st.atpg += sp.end()
	if err != nil {
		return err
	}
	st.patterns += float64(tests.Patterns)
	st.aborted += float64(tests.Aborted)

	sp = run.child("flow.race")
	race, err := f.RaceCodecs(ctx, tests.Set)
	st.race += sp.end()
	if err != nil {
		return err
	}
	if race.Winner != r.winner || race.BlockWinner != r.blockWinner {
		return fmt.Errorf("race replay picked %s/%s, the daemon %s/%s", race.Winner, race.BlockWinner, r.winner, r.blockWinner)
	}

	sp = run.child("flow.compress")
	var cont bytes.Buffer
	sw, err := tcomp.NewStreamWriter(ctx, &cont, race.Winner, tests.Set.Width,
		tcomp.WithSeed(seed), tcomp.WithWorkers(0), tcomp.WithSeed(pipeline.Seed(seed, stageCompress)))
	if err == nil {
		if err = sw.WriteSet(tests.Set); err != nil {
			_ = sw.Close() // the WriteSet error is the one to report
		} else {
			err = sw.Close()
		}
	}
	st.compress += sp.end()
	if err != nil {
		return err
	}
	if !bytes.Equal(cont.Bytes(), r.container) {
		return fmt.Errorf("container replay differs from the daemon's")
	}
	sp = run.child("flow.verify")
	sr, err := tcomp.NewStreamReader(bytes.NewReader(cont.Bytes()))
	var dec *tcomp.TestSet
	if err == nil {
		dec, err = sr.ReadAll()
	}
	sp.end()
	if err != nil {
		return err
	}
	if !tcomp.VerifyLossless(tests.Set, dec) {
		return fmt.Errorf("container replay lost specified bits")
	}

	block, err := tcomp.Lookup(race.BlockWinner)
	if err != nil {
		return err
	}
	sp = run.child("flow.decoder_source")
	var art *tcomp.Artifact
	alloc, err := timedAlloc(func() (err error) {
		art, err = block.Compress(ctx, tests.Set, tcomp.WithSeed(seed), tcomp.WithWorkers(0),
			tcomp.WithSeed(pipeline.Seed(seed, stageDecoder)))
		if err != nil {
			return err
		}
		blockDec, err := tcomp.Decompress(art)
		if err != nil {
			return err
		}
		if !tcomp.VerifyLossless(tests.Set, blockDec) {
			return fmt.Errorf("decoder-source replay lost specified bits")
		}
		return nil
	})
	d := sp.end()
	st.decoderSrc += d
	if err != nil {
		return err
	}
	if res, ok := art.Extra.(*core.Result); ok {
		st.ea.addCompress(d, res, alloc)
	}

	sp = run.child("decoder.emit")
	var vlog bytes.Buffer
	info, err := f.EmitDecoder(ctx, art, &vlog, tcomp.FlowDecoderModule)
	st.emit += sp.end()
	if err != nil {
		return err
	}
	if !bytes.Equal(vlog.Bytes(), r.verilog) {
		return fmt.Errorf("decoder replay differs from the daemon's Verilog")
	}
	st.gates += info.GateEquivalents
	st.n++
	return st.replayRace(ctx, tr, r.i, seed, tests.Set, race)
}

// flowSample is the daemon's default race prefix.
const flowSample = 128

// replayRace times each race entrant alone on the race sample, with the
// options and seed the race gave it: one worker, the race stage's
// per-codec seed. The EA entrant's work counts and fitness kernel go to
// the core metrics.
func (st *flowStats) replayRace(ctx context.Context, tr *tracer, op int, seed int64, ts *tcomp.TestSet, race *tcomp.FlowRace) error {
	sample := ts
	if ts.NumPatterns() > flowSample {
		sample = tcomp.NewTestSet(ts.Width)
		for _, p := range ts.Patterns[:flowSample] {
			sample.Add(p)
		}
	}
	raceRoot := pipeline.Seed(seed, stageRace)
	root := tr.root(op, "replay.race")
	defer root.end()
	for idx, name := range tcomp.Codecs() {
		opts := []tcomp.Option{tcomp.WithSeed(seed), tcomp.WithWorkers(1), tcomp.WithSeed(pipeline.Seed(raceRoot, idx))}
		var art *tcomp.Artifact
		if name == "ea" {
			codec, err := tcomp.Lookup(name)
			if err != nil {
				return err
			}
			sp := root.child("ea.compress")
			alloc, err := timedAlloc(func() (err error) {
				art, err = codec.Compress(ctx, sample, opts...)
				return err
			})
			d := sp.end()
			if err != nil {
				return err
			}
			res := art.Extra.(*core.Result)
			st.ea.addCompress(d, res, alloc)
			if err := st.ea.replayKernel(root, sample, res); err != nil {
				return err
			}
		} else {
			var err error
			if art, err = encodeReplay(ctx, root, name, sample, opts...); err != nil {
				return err
			}
		}
		for _, e := range race.Entries {
			if e.Codec == name && e.CompressedBits != art.CompressedBits {
				return fmt.Errorf("race entrant %s replayed to %d bits, the race saw %d", name, art.CompressedBits, e.CompressedBits)
			}
		}
	}
	return nil
}
