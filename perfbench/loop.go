package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// workload is one traffic mix. Its set-up builds everything an
// operation needs from the workload seed; nothing in the timed phase
// depends on anything else.
type workload struct {
	clients int // closed-loop callers; never more than nproc on the reference machine
	setup   func(seed int64) (instance, error)
}

var workloads = map[string]*workload{}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// instance is a set-up workload.
type instance interface {
	// rotation is the number of entries in one rotation. It is odd, so
	// the median latency falls inside one entry's cluster of timings.
	rotation() int
	// op runs operation i (entry i mod rotation of rotation i/rotation),
	// checks its output and times it. tr is nil in an untraced rotation.
	op(ctx context.Context, i int, tr *tracer) (outcome, error)
	// beginTrace is called just before a traced run's phase starts.
	beginTrace()
	// layers replays the traced rotations' operations through the inner
	// entry points and returns the per-layer metrics and notes for the
	// report, such as a ledger table.
	layers(ctx context.Context, tr *tracer, ph *phase) (map[string]metric, []string, error)
	close()
}

// outcome is what a checked operation reports.
type outcome struct {
	lat time.Duration
	// key identifies an operation that recurs (the same input, codec,
	// format and seed, or the same flow entry). Every recurrence must
	// return the same digest. Distinct keys are counted once in rate_pct
	// and coverage_pct.
	key      string
	digest   [32]byte
	origBits int64
	compBits int64
	// covered and targets give coverage_pct: detected faults and paths
	// over targets. Only flows generate tests; the codec workloads leave
	// both 0.
	covered, targets int64
}

// phase is the record of one timed closed-loop phase.
type phase struct {
	next       int // index of the op after the phase's last
	elapsed    time.Duration
	lat        []time.Duration
	attempted  int
	failed     int
	allocBytes uint64
	errs       []string
	rots       []rotation
	byKey      map[string][]time.Duration // latencies by op key
}

// rotation is the record of one rotation within a phase.
type rotation struct {
	dur    time.Duration   // from its first op's start to its last op's end
	lat    []time.Duration // latencies of its verified ops
	traced bool
}

// rotationSeconds returns how long each rotation took.
func (ph *phase) rotationSeconds() []float64 {
	var out []float64
	for _, r := range ph.rots {
		out = append(out, r.dur.Seconds())
	}
	return out
}

// side returns the traced, or the untraced, rotations of ph as a phase
// of their own, for the rotation-based metrics of endToEnd.
func (ph *phase) side(traced bool) *phase {
	sub := &phase{}
	for _, r := range ph.rots {
		if r.traced == traced {
			sub.rots = append(sub.rots, r)
			sub.lat = append(sub.lat, r.lat...)
		}
	}
	return sub
}

// runPhase drives inst with clients closed-loop callers, one rotation
// at a time, until dur has passed. Every phase covers whole rotations,
// so every run does the same work, and the callers wait for each other
// at the end of a rotation, so every rotation starts alike and takes a
// well-defined time. seen holds the distinct ops of the run by key, so
// a recurring op is checked against the first.
//
// With a tracer, untraced (U) and traced (T) rotations alternate as
// U T T U, U T T U, ..., over an even number of rotations: the machine's
// drift over the phase touches both sides alike, and comparing them gives
// the tracing overhead.
func runPhase(ctx context.Context, inst instance, clients int, dur time.Duration, tr *tracer, seen map[string]outcome) *phase {
	rot := inst.rotation()
	ph := &phase{byKey: map[string][]time.Duration{}}
	var mu sync.Mutex // guards ph and seen
	record := func(i int, rt *rotation, out outcome, err error) {
		mu.Lock()
		defer mu.Unlock()
		ph.attempted++
		if err == nil {
			if prev, ok := seen[out.key]; !ok {
				seen[out.key] = out
			} else if prev.digest != out.digest {
				err = fmt.Errorf("recurring op %s returned different bytes", out.key)
			}
		}
		if err != nil {
			ph.failed++
			if len(ph.errs) < 5 {
				ph.errs = append(ph.errs, fmt.Sprintf("op %d: %v", i, err))
			}
			return
		}
		ph.lat = append(ph.lat, out.lat)
		ph.byKey[out.key] = append(ph.byKey[out.key], out.lat)
		rt.lat = append(rt.lat, out.lat)
	}

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for len(ph.rots) == 0 || time.Since(start) < dur || (tr != nil && len(ph.rots)%2 == 1) {
		var rtr *tracer
		if k := len(ph.rots) % 4; k == 1 || k == 2 {
			rtr = tr
		}
		ph.rots = append(ph.rots, rotation{traced: rtr != nil})
		rt := &ph.rots[len(ph.rots)-1]
		base := ph.next
		t0 := time.Now()
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					e := int(next.Add(1)) - 1
					if e >= rot {
						return
					}
					out, err := inst.op(ctx, base+e, rtr)
					record(base+e, rt, out, err)
				}
			}()
		}
		wg.Wait()
		rt.dur = time.Since(t0)
		ph.next += rot
	}
	ph.elapsed = time.Since(start)
	runtime.ReadMemStats(&ms1)
	ph.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	return ph
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
func percentile(d []time.Duration, p float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEnd turns a timed phase into the end-to-end metrics. Throughput
// and the p99 are taken per rotation and reported as the median over the
// phase's rotations, so a stall that hits one rotation does not move
// them; in the five-entry rotations the p99 is the slowest op. The p50
// is taken over every op of the phase: with each entry recurring once a
// rotation it is the middle sample of the middle entry's cluster, where
// per rotation it would flip between two entries of similar latency.
func endToEnd(ph *phase, seen map[string]outcome, setups []float64) map[string]metric {
	var orig, comp, covered, targets int64
	for _, o := range seen {
		orig += o.origBits
		comp += o.compBits
		covered += o.covered
		targets += o.targets
	}
	var tput, p99 []float64
	for k, sec := range ph.rotationSeconds() {
		tput = append(tput, float64(len(ph.rots[k].lat))/sec)
		p99 = append(p99, ms(percentile(ph.rots[k].lat, 99)))
	}
	m := map[string]metric{
		"setup_s":         {median(setups), "s"},
		"ops_per_s":       {median(tput), "1/s"},
		"latency_p50_ms":  {ms(percentile(ph.lat, 50)), "ms"},
		"latency_p99_ms":  {median(p99), "ms"},
		"alloc_mb_per_op": {float64(ph.allocBytes) / 1e6 / float64(max(ph.attempted, 1)), "MB"},
		"rate_pct":        {0, "%"},
		// Without test generation coverage_pct is a fixed 100: an op that
		// loses a specified bit fails its check instead of lowering it.
		"coverage_pct": {100, "%"},
	}
	if orig > 0 {
		m["rate_pct"] = metric{100 * (1 - float64(comp)/float64(orig)), "%"}
	}
	if targets > 0 {
		m["coverage_pct"] = metric{100 * float64(covered) / float64(targets), "%"}
	}
	return m
}

// runWorkload sets the workload up setupRepeats times and runs the
// timed phase on the last set-up. A traced run alternates untraced and
// traced rotations for twice --seconds, so each side gets about
// --seconds, and then replays the traced operations through the inner
// layers.
func runWorkload(w *workload, o options) (*result, error) {
	ctx := context.Background()
	var setups []float64
	var inst instance
	for r := 0; r < setupRepeats; r++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		t0 := time.Now()
		in, err := w.setup(o.seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		inst = in
	}
	defer inst.close()

	dur := time.Duration(o.seconds) * time.Second
	var tr *tracer
	if o.trace {
		tr = newTracer()
		inst.beginTrace()
		dur *= 2
	}
	seen := map[string]outcome{}
	ph := runPhase(ctx, inst, w.clients, dur, tr, seen)
	res := &result{
		Attempted: ph.attempted,
		Failed:    ph.failed,
		Notes: []string{
			fmt.Sprintf("timed phase: %d ops in %d rotations of %d, %.2f s, %d latency samples, %d clients",
				ph.attempted, len(ph.rots), inst.rotation(), ph.elapsed.Seconds(), len(ph.lat), w.clients),
			fmt.Sprintf("set-up times: %s s", fmtFloats(setups)),
			fmt.Sprintf("rotation times: %s s", fmtFloats(ph.rotationSeconds())),
			entryLatencies(ph),
		},
	}
	for _, e := range ph.errs {
		res.Notes = append(res.Notes, "failed "+e)
	}
	if !o.trace {
		res.Metrics = endToEnd(ph, seen, setups)
		res.Correct = ph.failed == 0
		return res, nil
	}

	layers, notes, err := inst.layers(ctx, tr, ph)
	res.Notes = append(res.Notes, notes...)
	if err != nil {
		res.Failed++
		res.Notes = append(res.Notes, "failed replay: "+err.Error())
		layers = newLayerSet()
	}
	untraced, traced := endToEnd(ph.side(false), seen, setups), endToEnd(ph.side(true), seen, setups)
	for _, n := range []string{"ops_per_s", "latency_p50_ms"} {
		layers["trace.overhead."+n+"_pct"] = metric{100 * (traced[n].Value - untraced[n].Value) / untraced[n].Value, "%"}
	}
	path, err := tr.writeJSONL(o.out, o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("rotations alternated untraced and traced; %d spans written to %s", tr.len(), path),
		fmt.Sprintf("tracing overhead: ops_per_s %.4f -> %.4f, latency_p50_ms %.4f -> %.4f",
			untraced["ops_per_s"].Value, traced["ops_per_s"].Value, untraced["latency_p50_ms"].Value, traced["latency_p50_ms"].Value))
	res.Metrics = layers
	res.Correct = res.Failed == 0
	return res, nil
}

// entryLatencies lists the median latency of each recurring op, for
// workloads whose ops recur every rotation.
func entryLatencies(ph *phase) string {
	if len(ph.byKey) > 16 {
		return fmt.Sprintf("%d distinct ops", len(ph.byKey))
	}
	keys := make([]string, 0, len(ph.byKey))
	for k := range ph.byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s %.1f", k, ms(percentile(ph.byKey[k], 50)))
	}
	return "median latency by op, ms: " + strings.Join(parts, ", ")
}

func fmtFloats(v []float64) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(s, " ")
}
