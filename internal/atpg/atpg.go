// Package atpg implements a PODEM-style automatic test pattern generator
// for single stuck-at faults, producing test patterns that leave
// unassigned primary inputs as don't-cares (X). Together with the optional
// X-maximization pass this plays the role of the Kajihara/Miyase flow the
// paper takes its stuck-at test sets from: uncompacted test sets with
// don't-care values.
package atpg

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/circuit"
	"repro/internal/faults"
	"repro/internal/testset"
	"repro/internal/tritvec"
)

// Options configures test generation.
type Options struct {
	// MaxBacktracks bounds the PODEM search per fault (default 2000).
	MaxBacktracks int
	// FaultDropping simulates each new pattern against the remaining
	// fault list and skips faults already (definitely) detected. With
	// dropping disabled the generator emits one pattern per detectable
	// fault — the "uncompacted" test sets of the paper.
	FaultDropping bool
	// XMaximize greedily re-X-es assigned inputs while the pattern still
	// definitely detects its target fault (don't-care identification).
	XMaximize bool
	// Collapse uses the collapsed fault list.
	Collapse bool
	// Seed orders heuristic choices deterministically.
	Seed int64
}

// DefaultOptions returns sensible defaults: collapsed faults, dropping
// off (uncompacted), X-maximization on.
func DefaultOptions() Options {
	return Options{MaxBacktracks: 2000, FaultDropping: false, XMaximize: true, Collapse: true}
}

// Result reports the generation outcome.
type Result struct {
	Tests      *testset.TestSet
	Detected   int
	Untestable int // proven redundant (search exhausted without backtrack limit)
	Aborted    int // backtrack limit hit
	Faults     int
}

// Coverage returns detected / total faults.
func (r *Result) Coverage() float64 {
	if r.Faults == 0 {
		return 0
	}
	return float64(r.Detected) / float64(r.Faults)
}

// Generate runs ATPG over the circuit's fault list.
func Generate(c *circuit.Circuit, opt Options) (*Result, error) {
	return GenerateCtx(context.Background(), c, opt)
}

// GenerateCtx is Generate with cancellation: ctx is checked between
// faults and inside the PODEM recursion, so a cancelled context stops
// an ATPG run within one search step instead of after the full fault
// list. On cancellation the context's error is returned; the partial
// result is discarded (ATPG output must be all-or-nothing to keep the
// deterministic test-set contract).
func GenerateCtx(ctx context.Context, c *circuit.Circuit, opt Options) (*Result, error) {
	if opt.MaxBacktracks <= 0 {
		opt.MaxBacktracks = 2000
	}
	var fl []faults.Fault
	if opt.Collapse {
		fl = faults.Collapse(c)
	} else {
		fl = faults.All(c)
	}
	res := &Result{Tests: testset.New(len(c.Inputs)), Faults: len(fl)}
	gen := &podem{c: c, ctx: ctx, maxBT: opt.MaxBacktracks, rng: rand.New(rand.NewSource(opt.Seed))}
	dropped := make([]bool, len(fl))
	for fi, f := range fl {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if dropped[fi] {
			res.Detected++
			continue
		}
		pattern, status := gen.run(f)
		switch status {
		case statusDetected:
			if opt.XMaximize {
				pattern = maximizeX(c, pattern, f)
			}
			if !faults.DefinitelyDetects(c, pattern, f) {
				return nil, fmt.Errorf("atpg: internal error: generated pattern fails verification for %s", f.Name(c))
			}
			res.Tests.Add(pattern)
			res.Detected++
			if opt.FaultDropping {
				for fj := fi + 1; fj < len(fl); fj++ {
					if !dropped[fj] && faults.DefinitelyDetects(c, pattern, fl[fj]) {
						dropped[fj] = true
					}
				}
			}
		case statusUntestable:
			res.Untestable++
		default:
			res.Aborted++
		}
	}
	// A cancellation that fired inside the final fault's search surfaces
	// as an abort; re-check so callers never see a silently truncated
	// result.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

type status int

const (
	statusDetected status = iota
	statusUntestable
	statusAborted
)

// podem carries the search state for one ATPG engine instance.
type podem struct {
	c     *circuit.Circuit
	ctx   context.Context
	maxBT int
	rng   *rand.Rand

	fault      faults.Fault
	assign     tritvec.Vector
	backtracks int
}

// run searches for a (partial) input assignment detecting f.
func (p *podem) run(f faults.Fault) (tritvec.Vector, status) {
	p.fault = f
	p.assign = tritvec.New(len(p.c.Inputs))
	p.backtracks = 0
	switch p.search() {
	case statusDetected:
		return p.assign.Clone(), statusDetected
	case statusUntestable:
		return tritvec.Vector{}, statusUntestable
	}
	return tritvec.Vector{}, statusAborted
}

// search implements the PODEM recursion: pick an objective, backtrace to
// an unassigned PI, try both values.
func (p *podem) search() status {
	// Cancellation surfaces as an abort; GenerateCtx turns it into the
	// context's error before any truncated result can escape.
	if p.ctx != nil && p.ctx.Err() != nil {
		return statusAborted
	}
	good := p.c.Sim3(p.assign, nil)
	bad := p.c.Sim3(p.assign, &circuit.Force{Signal: p.fault.Signal, Value: p.fault.SA})
	if detectedAt(p.c, good, bad) {
		return statusDetected
	}
	if !p.effectPossible(good, bad) {
		return statusUntestable
	}
	objSig, objVal, ok := p.objective(good, bad)
	if !ok {
		return statusUntestable
	}
	pi, piVal, ok := p.backtrace(objSig, objVal, good)
	if !ok {
		return statusUntestable
	}
	idx := p.c.InputIndex(pi)
	for attempt, v := range []tritvec.Trit{piVal, circuit.Invert(piVal)} {
		p.assign.Set(idx, v)
		st := p.search()
		if st == statusDetected {
			return st
		}
		if st == statusAborted {
			p.assign.Set(idx, tritvec.X)
			return statusAborted
		}
		// statusUntestable under this assignment: undo and try opposite.
		p.assign.Set(idx, tritvec.X)
		if attempt == 0 {
			p.backtracks++
			if p.backtracks > p.maxBT {
				return statusAborted
			}
		}
	}
	return statusUntestable
}

func detectedAt(c *circuit.Circuit, good, bad []tritvec.Trit) bool {
	for _, po := range c.Outputs {
		g, b := good[po], bad[po]
		if g != tritvec.X && b != tritvec.X && g != b {
			return true
		}
	}
	return false
}

// effectPossible is the X-path check: some output can still differ, i.e.
// good and bad are not both specified-and-equal at every output.
func (p *podem) effectPossible(good, bad []tritvec.Trit) bool {
	for _, po := range p.c.Outputs {
		g, b := good[po], bad[po]
		if g == tritvec.X || b == tritvec.X || g != b {
			return true
		}
	}
	return false
}

// objective returns the next (signal, value) goal: excite the fault if
// not excited, otherwise advance the D-frontier.
func (p *podem) objective(good, bad []tritvec.Trit) (int, tritvec.Trit, bool) {
	site := p.fault.Signal
	if good[site] == tritvec.X {
		// Excitation: drive the site to the opposite of the stuck value.
		return site, circuit.Invert(p.fault.SA), true
	}
	if good[site] == p.fault.SA {
		// Site pinned to the stuck value in the good machine: the fault
		// cannot be excited under the current assignment.
		return 0, tritvec.X, false
	}
	// D-frontier: gates with a fault effect on some fanin and an X
	// output in either machine. Objective: set an X side input to the
	// gate's non-controlling value.
	for _, id := range p.frontier(good, bad) {
		nc, hasNC := circuit.NonControlling(p.c.Types[id])
		for _, fin := range p.c.Fanin[id] {
			if good[fin] == tritvec.X && bad[fin] == tritvec.X {
				if hasNC {
					return fin, nc, true
				}
				return fin, tritvec.Zero, true // XOR-ish: any value
			}
		}
	}
	return 0, tritvec.X, false
}

// frontier lists gates where the fault effect is present on an input and
// the output is still X in at least one machine.
func (p *podem) frontier(good, bad []tritvec.Trit) []int {
	var out []int
	for id := 0; id < p.c.NumSignals(); id++ {
		if p.c.Types[id] == circuit.Input {
			continue
		}
		if good[id] != tritvec.X && bad[id] != tritvec.X {
			continue
		}
		for _, fin := range p.c.Fanin[id] {
			g, b := good[fin], bad[fin]
			if g != tritvec.X && b != tritvec.X && g != b {
				out = append(out, id)
				break
			}
		}
	}
	return out
}

// backtrace walks from an objective to an unassigned PI, tracking
// inversion parity.
func (p *podem) backtrace(sig int, val tritvec.Trit, good []tritvec.Trit) (int, tritvec.Trit, bool) {
	for hops := 0; hops < p.c.NumSignals()+1; hops++ {
		if p.c.Types[sig] == circuit.Input {
			if good[sig] != tritvec.X {
				return 0, tritvec.X, false // already assigned: dead objective
			}
			return sig, val, true
		}
		t := p.c.Types[sig]
		// Choose an X fanin; prefer one whose value choice is forced.
		var next int = -1
		for _, fin := range p.c.Fanin[sig] {
			if good[fin] == tritvec.X {
				next = fin
				break
			}
		}
		if next == -1 {
			return 0, tritvec.X, false
		}
		switch t {
		case circuit.Not, circuit.Nand, circuit.Nor, circuit.Xnor:
			val = circuit.Invert(val)
		}
		switch t {
		case circuit.And, circuit.Nand:
			// output 1 (after inversion handling) needs all-1; output 0
			// needs some 0 — either way drive the chosen X input to val.
		case circuit.Or, circuit.Nor:
			// symmetric
		case circuit.Xor, circuit.Xnor:
			// parity: value choice is free; keep val.
		}
		sig = next
	}
	return 0, tritvec.X, false
}

// maximizeX greedily resets assigned inputs to X while the pattern still
// definitely detects the fault.
func maximizeX(c *circuit.Circuit, pattern tritvec.Vector, f faults.Fault) tritvec.Vector {
	out := pattern.Clone()
	for i := 0; i < out.Len(); i++ {
		if out.Get(i) == tritvec.X {
			continue
		}
		saved := out.Get(i)
		out.Set(i, tritvec.X)
		if !faults.DefinitelyDetects(c, out, f) {
			out.Set(i, saved)
		}
	}
	return out
}
