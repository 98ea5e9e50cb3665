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
	gen := newPodem(ctx, c, opt.MaxBacktracks)
	dropped := make([]bool, len(fl))
	for fi, f := range fl {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if dropped[fi] {
			res.Detected++
			continue
		}
		switch gen.run(f) {
		case statusDetected:
			if opt.XMaximize {
				maximizeX(c, gen.imp)
			}
			pattern := gen.imp.Assignment()
			// Two full Sim3 runs check the incremental engine's verdict
			// independently.
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

// podem carries the search state for one ATPG engine instance. The
// implication engine imp holds both machines' values under the current
// assignment; it lives as long as the podem, one GenerateCtx call.
type podem struct {
	c     *circuit.Circuit
	ctx   context.Context
	maxBT int
	imp   *circuit.Implicator

	fault      faults.Fault
	backtracks int
}

func newPodem(ctx context.Context, c *circuit.Circuit, maxBT int) *podem {
	return &podem{c: c, ctx: ctx, maxBT: maxBT, imp: circuit.NewImplicator(c)}
}

// run searches for a (partial) input assignment detecting f. On
// statusDetected the assignment stays in p.imp.
func (p *podem) run(f faults.Fault) status {
	p.fault = f
	p.backtracks = 0
	p.imp.Reset(circuit.Force{Signal: f.Signal, Value: f.SA})
	return p.search()
}

// search implements the PODEM recursion: pick an objective, backtrace to
// an unassigned PI, try both values.
func (p *podem) search() status {
	// Cancellation surfaces as an abort; GenerateCtx turns it into the
	// context's error before any truncated result can escape.
	if p.ctx != nil && p.ctx.Err() != nil {
		return statusAborted
	}
	good, bad := p.imp.Good(), p.imp.Bad()
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
		mark := p.imp.Mark()
		p.imp.Assign(idx, v)
		st := p.search()
		if st == statusDetected {
			return st
		}
		p.imp.Undo(mark)
		if st == statusAborted {
			return statusAborted
		}
		// statusUntestable under this assignment: try the opposite.
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
	// output in either machine. A fault effect lives only in the fault
	// site's fanout cone, so only the cone's gates can be on the
	// frontier; they are visited in ascending signal order. Objective:
	// set an X side input of the first frontier gate that has one to the
	// gate's non-controlling value.
	for _, id := range p.imp.Cone() {
		if !onFrontier(p.c, id, good, bad) {
			continue
		}
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

// onFrontier reports whether signal id is a D-frontier gate: a fault
// effect on some fanin and the output still X in at least one machine.
func onFrontier(c *circuit.Circuit, id int, good, bad []tritvec.Trit) bool {
	if c.Types[id] == circuit.Input || good[id] != tritvec.X && bad[id] != tritvec.X {
		return false
	}
	for _, fin := range c.Fanin[id] {
		g, b := good[fin], bad[fin]
		if g != tritvec.X && b != tritvec.X && g != b {
			return true
		}
	}
	return false
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

// maximizeX greedily resets the assigned inputs of imp's detecting
// assignment to X, in input order, keeping each X while the pattern
// still definitely detects imp's fault.
func maximizeX(c *circuit.Circuit, imp *circuit.Implicator) {
	good, bad := imp.Good(), imp.Bad()
	for i, id := range c.Inputs {
		if good[id] == tritvec.X {
			continue
		}
		mark := imp.Mark()
		imp.Assign(i, tritvec.X)
		if !detectedAt(c, good, bad) {
			imp.Undo(mark)
		}
	}
}
