// Package delay implements robust path-delay fault test generation: for a
// structural path from a primary input to a primary output, it searches
// for a two-pattern test (v1, v2) such that the path input transitions
// while every off-path side input of every on-path gate holds a steady
// non-controlling value — the classical robust sensitization condition.
// This plays the role of the TIP path-delay test generator used for the
// paper's Table 2 test sets.
package delay

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/testset"
	"repro/internal/tritvec"
)

// Path is a structural path: Signals[0] is a primary input, each
// subsequent signal is a gate fed by its predecessor, and the last signal
// is a primary output.
type Path struct {
	Signals []int
}

// String renders the path with signal names.
func (p Path) String(c *circuit.Circuit) string {
	s := ""
	for i, id := range p.Signals {
		if i > 0 {
			s += "->"
		}
		s += c.Names[id]
	}
	return s
}

// EnumeratePaths lists up to max structural input-to-output paths by DFS.
// Deterministic order: inputs and fanouts are visited in index order.
func EnumeratePaths(c *circuit.Circuit, max int) []Path {
	isOutput := make([]bool, c.NumSignals())
	for _, o := range c.Outputs {
		isOutput[o] = true
	}
	fanout := c.Fanout()
	var paths []Path
	var stack []int
	var dfs func(sig int)
	dfs = func(sig int) {
		if len(paths) >= max {
			return
		}
		stack = append(stack, sig)
		if isOutput[sig] {
			paths = append(paths, Path{Signals: append([]int(nil), stack...)})
		}
		for _, next := range fanout[sig] {
			if len(paths) >= max {
				break
			}
			dfs(next)
		}
		stack = stack[:len(stack)-1]
	}
	for _, in := range c.Inputs {
		if len(paths) >= max {
			break
		}
		dfs(in)
	}
	return paths
}

// Options configures robust test generation.
type Options struct {
	// MaxPaths bounds path enumeration (default 1000).
	MaxPaths int
	// BothDirections generates a rising and a falling transition test
	// per path (default true via DefaultOptions).
	BothDirections bool
	// MaxBacktracks bounds the side-input justification search per test.
	MaxBacktracks int
	// XMaximize re-Xes assigned inputs while the pair stays robust.
	XMaximize bool
}

// DefaultOptions returns the defaults used by the experiments.
func DefaultOptions() Options {
	return Options{MaxPaths: 1000, BothDirections: true, MaxBacktracks: 2000, XMaximize: true}
}

// Result reports generation outcome. Tests holds the two-pattern tests
// flattened in order v1, v2, v1, v2, … (the paper's Table 2 test-set
// strings are exactly such concatenations).
type Result struct {
	Tests      *testset.TestSet
	Paths      int // paths attempted (× directions)
	Robust     int // robustly tested
	Untestable int // no robust test found by the search
}

// Coverage returns the robustly tested fraction.
func (r *Result) Coverage() float64 {
	if r.Paths == 0 {
		return 0
	}
	return float64(r.Robust) / float64(r.Paths)
}

// Generate produces robust two-pattern tests for up to MaxPaths paths.
func Generate(c *circuit.Circuit, opt Options) (*Result, error) {
	if opt.MaxPaths <= 0 {
		opt.MaxPaths = 1000
	}
	if opt.MaxBacktracks <= 0 {
		opt.MaxBacktracks = 2000
	}
	paths := EnumeratePaths(c, opt.MaxPaths)
	res := &Result{Tests: testset.New(len(c.Inputs))}
	dirs := []tritvec.Trit{tritvec.Zero}
	if opt.BothDirections {
		dirs = []tritvec.Trit{tritvec.Zero, tritvec.One}
	}
	for _, path := range paths {
		for _, initial := range dirs {
			res.Paths++
			v1, v2, ok := robustTest(c, path, initial, opt.MaxBacktracks)
			if !ok {
				res.Untestable++
				continue
			}
			if opt.XMaximize {
				v1, v2 = maximizeX(c, path, v1, v2)
			}
			if err := VerifyRobust(c, path, v1, v2); err != nil {
				return nil, fmt.Errorf("delay: internal error: generated pair not robust: %v", err)
			}
			res.Tests.Add(v1)
			res.Tests.Add(v2)
			res.Robust++
		}
	}
	return res, nil
}

// robustTest searches for a steady side-input assignment and returns the
// two vectors.
func robustTest(c *circuit.Circuit, path Path, initial tritvec.Trit, maxBT int) (tritvec.Vector, tritvec.Vector, bool) {
	j := &justifier{c: c, assign: tritvec.New(len(c.Inputs)), maxBT: maxBT}
	// Justify every side input of every on-path gate to a steady
	// non-controlling value.
	for i := 1; i < len(path.Signals); i++ {
		gate := path.Signals[i]
		onPath := path.Signals[i-1]
		nc, hasNC := circuit.NonControlling(c.Types[gate])
		for _, fin := range c.Fanin[gate] {
			if fin == onPath {
				continue
			}
			if hasNC {
				if !j.justify(fin, nc) {
					return tritvec.Vector{}, tritvec.Vector{}, false
				}
			} else {
				// Parity gate: any steady specified value; try 0 then 1.
				mark := j.mark()
				if !j.justify(fin, tritvec.Zero) {
					j.undo(mark)
					if !j.justify(fin, tritvec.One) {
						return tritvec.Vector{}, tritvec.Vector{}, false
					}
				}
			}
		}
	}
	// The path input must still be free.
	pathPI := path.Signals[0]
	idx := c.InputIndex(pathPI)
	if idx < 0 || j.assign.Get(idx) != tritvec.X {
		return tritvec.Vector{}, tritvec.Vector{}, false
	}
	v1 := j.assign.Clone()
	v2 := j.assign.Clone()
	v1.Set(idx, initial)
	v2.Set(idx, circuit.Invert(initial))
	if VerifyRobust(c, path, v1, v2) != nil {
		return tritvec.Vector{}, tritvec.Vector{}, false
	}
	return v1, v2, true
}

// VerifyRobust checks the robust sensitization conditions on the pair:
// every on-path signal is specified in both vectors and transitions, and
// every side input of every on-path gate is steady, specified, and (for
// gates with a controlling value) non-controlling.
func VerifyRobust(c *circuit.Circuit, path Path, v1, v2 tritvec.Vector) error {
	if len(path.Signals) < 2 {
		return fmt.Errorf("path too short")
	}
	g1 := c.Sim3(v1, nil)
	g2 := c.Sim3(v2, nil)
	for i, sig := range path.Signals {
		a, b := g1[sig], g2[sig]
		if a == tritvec.X || b == tritvec.X {
			return fmt.Errorf("on-path signal %s unspecified", c.Names[sig])
		}
		if a == b {
			return fmt.Errorf("on-path signal %s does not transition", c.Names[sig])
		}
		if i == 0 {
			continue
		}
		gate := sig
		onPath := path.Signals[i-1]
		nc, hasNC := circuit.NonControlling(c.Types[gate])
		for _, fin := range c.Fanin[gate] {
			if fin == onPath {
				continue
			}
			sa, sb := g1[fin], g2[fin]
			if sa == tritvec.X || sb == tritvec.X {
				return fmt.Errorf("side input %s of %s unspecified", c.Names[fin], c.Names[gate])
			}
			if sa != sb {
				return fmt.Errorf("side input %s of %s not steady", c.Names[fin], c.Names[gate])
			}
			if hasNC && sa != nc {
				return fmt.Errorf("side input %s of %s controlling", c.Names[fin], c.Names[gate])
			}
		}
	}
	return nil
}

// justifier performs structural backward justification with backtracking
// over primary-input assignments.
type justifier struct {
	c      *circuit.Circuit
	assign tritvec.Vector
	trail  []int // input indices assigned, for undo
	bt     int
	maxBT  int
}

func (j *justifier) mark() int { return len(j.trail) }

func (j *justifier) undo(mark int) {
	for len(j.trail) > mark {
		idx := j.trail[len(j.trail)-1]
		j.trail = j.trail[:len(j.trail)-1]
		j.assign.Set(idx, tritvec.X)
	}
}

// justify drives signal sig to value val by assigning primary inputs.
func (j *justifier) justify(sig int, val tritvec.Trit) bool {
	if j.bt > j.maxBT {
		return false
	}
	t := j.c.Types[sig]
	if t == circuit.Input {
		idx := j.c.InputIndex(sig)
		cur := j.assign.Get(idx)
		if cur == val {
			return true
		}
		if cur != tritvec.X {
			return false
		}
		j.assign.Set(idx, val)
		j.trail = append(j.trail, idx)
		return true
	}
	fin := j.c.Fanin[sig]
	switch t {
	case circuit.Buf:
		return j.justify(fin[0], val)
	case circuit.Not:
		return j.justify(fin[0], circuit.Invert(val))
	case circuit.And, circuit.Nand:
		goal := val
		if t == circuit.Nand {
			goal = circuit.Invert(val)
		}
		if goal == tritvec.One {
			for _, f := range fin {
				if !j.justify(f, tritvec.One) {
					return false
				}
			}
			return true
		}
		return j.justifyAny(fin, tritvec.Zero)
	case circuit.Or, circuit.Nor:
		goal := val
		if t == circuit.Nor {
			goal = circuit.Invert(val)
		}
		if goal == tritvec.Zero {
			for _, f := range fin {
				if !j.justify(f, tritvec.Zero) {
					return false
				}
			}
			return true
		}
		return j.justifyAny(fin, tritvec.One)
	case circuit.Xor, circuit.Xnor:
		goal := val
		if t == circuit.Xnor {
			goal = circuit.Invert(val)
		}
		if len(fin) != 2 {
			return false // wide parity gates: not justified structurally
		}
		mark := j.mark()
		if j.justify(fin[0], tritvec.Zero) && j.justify(fin[1], goal) {
			return true
		}
		j.undo(mark)
		j.bt++
		if j.justify(fin[0], tritvec.One) && j.justify(fin[1], circuit.Invert(goal)) {
			return true
		}
		j.undo(mark)
		return false
	}
	return false
}

// justifyAny drives at least one of the fanins to the controlling value.
func (j *justifier) justifyAny(fin []int, val tritvec.Trit) bool {
	for _, f := range fin {
		mark := j.mark()
		if j.justify(f, val) {
			return true
		}
		j.undo(mark)
		j.bt++
		if j.bt > j.maxBT {
			return false
		}
	}
	return false
}

// maximizeX greedily re-Xes steady input assignments while the pair stays
// robust. The path input itself always stays specified.
func maximizeX(c *circuit.Circuit, path Path, v1, v2 tritvec.Vector) (tritvec.Vector, tritvec.Vector) {
	o1, o2 := v1.Clone(), v2.Clone()
	pathIdx := c.InputIndex(path.Signals[0])
	for i := 0; i < o1.Len(); i++ {
		if i == pathIdx || o1.Get(i) == tritvec.X {
			continue
		}
		s1, s2 := o1.Get(i), o2.Get(i)
		o1.Set(i, tritvec.X)
		o2.Set(i, tritvec.X)
		if VerifyRobust(c, path, o1, o2) != nil {
			o1.Set(i, s1)
			o2.Set(i, s2)
		}
	}
	return o1, o2
}
