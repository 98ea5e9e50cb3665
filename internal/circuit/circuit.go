// Package circuit implements gate-level combinational netlists in the
// ISCAS ".bench" dialect: parsing, levelization, scalar 3-valued
// simulation (for ATPG over test patterns with X values), the
// Implicator, an incremental 3-valued implication engine over a good
// and a stuck-at faulty machine (for PODEM's search), and 64-way
// bit-parallel 2-valued simulation (for fault simulation).
//
// Sequential elements (DFF) are handled the way the paper's experiments
// do: the "combinational part" is extracted by turning each flip-flop
// output into a pseudo primary input and each flip-flop input into a
// pseudo primary output.
package circuit

import (
	"fmt"

	"repro/internal/tritvec"
)

// GateType enumerates supported gate functions.
type GateType int

// Supported gate types.
const (
	Input GateType = iota
	Buf
	Not
	And
	Nand
	Or
	Nor
	Xor
	Xnor
)

var gateNames = map[GateType]string{
	Input: "INPUT", Buf: "BUF", Not: "NOT", And: "AND", Nand: "NAND",
	Or: "OR", Nor: "NOR", Xor: "XOR", Xnor: "XNOR",
}

// String returns the bench-format gate name.
func (g GateType) String() string { return gateNames[g] }

// Circuit is a combinational netlist. Signals are dense indices; inputs
// (including pseudo inputs from DFF extraction) have type Input.
type Circuit struct {
	Name    string
	Names   []string
	Types   []GateType
	Fanin   [][]int
	Inputs  []int // signal ids of primary + pseudo-primary inputs
	Outputs []int // signal ids of primary + pseudo-primary outputs

	order      []int   // topological order over non-input signals
	fanout     [][]int // computed on Finalize
	inputIndex []int   // signal id -> position in Inputs, or -1; computed on Finalize
}

// NumSignals returns the total signal count.
func (c *Circuit) NumSignals() int { return len(c.Types) }

// NumGates returns the number of non-input signals.
func (c *Circuit) NumGates() int { return len(c.Types) - len(c.Inputs) }

// Fanout returns the fanout lists (valid after Finalize).
func (c *Circuit) Fanout() [][]int { return c.fanout }

// Builder incrementally constructs a circuit.
type Builder struct {
	c     *Circuit
	index map[string]int
}

// NewBuilder returns an empty builder for a circuit with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{c: &Circuit{Name: name}, index: make(map[string]int)}
}

// NumSignals returns the number of distinct signals declared so far.
func (b *Builder) NumSignals() int { return len(b.c.Names) }

// NumInputs returns the number of (pseudo) primary inputs declared so
// far.
func (b *Builder) NumInputs() int { return len(b.c.Inputs) }

// Signal returns the id for name, creating an untyped placeholder if new.
func (b *Builder) Signal(name string) int {
	if id, ok := b.index[name]; ok {
		return id
	}
	id := len(b.c.Names)
	b.c.Names = append(b.c.Names, name)
	b.c.Types = append(b.c.Types, Input) // provisional; AddGate overrides
	b.c.Fanin = append(b.c.Fanin, nil)
	b.index[name] = id
	return id
}

// AddInput declares a (pseudo) primary input.
func (b *Builder) AddInput(name string) int {
	id := b.Signal(name)
	b.c.Inputs = append(b.c.Inputs, id)
	return id
}

// AddOutput declares a (pseudo) primary output.
func (b *Builder) AddOutput(name string) int {
	id := b.Signal(name)
	b.c.Outputs = append(b.c.Outputs, id)
	return id
}

// AddGate defines signal name as a gate of type t over the fanin names.
func (b *Builder) AddGate(name string, t GateType, fanin ...string) (int, error) {
	switch t {
	case Buf, Not:
		if len(fanin) != 1 {
			return 0, fmt.Errorf("circuit: %s %s needs exactly 1 fanin", t, name)
		}
	case And, Nand, Or, Nor, Xor, Xnor:
		if len(fanin) < 2 {
			return 0, fmt.Errorf("circuit: %s %s needs >=2 fanins", t, name)
		}
	default:
		return 0, fmt.Errorf("circuit: cannot add gate of type %v", t)
	}
	id := b.Signal(name)
	if b.c.Fanin[id] != nil {
		return 0, fmt.Errorf("circuit: signal %s defined twice", name)
	}
	b.c.Types[id] = t
	ids := make([]int, len(fanin))
	for i, f := range fanin {
		ids[i] = b.Signal(f)
	}
	b.c.Fanin[id] = ids
	return id, nil
}

// Finalize validates the netlist, computes fanout lists and a topological
// evaluation order, and returns the circuit.
func (b *Builder) Finalize() (*Circuit, error) {
	c := b.c
	c.inputIndex = make([]int, c.NumSignals())
	for id := range c.inputIndex {
		c.inputIndex[id] = -1
	}
	for i, id := range c.Inputs {
		if c.inputIndex[id] >= 0 {
			return nil, fmt.Errorf("circuit: input %s declared twice", c.Names[id])
		}
		c.inputIndex[id] = i
	}
	for id, t := range c.Types {
		if t == Input && c.inputIndex[id] < 0 {
			return nil, fmt.Errorf("circuit: signal %s is undriven and not an input", c.Names[id])
		}
		if t != Input && c.inputIndex[id] >= 0 {
			return nil, fmt.Errorf("circuit: input %s is also a gate output", c.Names[id])
		}
	}
	// Kahn topological sort over gates.
	indeg := make([]int, c.NumSignals())
	c.fanout = make([][]int, c.NumSignals())
	for id, fin := range c.Fanin {
		for _, f := range fin {
			c.fanout[f] = append(c.fanout[f], id)
		}
		indeg[id] = len(fin)
	}
	queue := append([]int(nil), c.Inputs...)
	c.order = c.order[:0]
	seen := 0
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		seen++
		if c.Types[id] != Input {
			c.order = append(c.order, id)
		}
		for _, next := range c.fanout[id] {
			indeg[next]--
			if indeg[next] == 0 {
				queue = append(queue, next)
			}
		}
	}
	if seen != c.NumSignals() {
		return nil, fmt.Errorf("circuit: combinational loop detected (%d of %d signals reachable)", seen, c.NumSignals())
	}
	if len(c.Inputs) == 0 {
		return nil, fmt.Errorf("circuit: no inputs")
	}
	if len(c.Outputs) == 0 {
		return nil, fmt.Errorf("circuit: no outputs")
	}
	return c, nil
}

// evalGate computes gate type t's 3-valued function of the values vals
// holds at the fanin signals, reading them in place. It is the one gate
// evaluator of Sim3 and the Implicator.
func evalGate(t GateType, fanin []int, vals []tritvec.Trit) tritvec.Trit {
	switch t {
	case Buf:
		return vals[fanin[0]]
	case Not:
		return Invert(vals[fanin[0]])
	case And, Nand:
		v := and3(fanin, vals)
		if t == Nand {
			v = Invert(v)
		}
		return v
	case Or, Nor:
		v := or3(fanin, vals)
		if t == Nor {
			v = Invert(v)
		}
		return v
	case Xor, Xnor:
		v := xor3(fanin, vals)
		if t == Xnor {
			v = Invert(v)
		}
		return v
	}
	panic("circuit: evalGate on input")
}

// Invert is three-valued NOT: 0 and 1 swap, X stays X.
func Invert(a tritvec.Trit) tritvec.Trit {
	switch a {
	case tritvec.Zero:
		return tritvec.One
	case tritvec.One:
		return tritvec.Zero
	}
	return tritvec.X
}

// NonControlling returns the non-controlling input value for a gate type,
// or false for gates which have none (parity gates, buffers, inverters).
func NonControlling(t GateType) (tritvec.Trit, bool) {
	switch t {
	case And, Nand:
		return tritvec.One, true
	case Or, Nor:
		return tritvec.Zero, true
	}
	return tritvec.X, false
}

func and3(fanin []int, vals []tritvec.Trit) tritvec.Trit {
	sawX := false
	for _, f := range fanin {
		switch vals[f] {
		case tritvec.Zero:
			return tritvec.Zero
		case tritvec.X:
			sawX = true
		}
	}
	if sawX {
		return tritvec.X
	}
	return tritvec.One
}

func or3(fanin []int, vals []tritvec.Trit) tritvec.Trit {
	sawX := false
	for _, f := range fanin {
		switch vals[f] {
		case tritvec.One:
			return tritvec.One
		case tritvec.X:
			sawX = true
		}
	}
	if sawX {
		return tritvec.X
	}
	return tritvec.Zero
}

func xor3(fanin []int, vals []tritvec.Trit) tritvec.Trit {
	parity := tritvec.Zero
	for _, f := range fanin {
		switch vals[f] {
		case tritvec.X:
			return tritvec.X
		case tritvec.One:
			parity = Invert(parity)
		}
	}
	return parity
}

// Sim3 runs 3-valued simulation. assign holds one trit per circuit input,
// in c.Inputs order. The returned slice holds the value of every signal.
// If force is non-nil, the signal force.Signal is overridden with
// force.Value after evaluation (used for stuck-at faulty machines).
type Force struct {
	Signal int
	Value  tritvec.Trit
}

// Sim3 evaluates the circuit under a (possibly partial) input assignment.
func (c *Circuit) Sim3(assign tritvec.Vector, force *Force) []tritvec.Trit {
	if assign.Len() != len(c.Inputs) {
		panic(fmt.Sprintf("circuit: assignment width %d != inputs %d", assign.Len(), len(c.Inputs)))
	}
	vals := make([]tritvec.Trit, c.NumSignals())
	for i, id := range c.Inputs {
		vals[id] = assign.Get(i)
	}
	if force != nil && c.Types[force.Signal] == Input {
		vals[force.Signal] = force.Value
	}
	for _, id := range c.order {
		vals[id] = evalGate(c.Types[id], c.Fanin[id], vals)
		if force != nil && force.Signal == id {
			vals[id] = force.Value
		}
	}
	return vals
}

// OutputsOf extracts the output values from a full value slice.
func (c *Circuit) OutputsOf(vals []tritvec.Trit) []tritvec.Trit {
	out := make([]tritvec.Trit, len(c.Outputs))
	for i, id := range c.Outputs {
		out[i] = vals[id]
	}
	return out
}

// Sim64 runs 64 fully specified patterns in parallel; inputs[i] holds the
// 64 values (bit b = pattern b) of circuit input i. force, if non-nil,
// overrides a signal with a constant (0x0 or all-ones) for stuck-at
// simulation. Returns per-signal 64-pattern words.
func (c *Circuit) Sim64(inputs []uint64, force *Force64) []uint64 {
	if len(inputs) != len(c.Inputs) {
		panic(fmt.Sprintf("circuit: Sim64 width %d != inputs %d", len(inputs), len(c.Inputs)))
	}
	vals := make([]uint64, c.NumSignals())
	for i, id := range c.Inputs {
		vals[id] = inputs[i]
	}
	if force != nil && c.Types[force.Signal] == Input {
		vals[force.Signal] = force.Value
	}
	for _, id := range c.order {
		fin := c.Fanin[id]
		var v uint64
		switch c.Types[id] {
		case Buf:
			v = vals[fin[0]]
		case Not:
			v = ^vals[fin[0]]
		case And, Nand:
			v = ^uint64(0)
			for _, f := range fin {
				v &= vals[f]
			}
			if c.Types[id] == Nand {
				v = ^v
			}
		case Or, Nor:
			v = 0
			for _, f := range fin {
				v |= vals[f]
			}
			if c.Types[id] == Nor {
				v = ^v
			}
		case Xor, Xnor:
			v = 0
			for _, f := range fin {
				v ^= vals[f]
			}
			if c.Types[id] == Xnor {
				v = ^v
			}
		}
		vals[id] = v
		if force != nil && force.Signal == id {
			vals[id] = force.Value
		}
	}
	return vals
}

// Force64 overrides a signal with a 64-pattern constant word.
type Force64 struct {
	Signal int
	Value  uint64
}

// Levels returns the logic level (longest path from an input) per signal.
func (c *Circuit) Levels() []int {
	lv := make([]int, c.NumSignals())
	for _, id := range c.order {
		max := 0
		for _, f := range c.Fanin[id] {
			if lv[f]+1 > max {
				max = lv[f] + 1
			}
		}
		lv[id] = max
	}
	return lv
}

// IsInput reports whether signal id is a (pseudo) primary input.
func (c *Circuit) IsInput(id int) bool { return c.Types[id] == Input }

// InputIndex maps signal id -> position in c.Inputs, or -1 for a gate
// or an id outside the circuit. It reads a table built by Finalize.
func (c *Circuit) InputIndex(id int) int {
	if id < 0 || id >= len(c.inputIndex) {
		return -1
	}
	return c.inputIndex[id]
}

// SignalID returns the id of a named signal, or -1.
func (c *Circuit) SignalID(name string) int {
	for i, n := range c.Names {
		if n == name {
			return i
		}
	}
	return -1
}
