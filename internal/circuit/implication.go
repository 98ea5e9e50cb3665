package circuit

import (
	"slices"

	"repro/internal/tritvec"
)

// Implicator is an implication engine for a PODEM-style search. It
// holds the 3-valued values of the good machine and of one stuck-at
// faulty machine under a partial input assignment, and keeps them equal
// to Sim3's (Sim3(assign, nil) and Sim3(assign, &force)) after every
// call:
//
//   - Reset starts a fault: every input goes back to X.
//   - Assign sets one input and re-evaluates only its fanout cone, gate
//     by gate in level order and both machines together, stopping where
//     values stop changing.
//   - Mark and Undo take assignments back: every value an Assign
//     overwrites goes on a trail, and Undo restores it.
//
// So a search step costs the gates it changes, not the whole circuit.
// An Implicator serves one search at a time and is not safe for
// concurrent use; it only reads its Circuit, which callers may share.
type Implicator struct {
	c      *Circuit
	level  []int
	good   []tritvec.Trit
	bad    []tritvec.Trit
	force  Force
	cone   []int  // force.Signal's fanout cone, itself included, ascending
	inCone []bool // membership in cone
	trail  []implied

	// The event queue: buckets[l] holds the gates of level l waiting to
	// be evaluated, queued marks them, and top is the highest level
	// holding one.
	buckets [][]int
	queued  []bool
	top     int
}

// implied is one trail entry: a signal and the values an Assign
// overwrote.
type implied struct {
	sig       int
	good, bad tritvec.Trit
}

// NewImplicator returns an engine for c. Call Reset before Assign.
func NewImplicator(c *Circuit) *Implicator {
	n := c.NumSignals()
	level := c.Levels()
	return &Implicator{
		c:       c,
		level:   level,
		good:    make([]tritvec.Trit, n),
		bad:     make([]tritvec.Trit, n),
		inCone:  make([]bool, n),
		buckets: make([][]int, slices.Max(level)+1),
		queued:  make([]bool, n),
	}
}

// Reset starts a search for the fault force: every input goes back to
// X, the trail is dropped, and the faulty machine pins force.Signal to
// force.Value.
func (e *Implicator) Reset(force Force) {
	for _, id := range e.cone {
		e.inCone[id] = false
	}
	e.force = force
	e.cone = append(e.cone[:0], force.Signal)
	e.inCone[force.Signal] = true
	for i := 0; i < len(e.cone); i++ {
		for _, next := range e.c.fanout[e.cone[i]] {
			if !e.inCone[next] {
				e.inCone[next] = true
				e.cone = append(e.cone, next)
			}
		}
	}
	slices.Sort(e.cone)
	// With every input X every signal is X in both machines, apart from
	// the faulty machine's pinned site and what it implies downstream.
	for id := range e.good {
		e.good[id], e.bad[id] = tritvec.X, tritvec.X
	}
	e.set(force.Signal, tritvec.X, force.Value)
	e.trail = e.trail[:0]
}

// Assign sets input i (a position in c.Inputs, as in Sim3's assignment)
// to v, X included, and implies the change through the input's fanout
// cone.
func (e *Implicator) Assign(i int, v tritvec.Trit) {
	id := e.c.Inputs[i]
	bad := v
	if id == e.force.Signal {
		bad = e.force.Value
	}
	e.set(id, v, bad)
}

// Mark returns the trail position that Undo returns to.
func (e *Implicator) Mark() int { return len(e.trail) }

// Undo takes back every Assign made since Mark returned mark.
func (e *Implicator) Undo(mark int) {
	for i := len(e.trail) - 1; i >= mark; i-- {
		t := e.trail[i]
		e.good[t.sig], e.bad[t.sig] = t.good, t.bad
	}
	e.trail = e.trail[:mark]
}

// Good returns the good machine's value of every signal. The slice is
// the engine's own storage: it changes with every Reset, Assign and
// Undo, and must not be written.
func (e *Implicator) Good() []tritvec.Trit { return e.good }

// Bad is Good for the faulty machine.
func (e *Implicator) Bad() []tritvec.Trit { return e.bad }

// Cone returns the fault site's fanout cone, the site included, in
// ascending signal order: the only signals where the two machines can
// differ. It must not be written.
func (e *Implicator) Cone() []int { return e.cone }

// Assignment returns the current input assignment, in c.Inputs order.
func (e *Implicator) Assignment() tritvec.Vector {
	v := tritvec.New(len(e.c.Inputs))
	for i, id := range e.c.Inputs {
		if g := e.good[id]; g != tritvec.X {
			v.Set(i, g)
		}
	}
	return v
}

// set gives signal id the values good and bad, then re-evaluates the
// gates downstream of it level by level until no value changes. Every
// value it overwrites goes on the trail.
func (e *Implicator) set(id int, good, bad tritvec.Trit) {
	if e.good[id] == good && e.bad[id] == bad {
		return
	}
	e.trail = append(e.trail, implied{id, e.good[id], e.bad[id]})
	e.good[id], e.bad[id] = good, bad
	e.schedule(id)
	// A gate's fanouts sit on higher levels, so evaluating level l only
	// appends to later buckets.
	for l := e.level[id] + 1; l <= e.top; l++ {
		for _, gate := range e.buckets[l] {
			e.queued[gate] = false
			t, fanin := e.c.Types[gate], e.c.Fanin[gate]
			g := evalGate(t, fanin, e.good)
			b := g // outside the cone the machines agree
			if gate == e.force.Signal {
				b = e.force.Value
			} else if e.inCone[gate] {
				b = evalGate(t, fanin, e.bad)
			}
			if g == e.good[gate] && b == e.bad[gate] {
				continue
			}
			e.trail = append(e.trail, implied{gate, e.good[gate], e.bad[gate]})
			e.good[gate], e.bad[gate] = g, b
			e.schedule(gate)
		}
		e.buckets[l] = e.buckets[l][:0]
	}
	e.top = 0
}

// schedule queues the fanouts of signal id for evaluation.
func (e *Implicator) schedule(id int) {
	for _, gate := range e.c.fanout[id] {
		if e.queued[gate] {
			continue
		}
		e.queued[gate] = true
		l := e.level[gate]
		e.buckets[l] = append(e.buckets[l], gate)
		if l > e.top {
			e.top = l
		}
	}
}
