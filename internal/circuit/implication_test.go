package circuit

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/tritvec"
)

// diffNetlist builds a random netlist for the Implicator's differential
// test: gate types round-robin, AND to XNOR with two to five fanins
// (a fanin may repeat), and one gate in four a BUF or NOT on the gate
// just built, which grows BUF/NOT chains.
func diffNetlist(t *testing.T, r *rand.Rand, inputs, gates int) *Circuit {
	t.Helper()
	b := NewBuilder(fmt.Sprintf("diff%d-%d", inputs, gates))
	var sigs []string
	for i := 0; i < inputs; i++ {
		sigs = append(sigs, fmt.Sprintf("I%d", i))
		b.AddInput(sigs[i])
	}
	wide := []GateType{And, Nand, Or, Nor, Xor, Xnor}
	for g := 0; g < gates; g++ {
		var typ GateType
		var fanin []string
		if g > 0 && r.Intn(4) == 0 {
			typ = []GateType{Buf, Not}[r.Intn(2)]
			fanin = []string{sigs[len(sigs)-1]}
		} else {
			typ = wide[g%len(wide)]
			for k := 2 + r.Intn(4); k > 0; k-- {
				fanin = append(fanin, sigs[r.Intn(len(sigs))])
			}
		}
		name := fmt.Sprintf("N%d", g)
		if _, err := b.AddGate(name, typ, fanin...); err != nil {
			t.Fatal(err)
		}
		sigs = append(sigs, name)
	}
	for o := 0; o < 1+gates/6; o++ {
		b.AddOutput(sigs[len(sigs)-1-r.Intn(gates)])
	}
	c, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// fanoutCone is the reference cone: site and every signal with a fanin
// in the cone, in ascending order.
func fanoutCone(c *Circuit, site int) []int {
	in := make([]bool, c.NumSignals())
	in[site] = true
	for _, id := range c.order {
		for _, f := range c.Fanin[id] {
			in[id] = in[id] || in[f]
		}
	}
	var cone []int
	for id, ok := range in {
		if ok {
			cone = append(cone, id)
		}
	}
	return cone
}

// TestImplicatorMatchesSim3 is the engine's differential test: random
// Assign, Mark and Undo sequences on random netlists, with the fault
// site on an input and on a gate at both stuck values. After every call
// both machines must equal Sim3 of the same assignment, signal by signal.
func TestImplicatorMatchesSim3(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	circuits := []*Circuit{C17()}
	for i := 0; i < 12; i++ {
		circuits = append(circuits, diffNetlist(t, r, 3+r.Intn(10), 10+r.Intn(60)))
	}
	for seed := int64(1); seed <= 4; seed++ {
		c, err := Random("rnd", RandomOptions{Inputs: 10, Gates: 60, Outputs: 5, MaxFanin: 5, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		circuits = append(circuits, c)
	}
	checkCoverage(t, circuits)

	for _, c := range circuits {
		e := NewImplicator(c)
		gate := c.order[r.Intn(len(c.order))]
		for _, site := range []int{c.Inputs[r.Intn(len(c.Inputs))], gate, c.order[len(c.order)-1]} {
			for _, sa := range []tritvec.Trit{tritvec.Zero, tritvec.One} {
				force := Force{Signal: site, Value: sa}
				name := fmt.Sprintf("%s/%s/%v", c.Name, c.Names[site], sa)
				e.Reset(force)
				if cone := fanoutCone(c, site); !slices.Equal(e.Cone(), cone) {
					t.Fatalf("%s: Cone() = %v, want %v", name, e.Cone(), cone)
				}
				assign := tritvec.New(len(c.Inputs))
				checkImplicator(t, name+" after Reset", e, c, assign, force)
				type saved struct {
					mark   int
					assign tritvec.Vector
				}
				var marks []saved
				for step := 0; step < 150; step++ {
					var call string
					switch op := r.Intn(10); {
					case op < 6:
						i, v := r.Intn(len(c.Inputs)), tritvec.Trit(r.Intn(3))
						e.Assign(i, v)
						assign.Set(i, v)
						call = fmt.Sprintf("Assign(%d, %v)", i, v)
					case op < 8:
						marks = append(marks, saved{e.Mark(), assign.Clone()})
						call = "Mark"
					default:
						if len(marks) == 0 {
							continue
						}
						// Undo to any open mark, not only the latest.
						k := r.Intn(len(marks))
						e.Undo(marks[k].mark)
						assign = marks[k].assign
						marks = marks[:k]
						call = fmt.Sprintf("Undo(%d)", k)
					}
					checkImplicator(t, fmt.Sprintf("%s step %d %s", name, step, call), e, c, assign, force)
				}
			}
		}
	}
}

func checkImplicator(t *testing.T, what string, e *Implicator, c *Circuit, assign tritvec.Vector, force Force) {
	t.Helper()
	good, bad := c.Sim3(assign, nil), c.Sim3(assign, &force)
	for id := range good {
		if e.Good()[id] != good[id] || e.Bad()[id] != bad[id] {
			t.Fatalf("%s: signal %s good/bad = %v/%v, Sim3 gives %v/%v",
				what, c.Names[id], e.Good()[id], e.Bad()[id], good[id], bad[id])
		}
	}
	if got := e.Assignment(); !got.Equal(assign) {
		t.Fatalf("%s: Assignment() = %s, want %s", what, got, assign)
	}
}

// checkCoverage fails unless the circuits hold every gate type, an XOR
// and an XNOR with more than two fanins, and a BUF/NOT chain of three.
func checkCoverage(t *testing.T, circuits []*Circuit) {
	t.Helper()
	types := map[GateType]bool{}
	wideXor, wideXnor, chain := false, false, false
	for _, c := range circuits {
		chainLen := make([]int, c.NumSignals())
		for _, id := range c.order {
			typ := c.Types[id]
			types[typ] = true
			wideXor = wideXor || typ == Xor && len(c.Fanin[id]) > 2
			wideXnor = wideXnor || typ == Xnor && len(c.Fanin[id]) > 2
			if typ == Buf || typ == Not {
				chainLen[id] = chainLen[c.Fanin[id][0]] + 1
				chain = chain || chainLen[id] >= 3
			}
		}
	}
	for _, typ := range []GateType{Buf, Not, And, Nand, Or, Nor, Xor, Xnor} {
		if !types[typ] {
			t.Errorf("no %v gate in the test circuits", typ)
		}
	}
	if !wideXor || !wideXnor || !chain {
		t.Errorf("test circuits lack a wide XOR (%v), a wide XNOR (%v) or a BUF/NOT chain of three (%v)", wideXor, wideXnor, chain)
	}
}
