package circuit

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/tritvec"
)

func TestC17Structure(t *testing.T) {
	c := C17()
	if len(c.Inputs) != 5 || len(c.Outputs) != 2 {
		t.Fatalf("c17: %d inputs %d outputs", len(c.Inputs), len(c.Outputs))
	}
	if c.NumGates() != 6 {
		t.Fatalf("c17: %d gates", c.NumGates())
	}
}

func TestC17TruthSample(t *testing.T) {
	c := C17()
	// All-zero input: G10=G11=1, G16=NAND(0,1)=1, G19=NAND(1,0)=1,
	// G22=NAND(1,1)=0, G23=NAND(1,1)=0.
	vals := c.Sim3(tritvec.MustFromString("00000"), nil)
	out := c.OutputsOf(vals)
	if out[0] != tritvec.Zero || out[1] != tritvec.Zero {
		t.Fatalf("c17(00000) = %v", out)
	}
	// All-ones: G10=NAND(1,1)=0, G11=0, G16=NAND(1,0)=1, G19=NAND(0,1)=1,
	// G22=NAND(0,1)=1, G23=NAND(1,1)=0.
	vals = c.Sim3(tritvec.MustFromString("11111"), nil)
	out = c.OutputsOf(vals)
	if out[0] != tritvec.One || out[1] != tritvec.Zero {
		t.Fatalf("c17(11111) = %v", out)
	}
}

func TestSim3XPropagation(t *testing.T) {
	c := C17()
	// With all inputs X, outputs must be X.
	vals := c.Sim3(tritvec.New(5), nil)
	for _, o := range c.OutputsOf(vals) {
		if o != tritvec.X {
			t.Fatal("all-X inputs must give X outputs")
		}
	}
	// Controlling value dominates X: NAND(0, X) = 1.
	b := NewBuilder("t")
	b.AddInput("a")
	b.AddInput("b")
	if _, err := b.AddGate("y", Nand, "a", "b"); err != nil {
		t.Fatal(err)
	}
	b.AddOutput("y")
	tc, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	vals = tc.Sim3(tritvec.MustFromString("0X"), nil)
	if vals[tc.SignalID("y")] != tritvec.One {
		t.Fatal("NAND(0,X) must be 1")
	}
	vals = tc.Sim3(tritvec.MustFromString("1X"), nil)
	if vals[tc.SignalID("y")] != tritvec.X {
		t.Fatal("NAND(1,X) must be X")
	}
}

func TestEval3AllGates(t *testing.T) {
	Z, O, XX := tritvec.Zero, tritvec.One, tritvec.X
	cases := []struct {
		t    GateType
		in   []tritvec.Trit
		want tritvec.Trit
	}{
		{Buf, []tritvec.Trit{O}, O},
		{Not, []tritvec.Trit{O}, Z},
		{Not, []tritvec.Trit{XX}, XX},
		{And, []tritvec.Trit{O, O, O}, O},
		{And, []tritvec.Trit{O, Z, XX}, Z},
		{And, []tritvec.Trit{O, XX}, XX},
		{Nand, []tritvec.Trit{O, O}, Z},
		{Or, []tritvec.Trit{Z, Z}, Z},
		{Or, []tritvec.Trit{Z, O, XX}, O},
		{Or, []tritvec.Trit{Z, XX}, XX},
		{Nor, []tritvec.Trit{Z, Z}, O},
		{Xor, []tritvec.Trit{O, O}, Z},
		{Xor, []tritvec.Trit{O, Z}, O},
		{Xor, []tritvec.Trit{O, XX}, XX},
		{Xnor, []tritvec.Trit{O, Z}, Z},
	}
	for _, c := range cases {
		// The case's inputs are the whole value array, and the gate's
		// fanins are their positions.
		fanin := make([]int, len(c.in))
		for i := range fanin {
			fanin[i] = i
		}
		if got := evalGate(c.t, fanin, c.in); got != c.want {
			t.Errorf("%v%v = %v want %v", c.t, c.in, got, c.want)
		}
	}
}

func TestSim64AgreesWithSim3(t *testing.T) {
	c, err := Random("rnd", RandomOptions{Inputs: 8, Gates: 40, Outputs: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(4))
	// 64 random fully-specified patterns, evaluated both ways.
	words := make([]uint64, len(c.Inputs))
	patterns := make([]tritvec.Vector, 64)
	for p := 0; p < 64; p++ {
		v := tritvec.New(len(c.Inputs))
		v.FillRandom(r)
		patterns[p] = v
		for i := 0; i < v.Len(); i++ {
			if v.Get(i) == tritvec.One {
				words[i] |= 1 << uint(p)
			}
		}
	}
	par := c.Sim64(words, nil)
	for p := 0; p < 64; p++ {
		vals := c.Sim3(patterns[p], nil)
		for _, id := range c.Outputs {
			scalar := vals[id]
			bit := par[id] >> uint(p) & 1
			if (scalar == tritvec.One) != (bit == 1) {
				t.Fatalf("pattern %d signal %s: scalar %v parallel %d", p, c.Names[id], scalar, bit)
			}
		}
	}
}

func TestForceFault(t *testing.T) {
	c := C17()
	g10 := c.SignalID("G10")
	vals := c.Sim3(tritvec.MustFromString("11111"), &Force{Signal: g10, Value: tritvec.One})
	// Good: G22 = 1 (G10=0). Faulty G10=1: G22=NAND(1,1)=0.
	if vals[c.SignalID("G22")] != tritvec.Zero {
		t.Fatal("forcing G10=1 must flip G22 on 11111")
	}
	// Force on an input signal.
	g1 := c.SignalID("G1")
	vals = c.Sim3(tritvec.MustFromString("00000"), &Force{Signal: g1, Value: tritvec.One})
	if vals[g1] != tritvec.One {
		t.Fatal("input force ignored")
	}
}

func TestParseBenchRoundTrip(t *testing.T) {
	src := `
# test circuit
INPUT(a)
INPUT(b)
OUTPUT(y)
n1 = NAND(a, b)
y = NOT(n1)
`
	c, err := ParseBench("t", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Inputs) != 2 || len(c.Outputs) != 1 || c.NumGates() != 2 {
		t.Fatalf("parsed wrong shape: %d/%d/%d", len(c.Inputs), len(c.Outputs), c.NumGates())
	}
	vals := c.Sim3(tritvec.MustFromString("11"), nil)
	if vals[c.SignalID("y")] != tritvec.One {
		t.Fatal("y = NOT(NAND(1,1)) must be 1")
	}
	var buf bytes.Buffer
	if err := c.WriteBench(&buf); err != nil {
		t.Fatal(err)
	}
	c2, err := ParseBench("t2", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if c2.NumGates() != c.NumGates() || len(c2.Inputs) != len(c.Inputs) {
		t.Fatal("bench round trip changed circuit")
	}
}

func TestParseBenchDFFExtraction(t *testing.T) {
	src := `
INPUT(x)
OUTPUT(z)
q = DFF(d)
d = AND(x, q)
z = NOT(q)
`
	c, err := ParseBench("seq", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	// q becomes a pseudo input; d a pseudo output.
	if len(c.Inputs) != 2 {
		t.Fatalf("inputs=%d want 2 (x + pseudo q)", len(c.Inputs))
	}
	if len(c.Outputs) != 2 {
		t.Fatalf("outputs=%d want 2 (z + pseudo d)", len(c.Outputs))
	}
}

func TestParseBenchErrors(t *testing.T) {
	cases := []string{
		"INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n",
		"INPUT(a)\nOUTPUT(y)\ny NAND(a)\n",
		"INPUT(a)\nOUTPUT(y)\ny = NAND a\n",
		"INPUT()\n",
		"INPUT(a)\nOUTPUT(y)\ny = NOT(a, a)\n",
		"INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = NOT(a)\n", // double definition
		"INPUT(a)\nOUTPUT(y)\ny = DFF(a, a)\n",
		"INPUT(a)\nOUTPUT(y)\ny = NOT(z)\nz = NOT(y)\n", // loop
	}
	for i, src := range cases {
		if _, err := ParseBench("bad", strings.NewReader(src)); err == nil {
			t.Errorf("case %d: malformed bench accepted", i)
		}
	}
}

func TestBuilderValidation(t *testing.T) {
	b := NewBuilder("v")
	b.AddInput("a")
	if _, err := b.AddGate("g", And, "a"); err == nil {
		t.Fatal("AND with one fanin accepted by AddGate")
	}
	if _, err := b.AddGate("a2", Input, "a"); err == nil {
		t.Fatal("gate of type Input accepted")
	}
	// Undriven non-input signal.
	b2 := NewBuilder("v2")
	b2.AddInput("a")
	if _, err := b2.AddGate("y", And, "a", "ghost"); err != nil {
		t.Fatal(err)
	}
	b2.AddOutput("y")
	if _, err := b2.Finalize(); err == nil {
		t.Fatal("undriven signal not detected")
	}
	// No outputs.
	b3 := NewBuilder("v3")
	b3.AddInput("a")
	if _, err := b3.Finalize(); err == nil {
		t.Fatal("no-output circuit accepted")
	}
}

func TestRandomCircuitDeterministic(t *testing.T) {
	opt := RandomOptions{Inputs: 6, Gates: 30, Outputs: 4, Seed: 7}
	a, err := Random("a", opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Random("b", opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumSignals() != b.NumSignals() {
		t.Fatal("same seed produced different circuits")
	}
	for i := range a.Types {
		if a.Types[i] != b.Types[i] {
			t.Fatal("same seed produced different gate types")
		}
	}
	if _, err := Random("bad", RandomOptions{}); err == nil {
		t.Fatal("zero options accepted")
	}
}

func TestLevels(t *testing.T) {
	c := C17()
	lv := c.Levels()
	if lv[c.SignalID("G1")] != 0 {
		t.Fatal("input level must be 0")
	}
	if lv[c.SignalID("G22")] != 3 {
		t.Fatalf("G22 level=%d want 3", lv[c.SignalID("G22")])
	}
}

func TestInputIndex(t *testing.T) {
	c := C17()
	if c.InputIndex(c.SignalID("G2")) != 1 {
		t.Fatal("InputIndex wrong")
	}
	if c.InputIndex(c.SignalID("G22")) != -1 {
		t.Fatal("gate signal must have no input index")
	}
	if c.SignalID("nope") != -1 {
		t.Fatal("unknown signal id")
	}
	// Every constructor finalizes through Builder.Finalize, which builds
	// the table: a parsed netlist with DFF pseudo inputs and a random one.
	seq, err := ParseBench("seq", strings.NewReader("INPUT(x)\nOUTPUT(z)\nq = DFF(d)\nd = AND(x, q)\nz = NOT(q)\n"))
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := Random("rnd", RandomOptions{Inputs: 9, Gates: 40, Outputs: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Circuit{c, seq, rnd} {
		for id := 0; id < c.NumSignals(); id++ {
			want := -1
			for i, in := range c.Inputs {
				if in == id {
					want = i
				}
			}
			if got := c.InputIndex(id); got != want {
				t.Fatalf("%s: InputIndex(%s) = %d, want %d", c.Name, c.Names[id], got, want)
			}
		}
		for _, id := range []int{-1, c.NumSignals()} {
			if got := c.InputIndex(id); got != -1 {
				t.Fatalf("%s: InputIndex(%d) outside the circuit = %d, want -1", c.Name, id, got)
			}
		}
	}
	b := NewBuilder("dup")
	b.AddInput("a")
	b.AddInput("a")
	b.AddOutput("a")
	if _, err := b.Finalize(); err == nil {
		t.Fatal("input declared twice accepted")
	}
}
