package circuit

import (
	"fmt"
	"math/rand"
)

// RandomOptions configures synthetic netlist generation.
type RandomOptions struct {
	Inputs  int
	Gates   int
	Outputs int
	// MaxFanin bounds gate fanin (>= 2); default 3.
	MaxFanin int
	Seed     int64
}

// Random generates a deterministic random combinational circuit: gates are
// created in levelized order with fanins drawn from earlier signals
// (biased toward recent ones, which yields deep, path-rich structures),
// and the outputs are the last Outputs signals created (a random signal
// for each output past the signal count). A signal with no path to one
// of those outputs is unobservable, so its faults are untestable.
func Random(name string, opt RandomOptions) (*Circuit, error) {
	if opt.Inputs < 1 || opt.Gates < 1 || opt.Outputs < 1 {
		return nil, fmt.Errorf("circuit: Random needs >=1 input, gate and output")
	}
	if opt.MaxFanin < 2 {
		opt.MaxFanin = 3
	}
	r := rand.New(rand.NewSource(opt.Seed))
	b := NewBuilder(name)
	var signals []string
	for i := 0; i < opt.Inputs; i++ {
		n := fmt.Sprintf("I%d", i)
		b.AddInput(n)
		signals = append(signals, n)
	}
	types := []GateType{And, Nand, Or, Nor, Xor, Xnor, Not, Buf}
	weights := []int{20, 25, 20, 15, 8, 4, 6, 2} // NAND-heavy, like ISCAS
	totalW := 0
	for _, w := range weights {
		totalW += w
	}
	pickType := func() GateType {
		x := r.Intn(totalW)
		for i, w := range weights {
			if x < w {
				return types[i]
			}
			x -= w
		}
		return Nand
	}
	// pickSignal prefers recent signals: index drawn from the last
	// half with probability 3/4.
	pickSignal := func() string {
		n := len(signals)
		if n == 1 || r.Intn(4) > 0 && n > 4 {
			lo := n / 2
			return signals[lo+r.Intn(n-lo)]
		}
		return signals[r.Intn(n)]
	}
	for g := 0; g < opt.Gates; g++ {
		name := fmt.Sprintf("N%d", g)
		t := pickType()
		var fanin []string
		if t == Not || t == Buf {
			fanin = []string{pickSignal()}
		} else {
			k := 2 + r.Intn(opt.MaxFanin-1)
			seen := map[string]bool{}
			for len(fanin) < k {
				s := pickSignal()
				if !seen[s] {
					seen[s] = true
					fanin = append(fanin, s)
				}
				if len(seen) == len(signals) {
					break
				}
			}
			if len(fanin) < 2 {
				t = Buf
				fanin = fanin[:1]
			}
		}
		if _, err := b.AddGate(name, t, fanin...); err != nil {
			return nil, err
		}
		signals = append(signals, name)
	}
	// Outputs: prefer the most recently created gates.
	for o := 0; o < opt.Outputs; o++ {
		idx := len(signals) - 1 - o
		if idx < 0 {
			idx = r.Intn(len(signals))
		}
		b.AddOutput(signals[idx])
	}
	return b.Finalize()
}
