// Package decoder models the on-chip decompression hardware implied by
// the paper: a finite-state machine that walks the prefix-code tree bit
// by bit and, on reaching a codeword leaf, emits the matching vector's
// specified bits while shifting the transmitted fill bits into the U
// positions. The package provides cycle-accurate decoding, an area
// estimate, and the reconfigurable-decoder variant suggested in the
// paper's conclusions (codeword/MV tables are loadable, so a test-set
// change needs no decoder redesign).
package decoder

import (
	"fmt"

	"repro/internal/bitstream"
	"repro/internal/blockcode"
	"repro/internal/huffman"
	"repro/internal/tritvec"
)

// FSM is the synthesized decoder.
type FSM struct {
	set  *blockcode.MVSet
	code *huffman.Code
	trie *huffman.Decoder

	// uPos[i] caches the U positions of MV i.
	uPos [][]int
}

// New synthesizes a decoder FSM for an MV set and its prefix code.
func New(set *blockcode.MVSet, code *huffman.Code) (*FSM, error) {
	if len(code.Lengths) != len(set.MVs) {
		return nil, fmt.Errorf("decoder: code has %d symbols, MV set has %d", len(code.Lengths), len(set.MVs))
	}
	trie, err := huffman.NewDecoder(code)
	if err != nil {
		return nil, err
	}
	f := &FSM{set: set, code: code, trie: trie, uPos: make([][]int, len(set.MVs))}
	for i, mv := range set.MVs {
		f.uPos[i] = mv.XPositions()
	}
	return f, nil
}

// Stats reports a decode run.
type Stats struct {
	Blocks    int
	InputBits int
	// Cycles assumes one cycle per consumed input bit plus K cycles to
	// shift each decoded block into the scan chain.
	Cycles int
}

// Run decodes nblocks from any bit source, one bit at a time, mirroring
// the hardware's bit-serial input, and returns the fully specified
// blocks and cycle statistics. Truncation
// errors wrap bitstream.ErrEOS.
func (f *FSM) Run(r bitstream.Source, nblocks int) ([]tritvec.Vector, Stats, error) {
	var st Stats
	if nblocks < 0 {
		return nil, st, fmt.Errorf("decoder: negative block count %d", nblocks)
	}
	// Bounded capacity: nblocks can derive from a hostile header (see
	// blockcode.Decode); growth past the cap costs real input bits.
	out := make([]tritvec.Vector, 0, min(nblocks, 1<<16))
	// The FSM counts consumed bits itself (the hardware has no notion of
	// buffer position), so any Source works.
	readBit := func() (uint, error) {
		bit, err := r.ReadBit()
		if err == nil {
			st.InputBits++
		}
		return bit, err
	}
	for b := 0; b < nblocks; b++ {
		sym, err := f.trie.Decode(readBit)
		if err != nil {
			return nil, st, fmt.Errorf("decoder: block %d: %w", b, err)
		}
		if sym < 0 || sym >= len(f.set.MVs) {
			return nil, st, fmt.Errorf("decoder: block %d decoded invalid MV index %d", b, sym)
		}
		blk := f.set.MVs[sym].Clone()
		for _, pos := range f.uPos[sym] {
			bit, err := readBit()
			if err != nil {
				return nil, st, fmt.Errorf("decoder: block %d fill: %w", b, err)
			}
			if bit == 1 {
				blk.Set(pos, tritvec.One)
			} else {
				blk.Set(pos, tritvec.Zero)
			}
		}
		out = append(out, blk)
		st.Cycles += f.set.K // shift-out
	}
	st.Blocks = nblocks
	st.Cycles += st.InputBits // one cycle per input bit
	return out, st, nil
}

// Area is a first-order hardware cost model.
type Area struct {
	// States is the number of FSM states (prefix-tree internal nodes
	// plus one fill-shift state).
	States int
	// MVTableBits is the matching-vector ROM: K positions × 2 bits per
	// trit × number of used MVs.
	MVTableBits int
	// GateEquivalents is a rough NAND2-equivalent estimate: 6 GE per
	// state flop+logic, 0.25 GE per ROM bit.
	GateEquivalents float64
}

// Area estimates the decoder hardware cost.
func (f *FSM) Area() Area {
	used := f.code.NumUsed()
	a := Area{
		States:      f.trie.NumNodes() + 1,
		MVTableBits: used * f.set.K * 2,
	}
	a.GateEquivalents = 6*float64(a.States) + 0.25*float64(a.MVTableBits)
	return a
}

// Reconfigurable is a decoder whose tables can be reloaded (paper §5: "a
// reconfigurable decoder, into which the codeword/matching vector
// information can be loaded"). Capacity is fixed at construction; Load
// rejects configurations that exceed it.
type Reconfigurable struct {
	maxMVs    int
	maxK      int
	maxStates int
	fsm       *FSM
}

// NewReconfigurable sizes hardware for at most maxMVs matching vectors of
// length up to maxK, with a prefix-tree budget of maxStates states.
func NewReconfigurable(maxMVs, maxK, maxStates int) *Reconfigurable {
	return &Reconfigurable{maxMVs: maxMVs, maxK: maxK, maxStates: maxStates}
}

// Load programs the decoder with a new MV set and code.
func (r *Reconfigurable) Load(set *blockcode.MVSet, code *huffman.Code) error {
	if len(set.MVs) > r.maxMVs {
		return fmt.Errorf("decoder: %d MVs exceed capacity %d", len(set.MVs), r.maxMVs)
	}
	if set.K > r.maxK {
		return fmt.Errorf("decoder: K=%d exceeds capacity %d", set.K, r.maxK)
	}
	fsm, err := New(set, code)
	if err != nil {
		return err
	}
	if fsm.trie.NumNodes() > r.maxStates {
		return fmt.Errorf("decoder: %d states exceed capacity %d", fsm.trie.NumNodes(), r.maxStates)
	}
	r.fsm = fsm
	return nil
}

// Run decodes with the currently loaded configuration.
func (r *Reconfigurable) Run(rd bitstream.Source, nblocks int) ([]tritvec.Vector, Stats, error) {
	if r.fsm == nil {
		return nil, Stats{}, fmt.Errorf("decoder: no configuration loaded")
	}
	return r.fsm.Run(rd, nblocks)
}

// Area returns the cost of the provisioned (maximum) configuration.
func (r *Reconfigurable) Area() Area {
	a := Area{
		States:      r.maxStates + 1,
		MVTableBits: r.maxMVs * r.maxK * 2,
	}
	a.GateEquivalents = 6*float64(a.States) + 0.25*float64(a.MVTableBits)
	return a
}
