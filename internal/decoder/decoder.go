// Package decoder models the on-chip decompression hardware implied by
// the paper: a finite-state machine that walks the prefix-code tree bit
// by bit and, on reaching a codeword leaf, emits the matching vector's
// specified bits while shifting the transmitted fill bits into the U
// positions. The package provides the hardware's cycle and area cost
// model and its synthesizable Verilog; the decoding itself is
// blockcode.Decode, the one block decoder.
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
	return &FSM{set: set, code: code, trie: trie}, nil
}

// Stats reports a decode run.
type Stats struct {
	Blocks    int
	InputBits int
	// Cycles assumes one cycle per consumed input bit plus K cycles to
	// shift each decoded block into the scan chain.
	Cycles int
}

// Run decodes totalBits trits of a block-code payload from r through
// blockcode.Decode and reports what the hardware spends on them: the
// payload bits it consumes, the ⌈totalBits/K⌉ blocks it emits, and the
// cycles of the model in Stats.
func (f *FSM) Run(r *bitstream.Reader, totalBits int) (tritvec.Vector, Stats, error) {
	start := r.Pos()
	out, err := blockcode.Decode(r, f.set, f.code, totalBits)
	if err != nil {
		return tritvec.Vector{}, Stats{}, fmt.Errorf("decoder: %w", err)
	}
	st := Stats{Blocks: (totalBits + f.set.K - 1) / f.set.K, InputBits: r.Pos() - start}
	st.Cycles = st.InputBits + f.set.K*st.Blocks
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
