package decoder

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/tritvec"
)

// WriteVerilog emits a synthesizable RTL description of the decoder: the
// prefix-tree walker as a state machine over the codeword trie, the
// matching-vector ROM, and the fill-bit shifter. One compressed bit is
// consumed per clock while in the WALK or FILL states; decoded blocks are
// presented K bits parallel on `block` with a one-cycle `valid` strobe.
//
// The module is self-contained (no external memories) and is the concrete
// artifact behind the paper's "compact on-chip decoders" claim; its table
// sizes match the Area() model.
func (f *FSM) WriteVerilog(w io.Writer, moduleName string) error {
	bw := bufio.NewWriter(w)
	k := f.set.K
	nStates := f.trie.NumNodes()
	stateBits := bitsFor(nStates + 1)
	mvBits := bitsFor(len(f.set.MVs))
	uPos := f.set.UPositions()
	maxU := 0
	for _, u := range uPos {
		if len(u) > maxU {
			maxU = len(u)
		}
	}
	cntBits := bitsFor(maxU + 1)
	if cntBits == 0 {
		cntBits = 1
	}

	fmt.Fprintf(bw, "// Auto-generated test-data decompressor (K=%d, %d MVs, %d trie states).\n", k, len(f.set.MVs), nStates)
	fmt.Fprintf(bw, "// Interface: assert bit_in_valid with one compressed bit per cycle;\n")
	fmt.Fprintf(bw, "// block[%d:0] holds a decoded input block when valid is high.\n", k-1)
	fmt.Fprintf(bw, "module %s (\n", moduleName)
	fmt.Fprintf(bw, "  input  wire        clk,\n")
	fmt.Fprintf(bw, "  input  wire        rst,\n")
	fmt.Fprintf(bw, "  input  wire        bit_in,\n")
	fmt.Fprintf(bw, "  input  wire        bit_in_valid,\n")
	fmt.Fprintf(bw, "  output reg  [%d:0] block,\n", k-1)
	fmt.Fprintf(bw, "  output reg         valid\n")
	fmt.Fprintf(bw, ");\n\n")
	fmt.Fprintf(bw, "  localparam WALK = 1'b0, FILL = 1'b1;\n")
	fmt.Fprintf(bw, "  reg        phase;\n")
	fmt.Fprintf(bw, "  reg [%d:0] state;\n", stateBits-1)
	fmt.Fprintf(bw, "  reg [%d:0] mv;\n", mvBits-1)
	fmt.Fprintf(bw, "  reg [%d:0] fills_left;\n", cntBits-1)
	fmt.Fprintf(bw, "  reg [%d:0] fill_idx;\n\n", cntBits-1)

	// Trie transition function.
	fmt.Fprintf(bw, "  // Codeword trie: next state or MV hit per (state, bit).\n")
	fmt.Fprintf(bw, "  reg [%d:0] next_state;\n", stateBits-1)
	fmt.Fprintf(bw, "  reg        hit;\n")
	fmt.Fprintf(bw, "  reg [%d:0] hit_mv;\n", mvBits-1)
	fmt.Fprintf(bw, "  always @(*) begin\n")
	fmt.Fprintf(bw, "    next_state = %d'd0; hit = 1'b0; hit_mv = %d'd0;\n", stateBits, mvBits)
	fmt.Fprintf(bw, "    case ({state, bit_in})\n")
	for _, e := range f.trie.Edges() {
		if e.Leaf {
			fmt.Fprintf(bw, "      {%d'd%d, 1'b%d}: begin hit = 1'b1; hit_mv = %d'd%d; end\n",
				stateBits, e.From, e.Bit, mvBits, e.Symbol)
		} else {
			fmt.Fprintf(bw, "      {%d'd%d, 1'b%d}: next_state = %d'd%d;\n",
				stateBits, e.From, e.Bit, stateBits, e.To)
		}
	}
	fmt.Fprintf(bw, "      default: ;\n")
	fmt.Fprintf(bw, "    endcase\n")
	fmt.Fprintf(bw, "  end\n\n")

	// MV ROM: specified bits, U mask, fill counts and U position tables.
	fmt.Fprintf(bw, "  // Matching-vector ROM.\n")
	fmt.Fprintf(bw, "  wire [%d:0] mv_sel = hit ? hit_mv : mv;\n", mvBits-1)
	fmt.Fprintf(bw, "  reg [%d:0] mv_bits;\n", k-1)
	fmt.Fprintf(bw, "  reg [%d:0] mv_ucount;\n", cntBits-1)
	fmt.Fprintf(bw, "  always @(*) begin\n")
	fmt.Fprintf(bw, "    case (mv_sel)\n")
	for i, v := range f.set.MVs {
		var bits uint64
		for j := 0; j < k; j++ {
			if v.Get(j) == tritvec.One {
				bits |= 1 << uint(k-1-j)
			}
		}
		fmt.Fprintf(bw, "      %d'd%d: begin mv_bits = %d'b%0*b; mv_ucount = %d'd%d; end\n",
			mvBits, i, k, k, bits, cntBits, len(uPos[i]))
	}
	fmt.Fprintf(bw, "      default: begin mv_bits = %d'd0; mv_ucount = %d'd0; end\n", k, cntBits)
	fmt.Fprintf(bw, "    endcase\n")
	fmt.Fprintf(bw, "  end\n\n")

	// U-position table: for (mv, fill_idx) -> bit position within block.
	posBits := bitsFor(k)
	fmt.Fprintf(bw, "  reg [%d:0] upos;\n", posBits-1)
	fmt.Fprintf(bw, "  always @(*) begin\n")
	fmt.Fprintf(bw, "    case ({mv, fill_idx})\n")
	for i, ups := range uPos {
		for idx, pos := range ups {
			fmt.Fprintf(bw, "      {%d'd%d, %d'd%d}: upos = %d'd%d;\n",
				mvBits, i, cntBits, idx, posBits, k-1-pos)
		}
	}
	fmt.Fprintf(bw, "      default: upos = %d'd0;\n", posBits)
	fmt.Fprintf(bw, "    endcase\n")
	fmt.Fprintf(bw, "  end\n\n")

	// Sequential logic.
	fmt.Fprintf(bw, "  always @(posedge clk) begin\n")
	fmt.Fprintf(bw, "    valid <= 1'b0;\n")
	fmt.Fprintf(bw, "    if (rst) begin\n")
	fmt.Fprintf(bw, "      phase <= WALK; state <= %d'd0; fills_left <= %d'd0; fill_idx <= %d'd0;\n", stateBits, cntBits, cntBits)
	fmt.Fprintf(bw, "    end else if (bit_in_valid) begin\n")
	fmt.Fprintf(bw, "      if (phase == WALK) begin\n")
	fmt.Fprintf(bw, "        if (hit) begin\n")
	fmt.Fprintf(bw, "          block <= mv_bits; mv <= hit_mv; state <= %d'd0;\n", stateBits)
	fmt.Fprintf(bw, "          if (mv_ucount == %d'd0) valid <= 1'b1;\n", cntBits)
	fmt.Fprintf(bw, "          else begin phase <= FILL; fills_left <= mv_ucount; fill_idx <= %d'd0; end\n", cntBits)
	fmt.Fprintf(bw, "        end else state <= next_state;\n")
	fmt.Fprintf(bw, "      end else begin // FILL\n")
	fmt.Fprintf(bw, "        block[upos] <= bit_in;\n")
	fmt.Fprintf(bw, "        fill_idx <= fill_idx + %d'd1;\n", cntBits)
	fmt.Fprintf(bw, "        if (fills_left == %d'd1) begin phase <= WALK; valid <= 1'b1; end\n", cntBits)
	fmt.Fprintf(bw, "        fills_left <= fills_left - %d'd1;\n", cntBits)
	fmt.Fprintf(bw, "      end\n")
	fmt.Fprintf(bw, "    end\n")
	fmt.Fprintf(bw, "  end\n\n")
	fmt.Fprintf(bw, "endmodule\n")
	return bw.Flush()
}

// bitsFor returns the number of bits needed to represent values 0..n-1
// (minimum 1).
func bitsFor(n int) int {
	b := 1
	for (1 << uint(b)) < n {
		b++
	}
	return b
}

// NOTE on the hit-cycle block load: when a codeword completes (hit), the
// decoded block register is loaded from the MV ROM in the same cycle and
// the fill phase then overwrites the U positions bit by bit. The WALK
// phase consumes exactly |C(v)| cycles and FILL exactly NU(v) cycles, so
// the module's cycle count equals the Stats.InputBits component of the
// software model.
