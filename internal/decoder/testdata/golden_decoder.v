// Auto-generated test-data decompressor (K=4, 9 MVs, 2 trie states).
// Interface: assert bit_in_valid with one compressed bit per cycle;
// block[3:0] holds a decoded input block when valid is high.
module tcomp_flow_decoder (
  input  wire        clk,
  input  wire        rst,
  input  wire        bit_in,
  input  wire        bit_in_valid,
  output reg  [3:0] block,
  output reg         valid
);

  localparam WALK = 1'b0, FILL = 1'b1;
  reg        phase;
  reg [1:0] state;
  reg [3:0] mv;
  reg [2:0] fills_left;
  reg [2:0] fill_idx;

  // Codeword trie: next state or MV hit per (state, bit).
  reg [1:0] next_state;
  reg        hit;
  reg [3:0] hit_mv;
  always @(*) begin
    next_state = 2'd0; hit = 1'b0; hit_mv = 4'd0;
    case ({state, bit_in})
      {2'd0, 1'b0}: begin hit = 1'b1; hit_mv = 4'd0; end
      {2'd0, 1'b1}: next_state = 2'd1;
      {2'd1, 1'b0}: begin hit = 1'b1; hit_mv = 4'd1; end
      {2'd1, 1'b1}: begin hit = 1'b1; hit_mv = 4'd8; end
      default: ;
    endcase
  end

  // Matching-vector ROM.
  wire [3:0] mv_sel = hit ? hit_mv : mv;
  reg [3:0] mv_bits;
  reg [2:0] mv_ucount;
  always @(*) begin
    case (mv_sel)
      4'd0: begin mv_bits = 4'b0000; mv_ucount = 3'd0; end
      4'd1: begin mv_bits = 4'b1111; mv_ucount = 3'd0; end
      4'd2: begin mv_bits = 4'b0011; mv_ucount = 3'd0; end
      4'd3: begin mv_bits = 4'b1100; mv_ucount = 3'd0; end
      4'd4: begin mv_bits = 4'b1100; mv_ucount = 3'd2; end
      4'd5: begin mv_bits = 4'b0011; mv_ucount = 3'd2; end
      4'd6: begin mv_bits = 4'b0000; mv_ucount = 3'd2; end
      4'd7: begin mv_bits = 4'b0000; mv_ucount = 3'd2; end
      4'd8: begin mv_bits = 4'b0000; mv_ucount = 3'd4; end
      default: begin mv_bits = 4'd0; mv_ucount = 3'd0; end
    endcase
  end

  reg [1:0] upos;
  always @(*) begin
    case ({mv, fill_idx})
      {4'd4, 3'd0}: upos = 2'd1;
      {4'd4, 3'd1}: upos = 2'd0;
      {4'd5, 3'd0}: upos = 2'd3;
      {4'd5, 3'd1}: upos = 2'd2;
      {4'd6, 3'd0}: upos = 2'd1;
      {4'd6, 3'd1}: upos = 2'd0;
      {4'd7, 3'd0}: upos = 2'd3;
      {4'd7, 3'd1}: upos = 2'd2;
      {4'd8, 3'd0}: upos = 2'd3;
      {4'd8, 3'd1}: upos = 2'd2;
      {4'd8, 3'd2}: upos = 2'd1;
      {4'd8, 3'd3}: upos = 2'd0;
      default: upos = 2'd0;
    endcase
  end

  always @(posedge clk) begin
    valid <= 1'b0;
    if (rst) begin
      phase <= WALK; state <= 2'd0; fills_left <= 3'd0; fill_idx <= 3'd0;
    end else if (bit_in_valid) begin
      if (phase == WALK) begin
        if (hit) begin
          block <= mv_bits; mv <= hit_mv; state <= 2'd0;
          if (mv_ucount == 3'd0) valid <= 1'b1;
          else begin phase <= FILL; fills_left <= mv_ucount; fill_idx <= 3'd0; end
        end else state <= next_state;
      end else begin // FILL
        block[upos] <= bit_in;
        fill_idx <= fill_idx + 3'd1;
        if (fills_left == 3'd1) begin phase <= WALK; valid <= 1'b1; end
        fills_left <= fills_left - 3'd1;
      end
    end
  end

endmodule
