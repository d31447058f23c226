// Found by random_exprs at its CI count (3 of 100 000 modules): a
// memory index was truncated to 64 bits before the range check, so
// index 2**64 + 1 read and wrote word 1. It is out of range: the read
// is X and the write is dropped. Resolved in the kernel (`eval.rs`,
// `sched.rs`); no row moved.
// drive: clk=1'b0 i=70'd1 d=4'h5
// drive: clk=1'b1
// drive: clk=1'b0 i=70'h040000000000000001 d=4'ha
// drive: clk=1'b1
module word_index_past_64_bits(input clk, input [69:0] i, input [3:0] d, output [3:0] y,
  output [3:0] one);
reg [3:0] mem [0:3];
always @(posedge clk) mem[i] <= d;
assign y = mem[i];
assign one = mem[1];
endmodule
