// Found by random_exprs: a bit select or memory word read at an X or
// out-of-range index gave X across the whole context (`y = a[i]` into
// an 8-bit `y` read 8'bxxxxxxxx). IEEE 1364-2005 §5.2.1 makes the
// select itself X — one bit, or one word — and §5.4 zero-extends it
// like any operand: 8'b0000000x. Resolved in the kernel (`eval.rs`);
// no row moved.
// drive: i=3'd2 a=4'b1010
// drive: i=3'd6
// drive: i=3'bx1x
module select_out_of_range_reads_narrow_x(input [2:0] i, input [3:0] a, output [7:0] y,
  output [7:0] w);
reg [3:0] mem [0:3];
initial begin
mem[0] = 4'd1;
mem[1] = 4'd2;
mem[2] = 4'd3;
mem[3] = 4'd4;
end
assign y = a[i];
assign w = mem[i];
endmodule
