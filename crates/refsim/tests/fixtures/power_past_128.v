// Found by random_exprs: `**` multiplied at most 128 times, so 3 ** 200
// came out as 3 ** 128 (8'h01 instead of 8'ha1). Resolved in the
// kernel by square-and-multiply (`logic.rs`); no row moved.
// drive: a=8'd3 e=8'd200
// drive: a=8'd5 e=8'd129
module power_past_128(input [7:0] a, input [7:0] e, output [7:0] y);
assign y = a ** e;
endmodule
