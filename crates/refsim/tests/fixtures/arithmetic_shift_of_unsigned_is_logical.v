// Found by random_exprs: `>>>` filled with the top bit of its operand.
// The elaborated IR has no signed values, and on an unsigned operand
// IEEE 1364-2005 §5.1.12 fills with 0. Resolved in the kernel
// (`eval.rs`); no row moved (no design or mutant shifts with `>>>`).
// drive: a=8'h80 n=3'd3
// drive: a=8'hff n=3'd7
module arithmetic_shift_of_unsigned_is_logical(input [7:0] a, input [2:0] n, output [7:0] y);
assign y = a >>> n;
endmodule
