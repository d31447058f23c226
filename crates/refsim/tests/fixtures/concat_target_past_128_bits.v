// Found by random_exprs: an assignment to a concatenation wider than
// 128 bits panicked the kernel (no value can be that wide). Resolved
// in elaboration, which now rejects the target, as it rejects a signal
// wider than 128 bits; no row moved.
// elaborates: no
module concat_target_past_128_bits(input [127:0] a, output reg [127:0] x, output reg y);
always @(*) {y, x} = {a, a[0]};
endmodule
