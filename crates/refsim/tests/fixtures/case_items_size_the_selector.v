// Found by random_exprs: a case selector was evaluated at its own
// width, so the carry of `a + b` was lost before it met a wider item.
// IEEE 1364-2005 §9.5 sizes the case expression and every item to the
// widest of them all. Resolved in the kernel (`program.rs`); no row
// moved.
// drive: a=4'd9 b=4'd7
// drive: a=4'd1 b=4'd2
module case_items_size_the_selector(input [3:0] a, input [3:0] b, output reg [1:0] y);
always @(*) begin
case (a + b)
5'd16: y = 2'd1;
5'd3: y = 2'd2;
default: y = 2'd3;
endcase
end
endmodule
