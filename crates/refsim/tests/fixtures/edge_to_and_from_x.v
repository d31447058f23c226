// Found by random_exprs: a clock going 0 -> X did not fire `posedge`,
// and 1 -> Z did not fire `negedge`. IEEE 1364-2005 §9.7.2 counts
// 0 -> X/Z and X/Z -> 1 as rising, 1 -> X/Z and X/Z -> 0 as falling.
// Resolved in the kernel (the edge table in `sched.rs`); no row moved.
// drive: c=1'b0
// drive: c=1'bx
// drive: c=1'b1
// drive: c=1'bz
// drive: c=1'b0
// drive: c=1'bz
// drive: c=1'bx
// drive: c=1'b1
module edge_to_and_from_x(input c, output reg [3:0] up, output reg [3:0] down);
initial begin
up = 4'd0;
down = 4'd0;
end
always @(posedge c) up = up + 4'd1;
always @(negedge c) down = down + 4'd1;
endmodule
