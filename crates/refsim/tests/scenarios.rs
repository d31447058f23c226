//! Hand-written scenarios, each driven on the event kernel and the
//! reference in lockstep and compared — every word of every signal —
//! after every drive: the scheduling rules of the `SimControl` contract
//! one at a time, and the four-state corners a design meets first.

use std::sync::Arc;
use uvllm_refsim::{lockstep, RefSim, ACTIVATION_CAP};
use uvllm_sim::{elaborate, Design, Logic, SimControl, SimError, Simulator};

/// The kernel and the reference over one design.
struct Pair {
    kernel: Simulator,
    reference: RefSim,
}

fn design(src: &str) -> Arc<Design> {
    let file = uvllm_verilog::parse(src).unwrap();
    Arc::new(elaborate(&file, file.top().map(|m| m.name_of(m.name)).unwrap()).unwrap())
}

fn pair(src: &str) -> Pair {
    let design = design(src);
    let kernel = Simulator::from_arc(Arc::clone(&design)).unwrap();
    let reference = RefSim::new(design).unwrap();
    let mut pair = Pair { kernel, reference };
    pair.drive("time zero", |_| Ok(())).unwrap();
    pair
}

impl Pair {
    fn drive(
        &mut self,
        what: &str,
        drive: impl Fn(&mut dyn SimControl) -> Result<(), SimError>,
    ) -> Result<(), SimError> {
        lockstep(&mut self.kernel, &mut self.reference, drive)
            .unwrap_or_else(|difference| panic!("after {what}: {difference}"))
    }

    fn poke(&mut self, name: &str, value: Logic) {
        let id = self.kernel.design().signal_id(name).unwrap();
        self.drive(&format!("poke {name} = {value}"), |sim| sim.poke(id, value)).unwrap();
    }

    /// Stages every `(name, value)` and settles once.
    fn step(&mut self, inputs: &[(&str, Logic)]) {
        let ids: Vec<_> = inputs
            .iter()
            .map(|(name, value)| (self.kernel.design().signal_id(name).unwrap(), *value))
            .collect();
        self.drive(&format!("a time step of {inputs:?}"), |sim| {
            for (id, value) in &ids {
                sim.stage(*id, *value);
            }
            sim.settle()
        })
        .unwrap();
    }

    fn known(&self, name: &str) -> Option<u128> {
        self.kernel.peek_by_name(name).unwrap().to_u128()
    }
}

fn bit(value: bool) -> Logic {
    Logic::bit(value)
}

#[test]
fn the_activation_cap_is_the_kernels() {
    assert_eq!(ACTIVATION_CAP, uvllm_sim::MAX_ACTIVATIONS);
}

#[test]
fn combinational_chain_matches_event_engine() {
    let mut p = pair(
        "module m(input [7:0] a, input [7:0] b, output [8:0] s, output [7:0] n);\n\
         assign s = a + b;\nassign n = ~a;\nendmodule\n",
    );
    p.poke("a", Logic::from_u128(8, 200));
    p.poke("b", Logic::from_u128(8, 100));
    assert_eq!(p.known("s"), Some(300));
}

#[test]
fn clocked_counter_matches_event_engine() {
    let mut p = pair(
        "module c(input clk, input rst_n, output reg [3:0] q);\n\
         always @(posedge clk or negedge rst_n) begin\n\
         if (!rst_n) q <= 4'd0; else q <= q + 4'd1;\nend\nendmodule\n",
    );
    p.poke("clk", bit(false));
    p.poke("rst_n", bit(false));
    p.poke("rst_n", bit(true));
    for _ in 0..9 {
        p.poke("clk", bit(true));
        p.poke("clk", bit(false));
    }
    assert_eq!(p.known("q"), Some(9));
}

#[test]
fn memory_and_x_propagation_match() {
    let mut p = pair(
        "module r(input clk, input we, input [3:0] addr, input [7:0] din,\n\
         output [7:0] dout);\nreg [7:0] mem [0:15];\n\
         always @(posedge clk) if (we) mem[addr] <= din;\n\
         assign dout = mem[addr];\nendmodule\n",
    );
    p.poke("clk", bit(false));
    p.poke("we", bit(true));
    p.poke("addr", Logic::from_u128(4, 5));
    p.poke("din", Logic::from_u128(8, 0xAB));
    p.poke("clk", bit(true));
    assert_eq!(p.known("dout"), Some(0xAB));
    // An unwritten word reads X; an X address writes nothing.
    p.poke("addr", Logic::from_u128(4, 6));
    assert_eq!(p.known("dout"), None);
    p.poke("clk", bit(false));
    p.poke("addr", Logic::xs(4));
    p.poke("clk", bit(true));
    p.poke("addr", Logic::from_u128(4, 5));
    assert_eq!(p.known("dout"), Some(0xAB));
}

#[test]
fn truncating_concat_keeps_the_low_128_bits() {
    let mut p = pair(
        "module w(input [63:0] a, input [63:0] b, input [63:0] c,\n\
         input [127:0] d, output [127:0] y, output [63:0] z,\n\
         output [127:0] e);\n\
         assign y = {a, b, c};\n\
         assign z = {a, b, c} >> 64;\n\
         assign e = {d, a};\nendmodule\n",
    );
    let (av, bv, cv) = (0xA5A5_5A5A_DEAD_BEEFu128, 0x0123_4567_89AB_CDEFu128, 7u128);
    let dv = 0xFFFF_0000_FFFF_0000_1234_5678_9ABC_DEF0u128;
    p.poke("a", Logic::from_u128(64, av));
    p.poke("b", Logic::from_u128(64, bv));
    p.poke("c", Logic::from_u128(64, cv));
    p.poke("d", Logic::from_u128(128, dv));
    assert_eq!(p.known("y"), Some((bv << 64) | cv), "{{a, b, c}} keeps {{b, c}}");
    assert_eq!(p.known("z"), Some(bv));
    assert_eq!(p.known("e"), Some((dv << 64) | av), "{{d, a}} keeps {{d[63:0], a}}");
    p.poke("c", Logic::xs(64));
    assert_eq!(p.known("y"), None);
}

#[test]
fn incomplete_sensitivity_matches_event_engine() {
    let mut p =
        pair("module m(input a, input b, output reg y);\nalways @(a) y = a & b;\nendmodule\n");
    p.poke("a", bit(true));
    p.poke("b", bit(true));
    assert_eq!(p.known("y"), None, "b is not listened to");
    p.poke("a", bit(false));
    p.poke("a", bit(true));
    assert_eq!(p.known("y"), Some(1));
}

#[test]
fn x_feedback_settles_like_event_engine() {
    let p = pair("module fx(output y);\nassign y = ~y;\nendmodule\n");
    assert_eq!(p.known("y"), None);
}

#[test]
fn oscillation_reports_unstable_at_the_cap() {
    let osc = design(
        "module osc(output reg a, output reg b);\n\
         always @(*) begin\ncase (b)\n1'b0: a = 1'b1;\ndefault: a = 1'b0;\nendcase\nend\n\
         always @(*) begin\ncase (a)\n1'b0: b = 1'b0;\ndefault: b = 1'b1;\nendcase\nend\n\
         endmodule\n",
    );
    let unstable = Err(SimError::Unstable { activations: ACTIVATION_CAP });
    assert_eq!(Simulator::from_arc(Arc::clone(&osc)).map(|_| ()), unstable);
    assert_eq!(RefSim::new(osc).map(|_| ()), unstable);

    // Gated, the same loop oscillates on one drive and the state both
    // sides are left in still agrees.
    let mut p = pair(
        "module osc(input trig, output reg a, output reg b);\n\
         always @(*) begin\nif (trig) begin\ncase (b)\n1'b0: a = 1'b1;\n\
         default: a = 1'b0;\nendcase\nend else\na = 1'b0;\nend\n\
         always @(*) begin\nif (trig) begin\ncase (a)\n1'b0: b = 1'b0;\n\
         default: b = 1'b1;\nendcase\nend else\nb = 1'b0;\nend\nendmodule\n",
    );
    p.poke("trig", bit(false));
    let id = p.kernel.design().signal_id("trig").unwrap();
    assert_eq!(p.drive("poke trig = 1", |sim| sim.poke(id, bit(true))), unstable);
    p.poke("trig", bit(false));
    assert_eq!((p.known("a"), p.known("b")), (Some(0), Some(0)));
}

#[test]
fn nonblocking_swap_matches() {
    let mut p = pair(
        "module swap(input clk, output reg a, output reg b);\n\
         initial begin\na = 1'b0;\nb = 1'b1;\nend\n\
         always @(posedge clk) begin\na <= b;\nb <= a;\nend\nendmodule\n",
    );
    p.poke("clk", bit(false));
    p.poke("clk", bit(true));
    assert_eq!((p.known("a"), p.known("b")), (Some(1), Some(0)));
}

#[test]
fn division_by_zero_is_x() {
    let mut p = pair(
        "module d(input [7:0] a, input [7:0] b, output [7:0] q, output [7:0] r);\n\
         assign q = a / b;\nassign r = a % b;\nendmodule\n",
    );
    p.poke("a", Logic::from_u128(8, 42));
    p.poke("b", Logic::from_u128(8, 0));
    assert_eq!((p.known("q"), p.known("r")), (None, None));
    p.poke("b", Logic::from_u128(8, 6));
    assert_eq!((p.known("q"), p.known("r")), (Some(7), Some(0)));
}

#[test]
fn staged_inputs_land_together_and_wake_a_process_once() {
    let mut p = pair(
        "module m(input a, input b, output reg [7:0] n, output reg y);\ninitial n = 8'd0;\n\
         always @(posedge a or posedge b) n = n + 8'd1;\nalways @(a) y = a & b;\nendmodule\n",
    );
    p.step(&[("a", bit(false)), ("b", bit(false))]);
    let start = p.known("n").unwrap();
    p.step(&[("a", bit(true)), ("b", bit(true))]);
    assert_eq!(p.known("n"), Some(start + 1), "two edges of one time step: one wake-up");
    assert_eq!(p.known("y"), Some(1), "woken by a, the block reads the new b");
}

#[test]
fn a_woken_process_misses_its_own_writes_but_not_another_s() {
    // The divider resets and rebuilds what it reads; `t` is written by
    // the second block after the first has already run.
    let mut p = pair(
        "module m(input [3:0] a, input [3:0] b, output reg [3:0] q, output reg [3:0] r,\n\
         output reg y);\nreg t;\ninteger i;\n\
         always @(*) begin\nq = 4'd0;\nr = 4'd0;\n\
         for (i = 3; i >= 0; i = i - 1) begin\nr = {r[2:0], a[i]};\n\
         if (r >= b) begin\nr = r - b;\nq[i] = 1'b1;\nend\nend\nend\n\
         always @(a or t) y = a[0] ^ t;\nalways @(a) t = ~a[0];\nendmodule\n",
    );
    p.step(&[("a", Logic::from_u128(4, 13)), ("b", Logic::from_u128(4, 4))]);
    assert_eq!((p.known("q"), p.known("r")), (Some(3), Some(1)));
    assert_eq!((p.known("t"), p.known("y")), (Some(0), Some(1)));
}

#[test]
fn an_edge_from_or_to_x_follows_the_edge_table() {
    // 0 -> X is a rising edge and 1 -> Z a falling one (IEEE 1364
    // §9.7.2); X -> Z is neither.
    let mut p = pair(
        "module e(input c, output reg [3:0] up, output reg [3:0] down);\n\
         initial begin\nup = 4'd0;\ndown = 4'd0;\nend\n\
         always @(posedge c) up = up + 4'd1;\nalways @(negedge c) down = down + 4'd1;\n\
         endmodule\n",
    );
    let z = Logic::from_planes(1, 1, 1);
    for value in [bit(false), Logic::xs(1), bit(true), z, Logic::xs(1), bit(false), z, bit(true)] {
        p.poke("c", value);
    }
    assert_eq!((p.known("up"), p.known("down")), (Some(4), Some(3)));
}
