//! Arithmetic designs: accumulator, adders, subtractor, multipliers,
//! divider.

use crate::{tx, Category, Design};
use uvllm_uvm::{DutInterface, FnModel, InSlot, IoFrame, IoSpec, OutSlot, PortSig, RefModel};

/// The arithmetic group (7 designs).
pub static DESIGNS: [Design; 7] = [
    Design {
        name: "accu",
        category: Category::Arithmetic,
        module_type: "accumulator",
        spec: "An 8-bit accumulator. On each rising clock edge, when `en` is \
               high the input `d` is added to the running sum `q` (modulo \
               256); when `clr` is high the sum resets to zero (clr has \
               priority over en). Asynchronous active-low reset `rst_n` \
               clears the sum.",
        source: "module accu(\n  input clk,\n  input rst_n,\n  input en,\n  input clr,\n  input [7:0] d,\n  output reg [7:0] q\n);\nalways @(posedge clk or negedge rst_n) begin\n  if (!rst_n)\n    q <= 8'd0;\n  else if (clr)\n    q <= 8'd0;\n  else if (en)\n    q <= q + d;\nend\nendmodule\n",
        iface: || {
            DutInterface::clocked(
                vec![PortSig::new("en", 1), PortSig::new("clr", 1), PortSig::new("d", 8)],
                vec![PortSig::new("q", 8)],
            )
        },
        model: || Box::<Accu>::default(),
        directed_vectors: || {
            // Weak: small increments, never wraps past 255, never clears
            // while accumulating.
            vec![
                tx(&[("en", 1, 1), ("clr", 1, 0), ("d", 8, 1)]),
                tx(&[("en", 1, 1), ("clr", 1, 0), ("d", 8, 2)]),
                tx(&[("en", 1, 0), ("clr", 1, 0), ("d", 8, 9)]),
                tx(&[("en", 1, 1), ("clr", 1, 0), ("d", 8, 3)]),
                tx(&[("en", 1, 0), ("clr", 1, 1), ("d", 8, 0)]),
            ]
        },
    },
    Design {
        name: "adder_8bit",
        category: Category::Arithmetic,
        module_type: "adder",
        spec: "A combinational 8-bit full adder: `{cout, sum} = a + b + cin`. \
               `sum` is the low 8 bits and `cout` the carry out.",
        source: "module adder_8bit(\n  input [7:0] a,\n  input [7:0] b,\n  input cin,\n  output [7:0] sum,\n  output cout\n);\nassign {cout, sum} = a + b + {7'd0, cin};\nendmodule\n",
        iface: || {
            DutInterface::combinational(
                vec![PortSig::new("a", 8), PortSig::new("b", 8), PortSig::new("cin", 1)],
                vec![PortSig::new("sum", 8), PortSig::new("cout", 1)],
            )
        },
        model: || {
            Box::new(FnModel::new(|s: &IoSpec| {
                let (a, b, cin) = (s.input("a"), s.input("b"), s.input("cin"));
                let (sum, cout) = (s.output("sum"), s.output("cout"));
                move |io: &mut IoFrame<'_>| {
                    let v = io.get(a) + io.get(b) + io.get(cin);
                    io.set(sum, v);
                    io.set(cout, v >> 8);
                }
            }))
        },
        directed_vectors: || {
            // Weak: no vector produces a carry out.
            vec![
                tx(&[("a", 8, 1), ("b", 8, 2), ("cin", 1, 0)]),
                tx(&[("a", 8, 10), ("b", 8, 20), ("cin", 1, 0)]),
                tx(&[("a", 8, 7), ("b", 8, 8), ("cin", 1, 1)]),
                tx(&[("a", 8, 100), ("b", 8, 27), ("cin", 1, 0)]),
            ]
        },
    },
    Design {
        name: "adder_16bit",
        category: Category::Arithmetic,
        module_type: "adder",
        spec: "A combinational 16-bit adder built from two cascaded 8-bit \
               adders: `{cout, sum} = a + b + cin` over 16-bit operands.",
        source: "module adder_16bit(\n  input [15:0] a,\n  input [15:0] b,\n  input cin,\n  output [15:0] sum,\n  output cout\n);\nwire mid;\nadd8 lo(.x(a[7:0]), .y(b[7:0]), .ci(cin), .s(sum[7:0]), .co(mid));\nadd8 hi(.x(a[15:8]), .y(b[15:8]), .ci(mid), .s(sum[15:8]), .co(cout));\nendmodule\n\nmodule add8(\n  input [7:0] x,\n  input [7:0] y,\n  input ci,\n  output [7:0] s,\n  output co\n);\nassign {co, s} = x + y + {7'd0, ci};\nendmodule\n",
        iface: || {
            DutInterface::combinational(
                vec![PortSig::new("a", 16), PortSig::new("b", 16), PortSig::new("cin", 1)],
                vec![PortSig::new("sum", 16), PortSig::new("cout", 1)],
            )
        },
        model: || {
            Box::new(FnModel::new(|s: &IoSpec| {
                let (a, b, cin) = (s.input("a"), s.input("b"), s.input("cin"));
                let (sum, cout) = (s.output("sum"), s.output("cout"));
                move |io: &mut IoFrame<'_>| {
                    let v = io.get(a) + io.get(b) + io.get(cin);
                    io.set(sum, v);
                    io.set(cout, v >> 16);
                }
            }))
        },
        directed_vectors: || {
            // Weak: stays in the low byte, cross-byte carry untested.
            vec![
                tx(&[("a", 16, 3), ("b", 16, 4), ("cin", 1, 0)]),
                tx(&[("a", 16, 50), ("b", 16, 60), ("cin", 1, 0)]),
                tx(&[("a", 16, 9), ("b", 16, 9), ("cin", 1, 1)]),
            ]
        },
    },
    Design {
        name: "sub_8bit",
        category: Category::Arithmetic,
        module_type: "adder",
        spec: "A combinational 8-bit subtractor with borrow: computes \
               `diff = a - b - bin` modulo 256 and raises `bout` when a \
               borrow occurs (a < b + bin).",
        source: "module sub_8bit(\n  input [7:0] a,\n  input [7:0] b,\n  input bin,\n  output [7:0] diff,\n  output bout\n);\nassign {bout, diff} = {1'b0, a} - {1'b0, b} - {8'd0, bin};\nendmodule\n",
        iface: || {
            DutInterface::combinational(
                vec![PortSig::new("a", 8), PortSig::new("b", 8), PortSig::new("bin", 1)],
                vec![PortSig::new("diff", 8), PortSig::new("bout", 1)],
            )
        },
        model: || {
            Box::new(FnModel::new(|s: &IoSpec| {
                let (a, b, bin) = (s.input("a"), s.input("b"), s.input("bin"));
                let (diff, bout) = (s.output("diff"), s.output("bout"));
                move |io: &mut IoFrame<'_>| {
                    let raw = io.get(a) as i64 - io.get(b) as i64 - io.get(bin) as i64;
                    io.set(diff, (raw & 0xff) as u128);
                    io.set(bout, (raw < 0) as u128);
                }
            }))
        },
        directed_vectors: || {
            // Weak: a always exceeds b, borrow path untested.
            vec![
                tx(&[("a", 8, 10), ("b", 8, 3), ("bin", 1, 0)]),
                tx(&[("a", 8, 200), ("b", 8, 100), ("bin", 1, 0)]),
                tx(&[("a", 8, 50), ("b", 8, 49), ("bin", 1, 1)]),
            ]
        },
    },
    Design {
        name: "mul_8bit",
        category: Category::Arithmetic,
        module_type: "multiplier",
        spec: "A combinational 8×8 unsigned multiplier producing the full \
               16-bit product `p = a * b`.",
        source: "module mul_8bit(\n  input [7:0] a,\n  input [7:0] b,\n  output [15:0] p\n);\nassign p = a * b;\nendmodule\n",
        iface: || {
            DutInterface::combinational(
                vec![PortSig::new("a", 8), PortSig::new("b", 8)],
                vec![PortSig::new("p", 16)],
            )
        },
        model: || {
            Box::new(FnModel::new(|s: &IoSpec| {
                let (a, b, p) = (s.input("a"), s.input("b"), s.output("p"));
                move |io: &mut IoFrame<'_>| {
                    let v = io.get(a) * io.get(b);
                    io.set(p, v);
                }
            }))
        },
        directed_vectors: || {
            // Weak: products stay below 256 (high byte never exercised).
            vec![
                tx(&[("a", 8, 3), ("b", 8, 5)]),
                tx(&[("a", 8, 12), ("b", 8, 10)]),
                tx(&[("a", 8, 1), ("b", 8, 255)]),
                tx(&[("a", 8, 0), ("b", 8, 77)]),
            ]
        },
    },
    Design {
        name: "mul_pipe_8bit",
        category: Category::Arithmetic,
        module_type: "multiplier",
        spec: "A two-stage pipelined 8×8 unsigned multiplier: the product \
               of the operands sampled at cycle N appears on `p` after \
               cycle N+2. Asynchronous active-low reset clears the \
               pipeline to zero.",
        source: "module mul_pipe_8bit(\n  input clk,\n  input rst_n,\n  input [7:0] a,\n  input [7:0] b,\n  output [15:0] p\n);\nreg [15:0] s1;\nreg [15:0] s2;\nalways @(posedge clk or negedge rst_n) begin\n  if (!rst_n) begin\n    s1 <= 16'd0;\n    s2 <= 16'd0;\n  end else begin\n    s1 <= a * b;\n    s2 <= s1;\n  end\nend\nassign p = s2;\nendmodule\n",
        iface: || {
            DutInterface::clocked(
                vec![PortSig::new("a", 8), PortSig::new("b", 8)],
                vec![PortSig::new("p", 16)],
            )
        },
        model: || Box::<MulPipe>::default(),
        directed_vectors: || {
            vec![
                tx(&[("a", 8, 2), ("b", 8, 3)]),
                tx(&[("a", 8, 4), ("b", 8, 5)]),
                tx(&[("a", 8, 10), ("b", 8, 10)]),
                tx(&[("a", 8, 0), ("b", 8, 9)]),
                tx(&[("a", 8, 7), ("b", 8, 6)]),
            ]
        },
    },
    Design {
        name: "div_8bit",
        category: Category::Arithmetic,
        module_type: "divider",
        spec: "A combinational 8-bit restoring divider: `q = a / b` and \
               `r = a % b` for unsigned operands. When `b` is zero, `q` is \
               8'hFF and `r` equals `a`.",
        source: "module div_8bit(\n  input [7:0] a,\n  input [7:0] b,\n  output reg [7:0] q,\n  output reg [7:0] r\n);\ninteger i;\nalways @(*) begin\n  q = 8'd0;\n  r = 8'd0;\n  if (b == 8'd0) begin\n    q = 8'hff;\n    r = a;\n  end else begin\n    for (i = 7; i >= 0; i = i - 1) begin\n      r = {r[6:0], a[i]};\n      if (r >= b) begin\n        r = r - b;\n        q[i] = 1'b1;\n      end\n    end\n  end\nend\nendmodule\n",
        iface: || {
            DutInterface::combinational(
                vec![PortSig::new("a", 8), PortSig::new("b", 8)],
                vec![PortSig::new("q", 8), PortSig::new("r", 8)],
            )
        },
        model: || {
            Box::new(FnModel::new(|s: &IoSpec| {
                let (a, b) = (s.input("a"), s.input("b"));
                let (q, r) = (s.output("q"), s.output("r"));
                move |io: &mut IoFrame<'_>| {
                    let av = io.get(a);
                    let bv = io.get(b);
                    let (qv, rv) = match (av.checked_div(bv), av.checked_rem(bv)) {
                        (Some(qv), Some(rv)) => (qv, rv),
                        _ => (0xff, av),
                    };
                    io.set(q, qv);
                    io.set(r, rv);
                }
            }))
        },
        directed_vectors: || {
            // Weak: divisor never zero, quotient small.
            vec![
                tx(&[("a", 8, 10), ("b", 8, 3)]),
                tx(&[("a", 8, 100), ("b", 8, 10)]),
                tx(&[("a", 8, 7), ("b", 8, 7)]),
                tx(&[("a", 8, 1), ("b", 8, 2)]),
            ]
        },
    },
];

/// Golden model of `accu`.
#[derive(Default)]
struct Accu {
    q: u128,
    en: InSlot,
    clr: InSlot,
    d: InSlot,
    q_out: OutSlot,
}

impl RefModel for Accu {
    fn bind(&mut self, spec: &IoSpec) {
        self.en = spec.input("en");
        self.clr = spec.input("clr");
        self.d = spec.input("d");
        self.q_out = spec.output("q");
    }
    fn reset(&mut self) {
        self.q = 0;
    }
    fn step(&mut self, io: &mut IoFrame<'_>) {
        if io.get(self.clr) == 1 {
            self.q = 0;
        } else if io.get(self.en) == 1 {
            self.q = (self.q + io.get(self.d)) & 0xff;
        }
        io.set(self.q_out, self.q);
    }
}

/// Golden model of `mul_pipe_8bit`.
#[derive(Default)]
struct MulPipe {
    s1: u128,
    s2: u128,
    a: InSlot,
    b: InSlot,
    p: OutSlot,
}

impl RefModel for MulPipe {
    fn bind(&mut self, spec: &IoSpec) {
        self.a = spec.input("a");
        self.b = spec.input("b");
        self.p = spec.output("p");
    }
    fn reset(&mut self) {
        self.s1 = 0;
        self.s2 = 0;
    }
    fn step(&mut self, io: &mut IoFrame<'_>) {
        self.s2 = self.s1;
        self.s1 = (io.get(self.a) * io.get(self.b)) & 0xffff;
        io.set(self.p, self.s2);
    }
}
