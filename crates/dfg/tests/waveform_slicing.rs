//! Integration: time-aware dynamic slicing driven by *real* simulator
//! waveforms (the exact data path of Algorithm 2 in production).

use std::collections::HashMap;
use uvllm_dfg::{suspicious_lines, Dfg};
use uvllm_sim::{elaborate, Logic, Simulator, Waveform};

const ALU: &str = "module alu(input [7:0] a, input [7:0] b, input [1:0] op,\n\
                   output reg [7:0] y);\n\
                   always @(*) begin\n\
                   case (op)\n\
                   2'd0: y = a + b;\n\
                   2'd1: y = a - b;\n\
                   2'd2: y = a & b;\n\
                   default: y = a | b;\n\
                   endcase\n\
                   end\nendmodule\n";

fn run_and_capture(op: u128) -> (Simulator, Waveform) {
    let file = uvllm_verilog::parse(ALU).unwrap();
    let design = elaborate(&file, "alu").unwrap();
    let mut sim = Simulator::new(design).unwrap();
    let mut wave = Waveform::new(&sim);
    sim.poke_by_name("a", Logic::from_u128(8, 0x0F)).unwrap();
    sim.poke_by_name("b", Logic::from_u128(8, 0x01)).unwrap();
    sim.poke_by_name("op", Logic::from_u128(2, op)).unwrap();
    sim.set_time(10);
    wave.capture(&sim);
    (sim, wave)
}

#[test]
fn dynamic_slice_follows_the_executed_case_arm() {
    let file = uvllm_verilog::parse(ALU).unwrap();
    let module = file.module("alu").unwrap().clone();
    let dfg = Dfg::build(&module);

    // op = 1: only the subtraction arm executed.
    let (_, wave) = run_and_capture(1);
    let snapshot = wave.snapshot_at(10);
    let slice = dfg.dynamic_slice("y", &snapshot);
    assert_eq!(slice.sites.len(), 1, "exactly the executed arm");
    assert!(dfg.sites[slice.sites[0]].reads.contains(&dfg.symbol("b").unwrap()));
    let lines = slice.lines(&dfg, ALU);
    assert_eq!(lines.len(), 1);
    let text = ALU.lines().nth(lines[0] as usize - 1).unwrap();
    assert!(text.contains("a - b"), "suspicious line should be the sub arm: {text}");

    // op = 3: the default arm.
    let (_, wave) = run_and_capture(3);
    let snapshot = wave.snapshot_at(10);
    let slice = dfg.dynamic_slice("y", &snapshot);
    assert_eq!(slice.sites.len(), 1);
    let lines = slice.lines(&dfg, ALU);
    let text = ALU.lines().nth(lines[0] as usize - 1).unwrap();
    assert!(text.contains("a | b"), "default arm expected: {text}");
}

#[test]
fn static_slice_covers_all_arms() {
    let file = uvllm_verilog::parse(ALU).unwrap();
    let module = file.module("alu").unwrap().clone();
    let dfg = Dfg::build(&module);
    let slice = dfg.static_slice("y");
    assert_eq!(slice.sites.len(), 4, "all four case arms write y");
}

#[test]
fn suspicious_lines_shrink_with_dynamic_information() {
    let file = uvllm_verilog::parse(ALU).unwrap();
    let module = file.module("alu").unwrap().clone();

    // Without a snapshot: the whole cone.
    let static_lines = suspicious_lines(&module, ALU, &["y".to_string()], &HashMap::new());
    // With the op=2 snapshot: only the AND arm.
    let (_, wave) = run_and_capture(2);
    let snapshot = wave.snapshot_at(10);
    let dynamic_lines = suspicious_lines(&module, ALU, &["y".to_string()], &snapshot);
    assert!(
        dynamic_lines.len() < static_lines.len(),
        "dynamic ({}) must be denser than static ({}) information",
        dynamic_lines.len(),
        static_lines.len()
    );
    assert!(dynamic_lines.iter().any(|(_, t)| t.contains("a & b")));
}

#[test]
fn slicing_through_sequential_state() {
    // The mismatch is on a register output; the slice must walk back
    // through the register into the combinational next-state logic.
    let src = "module acc(input clk, input rst_n, input en, input [7:0] d,\n\
               output reg [7:0] q);\n\
               wire [7:0] next;\n\
               assign next = q + d;\n\
               always @(posedge clk or negedge rst_n) begin\n\
               if (!rst_n) q <= 8'd0;\n\
               else if (en) q <= next;\n\
               end\nendmodule\n";
    let file = uvllm_verilog::parse(src).unwrap();
    let module = file.module("acc").unwrap().clone();
    let dfg = Dfg::build(&module);
    let mut snapshot = HashMap::new();
    snapshot.insert("rst_n".to_string(), Logic::bit(true));
    snapshot.insert("en".to_string(), Logic::bit(true));
    let slice = dfg.dynamic_slice("q", &snapshot);
    // Reaches both the enabled register write and the adder, not the
    // reset branch.
    let lines = slice.lines(&dfg, src);
    let texts: Vec<&str> =
        lines.iter().map(|l| src.lines().nth(*l as usize - 1).unwrap()).collect();
    assert!(texts.iter().any(|t| t.contains("q <= next")), "{texts:?}");
    assert!(texts.iter().any(|t| t.contains("next = q + d")), "{texts:?}");
    assert!(!texts.iter().any(|t| t.contains("8'd0")), "reset branch pruned: {texts:?}");
}
