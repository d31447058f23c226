//! Yosys-JSON interchange tests.
//!
//! The CI contract is a JSON-level fixpoint: for every catalog design,
//! `export → import → export` must reproduce the first export
//! byte-for-byte. Signal ids may renumber on import (scalars before
//! memories), so design-level equality is NOT required — but the
//! imported design must still be port-waveform-identical to the
//! original on both kernels, which the behavioural half checks.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;
use uvllm_designs::all;
use uvllm_netlist::yosys;
use uvllm_sim::{elaborate, AnySim, Design, Logic, SimBackend, SimControl};

const CYCLES: usize = 50;

fn elaborated(source: &str, top: &str) -> Design {
    let file = uvllm_verilog::parse(source).unwrap();
    elaborate(&file, top).unwrap()
}

// ---------------------------------------------------------------------------
// Fixpoint
// ---------------------------------------------------------------------------

/// The headline satellite gate: `export(import(export(d)))` is
/// byte-identical to `export(d)` for all catalog designs.
#[test]
fn export_import_export_is_a_fixpoint_on_all_designs() {
    for d in all() {
        let design = elaborated(d.source, d.name);
        let first = yosys::export_string(&design);
        let imported =
            yosys::import_str(&first).unwrap_or_else(|e| panic!("{}: import failed: {e}", d.name));
        let second = yosys::export_string(&imported);
        assert_eq!(first, second, "{}: round-trip is not a fixpoint", d.name);
    }
}

/// Export is a pure function: two exports of the same design are
/// byte-identical (deterministic bit ids, member order, cell names).
#[test]
fn export_is_deterministic() {
    for d in all().iter().take(5) {
        let design = elaborated(d.source, d.name);
        assert_eq!(
            yosys::export_string(&design),
            yosys::export_string(&design),
            "{}: non-deterministic export",
            d.name
        );
    }
}

// ---------------------------------------------------------------------------
// Behavioural equivalence of imported designs
// ---------------------------------------------------------------------------

fn wide(rng: &mut StdRng) -> u128 {
    ((rng.random::<u64>() as u128) << 64) | rng.random::<u64>() as u128
}

fn poke_all(sims: &mut [AnySim; 4], name: &str, v: Logic, ctx: &str) {
    for sim in sims.iter_mut() {
        sim.poke_by_name(name, v).unwrap_or_else(|e| panic!("{ctx}: poke {name}: {e}"));
    }
}

/// Compares ports by NAME (ids may renumber across the round-trip).
fn assert_ports_identical(sims: &[AnySim; 4], base: &Design, ctx: &str) {
    for &port in base.inputs().iter().chain(base.outputs()) {
        let name = &base.signal(port).name;
        let reference = sims[0].peek_by_name(name).unwrap();
        for (i, sim) in sims.iter().enumerate().skip(1) {
            let got = sim.peek_by_name(name).unwrap();
            assert_eq!(
                got, reference,
                "{ctx}: port '{name}': sim#{i} diverged ({got} != {reference})"
            );
        }
    }
}

/// Drives the original and the round-tripped design on both kernels in
/// lockstep under seeded random stimulus, comparing ports by name.
#[test]
fn imported_designs_are_port_identical_on_all_designs() {
    for d in all() {
        let base = Arc::new(elaborated(d.source, d.name));
        let round = Arc::new(yosys::import_str(&yosys::export_string(&base)).unwrap());
        let iface = (d.iface)();
        let ctx = format!("{}:roundtrip", d.name);
        let mut sims = [
            AnySim::new(&base, SimBackend::EventDriven).unwrap(),
            AnySim::new(&base, SimBackend::Compiled).unwrap(),
            AnySim::new(&round, SimBackend::EventDriven).unwrap(),
            AnySim::new(&round, SimBackend::Compiled).unwrap(),
        ];
        let mut rng = StdRng::seed_from_u64(0x9059 ^ fnv(d.name));

        if let Some(reset) = &iface.reset {
            let assert_v = Logic::bit(!reset.active_low);
            let deassert_v = Logic::bit(reset.active_low);
            poke_all(&mut sims, &reset.name, assert_v, &ctx);
            if let Some(clk) = &iface.clock {
                poke_all(&mut sims, clk, Logic::bit(false), &ctx);
                for _ in 0..2 {
                    poke_all(&mut sims, clk, Logic::bit(true), &ctx);
                    poke_all(&mut sims, clk, Logic::bit(false), &ctx);
                }
            }
            poke_all(&mut sims, &reset.name, deassert_v, &ctx);
        } else if let Some(clk) = &iface.clock {
            poke_all(&mut sims, clk, Logic::bit(false), &ctx);
        }
        assert_ports_identical(&sims, &base, &format!("{ctx} post-reset"));

        for cycle in 0..CYCLES {
            for p in &iface.inputs {
                let v = Logic::from_u128(p.width, wide(&mut rng));
                poke_all(&mut sims, &p.name, v, &ctx);
            }
            if let Some(clk) = &iface.clock {
                poke_all(&mut sims, clk, Logic::bit(true), &ctx);
            }
            for sim in sims.iter_mut() {
                sim.settle().unwrap();
            }
            assert_ports_identical(&sims, &base, &format!("{ctx} cycle {cycle}"));
            if let Some(clk) = &iface.clock {
                poke_all(&mut sims, clk, Logic::bit(false), &ctx);
            }
        }
    }
}

fn fnv(name: &str) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for b in name.as_bytes() {
        hash ^= *b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

// ---------------------------------------------------------------------------
// Export structure
// ---------------------------------------------------------------------------

#[test]
fn export_uses_standard_cells_for_simple_shapes() {
    let design = elaborated(
        "module t(input clk, input [3:0] a, input [3:0] b, input s,\n\
         output [3:0] sum, output reg [3:0] q, output [3:0] m);\n\
         assign sum = a + b;\n\
         assign m = s ? a : b;\n\
         always @(posedge clk) q <= sum;\nendmodule\n",
        "t",
    );
    let text = yosys::export_string(&design);
    assert!(text.contains("\"$add\""), "adder should export as $add:\n{text}");
    assert!(text.contains("\"$mux\""), "ternary should export as $mux:\n{text}");
    assert!(text.contains("\"$dff\""), "register should export as $dff:\n{text}");
    assert!(
        !text.contains("$uvllm.process"),
        "no fallback cells expected for standard shapes:\n{text}"
    );
}

#[test]
fn export_falls_back_to_process_cells() {
    let design = elaborated(
        "module t(input [1:0] sel, output reg [3:0] y);\n\
         always @(*) begin\n\
         case (sel)\n\
         2'd0: y = 4'd1;\n\
         2'd1: y = 4'd2;\n\
         default: y = 4'd0;\n\
         endcase\n\
         end\nendmodule\n",
        "t",
    );
    let text = yosys::export_string(&design);
    assert!(text.contains("$uvllm.process"), "case dispatch needs the extension cell:\n{text}");
    assert!(text.contains("(case "), "BODY should carry the case S-expression:\n{text}");
}

#[test]
fn export_places_memories_outside_the_bit_space() {
    let design = elaborated(
        "module t(input clk, input we, input [1:0] addr, input [7:0] din,\n\
         output [7:0] dout);\n\
         reg [7:0] mem [3:0];\n\
         always @(posedge clk) if (we) mem[addr] <= din;\n\
         assign dout = mem[addr];\nendmodule\n",
        "t",
    );
    let json = yosys::export(&design);
    let module = match json.get("modules") {
        Some(uvllm_json::Json::Obj(m)) => &m[0].1,
        _ => panic!("missing module"),
    };
    let memories = module.get("memories").unwrap();
    assert!(memories.get("mem").is_some(), "array signal should land in 'memories'");
    let netnames = module.get("netnames").unwrap();
    assert!(netnames.get("mem").is_none(), "memories must not claim bit ids");
}

// ---------------------------------------------------------------------------
// Import of third-party (hand-written) netlists
// ---------------------------------------------------------------------------

/// A minimal hand-written netlist in the shape Yosys itself produces:
/// an adder feeding a register, plus an aliased output net.
const THIRD_PARTY: &str = r#"{
  "creator": "Yosys 0.38",
  "modules": {
    "third": {
      "ports": {
        "clk": { "direction": "input", "bits": [2] },
        "a": { "direction": "input", "bits": [3, 4, 5, 6] },
        "b": { "direction": "input", "bits": [7, 8, 9, 10] },
        "q": { "direction": "output", "bits": [11, 12, 13, 14] },
        "mirror": { "direction": "output", "bits": [11, 12, 13, 14] }
      },
      "cells": {
        "add0": {
          "hide_name": 0,
          "type": "$add",
          "parameters": { "A_SIGNED": 0, "A_WIDTH": 4, "B_SIGNED": 0, "B_WIDTH": 4, "Y_WIDTH": 4 },
          "attributes": {},
          "port_directions": { "A": "input", "B": "input", "Y": "output" },
          "connections": { "A": [3, 4, 5, 6], "B": [7, 8, 9, 10], "Y": [15, 16, 17, 18] }
        },
        "dff0": {
          "hide_name": 0,
          "type": "$dff",
          "parameters": { "CLK_POLARITY": 1, "WIDTH": 4 },
          "attributes": {},
          "port_directions": { "CLK": "input", "D": "input", "Q": "output" },
          "connections": { "CLK": [2], "D": [15, 16, 17, 18], "Q": [11, 12, 13, 14] }
        }
      },
      "netnames": {
        "sum": { "hide_name": 0, "bits": [15, 16, 17, 18], "attributes": {} }
      }
    }
  }
}"#;

#[test]
fn import_accepts_third_party_netlists() {
    let design = yosys::import_str(THIRD_PARTY).unwrap();
    assert_eq!(design.top, "third");
    // `mirror` aliases `q`'s bits and gets a synthesized buffer driver.
    let design = Arc::new(design);
    for backend in [SimBackend::EventDriven, SimBackend::Compiled] {
        let mut sim = AnySim::new(&design, backend).unwrap();
        sim.poke_by_name("clk", Logic::bit(false)).unwrap();
        sim.poke_by_name("a", Logic::from_u128(4, 5)).unwrap();
        sim.poke_by_name("b", Logic::from_u128(4, 6)).unwrap();
        sim.poke_by_name("clk", Logic::bit(true)).unwrap();
        sim.settle().unwrap();
        let q = sim.peek_by_name("q").unwrap();
        assert_eq!(q.to_u128(), Some(11), "{backend:?}: q = a + b after the edge");
        let mirror = sim.peek_by_name("mirror").unwrap();
        assert_eq!(mirror.to_u128(), Some(11), "{backend:?}: mirror aliases q");
    }
}

#[test]
fn import_handles_constant_bits_in_connections() {
    let text = r#"{
  "modules": {
    "t": {
      "ports": {
        "a": { "direction": "input", "bits": [2, 3] },
        "y": { "direction": "output", "bits": [4, 5, 6, 7] }
      },
      "cells": {
        "c0": {
          "type": "$pos",
          "parameters": { "A_SIGNED": 0, "A_WIDTH": 4, "Y_WIDTH": 4 },
          "connections": { "A": [2, 3, "1", "0"], "Y": [4, 5, 6, 7] }
        }
      },
      "netnames": {}
    }
  }
}"#;
    let design = Arc::new(yosys::import_str(text).unwrap());
    for backend in [SimBackend::EventDriven, SimBackend::Compiled] {
        let mut sim = AnySim::new(&design, backend).unwrap();
        sim.poke_by_name("a", Logic::from_u128(2, 0b10)).unwrap();
        sim.settle().unwrap();
        // y = {1'b0, 1'b1, a[1], a[0]} = 4'b0110.
        let y = sim.peek_by_name("y").unwrap();
        assert_eq!(y.to_u128(), Some(0b0110), "{backend:?}");
    }
}

#[test]
fn import_builds_async_reset_flops() {
    let text = r#"{
  "modules": {
    "t": {
      "ports": {
        "clk": { "direction": "input", "bits": [2] },
        "rst": { "direction": "input", "bits": [3] },
        "d": { "direction": "input", "bits": [4, 5] },
        "q": { "direction": "output", "bits": [6, 7] }
      },
      "cells": {
        "ff": {
          "type": "$adff",
          "parameters": { "CLK_POLARITY": 1, "ARST_POLARITY": 1, "ARST_VALUE": "11", "WIDTH": 2 },
          "connections": { "CLK": [2], "ARST": [3], "D": [4, 5], "Q": [6, 7] }
        }
      },
      "netnames": {}
    }
  }
}"#;
    let design = Arc::new(yosys::import_str(text).unwrap());
    for backend in [SimBackend::EventDriven, SimBackend::Compiled] {
        let mut sim = AnySim::new(&design, backend).unwrap();
        sim.poke_by_name("clk", Logic::bit(false)).unwrap();
        sim.poke_by_name("d", Logic::from_u128(2, 0b01)).unwrap();
        // Async reset forces the ARST_VALUE without a clock edge.
        sim.poke_by_name("rst", Logic::bit(true)).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.peek_by_name("q").unwrap().to_u128(), Some(0b11), "{backend:?} reset");
        // Release reset, clock the data through.
        sim.poke_by_name("rst", Logic::bit(false)).unwrap();
        sim.poke_by_name("clk", Logic::bit(true)).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.peek_by_name("q").unwrap().to_u128(), Some(0b01), "{backend:?} clock");
    }
}

/// The committed third-party fixture must import, simulate correctly
/// on both kernels and reach the export fixpoint — the same gates CI
/// drives through the campaign CLI.
#[test]
fn committed_third_party_fixture_imports_and_simulates() {
    let text = include_str!("../../designs/fixtures/third_party_alu.json");
    let base = Arc::new(yosys::import_str(text).unwrap());
    assert_eq!(base.top, "third_party_alu");

    for backend in [SimBackend::EventDriven, SimBackend::Compiled] {
        let mut sim = AnySim::new(&base, backend).unwrap();
        sim.poke_by_name("clk", Logic::bit(false)).unwrap();
        sim.poke_by_name("a", Logic::from_u128(4, 9)).unwrap();
        sim.poke_by_name("b", Logic::from_u128(4, 3)).unwrap();
        sim.poke_by_name("op", Logic::bit(false)).unwrap();
        sim.settle().unwrap();
        // op=0 selects the adder leg of the mux.
        assert_eq!(sim.peek_by_name("y").unwrap().to_u128(), Some(12), "{backend:?} add");
        assert_eq!(sim.peek_by_name("y_mirror").unwrap().to_u128(), Some(12), "{backend:?} alias");
        sim.poke_by_name("op", Logic::bit(true)).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.peek_by_name("y").unwrap().to_u128(), Some(6), "{backend:?} sub");
        // The clock edge latches y into q; q != 0 raises q_nonzero.
        sim.poke_by_name("clk", Logic::bit(true)).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.peek_by_name("q").unwrap().to_u128(), Some(6), "{backend:?} dff");
        assert_eq!(
            sim.peek_by_name("q_nonzero").unwrap().to_u128(),
            Some(1),
            "{backend:?} reduce_or"
        );
    }

    // Our export of the import must be a fixpoint.
    let first = yosys::export_string(&base);
    let second = yosys::export_string(&yosys::import_str(&first).unwrap());
    assert_eq!(first, second, "fixture re-export is not a fixpoint");
}

#[test]
fn import_rejects_unknown_cells_and_multi_module_files() {
    let unknown = r#"{"modules":{"t":{"ports":{},"cells":{"c":{"type":"$frobnicate","connections":{}}},"netnames":{}}}}"#;
    let err = yosys::import_str(unknown).unwrap_err();
    assert!(err.message.contains("unsupported cell"), "got: {err}");

    let multi = r#"{"modules":{"a":{"ports":{},"cells":{},"netnames":{}},"b":{"ports":{},"cells":{},"netnames":{}}}}"#;
    let err = yosys::import_str(multi).unwrap_err();
    assert!(err.message.contains("exactly one module"), "got: {err}");

    let err = yosys::import_str("not json").unwrap_err();
    assert!(err.message.contains("bad JSON"), "got: {err}");
}
