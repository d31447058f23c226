//! Differential equivalence suite: the event-driven and the compiled
//! levelized kernels must be **waveform-identical** on every benchmark
//! design under seeded random stimulus.
//!
//! Every design is driven through the same reset protocol and hundreds
//! of random input vectors on both kernels in lockstep — once poking
//! the inputs one at a time, once staging each cycle's inputs as one
//! time step, the way the UVM driver does; after every settle, *every*
//! signal — internal nets, registers and each memory word, not just
//! ports — is compared, and the recorded waveforms must render to
//! byte-identical VCD. This is the contract that lets the campaign
//! engine treat the backend as a pure speed knob.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;
use uvllm_designs::all;
use uvllm_sim::{elaborate, AnySim, Design, Logic, SignalId, SimBackend, SimControl, Waveform};
use uvllm_uvm::DutInterface;

/// Cycles of random stimulus per (design, seed) pair.
const CYCLES: usize = 150;
/// Stimulus seeds (distinct from the FR campaign seeds on purpose).
const SEEDS: [u64; 2] = [0xD1FF, 0x5EED];

fn elaborated(d: &uvllm_designs::Design) -> Arc<Design> {
    let file = uvllm_verilog::parse(d.source).unwrap();
    Arc::new(elaborate(&file, d.name).unwrap())
}

fn wide(rng: &mut StdRng) -> u128 {
    ((rng.random::<u64>() as u128) << 64) | rng.random::<u64>() as u128
}

/// Pokes both kernels and asserts complete state agreement afterwards.
fn poke_both(name: &str, v: Logic, ev: &mut AnySim, cp: &mut AnySim, ctx: &str) {
    ev.poke_by_name(name, v).unwrap_or_else(|e| panic!("{ctx}: event poke {name}: {e}"));
    cp.poke_by_name(name, v).unwrap_or_else(|e| panic!("{ctx}: compiled poke {name}: {e}"));
    assert_state_identical(ev, cp, ctx);
}

/// Drives `inputs` on both kernels — one poke each, or staged together
/// and settled once — asserting complete state agreement after every
/// drive.
fn drive_inputs(
    inputs: &[(&str, Logic)],
    batched: bool,
    ev: &mut AnySim,
    cp: &mut AnySim,
    ctx: &str,
) {
    if !batched {
        for (name, v) in inputs {
            poke_both(name, *v, ev, cp, ctx);
        }
        return;
    }
    for sim in [&mut *ev, &mut *cp] {
        for (name, v) in inputs {
            sim.stage(sim.design().signal_id(name).unwrap(), *v);
        }
        let backend = sim.backend();
        sim.settle().unwrap_or_else(|e| panic!("{ctx}: {backend} settle of a batch: {e}"));
    }
    assert_state_identical(ev, cp, ctx);
}

/// Compares every word of every signal between the two kernels.
fn assert_state_identical(ev: &AnySim, cp: &AnySim, ctx: &str) {
    for (i, info) in ev.design().signals().iter().enumerate() {
        let id = SignalId(i as u32);
        for word in 0..info.words as u64 {
            let a = ev.peek_word(id, word);
            let b = cp.peek_word(id, word);
            assert_eq!(a, b, "{ctx}: signal '{}' word {word}: event={a} compiled={b}", info.name);
        }
    }
}

/// Drives one design on both kernels with identical stimulus, capturing
/// and comparing waveforms cycle by cycle. `batched` stages each
/// cycle's inputs as one time step instead of poking them one by one.
fn drive_differentially(d: &uvllm_designs::Design, seed: u64, batched: bool) {
    let design = elaborated(d);
    let iface: DutInterface = (d.iface)();
    let mut ev = AnySim::new(&design, SimBackend::EventDriven).unwrap();
    let mut cp = AnySim::new(&design, SimBackend::Compiled).unwrap();
    let mut wave_e = Waveform::new(&ev);
    let mut wave_c = Waveform::new(&cp);
    let ctx = format!("{}#{seed:x}{}", d.name, if batched { " batched" } else { "" });
    assert_state_identical(&ev, &cp, &ctx);

    let mut rng = StdRng::seed_from_u64(seed);

    // Reset protocol, mirroring the UVM environment's reset phase.
    let zeros: Vec<_> =
        iface.inputs.iter().map(|p| (p.name.as_str(), Logic::zeros(p.width))).collect();
    drive_inputs(&zeros, batched, &mut ev, &mut cp, &ctx);
    if let Some(reset) = &iface.reset {
        let assert_v = Logic::bit(!reset.active_low);
        let deassert_v = Logic::bit(reset.active_low);
        poke_both(&reset.name, assert_v, &mut ev, &mut cp, &ctx);
        if let Some(clk) = &iface.clock {
            poke_both(clk, Logic::bit(false), &mut ev, &mut cp, &ctx);
            for _ in 0..2 {
                poke_both(clk, Logic::bit(true), &mut ev, &mut cp, &ctx);
                poke_both(clk, Logic::bit(false), &mut ev, &mut cp, &ctx);
            }
        }
        poke_both(&reset.name, deassert_v, &mut ev, &mut cp, &ctx);
    } else if let Some(clk) = &iface.clock {
        poke_both(clk, Logic::bit(false), &mut ev, &mut cp, &ctx);
    }

    for cycle in 0..CYCLES {
        let vector: Vec<_> = iface
            .inputs
            .iter()
            .map(|p| (p.name.as_str(), Logic::from_u128(p.width, wide(&mut rng))))
            .collect();
        drive_inputs(&vector, batched, &mut ev, &mut cp, &ctx);
        if let Some(clk) = &iface.clock {
            poke_both(clk, Logic::bit(true), &mut ev, &mut cp, &ctx);
        }
        let t = cycle as u64 * 10;
        ev.set_time(t);
        cp.set_time(t);
        wave_e.capture(&ev);
        wave_c.capture(&cp);
        assert_state_identical(&ev, &cp, &format!("{ctx} cycle {cycle}"));
        if let Some(clk) = &iface.clock {
            poke_both(clk, Logic::bit(false), &mut ev, &mut cp, &ctx);
        }
    }

    // The recorded waveforms render to byte-identical VCD.
    assert_eq!(wave_e.len(), CYCLES);
    assert_eq!(wave_e.to_vcd(d.name), wave_c.to_vcd(d.name), "{ctx}: VCD diverged");
}

/// The headline acceptance test: all 27 designs, every seed, inputs
/// poked and inputs staged, waveform-identical kernels.
#[test]
fn kernels_are_waveform_identical_on_all_designs() {
    for d in all() {
        for seed in SEEDS {
            for batched in [false, true] {
                drive_differentially(d, seed ^ fnv(d.name), batched);
            }
        }
    }
}

/// Per-design stimulus seeds stay stable across catalog reordering.
fn fnv(name: &str) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for b in name.as_bytes() {
        hash ^= *b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Differential pin-down for the event kernel's precompiled process
/// programs: every lowering shape — nested concat targets, constant
/// part selects, dynamic bit and array-word writes, case dispatch with
/// a default arm, if/else chains, mixed blocking/non-blocking regions —
/// driven on both kernels in lockstep. Because the compiled kernel is
/// untouched by the program rework, agreement here pins the event
/// kernel's waveforms to their pre-refactor behaviour.
#[test]
fn program_lowering_corners_match_across_kernels() {
    const STRESS: &str = "module stress(input clk, input rst_n, input [3:0] idx,\n\
         input [7:0] d, output reg [7:0] a, output reg [7:0] b, output reg c,\n\
         output reg [3:0] lo, output reg [3:0] hi, output [8:0] s);\n\
         reg [7:0] mem [0:7];\n\
         assign s = a + b;\n\
         always @(*) begin\n\
         {c, {hi, lo}} = {1'b0, d} + 9'd3;\n\
         end\n\
         always @(posedge clk or negedge rst_n) begin\n\
         if (!rst_n) begin\na <= 8'd0;\nb <= 8'd0;\nend\n\
         else begin\n\
         case (idx[1:0])\n\
         2'b00: a <= a + 8'd1;\n\
         2'b01: begin\na[3:0] <= d[7:4];\nb[idx[2]] <= d[0];\nend\n\
         2'b10: mem[idx[2:0]] <= d;\n\
         default: b <= mem[idx[2:0]] ^ a;\n\
         endcase\n\
         end\nend\nendmodule\n";
    let file = uvllm_verilog::parse(STRESS).unwrap();
    let design = Arc::new(uvllm_sim::elaborate(&file, "stress").unwrap());
    let mut ev = AnySim::new(&design, SimBackend::EventDriven).unwrap();
    let mut cp = AnySim::new(&design, SimBackend::Compiled).unwrap();
    let ctx = "stress";
    assert_state_identical(&ev, &cp, ctx);
    let mut rng = StdRng::seed_from_u64(0x57E55);
    // Half the run before reset deasserts: case dispatch over an X
    // selector, NBA writes of X, dropped unknown-index writes — the
    // X-regime paths of the program interpreter.
    poke_both("clk", Logic::bit(false), &mut ev, &mut cp, ctx);
    for phase in 0..2 {
        if phase == 1 {
            poke_both("rst_n", Logic::bit(false), &mut ev, &mut cp, ctx);
            poke_both("rst_n", Logic::bit(true), &mut ev, &mut cp, ctx);
        }
        for _ in 0..200 {
            poke_both("idx", Logic::from_u128(4, wide(&mut rng)), &mut ev, &mut cp, ctx);
            poke_both("d", Logic::from_u128(8, wide(&mut rng)), &mut ev, &mut cp, ctx);
            poke_both("clk", Logic::bit(true), &mut ev, &mut cp, ctx);
            poke_both("clk", Logic::bit(false), &mut ev, &mut cp, ctx);
        }
    }
}

/// The compiled kernel also agrees with the event engine through the
/// whole UVM environment (scoreboard verdicts, pass rates, mismatch
/// counts) — on pristine and deliberately broken DUTs alike.
#[test]
fn uvm_verdicts_match_across_backends() {
    use uvllm_uvm::{CornerSequence, Environment, RandomSequence, Sequence};
    for d in all().into_iter().take(6) {
        for (label, code) in
            [("golden", d.source.to_string()), ("broken", d.source.replace("+ 4'd1", "+ 4'd2"))]
        {
            let mut summaries = Vec::new();
            for backend in SimBackend::ALL {
                let iface = (d.iface)();
                let seqs: Vec<Box<dyn Sequence>> = vec![
                    Box::new(RandomSequence::new(&iface.inputs, 120, 0xBEEF)),
                    Box::new(CornerSequence::new(&iface.inputs)),
                ];
                let env =
                    Environment::from_source_with(&code, d.name, iface, (d.model)(), seqs, backend)
                        .unwrap_or_else(|e| panic!("{}/{label}: {e}", d.name));
                summaries.push(env.run());
            }
            let (a, b) = (&summaries[0], &summaries[1]);
            assert_eq!(a.cycles, b.cycles, "{}/{label}", d.name);
            assert_eq!(a.pass_rate, b.pass_rate, "{}/{label}", d.name);
            assert_eq!(a.mismatches.len(), b.mismatches.len(), "{}/{label}", d.name);
            assert_eq!(
                a.waveform.to_vcd(d.name),
                b.waveform.to_vcd(d.name),
                "{}/{label}: environment waveforms diverged",
                d.name
            );
        }
    }
}
