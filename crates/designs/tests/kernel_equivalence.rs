//! Differential equivalence suite: the event-driven kernel and the
//! independent reference interpreter (`uvllm-refsim`) must be
//! **waveform-identical** on every benchmark design under seeded random
//! stimulus.
//!
//! Every design is driven through the same reset protocol and random
//! input vectors on both simulators in lockstep — once poking the
//! inputs one at a time, once staging each cycle's inputs as one time
//! step, the way the UVM driver does; after every drive, *every* signal
//! — internal nets, registers and each memory word, not just ports — is
//! compared, and the recorded waveforms must render to byte-identical
//! VCD. The reference shares only the parser and elaboration with the
//! kernel, so agreement here checks the kernel's four-state operators,
//! expression widths and scheduling, not just its consistency with
//! itself.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;
use uvllm_designs::all;
use uvllm_refsim::{lockstep, RefSim};
use uvllm_sim::{elaborate, Design, Logic, SimControl, SimError, Simulator, Waveform};
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

/// The kernel and the reference over one design, with `ctx` naming the
/// run in failure messages.
struct Pair {
    kernel: Simulator,
    reference: RefSim,
    ctx: String,
}

impl Pair {
    fn new(design: &Arc<Design>, ctx: String) -> Pair {
        let kernel = Simulator::from_arc(Arc::clone(design)).unwrap();
        let reference = RefSim::new(Arc::clone(design)).unwrap();
        let mut pair = Pair { kernel, reference, ctx };
        pair.drive("time zero", |_| Ok(()));
        pair
    }

    /// Runs `drive` on both and asserts they end it the same way and in
    /// the same state.
    fn drive(&mut self, what: &str, drive: impl Fn(&mut dyn SimControl) -> Result<(), SimError>) {
        lockstep(&mut self.kernel, &mut self.reference, drive)
            .unwrap_or_else(|difference| panic!("{}: after {what}: {difference}", self.ctx))
            .unwrap_or_else(|e| panic!("{}: {what}: {e}", self.ctx));
    }

    fn poke(&mut self, name: &str, v: Logic) {
        let id = self.kernel.design().signal_id(name).unwrap();
        self.drive(&format!("poke {name} = {v}"), |sim| sim.poke(id, v));
    }

    /// Drives `inputs` — one poke each, or staged together and settled
    /// once.
    fn inputs(&mut self, inputs: &[(&str, Logic)], batched: bool) {
        if !batched {
            for (name, v) in inputs {
                self.poke(name, *v);
            }
            return;
        }
        let design = self.kernel.design();
        let ids: Vec<_> =
            inputs.iter().map(|(name, v)| (design.signal_id(name).unwrap(), *v)).collect();
        self.drive("a staged batch", |sim| {
            for (id, v) in &ids {
                sim.stage(*id, *v);
            }
            sim.settle()
        });
    }

    fn set_time(&mut self, t: u64) {
        self.kernel.set_time(t);
        self.reference.set_time(t);
    }
}

/// Drives one design on both simulators with identical stimulus,
/// capturing and comparing waveforms cycle by cycle. `batched` stages
/// each cycle's inputs as one time step instead of poking them one by
/// one.
fn drive_differentially(d: &uvllm_designs::Design, seed: u64, batched: bool) {
    let design = elaborated(d);
    let iface: DutInterface = (d.iface)();
    let ctx = format!("{}#{seed:x}{}", d.name, if batched { " batched" } else { "" });
    let mut pair = Pair::new(&design, ctx);
    let mut wave_kernel = Waveform::new(&pair.kernel);
    let mut wave_reference = Waveform::new(&pair.reference);
    let mut rng = StdRng::seed_from_u64(seed);

    // Reset protocol, mirroring the UVM environment's reset phase.
    let zeros: Vec<_> =
        iface.inputs.iter().map(|p| (p.name.as_str(), Logic::zeros(p.width))).collect();
    pair.inputs(&zeros, batched);
    if let Some(reset) = &iface.reset {
        pair.poke(&reset.name, Logic::bit(!reset.active_low));
        if let Some(clk) = &iface.clock {
            pair.poke(clk, Logic::bit(false));
            for _ in 0..2 {
                pair.poke(clk, Logic::bit(true));
                pair.poke(clk, Logic::bit(false));
            }
        }
        pair.poke(&reset.name, Logic::bit(reset.active_low));
    } else if let Some(clk) = &iface.clock {
        pair.poke(clk, Logic::bit(false));
    }

    for cycle in 0..CYCLES {
        let vector: Vec<_> = iface
            .inputs
            .iter()
            .map(|p| (p.name.as_str(), Logic::from_u128(p.width, wide(&mut rng))))
            .collect();
        pair.inputs(&vector, batched);
        if let Some(clk) = &iface.clock {
            pair.poke(clk, Logic::bit(true));
        }
        pair.set_time(cycle as u64 * 10);
        wave_kernel.capture(&pair.kernel);
        wave_reference.capture(&pair.reference);
        if let Some(clk) = &iface.clock {
            pair.poke(clk, Logic::bit(false));
        }
    }

    // The recorded waveforms are identical: both simulators run one
    // `Arc<Design>`, so they record the same signal ids.
    assert_eq!(wave_kernel.len(), CYCLES);
    assert_eq!(wave_kernel, wave_reference, "{}: waveforms diverged", pair.ctx);
}

/// The headline acceptance test: all 27 designs, every seed, inputs
/// poked and inputs staged, waveform-identical simulators.
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

/// Every lowering shape of the kernel's precompiled process programs —
/// nested concat targets, constant part selects, dynamic bit and
/// array-word writes, case dispatch with a default arm, if/else chains,
/// mixed blocking/non-blocking regions — driven on both simulators in
/// lockstep, half of it before reset so the X regime runs too.
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
    let mut pair = Pair::new(&design, "stress".to_string());
    let mut rng = StdRng::seed_from_u64(0x57E55);
    // Half the run before reset deasserts: case dispatch over an X
    // selector, NBA writes of X, dropped unknown-index writes — the
    // X-regime paths of the program interpreter.
    pair.poke("clk", Logic::bit(false));
    for phase in 0..2 {
        if phase == 1 {
            pair.poke("rst_n", Logic::bit(false));
            pair.poke("rst_n", Logic::bit(true));
        }
        for _ in 0..200 {
            pair.poke("idx", Logic::from_u128(4, wide(&mut rng)));
            pair.poke("d", Logic::from_u128(8, wide(&mut rng)));
            pair.poke("clk", Logic::bit(true));
            pair.poke("clk", Logic::bit(false));
        }
    }
}
