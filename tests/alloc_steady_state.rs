//! Allocation regression suite for the verification hot loop.
//!
//! The steady-state cycle loop — drive pre-resolved ports, settle,
//! observe into reused buffers, step the reference model through an
//! [`uvllm_uvm::IoFrame`], compare slot-by-slot, sample coverage —
//! performs **zero heap allocations per cycle**. A counting global
//! allocator makes that an enforced contract instead of a comment: if
//! the frame API or the event kernel's precompiled process programs +
//! persistent scratch planes regress, these tests fail with a per-cycle
//! allocation count, not a silent slowdown.
//!
//! The kernel executes flat process programs with cleared-not-dropped
//! event/NBA/write queues, so it is held to a strict zero bound
//! ([`kernel_is_allocation_free_for_all_designs`] covers every golden
//! design). Waveform capture remains exempt (one frame per cycle, by
//! design, and disabled here the way metric runs disable it).
//!
//! The Verilog front end is pinned too: lexing a golden design is one
//! allocation, and each golden's parse stays at its measured count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. Per thread, because libtest
    /// spawns and retires sibling test threads at moments no lock in
    /// this file can order against a measuring window; `const`
    /// initialisation keeps the access itself allocation-free.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while a thread tears its
    // locals down, where there is nothing left to count into.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: delegates verbatim to `System`; the counter is a plain
// thread-local cell with no further invariants.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations the calling thread has made so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

use uvllm_sim::{Logic, Simulator};
use uvllm_uvm::{Environment, IoFrame, RandomSequence, RunSummary, Sequence};

/// The raw kernel matrix: every golden design must run 10,000 driven
/// clock cycles with **zero** heap allocations. This is the strict bound
/// the event kernel's process-program rework buys: pokes, process
/// activations, blocking/non-blocking writes and event propagation all
/// run out of persistent scratch.
#[test]
fn kernel_is_allocation_free_for_all_designs() {
    for d in uvllm_designs::all() {
        let design = uvllm_sim::elaborate_source(d.source, d.name)
            .unwrap_or_else(|e| panic!("{}: {e}", d.name));
        let mut sim = Simulator::from_arc(std::sync::Arc::clone(&design)).unwrap();
        let iface = (d.iface)();
        let resolve = |name: &str| design.signal_id(name).expect("port exists");
        let inputs: Vec<(uvllm_sim::SignalId, u32)> =
            iface.inputs.iter().map(|p| (resolve(&p.name), p.width)).collect();
        let clock = iface.clock.as_deref().map(resolve);
        let probe = design.outputs().first().copied();

        // Reset protocol (mirrors the UVM environment's).
        for (id, w) in &inputs {
            sim.poke(*id, Logic::zeros(*w)).unwrap();
        }
        if let Some(clk) = clock {
            sim.poke(clk, Logic::bit(false)).unwrap();
        }
        if let Some(reset) = &iface.reset {
            let rid = resolve(&reset.name);
            sim.poke(rid, Logic::bit(!reset.active_low)).unwrap();
            if let Some(clk) = clock {
                for _ in 0..2 {
                    sim.poke(clk, Logic::bit(true)).unwrap();
                    sim.poke(clk, Logic::bit(false)).unwrap();
                }
            }
            sim.poke(rid, Logic::bit(reset.active_low)).unwrap();
        }

        // One driven cycle; the LCG keeps stimulus varied without
        // allocating.
        let mut lcg = 0x2545_F491_4F6C_DD1Du64;
        let cycle = |sim: &mut Simulator, lcg: &mut u64| {
            for (id, w) in &inputs {
                *lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                sim.poke(*id, Logic::from_u128(*w, (*lcg >> 16) as u128)).unwrap();
            }
            if let Some(clk) = clock {
                sim.poke(clk, Logic::bit(true)).unwrap();
                sim.poke(clk, Logic::bit(false)).unwrap();
            }
            sim.settle().unwrap();
        };

        // Warm-up: let every scratch queue reach its high-water
        // capacity, then measure the steady state strictly.
        for _ in 0..2_000 {
            cycle(&mut sim, &mut lcg);
        }
        let before = allocations();
        for _ in 0..10_000 {
            cycle(&mut sim, &mut lcg);
        }
        let delta = allocations() - before;
        if let Some(out) = probe {
            std::hint::black_box(sim.peek(out));
        }
        assert_eq!(
            delta, 0,
            "{}: {delta} heap allocations across 10k driven cycles \
             (steady state must be allocation-free)",
            d.name
        );
    }
}

/// The reference-model boundary in isolation: every one of the 27
/// golden models, bound once, must step through its frame without a
/// single allocation.
#[test]
fn refmodel_step_is_allocation_free_for_all_designs() {
    for d in uvllm_designs::all() {
        let iface = (d.iface)();
        let spec = uvllm_uvm::IoSpec::from_interface(&iface);
        let mut model = (d.model)();
        model.bind(&spec);
        model.reset();
        let inputs: Vec<Logic> =
            iface.inputs.iter().map(|p| Logic::from_u128(p.width, 1)).collect();
        let mut outputs: Vec<Logic> = iface.outputs.iter().map(|p| Logic::xs(p.width)).collect();
        // Warm-up (nothing should allocate even here, but keep the
        // contract scoped to the steady state).
        for _ in 0..16 {
            let mut frame = IoFrame::new(&inputs, &mut outputs);
            model.step(&mut frame);
        }
        let before = allocations();
        for _ in 0..10_000 {
            let mut frame = IoFrame::new(&inputs, &mut outputs);
            model.step(&mut frame);
        }
        let delta = allocations() - before;
        assert_eq!(delta, 0, "{}: {} allocations across 10k model steps", d.name, delta);
    }
}

/// Runs one full environment (reset + sequences + scoreboard +
/// coverage, waveform capture off) and returns (summary, allocations).
fn run_counted(design: &uvllm_designs::Design, cycles: usize) -> (RunSummary, u64) {
    let iface = (design.iface)();
    let seqs: Vec<Box<dyn Sequence>> =
        vec![Box::new(RandomSequence::new(&iface.inputs, cycles, 0xA110C))];
    let env = Environment::from_source(design.source, design.name, iface, (design.model)(), seqs)
        .expect("env")
        .without_waveform();
    let before = allocations();
    let summary = env.run();
    (summary, allocations() - before)
}

/// The whole environment + refmodel + kernel loop: growing a run by
/// 2,000 cycles must not grow its allocation count — i.e. after the construction/warm-up phase, the per-cycle
/// cost is zero heap allocations. A single per-cycle allocation
/// anywhere in the loop would show up as a delta of ≥ 2,000.
#[test]
fn environment_steady_state_is_allocation_free_per_cycle() {
    // One design per category, sequential and combinational.
    for name in ["adder_8bit", "counter_12", "fifo_sync", "alu_8bit"] {
        let design = uvllm_designs::by_name(name).unwrap();
        // A first run takes the process's one-time allocations (metric
        // registration) so both measured runs start from the same state.
        let (warm, _) = run_counted(design, 64);
        assert!(warm.all_passed(), "{name}: golden model must pass");
        let (short, short_allocs) = run_counted(design, 500);
        let (long, long_allocs) = run_counted(design, 2500);
        assert!(short.all_passed() && long.all_passed(), "{name}: runs must pass");
        assert_eq!(long.cycles, short.cycles + 2000, "{name}: cycle accounting");
        let delta = long_allocs.saturating_sub(short_allocs);
        assert!(
            delta < 64,
            "{name}: {delta} extra allocations across 2000 extra cycles \
             (steady state must be allocation-free; short run: {short_allocs}, \
             long run: {long_allocs})"
        );
    }
}

/// Lexing makes one allocation, the token vector: tokens own no text.
#[test]
fn tokenize_makes_one_allocation_per_golden() {
    for d in uvllm_designs::all() {
        let before = allocations();
        let tokens = uvllm_verilog::lexer::tokenize(d.source).unwrap();
        let delta = allocations() - before;
        drop(tokens);
        assert_eq!(delta, 1, "{}: tokenize made {delta} allocations", d.name);
    }
}

/// Allocations of one `parse` of each golden design, as measured when the
/// front end stopped copying tokens (the mean was 137 before, 44 of them
/// lexing): the token vector plus what the AST keeps.
const PARSE_ALLOCATIONS: [(&str, u64); 27] = [
    ("accu", 32),
    ("adder_8bit", 24),
    ("adder_16bit", 81),
    ("sub_8bit", 28),
    ("mul_8bit", 13),
    ("mul_pipe_8bit", 36),
    ("div_8bit", 59),
    ("counter_12", 37),
    ("updown_counter_8", 41),
    ("gray_counter_4", 33),
    ("johnson_counter_4", 31),
    ("seq_detector_101", 77),
    ("traffic_light", 85),
    ("ram_sync", 28),
    ("fifo_sync", 111),
    ("lifo_stack", 73),
    ("regfile", 49),
    ("rom_16x8", 44),
    ("alu_8bit", 76),
    ("mux4", 27),
    ("decoder_3to8", 16),
    ("priority_encoder_8", 56),
    ("parity_gen_8", 17),
    ("edge_detector", 31),
    ("shift_reg_8", 30),
    ("barrel_shifter_8", 44),
    ("pwm_8", 29),
];

/// No golden design's parse allocates more than its pin, and the mean
/// stays at most half the copying front end's 137.
#[test]
fn parse_allocations_stay_at_their_pins() {
    assert_eq!(PARSE_ALLOCATIONS.len(), uvllm_designs::all().len());
    let mut total = 0;
    for (name, pin) in PARSE_ALLOCATIONS {
        let design = uvllm_designs::by_name(name).unwrap();
        let before = allocations();
        let file = uvllm_verilog::parse(design.source).unwrap();
        let delta = allocations() - before;
        drop(file);
        assert!(delta <= pin, "{name}: parse made {delta} allocations, pinned at {pin}");
        total += delta;
    }
    let mean = total as f64 / PARSE_ALLOCATIONS.len() as f64;
    assert!(mean <= 68.0, "parse makes {mean:.1} allocations per golden design on average");
}
