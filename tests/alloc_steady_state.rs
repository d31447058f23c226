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
//! allocation, and each golden's parse stays at its measured count and
//! the mean bytes it asks for.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. Per thread, because libtest
    /// spawns and retires sibling test threads at moments no lock in
    /// this file can order against a measuring window; `const`
    /// initialisation keeps the access itself allocation-free.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread asked for: each allocation's size, and a
    /// reallocation's new size.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count_one(bytes: usize) {
    // `try_with`: the allocator also runs while a thread tears its
    // locals down, where there is nothing left to count into.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: delegates verbatim to `System`; the counter is a plain
// thread-local cell with no further invariants.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations the calling thread has made so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Heap bytes the calling thread has asked for so far.
fn bytes() -> u64 {
    BYTES.with(Cell::get)
}

use uvllm_sim::{Logic, Simulator};
use uvllm_uvm::{
    CornerSequence, DirectedSequence, Environment, IoFrame, RandomSequence, RunSummary, Sequence,
};

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
/// coverage, waveform capture off) and returns (summary, allocations
/// of the run itself).
fn run_counted(design: &uvllm_designs::Design, seqs: Vec<Box<dyn Sequence>>) -> (RunSummary, u64) {
    let env = Environment::from_source(
        design.source,
        design.name,
        (design.iface)(),
        (design.model)(),
        seqs,
    )
    .expect("env")
    .without_waveform();
    let before = allocations();
    let summary = env.run();
    (summary, allocations() - before)
}

/// The whole environment + refmodel + kernel loop, on every golden
/// design, under each kind of sequence: playing more cycles of random,
/// corner or directed stimulus must not grow a run's allocation count
/// at all — after construction the per-cycle cost is zero heap
/// allocations, whichever sequence drives. A single per-cycle
/// allocation anywhere in the loop shows up as a delta of at least the
/// extra cycles. (Mismatch records and waveform frames are exempt; the
/// golden designs record none here.)
#[test]
fn environment_steady_state_is_allocation_free_per_cycle() {
    for design in uvllm_designs::all() {
        let name = design.name;
        let iface = (design.iface)();
        let random = |cycles| -> Box<dyn Sequence> {
            Box::new(RandomSequence::new(&iface.inputs, cycles, 0xA110C))
        };
        let corner = || -> Box<dyn Sequence> { Box::new(CornerSequence::new(&iface.inputs)) };
        let directed = || -> Box<dyn Sequence> {
            Box::new(DirectedSequence::new("public", (design.directed_vectors)()))
        };
        // A first run takes the process's one-time allocations (metric
        // registration) so every measured run starts from the same state.
        let (warm, _) = run_counted(design, vec![random(64), corner(), directed()]);
        assert!(warm.all_passed(), "{name}: golden model must pass");
        let (base, base_allocs) = run_counted(design, vec![random(500), corner(), directed()]);
        let longer: [(&str, Vec<Box<dyn Sequence>>); 3] = [
            ("random", vec![random(2500), corner(), directed()]),
            ("corner", vec![random(500), corner(), corner(), corner(), directed()]),
            ("directed", vec![random(500), corner(), directed(), directed(), directed()]),
        ];
        for (kind, seqs) in longer {
            let (long, long_allocs) = run_counted(design, seqs);
            assert!(base.all_passed() && long.all_passed(), "{name}: runs must pass");
            assert!(long.cycles > base.cycles, "{name}: the {kind} run plays more cycles");
            assert_eq!(
                long_allocs,
                base_allocs,
                "{name}: {} extra {kind} cycles changed the run's allocations from \
                 {base_allocs} to {long_allocs} (steady state must be allocation-free)",
                long.cycles - base.cycles
            );
        }
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

/// Allocations of one `parse` of each golden design, as measured once
/// tokens were 12 bytes and the AST kept a lone list entry inline and an
/// operator's operands in one box (the mean was 137 with copied tokens,
/// 44.7 with a `String` per identifier and 29.9 with one names table per
/// text): the token vector, the two parts of the names table and its
/// `Arc`, and the AST's boxes and lists.
const PARSE_ALLOCATIONS: [(&str, u64); 27] = [
    ("accu", 17),
    ("adder_8bit", 11),
    ("adder_16bit", 26),
    ("sub_8bit", 13),
    ("mul_8bit", 8),
    ("mul_pipe_8bit", 21),
    ("div_8bit", 31),
    ("counter_12", 21),
    ("updown_counter_8", 21),
    ("gray_counter_4", 19),
    ("johnson_counter_4", 18),
    ("seq_detector_101", 32),
    ("traffic_light", 49),
    ("ram_sync", 14),
    ("fifo_sync", 57),
    ("lifo_stack", 36),
    ("regfile", 23),
    ("rom_16x8", 28),
    ("alu_8bit", 32),
    ("mux4", 14),
    ("decoder_3to8", 9),
    ("priority_encoder_8", 32),
    ("parity_gen_8", 10),
    ("edge_detector", 20),
    ("shift_reg_8", 16),
    ("barrel_shifter_8", 19),
    ("pwm_8", 17),
];

/// Heap bytes one `parse` of a golden design asks for, on average (each
/// allocation's size, a reallocation's new size): 24.5 KB for the mean
/// 334 bytes of source while a token was 48 bytes and the token vector
/// held one per source byte; 5.2 KB since.
const PARSE_BYTES_MEAN: u64 = 5_300;

/// No golden design's parse allocates more than its pin, the mean stays
/// under 23, and the bytes asked for stay under [`PARSE_BYTES_MEAN`] on
/// average. Each design is parsed once before it is measured: the first
/// parse of a process also registers the `verilog.parses` counter.
#[test]
fn parse_allocations_stay_at_their_pins() {
    assert_eq!(PARSE_ALLOCATIONS.len(), uvllm_designs::all().len());
    let (mut total, mut total_bytes) = (0, 0);
    for (name, pin) in PARSE_ALLOCATIONS {
        let design = uvllm_designs::by_name(name).unwrap();
        drop(uvllm_verilog::parse(design.source).unwrap());
        let (before, before_bytes) = (allocations(), bytes());
        let file = uvllm_verilog::parse(design.source).unwrap();
        let (delta, delta_bytes) = (allocations() - before, bytes() - before_bytes);
        drop(file);
        assert!(delta <= pin, "{name}: parse made {delta} allocations, pinned at {pin}");
        total += delta;
        total_bytes += delta_bytes;
    }
    let mean = total as f64 / PARSE_ALLOCATIONS.len() as f64;
    assert!(mean < 23.0, "parse makes {mean:.1} allocations per golden design on average");
    let mean_bytes = total_bytes / PARSE_ALLOCATIONS.len() as u64;
    assert!(
        mean_bytes <= PARSE_BYTES_MEAN,
        "parse asks for {mean_bytes} bytes per golden design on average, pinned at \
         {PARSE_BYTES_MEAN}"
    );
}
