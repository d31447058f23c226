//! What a campaign *does*, pinned: the full 331 × 6 campaign at the
//! default dataset seed must keep its work counts — kernel settles and
//! activations, elaborations (kept and not), memo fills and reuses,
//! dataset builds, LLM tickets — exactly, at one worker and at two.
//!
//! Counts move before times do and are equal at any worker count, so
//! this is the regression gate a wall-clock reading cannot be on a
//! shared box. A change that moves a count on purpose edits
//! `tests/golden/work_counts.txt` and says why in CHANGES.md.
//!
//! One `#[test]` in a binary of its own: every counter read here is
//! process-wide, and the exact deltas must not see another test's
//! campaign.
//!
//! The binary also counts heap allocations: every `alloc` and `realloc`
//! of every thread lands in one process-wide counter, so a campaign's
//! pool threads are counted exactly (a per-thread tally handed over at
//! thread exit can miss a scoped thread, whose join may return before
//! its thread-locals are destroyed). Allocations per job are held under
//! [`ALLOCATIONS_PER_JOB`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use uvllm_campaign::{Campaign, CampaignConfig, MemorySink};

/// Heap allocations made so far, by every thread.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates verbatim to `System`; the counter is a plain atomic
// with no further invariants.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations every thread has made so far.
fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Heap allocations per job of a default campaign (`alloc` plus
/// `realloc` calls on every thread, over the 1 986 jobs), at most. It
/// read 785.4 while identifiers were copied at every layer and 449.6
/// once they were interned symbols, transactions and records were
/// slot-indexed, each design's stimulus was resolved once and lowered
/// expressions shared their operands. It reads 439.4 at one worker and
/// 438.6 at two (in debug and release alike) since a run stopped
/// keeping its records and a second copy of every row for the report,
/// and folds each row into the report as the sink takes it. It reads
/// 406.6 at one worker and 405.8 at two since a parse is made of smaller
/// nodes, a syntax error is kept and a golden is judged by identity. It
/// reads 405.5 at one worker and 404.8 at two since a job's repair and
/// simulate timings record into histograms resolved once instead of
/// formatting and looking up their names: the pin sits 0.4 above that,
/// so one more allocation per job fails it.
const ALLOCATIONS_PER_JOB: f64 = 405.9;

/// The pinned counters, in the golden's order. The `llm.*` pair counts
/// prompts through the shared batched service, which a default campaign
/// (`llm_batch: None`, one direct service per job) never opens.
const COUNTERS: [&str; 18] = [
    "verilog.parses",
    "sim.event.settles",
    "sim.event.activations",
    "sim.elaborations",
    "campaign.stage_memo.elab.misses",
    "campaign.stage_memo.elab.hits",
    "campaign.stage_memo.elab.unpinned",
    "campaign.stage_memo.lint.misses",
    "campaign.stage_memo.lint.hits",
    "campaign.stage_memo.uvm.misses",
    "campaign.stage_memo.uvm.hits",
    "campaign.stage_memo.hit.misses",
    "campaign.stage_memo.hit.hits",
    "campaign.verdict_memo.misses",
    "campaign.verdict_memo.hits",
    "campaign.dataset_builds",
    "llm.tickets",
    "llm.flushed_prompts",
];

/// One cold default campaign at `workers`, as golden-file text, and
/// its heap allocations per job.
fn counts_of_a_default_campaign(workers: usize) -> (String, f64) {
    let before = uvllm_obs::registry().snapshot();
    let config = CampaignConfig { workers, ..CampaignConfig::default() };
    let allocations_before = allocations();
    let mut sink = MemorySink::new();
    Campaign::new(config).unwrap().run(&mut sink).unwrap();
    let per_job = (allocations() - allocations_before) as f64 / sink.rows().len() as f64;
    let after = uvllm_obs::registry().snapshot();

    let mut text = String::new();
    for name in COUNTERS {
        let delta = after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
        let _ = writeln!(text, "{name} {delta}");
    }
    (text, per_job)
}

#[test]
fn full_campaign_does_the_committed_amount_of_work() {
    let golden = include_str!("golden/work_counts.txt");
    for workers in [1, 2] {
        let (actual, per_job) = counts_of_a_default_campaign(workers);
        assert_eq!(
            actual, golden,
            "work counts moved at {workers} workers; this run read:\n{actual}"
        );
        eprintln!("{workers} workers: {per_job:.1} allocations per job");
        assert!(
            per_job <= ALLOCATIONS_PER_JOB,
            "{per_job:.1} allocations per job at {workers} workers, pinned at \
             {ALLOCATIONS_PER_JOB}"
        );
    }
}
