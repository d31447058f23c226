//! What a resident server keeps of a run it has aggregated, pinned:
//! completed runs of the default 331 × 6 campaign, folded into one
//! [`Aggregator`], retain at most [`RETAINED_PER_RUN`] live heap bytes
//! each — the run's index of its sink lines and its rendered report.
//! An aggregator that kept each run's 1 986 parsed rows retained about
//! 1.8 MB per run.
//!
//! One `#[test]` in a binary of its own: the live-byte count is
//! process-wide, so no other test may allocate beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicI64, Ordering};
use std::time::Duration;
use uvllm_campaign::{expected_job_ids, CampaignConfig, EvalRow, MethodKind};
use uvllm_serve::{Aggregator, RunSpec};

/// Heap bytes allocated and not yet freed, by every thread.
static LIVE: AtomicI64 = AtomicI64::new(0);

struct CountingAlloc;

// SAFETY: delegates verbatim to `System`; the counter is a plain atomic
// with no further invariants.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Live heap bytes a completed default run may keep: its index (16
/// bytes a job, 31.8 KB) and its report (8.7 KB), with room to spare.
const RETAINED_PER_RUN: i64 = 64 * 1024;

/// Completed runs measured, after one that warms the id space.
const RUNS: usize = 4;

const SHARDS: usize = 4;

/// A row for job `id`, shaped like the campaign's: labels from the id,
/// so the report's tallies see the dataset's designs and methods.
fn row(id: &str, n: usize) -> EvalRow {
    let (instance, method) = id.rsplit_once('@').unwrap();
    let design = instance.split('/').next().unwrap();
    let fixed = !n.is_multiple_of(5);
    EvalRow {
        id: id.to_string(),
        instance: instance.to_string(),
        design: design.to_string(),
        group: ["Arithmetic", "Control", "Memory"][n % 3].to_string(),
        kind: "operator_misuse".to_string(),
        syntax: n.is_multiple_of(2),
        category: ["Flawed conditions", "Scope issues", "Data handling"][n % 3].to_string(),
        method: method.to_string(),
        backend: "event".to_string(),
        hit: !n.is_multiple_of(3),
        fixed,
        outcome: "pass".to_string(),
        claimed: fixed,
        llm_calls: (n % 7) as u64,
        prompt_tokens: 1000 + n as u64,
        completion_tokens: 200 + n as u64,
        sim_latency_ms: 12_000 + n as u64,
        fixed_by: fixed.then(|| "Repair in MS Mode".to_string()),
        degraded: None,
        llm_wait_ms: None,
        llm_batch_max: None,
    }
}

#[test]
fn a_completed_run_retains_its_index_not_its_rows() {
    let defaults = CampaignConfig::default();
    let spec = RunSpec {
        size: defaults.dataset_size,
        seed: defaults.dataset_seed,
        methods: MethodKind::ALL.to_vec(),
        shards: SHARDS,
        lease: Duration::from_secs(60),
    };
    let ids = expected_job_ids(spec.size, spec.seed, &spec.methods);
    assert_eq!(ids.len(), 1986);

    // Shard sinks as workers leave them: rows dealt round-robin.
    let dir = std::env::temp_dir().join(format!("uvllm-retained-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let sinks: Vec<PathBuf> = (0..SHARDS).map(|i| dir.join(format!("shard-{i}.jsonl"))).collect();
    let mut texts = vec![String::new(); SHARDS];
    let mut lines: Vec<String> =
        ids.iter().enumerate().map(|(n, id)| row(id, n).to_json_line()).collect();
    for (n, line) in lines.iter().enumerate() {
        texts[n % SHARDS].push_str(line);
        texts[n % SHARDS].push('\n');
    }
    for (path, text) in sinks.iter().zip(texts) {
        std::fs::write(path, text).unwrap();
    }

    let agg = Aggregator::new();
    let complete = |run: &str| {
        let summary = agg.summary(run).unwrap();
        assert!(summary.complete(), "{run}: {} of {}", summary.rows, summary.expected);
        assert!(summary.diags.is_empty(), "{run}: {:?}", summary.diags);
        assert!(summary.report.is_some(), "{run}: a complete run has its report");
    };
    // The first run builds the spec's id space, which later runs share.
    agg.register("run-0", &spec, sinks.clone());
    agg.poll();
    complete("run-0");

    let before = LIVE.load(Ordering::SeqCst);
    for k in 1..=RUNS {
        agg.register(&format!("run-{k}"), &spec, sinks.clone());
        agg.poll();
        complete(&format!("run-{k}"));
    }
    let per_run = (LIVE.load(Ordering::SeqCst) - before) / RUNS as i64;
    eprintln!("{per_run} live heap bytes retained per completed run");
    assert!(
        per_run <= RETAINED_PER_RUN,
        "a completed run retains {per_run} live heap bytes, pinned at {RETAINED_PER_RUN}"
    );

    // What is kept still serves every row, in job-id order.
    lines.sort();
    let served = agg.rows_jsonl("run-1").unwrap().unwrap();
    assert!(served.lines().eq(lines.iter().map(String::as_str)), "served rows differ");
    std::fs::remove_dir_all(&dir).unwrap();
}
