//! What a resident server keeps of a run it has aggregated, pinned:
//! completed runs of the default 331 × 6 campaign, folded into one
//! [`Aggregator`], retain at most [`RETAINED_PER_RUN`] live heap bytes
//! each — the run's index of its sink lines and its rendered report.
//! An aggregator that kept each run's 1 986 parsed rows retained about
//! 1.8 MB per run.
//!
//! One `#[test]` in a binary of its own: the live-byte count is
//! process-wide, so no other test may allocate beside it.

mod support;

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use support::{default_run, LIVE};
use uvllm_serve::Aggregator;

/// Live heap bytes a completed default run may keep: its index (16
/// bytes a job, 31.8 KB) and its report (8.7 KB), with room to spare.
const RETAINED_PER_RUN: i64 = 64 * 1024;

/// Completed runs measured, after one that warms the id space.
const RUNS: usize = 4;

const SHARDS: usize = 4;

#[test]
fn a_completed_run_retains_its_index_not_its_rows() {
    let (spec, texts, rows) = default_run(SHARDS);
    let dir = std::env::temp_dir().join(format!("uvllm-retained-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let sinks: Vec<PathBuf> = (0..SHARDS).map(|i| dir.join(format!("shard-{i}.jsonl"))).collect();
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
    let served = agg.rows_jsonl("run-1").unwrap().unwrap();
    assert!(served == rows, "served rows differ");
    std::fs::remove_dir_all(&dir).unwrap();
}
