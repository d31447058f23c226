//! The dataset-owned stage memo, end to end: a text is linted and run
//! through the UVM stage once per dataset at any worker count and
//! across shards, a fresh dataset starts cold, and a UVM slot answers
//! only for the stimulus it was made with.
//!
//! One `#[test]` in a binary of its own: the `campaign.stage_memo.*`
//! counters are process-wide, and the exact deltas asserted here must
//! not see another test's campaign.

use std::sync::Arc;
use uvllm::{StageMemo, VerifyConfig};
use uvllm_campaign::{Campaign, CampaignConfig, MemorySink, MethodKind, ShardSpec};

fn config(workers: usize) -> CampaignConfig {
    CampaignConfig {
        dataset_size: 24,
        dataset_seed: 0xD15E,
        methods: MethodKind::ALL.to_vec(),
        workers,
        ..CampaignConfig::default()
    }
}

/// `[lint.hits, lint.misses, uvm.hits, uvm.misses]` of the process so far.
fn memo_counters() -> [u64; 4] {
    ["lint.hits", "lint.misses", "uvm.hits", "uvm.misses"]
        .map(|name| uvllm_obs::registry().counter(&format!("campaign.stage_memo.{name}")).get())
}

/// Runs `work`, returning its sorted rows and its counter deltas.
fn measured(work: impl FnOnce() -> Vec<String>) -> (Vec<String>, [u64; 4]) {
    let before = memo_counters();
    let mut rows = work();
    rows.sort();
    let after = memo_counters();
    (rows, std::array::from_fn(|i| after[i] - before[i]))
}

fn lines(sink: &MemorySink) -> Vec<String> {
    sink.rows().iter().map(|r| r.to_json_line()).collect()
}

/// Which slots of which texts a memo holds, sorted.
fn slots(memo: &StageMemo) -> Vec<(&'static str, String, [bool; 3])> {
    let mut slots: Vec<_> = memo
        .analysed()
        .into_iter()
        .map(|a| (a.design, a.text, [a.lint.is_some(), a.uvm.is_some(), a.verdict.is_some()]))
        .collect();
    slots.sort();
    slots
}

#[test]
fn a_text_is_analysed_once_per_dataset() {
    // One run on a dataset kept for the slot comparisons below.
    let unsharded = Campaign::new(config(1)).unwrap().build_dataset();
    let (rows, counters) = measured(|| {
        let mut sink = MemorySink::new();
        Campaign::new(config(1)).unwrap().run_on(&unsharded, &mut sink).unwrap();
        lines(&sink)
    });
    assert_eq!(rows.len(), 24 * 6);
    let [lint_hits, lint_misses, uvm_hits, uvm_misses] = counters;
    assert!(lint_misses > 0 && lint_hits > lint_misses, "lint: {lint_hits} / {lint_misses}");
    assert!(uvm_misses > 0 && uvm_hits > 0, "uvm: {uvm_hits} / {uvm_misses}");
    let filled = slots(unsharded.memo());
    let count = |slot: usize| filled.iter().filter(|(_, _, s)| s[slot]).count() as u64;
    assert_eq!((count(0), count(1)), (lint_misses, uvm_misses), "a miss is a slot filled");

    // Worker count changes neither the rows nor what the memo did.
    // Every `Campaign::run` builds its own dataset and so starts cold:
    // equal deltas also say nothing leaks from one dataset to the next.
    for workers in [1, 2, 8] {
        let (again, deltas) = measured(|| {
            let mut sink = MemorySink::new();
            Campaign::new(config(workers)).unwrap().run(&mut sink).unwrap();
            lines(&sink)
        });
        assert_eq!(again, rows, "rows at {workers} workers");
        assert_eq!(deltas, counters, "memo hits / misses at {workers} workers");
    }

    // Two shards on one dataset fill together exactly the slots the
    // unsharded run fills: the six methods of an instance scatter over
    // the shards, and the dataset lets one shard reuse the other's work.
    let (sharded, deltas) = measured(|| {
        let dataset = Campaign::new(config(2)).unwrap().build_dataset();
        let mut union = Vec::new();
        for index in 0..2 {
            let mut shard = config(2);
            shard.shard = ShardSpec { index, count: 2 };
            let mut sink = MemorySink::new();
            Campaign::new(shard).unwrap().run_on(&dataset, &mut sink).unwrap();
            union.extend(lines(&sink));
        }
        assert_eq!(slots(dataset.memo()), filled);
        union
    });
    assert_eq!(sharded, rows);
    assert_eq!(deltas, counters, "shards share the dataset's memo");

    // A UVM slot is served for the stimulus it was made with and no
    // other: a different one is run afresh, counted as a miss, and the
    // slot keeps answering for its own.
    let memo = unsharded.memo();
    let cfg = VerifyConfig::default();
    let kept = memo
        .analysed()
        .into_iter()
        .find(|a| a.uvm.as_ref().is_some_and(|facts| !facts.passed()))
        .expect("some candidate failed its UVM stage");
    let design = uvllm_designs::by_name(kept.design).unwrap();
    let ask = |memo: &StageMemo, cycles, seed| memo.uvm_stage(&kept.text, design, cycles, seed);
    let before = memo_counters();
    let own = ask(memo, cfg.uvm_cycles, cfg.uvm_seed);
    assert!(Arc::ptr_eq(&own, kept.uvm.as_ref().unwrap()));
    for (cycles, seed) in [(cfg.uvm_cycles, cfg.uvm_seed + 1), (cfg.uvm_cycles / 2, cfg.uvm_seed)] {
        let other = ask(memo, cycles, seed);
        assert!(!Arc::ptr_eq(&other, &own), "({cycles}, {seed:#x}) served from another's slot");
        let fresh = ask(&StageMemo::new(), cycles, seed);
        assert_eq!(other.score(), fresh.score());
        for sl_mode in [false, true] {
            assert_eq!(
                other.error_info(&kept.text, design, sl_mode, memo),
                fresh.error_info(&kept.text, design, sl_mode, &StageMemo::new())
            );
        }
    }
    assert!(Arc::ptr_eq(&ask(memo, cfg.uvm_cycles, cfg.uvm_seed), &own));
    let after = memo_counters();
    assert_eq!(after[2] - before[2], 2, "two asks with the slot's own stimulus");
    assert_eq!(after[3] - before[3], 4, "two on this memo, two on fresh ones");
}
