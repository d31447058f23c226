//! The dataset-owned verdict memo, end to end: a text is judged once
//! per dataset at any worker count and across shards, and a fresh
//! dataset starts cold.
//!
//! One `#[test]` in a binary of its own: the
//! `campaign.verdict_memo.*` counters are process-wide, and the exact
//! deltas asserted here must not see another test's campaign.

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

/// `(hits, misses)` of the process so far.
fn memo_counters() -> (u64, u64) {
    let counter = |name: &str| uvllm_obs::registry().counter(name).get();
    (counter("campaign.verdict_memo.hits"), counter("campaign.verdict_memo.misses"))
}

/// Runs `work`, returning its sorted rows and its `(hits, misses)`.
fn measured(work: impl FnOnce() -> Vec<String>) -> (Vec<String>, (u64, u64)) {
    let before = memo_counters();
    let mut rows = work();
    rows.sort();
    let after = memo_counters();
    (rows, (after.0 - before.0, after.1 - before.1))
}

fn lines(sink: &MemorySink) -> Vec<String> {
    sink.rows().iter().map(|r| r.to_json_line()).collect()
}

#[test]
fn a_text_is_judged_once_per_dataset() {
    let whole = |workers: usize| {
        measured(|| {
            let mut sink = MemorySink::new();
            Campaign::new(config(workers)).unwrap().run(&mut sink).unwrap();
            lines(&sink)
        })
    };

    // Worker count changes neither the rows nor what the memo did. The
    // second and third runs build fresh datasets, so they start cold:
    // equal deltas also say nothing leaks from one dataset to the next.
    let (rows, (hits, misses)) = whole(1);
    assert_eq!(rows.len(), 24 * 6);
    assert_eq!(hits + misses, rows.len() as u64, "every written row asked the memo once");
    assert!(misses > 0 && hits > misses, "methods converge on few texts: {hits} / {misses}");
    for workers in [2, 8] {
        let (again, counters) = whole(workers);
        assert_eq!(again, rows, "rows at {workers} workers");
        assert_eq!(counters, (hits, misses), "memo hits / misses at {workers} workers");
    }

    // Two shards on one dataset judge together exactly the texts the
    // unsharded run judges: the six methods of an instance scatter over
    // the shards, and the dataset lets one shard reuse the other's work.
    let (sharded, counters) = measured(|| {
        let dataset = Campaign::new(config(2)).unwrap().build_dataset();
        let mut union = Vec::new();
        for index in 0..2 {
            let mut shard = config(2);
            shard.shard = ShardSpec { index, count: 2 };
            let mut sink = MemorySink::new();
            Campaign::new(shard).unwrap().run_on(&dataset, &mut sink).unwrap();
            union.extend(lines(&sink));
        }
        assert_eq!(dataset.memo().judged().len() as u64, misses);
        union
    });
    assert_eq!(sharded, rows);
    assert_eq!(counters, (hits, misses), "shards share the dataset's memo");
}
