//! Elaboration-cache accounting: a campaign elaborates each golden
//! design exactly once per worker set.
//!
//! Lives in its own integration-test binary (= its own process) because
//! the elaboration cache and its counters are process-global; sharing a
//! process with other campaign tests would make the absolute counter
//! assertions racy.

use uvllm_campaign::{Campaign, CampaignConfig, MemorySink, MethodKind, ShardSpec};

#[test]
fn golden_designs_elaborate_exactly_once_per_worker_set() {
    let config = CampaignConfig {
        dataset_size: 12,
        dataset_seed: 0xD15E,
        methods: vec![MethodKind::Uvllm, MethodKind::Strider],
        workers: 4,
        shard: ShardSpec::default(),
        ..CampaignConfig::default()
    };

    uvllm_sim::cache::reset();
    let mut sink = MemorySink::new();
    let outcome = Campaign::new(config).unwrap().run(&mut sink).unwrap();
    assert!(outcome.golden_designs >= 1);
    let after_run = uvllm_sim::cache::stats();
    assert_eq!(after_run.evictions, 0, "small campaign must not thrash the cache");

    // Every golden design is cache-resident: requesting each again adds
    // hits but zero misses. Combined with the no-eviction check and the
    // cache's elaborate-under-lock memoisation, that means each design
    // was parsed + elaborated exactly once across the whole worker set.
    let designs: std::collections::HashSet<&str> =
        sink.rows().iter().map(|r| r.design.as_str()).collect();
    assert_eq!(designs.len(), outcome.golden_designs);
    for name in designs {
        let design = uvllm_designs::by_name(name).unwrap();
        uvllm_sim::elaborate_source_cached(design.source, design.name).unwrap();
    }
    let after_probe = uvllm_sim::cache::stats();
    assert_eq!(
        after_probe.misses, after_run.misses,
        "golden designs must already be resident (elaborated exactly once)"
    );
    assert!(after_probe.hits > after_run.hits);

    // The campaign workload itself elaborated no text twice: the
    // mutated source of each instance is shared by both methods, and
    // every metric check re-visits its candidate, so every miss is a
    // distinct text still resident.
    assert!(
        after_run.misses <= after_run.entries as u64,
        "a text was elaborated more than once (got {after_run:?})"
    );
}
