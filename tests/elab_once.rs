//! No text is elaborated twice in a campaign: every elaboration of a
//! campaign — the dataset builder's validation runs and every job's
//! simulations — goes through its dataset's stage memo, whose `elab`
//! slot is filled once per `(design, text)`.
//!
//! So, over a build plus a run, `sim.elaborations` (every parse and
//! elaboration the simulator did) moves by exactly
//! `campaign.stage_memo.elab.misses`, and that is the number of memo
//! entries holding an elaboration, at any worker count.
//!
//! One `#[test]` in a binary of its own: both counters are process-wide,
//! and the exact deltas must not see another test's elaborations.

use uvllm_campaign::{Campaign, CampaignConfig, MemorySink, MethodKind};

/// `(sim.elaborations, stage_memo.elab.misses, filled elab slots)` of
/// one cold campaign at `workers`.
fn elaborations_of_a_campaign(workers: usize) -> (u64, u64, u64) {
    let config = CampaignConfig {
        dataset_size: 12,
        dataset_seed: 0xD15E,
        methods: vec![MethodKind::Uvllm, MethodKind::Strider],
        workers,
        ..CampaignConfig::default()
    };
    let counter = |name| uvllm_obs::registry().counter(name).get();
    let before = (counter("sim.elaborations"), counter("campaign.stage_memo.elab.misses"));
    let campaign = Campaign::new(config).unwrap();
    let dataset = campaign.build_dataset();
    campaign.run_on(&dataset, &mut MemorySink::new(), None).unwrap();
    let filled = dataset.memo().analysed().iter().filter(|a| a.elab.is_some()).count();
    (
        counter("sim.elaborations") - before.0,
        counter("campaign.stage_memo.elab.misses") - before.1,
        filled as u64,
    )
}

#[test]
fn a_campaign_elaborates_each_text_once() {
    let mut seen = Vec::new();
    for workers in [1, 4] {
        let (elaborations, misses, filled) = elaborations_of_a_campaign(workers);
        assert!(elaborations > 0);
        assert_eq!(elaborations, misses, "an elaboration bypassed the memo at {workers} workers");
        assert_eq!(misses, filled, "a text was elaborated twice at {workers} workers");
        seen.push(elaborations);
    }
    assert_eq!(seen[0], seen[1], "the distinct texts do not depend on the worker count");
}
