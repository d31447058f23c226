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

use std::fmt::Write as _;
use uvllm_campaign::{Campaign, CampaignConfig, MemorySink};

/// The pinned counters, in the golden's order. The `llm.*` pair counts
/// prompts through the shared batched service, which a default campaign
/// (`llm_batch: None`, one direct service per job) never opens.
const COUNTERS: [&str; 17] = [
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

/// One cold default campaign at `workers`, as golden-file text.
fn counts_of_a_default_campaign(workers: usize) -> String {
    let before = uvllm_obs::registry().snapshot();
    let config = CampaignConfig { workers, ..CampaignConfig::default() };
    Campaign::new(config).unwrap().run(&mut MemorySink::new()).unwrap();
    let after = uvllm_obs::registry().snapshot();

    let mut text = String::new();
    for name in COUNTERS {
        let delta = after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
        let _ = writeln!(text, "{name} {delta}");
    }
    text
}

#[test]
fn full_campaign_does_the_committed_amount_of_work() {
    let golden = include_str!("golden/work_counts.txt");
    for workers in [1, 2] {
        let actual = counts_of_a_default_campaign(workers);
        assert_eq!(
            actual, golden,
            "work counts moved at {workers} workers; this run read:\n{actual}"
        );
    }
}
