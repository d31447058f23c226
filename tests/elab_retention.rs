//! A campaign keeps an elaboration only for its dataset's own texts:
//! every admitted mutant and every golden source is pinned in the
//! dataset's stage memo before the first job (a candidate is pinned
//! while the build validates it, and unpinned, its elaboration dropped,
//! if it is not admitted). A pinned text is elaborated once by its first
//! simulation and shared by the rest; every other text is elaborated by
//! the run that needs it and dropped with that run.
//!
//! So the memo holds an elaboration for exactly the pinned texts that
//! were simulated, a run adds one kept elaboration per pinned slot it
//! fills, and `sim.elaborations` (every parse and elaboration the
//! simulator did) moves by exactly the pinned slot fills
//! (`campaign.stage_memo.elab.misses`) plus the unpinned elaborations
//! (`campaign.stage_memo.elab.unpinned`), in the build and in the run,
//! the same at any worker count.
//!
//! One `#[test]` in a binary of its own: the counters are process-wide,
//! and the exact deltas must not see another test's elaborations.

use std::collections::BTreeSet;
use uvllm::Analysed;
use uvllm_campaign::{Campaign, CampaignConfig, CampaignDataset, MemorySink, MethodKind};

/// The counters read, in the order their deltas are returned.
const COUNTERS: [&str; 4] = [
    "sim.elaborations",
    "campaign.stage_memo.elab.misses",
    "campaign.stage_memo.elab.unpinned",
    "campaign.stage_memo.elab.hits",
];

fn counters() -> [u64; 4] {
    COUNTERS.map(|name| uvllm_obs::registry().counter(name).get())
}

/// Runs `work`, returning what it returned and its [`COUNTERS`] deltas.
fn measured<T>(work: impl FnOnce() -> T) -> (T, [u64; 4]) {
    let before = counters();
    let value = work();
    let after = counters();
    (value, std::array::from_fn(|i| after[i] - before[i]))
}

/// Checks the elaborations `dataset`'s memo holds against its pinned
/// texts, which must be `own`; returns how many it holds.
fn kept(dataset: &CampaignDataset, own: &BTreeSet<(&str, String)>, at: &str) -> u64 {
    let analysed: Vec<Analysed> = dataset.memo().analysed();
    let pinned: BTreeSet<(&str, String)> =
        analysed.iter().filter(|a| a.pinned).map(|a| (a.design, a.text.clone())).collect();
    assert_eq!(&pinned, own, "the pinned texts {at}");
    for a in &analysed {
        let simulated = a.uvm.is_some() || a.hit.is_some() || a.verdict.is_some();
        assert!(
            a.elab.is_none() || a.pinned,
            "{}: an unpinned text kept its design {at}",
            a.design
        );
        assert!(
            !(a.pinned && simulated) || a.elab.is_some(),
            "{}: a pinned text was simulated without keeping its design {at}",
            a.design
        );
    }
    analysed.iter().filter(|a| a.elab.is_some()).count() as u64
}

/// The counter deltas of a cold build and of a run on it at `workers`.
fn elaborations_of_a_campaign(workers: usize) -> [[u64; 4]; 2] {
    let (size, seed) = (24, 0xD15E);
    let config = CampaignConfig {
        dataset_size: size,
        dataset_seed: seed,
        methods: vec![MethodKind::Uvllm, MethodKind::Strider, MethodKind::Meic],
        workers,
        ..CampaignConfig::default()
    };
    let own: BTreeSet<(&str, String)> = uvllm_designs::all()
        .iter()
        .map(|d| (d.name, d.source.to_string()))
        .chain(
            uvllm::build_dataset(size, seed, &uvllm::StageMemo::new(), 1)
                .instances
                .into_iter()
                .map(|i| (i.design.name, i.mutated_src)),
        )
        .collect();

    let campaign = Campaign::new(config).unwrap();
    let (dataset, build) = measured(|| campaign.build_dataset());
    let after_build = kept(&dataset, &own, &format!("after the build at {workers} workers"));
    let ((), run) =
        measured(|| campaign.run_on(&dataset, &mut MemorySink::new()).map(drop).unwrap());
    let after_run = kept(&dataset, &own, &format!("after the run at {workers} workers"));

    for (what, [elaborations, fills, unpinned, _]) in [("build", build), ("run", run)] {
        assert_eq!(
            elaborations,
            fills + unpinned,
            "{what} at {workers} workers: an elaboration bypassed the memo"
        );
    }
    let [_, fills, unpinned, hits] = run;
    assert!(fills > 0 && unpinned > 0 && hits > 0, "run: {fills} / {unpinned} / {hits}");
    assert!(after_build > 0, "the build keeps the elaborations of its admitted mutants");
    assert_eq!(
        after_run - after_build,
        fills,
        "a pinned text was elaborated twice, or lost its design, at {workers} workers"
    );
    [build, run]
}

#[test]
fn a_campaign_keeps_the_elaborations_of_its_pinned_texts_only() {
    let one = elaborations_of_a_campaign(1);
    let four = elaborations_of_a_campaign(4);
    assert_eq!(one, four, "what is elaborated does not depend on the worker count");
}
