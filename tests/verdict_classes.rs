//! Class preservation over the whole corpus: a verdict run stops at the
//! first cycle the scoreboard rejects, which redefines a run's class as
//! that of its *first failing event*. For every distinct `(design, final
//! text)` a campaign judges, the stopped run must give the class — and
//! the hit — that the run to the last cycle gives when classified the
//! way `run_verdict` used to (`Unstable` tested before `Mismatch`).
//!
//! The run-to-the-end side is rebuilt here from public pieces on
//! purpose: it is the oracle, so it shares no code with the function it
//! checks.

use uvllm::metrics::{FR_CYCLES, FR_EXTRA_SEEDS, FR_PRIMARY_SEED};
use uvllm::Verdict;
use uvllm_campaign::{Campaign, CampaignConfig, MemorySink};
use uvllm_designs::Design;
use uvllm_uvm::{
    CornerSequence, DirectedSequence, Environment, RandomSequence, Sequence, UvmError,
};

/// The stimulus of `hit_confirmed_with`.
fn hit_seqs(design: &Design) -> Vec<Box<dyn Sequence>> {
    vec![Box::new(DirectedSequence::new("public", (design.directed_vectors)()))]
}

/// The stimulus of `fix_verdict_with`.
fn fr_seqs(design: &Design) -> Vec<Box<dyn Sequence>> {
    let iface = (design.iface)();
    let random = |seed| -> Box<dyn Sequence> {
        Box::new(RandomSequence::new(&iface.inputs, FR_CYCLES, seed))
    };
    let mut seqs = vec![
        random(FR_PRIMARY_SEED),
        Box::new(CornerSequence::new(&iface.inputs)),
        Box::new(DirectedSequence::new("public", (design.directed_vectors)())),
    ];
    seqs.extend(FR_EXTRA_SEEDS.map(random));
    seqs
}

/// `code` under `seqs`, run to the last cycle and classified in the
/// order used before verdict runs stopped early.
fn class_of_the_whole_run(design: &Design, code: &str, seqs: Vec<Box<dyn Sequence>>) -> Verdict {
    let backend = uvllm_sim::SimBackend::default();
    match Environment::from_source_with(
        code,
        design.name,
        (design.iface)(),
        (design.model)(),
        seqs,
        backend,
    ) {
        Ok(env) => {
            let summary = env.without_waveform().run();
            if summary.all_passed() {
                Verdict::Pass
            } else if let Some(activations) = summary.unstable {
                Verdict::Unstable { activations }
            } else {
                Verdict::Mismatch
            }
        }
        Err(UvmError::Sim(_)) => Verdict::Unstable { activations: uvllm_sim::MAX_ACTIVATIONS },
        Err(_) => Verdict::BuildFailed,
    }
}

/// Runs the full 331 × 6 campaign on dataset `seed`, then re-judges
/// every text its memo holds the old way. Returns the texts checked.
fn sweep(seed: u64) -> usize {
    let config = CampaignConfig {
        dataset_seed: seed,
        workers: 2,
        backend: uvllm_sim::SimBackend::default(),
        ..CampaignConfig::default()
    };
    let campaign = Campaign::new(config).unwrap();
    let dataset = campaign.build_dataset();
    campaign.run_on(&dataset, &mut MemorySink::new(), None).unwrap();
    let judged = dataset.memo().judged();

    // Two threads, like the campaign itself: the run-to-the-end side
    // costs what every verdict cost before the memo.
    let halves = judged.split_at(judged.len() / 2);
    std::thread::scope(|scope| {
        for half in [halves.0, halves.1] {
            scope.spawn(move || {
                for (name, text, (hit, verdict)) in half {
                    let design = uvllm_designs::by_name(name).unwrap();
                    let whole_fix = class_of_the_whole_run(design, text, fr_seqs(design));
                    assert_eq!(*verdict, whole_fix, "seed {seed:#x}, fix class of {name}:\n{text}");
                    let whole_hit = class_of_the_whole_run(design, text, hit_seqs(design));
                    assert_eq!(*hit, whole_hit.passed(), "seed {seed:#x}, hit of {name}:\n{text}");
                }
            });
        }
    });
    judged.len()
}

#[test]
fn stopped_verdicts_keep_their_class_on_the_default_corpus() {
    assert_eq!(sweep(CampaignConfig::default().dataset_seed), 684);
}

/// Two more datasets; CI runs these in release.
#[test]
#[ignore = "costs two full campaigns of run-to-the-end verdicts; run by CI in release"]
fn stopped_verdicts_keep_their_class_on_two_more_datasets() {
    for seed in [7, 8] {
        assert!(sweep(seed) > 300, "seed {seed}");
    }
}
