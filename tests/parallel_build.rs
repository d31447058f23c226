//! The parallel dataset build is the sequential build: at any thread
//! count, `build_dataset` admits the same instances (ids, mutated
//! texts, ground truths) in the same order, reports the same
//! inapplicable pairs, and validates no candidate the one-thread build
//! would not reach — so it elaborates exactly as many texts.
//!
//! One `#[test]` in a binary of its own: `sim.elaborations` is
//! process-wide, and the exact deltas must not see another test's
//! elaborations.

use uvllm::{build_dataset, Dataset, StageMemo};
use uvllm_errgen::{ErrorKind, GroundTruth};

/// What a build produced, in a comparable form.
type Built = (Vec<(String, String, GroundTruth)>, Vec<(&'static str, ErrorKind)>);

fn built(dataset: Dataset) -> Built {
    let instances = dataset
        .instances
        .into_iter()
        .map(|inst| (inst.id(), inst.mutated_src, inst.ground_truth))
        .collect();
    (instances, dataset.inapplicable)
}

/// One build on a fresh memo, and the elaborations it made.
fn build(target: usize, seed: u64, workers: usize) -> (Built, u64) {
    let elaborations = || uvllm_obs::registry().counter("sim.elaborations").get();
    let before = elaborations();
    let dataset = build_dataset(target, seed, &StageMemo::new(), workers);
    (built(dataset), elaborations() - before)
}

#[test]
fn the_parallel_build_is_the_sequential_build() {
    let cases = std::iter::once((uvllm::dataset::PAPER_DATASET_SIZE, 0xDA7A))
        .chain((7..=16).map(|seed| (24, seed)));
    for (target, seed) in cases {
        let (sequential, elaborated) = build(target, seed, 1);
        assert_eq!(sequential.0.len(), target, "size {target}, seed {seed:#x}");
        assert!(elaborated > 0);
        for workers in [2, 4] {
            let (parallel, parallel_elaborated) = build(target, seed, workers);
            assert_eq!(
                parallel, sequential,
                "size {target}, seed {seed:#x}: {workers} threads built another dataset"
            );
            assert_eq!(
                parallel_elaborated, elaborated,
                "size {target}, seed {seed:#x}: {workers} threads validated a candidate the \
                 sequential build never reaches"
            );
        }
    }
}
