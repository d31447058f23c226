//! Benchmark dataset assembly: designs × mutation operators → validated
//! error instances (§III-E; the paper's open-sourced 331-instance set).

use crate::memo::StageMemo;
use crate::metrics::mutant_is_detectable;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, OnceLock, PoisonError};
use uvllm_designs::{all, Design};
use uvllm_errgen::{ErrorKind, GroundTruth, Prepared};

/// Default instance count, matching the paper's dataset size.
pub const PAPER_DATASET_SIZE: usize = 331;

/// One validated benchmark instance.
#[derive(Debug, Clone)]
pub struct BenchInstance {
    pub design: &'static Design,
    pub kind: ErrorKind,
    /// Mutation seed (instances are reproducible from it).
    pub seed: u64,
    pub mutated_src: String,
    pub ground_truth: GroundTruth,
}

impl BenchInstance {
    /// Stable identifier, e.g. `adder_8bit/operator_misuse#3`.
    pub fn id(&self) -> String {
        format!("{}/{}#{}", self.design.name, self.kind.name(), self.seed)
    }
}

/// A validated dataset plus its applicability matrix (for Fig. 7's "×"
/// cells).
#[derive(Debug, Default)]
pub struct Dataset {
    pub instances: Vec<BenchInstance>,
    /// `(design, kind)` pairs where no valid instance could be built.
    pub inapplicable: Vec<(&'static str, ErrorKind)>,
}

impl Dataset {
    /// Instances of syntax kinds.
    pub fn syntax(&self) -> Vec<&BenchInstance> {
        self.instances.iter().filter(|i| i.kind.is_syntax()).collect()
    }

    /// Instances of functional kinds.
    pub fn functional(&self) -> Vec<&BenchInstance> {
        self.instances.iter().filter(|i| !i.kind.is_syntax()).collect()
    }
}

/// Builds one validated instance for `(design, kind)` if possible.
///
/// Validation guarantees the injected error is *real*:
/// * syntax kinds must fail to parse, which [`Prepared::mutate`]
///   already checked;
/// * functional kinds must either fail to build (declaration errors) or
///   fail the detection run — which is a strict prefix of the FR
///   campaign, so every admitted instance fails FR before repair.
///
/// The detection run asks `memo`, so a campaign that builds its
/// dataset through its own memo finds every candidate's text there, and
/// the elaboration of the admitted one [pinned](StageMemo::pin).
pub fn build_instance(
    design: &'static Design,
    kind: ErrorKind,
    base_seed: u64,
    memo: &StageMemo,
) -> Option<BenchInstance> {
    let mut rejected = Vec::new();
    let instance =
        build_prepared_instance(design, &prepare(design), kind, base_seed, memo, &mut rejected);
    for text in &rejected {
        memo.unpin(design.name, text);
    }
    instance
}

/// `design`'s golden source, lexed and parsed for mutation.
fn prepare(design: &'static Design) -> Prepared<'static> {
    Prepared::new(design.source).expect("golden designs parse")
}

/// [`build_instance`] from `golden`, `design`'s [`prepare`]d source.
/// Each functional attempt is pinned in `memo` before its detection run,
/// so the admitted one keeps the elaboration that run made; the texts of
/// the attempts not admitted are pushed to `rejected`, for the caller to
/// unpin once no validation runs.
fn build_prepared_instance(
    design: &'static Design,
    golden: &Prepared<'static>,
    kind: ErrorKind,
    base_seed: u64,
    memo: &StageMemo,
    rejected: &mut Vec<String>,
) -> Option<BenchInstance> {
    for attempt in 0..6u64 {
        let seed = base_seed.wrapping_add(attempt.wrapping_mul(0x9E37_79B9));
        let Ok(out) = golden.mutate(kind, seed) else { continue };
        let admitted = kind.is_syntax() || {
            memo.pin(design.name, &out.mutated_src);
            mutant_is_detectable(design, &out.mutated_src, memo)
        };
        if admitted {
            return Some(BenchInstance {
                design,
                kind,
                seed,
                mutated_src: out.mutated_src,
                ground_truth: out.ground_truth,
            });
        }
        rejected.push(out.mutated_src);
    }
    None
}

/// Rounds of fresh seeds over every `(design, kind)` pair.
const ROUNDS: usize = 8;

/// Builds a dataset of (up to) `target` instances by cycling over every
/// `(design, kind)` pair with fresh seeds each round, mirroring the
/// paper's "27 modules × 9 error types, 331 instances" construction.
/// Validation runs ask `memo` ([`build_instance`]); each golden source a
/// candidate needs is lexed and parsed once per build. Once built, the
/// dataset's own texts — every admitted mutant and every golden source
/// — are the texts [pinned](StageMemo::pin) in `memo`, so their
/// elaborations are kept for the jobs, which all start from them: a
/// candidate is pinned while it is validated and unpinned, its
/// elaboration dropped, if it is not admitted.
///
/// The candidates `(round, design, kind)` are examined in that order
/// until `target` instances are found; a pair none of whose round-0
/// attempts validates is `inapplicable`. `workers` threads (the calling
/// thread and `workers − 1` helpers, all in one scope) validate
/// candidates side by side, claiming them in that order and never past
/// `finished prefix + (target − found in it)`: each claimed candidate
/// is one the one-thread build examines too, so the dataset, and every
/// elaboration made for it, is the same at any `workers`.
pub fn build_dataset(target: usize, base_seed: u64, memo: &StageMemo, workers: usize) -> Dataset {
    let designs = all();
    let goldens: Vec<OnceLock<Prepared<'static>>> =
        designs.iter().map(|_| OnceLock::new()).collect();
    let kinds = ErrorKind::ALL.len();
    let pairs = designs.len() * kinds;
    let candidates = ROUNDS * pairs;
    let rejected = Mutex::new(Vec::new());
    let validate = |candidate: usize| {
        let (round, index) = (candidate / pairs, candidate % pairs / kinds);
        let design = designs[index];
        let kind = ErrorKind::ALL[candidate % kinds];
        let seed = base_seed
            .wrapping_add((round as u64).wrapping_mul(0x1000))
            .wrapping_add(kind as u64 * 37)
            .wrapping_add(design.name.len() as u64);
        let golden = goldens[index].get_or_init(|| prepare(design));
        let mut texts = Vec::new();
        let instance = build_prepared_instance(design, golden, kind, seed, memo, &mut texts);
        let mut rejected = rejected.lock().unwrap_or_else(PoisonError::into_inner);
        rejected.extend(texts.into_iter().map(|text| (design.name, text)));
        instance.ok_or((design.name, kind))
    };

    let claims = Mutex::new(Claims {
        outcomes: (0..candidates).map(|_| None).collect(),
        next: 0,
        prefix: 0,
        found: 0,
        panicked: false,
    });
    let progress = Condvar::new();
    let claim_and_validate = || {
        let mut state = claims.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if state.panicked || state.found == target || state.prefix == candidates {
                progress.notify_all();
                return;
            }
            if state.next == (state.prefix + (target - state.found)).min(candidates) {
                // Every claimable candidate is in flight elsewhere.
                state = progress.wait(state).unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            let candidate = state.next;
            state.next += 1;
            drop(state);
            let outcome = catch_unwind(AssertUnwindSafe(|| validate(candidate)));
            state = claims.lock().unwrap_or_else(PoisonError::into_inner);
            match outcome {
                Ok(outcome) => state.finish(candidate, outcome),
                Err(panic) => {
                    // Nobody may wait for a candidate that never finishes.
                    state.panicked = true;
                    progress.notify_all();
                    drop(state);
                    resume_unwind(panic);
                }
            }
            progress.notify_all();
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(claim_and_validate);
        }
        claim_and_validate();
    });

    let state = claims.into_inner().unwrap_or_else(PoisonError::into_inner);
    let mut dataset = Dataset::default();
    for (candidate, outcome) in state.outcomes.into_iter().take(state.prefix).enumerate() {
        match outcome.expect("the finished prefix holds every claimed candidate") {
            Ok(instance) => dataset.instances.push(instance),
            Err(pair) if candidate < pairs => dataset.inapplicable.push(pair),
            Err(_) => {}
        }
    }
    for (design, text) in rejected.into_inner().unwrap_or_else(PoisonError::into_inner) {
        memo.unpin(design, &text);
    }
    for design in &designs {
        memo.pin(design.name, design.source);
    }
    for instance in &dataset.instances {
        memo.pin(instance.design.name, &instance.mutated_src);
    }
    dataset
}

/// A candidate's outcome: its instance, or the pair that yielded none.
type Validated = Result<BenchInstance, (&'static str, ErrorKind)>;

/// The shared state of one [`build_dataset`].
struct Claims {
    /// Outcome of each candidate, by candidate index.
    outcomes: Vec<Option<Validated>>,
    /// The next candidate to claim.
    next: usize,
    /// Candidates `0..prefix` are all finished.
    prefix: usize,
    /// Instances among the first `prefix` candidates.
    found: usize,
    /// A validation panicked: the build stops and the panic propagates.
    panicked: bool,
}

impl Claims {
    fn finish(&mut self, candidate: usize, outcome: Validated) {
        self.outcomes[candidate] = Some(outcome);
        while let Some(Some(outcome)) = self.outcomes.get(self.prefix) {
            self.found += usize::from(outcome.is_ok());
            self.prefix += 1;
        }
    }
}

/// Benchmark compatibility; goes with the next `benchmark` PR.
#[doc(hidden)]
pub fn build_dataset_with(
    target: usize,
    base_seed: u64,
    _backend: uvllm_sim::SimBackend,
) -> Dataset {
    build_dataset(target, base_seed, &StageMemo::new(), 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvllm_designs::by_name;

    #[test]
    fn instance_building_validates_syntax() {
        let d = by_name("adder_8bit").unwrap();
        let inst =
            build_instance(d, ErrorKind::MissingSemicolon, 1, &StageMemo::new()).expect("instance");
        assert!(uvllm_verilog::parse(&inst.mutated_src).is_err());
        assert!(!inst.id().is_empty());
    }

    #[test]
    fn instance_building_validates_functional() {
        let d = by_name("adder_8bit").unwrap();
        let memo = StageMemo::new();
        let inst = build_instance(d, ErrorKind::OperatorMisuse, 1, &memo).expect("instance");
        assert!(uvllm_verilog::parse(&inst.mutated_src).is_ok());
        assert!(!crate::metrics::fix_confirmed(d, &inst.mutated_src, &memo));
    }

    #[test]
    fn inapplicable_pairs_are_skipped() {
        // mux4 has no instances -> port mismatch cannot be imposed.
        let d = by_name("mux4").unwrap();
        assert!(build_instance(d, ErrorKind::PortMismatch, 1, &StageMemo::new()).is_none());
    }

    #[test]
    fn small_dataset_builds_quickly_and_mixes_kinds() {
        let ds = build_dataset(40, 0x5EED, &StageMemo::new(), 1);
        assert_eq!(ds.instances.len(), 40);
        assert!(!ds.syntax().is_empty());
        assert!(!ds.functional().is_empty());
        // IDs unique.
        let mut ids: Vec<_> = ds.instances.iter().map(|i| i.id()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 40);
    }
}
