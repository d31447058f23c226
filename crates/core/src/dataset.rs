//! Benchmark dataset assembly: designs × mutation operators → validated
//! error instances (§III-E; the paper's open-sourced 331-instance set).

use crate::memo::StageMemo;
use crate::metrics::mutant_is_detectable;
use uvllm_designs::{all, Design};
use uvllm_errgen::{mutate, ErrorKind, GroundTruth};

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
/// * syntax kinds must fail to parse;
/// * functional kinds must either fail to build (declaration errors) or
///   fail the detection run — which is a strict prefix of the FR
///   campaign, so every admitted instance fails FR before repair.
///
/// The detection run elaborates through `memo`, so a campaign that
/// builds its dataset through its own memo finds every admitted
/// mutant already elaborated.
pub fn build_instance(
    design: &'static Design,
    kind: ErrorKind,
    base_seed: u64,
    memo: &StageMemo,
) -> Option<BenchInstance> {
    for attempt in 0..6u64 {
        let seed = base_seed.wrapping_add(attempt.wrapping_mul(0x9E37_79B9));
        let Ok(out) = mutate(design.source, kind, seed) else { continue };
        let valid = if kind.is_syntax() {
            uvllm_verilog::parse(&out.mutated_src).is_err()
        } else {
            mutant_is_detectable(design, &out.mutated_src, memo)
        };
        if valid {
            return Some(BenchInstance {
                design,
                kind,
                seed,
                mutated_src: out.mutated_src,
                ground_truth: out.ground_truth,
            });
        }
    }
    None
}

/// Builds a dataset of (up to) `target` instances by cycling over every
/// `(design, kind)` pair with fresh seeds each round, mirroring the
/// paper's "27 modules × 9 error types, 331 instances" construction.
/// Validation runs elaborate through `memo` ([`build_instance`]).
pub fn build_dataset(target: usize, base_seed: u64, memo: &StageMemo) -> Dataset {
    let designs = all();
    let mut dataset = Dataset::default();
    let mut round = 0u64;
    while dataset.instances.len() < target && round < 8 {
        for design in &designs {
            for kind in ErrorKind::ALL {
                if dataset.instances.len() >= target {
                    break;
                }
                let seed = base_seed
                    .wrapping_add(round.wrapping_mul(0x1000))
                    .wrapping_add(kind as u64 * 37)
                    .wrapping_add(design.name.len() as u64);
                match build_instance(design, kind, seed, memo) {
                    Some(instance) => dataset.instances.push(instance),
                    None => {
                        if round == 0 {
                            dataset.inapplicable.push((design.name, kind));
                        }
                    }
                }
            }
        }
        round += 1;
    }
    dataset
}

/// Benchmark compatibility; goes with the next `benchmark` PR.
#[doc(hidden)]
pub fn build_dataset_with(
    target: usize,
    base_seed: u64,
    _backend: uvllm_sim::SimBackend,
) -> Dataset {
    build_dataset(target, base_seed, &StageMemo::new())
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
        let ds = build_dataset(40, 0x5EED, &StageMemo::new());
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
