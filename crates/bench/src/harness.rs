//! Method evaluation over benchmark instances.
//!
//! The evaluation logic itself ([`MethodKind`], [`EvalRecord`],
//! [`evaluate_one`]) lives in `uvllm-campaign` and is re-exported here;
//! this module keeps the historical `evaluate` entry point, now running
//! on the campaign engine's worker pool instead of a serial loop.

pub use uvllm_campaign::{evaluate_one, EvalRecord, EvalRow, MethodKind};

use uvllm::BenchInstance;

/// Evaluates `method` on every instance (records in instance order),
/// fanned out over [`worker_count_from_env`] campaign workers.
pub fn evaluate(method: MethodKind, instances: &[BenchInstance]) -> Vec<EvalRecord> {
    uvllm_campaign::evaluate_parallel(method, instances, worker_count_from_env())
}

/// Reads the dataset size from `UVLLM_BENCH_SIZE` (default: the paper's
/// 331; set a smaller value for quick runs).
pub fn dataset_size_from_env() -> usize {
    std::env::var("UVLLM_BENCH_SIZE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(uvllm::dataset::PAPER_DATASET_SIZE)
}

/// Reads the worker count from `UVLLM_WORKERS` (default: one per
/// available CPU) — the campaign engine's sizing policy. A
/// set-but-invalid value panics with a clear message instead of
/// silently falling back to the CPU count
/// (see [`uvllm_campaign::worker_count_from_env`]).
pub fn worker_count_from_env() -> usize {
    uvllm_campaign::default_worker_count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvllm::build_instance;
    use uvllm_designs::{by_name, Category};
    use uvllm_errgen::ErrorKind;

    #[test]
    fn evaluate_one_produces_consistent_record() {
        let d = by_name("adder_8bit").unwrap();
        let inst = build_instance(d, ErrorKind::OperatorMisuse, 5, &uvllm::StageMemo::new())
            .expect("instance");
        let rec = evaluate_one(MethodKind::Uvllm, &inst);
        assert_eq!(rec.design, "adder_8bit");
        assert_eq!(rec.group, Category::Arithmetic);
        assert!(rec.texec > 0.0);
        // Fixed implies hit (FR campaign includes the public vectors).
        if rec.fixed {
            assert!(rec.hit);
        }
        // UVLLM success implies differential equivalence (the strong
        // testbench does not overfit on these simple adders).
        assert!(rec.stage_times.is_some());
    }

    #[test]
    fn methods_are_deterministic() {
        let d = by_name("counter_12").unwrap();
        let inst = build_instance(d, ErrorKind::ValueMisuse, 9, &uvllm::StageMemo::new())
            .expect("instance");
        let a = evaluate_one(MethodKind::Meic, &inst);
        let b = evaluate_one(MethodKind::Meic, &inst);
        assert_eq!(a.fixed, b.fixed);
        assert_eq!(a.hit, b.hit);
        assert_eq!(a.usage.calls, b.usage.calls);
    }

    #[test]
    fn script_methods_report_zero_llm_usage() {
        let d = by_name("alu_8bit").unwrap();
        let inst = build_instance(d, ErrorKind::OperatorMisuse, 2, &uvllm::StageMemo::new())
            .expect("instance");
        let rec = evaluate_one(MethodKind::Strider, &inst);
        assert_eq!(rec.usage.calls, 0);
        let rec = evaluate_one(MethodKind::RtlRepair, &inst);
        assert_eq!(rec.usage.calls, 0);
    }

    #[test]
    fn parallel_evaluate_matches_serial_evaluate_one() {
        let d = by_name("adder_8bit").unwrap();
        let instances: Vec<BenchInstance> = (0..4)
            .filter_map(|s| {
                build_instance(d, ErrorKind::OperatorMisuse, s, &uvllm::StageMemo::new())
            })
            .collect();
        assert!(!instances.is_empty());
        let parallel = evaluate(MethodKind::Uvllm, &instances);
        assert_eq!(parallel.len(), instances.len());
        for (rec, inst) in parallel.iter().zip(&instances) {
            let serial = evaluate_one(MethodKind::Uvllm, inst);
            assert_eq!(rec.instance_id, serial.instance_id);
            assert_eq!(rec.to_row().to_json_line(), serial.to_row().to_json_line());
        }
    }
}
