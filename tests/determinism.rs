//! Whole-stack determinism: identical seeds reproduce identical
//! datasets, repairs and evaluation records — the property that makes
//! every campaign replayable bit-for-bit (README, "Running a campaign").

use uvllm_campaign::{evaluate_one, MethodKind};

#[test]
fn dataset_builds_identically() {
    let a = uvllm::build_dataset(30, 0x1234, &uvllm::StageMemo::new(), 1);
    let b = uvllm::build_dataset(30, 0x1234, &uvllm::StageMemo::new(), 1);
    assert_eq!(a.instances.len(), b.instances.len());
    for (x, y) in a.instances.iter().zip(&b.instances) {
        assert_eq!(x.id(), y.id());
        assert_eq!(x.mutated_src, y.mutated_src);
        assert_eq!(x.ground_truth, y.ground_truth);
    }
    let c = uvllm::build_dataset(30, 0x9999, &uvllm::StageMemo::new(), 1);
    let ids_a: Vec<_> = a.instances.iter().map(|i| i.id()).collect();
    let ids_c: Vec<_> = c.instances.iter().map(|i| i.id()).collect();
    assert_ne!(ids_a, ids_c, "different seeds should differ");
}

#[test]
fn full_evaluation_is_reproducible() {
    let ds = uvllm::build_dataset(8, 0x42, &uvllm::StageMemo::new(), 1);
    for method in [MethodKind::Uvllm, MethodKind::Meic, MethodKind::GptDirect] {
        for inst in &ds.instances {
            let a = evaluate_one(method, inst);
            let b = evaluate_one(method, inst);
            assert_eq!(a.fixed, b.fixed, "{method:?} {}", inst.id());
            assert_eq!(a.hit, b.hit);
            assert_eq!(a.claimed, b.claimed);
            assert_eq!(a.usage.prompt_tokens, b.usage.prompt_tokens);
            assert_eq!(a.fixed_by, b.fixed_by);
        }
    }
}

#[test]
fn methods_draw_independent_randomness() {
    // The same instance evaluated by different LLM methods must not
    // share oracle draws (salted seeds), yet each stays deterministic.
    let ds = uvllm::build_dataset(6, 0x77, &uvllm::StageMemo::new(), 1);
    for inst in &ds.instances {
        let u = evaluate_one(MethodKind::Uvllm, inst);
        let m = evaluate_one(MethodKind::Meic, inst);
        // Not an equality assertion on outcomes (they may coincide);
        // only UVLLM attributes a fix to a stage, and only a claimed one.
        assert!(u.fixed_by.is_none() || u.claimed);
        assert!(m.fixed_by.is_none());
    }
}
