//! Cross-method integration tests: the evaluation harness produces the
//! paper's qualitative orderings on a small fixed dataset.

use uvllm_bench::harness::{evaluate, MethodKind};
use uvllm_bench::report::{fr, hr};

fn small_dataset() -> uvllm::Dataset {
    uvllm::build_dataset(48, 0x7E57, &uvllm::StageMemo::new(), 1)
}

#[test]
fn uvllm_beats_baselines_on_fix_rate() {
    let ds = small_dataset();
    let uvllm_recs = evaluate(MethodKind::Uvllm, &ds.instances);
    let meic_recs = evaluate(MethodKind::Meic, &ds.instances);
    let gpt_recs = evaluate(MethodKind::GptDirect, &ds.instances);

    let u: Vec<_> = uvllm_recs.iter().collect();
    let m: Vec<_> = meic_recs.iter().collect();
    let g: Vec<_> = gpt_recs.iter().collect();
    assert!(fr(&u) > fr(&m), "UVLLM {:.1} should beat MEIC {:.1}", fr(&u), fr(&m));
    assert!(fr(&u) > fr(&g), "UVLLM {:.1} should beat GPT-direct {:.1}", fr(&u), fr(&g));
}

#[test]
fn overfitting_gap_is_larger_for_weakly_tested_methods() {
    let ds = small_dataset();
    let functional: Vec<_> = ds.functional().into_iter().cloned().collect();
    let uvllm_recs = evaluate(MethodKind::Uvllm, &functional);
    let meic_recs = evaluate(MethodKind::Meic, &functional);

    let u: Vec<_> = uvllm_recs.iter().collect();
    let m: Vec<_> = meic_recs.iter().collect();
    let uvllm_gap = hr(&u) - fr(&u);
    let meic_gap = hr(&m) - fr(&m);
    assert!(
        meic_gap > uvllm_gap,
        "MEIC's HR-FR gap ({meic_gap:.1}pp) should exceed UVLLM's ({uvllm_gap:.1}pp)"
    );
}

#[test]
fn template_methods_only_touch_functional_instances() {
    let ds = small_dataset();
    let syntax: Vec<_> = ds.syntax().into_iter().cloned().collect();
    let strider = evaluate(MethodKind::Strider, &syntax);
    // Strider never claims success on unparseable inputs.
    assert!(strider.iter().all(|r| !r.claimed));
    assert!(strider.iter().all(|r| !r.fixed));
}

#[test]
fn fixed_records_always_hit() {
    // FR is a strict superset of HR's test content, so fixed ⇒ hit for
    // every method — a consistency invariant of the harness itself.
    let ds = uvllm::build_dataset(24, 0xAB, &uvllm::StageMemo::new(), 1);
    for method in [MethodKind::Uvllm, MethodKind::Meic, MethodKind::Strider, MethodKind::RtlRepair]
    {
        for rec in evaluate(method, &ds.instances) {
            if rec.fixed {
                assert!(rec.hit, "{method:?} {}: fixed but not hit", rec.instance_id);
            }
        }
    }
}

#[test]
fn uvllm_claims_match_reality_more_often_than_meic() {
    // UVLLM's claim = strong UVM testbench; MEIC's claim = weak directed
    // tests. False claims (claimed but not fixed) should be rarer for
    // UVLLM — Result 2 of the paper.
    let ds = small_dataset();
    let functional: Vec<_> = ds.functional().into_iter().cloned().collect();
    let count_false =
        |method| evaluate(method, &functional).iter().filter(|r| r.claimed && !r.fixed).count();
    let uvllm_false = count_false(MethodKind::Uvllm);
    let meic_false = count_false(MethodKind::Meic);
    assert!(
        uvllm_false <= meic_false,
        "UVLLM false claims ({uvllm_false}) should not exceed MEIC's ({meic_false})"
    );
}
