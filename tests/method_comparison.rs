//! Cross-method integration tests: a campaign's rows show the paper's
//! qualitative orderings on a small fixed dataset.

use uvllm_campaign::report::percent;
use uvllm_campaign::{Campaign, CampaignConfig, EvalRow, MemorySink, MethodKind};

/// The rows of a campaign of `methods` over the `size`-instance
/// dataset of `seed`.
fn campaign(size: usize, seed: u64, methods: &[MethodKind]) -> Vec<EvalRow> {
    let config = CampaignConfig {
        dataset_size: size,
        dataset_seed: seed,
        methods: methods.to_vec(),
        workers: 2,
        ..CampaignConfig::default()
    };
    let mut sink = MemorySink::new();
    Campaign::new(config).unwrap().run(&mut sink).unwrap();
    sink.rows().to_vec()
}

fn small_campaign(methods: &[MethodKind]) -> Vec<EvalRow> {
    campaign(48, 0x7E57, methods)
}

/// Fix rate (%) over the `rows` that match `filter`.
fn fr(rows: &[EvalRow], filter: impl Fn(&EvalRow) -> bool) -> f64 {
    let matching: Vec<&EvalRow> = rows.iter().filter(|r| filter(r)).collect();
    percent(matching.iter().filter(|r| r.fixed).count(), matching.len())
}

/// Hit rate (%) over the `rows` that match `filter`.
fn hr(rows: &[EvalRow], filter: impl Fn(&EvalRow) -> bool) -> f64 {
    let matching: Vec<&EvalRow> = rows.iter().filter(|r| filter(r)).collect();
    percent(matching.iter().filter(|r| r.hit).count(), matching.len())
}

/// Rows of `method` on functional instances.
fn functional(method: MethodKind) -> impl Fn(&EvalRow) -> bool {
    move |r| r.method == method.label() && !r.syntax
}

#[test]
fn uvllm_beats_baselines_on_fix_rate() {
    let rows = small_campaign(&[MethodKind::Uvllm, MethodKind::Meic, MethodKind::GptDirect]);
    let fr = |method: MethodKind| fr(&rows, |r| r.method == method.label());
    let (u, m, g) = (fr(MethodKind::Uvllm), fr(MethodKind::Meic), fr(MethodKind::GptDirect));
    assert!(u > m, "UVLLM {u:.1} should beat MEIC {m:.1}");
    assert!(u > g, "UVLLM {u:.1} should beat GPT-direct {g:.1}");
}

#[test]
fn overfitting_gap_is_larger_for_weakly_tested_methods() {
    let rows = small_campaign(&[MethodKind::Uvllm, MethodKind::Meic]);
    let gap = |method| hr(&rows, functional(method)) - fr(&rows, functional(method));
    let (uvllm_gap, meic_gap) = (gap(MethodKind::Uvllm), gap(MethodKind::Meic));
    assert!(
        meic_gap > uvllm_gap,
        "MEIC's HR-FR gap ({meic_gap:.1}pp) should exceed UVLLM's ({uvllm_gap:.1}pp)"
    );
}

#[test]
fn template_methods_only_touch_functional_instances() {
    let rows = small_campaign(&[MethodKind::Strider]);
    let syntax: Vec<&EvalRow> = rows.iter().filter(|r| r.syntax).collect();
    // Strider never claims success on unparseable inputs.
    assert!(syntax.iter().all(|r| !r.claimed));
    assert!(syntax.iter().all(|r| !r.fixed));
}

#[test]
fn fixed_records_always_hit() {
    // FR is a strict superset of HR's test content, so fixed ⇒ hit for
    // every method — a consistency invariant of the evaluation itself.
    let methods = [MethodKind::Uvllm, MethodKind::Meic, MethodKind::Strider, MethodKind::RtlRepair];
    for row in campaign(24, 0xAB, &methods) {
        if row.fixed {
            assert!(row.hit, "{}: fixed but not hit", row.id);
        }
    }
}

#[test]
fn uvllm_claims_match_reality_more_often_than_meic() {
    // UVLLM's claim = strong UVM testbench; MEIC's claim = weak directed
    // tests. False claims (claimed but not fixed) should be rarer for
    // UVLLM — Result 2 of the paper.
    let rows = small_campaign(&[MethodKind::Uvllm, MethodKind::Meic]);
    let count_false =
        |method| rows.iter().filter(|r| functional(method)(r) && r.claimed && !r.fixed).count();
    let uvllm_false = count_false(MethodKind::Uvllm);
    let meic_false = count_false(MethodKind::Meic);
    assert!(
        uvllm_false <= meic_false,
        "UVLLM false claims ({uvllm_false}) should not exceed MEIC's ({meic_false})"
    );
}
