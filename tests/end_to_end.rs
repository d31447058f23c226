//! End-to-end integration tests spanning the whole crate stack:
//! error injection → lint → UVM testbench → localization → repair →
//! rollback → differential validation.

use uvllm::{Stage, Uvllm, VerifyConfig};
use uvllm_errgen::{mutate, ErrorKind};
use uvllm_llm::{ModelProfile, OracleLlm};

/// A syntax error travels the whole pipeline: the linter flags it, the
/// pre-processing agent repairs it, the UVM testbench then passes, and
/// the differential campaign confirms equivalence.
#[test]
fn syntax_error_full_journey() {
    let design = uvllm_designs::by_name("counter_12").expect("design");
    let mut journeys = 0;
    for seed in 0..12 {
        let Ok(broken) = mutate(design.source, ErrorKind::MissingSemicolon, seed) else {
            continue;
        };
        // Sanity: the error is real.
        assert!(uvllm_verilog::parse(&broken.mutated_src).is_err());
        assert!(!uvllm_lint::lint(&broken.mutated_src).errors().is_empty());

        let mut llm = OracleLlm::new(
            broken.ground_truth.clone(),
            design.source,
            ModelProfile::Gpt4Turbo,
            seed,
        );
        let mut framework = Uvllm::new(&mut llm, VerifyConfig::default());
        let outcome = framework.verify(design, &broken.mutated_src);
        if outcome.success {
            journeys += 1;
            assert!(uvllm::metrics::fix_confirmed(
                design,
                &outcome.final_code,
                &uvllm::StageMemo::new()
            ));
            assert!(uvllm_lint::lint(&outcome.final_code).errors().is_empty());
        }
    }
    assert!(journeys >= 8, "only {journeys}/12 syntax errors repaired end-to-end");
}

/// A functional error exercises the UVM + localization + repair path and
/// the result is independently confirmed.
#[test]
fn functional_error_full_journey() {
    let design = uvllm_designs::by_name("alu_8bit").expect("design");
    let mut confirmed = 0;
    let mut attempted = 0;
    for seed in 0..12 {
        let Some(inst) = uvllm::build_instance(
            design,
            ErrorKind::OperatorMisuse,
            seed,
            &uvllm::StageMemo::new(),
        ) else {
            continue;
        };
        attempted += 1;
        let mut llm =
            OracleLlm::new(inst.ground_truth.clone(), design.source, ModelProfile::Gpt4Turbo, seed);
        let mut framework = Uvllm::new(&mut llm, VerifyConfig::default());
        let outcome = framework.verify(design, &inst.mutated_src);
        if outcome.success {
            // UVLLM's acceptance is its own strong testbench; confirm
            // against the extended campaign like the paper's experts.
            if uvllm::metrics::fix_confirmed(design, &outcome.final_code, &uvllm::StageMemo::new())
            {
                confirmed += 1;
            }
            assert!(matches!(
                outcome.fixed_by,
                Some(Stage::RepairMs) | Some(Stage::RepairSl) | Some(Stage::Preprocess)
            ));
        }
    }
    assert!(attempted >= 6, "mutation should apply to the ALU");
    assert!(confirmed >= attempted / 2, "only {confirmed}/{attempted} confirmed");
}

/// Declaration-type errors (Table I, `output reg` → `output`) are caught
/// by the linter as real compile errors and routed through
/// pre-processing — the paper's explanation for why pre-processing fixes
/// a chunk of *functional* instances (Table II).
#[test]
fn decl_type_errors_route_through_preprocessing() {
    let design = uvllm_designs::by_name("updown_counter_8").expect("design");
    let broken = mutate(design.source, ErrorKind::DeclTypeMisuse, 1).expect("mutation");
    // It parses but the linter and elaborator both reject it.
    assert!(uvllm_verilog::parse(&broken.mutated_src).is_ok());
    let report = uvllm_lint::lint(&broken.mutated_src);
    assert!(
        report.errors().iter().any(|d| d.code == uvllm_lint::LintCode::ProcWire),
        "linter must flag the procedural write to a wire"
    );

    let mut fixed_by_pre = 0;
    for seed in 0..10 {
        let mut llm = OracleLlm::new(
            broken.ground_truth.clone(),
            design.source,
            ModelProfile::Gpt4Turbo,
            seed,
        );
        let mut framework = Uvllm::new(&mut llm, VerifyConfig::default());
        let outcome = framework.verify(design, &broken.mutated_src);
        if outcome.success && outcome.fixed_by == Some(Stage::Preprocess) {
            fixed_by_pre += 1;
        }
    }
    assert!(fixed_by_pre >= 4, "preprocessing fixed only {fixed_by_pre}/10");
}

/// The scripted warning templates repair timing-related issues without
/// any LLM call at all (Algorithm 1's Replace step).
#[test]
fn scripted_fixes_need_no_llm() {
    let src = "module m(input clk, input d, output reg q, output reg y, input a, input b);\n\
               always @(posedge clk) q = d;\n\
               always @(*) y <= a & b;\nendmodule\n";
    let mut llm = uvllm_llm::DirectService::new(uvllm_llm::ScriptedLlm::new([]));
    let (fixed, stats) = uvllm::preprocess(src, "spec", &mut llm, uvllm_llm::OutputMode::Pairs, 4);
    assert!(stats.clean);
    assert_eq!(stats.llm_calls, 0);
    assert_eq!(stats.script_fixes, 2);
    assert!(fixed.contains("q <= d;"));
    assert!(fixed.contains("y = a & b;"));
}

/// Hallucinated patches that damage a working area of the design are
/// detected by the score register and rolled back, and the rejected pair
/// is carried forward as a damage repair.
#[test]
fn damage_is_rolled_back_and_remembered() {
    let design = uvllm_designs::by_name("counter_12").expect("design");
    let buggy = design.source.replace("== 4'd11", "== 4'd13");
    let damage = uvllm_llm::RepairResponse {
        module_name: "counter_12".into(),
        analysis: "wrong".into(),
        correct: vec![uvllm_llm::RepairPair {
            original: "q <= q + 4'd1;".into(),
            patched: "q <= q + 4'd3;".into(),
        }],
    };
    let nothing = uvllm_llm::RepairResponse {
        module_name: "counter_12".into(),
        analysis: "pass".into(),
        correct: vec![],
    };
    let mut llm = uvllm_llm::ScriptedLlm::new(vec![
        damage.to_json(),
        nothing.to_json(),
        nothing.to_json(),
        nothing.to_json(),
        nothing.to_json(),
    ]);
    let mut framework = Uvllm::new(&mut llm, VerifyConfig::default());
    let outcome = framework.verify(design, &buggy);
    assert!(!outcome.success);
    assert_eq!(outcome.rollbacks, 1);
    assert_eq!(outcome.damage_repairs, 1);
    assert!(outcome.final_code.contains("q <= q + 4'd1;"), "damage must be reverted");
}

/// Every error kind that applies to a design yields an instance whose
/// injected bug is real (fails validation) and whose ground-truth fix
/// restores equivalence.
#[test]
fn ground_truth_fixes_are_sound() {
    let design = uvllm_designs::by_name("lifo_stack").expect("design");
    for kind in ErrorKind::ALL {
        let Some(inst) = uvllm::build_instance(design, kind, 3, &uvllm::StageMemo::new()) else {
            continue;
        };
        // Applying the ground-truth window pair restores a working file.
        let repaired = inst.mutated_src.replacen(
            &inst.ground_truth.buggy_window,
            &inst.ground_truth.fixed_window,
            1,
        );
        assert!(
            uvllm::metrics::fix_confirmed(design, &repaired, &uvllm::StageMemo::new()),
            "{kind}: ground-truth fix did not restore equivalence"
        );
    }
}
