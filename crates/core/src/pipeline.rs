//! The UVLLM orchestrator: the iterative loop of Fig. 2 with the
//! score-register rollback mechanism.

use crate::memo::StageMemo;
use crate::stages::{preprocess_on, repair};
use std::time::{Duration, Instant};
use uvllm_designs::Design;
use uvllm_llm::{DirectService, LanguageModel, LlmService, OutputMode, RepairPair, Usage};
use uvllm_sim::SimBackend;

/// Which pipeline segment produced the final successful change —
/// Table II's per-stage fix-rate attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Joint LLM-script pre-processing (Algorithm 1).
    Preprocess,
    /// Repair in Mismatch-Signal mode.
    RepairMs,
    /// Repair in Suspicious-Line mode.
    RepairSl,
}

impl Stage {
    /// Display label matching Table II.
    pub fn label(&self) -> &'static str {
        match self {
            Stage::Preprocess => "Pre-processing",
            Stage::RepairMs => "Repair in MS Mode",
            Stage::RepairSl => "Repair in SL Mode",
        }
    }
}

/// Simulated + measured execution time per stage (Table II's `Texec`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimes {
    pub preprocess: Duration,
    pub ms: Duration,
    pub sl: Duration,
    /// Simulation/testbench time (attributed to the stage that follows).
    pub uvm: Duration,
}

impl StageTimes {
    /// Total pipeline time.
    pub fn total(&self) -> Duration {
        self.preprocess + self.ms + self.sl + self.uvm
    }
}

/// Configuration of the verification loop.
#[derive(Debug, Clone)]
pub struct VerifyConfig {
    /// Main loop iteration cap (the paper uses 5).
    pub max_iterations: usize,
    /// Lint-fix iterations inside each pre-processing pass.
    pub preproc_iters: usize,
    /// Main iterations in MS mode before escalating to SL mode (the
    /// segmented information extraction threshold `TH`).
    pub ms_threshold: usize,
    /// Random cycles per UVM run (corner sequences are appended).
    pub uvm_cycles: usize,
    /// Seed for the UVM random sequences.
    pub uvm_seed: u64,
    /// Repair generation form (`Pairs` is UVLLM; `Complete` is the
    /// Table III ablation).
    pub output_mode: OutputMode,
    /// Disable to ablate the score-register rollback mechanism.
    pub rollback_enabled: bool,
    /// Disable to ablate SL-mode escalation (stay in MS mode forever).
    pub sl_enabled: bool,
    /// Benchmark compatibility; goes with the next `benchmark` PR.
    /// Nothing reads it.
    #[doc(hidden)]
    pub backend: SimBackend,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            max_iterations: 5,
            preproc_iters: 3,
            ms_threshold: 2,
            uvm_cycles: 120,
            uvm_seed: 0xBEEF,
            output_mode: OutputMode::Pairs,
            rollback_enabled: true,
            sl_enabled: true,
            backend: SimBackend,
        }
    }
}

/// The result of one verification run.
#[derive(Debug, Clone)]
pub struct VerifyOutcome {
    /// True when the UVM testbench fully passed within the budget.
    pub success: bool,
    /// The final (best) code version.
    pub final_code: String,
    /// Main-loop iterations executed.
    pub iterations: usize,
    /// Stage whose change led to success (None when the input already
    /// passed or the run failed).
    pub fixed_by: Option<Stage>,
    /// Per-stage execution time.
    pub times: StageTimes,
    /// LLM token/cost accounting.
    pub usage: Usage,
    /// Rollbacks triggered by score regressions.
    pub rollbacks: usize,
    /// Damage repairs recorded (pairs fed back as "do not repeat").
    pub damage_repairs: usize,
    /// Scripted warning fixes applied during pre-processing.
    pub script_fixes: usize,
    /// Final scoreboard pass rate.
    pub final_score: f64,
}

/// The UVLLM framework: drives an [`LlmService`] handle and verifies
/// DUTs against their specification using the four-stage loop.
///
/// The framework *owns* its service handle (generic `S`), which makes a
/// whole verification run `Send` — the property the campaign engine
/// relies on to run jobs on worker threads. Every LLM interaction goes
/// through the submit/await ticket protocol, so the same pipeline runs
/// unchanged on an in-process [`DirectService`] or on a session of a
/// shared [`uvllm_llm::BatchedLlm`] (the campaign's batched mode).
///
/// [`Uvllm::new`] keeps the historical model-owning construction:
/// `Uvllm::new(model, config)` wraps the [`LanguageModel`] in a
/// [`DirectService`]; borrowing callers keep working via the
/// `LanguageModel` forwarding impl for `&mut M`.
pub struct Uvllm<S: LlmService> {
    config: VerifyConfig,
    service: S,
}

impl<M: LanguageModel> Uvllm<DirectService<M>> {
    /// Creates a framework instance around a model backend (wrapped in
    /// an unbatched [`DirectService`]).
    pub fn new(llm: M, config: VerifyConfig) -> Self {
        Uvllm::with_service(DirectService::new(llm), config)
    }

    /// The wrapped model.
    pub fn model(&self) -> &M {
        self.service.model()
    }
}

impl<S: LlmService> Uvllm<S> {
    /// Creates a framework instance around an [`LlmService`] handle —
    /// the constructor batched campaigns use to hand every job a
    /// session of the shared service.
    pub fn with_service(service: S, config: VerifyConfig) -> Self {
        Uvllm { config, service }
    }

    /// The wrapped service handle.
    pub fn service(&self) -> &S {
        &self.service
    }

    /// Consumes the framework, returning the service handle (and its
    /// usage/wait accounting).
    pub fn into_service(self) -> S {
        self.service
    }

    /// Runs the full verification loop on `src` for `design`.
    ///
    /// Termination: success (no mismatches) or `max_iterations` reached
    /// (§II of the paper). All history versions are kept in the score
    /// register; the best-scoring version is returned on failure.
    pub fn verify(&mut self, design: &Design, src: &str) -> VerifyOutcome {
        self.verify_on(design, src, &StageMemo::new())
    }

    /// [`Uvllm::verify`] taking what is a pure function of a candidate
    /// text — its lint report, what the UVM stage finds about it — from
    /// `memo`: the loop re-enters its stages with the text it already
    /// had whenever a repair does not apply or a rollback restores the
    /// best version, and other runs on the same memo (the other methods
    /// of an instance start from the same mutant) have met some of its
    /// texts already. The outcome is the one [`Uvllm::verify`] returns,
    /// [`VerifyOutcome::times`] aside: a stage served from the memo
    /// takes no time.
    pub fn verify_on(&mut self, design: &Design, src: &str, memo: &StageMemo) -> VerifyOutcome {
        let cfg = self.config.clone();
        let mut code = src.to_string();
        let mut times = StageTimes::default();
        let mut rollbacks = 0usize;
        let mut script_fixes = 0usize;
        let mut damage: Vec<RepairPair> = Vec::new();
        // Score register: best (score, code) seen so far.
        let mut best: (f64, String) = (-1.0, code.clone());
        let mut last_change: Option<(Stage, Vec<RepairPair>)> = None;
        let mut fixed_by = None;
        let mut final_score = 0.0;
        let mut iterations = 0;

        for iter in 0..cfg.max_iterations {
            iterations = iter + 1;
            // -------- Step 1: pre-processing --------------------------
            let wall = Instant::now();
            let (pre_code, pre_stats) = preprocess_on(
                &code,
                design,
                &mut self.service,
                cfg.output_mode,
                cfg.preproc_iters,
                memo,
            );
            // Stage time = simulated LLM latency + measured substrate time.
            times.preprocess += pre_stats.llm_time + wall.elapsed();
            script_fixes += pre_stats.script_fixes;
            if pre_stats.changed {
                code = pre_code;
                last_change = Some((Stage::Preprocess, Vec::new()));
            }

            // -------- Step 2: UVM processing ---------------------------
            let wall = Instant::now();
            let outcome = memo.uvm_stage(&code, design, cfg.uvm_cycles, cfg.uvm_seed);
            times.uvm += wall.elapsed();
            let score = outcome.score();
            final_score = score;

            if outcome.passed() {
                fixed_by = last_change.as_ref().map(|(s, _)| *s);
                return VerifyOutcome {
                    success: true,
                    final_code: code,
                    iterations,
                    fixed_by,
                    times,
                    usage: self.service.usage(),
                    rollbacks,
                    damage_repairs: damage.len(),
                    script_fixes,
                    final_score: score,
                };
            }

            // -------- Rollback mechanism ------------------------------
            if cfg.rollback_enabled && score < best.0 {
                rollbacks += 1;
                if let Some((_, pairs)) = last_change.take() {
                    damage.extend(pairs);
                }
                code = best.1.clone();
            } else if score >= best.0 {
                best = (score, code.clone());
            }

            // -------- Step 3: post-processing -------------------------
            let sl_mode = cfg.sl_enabled && iter >= cfg.ms_threshold;
            let error_info = outcome.error_info(&code, design, sl_mode);

            // -------- Step 4: repair ----------------------------------
            let wall = Instant::now();
            let attempt = repair(
                &code,
                design.spec,
                &mut self.service,
                error_info,
                &damage,
                cfg.output_mode,
                sl_mode,
            );
            let stage_time = attempt.llm_time + wall.elapsed();
            let stage = if sl_mode { Stage::RepairSl } else { Stage::RepairMs };
            match stage {
                Stage::RepairSl => times.sl += stage_time,
                _ => times.ms += stage_time,
            }
            if attempt.changed {
                code = attempt.code;
                last_change = Some((stage, attempt.applied));
            }
        }

        // Budget exhausted: return the best version from the register.
        if best.0 > final_score {
            code = best.1;
            final_score = best.0;
        }
        VerifyOutcome {
            success: false,
            final_code: code,
            iterations,
            fixed_by,
            times,
            usage: self.service.usage(),
            rollbacks,
            damage_repairs: damage.len(),
            script_fixes,
            final_score,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvllm_designs::by_name;
    use uvllm_errgen::{mutate, ErrorKind};
    use uvllm_llm::{ModelProfile, OracleLlm, ScriptedLlm};

    #[test]
    fn correct_code_passes_immediately() {
        let d = by_name("mux4").unwrap();
        let mut llm = ScriptedLlm::new([]);
        let mut uvllm = Uvllm::new(&mut llm, VerifyConfig::default());
        let out = uvllm.verify(d, d.source);
        assert!(out.success);
        assert_eq!(out.iterations, 1);
        assert!(out.fixed_by.is_none());
        assert_eq!(out.usage.calls, 0);
    }

    #[test]
    fn oracle_repairs_functional_error_eventually() {
        let d = by_name("adder_8bit").unwrap();
        // Find a seed where the whole pipeline converges; with five
        // iterations and per-call p≈0.38 most seeds do.
        let mut succeeded = 0;
        let total = 10;
        for seed in 0..total {
            let Ok(m) = mutate(d.source, ErrorKind::OperatorMisuse, seed) else { continue };
            let mut llm =
                OracleLlm::new(m.ground_truth.clone(), d.source, ModelProfile::Gpt4Turbo, seed);
            let mut uvllm = Uvllm::new(&mut llm, VerifyConfig::default());
            let out = uvllm.verify(d, &m.mutated_src);
            if out.success {
                succeeded += 1;
                // Functional errors are normally fixed in MS/SL mode,
                // but a failure patch can break the syntax first and the
                // pre-processor then completes the repair (the paper's
                // cross-stage compensation).
                assert!(out.fixed_by.is_some());
                // The repaired code must be exactly equivalent.
                assert!(crate::metrics::fix_confirmed(d, &out.final_code, &StageMemo::new()));
            }
        }
        assert!(succeeded >= 5, "only {succeeded}/{total} repaired");
    }

    #[test]
    fn syntax_error_fixed_in_preprocessing() {
        let d = by_name("mux4").unwrap();
        let mut fixed_by_pre = 0;
        for seed in 0..10 {
            let Ok(m) = mutate(d.source, ErrorKind::MissingSemicolon, seed) else { continue };
            let mut llm =
                OracleLlm::new(m.ground_truth.clone(), d.source, ModelProfile::Gpt4Turbo, seed);
            let mut uvllm = Uvllm::new(&mut llm, VerifyConfig::default());
            let out = uvllm.verify(d, &m.mutated_src);
            if out.success && out.fixed_by == Some(Stage::Preprocess) {
                fixed_by_pre += 1;
            }
        }
        assert!(fixed_by_pre >= 3, "preprocessing fixed only {fixed_by_pre}/10");
    }

    #[test]
    fn rollback_keeps_best_version() {
        // A counter whose wrap constant is wrong scores high (only wrap
        // cycles mismatch); a patch that breaks the increment tanks the
        // score and must be rolled back.
        let d = by_name("counter_12").unwrap();
        let buggy = d.source.replace("if (q == 4'd11)", "if (q == 4'd13)");
        assert_ne!(buggy, d.source);
        let damage = uvllm_llm::RepairResponse {
            module_name: "counter_12".into(),
            analysis: "wrong guess".into(),
            correct: vec![uvllm_llm::RepairPair {
                original: "q <= q + 4'd1;".into(),
                patched: "q <= q + 4'd2;".into(),
            }],
        };
        let junk = uvllm_llm::RepairResponse {
            module_name: "counter_12".into(),
            analysis: "nothing".into(),
            correct: vec![uvllm_llm::RepairPair { original: "zzz".into(), patched: "q".into() }],
        };
        let mut llm = ScriptedLlm::new(vec![
            damage.to_json(),
            junk.to_json(),
            junk.to_json(),
            junk.to_json(),
            junk.to_json(),
        ]);
        let mut uvllm = Uvllm::new(&mut llm, VerifyConfig::default());
        let out = uvllm.verify(d, &buggy);
        assert!(!out.success);
        assert!(out.rollbacks >= 1, "damaging patch must trigger a rollback");
        // The final code is the pre-damage version (the original mutant),
        // not the damaged one.
        assert!(out.final_code.contains("q <= q + 4'd1;"));
        assert!(out.final_code.contains("4'd13"));
    }

    #[test]
    fn times_accumulate_per_stage() {
        let d = by_name("adder_8bit").unwrap();
        let m = mutate(d.source, ErrorKind::OperatorMisuse, 2).unwrap();
        let mut llm = OracleLlm::new(m.ground_truth.clone(), d.source, ModelProfile::Gpt4Turbo, 2);
        let mut uvllm = Uvllm::new(&mut llm, VerifyConfig::default());
        let out = uvllm.verify(d, &m.mutated_src);
        assert!(out.times.total() > Duration::ZERO);
        assert!(out.times.ms + out.times.sl > Duration::ZERO);
    }
}
