//! The UVLLM orchestrator: the iterative loop of Fig. 2 with the
//! score-register rollback mechanism.

use crate::memo::StageMemo;
use crate::stages::{apply_repair, repair_prompt, Preprocessing};
use uvllm_designs::Design;
use uvllm_llm::{
    drive, Completion, DirectService, LanguageModel, LlmError, LlmService, OutputMode, RepairPair,
    Step, Usage,
};
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

/// Benchmark compatibility: the type `EvalRecord::stage_times` names,
/// always `None`; goes with the next `benchmark` PR. Texec is the rows'
/// modelled LLM latency (`Usage::latency`); nothing times the stages.
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct StageTimes;

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

/// The result of one verification run. It holds no time: Texec is
/// `usage.latency`, the modelled LLM latency.
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
    /// LLM token/cost accounting (zero from [`Verification::step`]: the
    /// caller owns the service).
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

/// The UVLLM framework: verifies DUTs against their specification with
/// the four-stage loop ([`Verification`]), asking its model in-process
/// (a [`DirectService`]) for every prompt the loop needs. Borrowing
/// callers pass `&mut M` (the `LanguageModel` forwarding impl).
pub struct Uvllm<M: LanguageModel> {
    config: VerifyConfig,
    service: DirectService<M>,
}

impl<M: LanguageModel> Uvllm<M> {
    /// Creates a framework instance around a model backend.
    pub fn new(llm: M, config: VerifyConfig) -> Self {
        Uvllm { config, service: DirectService::new(llm) }
    }

    /// The wrapped model.
    pub fn model(&self) -> &M {
        self.service.model()
    }

    /// Runs the full verification loop on `src` for `design`.
    ///
    /// Termination: success (no mismatches) or `max_iterations` reached
    /// (§II of the paper). All history versions are kept in the score
    /// register; the best-scoring version is returned on failure.
    pub fn verify(&mut self, design: &Design, src: &str) -> VerifyOutcome {
        let memo = StageMemo::new();
        let mut run = Verification::new(design, src, self.config.clone());
        let mut outcome =
            drive(|prompt| self.service.complete(prompt), |reply| run.step(&memo, reply));
        outcome.usage = self.service.usage();
        outcome
    }
}

/// One run of the loop of Fig. 2 as resumable state: the code, the score
/// register, the damage list and the stage counters. Each
/// [`Verification::step`] runs stages until the LLM must answer a prompt
/// and returns it; the run holds no thread while it waits.
#[derive(Debug)]
pub struct Verification<'d> {
    design: &'d Design,
    config: VerifyConfig,
    code: String,
    /// Main-loop iterations begun.
    iterations: usize,
    phase: Phase,
    rollbacks: usize,
    script_fixes: usize,
    damage: Vec<RepairPair>,
    /// Score register: best (score, code) seen so far.
    best: (f64, String),
    last_change: Option<(Stage, Vec<RepairPair>)>,
    final_score: f64,
}

/// Where a [`Verification`] resumes.
#[derive(Debug)]
enum Phase {
    /// At the top of the main loop.
    Iterate,
    /// Step 1, pre-processing.
    Preprocess(Preprocessing<'static>),
    /// Step 4, waiting for the repair agent (in SL mode or not).
    Repair { sl_mode: bool },
}

impl<'d> Verification<'d> {
    /// A run of `config`'s loop on `src` for `design`, not yet started.
    pub fn new(design: &'d Design, src: &str, config: VerifyConfig) -> Self {
        Verification {
            design,
            config,
            code: src.to_string(),
            iterations: 0,
            phase: Phase::Iterate,
            rollbacks: 0,
            script_fixes: 0,
            damage: Vec::new(),
            best: (-1.0, src.to_string()),
            last_change: None,
            final_score: 0.0,
        }
    }

    /// Runs the loop until the LLM must answer a prompt or the run ends;
    /// `reply` answers the prompt the previous call asked for.
    ///
    /// What is a pure function of a candidate text — its lint report,
    /// what the UVM stage finds about it — comes from `memo`: the loop
    /// re-enters its stages with the text it already had whenever a
    /// repair does not apply or a rollback restores the best version,
    /// and other runs on the same memo (the other methods of an
    /// instance start from the same mutant) have met some of its texts
    /// already.
    pub fn step(
        &mut self,
        memo: &StageMemo,
        mut reply: Option<Result<Completion, LlmError>>,
    ) -> Step<VerifyOutcome> {
        let design = self.design;
        loop {
            match &mut self.phase {
                Phase::Iterate => {
                    if self.iterations == self.config.max_iterations {
                        return Step::Done(self.outcome(false));
                    }
                    self.iterations += 1;
                    self.phase = Phase::Preprocess(Preprocessing::new(
                        &self.code,
                        design.spec,
                        self.config.output_mode,
                        self.config.preproc_iters,
                    ));
                }
                Phase::Preprocess(stage) => {
                    // -------- Step 1: pre-processing ------------------
                    let step = stage.step(reply.take(), &|code| memo.lint(design.name, code));
                    let (pre_code, pre_stats) = match step {
                        Step::NeedLlm(prompt) => return Step::NeedLlm(prompt),
                        Step::Done(done) => done,
                    };
                    self.script_fixes += pre_stats.script_fixes;
                    if pre_stats.changed {
                        self.code = pre_code;
                        self.last_change = Some((Stage::Preprocess, Vec::new()));
                    }

                    // -------- Step 2: UVM processing ------------------
                    let cfg = &self.config;
                    let outcome = memo.uvm_stage(&self.code, design, cfg.uvm_cycles, cfg.uvm_seed);
                    let score = outcome.score();
                    self.final_score = score;
                    if outcome.passed() {
                        return Step::Done(self.outcome(true));
                    }

                    // -------- Rollback mechanism ----------------------
                    if cfg.rollback_enabled && score < self.best.0 {
                        self.rollbacks += 1;
                        if let Some((_, pairs)) = self.last_change.take() {
                            self.damage.extend(pairs);
                        }
                        self.code = self.best.1.clone();
                    } else if score >= self.best.0 {
                        self.best = (score, self.code.clone());
                    }

                    // -------- Step 3: post-processing -----------------
                    let sl_mode = cfg.sl_enabled && self.iterations > cfg.ms_threshold;
                    let error_info = outcome.error_info(&self.code, design, sl_mode, memo);

                    // -------- Step 4: repair --------------------------
                    let prompt = repair_prompt(
                        &self.code,
                        design.spec,
                        error_info,
                        &self.damage,
                        cfg.output_mode,
                        sl_mode,
                    );
                    self.phase = Phase::Repair { sl_mode };
                    return Step::NeedLlm(prompt);
                }
                Phase::Repair { sl_mode } => {
                    let stage = if *sl_mode { Stage::RepairSl } else { Stage::RepairMs };
                    let answer = reply.take().expect("a repair step is called with its answer");
                    let attempt = apply_repair(&self.code, answer, self.config.output_mode);
                    if attempt.changed {
                        self.code = attempt.code;
                        self.last_change = Some((stage, attempt.applied));
                    }
                    self.phase = Phase::Iterate;
                }
            }
        }
    }

    fn outcome(&mut self, success: bool) -> VerifyOutcome {
        let fixed_by = if success {
            self.last_change.as_ref().map(|(stage, _)| *stage)
        } else {
            // Budget exhausted: the best version from the register.
            if self.best.0 > self.final_score {
                self.code = std::mem::take(&mut self.best.1);
                self.final_score = self.best.0;
            }
            None
        };
        VerifyOutcome {
            success,
            final_code: std::mem::take(&mut self.code),
            iterations: self.iterations,
            fixed_by,
            usage: Usage::default(),
            rollbacks: self.rollbacks,
            damage_repairs: self.damage.len(),
            script_fixes: self.script_fixes,
            final_score: self.final_score,
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
}
