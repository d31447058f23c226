//! LLM-driven baselines: MEIC-style iterative repair and direct
//! GPT-4-turbo prompting.
//!
//! Both use the *same* underlying model as UVLLM (the harness passes the
//! same calibrated oracle) — what differs is the harness around it:
//! MEIC iterates against a finite directed testbench with raw logs and
//! whole-code regeneration; GPT-direct samples repairs from spec + code
//! alone. The paper's comparison is exactly about this harness gap.

use crate::method::{MethodOutcome, RepairMethod};
use uvllm::metrics::hit_confirmed;
use uvllm::stages::{directed_stage, UvmOutcome};
use uvllm::StageMemo;
use uvllm_designs::Design;
use uvllm_llm::{
    drive, AgentRole, CompleteResponse, Completion, ErrorInfo, LlmError, LlmService, OutputMode,
    RepairPrompt, Step, Usage,
};
use uvllm_sim::SimBackend;
use uvllm_uvm::tail_lines;

/// MEIC's iteration budget (a dual-agent loop of ~10 rounds).
const MEIC_ITERATIONS: usize = 10;
/// GPT-direct's samples per instance (the paper asks the model 5 times).
const GPT_SAMPLES: usize = 5;

/// MEIC-style baseline: iterate LLM whole-code repairs against the
/// finite public testbench, feeding raw logs back, until the tests pass
/// or the iteration budget is spent ([`MeicRun`]).
pub struct MeicRepair<'m> {
    llm: &'m mut dyn LlmService,
}

impl<'m> MeicRepair<'m> {
    /// Wraps an LLM service handle (see [`uvllm_llm::DirectService`]
    /// for adapting a bare model).
    pub fn new(llm: &'m mut dyn LlmService) -> Self {
        MeicRepair { llm }
    }

    /// Benchmark compatibility; goes with the next `benchmark` PR.
    #[doc(hidden)]
    pub fn with_backend(self, _backend: SimBackend) -> Self {
        self
    }
}

impl RepairMethod for MeicRepair<'_> {
    fn name(&self) -> &str {
        "MEIC"
    }

    fn repair(&mut self, design: &Design, src: &str) -> MethodOutcome {
        let mut run = MeicRun::new(design, src);
        answered(self.llm, |memo, reply| run.step(memo, reply))
    }
}

/// Runs a baseline's step function on a memo of its own, answering its
/// prompts through `llm`, blocking.
fn answered(
    llm: &mut dyn LlmService,
    mut step: impl FnMut(&StageMemo, Option<Result<Completion, LlmError>>) -> Step<MethodOutcome>,
) -> MethodOutcome {
    let memo = StageMemo::new();
    let mut outcome = drive(|prompt| llm.complete(prompt), |reply| step(&memo, reply));
    outcome.usage = llm.usage();
    outcome
}

/// One [`MeicRepair`] run as resumable state: each step runs the weak
/// acceptance test and returns the next whole-code repair prompt, until
/// the tests pass or the budget is spent. The outcome's `usage` is
/// zero: the caller owns the service.
#[derive(Debug)]
pub struct MeicRun<'d> {
    design: &'d Design,
    code: String,
    /// The last acceptance test and the code it ran on: an answer that
    /// leaves the code as it was (unparsable, empty or identical) is
    /// not tested again.
    tested: Option<(String, Acceptance)>,
    iterations: usize,
}

/// What MEIC's acceptance test ([`directed_stage`]) said of a candidate.
#[derive(Debug)]
enum Acceptance {
    Passed,
    /// The last lines of the failing run's log.
    Failed(String),
    /// Why the candidate did not build.
    BuildFailed(String),
}

impl<'d> MeicRun<'d> {
    /// A run on `src`, not yet started.
    pub fn new(design: &'d Design, src: &str) -> Self {
        MeicRun { design, code: src.to_string(), tested: None, iterations: 0 }
    }

    /// Runs until the LLM must answer a repair prompt or the run ends;
    /// `reply` answers the prompt the previous call asked for.
    pub fn step(
        &mut self,
        memo: &StageMemo,
        reply: Option<Result<Completion, LlmError>>,
    ) -> Step<MethodOutcome> {
        let design = self.design;
        match reply {
            None => {}
            Some(Err(_)) => return Step::Done(self.finish(self.passes(memo))),
            Some(Ok(completion)) => {
                if let Ok(resp) = CompleteResponse::parse(&completion.content) {
                    if !resp.code.trim().is_empty() {
                        self.code = resp.code;
                    }
                }
            }
        }
        if self.iterations == MEIC_ITERATIONS {
            // Budget exhausted: report the last candidate, claimed
            // state from a final check.
            return Step::Done(self.finish(self.passes(memo)));
        }
        self.iterations += 1;
        // Run the method's own (weak) acceptance test; its log's last
        // lines are the feedback.
        let acceptance = match self.tested.take() {
            Some((code, acceptance)) if code == self.code => acceptance,
            _ => match directed_stage(&self.code, design, memo) {
                UvmOutcome::Ran(run) if run.all_passed() => Acceptance::Passed,
                UvmOutcome::Ran(run) => Acceptance::Failed(run.log.render_tail(15)),
                UvmOutcome::BuildFailed(msg) => Acceptance::BuildFailed(msg),
            },
        };
        let log_tail = match &acceptance {
            // NOTE: if the weak tests never trip over the bug, MEIC
            // exits here *without any repair* — the escape the paper
            // measured at ~10%.
            Acceptance::Passed => return Step::Done(self.finish(true)),
            Acceptance::Failed(tail) => tail.clone(),
            Acceptance::BuildFailed(msg) => {
                // Compiler output, minimally processed.
                let lint = memo.lint(design.name, &self.code);
                let log = if lint.diagnostics.is_empty() {
                    format!("%Error: dut.v:1:1: {msg}")
                } else {
                    lint.render(&self.code)
                };
                tail_lines(&log, 15)
            }
        };
        self.tested = Some((self.code.clone(), acceptance));
        Step::NeedLlm(
            RepairPrompt::new(AgentRole::WholeCodeReviewer, design.spec, &self.code)
                .with_error_info(ErrorInfo::RawLog(log_tail))
                .with_output_mode(OutputMode::Complete),
        )
    }

    fn passes(&self, memo: &StageMemo) -> bool {
        hit_confirmed(self.design, &self.code, memo)
    }

    fn finish(&mut self, claimed: bool) -> MethodOutcome {
        outcome(&mut self.code, claimed, self.iterations)
    }
}

/// Plain GPT-4-turbo baseline: up to five independent whole-code
/// repairs from specification + code only (pass@k style); the first
/// candidate that passes the public tests is kept ([`GptDirectRun`]).
pub struct GptDirect<'m> {
    llm: &'m mut dyn LlmService,
}

impl<'m> GptDirect<'m> {
    /// Wraps an LLM service handle (see [`uvllm_llm::DirectService`]
    /// for adapting a bare model).
    pub fn new(llm: &'m mut dyn LlmService) -> Self {
        GptDirect { llm }
    }

    /// Benchmark compatibility; goes with the next `benchmark` PR.
    #[doc(hidden)]
    pub fn with_backend(self, _backend: SimBackend) -> Self {
        self
    }
}

impl RepairMethod for GptDirect<'_> {
    fn name(&self) -> &str {
        "GPT-4-turbo"
    }

    fn repair(&mut self, design: &Design, src: &str) -> MethodOutcome {
        let mut run = GptDirectRun::new(design, src);
        answered(self.llm, |memo, reply| run.step(memo, reply))
    }
}

/// One [`GptDirect`] run as resumable state: each step judges the last
/// sample and asks for the next, until one passes the public tests or
/// the samples are spent. The outcome's `usage` is zero: the caller
/// owns the service.
#[derive(Debug)]
pub struct GptDirectRun<'d> {
    design: &'d Design,
    prompt: RepairPrompt,
    /// The last sample that parsed (the mutant until one does).
    best: String,
    iterations: usize,
}

impl<'d> GptDirectRun<'d> {
    /// A run sampling repairs of `src`, not yet started.
    pub fn new(design: &'d Design, src: &str) -> Self {
        let prompt = RepairPrompt::new(AgentRole::WholeCodeReviewer, design.spec, src)
            .with_output_mode(OutputMode::Complete);
        GptDirectRun { design, prompt, best: src.to_string(), iterations: 0 }
    }

    /// Judges the sample `reply` answers, then asks for the next one
    /// unless the run ends.
    pub fn step(
        &mut self,
        memo: &StageMemo,
        reply: Option<Result<Completion, LlmError>>,
    ) -> Step<MethodOutcome> {
        let claimed = match reply {
            None => false,
            Some(Err(_)) => return Step::Done(self.finish(false)),
            Some(Ok(completion)) => match CompleteResponse::parse(&completion.content) {
                Ok(resp) if !resp.code.trim().is_empty() => {
                    self.best = resp.code;
                    hit_confirmed(self.design, &self.best, memo)
                }
                _ => false,
            },
        };
        if claimed || self.iterations == GPT_SAMPLES {
            return Step::Done(self.finish(claimed));
        }
        self.iterations += 1;
        Step::NeedLlm(self.prompt.clone())
    }

    fn finish(&mut self, claimed: bool) -> MethodOutcome {
        outcome(&mut self.best, claimed, self.iterations)
    }
}

/// A step function's outcome, settled on `code`; its `usage` is zero,
/// the caller owns the service.
fn outcome(code: &mut String, claimed: bool, iterations: usize) -> MethodOutcome {
    let final_code = std::mem::take(code);
    MethodOutcome { final_code, claimed_success: claimed, iterations, usage: Usage::default() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvllm_designs::by_name;
    use uvllm_errgen::{mutate, ErrorKind};
    use uvllm_llm::{DirectService, ModelProfile, OracleLlm};

    #[test]
    fn meic_escapes_when_weak_tests_miss_the_bug() {
        // Carry-chain bug invisible to the weak vectors: MEIC "succeeds"
        // without calling the LLM at all.
        let d = by_name("adder_8bit").unwrap();
        let buggy = d.source.replace(
            "assign {cout, sum} = a + b + {7'd0, cin};",
            "assign sum = a + b + {7'd0, cin};\nassign cout = 1'b0;",
        );
        let mut oracle = DirectService::new(uvllm_llm::ScriptedLlm::new([]));
        let mut meic = MeicRepair::new(&mut oracle);
        let out = meic.repair(d, &buggy);
        assert!(out.claimed_success);
        assert_eq!(out.usage.calls, 0, "no repair was ever attempted");
        assert_eq!(out.final_code, buggy);
        // Externally: HR hits, FR does not — the paper's headline gap.
        let memo = StageMemo::new();
        assert!(uvllm::metrics::hit_confirmed(d, &out.final_code, &memo));
        assert!(!uvllm::metrics::fix_confirmed(d, &out.final_code, &memo));
    }

    #[test]
    fn meic_repairs_visible_bugs_sometimes() {
        let d = by_name("alu_8bit").unwrap();
        let memo = StageMemo::new();
        let mut repaired = 0;
        for seed in 0..8 {
            let Ok(m) = mutate(d.source, ErrorKind::OperatorMisuse, seed) else { continue };
            if !uvllm::metrics::mutant_is_detectable(d, &m.mutated_src, &memo) {
                continue;
            }
            let mut oracle = DirectService::new(OracleLlm::new(
                m.ground_truth.clone(),
                d.source,
                ModelProfile::Gpt4TurboWeakHarness,
                seed,
            ));
            let mut meic = MeicRepair::new(&mut oracle);
            let out = meic.repair(d, &m.mutated_src);
            if out.claimed_success && uvllm::metrics::fix_confirmed(d, &out.final_code, &memo) {
                repaired += 1;
            }
        }
        assert!(repaired >= 1, "MEIC should repair at least one instance");
    }

    #[test]
    fn gpt_direct_tracks_usage_and_samples() {
        let d = by_name("alu_8bit").unwrap();
        let m = mutate(d.source, ErrorKind::OperatorMisuse, 3).unwrap();
        let mut oracle = DirectService::new(OracleLlm::new(
            m.ground_truth.clone(),
            d.source,
            ModelProfile::Gpt4Turbo,
            3,
        ));
        let mut gpt = GptDirect::new(&mut oracle);
        let out = gpt.repair(d, &m.mutated_src);
        assert!(out.iterations >= 1 && out.iterations <= 5);
        assert!(out.usage.calls >= 1);
    }
}
