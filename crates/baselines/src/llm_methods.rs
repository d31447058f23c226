//! LLM-driven baselines: MEIC-style iterative repair and direct
//! GPT-4-turbo prompting.
//!
//! Both use the *same* underlying model as UVLLM (the harness passes the
//! same calibrated oracle) — what differs is the harness around it:
//! MEIC iterates against a finite directed testbench with raw logs and
//! whole-code regeneration; GPT-direct samples repairs from spec + code
//! alone. The paper's comparison is exactly about this harness gap.

use crate::method::{MethodOutcome, RepairMethod};
use std::time::{Duration, Instant};
use uvllm::stages::{directed_stage, UvmOutcome};
use uvllm::StageMemo;
use uvllm_designs::Design;
use uvllm_llm::{AgentRole, CompleteResponse, ErrorInfo, LlmService, OutputMode, RepairPrompt};
use uvllm_sim::SimBackend;

/// MEIC-style baseline: iterate LLM whole-code repairs against the
/// finite public testbench, feeding raw logs back, until the tests pass
/// or the iteration budget is spent.
pub struct MeicRepair<'m> {
    llm: &'m mut dyn LlmService,
    /// Iteration budget (MEIC uses a dual-agent loop of ~10 rounds).
    pub max_iterations: usize,
    memo: Option<&'m StageMemo>,
}

impl<'m> MeicRepair<'m> {
    /// Wraps an LLM service handle (see [`uvllm_llm::DirectService`]
    /// for adapting a bare model).
    pub fn new(llm: &'m mut dyn LlmService) -> Self {
        MeicRepair { llm, max_iterations: 10, memo: None }
    }

    /// Benchmark compatibility; goes with the next `benchmark` PR.
    #[doc(hidden)]
    pub fn with_backend(self, _backend: SimBackend) -> Self {
        self
    }

    /// Takes lint reports from `memo` (a campaign passes its dataset's)
    /// instead of a memo of this method's own.
    pub fn with_memo(mut self, memo: &'m StageMemo) -> Self {
        self.memo = Some(memo);
        self
    }
}

impl RepairMethod for MeicRepair<'_> {
    fn name(&self) -> &str {
        "MEIC"
    }

    fn repair(&mut self, design: &Design, src: &str) -> MethodOutcome {
        let own_memo;
        let memo = match self.memo {
            Some(memo) => memo,
            None => {
                own_memo = StageMemo::new();
                &own_memo
            }
        };
        let mut code = src.to_string();
        let mut time = Duration::ZERO;
        let mut iterations = 0;
        for _ in 0..self.max_iterations {
            iterations += 1;
            let wall = Instant::now();
            // Run the method's own (weak) acceptance test.
            let log = match directed_stage(&code, design) {
                UvmOutcome::Ran(run) => {
                    if run.all_passed() {
                        // NOTE: if the weak tests never trip over the
                        // bug, MEIC exits here *without any repair* —
                        // the escape the paper measured at ~10%.
                        time += wall.elapsed();
                        return MethodOutcome {
                            final_code: code,
                            claimed_success: true,
                            iterations,
                            time,
                            usage: self.llm.usage(),
                        };
                    }
                    run.log.render()
                }
                UvmOutcome::BuildFailed(msg) => {
                    // Compiler output, minimally processed.
                    let lint = memo.lint(design.name, &code);
                    if lint.diagnostics.is_empty() {
                        format!("%Error: dut.v:1:1: {msg}")
                    } else {
                        lint.render(&code)
                    }
                }
            };
            time += wall.elapsed();
            let prompt = RepairPrompt::new(AgentRole::WholeCodeReviewer, design.spec, &code)
                .with_error_info(ErrorInfo::RawLog(tail(&log, 15)))
                .with_output_mode(OutputMode::Complete);
            let ticket = self.llm.submit(&prompt);
            let Ok(completion) = self.llm.await_completion(ticket) else { break };
            // MEIC's dual-agent design runs a second, scoring model pass
            // over every candidate (comparable prompt, shorter output);
            // account its latency without disturbing the repair draw.
            time += completion.latency + completion.latency.mul_f32(0.8);
            if let Ok(resp) = CompleteResponse::parse(&completion.content) {
                if !resp.code.trim().is_empty() {
                    code = resp.code;
                }
            }
        }
        // Budget exhausted: report the last candidate, claimed state
        // from a final check.
        let wall = Instant::now();
        let claimed = matches!(
            directed_stage(&code, design),
            UvmOutcome::Ran(r) if r.all_passed()
        );
        time += wall.elapsed();
        MethodOutcome {
            final_code: code,
            claimed_success: claimed,
            iterations,
            time,
            usage: self.llm.usage(),
        }
    }
}

/// Plain GPT-4-turbo baseline: up to `samples` independent whole-code
/// repairs from specification + code only (pass@k style); the first
/// candidate that passes the public tests is kept.
pub struct GptDirect<'m> {
    llm: &'m mut dyn LlmService,
    /// Samples per instance (the paper asks the model 5 times).
    pub samples: usize,
}

impl<'m> GptDirect<'m> {
    /// Wraps an LLM service handle (see [`uvllm_llm::DirectService`]
    /// for adapting a bare model).
    pub fn new(llm: &'m mut dyn LlmService) -> Self {
        GptDirect { llm, samples: 5 }
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
        let mut time = Duration::ZERO;
        let mut best = src.to_string();
        let mut iterations = 0;
        for _ in 0..self.samples {
            iterations += 1;
            let prompt = RepairPrompt::new(AgentRole::WholeCodeReviewer, design.spec, src)
                .with_output_mode(OutputMode::Complete);
            let ticket = self.llm.submit(&prompt);
            let Ok(completion) = self.llm.await_completion(ticket) else { break };
            time += completion.latency;
            let Ok(resp) = CompleteResponse::parse(&completion.content) else { continue };
            if resp.code.trim().is_empty() {
                continue;
            }
            let wall = Instant::now();
            let passed = matches!(
                directed_stage(&resp.code, design),
                UvmOutcome::Ran(r) if r.all_passed()
            );
            time += wall.elapsed();
            best = resp.code;
            if passed {
                return MethodOutcome {
                    final_code: best,
                    claimed_success: true,
                    iterations,
                    time,
                    usage: self.llm.usage(),
                };
            }
        }
        MethodOutcome {
            final_code: best,
            claimed_success: false,
            iterations,
            time,
            usage: self.llm.usage(),
        }
    }
}

fn tail(text: &str, n: usize) -> String {
    let lines: Vec<&str> = text.lines().collect();
    let start = lines.len().saturating_sub(n);
    lines[start..].join("\n")
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
        assert!(uvllm::metrics::hit_confirmed(d, &out.final_code));
        assert!(!uvllm::metrics::fix_confirmed(d, &out.final_code));
    }

    #[test]
    fn meic_repairs_visible_bugs_sometimes() {
        let d = by_name("alu_8bit").unwrap();
        let mut repaired = 0;
        for seed in 0..8 {
            let Ok(m) = mutate(d.source, ErrorKind::OperatorMisuse, seed) else { continue };
            if !uvllm::metrics::mutant_is_detectable(d, &m.mutated_src) {
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
            if out.claimed_success && uvllm::metrics::fix_confirmed(d, &out.final_code) {
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
        assert!(out.time > Duration::ZERO);
    }
}
