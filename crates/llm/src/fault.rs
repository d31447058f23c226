//! Deterministic, seeded fault injection at the LLM boundary.
//!
//! A [`FaultPlan`] is plain data a session of the service loop
//! ([`crate::BatchedLlm::session`]) is opened with. The loop draws a
//! prompt's fault from the session's `FaultStream` when it sends the
//! prompt — exactly two draws, whichever fault fires, so a seed replays
//! the same schedule on any run and worker count — and applies it to
//! that prompt's answer on delivery. A faulted prompt never reaches the
//! model (no call, no RNG draw, no usage), so a retry gets exactly the
//! answer a fault-free run got: faults + retries ⇒ byte-identical rows.
//! A latency stall is the exception: the prompt reaches the model and
//! only its answer lands later, which moves timelines, never rows.

use crate::model::{count_tokens, Completion, LlmError};
use crate::prompt::RepairPrompt;
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::time::Duration;
use uvllm_obs::registry;

/// A seeded fault schedule: what a session injects, and how often.
///
/// The two rates are probabilities per sent prompt, resolved in the
/// order error → malformed from one uniform draw (so the two exclude
/// each other). A non-zero [`FaultPlan::latency`] stalls every answer.
/// All zeros (the default) injects nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Root seed of the fault stream. Campaign wiring derives a per-job
    /// seed from this (see [`FaultPlan::derive`]) so every job replays
    /// its own schedule regardless of worker count.
    pub seed: u64,
    /// Probability of a transient error ([`LlmError::Transient`])
    /// replacing the answer.
    pub error_rate: f64,
    /// Probability of a fabricated *malformed* completion (prose where
    /// the agents expect structured JSON) replacing the answer.
    pub malform_rate: f64,
    /// How late every answer lands (zero: on time).
    pub latency: Duration,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan { seed: 0xFA17, error_rate: 0.0, malform_rate: 0.0, latency: Duration::ZERO }
    }
}

impl FaultPlan {
    /// The same plan with its seed mixed with `salt` — how the campaign
    /// gives every job an independent, reproducible fault stream from
    /// one `--fault-seed`.
    pub fn derive(&self, salt: u64) -> FaultPlan {
        FaultPlan { seed: self.seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F), ..self.clone() }
    }
}

/// A session's seeded fault decisions, one per sent prompt.
#[derive(Debug)]
pub(crate) struct FaultStream {
    plan: FaultPlan,
    rng: StdRng,
}

impl FaultStream {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        FaultStream { rng: StdRng::seed_from_u64(plan.seed), plan }
    }

    /// Draws one sent prompt's fault — exactly two uniform draws
    /// whatever the rates, so the stream position is a function of the
    /// prompt index alone — and returns the answer that replaces the
    /// model's, if one does, and the stall of the prompt's answer.
    pub(crate) fn decide(
        &mut self,
        prompt: &RepairPrompt,
    ) -> (Option<Result<Completion, LlmError>>, Duration) {
        // The second draw decides nothing (every answer stalls by the
        // plan's latency); it is taken so that each seed keeps the
        // error/malformed schedule of a two-draw stream.
        let (draw, _): (f64, f64) = (self.rng.random(), self.rng.random());
        let plan = &self.plan;
        let replaced = if draw < plan.error_rate {
            registry().counter("llm.faults.errors").inc();
            let error = LlmError::Transient("injected transient endpoint failure".to_string());
            Some(Err(error))
        } else if draw < plan.error_rate + plan.malform_rate {
            registry().counter("llm.faults.malformed").inc();
            // Prose where the agents expect JSON: unparsable as either
            // schema, so validation (and an honest agent) rejects it.
            let content = "I'm sorry, but as a language model I cannot complete this request \
                           without additional context about the design.";
            let (prompt_tokens, completion_tokens) =
                (count_tokens(&prompt.render()), count_tokens(content));
            let content = content.to_string();
            Some(Ok(Completion {
                content,
                prompt_tokens,
                completion_tokens,
                latency: Duration::ZERO,
            }))
        } else {
            None
        };
        if !plan.latency.is_zero() {
            registry().counter("llm.faults.stalls").inc();
        }
        (replaced, plan.latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LanguageModel, LlmError};
    use crate::prompt::AgentRole;
    use crate::scripted::ScriptedLlm;
    use crate::service::{BatchConfig, BatchedLlm, LlmService};

    fn prompt() -> RepairPrompt {
        RepairPrompt::new(AgentRole::SyntaxFixer, "spec", "module m; endmodule")
    }

    fn plan(error: f64, malform: f64) -> FaultPlan {
        FaultPlan { seed: 7, error_rate: error, malform_rate: malform, ..FaultPlan::default() }
    }

    /// The answers to `n` prompts submitted at once to a session faulted
    /// by `plan`, sent `max_batch` at a time, and the session's model.
    fn answers(
        plan: FaultPlan,
        n: usize,
        max_batch: usize,
    ) -> (Vec<Result<Completion, LlmError>>, ScriptedLlm) {
        let config = BatchConfig {
            max_batch,
            max_wait: Duration::from_secs(3600),
            ..BatchConfig::default()
        };
        let service = BatchedLlm::start(config);
        let model = ScriptedLlm::new((0..n).map(|i| format!("r{i}")));
        let mut session = service.session(model, Some(plan), None);
        let tickets: Vec<_> = (0..n).map(|_| session.submit(&prompt())).collect();
        let answers = tickets.into_iter().map(|t| session.await_completion(t)).collect();
        (answers, service.stop().pop().expect("the session's model"))
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let (first, _) = answers(plan(0.3, 0.2), 64, 1);
        let (second, _) = answers(plan(0.3, 0.2), 64, 1);
        assert_eq!(first, second, "fault schedule must replay from the seed");
        assert!(first.iter().any(Result::is_err), "0.3 over 64 prompts must fire");
    }

    #[test]
    fn faults_do_not_consume_the_inner_stream() {
        // A scripted model makes stream preservation observable: the Nth
        // *forwarded* prompt must always see the Nth response.
        let (answers, model) = answers(plan(0.4, 0.2), 64, 1);
        let mut forwarded = 0usize;
        for answer in answers {
            match answer {
                Ok(c) if c.content.starts_with('r') => {
                    assert_eq!(c.content, format!("r{forwarded}"));
                    forwarded += 1;
                }
                Ok(_) => {} // fabricated garbage: the model untouched
                Err(LlmError::Transient(_)) => {}
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(forwarded < 64, "0.6 over 64 prompts must fault some");
        assert_eq!(model.remaining(), 64 - forwarded, "faults never drain the script");
        assert_eq!(model.usage().calls, forwarded as u64, "usage counts forwarded calls only");
    }

    #[test]
    fn derived_plans_replay_per_salt() {
        let base = plan(0.5, 0.0);
        let oks = |plan: FaultPlan| -> Vec<bool> {
            answers(plan, 32, 1).0.iter().map(Result::is_ok).collect()
        };
        assert_eq!(oks(base.derive(1)), oks(base.derive(1)), "same salt, same schedule");
        assert_ne!(oks(base.derive(1)), oks(base.derive(2)), "salts draw independent schedules");
    }

    #[test]
    fn noop_plan_is_transparent() {
        let (answers, _) = answers(FaultPlan::default(), 4, 1);
        let contents: Vec<String> = answers.into_iter().map(|a| a.unwrap().content).collect();
        assert_eq!(contents, ["r0", "r1", "r2", "r3"]);
    }

    #[test]
    fn batch_and_sequential_injection_agree() {
        let (sequential, seq_model) = answers(plan(0.3, 0.3), 16, 1);
        let (batched, batch_model) = answers(plan(0.3, 0.3), 16, 16);
        assert_eq!(sequential, batched);
        assert_eq!(seq_model.usage(), batch_model.usage());
    }

    #[test]
    fn fabricated_completions_are_unparsable() {
        use crate::response::{CompleteResponse, RepairResponse};
        let garbage = plan(0.0, 1.0);
        let (answers, model) = answers(garbage, 8, 1);
        for c in answers {
            let c = c.unwrap();
            assert!(RepairResponse::parse(&c.content).is_err());
            assert!(CompleteResponse::parse(&c.content).is_err());
        }
        assert_eq!(model.usage().calls, 0);
    }
}
