//! Resilience as plain data: the retry, circuit-breaker and degradation
//! policy the service loop ([`crate::BatchedLlm`]) applies to every
//! answer of a session opened with a [`ResiliencePolicy`].
//!
//! * **Retry.** A retryable failure ([`LlmError::is_retryable`], or a
//!   malformed completion under `validate`) goes back into the loop's
//!   queue, due after `base · 2^(attempt-1)` capped at `max` and scaled
//!   by a jitter factor seeded by the policy, up to a per-ticket budget
//!   of attempts.
//! * **Circuit breaker.** Closed → Open on a run of consecutive
//!   failures; Open fast-fails attempts unsent for a cool-down counted
//!   in tickets (not time, so it behaves alike at any worker count);
//!   HalfOpen then lets one probe through, whose outcome closes or
//!   re-opens it.
//! * **Degradation.** A ticket the budget or breaker exhausts is
//!   answered by the rule-based [`HeuristicLlm`] and counted in
//!   [`ResilienceStats::degraded`], so rows are tagged honestly.
//!
//! Every decision counts attempts and tickets, never time: the clock
//! only schedules when a retry is sent, so a ticket retries, breaks and
//! degrades alike however slow its answers land.
//!
//! With no faults arriving the policy is invisible: completions, usage
//! and semantic errors pass through unchanged, and usage counts accepted
//! completions only, so a faulted-but-retried run accounts like a
//! fault-free one.

use crate::heuristic::HeuristicLlm;
use crate::model::{Completion, LanguageModel, LlmError};
use crate::prompt::RepairPrompt;
use crate::response::{CompleteResponse, RepairResponse};
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::time::Duration;
use uvllm_obs::registry;

/// Tickets an open breaker fast-fails before it lets a probe through.
const BREAKER_COOLDOWN: u32 = 8;

/// How a session retries, breaks and degrades (module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct ResiliencePolicy {
    /// Retry attempts per ticket beyond the first (0 disables retry).
    pub retries: u32,
    /// First retry's backoff; attempt `n` waits `base · 2^(n-1)`.
    pub base_backoff: Duration,
    /// Backoff cap.
    pub max_backoff: Duration,
    /// Seed of the jitter stream (campaigns derive a per-job seed so
    /// every job's delays replay independently of worker count).
    pub jitter_seed: u64,
    /// Consecutive failures that trip the breaker Closed → Open.
    pub breaker_threshold: u32,
    /// Treat completions that parse as neither [`RepairResponse`] nor
    /// [`CompleteResponse`] as retryable failures. On for campaign
    /// wiring; off by default so plain-text services are not penalized.
    pub validate: bool,
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        ResiliencePolicy {
            retries: 3,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(1),
            jitter_seed: 0x5E11_1E57,
            breaker_threshold: 5,
            validate: false,
        }
    }
}

impl ResiliencePolicy {
    /// The same policy with its jitter seed mixed with `salt` (per-job
    /// derivation, mirroring [`crate::fault::FaultPlan::derive`]).
    pub fn derive(&self, salt: u64) -> ResiliencePolicy {
        ResiliencePolicy {
            jitter_seed: self.jitter_seed ^ salt.wrapping_mul(0x2545_F491_4F6C_DD1D),
            ..self.clone()
        }
    }

    /// Backoff before retry `attempt` (1-based): `base · 2^(attempt-1)`
    /// capped at `max`, scaled by a jitter factor in `[0.5, 1.0)`.
    pub(crate) fn backoff(&self, attempt: u32, jitter: &mut StdRng) -> Duration {
        let exp = attempt.saturating_sub(1).min(16);
        let capped = self.base_backoff.saturating_mul(1u32 << exp).min(self.max_backoff);
        capped.mul_f64(0.5 + 0.5 * jitter.random::<f64>())
    }
}

/// What the resilience policy did on one handle, surfaced through
/// [`crate::LlmService::resilience_stats`] so campaign rows can be
/// tagged without downcasting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Retry attempts issued.
    pub retries: u64,
    /// Retryable failures observed (injected errors, malformed
    /// completions, breaker fast-fails).
    pub faults_seen: u64,
    /// Tickets answered by the degradation fallback.
    pub degraded: u64,
    /// Breaker state transitions.
    pub breaker_transitions: u64,
}

/// Circuit-breaker state machine (module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    Closed,
    Open { cooldown_left: u32 },
    HalfOpen,
}

/// What the loop does with a ticket after an attempt.
#[derive(Debug)]
pub(crate) enum Settled {
    /// Deliver this final answer.
    Answer(Result<Completion, LlmError>),
    /// Send the prompt again this long from now (the breaker admitted it).
    Retry(Duration),
}

/// A session's resilience state in the service loop: its policy, jitter
/// stream, breaker and fallback.
#[derive(Debug)]
pub(crate) struct Resilience {
    policy: ResiliencePolicy,
    jitter: StdRng,
    fallback: HeuristicLlm,
    breaker: BreakerState,
    consecutive_failures: u32,
    pub(crate) stats: ResilienceStats,
}

impl Resilience {
    pub(crate) fn new(policy: ResiliencePolicy) -> Self {
        Resilience {
            jitter: StdRng::seed_from_u64(policy.jitter_seed),
            policy,
            fallback: HeuristicLlm::new(),
            breaker: BreakerState::Closed,
            consecutive_failures: 0,
            stats: ResilienceStats::default(),
        }
    }

    /// Moves the breaker to a state other than its current one.
    fn transition(&mut self, to: BreakerState) {
        self.breaker = to;
        self.stats.breaker_transitions += 1;
        registry().counter("llm.breaker_transitions").inc();
    }

    /// Consulted before each attempt is sent: `true` lets it through
    /// (Closed, or the HalfOpen probe); `false` fast-fails it and ticks
    /// the Open cool-down.
    pub(crate) fn admit(&mut self) -> bool {
        let BreakerState::Open { cooldown_left } = self.breaker else { return true };
        if cooldown_left <= 1 {
            self.transition(BreakerState::HalfOpen);
        } else {
            self.breaker = BreakerState::Open { cooldown_left: cooldown_left - 1 };
        }
        false
    }

    /// Judges an attempt's outcome (`None`: the breaker fast-failed it)
    /// and decides the ticket's next step. `attempt` counts the retries
    /// issued so far.
    pub(crate) fn settle(
        &mut self,
        prompt: &RepairPrompt,
        mut outcome: Option<Result<Completion, LlmError>>,
        attempt: &mut u32,
    ) -> Settled {
        loop {
            // A fast-failed attempt says nothing about the backend's
            // health, so only a sent one feeds the breaker.
            let sent = outcome.is_some();
            match outcome.take() {
                Some(Ok(completion)) if self.acceptable(&completion) => {
                    self.consecutive_failures = 0;
                    if self.breaker == BreakerState::HalfOpen {
                        self.transition(BreakerState::Closed);
                    }
                    return Settled::Answer(Ok(completion));
                }
                // Semantic answers and shutdown pass through: retrying
                // cannot change them.
                Some(Err(err)) if !err.is_retryable() => return Settled::Answer(Err(err)),
                // A malformed completion, a retryable error, a fast-fail.
                _ => {}
            }
            if sent {
                self.on_failure();
            }
            self.stats.faults_seen += 1;
            if *attempt >= self.policy.retries {
                return Settled::Answer(self.fall_back(prompt));
            }
            *attempt += 1;
            self.stats.retries += 1;
            registry().counter("llm.retries").inc();
            let delay = self.policy.backoff(*attempt, &mut self.jitter);
            registry().histogram("llm.retry_delay_us").record(delay.as_micros() as u64);
            if self.admit() {
                return Settled::Retry(delay);
            }
        }
    }

    /// A sent attempt failed: a failed probe, or the threshold's worth
    /// of consecutive failures while Closed, opens the breaker.
    fn on_failure(&mut self) {
        self.consecutive_failures += 1;
        let threshold = self.policy.breaker_threshold.max(1);
        if self.breaker == BreakerState::HalfOpen
            || (self.breaker == BreakerState::Closed && self.consecutive_failures >= threshold)
        {
            self.transition(BreakerState::Open { cooldown_left: BREAKER_COOLDOWN });
        }
    }

    /// A completion is acceptable when validation is off or it parses
    /// as one of the structured-output schemas genuine backends emit.
    fn acceptable(&self, completion: &Completion) -> bool {
        !self.policy.validate
            || RepairResponse::parse(&completion.content).is_ok()
            || CompleteResponse::parse(&completion.content).is_ok()
    }

    /// Answers an exhausted ticket from the fallback. When it has no
    /// applicable rule, its semantic `NoResponse` surfaces (the repair
    /// loops already fall back on it) rather than a retryable failure.
    fn fall_back(&mut self, prompt: &RepairPrompt) -> Result<Completion, LlmError> {
        self.stats.degraded += 1;
        registry().counter("llm.degraded").inc();
        self.fallback.complete(prompt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::model::{count_tokens, Usage};
    use crate::prompt::AgentRole;
    use crate::scripted::ScriptedLlm;
    use crate::service::{
        BatchConfig, BatchedLlm, Clock, DirectService, LlmClient, LlmService, VirtualClock,
    };
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::task::{Poll, Waker};

    fn prompt() -> RepairPrompt {
        RepairPrompt::new(AgentRole::SyntaxFixer, "spec", "module m; endmodule")
    }

    fn scripted(n: usize) -> ScriptedLlm {
        ScriptedLlm::new((0..n).map(|i| format!("r{i}")))
    }

    fn fast_policy() -> ResiliencePolicy {
        ResiliencePolicy {
            base_backoff: Duration::from_micros(50),
            max_backoff: Duration::from_micros(400),
            ..ResiliencePolicy::default()
        }
    }

    fn faults(seed: u64, error_rate: f64) -> Option<FaultPlan> {
        Some(FaultPlan { seed, error_rate, ..FaultPlan::default() })
    }

    /// More time than any retry chain here takes.
    const AGES: Duration = Duration::from_secs(1 << 20);

    /// A loop on a virtual clock: one connection, `rtt` a round trip.
    fn service<M: LanguageModel>(rtt: Duration) -> (BatchedLlm<M>, VirtualClock) {
        let clock = VirtualClock::default();
        let config = BatchConfig { max_batch: 1, max_wait: Duration::ZERO, round_trip: rtt };
        (BatchedLlm::start_on(config, Clock::Virtual(clock.clone())), clock)
    }

    /// Submits, lets [`AGES`] pass and redeems: the whole retry chain.
    fn ask<M: LanguageModel>(
        client: &mut LlmClient<M>,
        clock: &VirtualClock,
        prompt: &RepairPrompt,
    ) -> Result<Completion, LlmError> {
        let ticket = client.submit(prompt);
        clock.advance(AGES);
        client.await_completion(ticket)
    }

    /// A backend that fails its first `fail_first` calls with a
    /// transient error, then answers; the counter counts every call.
    struct FlakyLlm {
        fail_first: usize,
        calls: Arc<AtomicUsize>,
        usage: Usage,
    }

    fn flaky(fail_first: usize) -> (FlakyLlm, Arc<AtomicUsize>) {
        let calls = Arc::new(AtomicUsize::new(0));
        (FlakyLlm { fail_first, calls: Arc::clone(&calls), usage: Usage::default() }, calls)
    }

    impl LanguageModel for FlakyLlm {
        fn name(&self) -> &str {
            "flaky"
        }

        fn complete(&mut self, prompt: &RepairPrompt) -> Result<Completion, LlmError> {
            let calls = self.calls.fetch_add(1, Ordering::SeqCst) + 1;
            if calls <= self.fail_first {
                return Err(LlmError::Transient("flake".to_string()));
            }
            let completion = Completion {
                content: format!("ok{calls}"),
                prompt_tokens: count_tokens(&prompt.render()),
                completion_tokens: 1,
                latency: Duration::ZERO,
            };
            self.usage.record(&completion);
            Ok(completion)
        }

        fn usage(&self) -> Usage {
            self.usage
        }
    }

    #[test]
    fn transparent_without_faults() {
        let mut plain = DirectService::new(scripted(3));
        let (service, clock) = service(Duration::ZERO);
        let mut resilient = service.session(scripted(3), None, Some(fast_policy()));
        for _ in 0..3 {
            assert_eq!(
                plain.complete(&prompt()).unwrap().content,
                ask(&mut resilient, &clock, &prompt()).unwrap().content,
            );
        }
        assert_eq!(resilient.usage(), plain.usage(), "accepted-only accounting matches");
        assert_eq!(resilient.resilience_stats(), ResilienceStats::default());
        // Semantic errors pass through unchanged (exhausted backend).
        let exhausted = ask(&mut resilient, &clock, &prompt());
        assert!(matches!(exhausted, Err(LlmError::NoResponse(_))));
        assert_eq!(resilient.resilience_stats().faults_seen, 0);
    }

    #[test]
    fn retries_recover_the_fault_free_stream() {
        // 40% injected transient errors; with retries on, the delivered
        // contents and usage must equal a fault-free run's.
        let mut baseline = DirectService::new(scripted(16));
        let expected: Vec<String> =
            (0..16).map(|_| baseline.complete(&prompt()).unwrap().content).collect();
        let (service, clock) = service(Duration::ZERO);
        let policy = ResiliencePolicy { retries: 8, breaker_threshold: 100, ..fast_policy() };
        let mut resilient = service.session(scripted(16), faults(11, 0.4), Some(policy));
        let delivered: Vec<String> =
            (0..16).map(|_| ask(&mut resilient, &clock, &prompt()).unwrap().content).collect();
        assert_eq!(delivered, expected);
        assert_eq!(resilient.usage(), baseline.usage());
        let stats = resilient.resilience_stats();
        assert!(stats.retries > 0, "0.4 error rate over 16 tickets must retry");
        assert_eq!(stats.degraded, 0);
    }

    #[test]
    fn malformed_completions_are_retried_under_validation() {
        let good = RepairResponse {
            module_name: "m".to_string(),
            analysis: "a".to_string(),
            correct: vec![],
        }
        .to_json();
        let plan = FaultPlan { seed: 3, malform_rate: 0.5, ..FaultPlan::default() };
        let policy = ResiliencePolicy {
            retries: 8,
            validate: true,
            breaker_threshold: 100,
            ..fast_policy()
        };
        let (service, clock) = service(Duration::ZERO);
        let model = ScriptedLlm::new((0..16).map(|_| good.clone()));
        let mut resilient = service.session(model, Some(plan), Some(policy));
        for _ in 0..16 {
            let c = ask(&mut resilient, &clock, &prompt()).unwrap();
            assert_eq!(c.content, good, "garbage must never be delivered");
        }
        let stats = resilient.resilience_stats();
        assert!(stats.retries > 0, "injected garbage must have forced retries");
        assert_eq!(stats.degraded, 0);
    }

    #[test]
    fn budget_exhaustion_degrades_and_is_counted() {
        let (service, clock) = service(Duration::ZERO);
        let policy = ResiliencePolicy { retries: 2, breaker_threshold: 100, ..fast_policy() };
        let mut resilient = service.session(scripted(4), faults(5, 1.0), Some(policy));
        // The heuristic fallback has no lint log to work from, so the
        // degraded answer is its semantic NoResponse — but the ticket is
        // still tagged degraded, which is what row honesty rests on.
        let result = ask(&mut resilient, &clock, &prompt());
        assert!(matches!(result, Err(LlmError::NoResponse(_))), "got {result:?}");
        let stats = resilient.resilience_stats();
        assert_eq!(stats.degraded, 1);
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.faults_seen, 3, "initial attempt + 2 retries all failed");
    }

    #[test]
    fn degradation_can_answer_via_heuristic() {
        use crate::prompt::ErrorInfo;
        // A prompt the rule-based fallback CAN repair: missing ';'.
        let code = "module m(input a, output y);\nassign y = a\nendmodule\n";
        let log = "%Error: dut.v:3:1: syntax error, unexpected 'endmodule', expected ';'";
        let p = RepairPrompt::new(AgentRole::SyntaxFixer, "passes a through", code)
            .with_error_info(ErrorInfo::LintLog(log.to_string()));
        let (service, clock) = service(Duration::ZERO);
        let policy = ResiliencePolicy { retries: 1, breaker_threshold: 100, ..fast_policy() };
        let mut resilient = service.session(scripted(1), faults(5, 1.0), Some(policy));
        let completion = ask(&mut resilient, &clock, &p).expect("heuristic fallback answers");
        let parsed = RepairResponse::parse(&completion.content).expect("structured output");
        assert_eq!(parsed.correct[0].patched, "assign y = a;");
        assert_eq!(resilient.resilience_stats().degraded, 1);
        assert_eq!(resilient.usage().calls, 1, "the degraded answer is accounted");
    }

    #[test]
    fn breaker_opens_and_fast_fails_without_touching_inner() {
        let (model, calls) = flaky(usize::MAX);
        let (service, clock) = service(Duration::ZERO);
        let policy = ResiliencePolicy { retries: 0, breaker_threshold: 3, ..fast_policy() };
        let mut resilient = service.session(model, None, Some(policy));
        for _ in 0..3 {
            assert!(ask(&mut resilient, &clock, &prompt()).is_err());
        }
        assert_eq!(calls.load(Ordering::SeqCst), 3, "three real attempts tripped the breaker");
        assert_eq!(resilient.resilience_stats().breaker_transitions, 1);
        // While Open, attempts fast-fail: the model sees nothing.
        for _ in 0..3 {
            assert!(ask(&mut resilient, &clock, &prompt()).is_err());
        }
        assert_eq!(calls.load(Ordering::SeqCst), 3, "an open breaker sends nothing");
    }

    #[test]
    fn halfopen_probe_closes_the_breaker_on_success() {
        // Fails 3 calls (tripping threshold 3), then recovers.
        let (model, _) = flaky(3);
        let (service, clock) = service(Duration::ZERO);
        let policy = ResiliencePolicy { retries: 0, breaker_threshold: 3, ..fast_policy() };
        let mut resilient = service.session(model, None, Some(policy));
        for _ in 0..3 {
            assert!(ask(&mut resilient, &clock, &prompt()).is_err());
        }
        // The cool-down's fast-failed tickets tick the breaker to its probe.
        for _ in 0..BREAKER_COOLDOWN {
            assert!(ask(&mut resilient, &clock, &prompt()).is_err());
        }
        // The probe reaches the (now healthy) backend and closes the
        // breaker; later tickets flow normally.
        assert_eq!(ask(&mut resilient, &clock, &prompt()).unwrap().content, "ok4");
        assert_eq!(ask(&mut resilient, &clock, &prompt()).unwrap().content, "ok5");
        // Closed→Open, Open→HalfOpen, HalfOpen→Closed.
        assert_eq!(resilient.resilience_stats().breaker_transitions, 3);
    }

    #[test]
    fn jitter_sequence_replays_from_the_seed() {
        let run = || {
            let (service, clock) = service(Duration::ZERO);
            let policy = ResiliencePolicy { retries: 4, breaker_threshold: 100, ..fast_policy() };
            let mut s = service.session(scripted(8), faults(21, 0.5), Some(policy));
            let out: Vec<String> =
                (0..8).map(|_| ask(&mut s, &clock, &prompt()).unwrap().content).collect();
            (out, s.resilience_stats(), s.wait_stats())
        };
        assert_eq!(run(), run(), "same seeds, same schedule, stats and waits");
    }

    #[test]
    fn polled_retries_ask_for_the_blocking_paths_delays() {
        let rtt = Duration::from_millis(10);
        let policy = ResiliencePolicy {
            retries: 8,
            base_backoff: Duration::from_secs(1000),
            max_backoff: Duration::from_secs(64_000),
            breaker_threshold: 100,
            ..ResiliencePolicy::default()
        };
        // Each ticket's waits, redeemed by blocking or by polling.
        let waits = |poll: bool| -> Vec<(Duration, u64)> {
            let (service, clock) = service(rtt);
            let mut client = service.session(scripted(12), faults(13, 0.5), Some(policy.clone()));
            (0..12)
                .map(|_| {
                    let (wait, retries) =
                        (client.wait_stats().wait, client.resilience_stats().retries);
                    let ticket = client.submit(&prompt());
                    clock.advance(AGES);
                    let answer = match poll {
                        false => client.await_completion(ticket),
                        true => loop {
                            if let Poll::Ready(answer) =
                                client.poll_completion(ticket, Waker::noop())
                            {
                                break answer;
                            }
                        },
                    };
                    answer.unwrap();
                    (client.wait_stats().wait - wait, client.resilience_stats().retries - retries)
                })
                .collect()
        };
        let blocked = waits(false);
        assert_eq!(waits(true), blocked);
        // Retry `n` is sent one jittered `base · 2^(n-1)` after the
        // failure before it landed, the jitter replaying from the seed.
        let mut jitter = StdRng::seed_from_u64(policy.jitter_seed);
        for (wait, retries) in &blocked {
            let backoffs: Duration =
                (1..=*retries as u32).map(|n| policy.backoff(n, &mut jitter)).sum();
            assert_eq!(*wait, rtt * (*retries as u32 + 1) + backoffs);
        }
        assert!(blocked.iter().any(|(_, r)| *r > 0), "0.5 error rate over 12 tickets must retry");
    }
}
