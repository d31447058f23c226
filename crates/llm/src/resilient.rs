//! Resilient serving: retry/backoff, circuit breaking and graceful
//! degradation on top of any [`LlmService`].
//!
//! [`ResilientService`] wraps an inner service and re-drives its
//! submit/await protocol so callers see a *policy* instead of raw
//! failures:
//!
//! * **Retry with exponential backoff + seeded jitter.** Retryable
//!   failures ([`LlmError::is_retryable`], malformed completions when
//!   validation is on) are retried up to a per-ticket budget, with
//!   delays of `base · 2^(attempt-1)` capped at `max` and scaled by a
//!   seeded jitter factor — the jitter *sequence* replays from the
//!   policy seed, so fault-injection campaigns are reproducible while
//!   real deployments still avoid thundering-herd synchronization. A
//!   retry is a not-before on the resubmission
//!   ([`LlmService::submit_not_before`]): a queued inner service holds
//!   it back, so a polling caller waits out the backoff on no thread.
//! * **Per-ticket deadline.** An optional wall-clock budget across all
//!   of a ticket's attempts: once blown, the layer stops retrying and
//!   degrades (an already-delivered good completion is never discarded
//!   — paid-for answers are kept, which also keeps deadline-free runs
//!   deterministic).
//! * **Circuit breaker.** Closed → Open on a run of consecutive
//!   failures; Open fast-fails submissions without touching the inner
//!   service for a *ticket-counted* cooldown (ticket counts, not wall
//!   clock, so breaker behaviour is identical at any worker count);
//!   then HalfOpen lets one probe ticket through — success closes the
//!   breaker, failure re-opens it.
//! * **Graceful degradation.** When the retry budget, deadline or
//!   breaker exhausts a ticket, the prompt is answered by the
//!   rule-based [`HeuristicLlm`] fallback instead of erroring the whole
//!   job; every such ticket is counted in
//!   [`ResilienceStats::degraded`] so campaign rows can be tagged
//!   honestly rather than passing degraded output off as the primary
//!   backend's.
//!
//! **Transparency contract:** with no faults arriving, the wrapper is
//! invisible — completions, usage totals and semantic errors
//! ([`LlmError::NoResponse`], [`LlmError::ServiceClosed`]) pass through
//! unchanged, so enabling resilience cannot perturb a healthy
//! campaign's rows.
//!
//! **Usage accounting:** the wrapper keeps its *own* [`Usage`],
//! recording only finally-accepted completions. The inner handle's
//! per-ticket deltas would count fabricated garbage and abandoned
//! attempts; accepted-only accounting makes a faulted-but-retried run's
//! numbers equal a fault-free run's, which is what the byte-identity
//! gate checks.

use crate::heuristic::HeuristicLlm;
use crate::model::{Completion, LanguageModel, LlmError, Usage};
use crate::prompt::RepairPrompt;
use crate::response::{CompleteResponse, RepairResponse};
use crate::service::{block_on, LlmService, Ticket, WaitStats};
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::collections::HashMap;
use std::sync::OnceLock;
use std::task::{Poll, Waker};
use std::time::{Duration, Instant};
use uvllm_obs::{registry, Counter, Histogram};

/// Registry handles for the resilience layer (`llm.*`), resolved once.
#[derive(Debug)]
struct ResilienceMetrics {
    /// Retry attempts issued (not counting first attempts).
    retries: &'static Counter,
    /// Backoff delay per retry, in microseconds.
    retry_delay_us: &'static Histogram,
    /// Circuit-breaker state changes (any direction).
    breaker_transitions: &'static Counter,
    /// Tickets answered by the degradation fallback.
    degraded: &'static Counter,
    /// Tickets that blew their wall-clock deadline.
    deadline_misses: &'static Counter,
}

fn metrics() -> &'static ResilienceMetrics {
    static METRICS: OnceLock<ResilienceMetrics> = OnceLock::new();
    METRICS.get_or_init(|| ResilienceMetrics {
        retries: registry().counter("llm.retries"),
        retry_delay_us: registry().histogram("llm.retry_delay_us"),
        breaker_transitions: registry().counter("llm.breaker_transitions"),
        degraded: registry().counter("llm.degraded"),
        deadline_misses: registry().counter("llm.deadline_misses"),
    })
}

/// Knobs of a [`ResilientService`].
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
    /// Optional wall-clock budget per ticket across all attempts; blown
    /// budgets stop retrying and degrade. `None` (the default) keeps
    /// retry decisions free of wall-clock and therefore deterministic.
    pub ticket_deadline: Option<Duration>,
    /// Consecutive failures that trip the breaker Closed → Open.
    pub breaker_threshold: u32,
    /// Submissions fast-failed while Open before probing (HalfOpen).
    pub breaker_cooldown: u32,
    /// Treat completions that parse as neither [`RepairResponse`] nor
    /// [`CompleteResponse`] as retryable failures. On for campaign
    /// wiring (every genuine backend emits structured output); off by
    /// default so plain-text services are not penalized.
    pub validate: bool,
    /// Route exhausted tickets to the [`HeuristicLlm`] fallback instead
    /// of surfacing the final failure.
    pub degrade: bool,
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        ResiliencePolicy {
            retries: 3,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(1),
            jitter_seed: 0x5E11_1E57,
            ticket_deadline: None,
            breaker_threshold: 5,
            breaker_cooldown: 8,
            validate: false,
            degrade: true,
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
}

/// What the resilience layer did on one handle — surfaced through
/// [`LlmService::resilience_stats`] so campaign rows can be tagged
/// without downcasting the boxed service.
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
    /// Tickets that blew their wall-clock deadline.
    pub deadline_misses: u64,
}

/// Circuit-breaker state machine (module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    Closed,
    Open { cooldown_left: u32 },
    HalfOpen,
}

#[derive(Debug)]
struct Breaker {
    state: BreakerState,
    consecutive_failures: u32,
    threshold: u32,
    cooldown: u32,
    transitions: u64,
}

impl Breaker {
    fn new(policy: &ResiliencePolicy) -> Self {
        Breaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            threshold: policy.breaker_threshold.max(1),
            cooldown: policy.breaker_cooldown.max(1),
            transitions: 0,
        }
    }

    fn transition(&mut self, to: BreakerState) {
        if self.state != to {
            self.state = to;
            self.transitions += 1;
            metrics().breaker_transitions.inc();
        }
    }

    /// Consulted per submission: `true` lets the attempt through to the
    /// inner service (Closed, or the HalfOpen probe); `false` fast-fails
    /// it and ticks the Open cooldown.
    fn admit(&mut self) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open { cooldown_left } => {
                if cooldown_left <= 1 {
                    self.transition(BreakerState::HalfOpen);
                } else {
                    self.state = BreakerState::Open { cooldown_left: cooldown_left - 1 };
                }
                false
            }
        }
    }

    fn on_success(&mut self) {
        self.consecutive_failures = 0;
        if self.state == BreakerState::HalfOpen {
            self.transition(BreakerState::Closed);
        }
    }

    fn on_failure(&mut self) {
        match self.state {
            BreakerState::HalfOpen => {
                // Failed probe: straight back to Open.
                self.consecutive_failures = self.threshold;
                self.transition(BreakerState::Open { cooldown_left: self.cooldown });
            }
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.threshold {
                    self.transition(BreakerState::Open { cooldown_left: self.cooldown });
                }
            }
            BreakerState::Open { .. } => {}
        }
    }
}

/// One submitted-but-unredeemed prompt.
struct PendingTicket {
    prompt: RepairPrompt,
    /// The inner service's ticket for the current attempt; `None` when
    /// the breaker fast-failed its submission.
    inner_ticket: Option<Ticket>,
    submitted: Instant,
    /// Retries issued so far.
    attempt: u32,
}

/// The resilience wrapper (module docs).
pub struct ResilientService<S: LlmService> {
    inner: S,
    policy: ResiliencePolicy,
    fallback: HeuristicLlm,
    jitter: StdRng,
    breaker: Breaker,
    pending: HashMap<u64, PendingTicket>,
    next_ticket: u64,
    usage: Usage,
    stats: ResilienceStats,
}

impl<S: LlmService> std::fmt::Debug for ResilientService<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientService")
            .field("backend", &self.inner.backend_name())
            .field("policy", &self.policy)
            .field("breaker", &self.breaker.state)
            .finish()
    }
}

impl<S: LlmService> ResilientService<S> {
    /// Wraps `inner` under `policy`.
    pub fn new(inner: S, policy: ResiliencePolicy) -> Self {
        let jitter = StdRng::seed_from_u64(policy.jitter_seed);
        let breaker = Breaker::new(&policy);
        ResilientService {
            inner,
            policy,
            fallback: HeuristicLlm::new(),
            jitter,
            breaker,
            pending: HashMap::new(),
            next_ticket: 0,
            usage: Usage::default(),
            stats: ResilienceStats::default(),
        }
    }

    /// The wrapped service.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Consumes the wrapper, returning the inner service.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// True once any ticket was answered by the degradation fallback.
    pub fn degraded(&self) -> bool {
        self.stats.degraded > 0
    }

    /// Submits through the breaker, for the backend no earlier than
    /// `not_before`: `None` means fast-failed (at once).
    fn guarded_submit(&mut self, prompt: &RepairPrompt, not_before: Instant) -> Option<Ticket> {
        if self.breaker.admit() {
            Some(self.inner.submit_not_before(prompt, not_before))
        } else {
            None
        }
    }

    /// A completion is acceptable when validation is off or it parses
    /// as one of the structured-output schemas every genuine backend
    /// emits.
    fn acceptable(&self, completion: &Completion) -> bool {
        !self.policy.validate
            || RepairResponse::parse(&completion.content).is_ok()
            || CompleteResponse::parse(&completion.content).is_ok()
    }

    /// Backoff for retry attempt `n` (1-based): `base · 2^(n-1)` capped
    /// at `max`, scaled by a seeded jitter factor in `[0.5, 1.0)`.
    fn backoff(&mut self, attempt: u32) -> Duration {
        let exp = attempt.saturating_sub(1).min(16);
        let raw = self.policy.base_backoff.saturating_mul(1u32 << exp);
        let capped = raw.min(self.policy.max_backoff);
        let factor = 0.5 + 0.5 * self.jitter.random::<f64>();
        capped.mul_f64(factor)
    }

    /// Answers an exhausted ticket via the fallback chain.
    fn degrade(&mut self, pending: &PendingTicket, last: LlmError) -> Result<Completion, LlmError> {
        if !self.policy.degrade {
            return Err(last);
        }
        self.stats.degraded += 1;
        metrics().degraded.inc();
        match self.fallback.complete(&pending.prompt) {
            Ok(completion) => {
                self.usage.record(&completion);
                Ok(completion)
            }
            // The fallback had no applicable rule: surface its semantic
            // "no response" (the repair loops already degrade on it)
            // rather than the transient failure a caller might retry.
            Err(err) => Err(err),
        }
    }
}

impl<S: LlmService> LlmService for ResilientService<S> {
    fn backend_name(&self) -> &str {
        self.inner.backend_name()
    }

    fn submit(&mut self, prompt: &RepairPrompt) -> Ticket {
        let ticket = Ticket::new(self.next_ticket);
        self.next_ticket += 1;
        // Eager first attempt: submitting to the inner service right
        // away preserves whatever pipelining/batching it does; retries
        // are issued as the caller redeems the ticket.
        let submitted = Instant::now();
        let inner_ticket = self.guarded_submit(prompt, submitted);
        self.pending.insert(
            ticket.id(),
            PendingTicket { prompt: prompt.clone(), inner_ticket, submitted, attempt: 0 },
        );
        ticket
    }

    fn await_completion(&mut self, ticket: Ticket) -> Result<Completion, LlmError> {
        block_on(|waker| self.poll_completion(ticket, waker))
    }

    fn poll_completion(
        &mut self,
        ticket: Ticket,
        waker: &Waker,
    ) -> Poll<Result<Completion, LlmError>> {
        let Some(mut pending) = self.pending.remove(&ticket.id()) else {
            return Poll::Ready(Err(LlmError::NoResponse(format!(
                "ticket #{} was never issued by this handle",
                ticket.id()
            ))));
        };
        loop {
            // A fast-failed attempt (breaker open) says nothing about
            // the backend's health, so it must not feed the breaker —
            // otherwise the rejected ticket that ticked Open → HalfOpen
            // would itself count as a failed probe and re-open it.
            let was_real_attempt = pending.inner_ticket.is_some();
            let outcome = match pending.inner_ticket {
                Some(inner_ticket) => match self.inner.poll_completion(inner_ticket, waker) {
                    Poll::Ready(outcome) => outcome,
                    Poll::Pending => {
                        self.pending.insert(ticket.id(), pending);
                        return Poll::Pending;
                    }
                },
                None => Err(LlmError::Transient("circuit breaker open".to_string())),
            };
            pending.inner_ticket = None;
            let failure = match outcome {
                Ok(completion) if self.acceptable(&completion) => {
                    self.breaker.on_success();
                    self.stats.breaker_transitions = self.breaker.transitions;
                    self.usage.record(&completion);
                    return Poll::Ready(Ok(completion));
                }
                Ok(_) => {
                    LlmError::Transient("malformed completion (failed validation)".to_string())
                }
                // Semantic answers and terminal shutdown pass through
                // untouched: retrying cannot change them, and counting
                // them against the breaker would make the resilience
                // layer perturb fault-free runs.
                Err(err) if !err.is_retryable() => return Poll::Ready(Err(err)),
                Err(err) => err,
            };
            if was_real_attempt {
                self.breaker.on_failure();
            }
            self.stats.faults_seen += 1;
            self.stats.breaker_transitions = self.breaker.transitions;
            if pending.attempt >= self.policy.retries {
                return Poll::Ready(self.degrade(&pending, failure));
            }
            if let Some(deadline) = self.policy.ticket_deadline {
                if pending.submitted.elapsed() >= deadline {
                    self.stats.deadline_misses += 1;
                    metrics().deadline_misses.inc();
                    let miss = LlmError::DeadlineExceeded(format!(
                        "ticket #{} exceeded its {deadline:?} budget after {} retries",
                        ticket.id(),
                        pending.attempt
                    ));
                    return Poll::Ready(self.degrade(&pending, miss));
                }
            }
            pending.attempt += 1;
            self.stats.retries += 1;
            metrics().retries.inc();
            let delay = self.backoff(pending.attempt);
            metrics().retry_delay_us.record(delay.as_micros() as u64);
            pending.inner_ticket = self.guarded_submit(&pending.prompt, Instant::now() + delay);
        }
    }

    fn usage(&self) -> Usage {
        self.usage
    }

    fn wait_stats(&self) -> WaitStats {
        self.inner.wait_stats()
    }

    fn resilience_stats(&self) -> ResilienceStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultyLlm};
    use crate::model::{count_tokens, LanguageModel};
    use crate::prompt::AgentRole;
    use crate::scripted::ScriptedLlm;
    use crate::service::DirectService;

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

    /// A backend that fails its first `fail_first` calls with a
    /// transient error, then answers.
    struct FlakyLlm {
        fail_first: usize,
        calls: usize,
        usage: Usage,
    }

    impl FlakyLlm {
        fn new(fail_first: usize) -> Self {
            FlakyLlm { fail_first, calls: 0, usage: Usage::default() }
        }
    }

    impl LanguageModel for FlakyLlm {
        fn name(&self) -> &str {
            "flaky"
        }

        fn complete(&mut self, prompt: &RepairPrompt) -> Result<Completion, LlmError> {
            self.calls += 1;
            if self.calls <= self.fail_first {
                return Err(LlmError::Transient("flake".to_string()));
            }
            let content = format!("ok{}", self.calls);
            let completion = Completion {
                content,
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
        let mut resilient = ResilientService::new(DirectService::new(scripted(3)), fast_policy());
        for _ in 0..3 {
            assert_eq!(
                plain.complete(&prompt()).unwrap().content,
                resilient.complete(&prompt()).unwrap().content,
            );
        }
        assert_eq!(resilient.usage(), plain.usage(), "accepted-only accounting matches");
        assert_eq!(resilient.resilience_stats(), ResilienceStats::default());
        // Semantic errors pass through unchanged (exhausted backend).
        assert!(matches!(resilient.complete(&prompt()), Err(LlmError::NoResponse(_))));
        assert_eq!(resilient.resilience_stats().faults_seen, 0);
    }

    #[test]
    fn retries_recover_the_fault_free_stream() {
        // 40% injected transient errors; with retries on, the delivered
        // contents and usage must equal a fault-free run's.
        let mut baseline = DirectService::new(scripted(16));
        let expected: Vec<String> =
            (0..16).map(|_| baseline.complete(&prompt()).unwrap().content).collect();

        let plan = FaultPlan { seed: 11, error_rate: 0.4, ..FaultPlan::default() };
        let faulty = DirectService::new(FaultyLlm::new(scripted(16), plan));
        let mut resilient = ResilientService::new(
            faulty,
            ResiliencePolicy { retries: 8, breaker_threshold: 100, ..fast_policy() },
        );
        let delivered: Vec<String> =
            (0..16).map(|_| resilient.complete(&prompt()).unwrap().content).collect();

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
        let plan =
            FaultPlan { seed: 3, malform_rate: 0.3, truncate_rate: 0.2, ..FaultPlan::default() };
        let inner = ScriptedLlm::new((0..16).map(|_| good.clone()));
        let faulty = DirectService::new(FaultyLlm::new(inner, plan));
        let mut resilient = ResilientService::new(
            faulty,
            ResiliencePolicy {
                retries: 8,
                validate: true,
                breaker_threshold: 100,
                ..fast_policy()
            },
        );
        for _ in 0..16 {
            let c = resilient.complete(&prompt()).unwrap();
            assert_eq!(c.content, good, "garbage must never be delivered");
        }
        let stats = resilient.resilience_stats();
        assert!(stats.retries > 0, "injected garbage must have forced retries");
        assert_eq!(stats.degraded, 0);
    }

    #[test]
    fn budget_exhaustion_degrades_and_is_counted() {
        let plan = FaultPlan { seed: 5, error_rate: 1.0, ..FaultPlan::default() };
        let faulty = DirectService::new(FaultyLlm::new(scripted(4), plan));
        let mut resilient = ResilientService::new(
            faulty,
            ResiliencePolicy { retries: 2, breaker_threshold: 100, ..fast_policy() },
        );
        // The heuristic fallback has no lint log to work from, so the
        // degraded answer is its semantic NoResponse — but the ticket is
        // still tagged degraded, which is what row honesty rests on.
        let result = resilient.complete(&prompt());
        assert!(matches!(result, Err(LlmError::NoResponse(_))), "got {result:?}");
        let stats = resilient.resilience_stats();
        assert_eq!(stats.degraded, 1);
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.faults_seen, 3, "initial attempt + 2 retries all failed");
        assert!(resilient.degraded());
    }

    #[test]
    fn degradation_can_answer_via_heuristic() {
        use crate::prompt::ErrorInfo;
        // A prompt the rule-based fallback CAN repair: missing ';'.
        let code = "module m(input a, output y);\nassign y = a\nendmodule\n";
        let log = "%Error: dut.v:3:1: syntax error, unexpected 'endmodule', expected ';'";
        let p = RepairPrompt::new(AgentRole::SyntaxFixer, "passes a through", code)
            .with_error_info(ErrorInfo::LintLog(log.to_string()));
        let plan = FaultPlan { seed: 5, error_rate: 1.0, ..FaultPlan::default() };
        let faulty = DirectService::new(FaultyLlm::new(scripted(1), plan));
        let mut resilient = ResilientService::new(
            faulty,
            ResiliencePolicy { retries: 1, breaker_threshold: 100, ..fast_policy() },
        );
        let completion = resilient.complete(&p).expect("heuristic fallback answers");
        let parsed = RepairResponse::parse(&completion.content).expect("structured output");
        assert_eq!(parsed.correct[0].patched, "assign y = a;");
        assert_eq!(resilient.resilience_stats().degraded, 1);
        assert_eq!(resilient.usage().calls, 1, "the degraded answer is accounted");
    }

    #[test]
    fn breaker_opens_and_fast_fails_without_touching_inner() {
        let plan = FaultPlan { seed: 9, error_rate: 1.0, ..FaultPlan::default() };
        let faulty = DirectService::new(FaultyLlm::new(scripted(0), plan));
        let policy = ResiliencePolicy {
            retries: 0,
            degrade: false,
            breaker_threshold: 3,
            breaker_cooldown: 4,
            ..fast_policy()
        };
        let mut resilient = ResilientService::new(faulty, policy);
        for _ in 0..3 {
            assert!(resilient.complete(&prompt()).is_err());
        }
        let tripped = resilient.inner().model().injected().errors;
        assert_eq!(tripped, 3, "three real attempts tripped the breaker");
        assert!(resilient.resilience_stats().breaker_transitions >= 1);
        // While Open, submissions fast-fail: the inner model sees nothing.
        for _ in 0..3 {
            assert!(resilient.complete(&prompt()).is_err());
        }
        assert_eq!(
            resilient.inner().model().injected().errors,
            tripped,
            "open breaker must not touch the inner service"
        );
    }

    #[test]
    fn halfopen_probe_closes_the_breaker_on_success() {
        // Fails 3 calls (tripping threshold 3), then recovers.
        let policy = ResiliencePolicy {
            retries: 0,
            degrade: false,
            breaker_threshold: 3,
            breaker_cooldown: 2,
            ..fast_policy()
        };
        let mut resilient = ResilientService::new(DirectService::new(FlakyLlm::new(3)), policy);
        for _ in 0..3 {
            assert!(resilient.complete(&prompt()).is_err());
        }
        // Two fast-failed tickets tick the cooldown to the probe.
        assert!(resilient.complete(&prompt()).is_err());
        assert!(resilient.complete(&prompt()).is_err());
        // Probe ticket reaches the (now healthy) backend and closes the
        // breaker; subsequent tickets flow normally.
        assert_eq!(resilient.complete(&prompt()).unwrap().content, "ok4");
        assert_eq!(resilient.complete(&prompt()).unwrap().content, "ok5");
        let stats = resilient.resilience_stats();
        // Closed→Open, Open→HalfOpen, HalfOpen→Closed.
        assert_eq!(stats.breaker_transitions, 3);
    }

    #[test]
    fn jitter_sequence_replays_from_the_seed() {
        let mk = || {
            let plan = FaultPlan { seed: 21, error_rate: 0.5, ..FaultPlan::default() };
            let faulty = DirectService::new(FaultyLlm::new(scripted(8), plan));
            ResilientService::new(
                faulty,
                ResiliencePolicy { retries: 4, breaker_threshold: 100, ..fast_policy() },
            )
        };
        let run = |mut s: ResilientService<_>| -> (Vec<String>, ResilienceStats) {
            let out = (0..8).map(|_| s.complete(&prompt()).unwrap().content).collect();
            (out, s.resilience_stats())
        };
        assert_eq!(run(mk()), run(mk()), "same seeds, same schedule and stats");
    }

    /// A queued inner service: answers a ticket on its second poll,
    /// waking the poller on the first, and records how far ahead of its
    /// submission each request asked not to be sent.
    struct Queued {
        inner: DirectService<FaultyLlm<ScriptedLlm>>,
        polled: std::collections::HashSet<Ticket>,
        delays: Vec<Duration>,
    }

    impl LlmService for Queued {
        fn backend_name(&self) -> &str {
            "queued"
        }

        fn submit(&mut self, prompt: &RepairPrompt) -> Ticket {
            self.submit_not_before(prompt, Instant::now())
        }

        fn submit_not_before(&mut self, prompt: &RepairPrompt, not_before: Instant) -> Ticket {
            self.delays.push(not_before.saturating_duration_since(Instant::now()));
            self.inner.submit(prompt)
        }

        fn await_completion(&mut self, ticket: Ticket) -> Result<Completion, LlmError> {
            self.inner.await_completion(ticket)
        }

        fn poll_completion(
            &mut self,
            ticket: Ticket,
            waker: &Waker,
        ) -> Poll<Result<Completion, LlmError>> {
            if self.polled.insert(ticket) {
                waker.wake_by_ref();
                return Poll::Pending;
            }
            Poll::Ready(self.inner.await_completion(ticket))
        }

        fn usage(&self) -> Usage {
            self.inner.usage()
        }

        fn wait_stats(&self) -> WaitStats {
            self.inner.wait_stats()
        }
    }

    #[test]
    fn polled_retries_ask_for_the_blocking_paths_delays() {
        // Backoffs of 1000 s and up (nothing sleeps: the stub only
        // records them) dwarf the clock reads between computing a
        // not-before and recording it.
        let policy = ResiliencePolicy {
            retries: 8,
            base_backoff: Duration::from_secs(1000),
            max_backoff: Duration::from_secs(64_000),
            breaker_threshold: 100,
            ..ResiliencePolicy::default()
        };
        let service = || {
            let plan = FaultPlan { seed: 13, error_rate: 0.5, ..FaultPlan::default() };
            let inner = Queued {
                inner: DirectService::new(FaultyLlm::new(scripted(12), plan)),
                polled: Default::default(),
                delays: Vec::new(),
            };
            ResilientService::new(inner, policy.clone())
        };
        let mut blocking = service();
        let blocked: Vec<String> =
            (0..12).map(|_| blocking.complete(&prompt()).unwrap().content).collect();
        let mut polling = service();
        let polled: Vec<String> = (0..12)
            .map(|_| {
                let ticket = polling.submit(&prompt());
                loop {
                    if let Poll::Ready(answer) = polling.poll_completion(ticket, Waker::noop()) {
                        break answer.unwrap().content;
                    }
                }
            })
            .collect();
        assert_eq!(polled, blocked);
        assert_eq!(polling.resilience_stats(), blocking.resilience_stats());
        let retries = blocking.resilience_stats().retries;
        assert!(retries > 0, "0.5 error rate over 12 tickets must retry");
        let (by_block, by_poll) = (&blocking.inner().delays, &polling.inner().delays);
        assert_eq!(by_block.len() as u64, 12 + retries, "one submission per attempt");
        assert_eq!(by_block.iter().filter(|d| !d.is_zero()).count() as u64, retries);
        assert_eq!(by_poll.len(), by_block.len());
        let mut attempt = 0;
        for (a, b) in by_block.iter().zip(by_poll) {
            assert!(a.abs_diff(*b) < Duration::from_secs(1), "{a:?} vs {b:?}");
            // A first attempt asks for no delay; retry `n` for a jittered
            // `base · 2^(n-1)`, within [½, 1) of it.
            attempt = if a.is_zero() { 0 } else { attempt + 1 };
            if attempt > 0 {
                let full = (policy.base_backoff * (1 << (attempt - 1))).min(policy.max_backoff);
                assert!(
                    *a > full / 2 - Duration::from_secs(1) && *a <= full,
                    "retry {attempt}: {a:?}"
                );
            }
        }
    }

    #[test]
    fn deadline_stops_retrying() {
        let plan = FaultPlan { seed: 2, error_rate: 1.0, ..FaultPlan::default() };
        let faulty = DirectService::new(FaultyLlm::new(scripted(0), plan));
        let policy = ResiliencePolicy {
            retries: 1_000,
            degrade: false,
            breaker_threshold: u32::MAX,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(5),
            ticket_deadline: Some(Duration::from_millis(20)),
            ..ResiliencePolicy::default()
        };
        let mut resilient = ResilientService::new(faulty, policy);
        let result = resilient.complete(&prompt());
        assert!(matches!(result, Err(LlmError::DeadlineExceeded(_))), "got {result:?}");
        let stats = resilient.resilience_stats();
        assert_eq!(stats.deadline_misses, 1);
        assert!(stats.retries < 1_000, "the deadline, not the budget, stopped the loop");
    }
}
