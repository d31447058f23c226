//! The language-model abstraction: request/response types, token
//! counting, pricing and simulated latency.
//!
//! Every backend (calibrated oracle, heuristic, scripted) implements
//! [`LanguageModel`]; the UVLLM pipeline only sees this trait, exactly
//! as the paper's modularization section prescribes for swapping models.

use crate::prompt::RepairPrompt;
use std::fmt;
use std::time::Duration;

/// Approximate BPE token count (≈ 4 characters per token, the standard
/// rule of thumb for GPT-family tokenizers).
pub fn count_tokens(text: &str) -> u64 {
    (text.len() as u64).div_ceil(4)
}

/// GPT-4-turbo pricing from the paper: $0.01 per 1K input tokens and
/// $0.03 per 1K output tokens.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pricing {
    pub usd_per_1k_prompt: f64,
    pub usd_per_1k_completion: f64,
}

impl Pricing {
    /// The GPT-4-turbo price point quoted in §II of the paper.
    pub const GPT4_TURBO: Pricing =
        Pricing { usd_per_1k_prompt: 0.01, usd_per_1k_completion: 0.03 };

    /// Dollar cost of a token pair.
    pub fn cost(&self, prompt_tokens: u64, completion_tokens: u64) -> f64 {
        prompt_tokens as f64 / 1000.0 * self.usd_per_1k_prompt
            + completion_tokens as f64 / 1000.0 * self.usd_per_1k_completion
    }
}

/// Simulated API latency: a base round-trip plus per-token costs,
/// calibrated to public GPT-4-turbo throughput (~30 output tokens/s).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    pub base: Duration,
    /// Seconds per 1K prompt tokens (prefill).
    pub secs_per_1k_prompt: f64,
    /// Seconds per completion token (decode).
    pub secs_per_completion_token: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            base: Duration::from_millis(500),
            secs_per_1k_prompt: 0.4,
            secs_per_completion_token: 1.0 / 30.0,
        }
    }
}

impl LatencyModel {
    /// Latency for a call with the given token counts.
    pub fn latency(&self, prompt_tokens: u64, completion_tokens: u64) -> Duration {
        let secs = self.base.as_secs_f64()
            + prompt_tokens as f64 / 1000.0 * self.secs_per_1k_prompt
            + completion_tokens as f64 * self.secs_per_completion_token;
        Duration::from_secs_f64(secs)
    }
}

/// One model completion with accounting attached.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// Raw response text (JSON for structured-output agents).
    pub content: String,
    pub prompt_tokens: u64,
    pub completion_tokens: u64,
    /// Simulated wall-clock latency of the call.
    pub latency: Duration,
}

/// Cumulative usage across calls.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    pub calls: u64,
    pub prompt_tokens: u64,
    pub completion_tokens: u64,
    /// Total simulated latency.
    pub latency: Duration,
}

impl Usage {
    /// Adds one completion's accounting.
    pub fn record(&mut self, c: &Completion) {
        self.calls += 1;
        self.prompt_tokens += c.prompt_tokens;
        self.completion_tokens += c.completion_tokens;
        self.latency += c.latency;
    }

    /// Dollar cost under `pricing`.
    pub fn cost(&self, pricing: Pricing) -> f64 {
        pricing.cost(self.prompt_tokens, self.completion_tokens)
    }
}

impl std::ops::Add for Usage {
    type Output = Usage;
    fn add(self, rhs: Usage) -> Usage {
        Usage {
            calls: self.calls + rhs.calls,
            prompt_tokens: self.prompt_tokens + rhs.prompt_tokens,
            completion_tokens: self.completion_tokens + rhs.completion_tokens,
            latency: self.latency + rhs.latency,
        }
    }
}

/// LLM invocation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LlmError {
    /// The backend has no response for this prompt (scripted backend
    /// exhausted, heuristic found nothing applicable). A *semantic*
    /// answer, not an infrastructure failure: retrying it yields the
    /// same result, so the resilience layer passes it through.
    NoResponse(String),
    /// The submission was accepted but the service shut down before the
    /// ticket was answered (see [`crate::service`]).
    ServiceClosed(String),
    /// A transient infrastructure failure (flaky endpoint, dropped
    /// connection, 5xx): the request may succeed if retried. Produced
    /// by real transports and injected faults ([`crate::FaultPlan`]);
    /// retried under a [`crate::ResiliencePolicy`].
    Transient(String),
}

impl LlmError {
    /// True for failures a retry can plausibly cure (transient
    /// infrastructure errors) — the class the
    /// resilience layer retries and counts against its circuit
    /// breaker. Semantic answers ([`LlmError::NoResponse`]) and
    /// terminal shutdown ([`LlmError::ServiceClosed`]) are not
    /// retryable: retrying them changes nothing, and treating them as
    /// infrastructure faults would make the resilience layer perturb
    /// fault-free runs.
    pub fn is_retryable(&self) -> bool {
        matches!(self, LlmError::Transient(_))
    }
}

impl fmt::Display for LlmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LlmError::NoResponse(m) => write!(f, "no response: {m}"),
            LlmError::ServiceClosed(m) => write!(f, "llm service closed: {m}"),
            LlmError::Transient(m) => write!(f, "transient llm failure: {m}"),
        }
    }
}

impl std::error::Error for LlmError {}

/// A chat-style language model consumed by the repair agents.
///
/// The `Send` supertrait is what lets the campaign engine move a
/// per-job model into a worker thread.
pub trait LanguageModel: Send {
    /// Human-readable backend name (shows up in experiment reports).
    fn name(&self) -> &str;

    /// Produces a completion for a repair prompt.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::NoResponse`] when the backend cannot answer.
    fn complete(&mut self, prompt: &RepairPrompt) -> Result<Completion, LlmError>;

    /// Cumulative usage so far.
    fn usage(&self) -> Usage;
}

// Forwarding impls so pipelines generic over `M: LanguageModel` accept
// owned backends, boxed trait objects and mutable borrows alike.

impl<M: LanguageModel + ?Sized> LanguageModel for &mut M {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn complete(&mut self, prompt: &RepairPrompt) -> Result<Completion, LlmError> {
        (**self).complete(prompt)
    }

    fn usage(&self) -> Usage {
        (**self).usage()
    }
}

impl<M: LanguageModel + ?Sized> LanguageModel for Box<M> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn complete(&mut self, prompt: &RepairPrompt) -> Result<Completion, LlmError> {
        (**self).complete(prompt)
    }

    fn usage(&self) -> Usage {
        (**self).usage()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_counting_rounds_up() {
        assert_eq!(count_tokens(""), 0);
        assert_eq!(count_tokens("abc"), 1);
        assert_eq!(count_tokens("abcd"), 1);
        assert_eq!(count_tokens("abcde"), 2);
    }

    #[test]
    fn pricing_matches_paper() {
        let p = Pricing::GPT4_TURBO;
        // 1000 in + 1000 out = $0.04.
        assert!((p.cost(1000, 1000) - 0.04).abs() < 1e-12);
    }

    #[test]
    fn latency_grows_with_tokens() {
        let m = LatencyModel::default();
        let short = m.latency(100, 10);
        let long = m.latency(100, 300);
        assert!(long > short);
        // 300 output tokens ≈ 10s of decode.
        assert!(long.as_secs_f64() > 9.0);
    }

    #[test]
    fn usage_accumulates() {
        let mut u = Usage::default();
        u.record(&Completion {
            content: String::new(),
            prompt_tokens: 100,
            completion_tokens: 50,
            latency: Duration::from_secs(2),
        });
        u.record(&Completion {
            content: String::new(),
            prompt_tokens: 200,
            completion_tokens: 100,
            latency: Duration::from_secs(3),
        });
        assert_eq!(u.calls, 2);
        assert_eq!(u.prompt_tokens, 300);
        assert_eq!(u.latency, Duration::from_secs(5));
        let sum = u + Usage::default();
        assert_eq!(sum.calls, 2);
    }
}
