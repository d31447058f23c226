//! # uvllm-llm
//!
//! The language-model substrate of UVLLM: prompts (Fig. 4), structured
//! JSON outputs, token/cost/latency accounting at GPT-4-turbo price
//! points, and three offline backends behind one [`LanguageModel`]
//! trait:
//!
//! * [`OracleLlm`] — a *calibrated digital twin* of GPT-4-turbo. It is
//!   constructed with the injected error's ground truth (known only to
//!   the evaluation harness) and succeeds stochastically with per-
//!   (error-kind × information-mode) probabilities from
//!   [`calibration`]; on failure it produces realistic wrong answers
//!   that exercise the rollback machinery. This is the substitution for
//!   the OpenAI API (README, "The LLM service layer").
//! * [`HeuristicLlm`] — a genuinely rule-based syntax fixer working
//!   purely from lint logs (no ground truth).
//! * [`ScriptedLlm`] — canned responses for deterministic tests.
//!
//! The pipeline does not call these backends directly: its repair loops
//! are step functions that return the prompt they need ([`Step`]), and
//! their callers answer it through an [`LlmService`] ticket handle of
//! [`service`] — a [`DirectService`] around one model, or an
//! [`LlmClient`] session of the [`BatchedLlm`] event loop, which batches
//! prompts from many workers and applies injected faults ([`FaultPlan`])
//! and retries ([`ResiliencePolicy`]) as plain data, on one [`Clock`].
//!
//! ## Example
//!
//! ```rust
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use uvllm_llm::{
//!     AgentRole, ErrorInfo, HeuristicLlm, LanguageModel, RepairPrompt, RepairResponse,
//! };
//!
//! let code = "module m(input a, output y);\nassign y = a\nendmodule\n";
//! let log = "%Error: dut.v:3:1: syntax error, unexpected 'endmodule', expected ';'";
//! let prompt = RepairPrompt::new(AgentRole::SyntaxFixer, "passes a through", code)
//!     .with_error_info(ErrorInfo::LintLog(log.to_string()));
//! let mut model = HeuristicLlm::new();
//! let completion = model.complete(&prompt)?;
//! let response = RepairResponse::parse(&completion.content).map_err(std::io::Error::other)?;
//! assert_eq!(response.correct[0].patched, "assign y = a;");
//! # Ok(())
//! # }
//! ```

pub mod calibration;
pub mod fault;
pub mod heuristic;
pub mod model;
pub mod oracle;
pub mod prompt;
pub mod resilient;
pub mod response;
pub mod scripted;
pub mod service;

pub use calibration::{FailureMode, InfoMode, ModelProfile};
pub use fault::FaultPlan;
pub use heuristic::HeuristicLlm;
pub use model::{count_tokens, Completion, LanguageModel, LatencyModel, LlmError, Pricing, Usage};
pub use oracle::{module_name_of, OracleLlm};
pub use prompt::{AgentRole, ErrorInfo, MismatchInfo, OutputMode, RepairPair, RepairPrompt};
pub use resilient::{ResiliencePolicy, ResilienceStats};
pub use response::{CompleteResponse, RepairResponse};
pub use scripted::ScriptedLlm;
pub use service::{
    block_on, drive, BatchConfig, BatchedLlm, Clock, DirectService, LlmClient, LlmService, Step,
    Ticket, VirtualClock, WaitStats,
};
