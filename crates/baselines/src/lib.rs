//! # uvllm-baselines
//!
//! The comparison methods of the paper's evaluation (§IV):
//!
//! * [`MeicRepair`] — MEIC-style iterative LLM repair against a finite
//!   directed testbench with raw logs and whole-code regeneration.
//! * [`GptDirect`] — plain GPT-4-turbo prompting (spec + code, 5
//!   samples).
//! * [`StriderRepair`] — signal-value-transition-guided template repair
//!   (no LLM), localized via the DFG.
//! * [`RtlRepair`] — global template search over operator, constant and
//!   declaration-width changes (no LLM).
//!
//! All four accept a candidate as soon as *their own* testbench passes;
//! the harness then measures Hit Rate (public tests) and Fix Rate
//! (extended differential validation) externally — reproducing the
//! HR-vs-FR gaps of Figures 5 and 6.
//!
//! The two LLM methods' loops are resumable state ([`MeicRun`],
//! [`GptDirectRun`]) whose steps return the prompt they need; their
//! [`RepairMethod`] impls answer each one in turn, blocking.

pub mod llm_methods;
pub mod method;
pub mod template;

pub use llm_methods::{GptDirect, GptDirectRun, MeicRepair, MeicRun};
pub use method::{MethodOutcome, RepairMethod};
pub use template::{RtlRepair, StriderRepair};
