//! # uvllm
//!
//! UVLLM: an automated universal RTL verification framework combining a
//! UVM-style testbench with LLM repair agents — the core contribution of
//! the paper (DAC 2025, arXiv:2411.16238), reproduced in Rust.
//!
//! The [`Uvllm`] orchestrator runs the four-stage loop of Fig. 2:
//!
//! 1. **Pre-processing** ([`stages::preprocess`], Algorithm 1): a joint
//!    LLM-script loop over linter findings — syntax errors go to an LLM
//!    agent, timing-related warnings (`COMBDLY`, `BLKSEQ`, …) to scripted
//!    templates.
//! 2. **UVM processing** ([`stages::uvm_stage`]): constrained-random +
//!    corner testing against the golden reference model, producing a
//!    scoreboard pass rate, a UVM log and a waveform.
//! 3. **Post-processing** ([`stages::postprocess`], Algorithm 2): the
//!    localization engine extracts mismatch signals with IO values and —
//!    after the `TH` iteration threshold — suspicious lines from a
//!    time-aware dynamic slice.
//! 4. **Repair** ([`stages::repair`]): structured-output agents emit
//!    `(original, patched)` pairs applied by exact-match substitution,
//!    guarded by the score-register **rollback** mechanism whose rejected
//!    patches become "damage repairs" in subsequent prompts.
//!
//! [`metrics`] implements the paper's Hit Rate / Fix Rate split and
//! [`dataset`] assembles the validated benchmark instances. [`memo`]
//! keeps what the stages learn about a candidate text that is a pure
//! function of it (lint report, UVM-stage facts, verdict), so that many
//! runs over one dataset analyse each text once
//! ([`Verification::step`]), and the elaborations of the dataset's own
//! texts; every function that simulates a text takes the memo to
//! elaborate it through.
//!
//! The loop itself is resumable state ([`Verification`], with
//! [`Preprocessing`] inside it): a step runs the stages until the LLM
//! must answer a prompt and returns that prompt, so a caller can park
//! the run while it waits. [`Uvllm::verify`] answers each prompt in
//! turn, blocking.
//!
//! ## Example
//!
//! ```rust
//! use uvllm::{Uvllm, VerifyConfig};
//! use uvllm_errgen::{mutate, ErrorKind};
//! use uvllm_llm::{ModelProfile, OracleLlm};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let design = uvllm_designs::by_name("adder_8bit").expect("catalogued");
//! let broken = mutate(design.source, ErrorKind::OperatorMisuse, 1)?;
//! let mut llm = OracleLlm::new(
//!     broken.ground_truth.clone(),
//!     design.source,
//!     ModelProfile::Gpt4Turbo,
//!     1,
//! );
//! let mut framework = Uvllm::new(&mut llm, VerifyConfig::default());
//! let outcome = framework.verify(design, &broken.mutated_src);
//! if outcome.success {
//!     let memo = uvllm::StageMemo::new();
//!     assert!(uvllm::metrics::fix_confirmed(design, &outcome.final_code, &memo));
//! }
//! # Ok(())
//! # }
//! ```

pub mod dataset;
pub mod memo;
pub mod metrics;
pub mod patch;
pub mod pipeline;
pub mod stages;

pub use dataset::{build_dataset, build_dataset_with, build_instance, BenchInstance, Dataset};
pub use memo::{Analysed, Elaborated, Judgement, Parsed, StageMemo, UvmFacts};
pub use metrics::{fix_confirmed, fix_verdict, hit_confirmed, mutant_is_detectable, Verdict};
pub use patch::{apply_pairs, PatchReport};
pub use pipeline::{Stage, StageTimes, Uvllm, Verification, VerifyConfig, VerifyOutcome};
pub use stages::{
    directed_stage, localize, postprocess, preprocess, repair, uvm_stage, uvm_stage_with,
    Localized, PreprocessStats, Preprocessing, RepairAttempt, UvmOutcome,
};
