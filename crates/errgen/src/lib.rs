//! # uvllm-errgen
//!
//! The paradigm error generator of the UVLLM paper (§III-E, Table I):
//! seeded mutation operators that inject realistic human coding errors
//! into verified Verilog designs, producing the evaluation benchmark.
//!
//! Syntax operators (missing `;`/`end`/`begin`, operator and keyword
//! typos, malformed literals) make the file unparseable; functional
//! operators (declaration type/bitwidth misuse, operator/variable/value
//! misuse, wrong judgment values, wrong sensitivity, port mismatches)
//! keep it compiling but behaviourally wrong. Every mutation returns a
//! [`GroundTruth`] record consumed *only* by the calibrated LLM oracle
//! and the evaluation harness — the repair pipeline never sees it.
//!
//! ## Example
//!
//! ```rust
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use uvllm_errgen::{mutate, ErrorKind};
//!
//! let src = "module inv(input a, output y);\nassign y = ~a;\nendmodule\n";
//! let out = mutate(src, ErrorKind::MissingSemicolon, 7)?;
//! assert!(uvllm_verilog::parse(&out.mutated_src).is_err());
//! assert_eq!(out.ground_truth.fixed_snippet, ";");
//! # Ok(())
//! # }
//! ```

pub mod mutate;
pub mod taxonomy;

pub use mutate::{applicable_kinds, mutate, GroundTruth, MutateError, MutationOutcome, Prepared};
pub use taxonomy::{ErrorCategory, ErrorKind, FunctionalCategory, SyntaxCategory};
