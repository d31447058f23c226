//! # uvllm-lint
//!
//! Verilator-style static linter for the UVLLM pre-processing stage
//! (§III-A of the paper, Algorithm 1).
//!
//! [`lint`] analyses a Verilog source and returns a [`LintReport`] of
//! [`Diagnostic`]s rendered in compiler-log style. Errors (syntax
//! failures, undeclared identifiers, bad instantiations) must be repaired
//! by an LLM agent; a subset of warnings — notably `COMBDLY`
//! (non-blocking assignment in combinational logic) and `BLKSEQ`
//! (blocking assignment in sequential logic) — carry scripted
//! [`diag::TextFix`] templates that [`apply_fixes`] applies without any
//! LLM involvement, exactly the joint LLM-script split the paper
//! describes.
//!
//! ## Example
//!
//! ```rust
//! use uvllm_lint::{apply_fixes, lint};
//!
//! let src = "module m(input a, input b, output reg y);\n\
//!            always @(*) y <= a & b;\nendmodule\n";
//! let report = lint(src);
//! assert!(!report.is_clean());
//! let (fixed, n) = apply_fixes(src, &report);
//! assert_eq!(n, 1);
//! assert!(lint(&fixed).is_clean());
//! ```

pub mod diag;
pub mod fix;
pub mod rules;

pub use diag::{Diagnostic, LintCode, LintReport, Severity, TextFix};
pub use fix::apply_fixes;
pub use rules::{lint, lint_parsed};
