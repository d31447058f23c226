//! # uvllm-bench
//!
//! The experiment harness reproducing the paper's evaluation: it runs
//! every repair method over the validated benchmark dataset, judges each
//! candidate externally (Hit Rate on the public vectors, Fix Rate by
//! extended differential validation) and aggregates the tables/figures.
//!
//! Evaluation itself lives in `uvllm-campaign` (re-exported here):
//! [`harness::evaluate`] fans out over the campaign worker pool, sized
//! by `UVLLM_WORKERS`. For sharded / resumable full-scale runs use the
//! `campaign` example binary instead of the per-figure binaries.
//!
//! Binaries (one per paper artefact):
//!
//! | binary | artefact |
//! |---|---|
//! | `fig5_syntax` | Fig. 5 — HR vs FR, syntax categories |
//! | `fig6_functional` | Fig. 6 — HR vs FR, functional categories |
//! | `fig7_heatmap` | Fig. 7 — per-module FR heat map |
//! | `table2_segmented` | Table II — per-stage FR/Texec + speedup |
//! | `table3_ablation` | Table III — pairs vs complete-code repair |

pub mod harness;
pub mod report;

pub use harness::{evaluate, EvalRecord, EvalRow, MethodKind};
pub use report::{fr, hr, mean_time, percent, AsciiTable};
