//! # uvllm-uvm
//!
//! A UVM-style constrained-random verification framework (§III-B of the
//! UVLLM paper, Fig. 3): sequences feed a sequencer, a driver translates
//! transactions to pin wiggles on the simulated DUT, monitors sample
//! pins, and a scoreboard compares against an executable reference model
//! while collecting functional coverage. Runs emit a UVM-style log, the
//! typed mismatch records the post-processing stage reads, and waveform
//! frames for time-aware slicing.
//!
//! The environment↔reference-model boundary is index-based: port names
//! are interned once into an [`IoSpec`] and each cycle's values cross
//! in a reused [`IoFrame`] (see [`refmodel`] for the contract and the
//! rationale versus the paper's DPI-style map exchange).
//!
//! ## Example
//!
//! ```rust
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use uvllm_uvm::{
//!     DutInterface, Environment, FnModel, IoFrame, IoSpec, PortSig,
//!     RandomSequence, Sequence,
//! };
//!
//! let src = "module inv(input [3:0] a, output [3:0] y);\n\
//!            assign y = ~a;\nendmodule\n";
//! let iface = DutInterface::combinational(
//!     vec![PortSig::new("a", 4)],
//!     vec![PortSig::new("y", 4)],
//! );
//! let model = FnModel::new(|s: &IoSpec| {
//!     let (a, y) = (s.input("a"), s.output("y"));
//!     move |io: &mut IoFrame<'_>| {
//!         let v = io.get(a);
//!         io.set(y, !v);
//!     }
//! });
//! let seqs: Vec<Box<dyn Sequence>> =
//!     vec![Box::new(RandomSequence::new(&iface.inputs, 20, 1))];
//! let env = Environment::from_source(src, "inv", iface, Box::new(model), seqs)?;
//! let summary = env.run();
//! assert!(summary.all_passed());
//! # Ok(())
//! # }
//! ```

pub mod assertion;
pub mod env;
pub mod iface;
pub mod log;
pub mod refmodel;
pub mod scoreboard;
pub mod sequence;

pub use assertion::Assertion;
pub use env::{Driver, Environment, Monitor, RunSummary, Sequencer, UvmError, CYCLE_TIME};
pub use iface::{DutInterface, PortSig, ResetSpec, Transaction};
pub use log::{tail_lines, LogEntry, LogMessage, UvmLog, UvmSeverity};
pub use refmodel::{FnModel, InSlot, IoFrame, IoSpec, OutSlot, RefModel};
pub use scoreboard::{Coverage, KeptRecords, Mismatch, Scoreboard, MAX_MISMATCH_RECORDS};
pub use sequence::{CornerSequence, DirectedSequence, RandomSequence, Sequence};
