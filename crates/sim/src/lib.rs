//! # uvllm-sim
//!
//! Event-driven four-state Verilog simulator: the execution substrate
//! behind UVLLM's UVM processing stage (the role VCS/Icarus/ModelSim play
//! in the paper).
//!
//! The pipeline is: [`elab::elaborate`] lowers a parsed
//! [`uvllm_verilog::SourceFile`] into a flat [`elab::Design`] (parameters
//! and ranges resolved, loops unrolled, hierarchy inlined), then a
//! [`Simulator`] executes it with IEEE-1364-style scheduling: blocking
//! assignments apply immediately, non-blocking assignments are deferred
//! to the NBA region of each delta cycle, and edge-triggered processes
//! fire on poke-induced transitions. Process bodies are lowered once at
//! construction into flat *process programs* (pre-resolved targets,
//! precomputed widths, patched jump offsets) and the scheduler reuses
//! persistent scratch queues, so steady-state cycles allocate nothing.
//! [`wave::Waveform`] records per-cycle snapshots for the localization
//! engine.
//!
//! [`elaborate`] lowers a parsed file, counted in `sim.elaborations`;
//! [`elaborate_source`] parses a text first. This crate keeps no
//! process-wide state about texts; a caller that simulates one text
//! many times holds its elaboration (a campaign holds it in its
//! dataset's stage memo, one per `(design, text)`) and builds each
//! [`Simulator`] from it.
//!
//! Harnesses drive the simulator through [`SimControl`]. The
//! workspace's test-only `uvllm-refsim` crate implements the same
//! trait as a deliberately slow, bit-at-a-time reference interpreter
//! over the same elaborated [`Design`]: it shares the parser,
//! [`elab::elaborate`] and the IR with this crate, and [`Logic`] only
//! as the value at the trait boundary — no evaluator, no scheduler, no
//! [`Logic`] operator — and the differential suites hold the two to
//! identical state after every drive.
//!
//! ## Example
//!
//! ```rust
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use uvllm_sim::{elaborate, Logic, Simulator};
//!
//! let file = uvllm_verilog::parse(
//!     "module add(input [7:0] a, input [7:0] b, output [8:0] y);\n\
//!      assign y = a + b;\nendmodule\n",
//! )?;
//! let design = elaborate(&file, "add")?;
//! let mut sim = Simulator::new(design)?;
//! sim.poke_by_name("a", Logic::from_u128(8, 17))?;
//! sim.poke_by_name("b", Logic::from_u128(8, 25))?;
//! assert_eq!(sim.peek_by_name("y")?.to_u128(), Some(42));
//! # Ok(())
//! # }
//! ```

pub mod backend;
#[doc(hidden)]
pub mod cache;
pub mod elab;
pub mod eval;
pub mod logic;
mod metrics;
mod program;
pub mod sched;
pub mod wave;

pub use backend::{AnySim, SimBackend, SimControl};
#[doc(hidden)]
pub use cache::{elaborate_source_cached, ElabCacheStats};
pub use elab::{elaborate, elaborate_source, Design, ElabError, SignalId, SignalInfo, SignalKind};
pub use eval::{eval, eval_into, ValueReader};
pub use logic::{Logic, Tri};
pub use sched::{SimError, Simulator, MAX_ACTIVATIONS};
pub use wave::{Frame, Waveform};
