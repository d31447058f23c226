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
//! persistent scratch queues, so steady-state cycles allocate nothing
//! on this kernel too. [`wave::Waveform`] records per-cycle snapshots
//! for the localization engine.
//!
//! Two interchangeable kernels implement that surface (both behind
//! [`SimControl`], selected via [`SimBackend`] / [`AnySim`]): the
//! event-driven [`Simulator`] above, and the **compiled levelized
//! kernel** ([`kernel::CompiledSim`]) which lowers the design further
//! ([`compile::CompiledDesign`]) into a flat SoA value arena, a CSR
//! sensitivity index and a topological execution order, with a
//! two-state `u128` fast path that falls back to the four-state
//! evaluator on any X/Z (processes whose bodies provably cannot
//! generate X skip even the per-read probe while the arena holds no
//! unknown bits). Compiled instances are pool-managed: [`checkout_sim`]
//! rewinds a parked instance ([`kernel::CompiledSim::reset_state`])
//! instead of re-instantiating. The differential equivalence suite
//! keeps the two kernels waveform-identical.
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
pub mod cache;
pub mod compile;
pub mod elab;
pub mod eval;
pub mod kernel;
pub mod logic;
mod metrics;
mod program;
pub mod sched;
pub mod wave;

pub use backend::{AnySim, SimBackend, SimControl};
pub use cache::{
    checkout_sim, compile_source_cached, elaborate_source_cached, sim_pool_stats, CheckoutError,
    ElabCache, ElabCacheStats, PooledSim, SimPoolStats,
};
pub use compile::CompiledDesign;
pub use elab::{elaborate, Design, ElabError, SignalId, SignalInfo, SignalKind};
pub use eval::{eval, eval_into, ValueReader};
pub use kernel::CompiledSim;
pub use logic::{Logic, Tri};
pub use sched::{SimError, Simulator, MAX_ACTIVATIONS};
pub use wave::Waveform;
