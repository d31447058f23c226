//! Simulation backend selection: the [`SimBackend`] enum, the
//! kernel-agnostic [`SimControl`] surface and the [`AnySim`] wrapper
//! that lets harnesses hold either kernel behind one concrete type.

use crate::cache::PooledSim;
use crate::compile::CompiledDesign;
use crate::elab::{Design, SignalId};
use crate::kernel::CompiledSim;
use crate::logic::Logic;
use crate::sched::{SimError, Simulator};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Which simulation kernel to run a design on.
///
/// Both kernels expose the same poke/settle/peek/waveform surface and
/// are kept waveform-identical by the differential equivalence suite;
/// the compiled kernel is the fast path for large campaigns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimBackend {
    /// The event-driven delta-cycle interpreter ([`Simulator`]).
    #[default]
    EventDriven,
    /// The compiled levelized kernel ([`CompiledSim`]).
    Compiled,
}

impl SimBackend {
    /// Both backends, event-driven first.
    pub const ALL: [SimBackend; 2] = [SimBackend::EventDriven, SimBackend::Compiled];

    /// Stable label used in CLI flags and campaign JSONL rows.
    pub fn label(&self) -> &'static str {
        match self {
            SimBackend::EventDriven => "event",
            SimBackend::Compiled => "compiled",
        }
    }

    /// Parses a [`SimBackend::label`] (CLI / row decoding).
    pub fn from_label(text: &str) -> Option<SimBackend> {
        match text.trim() {
            "event" | "event-driven" => Some(SimBackend::EventDriven),
            "compiled" | "levelized" => Some(SimBackend::Compiled),
            _ => None,
        }
    }

    /// The process-wide default: `UVLLM_SIM_BACKEND` when set to a valid
    /// label, else the event-driven engine.
    pub fn from_env() -> SimBackend {
        std::env::var("UVLLM_SIM_BACKEND")
            .ok()
            .and_then(|s| SimBackend::from_label(&s))
            .unwrap_or_default()
    }
}

impl fmt::Display for SimBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The kernel-agnostic simulation surface shared by [`Simulator`],
/// [`CompiledSim`] and [`AnySim`]: everything the UVM environment, the
/// waveform recorder and the campaign harnesses need.
///
/// Inputs change in **time steps**: every value [`SimControl::stage`]d
/// before one [`SimControl::settle`] changes at once, and a process
/// woken twice before it runs — by two of those values, or by two
/// writes of one delta — runs once, seeing all of them. A design whose
/// combinational processes list every signal they read and compute the
/// same outputs from the same inputs cannot tell a batch from a series
/// of pokes; one with an incomplete sensitivity list or a process that
/// reads its own outputs can, and gets what IEEE 1364 gives it.
pub trait SimControl {
    /// The elaborated design being simulated.
    fn design(&self) -> &Design;
    /// Current simulation time.
    fn time(&self) -> u64;
    /// Sets the simulation time (monotonically increased by harnesses).
    fn set_time(&mut self, time: u64);
    /// Reads the current value of `id`.
    fn peek(&self, id: SignalId) -> Logic;
    /// Reads word `index` of an array signal (all-X when out of range).
    fn peek_word(&self, id: SignalId, index: u64) -> Logic;
    /// Writes `value` (resized to the signal's width) to `id` and
    /// queues the processes the change wakes, running none of them.
    /// Staged work stays queued until the next [`SimControl::settle`]
    /// or [`SimControl::poke`].
    fn stage(&mut self, id: SignalId, value: Logic);
    /// Drives `id` to `value` and propagates events, those of earlier
    /// staged values included: `stage` + `settle` in one call.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unstable`] on combinational oscillation.
    fn poke(&mut self, id: SignalId, value: Logic) -> Result<(), SimError>;
    /// Ends a time step: runs every process the staged values woke,
    /// each once, and what those wake in turn, until quiescent.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unstable`] on combinational oscillation.
    fn settle(&mut self) -> Result<(), SimError>;

    /// Reads a signal by (hierarchical) name.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownSignal`] for unknown names.
    fn peek_by_name(&self, name: &str) -> Result<Logic, SimError> {
        let id = self
            .design()
            .signal_id(name)
            .ok_or_else(|| SimError::UnknownSignal(name.to_string()))?;
        Ok(self.peek(id))
    }

    /// Pokes a signal by name.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownSignal`] or [`SimError::Unstable`].
    fn poke_by_name(&mut self, name: &str, value: Logic) -> Result<(), SimError> {
        let id = self
            .design()
            .signal_id(name)
            .ok_or_else(|| SimError::UnknownSignal(name.to_string()))?;
        self.poke(id, value)
    }

    /// Snapshot of all scalar (non-array) signal values in declaration
    /// order, used by the waveform recorder.
    fn scalar_values(&self) -> Vec<(SignalId, Logic)> {
        self.design()
            .signals()
            .iter()
            .enumerate()
            .filter(|(_, info)| info.words == 1)
            .map(|(i, _)| (SignalId(i as u32), self.peek(SignalId(i as u32))))
            .collect()
    }

    /// Convenience: map of signal name to current value for scalars.
    fn named_values(&self) -> HashMap<String, Logic> {
        self.design()
            .signals()
            .iter()
            .enumerate()
            .filter(|(_, info)| info.words == 1)
            .map(|(i, info)| (info.name.clone(), self.peek(SignalId(i as u32))))
            .collect()
    }
}

/// A simulation on either kernel, selected at construction time.
///
/// The compiled variant holds a [`PooledSim`]: instances checked out of
/// the process-wide pool ([`crate::cache::checkout_sim`]) park
/// themselves back on drop for state-reset reuse; instances built
/// directly wrap as [`PooledSim::detached`] and drop normally.
#[derive(Debug, Clone)]
pub enum AnySim {
    /// Event-driven delta-cycle interpreter.
    Event(Simulator),
    /// Compiled levelized kernel (possibly pool-managed).
    Compiled(PooledSim),
}

impl AnySim {
    /// Builds a simulation over a shared `design` on the chosen
    /// backend. The `Arc` is threaded straight through to the kernel —
    /// nothing on this path clones the design, so cached elaborations
    /// ([`crate::cache::elaborate_source_cached`]) are shared as-is.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unstable`] if the design oscillates at time 0.
    pub fn new(design: &Arc<Design>, backend: SimBackend) -> Result<AnySim, SimError> {
        Ok(match backend {
            SimBackend::EventDriven => AnySim::Event(Simulator::from_arc(Arc::clone(design))?),
            SimBackend::Compiled => AnySim::Compiled(PooledSim::detached(
                CompiledSim::from_compiled(Arc::new(CompiledDesign::from_arc(Arc::clone(design))))?,
            )),
        })
    }

    /// Which backend this simulation runs on.
    pub fn backend(&self) -> SimBackend {
        match self {
            AnySim::Event(_) => SimBackend::EventDriven,
            AnySim::Compiled(_) => SimBackend::Compiled,
        }
    }
}

impl SimControl for AnySim {
    fn design(&self) -> &Design {
        match self {
            AnySim::Event(s) => s.design(),
            AnySim::Compiled(s) => s.design(),
        }
    }
    fn time(&self) -> u64 {
        match self {
            AnySim::Event(s) => s.time(),
            AnySim::Compiled(s) => s.time(),
        }
    }
    fn set_time(&mut self, time: u64) {
        match self {
            AnySim::Event(s) => s.set_time(time),
            AnySim::Compiled(s) => s.set_time(time),
        }
    }
    fn peek(&self, id: SignalId) -> Logic {
        match self {
            AnySim::Event(s) => s.peek(id),
            AnySim::Compiled(s) => s.peek(id),
        }
    }
    fn peek_word(&self, id: SignalId, index: u64) -> Logic {
        match self {
            AnySim::Event(s) => s.peek_word(id, index),
            AnySim::Compiled(s) => s.peek_word(id, index),
        }
    }
    fn stage(&mut self, id: SignalId, value: Logic) {
        match self {
            AnySim::Event(s) => s.stage(id, value),
            AnySim::Compiled(s) => s.stage(id, value),
        }
    }
    fn poke(&mut self, id: SignalId, value: Logic) -> Result<(), SimError> {
        match self {
            AnySim::Event(s) => s.poke(id, value),
            AnySim::Compiled(s) => s.poke(id, value),
        }
    }
    fn settle(&mut self) -> Result<(), SimError> {
        match self {
            AnySim::Event(s) => s.settle(),
            AnySim::Compiled(s) => s.settle(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elab::elaborate;
    use uvllm_verilog::parse;

    #[test]
    fn labels_round_trip_and_env_default() {
        for b in SimBackend::ALL {
            assert_eq!(SimBackend::from_label(b.label()), Some(b));
        }
        assert_eq!(SimBackend::from_label("levelized"), Some(SimBackend::Compiled));
        assert_eq!(SimBackend::from_label("nope"), None);
        assert_eq!(SimBackend::default(), SimBackend::EventDriven);
    }

    #[test]
    fn any_sim_runs_on_both_backends() {
        let file = parse(
            "module add(input [7:0] a, input [7:0] b, output [8:0] y);\n\
             assign y = a + b;\nendmodule\n",
        )
        .unwrap();
        let design = Arc::new(elaborate(&file, "add").unwrap());
        for backend in SimBackend::ALL {
            let mut sim = AnySim::new(&design, backend).unwrap();
            assert_eq!(sim.backend(), backend);
            sim.poke_by_name("a", Logic::from_u128(8, 17)).unwrap();
            sim.poke_by_name("b", Logic::from_u128(8, 25)).unwrap();
            assert_eq!(sim.peek_by_name("y").unwrap().to_u128(), Some(42), "{backend}");
            assert!(sim.named_values().contains_key("y"));
        }
    }

    /// Runs `check` over `src` on each kernel, every `zeroed` input
    /// poked to 0 first.
    fn on_both_kernels(
        src: &str,
        zeroed: &[&str],
        check: impl Fn(&mut AnySim, &dyn Fn(&str) -> SignalId),
    ) {
        let file = parse(src).unwrap();
        let design = Arc::new(elaborate(&file, &file.top().unwrap().name).unwrap());
        let id = |name: &str| design.signal_id(name).unwrap();
        for backend in SimBackend::ALL {
            let mut sim = AnySim::new(&design, backend).unwrap();
            for name in zeroed {
                sim.poke(id(name), Logic::zeros(1)).unwrap();
            }
            check(&mut sim, &id);
        }
    }

    fn known(sim: &AnySim, name: &str) -> Option<u128> {
        sim.peek_by_name(name).unwrap().to_u128()
    }

    #[test]
    fn staged_inputs_run_nothing_until_the_settle_and_then_land_together() {
        on_both_kernels(
            "module add(input [7:0] a, input [7:0] b, output [8:0] y);\n\
             assign y = a + b;\nendmodule\n",
            &["a", "b"],
            |sim, id| {
                let backend = sim.backend();
                sim.stage(id("a"), Logic::from_u128(8, 200));
                sim.stage(id("b"), Logic::from_u128(8, 100));
                assert_eq!(known(sim, "a"), Some(200), "{backend}: a staged value is written");
                assert_eq!(known(sim, "y"), Some(0), "{backend}: and nothing has run");
                sim.settle().unwrap();
                assert_eq!(known(sim, "y"), Some(300), "{backend}");
                // A poke drains what was staged before it ...
                sim.stage(id("a"), Logic::from_u128(8, 1));
                sim.poke(id("b"), Logic::from_u128(8, 2)).unwrap();
                assert_eq!(known(sim, "y"), Some(3), "{backend}");
                // ... even one that changes nothing itself.
                sim.stage(id("a"), Logic::from_u128(8, 5));
                sim.poke(id("b"), Logic::from_u128(8, 2)).unwrap();
                assert_eq!(known(sim, "y"), Some(7), "{backend}");
            },
        );
    }

    #[test]
    fn a_process_woken_through_one_signal_sees_every_value_of_the_batch() {
        // Poked one after the other, `a` wakes the block while `b` is
        // still X (`sched::tests::incomplete_sensitivity_is_honoured`);
        // in one time step it reads the new `b`. The missing entry is
        // still honoured: `b` alone wakes nothing.
        on_both_kernels(
            "module m(input a, input b, output reg y);\nalways @(a) y = a & b;\nendmodule\n",
            &[],
            |sim, id| {
                let backend = sim.backend();
                sim.stage(id("a"), Logic::bit(true));
                sim.stage(id("b"), Logic::bit(true));
                sim.settle().unwrap();
                assert_eq!(known(sim, "y"), Some(1), "{backend}");
                sim.stage(id("b"), Logic::bit(false));
                sim.settle().unwrap();
                assert_eq!(known(sim, "y"), Some(1), "{backend}: b is not listened to");
            },
        );
    }

    #[test]
    fn a_process_woken_twice_before_it_runs_runs_once() {
        // Level-sensitive and edge-sensitive alike.
        for list in ["a or b", "posedge a or posedge b"] {
            let src = format!(
                "module m(input a, input b, output reg [7:0] n);\ninitial n = 8'd0;\n\
                 always @({list}) n = n + 8'd1;\nendmodule\n"
            );
            on_both_kernels(&src, &["a", "b"], |sim, id| {
                let backend = sim.backend();
                let start = known(sim, "n").unwrap();
                sim.stage(id("a"), Logic::bit(true));
                sim.stage(id("b"), Logic::bit(true));
                sim.settle().unwrap();
                assert_eq!(known(sim, "n"), Some(start + 1), "{backend} @({list})");
                // Two time steps are two wake-ups.
                sim.stage(id("a"), Logic::bit(false));
                sim.stage(id("b"), Logic::bit(false));
                sim.settle().unwrap();
                let low = known(sim, "n").unwrap();
                sim.poke(id("a"), Logic::bit(true)).unwrap();
                sim.poke(id("b"), Logic::bit(true)).unwrap();
                assert_eq!(known(sim, "n"), Some(low + 2), "{backend} @({list})");
            });
        }
    }

    #[test]
    fn a_staged_batch_still_lets_a_process_miss_its_own_events() {
        // The for-loop divider resets and rebuilds the outputs it reads:
        // woken once by the batch, it must not wake itself.
        on_both_kernels(
            "module div(input [3:0] a, input [3:0] b, output reg [3:0] q, output reg [3:0] r);\n\
             integer i;\nalways @(*) begin\nq = 4'd0;\nr = 4'd0;\n\
             for (i = 3; i >= 0; i = i - 1) begin\nr = {r[2:0], a[i]};\n\
             if (r >= b) begin\nr = r - b;\nq[i] = 1'b1;\nend\nend\nend\nendmodule\n",
            &[],
            |sim, id| {
                sim.stage(id("a"), Logic::from_u128(4, 13));
                sim.stage(id("b"), Logic::from_u128(4, 4));
                sim.settle().unwrap();
                let (q, r) = (known(sim, "q"), known(sim, "r"));
                assert_eq!((q, r), (Some(3), Some(1)), "{}", sim.backend());
            },
        );
    }

    #[test]
    fn a_process_woken_again_after_it_ran_runs_again() {
        // `a` wakes both blocks; the first has already run (on the old
        // `t`) when the second writes `t`, so that write must queue it
        // a second time — the wake-once flag is cleared as a process
        // starts, not when the drive ends.
        on_both_kernels(
            "module m(input a, output reg y);\nreg t;\n\
             always @(a or t) y = a ^ t;\nalways @(a) t = ~a;\nendmodule\n",
            &["a"],
            |sim, id| {
                let backend = sim.backend();
                assert_eq!((known(sim, "t"), known(sim, "y")), (Some(1), Some(1)), "{backend}");
                sim.stage(id("a"), Logic::bit(true));
                sim.settle().unwrap();
                assert_eq!((known(sim, "t"), known(sim, "y")), (Some(0), Some(1)), "{backend}");
            },
        );
    }
}
