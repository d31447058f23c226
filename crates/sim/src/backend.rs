//! The simulation surface harnesses drive: the [`SimControl`] trait,
//! implemented by the event-driven [`Simulator`].

use crate::elab::{Design, SignalId};
use crate::logic::Logic;
use crate::sched::{SimError, Simulator};
use std::sync::Arc;

/// The simulation surface the UVM environment, the waveform recorder
/// and the campaign harnesses need, implemented by [`Simulator`] (and,
/// in tests, by the independent reference interpreter it is checked
/// against).
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
}

/// Benchmark compatibility; goes with the next `benchmark` PR. The
/// kernel choice that used to be made here has one answer left.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default)]
pub struct SimBackend;

impl SimBackend {
    /// Benchmark compatibility; goes with the next `benchmark` PR.
    /// Reads nothing.
    #[doc(hidden)]
    pub fn from_env() -> SimBackend {
        SimBackend
    }
}

/// Benchmark compatibility; goes with the next `benchmark` PR. A
/// [`Simulator`] under its old name, accepted wherever one is.
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct AnySim(Simulator);

impl AnySim {
    /// Benchmark compatibility; goes with the next `benchmark` PR.
    ///
    /// # Errors
    ///
    /// As [`Simulator::from_arc`].
    #[doc(hidden)]
    pub fn new(design: &Arc<Design>, _backend: SimBackend) -> Result<AnySim, SimError> {
        Simulator::from_arc(Arc::clone(design)).map(AnySim)
    }
}

impl From<AnySim> for Simulator {
    fn from(sim: AnySim) -> Simulator {
        sim.0
    }
}

impl SimControl for AnySim {
    fn design(&self) -> &Design {
        self.0.design()
    }
    fn time(&self) -> u64 {
        self.0.time()
    }
    fn set_time(&mut self, time: u64) {
        self.0.set_time(time);
    }
    fn peek(&self, id: SignalId) -> Logic {
        self.0.peek(id)
    }
    fn peek_word(&self, id: SignalId, index: u64) -> Logic {
        self.0.peek_word(id, index)
    }
    fn stage(&mut self, id: SignalId, value: Logic) {
        self.0.stage(id, value);
    }
    fn poke(&mut self, id: SignalId, value: Logic) -> Result<(), SimError> {
        self.0.poke(id, value)
    }
    fn settle(&mut self) -> Result<(), SimError> {
        self.0.settle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elab::elaborate;
    use uvllm_verilog::parse;

    /// Runs `check` over `src`, every `zeroed` input poked to 0 first.
    fn on_the_kernel(
        src: &str,
        zeroed: &[&str],
        check: impl Fn(&mut Simulator, &dyn Fn(&str) -> SignalId),
    ) {
        let file = parse(src).unwrap();
        let design =
            Arc::new(elaborate(&file, file.top().map(|m| m.name_of(m.name)).unwrap()).unwrap());
        let id = |name: &str| design.signal_id(name).unwrap();
        let mut sim = Simulator::from_arc(Arc::clone(&design)).unwrap();
        for name in zeroed {
            sim.poke(id(name), Logic::zeros(1)).unwrap();
        }
        check(&mut sim, &id);
    }

    fn known(sim: &Simulator, name: &str) -> Option<u128> {
        sim.peek_by_name(name).unwrap().to_u128()
    }

    #[test]
    fn staged_inputs_run_nothing_until_the_settle_and_then_land_together() {
        on_the_kernel(
            "module add(input [7:0] a, input [7:0] b, output [8:0] y);\n\
             assign y = a + b;\nendmodule\n",
            &["a", "b"],
            |sim, id| {
                sim.stage(id("a"), Logic::from_u128(8, 200));
                sim.stage(id("b"), Logic::from_u128(8, 100));
                assert_eq!(known(sim, "a"), Some(200), "a staged value is written");
                assert_eq!(known(sim, "y"), Some(0), "and nothing has run");
                sim.settle().unwrap();
                assert_eq!(known(sim, "y"), Some(300));
                // A poke drains what was staged before it ...
                sim.stage(id("a"), Logic::from_u128(8, 1));
                sim.poke(id("b"), Logic::from_u128(8, 2)).unwrap();
                assert_eq!(known(sim, "y"), Some(3));
                // ... even one that changes nothing itself.
                sim.stage(id("a"), Logic::from_u128(8, 5));
                sim.poke(id("b"), Logic::from_u128(8, 2)).unwrap();
                assert_eq!(known(sim, "y"), Some(7));
            },
        );
    }

    #[test]
    fn a_process_woken_through_one_signal_sees_every_value_of_the_batch() {
        // Poked one after the other, `a` wakes the block while `b` is
        // still X (`sched::tests::incomplete_sensitivity_is_honoured`);
        // in one time step it reads the new `b`. The missing entry is
        // still honoured: `b` alone wakes nothing.
        on_the_kernel(
            "module m(input a, input b, output reg y);\nalways @(a) y = a & b;\nendmodule\n",
            &[],
            |sim, id| {
                sim.stage(id("a"), Logic::bit(true));
                sim.stage(id("b"), Logic::bit(true));
                sim.settle().unwrap();
                assert_eq!(known(sim, "y"), Some(1));
                sim.stage(id("b"), Logic::bit(false));
                sim.settle().unwrap();
                assert_eq!(known(sim, "y"), Some(1), "b is not listened to");
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
            on_the_kernel(&src, &["a", "b"], |sim, id| {
                let start = known(sim, "n").unwrap();
                sim.stage(id("a"), Logic::bit(true));
                sim.stage(id("b"), Logic::bit(true));
                sim.settle().unwrap();
                assert_eq!(known(sim, "n"), Some(start + 1), "@({list})");
                // Two time steps are two wake-ups.
                sim.stage(id("a"), Logic::bit(false));
                sim.stage(id("b"), Logic::bit(false));
                sim.settle().unwrap();
                let low = known(sim, "n").unwrap();
                sim.poke(id("a"), Logic::bit(true)).unwrap();
                sim.poke(id("b"), Logic::bit(true)).unwrap();
                assert_eq!(known(sim, "n"), Some(low + 2), "@({list})");
            });
        }
    }

    #[test]
    fn a_staged_batch_still_lets_a_process_miss_its_own_events() {
        // The for-loop divider resets and rebuilds the outputs it reads:
        // woken once by the batch, it must not wake itself.
        on_the_kernel(
            "module div(input [3:0] a, input [3:0] b, output reg [3:0] q, output reg [3:0] r);\n\
             integer i;\nalways @(*) begin\nq = 4'd0;\nr = 4'd0;\n\
             for (i = 3; i >= 0; i = i - 1) begin\nr = {r[2:0], a[i]};\n\
             if (r >= b) begin\nr = r - b;\nq[i] = 1'b1;\nend\nend\nend\nendmodule\n",
            &[],
            |sim, id| {
                sim.stage(id("a"), Logic::from_u128(4, 13));
                sim.stage(id("b"), Logic::from_u128(4, 4));
                sim.settle().unwrap();
                assert_eq!((known(sim, "q"), known(sim, "r")), (Some(3), Some(1)));
            },
        );
    }

    #[test]
    fn a_process_woken_again_after_it_ran_runs_again() {
        // `a` wakes both blocks; the first has already run (on the old
        // `t`) when the second writes `t`, so that write must queue it
        // a second time — the wake-once flag is cleared as a process
        // starts, not when the drive ends.
        on_the_kernel(
            "module m(input a, output reg y);\nreg t;\n\
             always @(a or t) y = a ^ t;\nalways @(a) t = ~a;\nendmodule\n",
            &["a"],
            |sim, id| {
                assert_eq!((known(sim, "t"), known(sim, "y")), (Some(1), Some(1)));
                sim.stage(id("a"), Logic::bit(true));
                sim.settle().unwrap();
                assert_eq!((known(sim, "t"), known(sim, "y")), (Some(0), Some(1)));
            },
        );
    }
}
