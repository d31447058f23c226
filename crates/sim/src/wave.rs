//! Waveform capture: per-cycle snapshots of scalar signal values.
//!
//! The UVLLM localization engine (Algorithm 2) queries waveforms for
//! input values at mismatch timestamps, so the recorder favours simple
//! time-indexed snapshots over VCD-style change lists.

use crate::backend::SimControl;
use crate::elab::SignalId;
use crate::logic::Logic;
use std::collections::HashMap;
use std::sync::Arc;

/// A recorded waveform: one snapshot of every scalar signal per capture.
/// Two waveforms are equal when they record the same signals, at the
/// same times, with the same values.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Waveform {
    /// Signal names in snapshot order (shared with every [`Frame`]).
    names: Arc<Vec<String>>,
    ids: Vec<SignalId>,
    /// Capture timestamps (monotonically non-decreasing).
    times: Vec<u64>,
    /// `frames[t][s]` = value of signal `s` at capture `t`.
    frames: Vec<Vec<Logic>>,
}

impl Waveform {
    /// Creates an empty waveform recorder for `sim`'s design (works on
    /// anything that implements [`SimControl`]).
    pub fn new<S: SimControl + ?Sized>(sim: &S) -> Self {
        let design = sim.design();
        let ids: Vec<SignalId> = sim.scalar_values().into_iter().map(|(id, _)| id).collect();
        let names = ids.iter().map(|&id| design.signal_name(id).to_string()).collect();
        Waveform { names: Arc::new(names), ids, times: Vec::new(), frames: Vec::new() }
    }

    /// Position of `name` in [`Waveform::names`].
    fn index(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Records the current state of `sim` at its current time.
    ///
    /// Called once per checked cycle; reads the pre-resolved signal ids
    /// directly so the only allocation is the frame itself.
    pub fn capture<S: SimControl + ?Sized>(&mut self, sim: &S) {
        self.times.push(sim.time());
        let mut frame = Vec::with_capacity(self.ids.len());
        for id in &self.ids {
            frame.push(sim.peek(*id));
        }
        self.frames.push(frame);
    }

    /// Number of captures taken.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Recorded signal names.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Value of `name` at the last capture with `time' <= time`.
    pub fn value_at(&self, name: &str, time: u64) -> Option<Logic> {
        let sig = self.index(name)?;
        let frame = match self.times.binary_search(&time) {
            Ok(mut i) => {
                // Multiple captures can share a timestamp; take the last.
                while i + 1 < self.times.len() && self.times[i + 1] == time {
                    i += 1;
                }
                i
            }
            Err(0) => return None,
            Err(i) => i - 1,
        };
        self.frames.get(frame).map(|f| f[sig])
    }

    /// Value of `name` at capture index `idx`.
    pub fn value_at_index(&self, name: &str, idx: usize) -> Option<Logic> {
        let sig = self.index(name)?;
        self.frames.get(idx).map(|f| f[sig])
    }

    /// All values of `name` across captures.
    pub fn series(&self, name: &str) -> Option<Vec<(u64, Logic)>> {
        let sig = self.index(name)?;
        Some(self.times.iter().zip(&self.frames).map(|(t, f)| (*t, f[sig])).collect())
    }

    /// Snapshot of every signal at the last capture with `time' <= time`,
    /// as a name → value map (used for dynamic slicing).
    pub fn snapshot_at(&self, time: u64) -> HashMap<String, Logic> {
        self.frame_at(time).map(|f| f.to_map()).unwrap_or_default()
    }

    /// The capture [`Waveform::snapshot_at`] reads, kept as it was
    /// recorded: the values, and the waveform's names shared, not
    /// copied. `None` before the first capture.
    pub fn frame_at(&self, time: u64) -> Option<Frame> {
        let index = match self.times.binary_search(&time) {
            Ok(mut i) => {
                while i + 1 < self.times.len() && self.times[i + 1] == time {
                    i += 1;
                }
                i
            }
            Err(0) => return None,
            Err(i) => i - 1,
        };
        Some(Frame { names: Arc::clone(&self.names), values: self.frames[index].clone() })
    }
}

/// One capture of a [`Waveform`]: every recorded signal's value, by the
/// waveform's (shared) names.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    names: Arc<Vec<String>>,
    values: Vec<Logic>,
}

impl Frame {
    /// The value of signal `name`, if the frame records it.
    pub fn get(&self, name: &str) -> Option<Logic> {
        self.names.iter().position(|n| n == name).map(|i| self.values[i])
    }

    /// True when the frame records no signal.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The frame as a name → value map.
    pub fn to_map(&self) -> HashMap<String, Logic> {
        self.names.iter().cloned().zip(self.values.iter().copied()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elab::elaborate;
    use crate::sched::Simulator;
    use uvllm_verilog::parse;

    fn counter_sim() -> Simulator {
        let file = parse(
            "module c(input clk, input rst_n, output reg [3:0] q);\n\
             always @(posedge clk or negedge rst_n) begin\n\
             if (!rst_n) q <= 4'd0; else q <= q + 4'd1;\nend\nendmodule\n",
        )
        .unwrap();
        let d = elaborate(&file, "c").unwrap();
        Simulator::new(d).unwrap()
    }

    #[test]
    fn records_and_queries_series() {
        let mut sim = counter_sim();
        let mut wave = Waveform::new(&sim);
        sim.poke_by_name("rst_n", Logic::bit(false)).unwrap();
        sim.poke_by_name("clk", Logic::bit(false)).unwrap();
        sim.poke_by_name("rst_n", Logic::bit(true)).unwrap();
        for t in 0..4u64 {
            sim.set_time(t * 10);
            sim.poke_by_name("clk", Logic::bit(true)).unwrap();
            wave.capture(&sim);
            sim.poke_by_name("clk", Logic::bit(false)).unwrap();
        }
        assert_eq!(wave.len(), 4);
        assert_eq!(wave.value_at("q", 0).unwrap().to_u128(), Some(1));
        assert_eq!(wave.value_at("q", 30).unwrap().to_u128(), Some(4));
        // Query between captures resolves to the earlier one.
        assert_eq!(wave.value_at("q", 15).unwrap().to_u128(), Some(2));
        // Query before the first capture.
        assert!(wave.value_at("q", u64::MAX).is_some());
        let series = wave.series("q").unwrap();
        assert_eq!(series.len(), 4);
    }

    #[test]
    fn snapshot_contains_all_scalars() {
        let mut sim = counter_sim();
        let mut wave = Waveform::new(&sim);
        sim.poke_by_name("rst_n", Logic::bit(false)).unwrap();
        sim.set_time(5);
        wave.capture(&sim);
        let snap = wave.snapshot_at(5);
        assert!(snap.contains_key("clk"));
        assert!(snap.contains_key("q"));
        assert_eq!(snap["q"].to_u128(), Some(0));
    }

    #[test]
    fn unknown_name_yields_none() {
        let sim = counter_sim();
        let wave = Waveform::new(&sim);
        assert!(wave.value_at("zz", 0).is_none());
        assert!(wave.is_empty());
    }
}
