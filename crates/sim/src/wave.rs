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
#[derive(Debug, Clone, Default)]
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

    /// Signal ids in the same order as [`Waveform::names`].
    pub fn ids(&self) -> &[SignalId] {
        &self.ids
    }

    /// Capture timestamps.
    pub fn times(&self) -> &[u64] {
        &self.times
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

    /// Exports the waveform as a standard VCD document, viewable in
    /// GTKWave and friends. Each capture becomes one `#time` block.
    pub fn to_vcd(&self, top: &str) -> String {
        let mut out = String::new();
        out.push_str("$version uvllm-sim $end\n$timescale 1ns $end\n");
        out.push_str(&format!("$scope module {top} $end\n"));
        // VCD id codes: printable ASCII starting at '!'.
        let id = |i: usize| -> String {
            let mut n = i;
            let mut s = String::new();
            loop {
                s.push((b'!' + (n % 94) as u8) as char);
                n /= 94;
                if n == 0 {
                    break;
                }
            }
            s
        };
        let widths: Vec<u32> = self
            .frames
            .first()
            .map(|f| f.iter().map(|l| l.width()).collect())
            .unwrap_or_else(|| vec![1; self.names.len()]);
        for (i, name) in self.names.iter().enumerate() {
            let w = widths.get(i).copied().unwrap_or(1);
            // Hierarchical separators are not legal in VCD identifiers.
            let clean = name.replace('.', "_");
            out.push_str(&format!("$var wire {w} {} {clean} $end\n", id(i)));
        }
        out.push_str("$upscope $end\n$enddefinitions $end\n");
        let mut last: Vec<Option<Logic>> = vec![None; self.names.len()];
        for (t, frame) in self.times.iter().zip(&self.frames) {
            out.push_str(&format!("#{t}\n"));
            for (i, v) in frame.iter().enumerate() {
                if last[i] == Some(*v) {
                    continue;
                }
                last[i] = Some(*v);
                if v.width() == 1 {
                    out.push_str(&format!("{}{}\n", bit_char(*v, 0), id(i)));
                } else {
                    out.push('b');
                    for bit in (0..v.width()).rev() {
                        out.push(bit_char(*v, bit));
                    }
                    out.push_str(&format!(" {}\n", id(i)));
                }
            }
        }
        out
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

/// The VCD character for bit `index` of `v`.
fn bit_char(v: Logic, index: u32) -> char {
    let b = v.get_bit(index);
    match (b.xz() & 1, b.val() & 1) {
        (0, 0) => '0',
        (0, 1) => '1',
        (1, 0) => 'x',
        _ => 'z',
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
    fn vcd_export_is_wellformed() {
        let mut sim = counter_sim();
        let mut wave = Waveform::new(&sim);
        sim.poke_by_name("rst_n", Logic::bit(false)).unwrap();
        sim.poke_by_name("rst_n", Logic::bit(true)).unwrap();
        for t in 0..3u64 {
            sim.set_time(t * 10);
            sim.poke_by_name("clk", Logic::bit(true)).unwrap();
            wave.capture(&sim);
            sim.poke_by_name("clk", Logic::bit(false)).unwrap();
        }
        let vcd = wave.to_vcd("c");
        assert!(vcd.contains("$enddefinitions $end"));
        assert!(vcd.contains("$var wire 4"));
        assert!(vcd.contains("#0"));
        assert!(vcd.contains("#20"));
        // Unchanged signals are not re-emitted.
        let q_lines = vcd.lines().filter(|l| l.starts_with('b')).count();
        assert!(q_lines >= 3, "q changes every cycle: {vcd}");
    }

    #[test]
    fn unknown_name_yields_none() {
        let sim = counter_sim();
        let wave = Waveform::new(&sim);
        assert!(wave.value_at("zz", 0).is_none());
        assert!(wave.is_empty());
    }
}
