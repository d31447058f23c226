//! Scoreboard: per-cycle comparison of DUT outputs against the reference
//! model, plus functional coverage collection.
//!
//! Both collectors work over the environment's slot-ordered observation
//! buffers (see [`crate::refmodel::IoSpec`]): the comparison loop walks
//! two `Logic` slices index by index, so the steady state performs no
//! name lookups and no allocations — names are materialised only when a
//! mismatch is actually recorded.

use crate::refmodel::IoSpec;
use std::collections::HashSet;
use uvllm_sim::Logic;

/// One observed deviation between the DUT and the reference model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// Simulation time at which the comparison was made.
    pub time: u64,
    /// Cycle index within the run.
    pub cycle: usize,
    /// Output signal that deviated.
    pub signal: String,
    pub expected: Logic,
    pub actual: Logic,
}

/// Limit on the mismatch records Algorithm 2 forwards to a prompt
/// (token budget).
pub const MAX_MISMATCH_RECORDS: usize = 5;

/// Which of a run's mismatch records Algorithm 2 keeps, decided in log
/// order: at most [`MAX_MISMATCH_RECORDS`], two per signal. Once the
/// limit is reached or every output has its two, no later record can
/// be kept ([`KeptRecords::is_done`]). The environment asks it which
/// cycles need a waveform frame, post-processing which records to
/// read, so both keep the same ones.
#[derive(Debug, Clone, Default)]
pub struct KeptRecords {
    outputs: usize,
    /// Indices of the kept records.
    kept: Vec<usize>,
    /// Signals with two kept records.
    full: usize,
}

impl KeptRecords {
    /// The filter for a run of a DUT with `outputs` output ports.
    pub fn new(outputs: usize) -> Self {
        KeptRecords { outputs, kept: Vec::new(), full: 0 }
    }

    /// Offers `records[index]`, the next record in log order; true when
    /// it is kept.
    pub fn offer(&mut self, records: &[Mismatch], index: usize) -> bool {
        if self.is_done() {
            return false;
        }
        let signal = &records[index].signal;
        let before = self.kept.iter().filter(|&&k| records[k].signal == *signal).count();
        if before >= 2 {
            return false;
        }
        if before == 1 {
            self.full += 1;
        }
        self.kept.push(index);
        true
    }

    /// True when no later record can be kept.
    pub fn is_done(&self) -> bool {
        self.kept.len() >= MAX_MISMATCH_RECORDS || self.full == self.outputs
    }
}

/// Accumulates comparison outcomes; its pass rate is the score the
/// rollback mechanism uses (§III-C of the paper).
#[derive(Debug, Clone, Default)]
pub struct Scoreboard {
    checked_cycles: usize,
    passed_cycles: usize,
    mismatches: Vec<Mismatch>,
}

impl Scoreboard {
    /// New empty scoreboard.
    pub fn new() -> Self {
        Scoreboard::default()
    }

    /// Compares one cycle of outputs, slot by slot; records any
    /// mismatches. `expected` and `actual` must be in `spec` output-slot
    /// order. Returns `true` when the cycle passed.
    pub fn check_cycle(
        &mut self,
        time: u64,
        cycle: usize,
        spec: &IoSpec,
        expected: &[Logic],
        actual: &[Logic],
    ) -> bool {
        self.checked_cycles += 1;
        let mut ok = true;
        for (slot, exp) in expected.iter().enumerate() {
            let act = actual[slot];
            // Four-state aware comparison: values must be literally
            // identical (an X where a value was expected is a failure).
            if act.resize(exp.width()) != *exp {
                ok = false;
                self.mismatches.push(Mismatch {
                    time,
                    cycle,
                    signal: spec.output_name(slot).to_string(),
                    expected: *exp,
                    actual: act,
                });
            }
        }
        if ok {
            self.passed_cycles += 1;
        }
        ok
    }

    /// Fraction of checked cycles that fully matched, in `[0, 1]`.
    /// An unchecked run scores 0.
    pub fn pass_rate(&self) -> f64 {
        if self.checked_cycles == 0 {
            0.0
        } else {
            self.passed_cycles as f64 / self.checked_cycles as f64
        }
    }

    /// Cycles compared so far.
    pub fn checked_cycles(&self) -> usize {
        self.checked_cycles
    }

    /// All recorded mismatches in time order.
    pub fn mismatches(&self) -> &[Mismatch] {
        &self.mismatches
    }

    /// Hands the recorded mismatches over, in time order — the end of a
    /// run moves them into its summary instead of cloning every
    /// signal name.
    pub fn into_mismatches(self) -> Vec<Mismatch> {
        self.mismatches
    }

    /// Distinct mismatching signal names, in first-seen order.
    pub fn mismatch_signals(&self) -> Vec<String> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for m in &self.mismatches {
            if seen.insert(m.signal.clone()) {
                out.push(m.signal.clone());
            }
        }
        out
    }

    /// True when every checked cycle passed (and at least one ran).
    pub fn all_passed(&self) -> bool {
        self.checked_cycles > 0 && self.mismatches.is_empty()
    }
}

/// Functional coverage: value bins per input and toggle coverage per
/// output, in the spirit of UVM covergroups.
///
/// Collectors are slot-indexed vectors sized on first sample, so the
/// per-cycle path is plain indexing and bit operations — no hashing,
/// no name lookups, no allocations.
#[derive(Debug, Clone, Default)]
pub struct Coverage {
    /// Input slot → (width, mask of the bins hit: bit `b` is bin `b`).
    input_bins: Vec<(u32, u16)>,
    /// Output slot → (width, bits seen 0, bits seen 1).
    toggles: Vec<(u32, u128, u128)>,
}

/// Number of value bins per input signal (one bit each of a `u16`).
const BINS: u32 = 16;

/// Value bins of a `width`-bit input: one per value up to [`BINS`].
fn bin_count(width: u32) -> u32 {
    if width >= 32 {
        BINS
    } else {
        (1u64 << width).min(BINS as u64) as u32
    }
}

/// The bin `val` of a `width`-bit input falls into: equal-width bins
/// over the value space, i.e. the top four bits of a value wider than
/// four bits.
fn input_bin(width: u32, val: u128) -> u32 {
    let bin = if width <= 4 {
        val as u32
    } else if width < 32 {
        (val >> (width - 4)) as u32
    } else {
        // Inputs of 32 bits and more keep the original arithmetic,
        // whose value space is pinned at `u128::MAX`.
        (val.saturating_mul(BINS as u128) / u128::MAX) as u32
    };
    bin.min(bin_count(width) - 1)
}

impl Coverage {
    /// New empty coverage collector.
    pub fn new() -> Self {
        Coverage::default()
    }

    /// Samples one cycle of activity over slot-ordered buffers. Widths
    /// are captured from the first sample; collectors grow only if the
    /// slot count does (i.e. never, in the steady state).
    pub fn sample(&mut self, inputs: &[Logic], outputs: &[Logic]) {
        if self.input_bins.len() < inputs.len() {
            self.input_bins.resize(inputs.len(), (0, 0));
        }
        if self.toggles.len() < outputs.len() {
            self.toggles.resize(outputs.len(), (0, 0, 0));
        }
        for (slot, v) in inputs.iter().enumerate() {
            let entry = &mut self.input_bins[slot];
            if entry.0 == 0 {
                entry.0 = v.width();
            }
            if let Some(val) = v.to_u128() {
                entry.1 |= 1 << input_bin(entry.0, val);
            }
        }
        for (slot, v) in outputs.iter().enumerate() {
            let entry = &mut self.toggles[slot];
            if entry.0 == 0 {
                entry.0 = v.width();
            }
            let known = !v.xz();
            entry.1 |= !v.val() & known & uvllm_sim::logic::mask(v.width());
            entry.2 |= v.val() & known;
        }
    }

    /// Fraction of input value bins hit, in `[0, 1]`.
    pub fn input_coverage(&self) -> f64 {
        if self.input_bins.is_empty() {
            return 1.0;
        }
        let mut hit = 0u32;
        let mut total = 0u32;
        for (w, bins) in &self.input_bins {
            total += bin_count(*w);
            hit += bins.count_ones();
        }
        hit as f64 / total as f64
    }

    /// Fraction of output bits observed at both 0 and 1, in `[0, 1]`.
    pub fn toggle_coverage(&self) -> f64 {
        if self.toggles.is_empty() {
            return 1.0;
        }
        let mut toggled = 0u32;
        let mut total = 0u32;
        for (w, zeros, ones) in &self.toggles {
            let w = (*w).max(1);
            total += w;
            toggled += (zeros & ones).count_ones().min(w);
        }
        if total == 0 {
            1.0
        } else {
            toggled as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iface::PortSig;

    fn spec_y(width: u32) -> IoSpec {
        IoSpec::from_ports(&[], &[PortSig::new("y", width)])
    }

    fn vals(pairs: &[(u32, u128)]) -> Vec<Logic> {
        pairs.iter().map(|(w, v)| Logic::from_u128(*w, *v)).collect()
    }

    #[test]
    fn scoreboard_tracks_pass_rate() {
        let spec = spec_y(8);
        let mut sb = Scoreboard::new();
        let exp = vals(&[(8, 10)]);
        assert!(sb.check_cycle(0, 0, &spec, &exp, &vals(&[(8, 10)])));
        assert!(!sb.check_cycle(10, 1, &spec, &exp, &vals(&[(8, 11)])));
        assert!((sb.pass_rate() - 0.5).abs() < 1e-9);
        assert_eq!(sb.mismatches().len(), 1);
        assert_eq!(sb.mismatch_signals(), vec!["y".to_string()]);
        assert!(!sb.all_passed());
    }

    #[test]
    fn x_output_counts_as_mismatch() {
        let spec = spec_y(4);
        let mut sb = Scoreboard::new();
        let exp = vals(&[(4, 0)]);
        assert!(!sb.check_cycle(0, 0, &spec, &exp, &[Logic::xs(4)]));
    }

    #[test]
    fn expected_x_matches_actual_x_only() {
        // A model that expects unknown (e.g. an unwritten RAM word)
        // passes against an X DUT output and fails against a value.
        let spec = spec_y(4);
        let mut sb = Scoreboard::new();
        assert!(sb.check_cycle(0, 0, &spec, &[Logic::xs(4)], &[Logic::xs(4)]));
        assert!(!sb.check_cycle(10, 1, &spec, &[Logic::xs(4)], &vals(&[(4, 2)])[..]));
    }

    #[test]
    fn narrow_actual_is_resized_for_comparison() {
        // A mutated DUT whose port shrank: `resize` zero-extends, so
        // the comparison passes while the expected high bits are 0 and
        // fails as soon as the expectation carries a 1 in a truncated
        // bit — a narrowed port is caught only when the value space
        // actually needs the missing bits.
        let spec = spec_y(8);
        let mut sb = Scoreboard::new();
        let exp = vals(&[(8, 3)]);
        assert!(sb.check_cycle(0, 0, &spec, &exp, &vals(&[(4, 3)])));
        assert!(!sb.check_cycle(10, 1, &spec, &vals(&[(8, 0x83)]), &vals(&[(4, 3)])));
    }

    #[test]
    fn empty_scoreboard_scores_zero() {
        assert_eq!(Scoreboard::new().pass_rate(), 0.0);
        assert!(!Scoreboard::new().all_passed());
    }

    #[test]
    fn coverage_bins_fill_up() {
        let mut cov = Coverage::new();
        // 1-bit input: two bins.
        cov.sample(&vals(&[(1, 0)]), &vals(&[(1, 0)]));
        assert!(cov.input_coverage() < 1.0);
        cov.sample(&vals(&[(1, 1)]), &vals(&[(1, 1)]));
        assert!((cov.input_coverage() - 1.0).abs() < 1e-9);
        assert!((cov.toggle_coverage() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn toggle_requires_both_values() {
        let mut cov = Coverage::new();
        cov.sample(&[], &vals(&[(2, 0b01)]));
        // Bit0 saw 1, bit1 saw 0 — nothing toggled yet.
        assert_eq!(cov.toggle_coverage(), 0.0);
        cov.sample(&[], &vals(&[(2, 0b10)]));
        assert!((cov.toggle_coverage() - 1.0).abs() < 1e-9);
    }

    /// The bin arithmetic `Coverage::sample` used before the shift:
    /// a saturating `u128` multiply and a `u128` division per value.
    fn bin_by_division(w: u32, val: u128) -> u32 {
        let total = if w >= 32 { u128::MAX } else { 1u128 << w };
        let nbins = total.min(BINS as u128) as u32;
        let bin = if total <= BINS as u128 {
            val as u32
        } else {
            ((val.saturating_mul(nbins as u128)) / total) as u32
        };
        bin.min(nbins - 1)
    }

    #[test]
    fn shifted_bin_index_equals_the_division_it_replaced() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xB1A5);
        for w in 1..=40u32 {
            let mask = uvllm_sim::logic::mask(w);
            // Both ends of the value space, then 2000 seeded draws.
            let edges = [0, 1, mask >> 1, (mask >> 1) + 1, mask - 1, mask];
            let draws = (0..2000).map(|_| rng.random::<u64>() as u128 & mask);
            for val in edges.into_iter().chain(draws) {
                assert_eq!(input_bin(w, val), bin_by_division(w, val), "width {w}, value {val:#x}");
            }
        }
    }

    #[test]
    fn wide_input_bins_are_bucketed() {
        let mut cov = Coverage::new();
        for v in 0..=255u128 {
            cov.sample(&vals(&[(8, v)]), &[]);
        }
        assert!((cov.input_coverage() - 1.0).abs() < 1e-9);
    }
}
