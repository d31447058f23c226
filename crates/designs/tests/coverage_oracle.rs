//! `uvllm_uvm::Coverage` against the collector it replaced, on every
//! golden design: the bit-mask bins and the shifted bin index must
//! report the same `input_coverage` / `toggle_coverage`, bit for bit,
//! as the per-input `HashSet` with its `u128` multiply and division.
//! The old collector lives on here as the oracle, fed from the
//! waveform of the very run whose summary is checked.

use std::collections::HashSet;
use uvllm_sim::Logic;
use uvllm_uvm::{Environment, RandomSequence, Sequence};

/// The pre-bit-mask collector, arithmetic untouched.
#[derive(Default)]
struct HashSetCoverage {
    /// Input slot → (width, bins hit).
    input_bins: Vec<(u32, HashSet<u32>)>,
    /// Output slot → (width, bits seen 0, bits seen 1).
    toggles: Vec<(u32, u128, u128)>,
}

const BINS: u32 = 16;

impl HashSetCoverage {
    fn sample(&mut self, inputs: &[Logic], outputs: &[Logic]) {
        if self.input_bins.len() < inputs.len() {
            self.input_bins.resize_with(inputs.len(), || (0, HashSet::new()));
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
                let w = entry.0;
                let total = if w >= 32 { u128::MAX } else { 1u128 << w };
                let nbins = total.min(BINS as u128) as u32;
                let bin = if total <= BINS as u128 {
                    val as u32
                } else {
                    ((val.saturating_mul(nbins as u128)) / total) as u32
                };
                entry.1.insert(bin.min(nbins - 1));
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

    fn input_coverage(&self) -> f64 {
        if self.input_bins.is_empty() {
            return 1.0;
        }
        let mut hit = 0usize;
        let mut total = 0usize;
        for (w, bins) in &self.input_bins {
            let space = if *w >= 32 { BINS } else { (1u64 << w).min(BINS as u64) as u32 };
            total += space as usize;
            hit += bins.len().min(space as usize);
        }
        hit as f64 / total as f64
    }

    fn toggle_coverage(&self) -> f64 {
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

#[test]
fn coverage_of_every_golden_design_is_bit_equal_to_the_hashset_collector() {
    const CYCLES: usize = 4000;
    for d in uvllm_designs::all() {
        let iface = (d.iface)();
        let seqs: Vec<Box<dyn Sequence>> =
            vec![Box::new(RandomSequence::new(&iface.inputs, CYCLES, 0xC0FE))];
        let summary = Environment::from_source(d.source, d.name, iface.clone(), (d.model)(), seqs)
            .unwrap_or_else(|e| panic!("{}: {e}", d.name))
            .run();
        assert!(summary.all_passed(), "{}: golden run must pass", d.name);
        assert_eq!(summary.waveform.len(), CYCLES, "{}: one frame per sampled cycle", d.name);

        // The environment samples coverage from the pins it observes
        // right after the frame is captured: replay the frames.
        let mut oracle = HashSetCoverage::default();
        let pins = |ports: &[uvllm_uvm::PortSig], cycle: usize| -> Vec<Logic> {
            ports
                .iter()
                .map(|p| summary.waveform.value_at_index(&p.name, cycle).expect("port recorded"))
                .collect()
        };
        for cycle in 0..CYCLES {
            oracle.sample(&pins(&iface.inputs, cycle), &pins(&iface.outputs, cycle));
        }
        assert_eq!(
            summary.input_coverage.to_bits(),
            oracle.input_coverage().to_bits(),
            "{}: input coverage {} vs {}",
            d.name,
            summary.input_coverage,
            oracle.input_coverage()
        );
        assert_eq!(
            summary.toggle_coverage.to_bits(),
            oracle.toggle_coverage().to_bits(),
            "{}: toggle coverage {} vs {}",
            d.name,
            summary.toggle_coverage,
            oracle.toggle_coverage()
        );
    }
}
