//! Stimulus sequences: constrained-random, directed and corner-case.

use crate::iface::{PortSig, Transaction};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use uvllm_sim::Logic;

/// A source of transactions, played by the sequencer.
///
/// `next` returns `None` when the sequence is exhausted.
pub trait Sequence {
    /// Display name used in logs.
    fn name(&self) -> &str;
    /// Produces the transaction for `cycle`, or `None` when done.
    fn next(&mut self, cycle: usize) -> Option<Transaction>;

    /// Writes the transaction for `cycle` into `txn`, reusing its
    /// allocations where possible; returns `false` when exhausted.
    ///
    /// The environment's run loop keeps one transaction buffer alive
    /// across the whole run, so long sequences that override this (the
    /// 800-cycle random campaigns) produce stimulus with zero per-cycle
    /// allocations. The default delegates to [`Sequence::next`] and
    /// replaces `txn` wholesale — correct for any sequence, reusing
    /// nothing.
    fn next_into(&mut self, cycle: usize, txn: &mut Transaction) -> bool {
        match self.next(cycle) {
            Some(t) => {
                *txn = t;
                true
            }
            None => false,
        }
    }
}

/// Uniform random stimulus over every input, seeded for reproducibility.
#[derive(Debug)]
pub struct RandomSequence {
    inputs: Vec<PortSig>,
    len: usize,
    produced: usize,
    rng: StdRng,
}

impl RandomSequence {
    /// `len` random transactions over `inputs` from `seed`.
    pub fn new(inputs: &[PortSig], len: usize, seed: u64) -> Self {
        RandomSequence {
            inputs: inputs.to_vec(),
            len,
            produced: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Sequence for RandomSequence {
    fn name(&self) -> &str {
        "random"
    }

    fn next(&mut self, cycle: usize) -> Option<Transaction> {
        // One source of truth for the seeded stream: both paths must
        // replay identical transactions for campaign determinism.
        let mut t = Transaction::new();
        self.next_into(cycle, &mut t).then_some(t)
    }

    /// In-place refill: the key set is every input, inserted in input
    /// order on the first cycle, so from then on input *i* is updated in
    /// entry *i* and the random phase of a run allocates nothing and
    /// searches nothing per cycle.
    fn next_into(&mut self, _cycle: usize, txn: &mut Transaction) -> bool {
        if self.produced >= self.len {
            return false;
        }
        self.produced += 1;
        for (i, p) in self.inputs.iter().enumerate() {
            let lo: u128 = self.rng.random::<u64>() as u128;
            let hi: u128 = self.rng.random::<u64>() as u128;
            let v = Logic::from_u128(p.width, (hi << 64) | lo);
            match txn.slot_mut(i, &p.name) {
                Some(slot) => *slot = v,
                None => {
                    txn.insert(p.name.clone(), v);
                }
            }
        }
        true
    }
}

/// Replays a fixed vector list — the "finite test cases" style of
/// testbench the paper criticises in MEIC-like flows.
#[derive(Debug, Clone)]
pub struct DirectedSequence {
    name: String,
    vectors: Vec<Transaction>,
    at: usize,
}

impl DirectedSequence {
    /// Creates a directed sequence from explicit vectors.
    pub fn new(name: impl Into<String>, vectors: Vec<Transaction>) -> Self {
        DirectedSequence { name: name.into(), vectors, at: 0 }
    }

    /// Number of vectors.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// True when no vectors are present.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }
}

impl Sequence for DirectedSequence {
    fn name(&self) -> &str {
        &self.name
    }

    fn next(&mut self, _cycle: usize) -> Option<Transaction> {
        let t = self.vectors.get(self.at).cloned();
        self.at += 1;
        t
    }
}

/// Corner-case stimulus: all-zeros, all-ones, walking-one per input,
/// plus alternating patterns — the coverage-closing tail of a UVM run.
#[derive(Debug)]
pub struct CornerSequence {
    patterns: Vec<Transaction>,
    at: usize,
}

impl CornerSequence {
    /// Builds the pattern table for `inputs`.
    pub fn new(inputs: &[PortSig]) -> Self {
        let mut patterns = Vec::new();
        let uniform = |f: &dyn Fn(u32) -> u128| {
            let mut t = Transaction::new();
            for p in inputs {
                t.insert(p.name.clone(), Logic::from_u128(p.width, f(p.width)));
            }
            t
        };
        patterns.push(uniform(&|_| 0));
        patterns.push(uniform(&|w| uvllm_sim::logic::mask(w)));
        patterns.push(uniform(&|w| uvllm_sim::logic::mask(w) & 0xAAAA_AAAA_AAAA_AAAA));
        patterns.push(uniform(&|w| uvllm_sim::logic::mask(w) & 0x5555_5555_5555_5555));
        // Walking one across the widest input, others held at 1.
        let max_w = inputs.iter().map(|p| p.width).max().unwrap_or(1);
        for bit in 0..max_w.min(16) {
            let mut t = Transaction::new();
            for p in inputs {
                let v = if p.width > bit { 1u128 << bit } else { 1 };
                t.insert(p.name.clone(), Logic::from_u128(p.width, v));
            }
            patterns.push(t);
        }
        CornerSequence { patterns, at: 0 }
    }

    /// Number of patterns produced.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// True when there are no patterns (no inputs).
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }
}

impl Sequence for CornerSequence {
    fn name(&self) -> &str {
        "corner"
    }

    fn next(&mut self, _cycle: usize) -> Option<Transaction> {
        let t = self.patterns.get(self.at).cloned();
        self.at += 1;
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ports() -> Vec<PortSig> {
        vec![PortSig::new("a", 8), PortSig::new("b", 4)]
    }

    #[test]
    fn random_sequence_is_deterministic() {
        let collect = |seed| {
            let mut s = RandomSequence::new(&ports(), 5, seed);
            let mut out = Vec::new();
            let mut i = 0;
            while let Some(t) = s.next(i) {
                out.push(t);
                i += 1;
            }
            out
        };
        assert_eq!(collect(7), collect(7));
        assert_ne!(collect(7), collect(8));
        assert_eq!(collect(7).len(), 5);
    }

    #[test]
    fn random_values_respect_width() {
        let mut s = RandomSequence::new(&ports(), 100, 1);
        let mut i = 0;
        while let Some(t) = s.next(i) {
            assert!(t["b"].to_u128().unwrap() < 16);
            i += 1;
        }
    }

    #[test]
    fn directed_sequence_replays() {
        let v = vec![
            Transaction::new().with("a", Logic::from_u128(8, 1)),
            Transaction::new().with("a", Logic::from_u128(8, 2)),
        ];
        let mut s = DirectedSequence::new("smoke", v);
        assert_eq!(s.len(), 2);
        assert!(s.next(0).is_some());
        assert!(s.next(1).is_some());
        assert!(s.next(2).is_none());
    }

    #[test]
    fn corner_sequence_covers_extremes() {
        let mut s = CornerSequence::new(&ports());
        let first = s.next(0).unwrap();
        assert_eq!(first["a"].to_u128(), Some(0));
        let second = s.next(1).unwrap();
        assert_eq!(second["a"].to_u128(), Some(0xff));
        assert_eq!(second["b"].to_u128(), Some(0xf));
        assert!(s.len() >= 8);
    }
}
