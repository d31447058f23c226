//! Stimulus sequences: constrained-random, directed and corner-case.
//!
//! A sequence resolves port names once: when it is built from an input
//! list, and when the environment binds it to its [`IoSpec`]
//! ([`Sequence::bind`]). From then on it fills the run's one reused
//! [`Transaction`] by slot, copying values and sharing the spec's names,
//! so a steady-state cycle allocates nothing.

use crate::iface::{PortSig, Transaction};
use crate::refmodel::IoSpec;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;
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
    /// across the whole run, so sequences that override this produce
    /// stimulus with zero per-cycle allocations (the random, directed
    /// and corner sequences do). The default delegates to
    /// [`Sequence::next`] and replaces `txn` wholesale — correct for any
    /// sequence, reusing nothing.
    fn next_into(&mut self, cycle: usize, txn: &mut Transaction) -> bool {
        match self.next(cycle) {
            Some(t) => {
                *txn = t;
                true
            }
            None => false,
        }
    }

    /// Resolves the sequence's names against `spec`, the interface of
    /// the environment about to play it, once before the first cycle. A
    /// sequence that then fills transactions over `spec.input_names()`
    /// in slot order is driven by slot; one that does not is driven by
    /// name, as any transaction can be. The default does nothing.
    fn bind(&mut self, spec: &IoSpec) {
        let _ = spec;
    }
}

/// The input names of `inputs`, in order, as one shareable list.
fn names_of(inputs: &[PortSig]) -> Arc<Vec<String>> {
    Arc::new(inputs.iter().map(|p| p.name.clone()).collect())
}

/// Switches `names` to `spec`'s list when it holds the same names in
/// the same order, so transactions filled over it drive by slot.
fn adopt(names: &mut Arc<Vec<String>>, spec: &IoSpec) {
    if **names == **spec.input_names() {
        *names = Arc::clone(spec.input_names());
    }
}

/// Uniform random stimulus over every input, seeded for reproducibility.
#[derive(Debug, Clone)]
pub struct RandomSequence {
    names: Arc<Vec<String>>,
    widths: Arc<[u32]>,
    len: usize,
    produced: usize,
    rng: StdRng,
}

impl RandomSequence {
    /// `len` random transactions over `inputs` from `seed`.
    pub fn new(inputs: &[PortSig], len: usize, seed: u64) -> Self {
        RandomSequence {
            names: names_of(inputs),
            widths: inputs.iter().map(|p| p.width).collect(),
            len,
            produced: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// `len` random transactions from `seed` over the inputs of this
    /// sequence, sharing its resolved names: what [`RandomSequence::new`]
    /// over the same inputs would play, built without copying a name.
    pub fn reseeded(&self, len: usize, seed: u64) -> Self {
        RandomSequence {
            names: Arc::clone(&self.names),
            widths: Arc::clone(&self.widths),
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

    /// In-place refill: input *i* is drawn into slot *i*, in input order.
    fn next_into(&mut self, _cycle: usize, txn: &mut Transaction) -> bool {
        if self.produced >= self.len {
            return false;
        }
        self.produced += 1;
        for (slot, width) in txn.slots_mut(&self.names).iter_mut().zip(self.widths.iter()) {
            let lo: u128 = self.rng.random::<u64>() as u128;
            let hi: u128 = self.rng.random::<u64>() as u128;
            *slot = Logic::from_u128(*width, (hi << 64) | lo);
        }
        true
    }

    fn bind(&mut self, spec: &IoSpec) {
        adopt(&mut self.names, spec);
    }
}

/// Replays a fixed vector list — the "finite test cases" style of
/// testbench the paper criticises in MEIC-like flows.
///
/// A clone shares the vectors and their resolution, and starts over.
#[derive(Debug, Clone)]
pub struct DirectedSequence {
    name: Arc<str>,
    vectors: Arc<[Transaction]>,
    /// The vectors resolved against a spec's inputs.
    bound: Option<Rows>,
    at: usize,
}

/// Transactions resolved against a spec's inputs: its name list and one
/// row of values per transaction, back to back.
#[derive(Debug, Clone)]
struct Rows {
    names: Arc<Vec<String>>,
    values: Arc<[Logic]>,
}

impl DirectedSequence {
    /// Creates a directed sequence from explicit vectors.
    pub fn new(name: impl Into<String>, vectors: Vec<Transaction>) -> Self {
        DirectedSequence { name: name.into().into(), vectors: vectors.into(), bound: None, at: 0 }
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

    fn next_into(&mut self, _cycle: usize, txn: &mut Transaction) -> bool {
        let Some(vector) = self.vectors.get(self.at) else { return false };
        match &self.bound {
            Some(Rows { names, values }) => {
                let at = self.at * names.len();
                txn.fill(names, &values[at..at + names.len()]);
            }
            None => txn.clone_from(vector),
        }
        self.at += 1;
        true
    }

    /// Each vector becomes a row in `spec`'s input order, holding the
    /// value the driver would find for each port by name: the vector's,
    /// or zero for a port it omits. Names that are no port drop out.
    fn bind(&mut self, spec: &IoSpec) {
        let names = spec.input_names();
        if matches!(&self.bound, Some(bound) if Arc::ptr_eq(&bound.names, names)) {
            return;
        }
        let mut rows = Vec::with_capacity(self.vectors.len() * names.len());
        for vector in self.vectors.iter() {
            for (name, width) in names.iter().zip(spec.input_widths()) {
                rows.push(vector.get(name).copied().unwrap_or_else(|| Logic::zeros(*width)));
            }
        }
        self.bound = Some(Rows { names: Arc::clone(names), values: rows.into() });
    }
}

/// Corner-case stimulus: all-zeros, all-ones, walking-one per input,
/// plus alternating patterns — the coverage-closing tail of a UVM run.
///
/// A clone shares the pattern table and starts over.
#[derive(Debug, Clone)]
pub struct CornerSequence {
    names: Arc<Vec<String>>,
    /// One row of values per pattern, in input order, back to back.
    rows: Arc<[Logic]>,
    patterns: usize,
    at: usize,
}

impl CornerSequence {
    /// Builds the pattern table for `inputs`.
    pub fn new(inputs: &[PortSig]) -> Self {
        let max_w = inputs.iter().map(|p| p.width).max().unwrap_or(1);
        let patterns = 4 + max_w.min(16) as usize;
        let mut rows = Vec::with_capacity(patterns * inputs.len());
        let mut uniform = |f: &dyn Fn(u32) -> u128| {
            rows.extend(inputs.iter().map(|p| Logic::from_u128(p.width, f(p.width))));
        };
        uniform(&|_| 0);
        uniform(&|w| uvllm_sim::logic::mask(w));
        uniform(&|w| uvllm_sim::logic::mask(w) & 0xAAAA_AAAA_AAAA_AAAA);
        uniform(&|w| uvllm_sim::logic::mask(w) & 0x5555_5555_5555_5555);
        // Walking one across the widest input, others held at 1.
        for bit in 0..max_w.min(16) {
            rows.extend(inputs.iter().map(|p| {
                let v = if p.width > bit { 1u128 << bit } else { 1 };
                Logic::from_u128(p.width, v)
            }));
        }
        CornerSequence { names: names_of(inputs), rows: rows.into(), patterns, at: 0 }
    }

    /// Number of patterns produced.
    pub fn len(&self) -> usize {
        self.patterns
    }

    /// True when there are no patterns.
    pub fn is_empty(&self) -> bool {
        self.patterns == 0
    }

    /// Pattern `at`, if there is one (empty for an interface without
    /// data inputs).
    fn row(&self, at: usize) -> Option<&[Logic]> {
        let width = self.names.len();
        (at < self.patterns).then(|| &self.rows[at * width..(at + 1) * width])
    }
}

impl Sequence for CornerSequence {
    fn name(&self) -> &str {
        "corner"
    }

    fn next(&mut self, cycle: usize) -> Option<Transaction> {
        let mut t = Transaction::new();
        self.next_into(cycle, &mut t).then_some(t)
    }

    fn next_into(&mut self, _cycle: usize, txn: &mut Transaction) -> bool {
        let Some(row) = self.row(self.at) else { return false };
        txn.fill(&self.names, row);
        self.at += 1;
        true
    }

    fn bind(&mut self, spec: &IoSpec) {
        adopt(&mut self.names, spec);
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
