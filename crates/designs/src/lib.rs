//! # uvllm-designs
//!
//! The benchmark design suite: 27 Verilog modules across the four
//! groups of the paper's Table II (Arithmetic, Control, Memory,
//! Miscellaneous) and ten representative module types (adders, counters,
//! FSMs, memories, encoders, shifters, …). Each [`Design`] bundles:
//!
//! * the Verilog source (written in the simulator's supported subset),
//! * a natural-language specification (prompt material),
//! * the pin-level [`DutInterface`],
//! * an executable golden [`RefModel`] (the paper's LLM-generated
//!   C/C++ reference models, written here in Rust against the
//!   `IoSpec`/`IoFrame` exchange of the README's "Simulation"), and
//! * a deliberately *weak* directed vector set — the "finite test
//!   cases" style of testbench the paper criticises; baselines iterate
//!   against it and the evaluation's Hit Rate is measured on it.
//!
//! Every design is differentially verified against its golden model in
//! this crate's tests, so the benchmark itself is trustworthy.
//!
//! ## Example
//!
//! ```rust
//! use uvllm_designs::{all, by_name, Category};
//!
//! assert_eq!(all().len(), 27);
//! let d = by_name("adder_8bit").expect("catalogued");
//! assert_eq!(d.category, Category::Arithmetic);
//! assert!(d.source.contains("module adder_8bit"));
//! ```

pub mod arithmetic;
pub mod control;
pub mod memory;
pub mod misc;

use std::fmt;
use uvllm_sim::Logic;
use uvllm_uvm::{DutInterface, RefModel, Transaction};

/// Module grouping used throughout the paper's Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    Arithmetic,
    Control,
    Memory,
    Miscellaneous,
}

impl Category {
    /// All groups in Table II order.
    pub const ALL: [Category; 4] =
        [Category::Arithmetic, Category::Control, Category::Memory, Category::Miscellaneous];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Category::Arithmetic => "Arithmetic",
            Category::Control => "Control",
            Category::Memory => "Memory",
            Category::Miscellaneous => "Miscellaneous",
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One benchmark design.
pub struct Design {
    /// Module (and catalog) name.
    pub name: &'static str,
    pub category: Category,
    /// Representative module type (one of the ten in Result 3).
    pub module_type: &'static str,
    /// Natural-language specification given to repair agents.
    pub spec: &'static str,
    /// Verilog source.
    pub source: &'static str,
    /// Pin-level interface builder.
    pub iface: fn() -> DutInterface,
    /// Golden reference model builder.
    pub model: fn() -> Box<dyn RefModel>,
    /// The weak directed public test vectors (`T_pub`).
    pub directed_vectors: fn() -> Vec<Transaction>,
}

impl fmt::Debug for Design {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Design")
            .field("name", &self.name)
            .field("category", &self.category)
            .field("module_type", &self.module_type)
            .finish()
    }
}

/// The full 27-design catalog, grouped by category.
pub fn all() -> Vec<&'static Design> {
    let mut v: Vec<&'static Design> = Vec::with_capacity(27);
    v.extend(arithmetic::DESIGNS.iter());
    v.extend(control::DESIGNS.iter());
    v.extend(memory::DESIGNS.iter());
    v.extend(misc::DESIGNS.iter());
    v
}

/// Looks a design up by name.
pub fn by_name(name: &str) -> Option<&'static Design> {
    all().into_iter().find(|d| d.name == name)
}

// ----------------------------------------------------------------------
// Shared helpers for golden models and vectors
// ----------------------------------------------------------------------
//
// Per-port value access lives in `uvllm_uvm`'s slot-handle API now
// (`IoSpec::input`/`output` + `IoFrame::get`/`set`): models resolve
// their slots once in `RefModel::bind` and the per-cycle step reads and
// writes index-addressed buffers — the crate-local `iv`/`ov` map
// helpers (and their `in_val`/`out_val` twins in `uvllm_uvm`) are gone
// with the map-based exchange they wrapped.

/// Builds a transaction from `(name, width, value)` triples.
pub fn tx(pairs: &[(&str, u32, u128)]) -> Transaction {
    let mut t = Transaction::new();
    for (n, w, v) in pairs {
        t.insert((*n).to_string(), Logic::from_u128(*w, *v));
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvllm_uvm::{CornerSequence, DirectedSequence, Environment, RandomSequence, Sequence};

    /// Every design must be behaviourally equivalent to its golden model
    /// under substantial random + corner + directed stimulus. This is
    /// the trust anchor for the whole benchmark.
    #[test]
    fn all_designs_match_their_golden_models() {
        for d in all() {
            let iface = (d.iface)();
            let seqs: Vec<Box<dyn Sequence>> = vec![
                Box::new(DirectedSequence::new("directed", (d.directed_vectors)())),
                Box::new(RandomSequence::new(&iface.inputs, 300, 0xD15E_u64)),
                Box::new(CornerSequence::new(&iface.inputs)),
            ];
            let env = Environment::from_source(d.source, d.name, iface, (d.model)(), seqs)
                .unwrap_or_else(|e| panic!("{}: env construction failed: {e}", d.name));
            let summary = env.run();
            assert!(
                summary.all_passed(),
                "{}: {} mismatches, pass rate {:.3}\nfirst mismatches: {:?}\nlog tail:\n{}",
                d.name,
                summary.mismatches.len(),
                summary.pass_rate,
                &summary.mismatches[..summary.mismatches.len().min(3)],
                summary.log.render().lines().rev().take(5).collect::<Vec<_>>().join("\n"),
            );
        }
    }

    #[test]
    fn catalog_shape_matches_paper() {
        assert_eq!(all().len(), 27, "the paper evaluates 27 modules");
        let in_category = |c| all().iter().filter(|d| d.category == c).count();
        assert_eq!(in_category(Category::Arithmetic), 7);
        assert_eq!(in_category(Category::Control), 6);
        assert_eq!(in_category(Category::Memory), 5);
        assert_eq!(in_category(Category::Miscellaneous), 9);
        // Ten representative module types.
        let mut types: Vec<_> = all().iter().map(|d| d.module_type).collect();
        types.sort();
        types.dedup();
        assert_eq!(types.len(), 10, "types: {types:?}");
    }

    #[test]
    fn names_are_unique_and_sources_parse() {
        let mut names: Vec<_> = all().iter().map(|d| d.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 27);
        for d in all() {
            let file = uvllm_verilog::parse(d.source)
                .unwrap_or_else(|e| panic!("{}: parse failed: {e}", d.name));
            assert!(file.module(d.name).is_some(), "{}: top module name mismatch", d.name);
            assert!(!d.spec.is_empty());
        }
    }

    #[test]
    fn directed_vectors_are_weak_but_nonempty() {
        for d in all() {
            let v = (d.directed_vectors)();
            assert!(!v.is_empty(), "{}: needs directed vectors", d.name);
            assert!(v.len() <= 16, "{}: directed set should stay intentionally small", d.name);
        }
    }

    #[test]
    fn designs_lint_clean() {
        for d in all() {
            let report = uvllm_lint::lint(d.source);
            assert!(report.errors().is_empty(), "{}: lint errors: {:?}", d.name, report.errors());
            assert!(
                report.fixable_warnings().is_empty(),
                "{}: fixable warnings present: {}",
                d.name,
                report.render(d.source)
            );
        }
    }
}
