//! Compilation of an elaborated [`Design`] into the flat form the
//! levelized kernel ([`crate::kernel::CompiledSim`]) executes.
//!
//! Compilation happens once per design and precomputes everything the
//! event-driven engine recomputes per activation:
//!
//! * a **value-arena layout** — every `SignalId` × word maps to one slot
//!   of two structure-of-arrays `u128` planes (value and X/Z), so state
//!   lives in two flat vectors instead of a `Vec<Vec<Logic>>`;
//! * a **CSR sensitivity index** — signal → combinational processes to
//!   re-run on change, in one offsets + data pair with no per-signal
//!   allocation (edge-triggered sensitivities keep their edge kinds);
//! * a **levelization** of the combinational processes: declared
//!   sensitivity edges (writer → reader) are topologically sorted so a
//!   settle pass executes each dirty process at most once per sweep, in
//!   dependency order. Designs with combinational cycles are flagged and
//!   simply take extra sweeps (bounded by the activation cap, exactly
//!   like the event-driven engine's oscillation detector).
//!
//! Levelization deliberately uses the *declared* triggers, not the read
//! sets: an `always @(a)` block missing `b` must misbehave identically
//! under both kernels, because reproducing such bugs faithfully is the
//! simulator's job.

use crate::elab::{stmt_written_signals, Design, LExpr, LExprKind, LStmt, LTarget, Trigger};
use crate::logic::mask;
use std::sync::Arc;
use uvllm_verilog::ast::{BinaryOp, Edge};

/// A [`Design`] lowered to the kernel's flat execution form.
#[derive(Debug, Clone)]
pub struct CompiledDesign {
    design: Arc<Design>,
    /// `SignalId` → first arena slot of its words (words are laid out
    /// consecutively); one extra tail entry holds the arena length.
    slots: Vec<u32>,
    /// Combinational process ids in levelized execution order.
    comb_order: Vec<u32>,
    /// Process id → topological level (combinational processes only;
    /// cycle members share the level after the deepest acyclic one).
    levels: Vec<u32>,
    /// CSR offsets: signal → `comb_dat[comb_idx[s]..comb_idx[s+1]]`.
    comb_idx: Vec<u32>,
    comb_dat: Vec<u32>,
    /// CSR offsets: signal → `seq_dat[seq_idx[s]..seq_idx[s+1]]`.
    seq_idx: Vec<u32>,
    seq_dat: Vec<(u32, Option<Edge>)>,
    /// `initial` process ids in declaration order.
    initial_pids: Vec<u32>,
    /// True when the combinational network contains a cycle.
    cyclic: bool,
    /// Process id → body provably cannot *generate* X from fully-known
    /// operands (no division/modulo, no possibly-out-of-range select,
    /// no X/Z literal, no truncating concat). Decided once here so the
    /// kernel can skip the runtime X/Z probe entirely whenever the
    /// whole value arena is known (see [`CompiledDesign::two_state`]).
    two_state: Vec<bool>,
}

impl CompiledDesign {
    /// Compiles a shared design without cloning it (`from_arc` is the
    /// only constructor — fresh callers wrap with `Arc::new`).
    pub fn from_arc(design: Arc<Design>) -> CompiledDesign {
        let nsignals = design.signals().len();
        let nprocs = design.processes().len();

        // Arena layout: consecutive words per signal.
        let mut slots = Vec::with_capacity(nsignals + 1);
        let mut next = 0u32;
        for info in design.signals() {
            slots.push(next);
            next += info.words;
        }
        slots.push(next);

        // Sensitivity lists per signal (then flattened to CSR).
        let mut comb_lists: Vec<Vec<u32>> = vec![Vec::new(); nsignals];
        let mut seq_lists: Vec<Vec<(u32, Option<Edge>)>> = vec![Vec::new(); nsignals];
        let mut comb_pids = Vec::new();
        let mut initial_pids = Vec::new();
        for (i, p) in design.processes().iter().enumerate() {
            let pid = i as u32;
            match &p.trigger {
                Trigger::Comb(deps) => {
                    comb_pids.push(pid);
                    for d in deps {
                        comb_lists[d.0 as usize].push(pid);
                    }
                }
                Trigger::Seq(edges) => {
                    for (s, e) in edges {
                        seq_lists[s.0 as usize].push((pid, *e));
                    }
                }
                Trigger::Initial => initial_pids.push(pid),
            }
        }
        let (comb_idx, comb_dat) = to_csr(comb_lists);
        let (seq_idx, seq_dat) = to_csr(seq_lists);

        // Dependency edges between combinational processes: writer →
        // reader, where "reads" means the *declared* sensitivity.
        let mut writers: Vec<Vec<u32>> = vec![Vec::new(); nsignals];
        for &pid in &comb_pids {
            for s in stmt_written_signals(&design.processes()[pid as usize].body) {
                writers[s.0 as usize].push(pid);
            }
        }
        let mut succs: Vec<Vec<u32>> = vec![Vec::new(); nprocs];
        let mut indegree: Vec<u32> = vec![0; nprocs];
        for &pid in &comb_pids {
            if let Trigger::Comb(deps) = &design.processes()[pid as usize].trigger {
                for d in deps {
                    for &writer in &writers[d.0 as usize] {
                        // A process misses its own events (IEEE 1364),
                        // so self-loops are not ordering constraints.
                        if writer != pid {
                            succs[writer as usize].push(pid);
                            indegree[pid as usize] += 1;
                        }
                    }
                }
            }
        }

        // Kahn's algorithm over the comb subgraph; leftovers are cycle
        // members and get parked one level past the acyclic frontier.
        let mut levels = vec![0u32; nprocs];
        let mut ready: Vec<u32> =
            comb_pids.iter().copied().filter(|&p| indegree[p as usize] == 0).collect();
        let mut ordered = Vec::with_capacity(comb_pids.len());
        let mut max_level = 0u32;
        while let Some(pid) = ready.pop() {
            ordered.push(pid);
            max_level = max_level.max(levels[pid as usize]);
            for &next in &succs[pid as usize] {
                levels[next as usize] = levels[next as usize].max(levels[pid as usize] + 1);
                indegree[next as usize] -= 1;
                if indegree[next as usize] == 0 {
                    ready.push(next);
                }
            }
        }
        let cyclic = ordered.len() != comb_pids.len();
        for &pid in &comb_pids {
            if indegree[pid as usize] > 0 {
                levels[pid as usize] = max_level + 1;
                ordered.push(pid);
            }
        }
        // Stable execution order: by (level, pid). Equal-level ties fall
        // back to declaration order, matching the event engine's FIFO
        // seeding for simultaneously-triggered processes.
        ordered.sort_by_key(|&pid| (levels[pid as usize], pid));

        let two_state =
            design.processes().iter().map(|p| stmt_two_state_safe(&design, &p.body)).collect();

        CompiledDesign {
            design,
            slots,
            comb_order: ordered,
            levels,
            comb_idx,
            comb_dat,
            seq_idx,
            seq_dat,
            initial_pids,
            cyclic,
            two_state,
        }
    }

    /// The elaborated design this was compiled from.
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// First arena slot of `signal` (its words follow consecutively).
    pub fn slot(&self, signal: crate::elab::SignalId) -> usize {
        self.slots[signal.0 as usize] as usize
    }

    /// Total slots in the value arena.
    pub fn arena_len(&self) -> usize {
        *self.slots.last().expect("slots has a tail entry") as usize
    }

    /// Combinational processes in levelized execution order.
    pub fn comb_order(&self) -> &[u32] {
        &self.comb_order
    }

    /// Topological level of process `pid` (0 for sources).
    pub fn level(&self, pid: u32) -> u32 {
        self.levels[pid as usize]
    }

    /// Combinational processes sensitive to `signal`.
    pub fn comb_sensitive(&self, signal: crate::elab::SignalId) -> &[u32] {
        let s = signal.0 as usize;
        &self.comb_dat[self.comb_idx[s] as usize..self.comb_idx[s + 1] as usize]
    }

    /// Edge-triggered processes watching `signal`.
    pub fn seq_sensitive(&self, signal: crate::elab::SignalId) -> &[(u32, Option<Edge>)] {
        let s = signal.0 as usize;
        &self.seq_dat[self.seq_idx[s] as usize..self.seq_idx[s + 1] as usize]
    }

    /// `initial` processes in declaration order.
    pub fn initial_pids(&self) -> &[u32] {
        &self.initial_pids
    }

    /// True when the combinational network contains a cycle (settling
    /// may need multiple sweeps).
    pub fn is_cyclic(&self) -> bool {
        self.cyclic
    }

    /// True when process `pid` was marked two-state safe at compile
    /// time: executing its body over fully-known state can never
    /// produce an X/Z result, so the kernel may evaluate it with plain
    /// masked `u128` arithmetic and **no** per-read X/Z probe whenever
    /// the arena currently holds no unknown bits.
    pub fn two_state(&self, pid: u32) -> bool {
        self.two_state[pid as usize]
    }
}

/// True when every value of `idx` (bounded by its self-determined
/// width) stays below `limit` — i.e. the select can never go out of
/// range, whatever known value the index takes.
fn index_in_range(idx: &LExpr, limit: u128) -> bool {
    if let LExprKind::Const(l) = &idx.kind {
        return l.xz() == 0 && l.val() < limit;
    }
    let w = idx.width.max(1);
    w < 128 && mask(w) < limit
}

/// True when evaluating `e` over fully-known operands provably yields a
/// fully-known result (the expression cannot *generate* X).
fn expr_two_state_safe(design: &Design, e: &LExpr) -> bool {
    match &e.kind {
        LExprKind::Const(l) => l.xz() == 0,
        LExprKind::Sig(_) => true,
        LExprKind::Word(s, idx) => {
            expr_two_state_safe(design, idx) && index_in_range(idx, design.signal(*s).words as u128)
        }
        LExprKind::BitSel(s, idx) => {
            expr_two_state_safe(design, idx) && index_in_range(idx, design.signal(*s).width as u128)
        }
        LExprKind::PartSel(s, off) => off + e.width <= design.signal(*s).width,
        LExprKind::Unary(_, a) => expr_two_state_safe(design, a),
        LExprKind::Binary(op, a, b) => {
            // Division/modulo by zero produce X even on known operands.
            !matches!(op, BinaryOp::Div | BinaryOp::Mod)
                && expr_two_state_safe(design, a)
                && expr_two_state_safe(design, b)
        }
        LExprKind::Ternary(c, t, f) => {
            expr_two_state_safe(design, c)
                && expr_two_state_safe(design, t)
                && expr_two_state_safe(design, f)
        }
        // Truncation at the 128-bit cap drops high bits but cannot
        // generate X, so wide (rebalanced) datapaths stay two-state
        // safe; the kernel's fast path evaluates them word-parallel.
        LExprKind::Concat(items) => items.iter().all(|i| expr_two_state_safe(design, i)),
    }
}

/// Target indices only need known evaluation: an out-of-range index
/// drops the write identically on both evaluation paths.
fn target_two_state_safe(design: &Design, t: &LTarget) -> bool {
    match t {
        LTarget::Whole(_) | LTarget::Part(_, _, _) => true,
        LTarget::Bit(_, idx) | LTarget::Word(_, idx) => expr_two_state_safe(design, idx),
        LTarget::Concat(parts) => parts.iter().all(|p| target_two_state_safe(design, p)),
    }
}

/// True when executing `stmt` over fully-known state can never write an
/// X/Z value or branch on an unknown condition.
fn stmt_two_state_safe(design: &Design, stmt: &LStmt) -> bool {
    match stmt {
        LStmt::Block(stmts) => stmts.iter().all(|s| stmt_two_state_safe(design, s)),
        LStmt::Assign { lhs, rhs, .. } => {
            target_two_state_safe(design, lhs) && expr_two_state_safe(design, rhs)
        }
        LStmt::If { cond, then_branch, else_branch, .. } => {
            expr_two_state_safe(design, cond)
                && stmt_two_state_safe(design, then_branch)
                && else_branch.as_deref().is_none_or(|e| stmt_two_state_safe(design, e))
        }
        LStmt::Case { expr, arms, default, .. } => {
            expr_two_state_safe(design, expr)
                && arms.iter().all(|(labels, body)| {
                    labels.iter().all(|l| expr_two_state_safe(design, l))
                        && stmt_two_state_safe(design, body)
                })
                && default.as_deref().is_none_or(|d| stmt_two_state_safe(design, d))
        }
        LStmt::Nop => true,
    }
}

/// Flattens per-signal lists into CSR (offsets + data) form.
fn to_csr<T: Copy>(lists: Vec<Vec<T>>) -> (Vec<u32>, Vec<T>) {
    let mut idx = Vec::with_capacity(lists.len() + 1);
    let mut dat = Vec::with_capacity(lists.iter().map(Vec::len).sum());
    idx.push(0);
    for list in lists {
        dat.extend(list);
        idx.push(dat.len() as u32);
    }
    (idx, dat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elab::elaborate;
    use uvllm_verilog::parse;

    fn compile(src: &str) -> CompiledDesign {
        let file = parse(src).unwrap();
        let top = &file.top().unwrap().name;
        CompiledDesign::from_arc(Arc::new(elaborate(&file, top).unwrap()))
    }

    #[test]
    fn chain_is_levelized() {
        let cd = compile(
            "module m(input a, output w1, output w2, output w3);\n\
             assign w1 = ~a;\nassign w2 = ~w1;\nassign w3 = ~w2;\nendmodule\n",
        );
        assert!(!cd.is_cyclic());
        let order = cd.comb_order();
        assert_eq!(order.len(), 3);
        // The chain must execute source-to-sink in one sweep.
        assert_eq!(cd.level(order[0]), 0);
        assert!(cd.level(order[1]) > cd.level(order[0]));
        assert!(cd.level(order[2]) > cd.level(order[1]));
    }

    #[test]
    fn diamond_join_runs_after_both_arms() {
        let cd = compile(
            "module m(input a, output y);\nwire l, r;\n\
             assign l = ~a;\nassign r = a;\nassign y = l & r;\nendmodule\n",
        );
        let order = cd.comb_order();
        // The join (highest level) comes last.
        assert_eq!(cd.level(*order.last().unwrap()), 1);
        assert_eq!(cd.level(order[0]), 0);
        assert_eq!(cd.level(order[1]), 0);
    }

    #[test]
    fn cycles_are_flagged_not_fatal() {
        let cd =
            compile("module m(output a, output b);\nassign a = ~b;\nassign b = ~a;\nendmodule\n");
        assert!(cd.is_cyclic());
        assert_eq!(cd.comb_order().len(), 2, "cycle members still execute");
    }

    #[test]
    fn arena_layout_packs_words() {
        let cd = compile(
            "module r(input [3:0] addr, output [7:0] dout);\nreg [7:0] mem [0:15];\n\
             assign dout = mem[addr];\nendmodule\n",
        );
        assert_eq!(cd.arena_len(), 1 + 1 + 16, "addr + dout + 16 memory words");
        let mem = cd.design().signal_id("mem").unwrap();
        assert!(cd.slot(mem) + 16 <= cd.arena_len());
    }

    #[test]
    fn sensitivity_csr_matches_triggers() {
        let cd = compile(
            "module m(input clk, input d, output reg q, output y);\n\
             assign y = ~d;\nalways @(posedge clk) q <= d;\nendmodule\n",
        );
        let clk = cd.design().signal_id("clk").unwrap();
        let d = cd.design().signal_id("d").unwrap();
        assert_eq!(cd.comb_sensitive(clk).len(), 0);
        assert_eq!(cd.comb_sensitive(d).len(), 1);
        assert_eq!(cd.seq_sensitive(clk).len(), 1);
        assert_eq!(cd.seq_sensitive(clk)[0].1, Some(uvllm_verilog::ast::Edge::Pos));
        assert_eq!(cd.seq_sensitive(d).len(), 0);
    }
}
