//! # uvllm-refsim
//!
//! A deliberately slow reference interpreter for the elaborated
//! [`Design`] IR — the independent oracle the event-driven
//! `uvllm_sim::Simulator` is checked against. Test-only: nothing in the
//! product depends on it.
//!
//! **What it shares with the kernel under test:** the parser and
//! elaboration (it runs the same [`LExpr`] / [`LStmt`] / [`LTarget`] /
//! [`Trigger`] IR), [`SignalId`], the [`SimControl`] trait and
//! [`SimError`] it implements so the existing harnesses and the
//! waveform recorder drive it, and [`Logic`] at the boundary only —
//! constants of the IR and poked values are unpacked into bits, peeked
//! values packed back. **What it does not share:** any evaluator,
//! scheduler, process program or `Logic` operator. Every value is one
//! [`Bit4`] per bit, every operator and expression-width rule is
//! written out bit by bit from IEEE 1364-2005 (see [`bits`]), and
//! scheduling is the short interpreter below.
//!
//! **The scheduling contract** (what `SimControl` promises, restated):
//! * at time zero every `initial` process runs, then every
//!   combinational process once, all signals starting at X;
//! * values staged before a settle change in one time step;
//! * a change wakes the level-sensitive processes listening to the
//!   signal, then the edge-sensitive ones whose edge the change makes
//!   (the IEEE 1364 edge table on the least significant bit), each in
//!   declaration order; a process already waiting is not queued twice,
//!   and a running process misses its own blocking writes;
//! * woken processes run first in, first out; non-blocking writes
//!   commit, in the order they were made, once nothing is left to run;
//! * a settle that needs more than [`ACTIVATION_CAP`] activations stops
//!   with [`SimError::Unstable`], dropping what is left.
//!
//! **One product rule taken as given:** an `if` whose condition is X or
//! Z runs *neither* branch (IEEE 1364 §9.4 would run the `else`). The
//! event kernel documents this X-conservative choice; the reference
//! implements it so the two can be compared at all, and it is the one
//! semantic the comparison cannot judge.

pub mod bits;

pub use bits::Bit4;

use bits::Bits;
use std::collections::VecDeque;
use std::sync::Arc;
use uvllm_sim::elab::{Design, LExpr, LExprKind, LStmt, LTarget, Trigger};
use uvllm_sim::{Logic, SignalId, SimControl, SimError};
use uvllm_verilog::ast::{BinaryOp, CaseKind, Edge, UnaryOp};

/// Process activations one settle may run before it is declared
/// unstable — the same budget the `SimControl` contract gives the
/// kernel under test.
pub const ACTIVATION_CAP: usize = 50_000;

/// A write resolved against the state it was made in: `bits` go to
/// `[lsb, lsb + bits.len())` of word `word` of `signal`, clipped to the
/// signal's width.
#[derive(Debug)]
struct Write {
    signal: usize,
    word: usize,
    lsb: usize,
    bits: Bits,
}

/// The reference simulation of one design.
#[derive(Debug, Clone)]
pub struct RefSim {
    design: Arc<Design>,
    /// Signal → word → bits.
    words: Vec<Vec<Bits>>,
    /// Woken processes, in the order they woke.
    queue: VecDeque<usize>,
    /// `waiting[p]`: process `p` is in `queue`.
    waiting: Vec<bool>,
    time: u64,
}

impl RefSim {
    /// Starts `design` at time zero: every signal X, every `initial`
    /// process and then every combinational process run once.
    ///
    /// # Errors
    ///
    /// [`SimError::Unstable`] when time zero does not settle.
    pub fn new(design: Arc<Design>) -> Result<RefSim, SimError> {
        let words = design
            .signals()
            .iter()
            .map(|info| vec![bits::xs(info.width as usize); info.words as usize])
            .collect();
        let processes = design.processes().len();
        let mut sim = RefSim {
            design,
            words,
            queue: VecDeque::new(),
            waiting: vec![false; processes],
            time: 0,
        };
        let design = Arc::clone(&sim.design);
        for initial in [true, false] {
            for (p, process) in design.processes().iter().enumerate() {
                let queued = match process.trigger {
                    Trigger::Initial => initial,
                    Trigger::Comb(_) => !initial,
                    Trigger::Seq(_) => false,
                };
                if queued {
                    sim.wake(p, None);
                }
            }
        }
        sim.drive()?;
        Ok(sim)
    }

    fn width(&self, signal: usize) -> usize {
        self.words[signal][0].len()
    }

    fn wake(&mut self, process: usize, running: Option<usize>) {
        if Some(process) != running && !self.waiting[process] {
            self.waiting[process] = true;
            self.queue.push_back(process);
        }
    }

    /// Queues what `signal` going from `old` to `new` (one word) wakes.
    fn changed(&mut self, signal: usize, old: &[Bit4], new: &[Bit4], running: Option<usize>) {
        let id = SignalId(signal as u32);
        let design = Arc::clone(&self.design);
        let processes = design.processes().iter().enumerate();
        for (p, process) in processes.clone() {
            if matches!(&process.trigger, Trigger::Comb(deps) if deps.contains(&id)) {
                self.wake(p, running);
            }
        }
        for (p, process) in processes {
            let Trigger::Seq(edges) = &process.trigger else { continue };
            if edges.iter().any(|(s, edge)| *s == id && fires(*edge, old[0], new[0])) {
                self.wake(p, running);
            }
        }
    }

    /// Runs woken processes and commits non-blocking writes until
    /// nothing is left.
    fn drive(&mut self) -> Result<(), SimError> {
        let design = Arc::clone(&self.design);
        let mut nba: Vec<Write> = Vec::new();
        let mut activations = 0;
        loop {
            while let Some(p) = self.queue.pop_front() {
                self.waiting[p] = false;
                if activations == ACTIVATION_CAP {
                    self.queue.clear();
                    self.waiting.fill(false);
                    return Err(SimError::Unstable { activations });
                }
                activations += 1;
                self.exec(&design.processes()[p].body, p, &mut nba);
            }
            if nba.is_empty() {
                return Ok(());
            }
            for write in std::mem::take(&mut nba) {
                self.apply(write, None);
            }
        }
    }

    fn exec(&mut self, stmt: &LStmt, running: usize, nba: &mut Vec<Write>) {
        match stmt {
            LStmt::Block(stmts) => {
                for stmt in stmts {
                    self.exec(stmt, running, nba);
                }
            }
            LStmt::Assign { lhs, rhs, blocking, .. } => {
                let width = self.target_width(lhs);
                let value = bits::resized(&self.eval(rhs, width as u32), width);
                let mut writes = Vec::new();
                self.resolve(lhs, &value, &mut writes);
                if *blocking {
                    for write in writes {
                        self.apply(write, Some(running));
                    }
                } else {
                    nba.extend(writes);
                }
            }
            LStmt::If { cond, then_branch, else_branch, .. } => {
                match bits::truth(&self.eval(cond, cond.width)) {
                    Some(true) => self.exec(then_branch, running, nba),
                    Some(false) => {
                        if let Some(otherwise) = else_branch {
                            self.exec(otherwise, running, nba);
                        }
                    }
                    // The product's X-conservative rule (crate docs).
                    None => {}
                }
            }
            LStmt::Case { kind, expr, arms, default, .. } => {
                // §9.5: the case expression and every item are sized to
                // the longest of them all.
                let labels = arms.iter().flat_map(|(labels, _)| labels);
                let width = labels.fold(expr.width, |w, label| w.max(label.width));
                let sel = self.eval(expr, width);
                for (labels, body) in arms {
                    for label in labels {
                        let item = self.eval(label, width);
                        let hit = match kind {
                            CaseKind::Case => bits::case_eq(&sel, &item),
                            CaseKind::Casez => bits::wildcard_eq(&sel, &item, false),
                            CaseKind::Casex => bits::wildcard_eq(&sel, &item, true),
                        };
                        if hit {
                            return self.exec(body, running, nba);
                        }
                    }
                }
                if let Some(body) = default {
                    self.exec(body, running, nba);
                }
            }
            LStmt::Nop => {}
        }
    }

    fn target_width(&self, target: &LTarget) -> usize {
        match target {
            LTarget::Whole(s) | LTarget::Word(s, _) => self.width(s.0 as usize),
            LTarget::Bit(..) => 1,
            LTarget::Part(_, _, width) => *width as usize,
            LTarget::Concat(parts) => parts.iter().map(|part| self.target_width(part)).sum(),
        }
    }

    /// Resolves `target` ← `value` (exactly the target's width) into
    /// writes, most significant part first. Every index is read before
    /// any write applies; an X or out-of-range index drops its write.
    fn resolve(&self, target: &LTarget, value: &[Bit4], writes: &mut Vec<Write>) {
        let whole = |signal: usize, word, lsb| Write { signal, word, lsb, bits: value.to_vec() };
        match target {
            LTarget::Whole(s) => writes.push(whole(s.0 as usize, 0, 0)),
            LTarget::Part(s, lsb, _) => writes.push(whole(s.0 as usize, 0, *lsb as usize)),
            LTarget::Bit(s, index) => {
                let signal = s.0 as usize;
                match self.index(index) {
                    Some(i) if i < self.width(signal) as u128 => {
                        writes.push(whole(signal, 0, i as usize));
                    }
                    _ => {}
                }
            }
            LTarget::Word(s, index) => {
                let signal = s.0 as usize;
                match self.index(index) {
                    Some(i) if i < self.words[signal].len() as u128 => {
                        writes.push(whole(signal, i as usize, 0));
                    }
                    _ => {}
                }
            }
            LTarget::Concat(parts) => {
                let mut top = value.len();
                for part in parts {
                    let width = self.target_width(part);
                    self.resolve(part, &value[top - width..top], writes);
                    top -= width;
                }
            }
        }
    }

    fn apply(&mut self, write: Write, running: Option<usize>) {
        let old = &self.words[write.signal][write.word];
        let mut new = old.clone();
        for (k, bit) in write.bits.iter().enumerate() {
            if let Some(slot) = new.get_mut(write.lsb + k) {
                *slot = *bit;
            }
        }
        if new == *old {
            return;
        }
        let old = std::mem::replace(&mut self.words[write.signal][write.word], new.clone());
        self.changed(write.signal, &old, &new, running);
    }

    /// A self-determined index expression's value (`None` with X or Z).
    fn index(&self, index: &LExpr) -> Option<u128> {
        bits::value(&self.eval(index, index.width))
    }

    /// `e` evaluated in a context of `ctx` bits: exactly
    /// `max(ctx, e.width)` bits. Context-determined operands are
    /// evaluated at that width; self-determined ones (§5.4.1, Table
    /// 5-22) at their own and zero-extended after.
    fn eval(&self, e: &LExpr, ctx: u32) -> Bits {
        let w = ctx.max(e.width);
        let own = |operand: &LExpr| self.eval(operand, operand.width);
        let value = match &e.kind {
            LExprKind::Const(constant) => unpack(constant),
            LExprKind::Sig(s) => self.words[s.0 as usize][0].clone(),
            LExprKind::Word(s, index) => {
                let words = &self.words[s.0 as usize];
                match self.index(index) {
                    Some(i) if i < words.len() as u128 => words[i as usize].clone(),
                    _ => bits::xs(self.width(s.0 as usize)),
                }
            }
            LExprKind::BitSel(s, index) => {
                let signal = &self.words[s.0 as usize][0];
                match self.index(index) {
                    Some(i) if i < signal.len() as u128 => vec![signal[i as usize]],
                    _ => bits::xs(1),
                }
            }
            LExprKind::PartSel(s, lsb) => {
                let signal = &self.words[s.0 as usize][0];
                let at = |k: u32| signal.get((lsb + k) as usize).copied().unwrap_or(Bit4::X);
                (0..e.width).map(at).collect()
            }
            LExprKind::Unary(op, a) => match op {
                UnaryOp::LogNot => bits::bit_of(bits::truth(&own(a)).map(|t| !t)),
                UnaryOp::BitNot => bits::not(&self.eval(a, w)),
                UnaryOp::Neg => bits::neg(&self.eval(a, w)),
                UnaryOp::Plus => self.eval(a, w),
                UnaryOp::RedAnd => bits::reduce_and(&own(a)),
                UnaryOp::RedOr => bits::reduce_or(&own(a)),
                UnaryOp::RedXor => bits::reduce_xor(&own(a)),
                UnaryOp::RedNand => bits::not(&bits::reduce_and(&own(a))),
                UnaryOp::RedNor => bits::not(&bits::reduce_or(&own(a))),
                UnaryOp::RedXnor => bits::not(&bits::reduce_xor(&own(a))),
            },
            LExprKind::Binary(op, a, b) => self.binary(*op, a, b, w),
            LExprKind::Ternary(c, t, f) => match bits::truth(&own(c)) {
                Some(true) => self.eval(t, w),
                Some(false) => self.eval(f, w),
                None => bits::merge(&self.eval(t, w), &self.eval(f, w)),
            },
            LExprKind::Concat(items) => {
                // Most significant item first; the IR caps the width
                // and keeps the low bits.
                let mut value: Bits = items.iter().rev().flat_map(own).collect();
                value.truncate(e.width as usize);
                value
            }
        };
        bits::resized(&value, w as usize)
    }

    fn binary(&self, op: BinaryOp, a: &LExpr, b: &LExpr, w: u32) -> Bits {
        use BinaryOp::*;
        let context = |operand: &LExpr| self.eval(operand, w);
        let own = |operand: &LExpr| self.eval(operand, operand.width);
        // Relations size both operands to the wider of the two.
        let pair = || {
            let width = a.width.max(b.width);
            (self.eval(a, width), self.eval(b, width))
        };
        match op {
            Add => bits::add(&context(a), &context(b)),
            Sub => bits::sub(&context(a), &context(b)),
            Mul => bits::mul(&context(a), &context(b)),
            Div => bits::divmod(&context(a), &context(b)).0,
            Mod => bits::divmod(&context(a), &context(b)).1,
            Pow => bits::pow(&context(a), &own(b)),
            Shl => bits::shl(&context(a), &own(b)),
            Shr | AShr => bits::shr(&context(a), &own(b)),
            BitAnd => bits::and(&context(a), &context(b)),
            BitOr => bits::or(&context(a), &context(b)),
            BitXor => bits::xor(&context(a), &context(b)),
            BitXnor => bits::not(&bits::xor(&context(a), &context(b))),
            Lt => {
                let (x, y) = pair();
                bits::lt(&x, &y)
            }
            Gt => {
                let (x, y) = pair();
                bits::lt(&y, &x)
            }
            Le => {
                let (x, y) = pair();
                bits::not(&bits::lt(&y, &x))
            }
            Ge => {
                let (x, y) = pair();
                bits::not(&bits::lt(&x, &y))
            }
            Eq => {
                let (x, y) = pair();
                bits::eq(&x, &y)
            }
            Ne => {
                let (x, y) = pair();
                bits::not(&bits::eq(&x, &y))
            }
            CaseEq | CaseNe => {
                let (x, y) = pair();
                bits::bit_of(Some(bits::case_eq(&x, &y) == (op == CaseEq)))
            }
            LogAnd => bits::bit_of(match (bits::truth(&own(a)), bits::truth(&own(b))) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            }),
            LogOr => bits::bit_of(match (bits::truth(&own(a)), bits::truth(&own(b))) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            }),
        }
    }
}

/// The IEEE 1364 edge table (§9.7.2), on the least significant bit:
/// `posedge` is 0→1, 0→X/Z or X/Z→1; `negedge` is 1→0, 1→X/Z or X/Z→0.
/// A level entry in an edge list fires on any change.
fn fires(edge: Option<Edge>, old: Bit4, new: Bit4) -> bool {
    use Bit4::{One, Zero, X, Z};
    match edge {
        None => true,
        Some(Edge::Pos) => matches!((old, new), (Zero, One | X | Z) | (X | Z, One)),
        Some(Edge::Neg) => matches!((old, new), (One, Zero | X | Z) | (X | Z, Zero)),
    }
}

/// A boundary `Logic` as bits: X/Z plane bit set means X (value 0) or
/// Z (value 1).
fn unpack(value: &Logic) -> Bits {
    (0..value.width())
        .map(|i| match ((value.xz() >> i) & 1, (value.val() >> i) & 1) {
            (0, 0) => Bit4::Zero,
            (0, _) => Bit4::One,
            (_, 0) => Bit4::X,
            _ => Bit4::Z,
        })
        .collect()
}

/// Bits packed back into a boundary `Logic`.
fn pack(v: &[Bit4]) -> Logic {
    let (mut val, mut xz) = (0u128, 0u128);
    for (i, bit) in v.iter().enumerate() {
        let (v, x) = match bit {
            Bit4::Zero => (0, 0),
            Bit4::One => (1, 0),
            Bit4::X => (0, 1),
            Bit4::Z => (1, 1),
        };
        val |= v << i;
        xz |= x << i;
    }
    Logic::from_planes(v.len() as u32, val, xz)
}

impl SimControl for RefSim {
    fn design(&self) -> &Design {
        &self.design
    }
    fn time(&self) -> u64 {
        self.time
    }
    fn set_time(&mut self, time: u64) {
        self.time = time;
    }
    fn peek(&self, id: SignalId) -> Logic {
        pack(&self.words[id.0 as usize][0])
    }
    fn peek_word(&self, id: SignalId, index: u64) -> Logic {
        let signal = id.0 as usize;
        match self.words[signal].get(index as usize) {
            Some(word) => pack(word),
            None => pack(&bits::xs(self.width(signal))),
        }
    }
    fn stage(&mut self, id: SignalId, value: Logic) {
        let signal = id.0 as usize;
        let new = bits::resized(&unpack(&value), self.width(signal));
        let old = std::mem::replace(&mut self.words[signal][0], new.clone());
        if old != new {
            self.changed(signal, &old, &new, None);
        }
    }
    fn poke(&mut self, id: SignalId, value: Logic) -> Result<(), SimError> {
        self.stage(id, value);
        self.drive()
    }
    fn settle(&mut self) -> Result<(), SimError> {
        self.drive()
    }
}

/// Runs one `drive` on two simulations of one design — the kernel under
/// test and the reference — and compares them after it: both must end
/// the drive the same way (`Ok`, or the same error) and hold the same
/// value in every word of every signal.
///
/// # Errors
///
/// A description of the first disagreement. `Ok` carries the drive's
/// outcome, the same on both sides.
pub fn lockstep(
    kernel: &mut dyn SimControl,
    reference: &mut dyn SimControl,
    drive: impl Fn(&mut dyn SimControl) -> Result<(), SimError>,
) -> Result<Result<(), SimError>, String> {
    let (ours, theirs) = (drive(kernel), drive(reference));
    if ours != theirs {
        return Err(format!("kernel ended the drive with {ours:?}, the reference with {theirs:?}"));
    }
    match first_difference(kernel, reference) {
        Some(difference) => Err(difference),
        None => Ok(ours),
    }
}

/// The first signal word on which two simulations of one design
/// disagree, described for a failure message; `None` when every word of
/// every signal matches.
pub fn first_difference(a: &dyn SimControl, b: &dyn SimControl) -> Option<String> {
    for (i, info) in a.design().signals().iter().enumerate() {
        let id = SignalId(i as u32);
        for word in 0..info.words as u64 {
            let (x, y) = (a.peek_word(id, word), b.peek_word(id, word));
            if x != y {
                let name = a.design().signal_name(id);
                return Some(format!("signal '{name}' word {word}: {x} vs {y}"));
            }
        }
    }
    None
}
