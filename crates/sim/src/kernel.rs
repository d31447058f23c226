//! The compiled levelized simulation kernel.
//!
//! [`CompiledSim`] executes a [`CompiledDesign`] behind the same
//! poke/settle/peek/waveform surface as the event-driven
//! [`crate::Simulator`] (both implement [`crate::SimControl`]), with a
//! different execution strategy:
//!
//! * state lives in two flat structure-of-arrays `u128` planes (value
//!   and X/Z) indexed by precompiled arena slots — no per-signal
//!   vectors, no `Logic` structs at rest;
//! * a poke marks sensitive combinational processes *dirty* and a
//!   settle sweep executes them in topological level order, so every
//!   process runs at most once per sweep instead of once per delta
//!   event (acyclic designs settle in a single sweep);
//! * expressions take a **two-state fast path**: while every value a
//!   statement reads is fully known (the overwhelmingly common case
//!   after reset), evaluation is plain masked `u128` arithmetic that
//!   never touches the X/Z truth tables. Any X/Z operand — or an
//!   X-producing operation such as division by zero or an out-of-range
//!   index — falls back to the shared four-state evaluator
//!   ([`crate::eval::eval`]), so the two kernels are waveform-identical
//!   by construction where values are known and by the differential
//!   test suite where they are not;
//! * processes marked two-state safe at **compile time**
//!   ([`CompiledDesign::two_state`]: no X-generating operation anywhere
//!   in the body) skip even the per-read X/Z probe whenever the arena
//!   currently holds zero unknown bits — the kernel keeps an exact
//!   count of X/Z-carrying slots, so the check is one integer compare
//!   per process activation instead of one branch per operand read;
//! * [`CompiledSim::reset_state`] rewinds the value arena to its
//!   post-construction snapshot in two `memcpy`s, so harnesses that run
//!   many campaigns over one design (the six metric runs of a campaign
//!   job) reuse one instance instead of recompiling/re-instantiating —
//!   see [`crate::cache::checkout_sim`].
//!
//! Blocking/non-blocking regions, edge detection, the
//! process-misses-its-own-events rule and the [`MAX_ACTIVATIONS`]
//! oscillation cap all mirror the event-driven engine exactly.

use crate::compile::CompiledDesign;
use crate::elab::{Design, LExpr, LExprKind, LStmt, LTarget, SignalId};
use crate::eval::{case_matches, eval, ValueReader};
use crate::logic::{mask, Logic, Tri};
use crate::sched::{SimError, MAX_ACTIVATIONS};
use std::sync::Arc;
use uvllm_verilog::ast::{BinaryOp, Edge, UnaryOp};

/// One resolved write (mirrors the event engine's write record).
#[derive(Debug, Clone)]
struct Write {
    signal: SignalId,
    word: u64,
    lsb: u32,
    value: Logic,
}

/// A compiled-kernel simulation over a [`CompiledDesign`].
#[derive(Debug, Clone)]
pub struct CompiledSim {
    cd: Arc<CompiledDesign>,
    /// Value plane per arena slot.
    val: Vec<u128>,
    /// X/Z plane per arena slot (bit set = unknown).
    xz: Vec<u128>,
    /// Snapshot of both planes right after time-zero initialisation —
    /// what [`CompiledSim::reset_state`] rewinds to. Shared across
    /// clones (the snapshot is immutable).
    init_val: Arc<[u128]>,
    init_xz: Arc<[u128]>,
    /// Exact number of arena slots whose X/Z plane is non-zero. When it
    /// is 0, compile-time-marked processes run fully unchecked.
    xz_slots: usize,
    init_xz_slots: usize,
    /// Queued flag per process: a combinational process awaiting its
    /// sweep (counted in `dirty_count`) or an edge-triggered one
    /// waiting in `seq_fired`. Cleared as the process is taken to run,
    /// so a wake-up of a process that has not run yet is idempotent.
    dirty: Vec<bool>,
    /// Number of combinational processes flagged in `dirty`.
    dirty_count: usize,
    /// Edge-triggered processes fired but not yet executed (FIFO).
    seq_fired: Vec<u32>,
    /// Spare buffer ping-ponged with `seq_fired` while a batch executes
    /// (capacity survives, so clock edges allocate nothing).
    seq_scratch: Vec<u32>,
    /// Reusable write buffer (assignments are the hot loop; resolving a
    /// target must not allocate in the steady state).
    scratch: Vec<Write>,
    /// Reusable non-blocking-assignment queue (same rationale).
    nba_scratch: Vec<Write>,
    time: u64,
    /// Registry handles, resolved once at construction
    /// (`sim.compiled.*`); [`CompiledSim::run`] flushes locally
    /// accumulated tallies through them per settle.
    metrics: &'static crate::metrics::CompiledKernelMetrics,
}

/// Per-settle tallies, accumulated in locals and flushed once.
#[derive(Debug, Default)]
struct RunTally {
    fast: u64,
    slow: u64,
    nba_commits: u64,
}

/// Four-state fallback view over the arena.
struct ArenaView<'a> {
    cd: &'a CompiledDesign,
    val: &'a [u128],
    xz: &'a [u128],
}

impl ValueReader for ArenaView<'_> {
    fn read(&self, id: SignalId) -> Logic {
        let slot = self.cd.slot(id);
        Logic::from_planes(self.cd.design().signal(id).width, self.val[slot], self.xz[slot])
    }
    fn read_word(&self, id: SignalId, index: u64) -> Logic {
        let info = self.cd.design().signal(id);
        if index < info.words as u64 {
            let slot = self.cd.slot(id) + index as usize;
            Logic::from_planes(info.width, self.val[slot], self.xz[slot])
        } else {
            Logic::xs(info.width)
        }
    }
    fn word_count(&self, id: SignalId) -> u64 {
        self.cd.design().signal(id).words as u64
    }
    fn width(&self, id: SignalId) -> u32 {
        self.cd.design().signal(id).width
    }
}

impl CompiledSim {
    /// Builds a simulation over an already-compiled design (the cheap
    /// path for cached compilations; fresh callers wrap their design in
    /// [`CompiledDesign::from_arc`] — nothing clones it).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unstable`] if the design oscillates at time 0.
    pub fn from_compiled(cd: Arc<CompiledDesign>) -> Result<CompiledSim, SimError> {
        let mut val = Vec::with_capacity(cd.arena_len());
        let mut xz = Vec::with_capacity(cd.arena_len());
        let mut xz_slots = 0usize;
        for info in cd.design().signals() {
            for _ in 0..info.words {
                val.push(0);
                xz.push(mask(info.width));
                xz_slots += 1;
            }
        }
        let nprocs = cd.design().processes().len();
        let mut sim = CompiledSim {
            cd,
            val,
            xz,
            init_val: Arc::from(Vec::new()),
            init_xz: Arc::from(Vec::new()),
            xz_slots,
            init_xz_slots: 0,
            dirty: vec![false; nprocs],
            dirty_count: 0,
            seq_fired: Vec::new(),
            seq_scratch: Vec::new(),
            scratch: Vec::new(),
            nba_scratch: Vec::new(),
            time: 0,
            metrics: crate::metrics::compiled_kernel(),
        };
        sim.initialise()?;
        sim.init_val = Arc::from(sim.val.clone());
        sim.init_xz = Arc::from(sim.xz.clone());
        sim.init_xz_slots = sim.xz_slots;
        Ok(sim)
    }

    fn initialise(&mut self) -> Result<(), SimError> {
        let cd = Arc::clone(&self.cd);
        let mut nba = Vec::new();
        // Run initial blocks, then every combinational process once so
        // nets acquire their driven values (as the event engine does).
        for &pid in cd.initial_pids() {
            self.exec::<false>(
                &cd,
                &cd.design().processes()[pid as usize].body,
                &mut nba,
                Some(pid),
            );
        }
        for &pid in cd.comb_order() {
            self.mark_dirty(pid);
        }
        self.run(&cd, &mut nba)
    }

    /// Rewinds the simulation to the exact state it had right after
    /// construction (post `initial` blocks and time-zero settle): two
    /// plane copies, cleared scheduling queues, time 0. A reset
    /// instance is indistinguishable from a freshly built one — the
    /// contract that lets [`crate::cache::checkout_sim`] hand the same
    /// instance to run after run without breaking campaign determinism.
    pub fn reset_state(&mut self) {
        self.val.copy_from_slice(&self.init_val);
        self.xz.copy_from_slice(&self.init_xz);
        self.xz_slots = self.init_xz_slots;
        // Queues are empty after any completed run; a run that aborted
        // mid-settle (oscillation) can leave them populated.
        self.dirty.fill(false);
        self.dirty_count = 0;
        self.seq_fired.clear();
        self.seq_scratch.clear();
        self.nba_scratch.clear();
        self.time = 0;
    }

    /// The compiled design being simulated.
    pub fn compiled(&self) -> &CompiledDesign {
        &self.cd
    }

    /// The elaborated design being simulated.
    pub fn design(&self) -> &Design {
        self.cd.design()
    }

    /// Current simulation time.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Sets the simulation time (monotonically increased by harnesses).
    pub fn set_time(&mut self, time: u64) {
        self.time = time;
    }

    /// Number of arena slots currently carrying X/Z bits (0 means every
    /// signal word is fully known — the two-state regime).
    pub fn unknown_slots(&self) -> usize {
        self.xz_slots
    }

    /// Reads the current value of `id`.
    pub fn peek(&self, id: SignalId) -> Logic {
        let slot = self.cd.slot(id);
        Logic::from_planes(self.cd.design().signal(id).width, self.val[slot], self.xz[slot])
    }

    /// Reads word `index` of an array signal (all-X when out of range).
    pub fn peek_word(&self, id: SignalId, index: u64) -> Logic {
        let info = self.cd.design().signal(id);
        if index < info.words as u64 {
            let slot = self.cd.slot(id) + index as usize;
            Logic::from_planes(info.width, self.val[slot], self.xz[slot])
        } else {
            Logic::xs(info.width)
        }
    }

    /// Stores both planes of one slot, keeping the unknown-slot count
    /// exact (the invariant behind the compile-time two-state path).
    #[inline]
    fn store(&mut self, slot: usize, val: u128, xz: u128) {
        self.xz_slots += (xz != 0) as usize;
        self.xz_slots -= (self.xz[slot] != 0) as usize;
        self.val[slot] = val;
        self.xz[slot] = xz;
    }

    /// Writes `value` to `id` and marks the processes the change
    /// wakes, running none of them (see [`crate::SimControl::stage`]).
    pub fn stage(&mut self, id: SignalId, value: Logic) {
        let cd = Arc::clone(&self.cd);
        self.write(&cd, id, value);
    }

    /// [`CompiledSim::stage`], reporting whether the value changed.
    fn write(&mut self, cd: &Arc<CompiledDesign>, id: SignalId, value: Logic) -> bool {
        let info = cd.design().signal(id);
        let value = value.resize(info.width);
        let slot = cd.slot(id);
        let old = Logic::from_planes(info.width, self.val[slot], self.xz[slot]);
        if old == value {
            return false;
        }
        self.store(slot, value.val(), value.xz());
        self.mark_triggered(cd, id, old, value, None);
        true
    }

    /// Drives `id` to `value` and propagates until quiescent, staged
    /// values included; a poke of the value already held with nothing
    /// staged is not a settle at all.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unstable`] on combinational oscillation.
    pub fn poke(&mut self, id: SignalId, value: Logic) -> Result<(), SimError> {
        let cd = Arc::clone(&self.cd);
        if !self.write(&cd, id, value) && self.dirty_count == 0 && self.seq_fired.is_empty() {
            return Ok(());
        }
        self.run_with_scratch(&cd)
    }

    /// Runs the delta-cycle driver with the reusable NBA queue. The
    /// queue is always restored *empty*: a successful run drains it,
    /// and an `Unstable` abort must not leave stale non-blocking
    /// writes to be applied by a later run (or by a rewound pooled
    /// instance).
    fn run_with_scratch(&mut self, cd: &Arc<CompiledDesign>) -> Result<(), SimError> {
        let mut nba = std::mem::take(&mut self.nba_scratch);
        let result = self.run(cd, &mut nba);
        nba.clear();
        self.nba_scratch = nba;
        result
    }

    /// Runs every process marked since the last run — each once,
    /// however many staged values woke it — until the design is
    /// quiescent.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unstable`] on combinational oscillation.
    pub fn settle(&mut self) -> Result<(), SimError> {
        let cd = Arc::clone(&self.cd);
        self.run_with_scratch(&cd)
    }

    // ------------------------------------------------------------------
    // Scheduling
    // ------------------------------------------------------------------

    fn mark_dirty(&mut self, pid: u32) {
        if !self.dirty[pid as usize] {
            self.dirty[pid as usize] = true;
            self.dirty_count += 1;
        }
    }

    /// Executes one process body, choosing the evaluation regime per
    /// activation: compile-time-marked bodies run fully unchecked while
    /// the arena holds no unknown bits. Returns whether the unchecked
    /// two-state fast path was taken (tallied by the caller).
    #[inline]
    fn exec_process(&mut self, cd: &Arc<CompiledDesign>, pid: u32, nba: &mut Vec<Write>) -> bool {
        let body = &cd.design().processes()[pid as usize].body;
        let fast = self.xz_slots == 0 && cd.two_state(pid);
        if fast {
            self.exec::<true>(cd, body, nba, Some(pid));
        } else {
            self.exec::<false>(cd, body, nba, Some(pid));
        }
        fast
    }

    /// Delta-cycle driver: levelized combinational sweeps, then fired
    /// edge processes, then the non-blocking assignment region, looping
    /// until nothing is pending. The NBA queue is caller-provided
    /// scratch so the steady state allocates nothing.
    fn run(&mut self, cd: &Arc<CompiledDesign>, nba: &mut Vec<Write>) -> Result<(), SimError> {
        let mut tally = RunTally::default();
        let result = self.run_inner(cd, nba, &mut tally);
        // Flush the tallies: O(1) relaxed atomic adds per settle, no
        // per-activation shared-cache-line traffic across workers.
        let metrics = self.metrics;
        metrics.settles.inc();
        if tally.fast > 0 {
            metrics.fastpath_hits.add(tally.fast);
        }
        if tally.slow > 0 {
            metrics.fallback_hits.add(tally.slow);
        }
        if tally.nba_commits > 0 {
            metrics.nba_commits.add(tally.nba_commits);
        }
        result
    }

    fn run_inner(
        &mut self,
        cd: &Arc<CompiledDesign>,
        nba: &mut Vec<Write>,
        tally: &mut RunTally,
    ) -> Result<(), SimError> {
        let mut activations = 0usize;
        loop {
            while self.dirty_count > 0 {
                for &pid in cd.comb_order() {
                    if !self.dirty[pid as usize] {
                        continue;
                    }
                    self.dirty[pid as usize] = false;
                    self.dirty_count -= 1;
                    if activations == MAX_ACTIVATIONS {
                        return Err(SimError::Unstable { activations });
                    }
                    activations += 1;
                    if self.exec_process(cd, pid, nba) {
                        tally.fast += 1;
                    } else {
                        tally.slow += 1;
                    }
                }
            }
            if !self.seq_fired.is_empty() {
                // Swap in the spare buffer: processes executed from the
                // batch may fire further edge processes into the (now
                // empty) `seq_fired`; both capacities survive the swap.
                let mut batch =
                    std::mem::replace(&mut self.seq_fired, std::mem::take(&mut self.seq_scratch));
                for (taken, &pid) in batch.iter().enumerate() {
                    if activations == MAX_ACTIVATIONS {
                        // The dropped rest of the batch can fire again.
                        for &dropped in &batch[taken..] {
                            self.dirty[dropped as usize] = false;
                        }
                        batch.clear();
                        self.seq_scratch = batch;
                        return Err(SimError::Unstable { activations });
                    }
                    activations += 1;
                    self.dirty[pid as usize] = false;
                    if self.exec_process(cd, pid, nba) {
                        tally.fast += 1;
                    } else {
                        tally.slow += 1;
                    }
                }
                batch.clear();
                self.seq_scratch = batch;
                continue;
            }
            if !nba.is_empty() {
                // Non-blocking region: apply queued writes; no process
                // is running, so nothing misses its own events. Only
                // `exec` queues NBAs, so the list is stable while we
                // iterate, and clearing (not taking) it keeps its
                // capacity for the next cycle.
                tally.nba_commits += nba.len() as u64;
                for w in nba.iter() {
                    self.apply_write(cd, w, None);
                }
                nba.clear();
                continue;
            }
            return Ok(());
        }
    }

    fn exec<const FAST: bool>(
        &mut self,
        cd: &Arc<CompiledDesign>,
        stmt: &LStmt,
        nba: &mut Vec<Write>,
        current: Option<u32>,
    ) {
        match stmt {
            LStmt::Block(stmts) => {
                for s in stmts {
                    self.exec::<FAST>(cd, s, nba, current);
                }
            }
            LStmt::Assign { lhs, rhs, blocking, .. } => {
                let width = lhs.width(cd.design()).max(1);
                let value = self.eval_any::<FAST>(rhs, width).resize(width);
                let mut writes = std::mem::take(&mut self.scratch);
                writes.clear();
                self.resolve_target::<FAST>(cd, lhs, value, &mut writes);
                if *blocking {
                    for w in &writes {
                        self.apply_write(cd, w, current);
                    }
                } else {
                    nba.append(&mut writes);
                }
                writes.clear();
                self.scratch = writes;
            }
            LStmt::If { cond, then_branch, else_branch, .. } => {
                match self.truthiness_of::<FAST>(cond) {
                    Tri::True => self.exec::<FAST>(cd, then_branch, nba, current),
                    Tri::False => {
                        if let Some(e) = else_branch {
                            self.exec::<FAST>(cd, e, nba, current);
                        }
                    }
                    // Unknown condition: neither branch (X-conservative,
                    // as in the event engine).
                    Tri::Unknown => {}
                }
            }
            LStmt::Case { kind, expr, arms, default, .. } => {
                let sel = self.eval_any::<FAST>(expr, expr.width);
                for (labels, body) in arms {
                    for label in labels {
                        let lv = self.eval_any::<FAST>(label, label.width);
                        if case_matches(*kind, &sel, &lv) {
                            self.exec::<FAST>(cd, body, nba, current);
                            return;
                        }
                    }
                }
                if let Some(d) = default {
                    self.exec::<FAST>(cd, d, nba, current);
                }
            }
            LStmt::Nop => {}
        }
    }

    /// Resolves a target into concrete writes, slicing `value`
    /// most-significant-first across concatenations (mirrors the event
    /// engine).
    fn resolve_target<const FAST: bool>(
        &self,
        cd: &CompiledDesign,
        target: &LTarget,
        value: Logic,
        out: &mut Vec<Write>,
    ) {
        match target {
            LTarget::Whole(s) => {
                let w = cd.design().signal(*s).width;
                out.push(Write { signal: *s, word: 0, lsb: 0, value: value.resize(w) });
            }
            LTarget::Bit(s, index) => {
                if let Some(i) = self.eval_index::<FAST>(index) {
                    if i < cd.design().signal(*s).width as u128 {
                        out.push(Write {
                            signal: *s,
                            word: 0,
                            lsb: i as u32,
                            value: value.resize(1),
                        });
                    }
                }
                // X/Z or out-of-range index: write is dropped.
            }
            LTarget::Part(s, off, w) => {
                out.push(Write { signal: *s, word: 0, lsb: *off, value: value.resize(*w) });
            }
            LTarget::Word(s, index) => {
                if let Some(i) = self.eval_index::<FAST>(index) {
                    if (i as u64) < cd.design().signal(*s).words as u64 {
                        let w = cd.design().signal(*s).width;
                        out.push(Write {
                            signal: *s,
                            word: i as u64,
                            lsb: 0,
                            value: value.resize(w),
                        });
                    }
                }
            }
            LTarget::Concat(parts) => {
                let total: u32 = parts.iter().map(|p| p.width(cd.design())).sum();
                let mut consumed = 0;
                for p in parts {
                    let pw = p.width(cd.design());
                    let lsb = total - consumed - pw;
                    self.resolve_target::<FAST>(cd, p, value.get_slice(lsb, pw), out);
                    consumed += pw;
                }
            }
        }
    }

    fn apply_write(&mut self, cd: &Arc<CompiledDesign>, w: &Write, current: Option<u32>) {
        let info = cd.design().signal(w.signal);
        if w.word >= info.words as u64 {
            return;
        }
        let slot = cd.slot(w.signal) + w.word as usize;
        let old = Logic::from_planes(info.width, self.val[slot], self.xz[slot]);
        let updated = if w.lsb == 0 && w.value.width() == old.width() {
            w.value
        } else {
            let mut u = old;
            u.set_slice(w.lsb, w.value);
            u
        };
        if updated == old {
            return;
        }
        self.store(slot, updated.val(), updated.xz());
        self.mark_triggered(cd, w.signal, old, updated, current);
    }

    /// Dirties combinational dependents and fires edge-triggered
    /// processes for a `signal` transition, skipping the running process
    /// (a process misses its own events, IEEE 1364) and those already
    /// marked (a wake-up is idempotent until the process runs).
    fn mark_triggered(
        &mut self,
        cd: &Arc<CompiledDesign>,
        signal: SignalId,
        old: Logic,
        new: Logic,
        current: Option<u32>,
    ) {
        for &pid in cd.comb_sensitive(signal) {
            if Some(pid) != current {
                self.mark_dirty(pid);
            }
        }
        let seq = cd.seq_sensitive(signal);
        if seq.is_empty() {
            return;
        }
        let old_b = old.get_bit(0);
        let new_b = new.get_bit(0);
        let is1 = |l: &Logic| l.truthiness() == Tri::True;
        let is0 = |l: &Logic| l.to_u128() == Some(0);
        for (pid, edge) in seq {
            let fire = match edge {
                Some(Edge::Pos) => !is1(&old_b) && is1(&new_b),
                Some(Edge::Neg) => !is0(&old_b) && is0(&new_b),
                None => true,
            };
            if fire
                && Some(*pid) != current
                && !std::mem::replace(&mut self.dirty[*pid as usize], true)
            {
                self.seq_fired.push(*pid);
            }
        }
    }

    // ------------------------------------------------------------------
    // Expression evaluation: two-state fast path + four-state fallback
    // ------------------------------------------------------------------

    fn view(&self) -> ArenaView<'_> {
        ArenaView { cd: &self.cd, val: &self.val, xz: &self.xz }
    }

    /// Evaluates `e` at context width `ctx`. With `FAST` (compile-time
    /// two-state process, arena fully known) the X/Z probes compile
    /// away entirely; otherwise the two-state path is attempted and any
    /// unknown falls back to the four-state evaluator.
    fn eval_any<const FAST: bool>(&self, e: &LExpr, ctx: u32) -> Logic {
        debug_assert!(!FAST || self.xz_slots == 0, "FAST eval outside the two-state regime");
        let w = ctx.max(e.width).max(1);
        match self.eval2::<FAST>(e, ctx) {
            Some(v) => Logic::from_u128(w, v),
            None => eval(&self.view(), e, ctx),
        }
    }

    /// Evaluates a (self-determined) index expression to a known value.
    fn eval_index<const FAST: bool>(&self, index: &LExpr) -> Option<u128> {
        self.eval2::<FAST>(index, index.width)
            .or_else(|| eval(&self.view(), index, index.width).to_u128())
    }

    /// Truthiness of a condition without materialising a `Logic` on the
    /// fast path.
    fn truthiness_of<const FAST: bool>(&self, cond: &LExpr) -> Tri {
        match self.eval2::<FAST>(cond, cond.width) {
            Some(0) => Tri::False,
            Some(_) => Tri::True,
            None => eval(&self.view(), cond, cond.width).truthiness(),
        }
    }

    /// Fully-known slot read: `None` when any bit is X/Z. With
    /// `UNCHECKED` the probe is elided — sound only inside a
    /// compile-time-marked process while [`CompiledSim::unknown_slots`]
    /// is zero.
    #[inline]
    fn read2<const UNCHECKED: bool>(&self, s: SignalId, word: usize) -> Option<u128> {
        let slot = self.cd.slot(s) + word;
        if !UNCHECKED && self.xz[slot] != 0 {
            return None;
        }
        debug_assert_eq!(self.xz[slot], 0, "unchecked read of an X/Z slot");
        Some(self.val[slot])
    }

    /// The two-state fast path: masked `u128` evaluation mirroring
    /// [`eval`]'s width semantics exactly. Returns `None` as soon as any
    /// operand carries X/Z bits or an operation would produce X (the
    /// caller then re-evaluates four-state). With `UNCHECKED` the
    /// per-read probes vanish and — for bodies the compiler marked
    /// two-state safe — the `None` arms are statically unreachable.
    fn eval2<const UNCHECKED: bool>(&self, e: &LExpr, ctx: u32) -> Option<u128> {
        let w = ctx.max(e.width).max(1);
        Some(match &e.kind {
            LExprKind::Const(l) => {
                if l.xz() != 0 {
                    return None;
                }
                l.val()
            }
            LExprKind::Sig(s) => self.read2::<UNCHECKED>(*s, 0)?,
            LExprKind::Word(s, index) => {
                let i = self.eval2::<UNCHECKED>(index, index.width)?;
                if i >= self.cd.design().signal(*s).words as u128 {
                    return None;
                }
                self.read2::<UNCHECKED>(*s, i as usize)?
            }
            LExprKind::BitSel(s, index) => {
                let i = self.eval2::<UNCHECKED>(index, index.width)?;
                if i >= self.cd.design().signal(*s).width as u128 {
                    return None;
                }
                (self.read2::<UNCHECKED>(*s, 0)? >> i) & 1
            }
            LExprKind::PartSel(s, off) => {
                // Out-of-range slice bits are X: punt to four-state.
                if off + e.width > self.cd.design().signal(*s).width {
                    return None;
                }
                (self.read2::<UNCHECKED>(*s, 0)? >> off) & mask(e.width)
            }
            LExprKind::Unary(op, a) => match op {
                UnaryOp::LogNot => (self.eval2::<UNCHECKED>(a, a.width)? == 0) as u128,
                UnaryOp::BitNot => !self.eval2::<UNCHECKED>(a, w)? & mask(w),
                UnaryOp::Neg => self.eval2::<UNCHECKED>(a, w)?.wrapping_neg() & mask(w),
                UnaryOp::Plus => self.eval2::<UNCHECKED>(a, w)?,
                UnaryOp::RedAnd => {
                    (self.eval2::<UNCHECKED>(a, a.width)? == mask(a.width.max(1))) as u128
                }
                UnaryOp::RedOr => (self.eval2::<UNCHECKED>(a, a.width)? != 0) as u128,
                UnaryOp::RedXor => {
                    (self.eval2::<UNCHECKED>(a, a.width)?.count_ones() % 2 == 1) as u128
                }
                UnaryOp::RedNand => {
                    (self.eval2::<UNCHECKED>(a, a.width)? != mask(a.width.max(1))) as u128
                }
                UnaryOp::RedNor => (self.eval2::<UNCHECKED>(a, a.width)? == 0) as u128,
                UnaryOp::RedXnor => {
                    (self.eval2::<UNCHECKED>(a, a.width)?.count_ones() % 2 == 0) as u128
                }
            },
            LExprKind::Binary(op, a, b) => self.eval2_binary::<UNCHECKED>(*op, a, b, w)?,
            LExprKind::Ternary(c, t, f) => {
                if self.eval2::<UNCHECKED>(c, c.width)? != 0 {
                    self.eval2::<UNCHECKED>(t, w)?
                } else {
                    self.eval2::<UNCHECKED>(f, w)?
                }
            }
            LExprKind::Concat(items) => {
                // Word-parallel for any total width, including the
                // truncating >128-bit case: `Logic::concat` keeps the
                // low 128 bits (an item of width 128 displaces the
                // accumulated high bits entirely), and shifting the
                // u128 accumulator reproduces exactly that — high bits
                // fall off the top, wide datapaths stay on the fast
                // path instead of re-evaluating four-state.
                let mut acc = 0u128;
                for item in items {
                    let iw = item.width.max(1);
                    let v = self.eval2::<UNCHECKED>(item, item.width)? & mask(iw);
                    acc = if iw >= 128 { v } else { (acc << iw) | v };
                }
                acc & mask(w)
            }
        })
    }

    fn eval2_binary<const UNCHECKED: bool>(
        &self,
        op: BinaryOp,
        a: &LExpr,
        b: &LExpr,
        w: u32,
    ) -> Option<u128> {
        use BinaryOp::*;
        Some(match op {
            Add => {
                self.eval2::<UNCHECKED>(a, w)?.wrapping_add(self.eval2::<UNCHECKED>(b, w)?)
                    & mask(w)
            }
            Sub => {
                self.eval2::<UNCHECKED>(a, w)?.wrapping_sub(self.eval2::<UNCHECKED>(b, w)?)
                    & mask(w)
            }
            Mul => {
                self.eval2::<UNCHECKED>(a, w)?.wrapping_mul(self.eval2::<UNCHECKED>(b, w)?)
                    & mask(w)
            }
            Div => {
                let y = self.eval2::<UNCHECKED>(b, w)?;
                if y == 0 {
                    return None; // division by zero is X
                }
                (self.eval2::<UNCHECKED>(a, w)? / y) & mask(w)
            }
            Mod => {
                let y = self.eval2::<UNCHECKED>(b, w)?;
                if y == 0 {
                    return None;
                }
                (self.eval2::<UNCHECKED>(a, w)? % y) & mask(w)
            }
            Pow => {
                let x = self.eval2::<UNCHECKED>(a, w)?;
                let y = self.eval2::<UNCHECKED>(b, b.width)?;
                let mut acc: u128 = 1;
                for _ in 0..y.min(128) {
                    acc = acc.wrapping_mul(x);
                }
                acc & mask(w)
            }
            Shl => {
                let x = self.eval2::<UNCHECKED>(a, w)?;
                let sh = self.eval2::<UNCHECKED>(b, b.width)?;
                if sh >= 128 {
                    0
                } else {
                    (x << sh) & mask(w)
                }
            }
            Shr => {
                let x = self.eval2::<UNCHECKED>(a, w)?;
                let sh = self.eval2::<UNCHECKED>(b, b.width)?;
                if sh >= 128 {
                    0
                } else {
                    x >> sh
                }
            }
            AShr => {
                // The operand is context-sized to `w` first, so its
                // sign bit is bit `w - 1` (mirrors `Logic::ashr`).
                let x = self.eval2::<UNCHECKED>(a, w)?;
                let sh = self.eval2::<UNCHECKED>(b, b.width)?;
                let shifted = if sh >= 128 { 0 } else { x >> sh };
                let eff = sh.min(w as u128) as u32;
                if eff > 0 && (x >> (w - 1)) & 1 == 1 {
                    (shifted | (mask(eff) << (w - eff))) & mask(w)
                } else {
                    shifted
                }
            }
            Lt | Le | Gt | Ge => {
                let ow = a.width.max(b.width);
                let x = self.eval2::<UNCHECKED>(a, ow)?;
                let y = self.eval2::<UNCHECKED>(b, ow)?;
                (match op {
                    Lt => x < y,
                    Le => x <= y,
                    Gt => x > y,
                    _ => x >= y,
                }) as u128
            }
            Eq | CaseEq => {
                let ow = a.width.max(b.width);
                (self.eval2::<UNCHECKED>(a, ow)? == self.eval2::<UNCHECKED>(b, ow)?) as u128
            }
            Ne | CaseNe => {
                let ow = a.width.max(b.width);
                (self.eval2::<UNCHECKED>(a, ow)? != self.eval2::<UNCHECKED>(b, ow)?) as u128
            }
            LogAnd => {
                ((self.eval2::<UNCHECKED>(a, a.width)? != 0)
                    && (self.eval2::<UNCHECKED>(b, b.width)? != 0)) as u128
            }
            LogOr => {
                ((self.eval2::<UNCHECKED>(a, a.width)? != 0)
                    || (self.eval2::<UNCHECKED>(b, b.width)? != 0)) as u128
            }
            BitAnd => self.eval2::<UNCHECKED>(a, w)? & self.eval2::<UNCHECKED>(b, w)?,
            BitOr => self.eval2::<UNCHECKED>(a, w)? | self.eval2::<UNCHECKED>(b, w)?,
            BitXor => self.eval2::<UNCHECKED>(a, w)? ^ self.eval2::<UNCHECKED>(b, w)?,
            BitXnor => !(self.eval2::<UNCHECKED>(a, w)? ^ self.eval2::<UNCHECKED>(b, w)?) & mask(w),
        })
    }
}

impl crate::backend::SimControl for CompiledSim {
    fn design(&self) -> &Design {
        CompiledSim::design(self)
    }
    fn time(&self) -> u64 {
        CompiledSim::time(self)
    }
    fn set_time(&mut self, time: u64) {
        CompiledSim::set_time(self, time);
    }
    fn peek(&self, id: SignalId) -> Logic {
        CompiledSim::peek(self, id)
    }
    fn peek_word(&self, id: SignalId, index: u64) -> Logic {
        CompiledSim::peek_word(self, id, index)
    }
    fn stage(&mut self, id: SignalId, value: Logic) {
        CompiledSim::stage(self, id, value);
    }
    fn poke(&mut self, id: SignalId, value: Logic) -> Result<(), SimError> {
        CompiledSim::poke(self, id, value)
    }
    fn settle(&mut self) -> Result<(), SimError> {
        CompiledSim::settle(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SimControl;
    use crate::elab::elaborate;
    use crate::sched::Simulator;
    use uvllm_verilog::parse;

    fn compiled(design: &Arc<Design>) -> Result<CompiledSim, SimError> {
        CompiledSim::from_compiled(Arc::new(CompiledDesign::from_arc(Arc::clone(design))))
    }

    fn both(src: &str) -> (Simulator, CompiledSim) {
        let file = parse(src).unwrap();
        let top = &file.top().unwrap().name;
        let design = Arc::new(elaborate(&file, top).unwrap());
        (Simulator::from_arc(Arc::clone(&design)).unwrap(), compiled(&design).unwrap())
    }

    /// Pokes both kernels identically and asserts every signal word
    /// matches afterwards.
    fn poke_both(ev: &mut Simulator, cp: &mut CompiledSim, name: &str, v: Logic) {
        ev.poke_by_name(name, v).unwrap();
        SimControl::poke_by_name(cp, name, v).unwrap();
        assert_signals_match(ev, cp);
    }

    fn assert_signals_match(ev: &Simulator, cp: &CompiledSim) {
        for (i, info) in ev.design().signals().iter().enumerate() {
            let id = SignalId(i as u32);
            for word in 0..info.words as u64 {
                assert_eq!(
                    ev.peek_word(id, word),
                    cp.peek_word(id, word),
                    "signal {} word {word} diverged",
                    info.name
                );
            }
        }
    }

    #[test]
    fn combinational_chain_matches_event_engine() {
        let (mut ev, mut cp) = both(
            "module m(input [7:0] a, input [7:0] b, output [8:0] s, output [7:0] n);\n\
             assign s = a + b;\nassign n = ~a;\nendmodule\n",
        );
        assert_signals_match(&ev, &cp);
        poke_both(&mut ev, &mut cp, "a", Logic::from_u128(8, 200));
        poke_both(&mut ev, &mut cp, "b", Logic::from_u128(8, 100));
        assert_eq!(cp.peek(cp.design().signal_id("s").unwrap()).to_u128(), Some(300));
    }

    #[test]
    fn clocked_counter_matches_event_engine() {
        let (mut ev, mut cp) = both(
            "module c(input clk, input rst_n, output reg [3:0] q);\n\
             always @(posedge clk or negedge rst_n) begin\n\
             if (!rst_n) q <= 4'd0; else q <= q + 4'd1;\nend\nendmodule\n",
        );
        poke_both(&mut ev, &mut cp, "clk", Logic::bit(false));
        poke_both(&mut ev, &mut cp, "rst_n", Logic::bit(false));
        poke_both(&mut ev, &mut cp, "rst_n", Logic::bit(true));
        for _ in 0..9 {
            poke_both(&mut ev, &mut cp, "clk", Logic::bit(true));
            poke_both(&mut ev, &mut cp, "clk", Logic::bit(false));
        }
        assert_eq!(cp.peek(cp.design().signal_id("q").unwrap()).to_u128(), Some(9));
    }

    #[test]
    fn memory_and_x_propagation_match() {
        let (mut ev, mut cp) = both(
            "module r(input clk, input we, input [3:0] addr, input [7:0] din,\n\
             output [7:0] dout);\nreg [7:0] mem [0:15];\n\
             always @(posedge clk) if (we) mem[addr] <= din;\n\
             assign dout = mem[addr];\nendmodule\n",
        );
        poke_both(&mut ev, &mut cp, "clk", Logic::bit(false));
        poke_both(&mut ev, &mut cp, "we", Logic::bit(true));
        poke_both(&mut ev, &mut cp, "addr", Logic::from_u128(4, 5));
        poke_both(&mut ev, &mut cp, "din", Logic::from_u128(8, 0xAB));
        poke_both(&mut ev, &mut cp, "clk", Logic::bit(true));
        assert_eq!(SimControl::peek_by_name(&cp, "dout").unwrap().to_u128(), Some(0xAB));
        // Unwritten word: both kernels read X.
        poke_both(&mut ev, &mut cp, "addr", Logic::from_u128(4, 6));
        assert!(SimControl::peek_by_name(&cp, "dout").unwrap().to_u128().is_none());
    }

    #[test]
    fn truncating_concat_is_word_parallel_two_state() {
        // Wide (>128-bit) concats truncate at the IR's 128-bit cap; the
        // fast path must reproduce that word-parallel instead of
        // bailing to four-state, and the processes must be marked
        // two-state safe so the per-read probe is skipped too.
        let src = "module w(input [63:0] a, input [63:0] b, input [63:0] c,\n\
                   input [127:0] d, output [127:0] y, output [63:0] z,\n\
                   output [127:0] e);\n\
                   assign y = {a, b, c};\n\
                   assign z = {a, b, c} >> 64;\n\
                   assign e = {d, a};\nendmodule\n";
        let file = parse(src).unwrap();
        let design = Arc::new(elaborate(&file, "w").unwrap());
        let cd = CompiledDesign::from_arc(Arc::clone(&design));
        for pid in 0..design.processes().len() as u32 {
            assert!(cd.two_state(pid), "truncating concat must stay two-state safe (pid {pid})");
        }
        let (mut ev, mut cp) = both(src);
        let av = 0xA5A5_5A5A_DEAD_BEEFu128;
        let bv = 0x0123_4567_89AB_CDEFu128;
        let cv = 0xFEDC_BA98_7654_3210u128;
        let dv = 0xFFFF_0000_FFFF_0000_1234_5678_9ABC_DEF0u128;
        poke_both(&mut ev, &mut cp, "a", Logic::from_u128(64, av));
        poke_both(&mut ev, &mut cp, "b", Logic::from_u128(64, bv));
        poke_both(&mut ev, &mut cp, "c", Logic::from_u128(64, cv));
        poke_both(&mut ev, &mut cp, "d", Logic::from_u128(128, dv));
        // {a, b, c} keeps the low 128 bits: {b, c}.
        let y = SimControl::peek_by_name(&cp, "y").unwrap();
        assert_eq!(y.to_u128(), Some((bv << 64) | cv));
        assert_eq!(SimControl::peek_by_name(&cp, "z").unwrap().to_u128(), Some(bv));
        // A 128-bit item displaces everything above it: {d, a} keeps
        // {d[63:0], a}.
        let e = SimControl::peek_by_name(&cp, "e").unwrap();
        assert_eq!(e.to_u128(), Some(((dv & super::mask(64)) << 64) | av));
        // X operands still fall back four-state, identically.
        poke_both(&mut ev, &mut cp, "c", Logic::xs(64));
        assert!(SimControl::peek_by_name(&cp, "y").unwrap().to_u128().is_none());
        poke_both(&mut ev, &mut cp, "c", Logic::from_u128(64, 7));
        assert_eq!(SimControl::peek_by_name(&cp, "y").unwrap().to_u128(), Some((bv << 64) | 7));
    }

    #[test]
    fn incomplete_sensitivity_matches_event_engine() {
        // The compiled kernel must reproduce missing-sensitivity bugs,
        // not paper over them with read-set levelization.
        let (mut ev, mut cp) =
            both("module m(input a, input b, output reg y);\nalways @(a) y = a & b;\nendmodule\n");
        poke_both(&mut ev, &mut cp, "a", Logic::bit(true));
        poke_both(&mut ev, &mut cp, "b", Logic::bit(true));
        assert!(SimControl::peek_by_name(&cp, "y").unwrap().to_u128().is_none());
        poke_both(&mut ev, &mut cp, "a", Logic::bit(false));
        poke_both(&mut ev, &mut cp, "a", Logic::bit(true));
        assert_eq!(SimControl::peek_by_name(&cp, "y").unwrap().to_u128(), Some(1));
    }

    #[test]
    fn x_feedback_settles_like_event_engine() {
        let file = parse("module fx(output y);\nassign y = ~y;\nendmodule\n").unwrap();
        let design = Arc::new(elaborate(&file, "fx").unwrap());
        let cp = compiled(&design).unwrap();
        assert!(SimControl::peek_by_name(&cp, "y").unwrap().to_u128().is_none());
    }

    #[test]
    fn oscillation_reports_unstable_at_the_cap() {
        let file = parse(
            "module osc(output reg a, output reg b);\n\
             always @(*) begin\ncase (b)\n1'b0: a = 1'b1;\ndefault: a = 1'b0;\nendcase\nend\n\
             always @(*) begin\ncase (a)\n1'b0: b = 1'b0;\ndefault: b = 1'b1;\nendcase\nend\n\
             endmodule\n",
        )
        .unwrap();
        let design = Arc::new(elaborate(&file, "osc").unwrap());
        match compiled(&design) {
            Err(SimError::Unstable { activations }) => {
                assert_eq!(activations, MAX_ACTIVATIONS);
            }
            other => panic!("expected unstable, got {other:?}"),
        }
        match Simulator::from_arc(design) {
            Err(SimError::Unstable { activations }) => {
                assert_eq!(activations, MAX_ACTIVATIONS);
            }
            other => panic!("expected unstable, got {other:?}"),
        }
    }

    #[test]
    fn nonblocking_swap_matches() {
        let (mut ev, mut cp) = both(
            "module swap(input clk, output reg a, output reg b);\n\
             initial begin\na = 1'b0;\nb = 1'b1;\nend\n\
             always @(posedge clk) begin\na <= b;\nb <= a;\nend\nendmodule\n",
        );
        assert_eq!(SimControl::peek_by_name(&cp, "a").unwrap().to_u128(), Some(0));
        poke_both(&mut ev, &mut cp, "clk", Logic::bit(true));
        assert_eq!(SimControl::peek_by_name(&cp, "a").unwrap().to_u128(), Some(1));
        assert_eq!(SimControl::peek_by_name(&cp, "b").unwrap().to_u128(), Some(0));
    }

    #[test]
    fn fast_path_falls_back_on_division_by_zero() {
        let (mut ev, mut cp) = both(
            "module d(input [7:0] a, input [7:0] b, output [7:0] q);\n\
             assign q = a / b;\nendmodule\n",
        );
        poke_both(&mut ev, &mut cp, "a", Logic::from_u128(8, 42));
        poke_both(&mut ev, &mut cp, "b", Logic::from_u128(8, 0));
        assert!(SimControl::peek_by_name(&cp, "q").unwrap().to_u128().is_none());
        poke_both(&mut ev, &mut cp, "b", Logic::from_u128(8, 6));
        assert_eq!(SimControl::peek_by_name(&cp, "q").unwrap().to_u128(), Some(7));
    }

    #[test]
    fn unknown_slot_count_tracks_pokes() {
        let (_, mut cp) = both(
            "module m(input [7:0] a, input [7:0] b, output [8:0] s);\n\
             assign s = a + b;\nendmodule\n",
        );
        // Everything starts X: a, b and s.
        assert_eq!(cp.unknown_slots(), 3);
        SimControl::poke_by_name(&mut cp, "a", Logic::from_u128(8, 1)).unwrap();
        assert_eq!(cp.unknown_slots(), 2, "a known; s still X (X + known = X)");
        SimControl::poke_by_name(&mut cp, "b", Logic::from_u128(8, 2)).unwrap();
        assert_eq!(cp.unknown_slots(), 0, "whole arena known");
        SimControl::poke_by_name(&mut cp, "a", Logic::xs(8)).unwrap();
        assert_eq!(cp.unknown_slots(), 2, "X propagates back through the adder");
    }

    #[test]
    fn two_state_marking_is_conservative() {
        let file = parse(
            "module m(input [7:0] a, input [7:0] b, output [8:0] s, output [7:0] q,\n\
             output [7:0] r);\nassign s = a + b;\nassign q = a / b;\nassign r = a % b;\n\
             endmodule\n",
        )
        .unwrap();
        let design = Arc::new(elaborate(&file, "m").unwrap());
        let cd = CompiledDesign::from_arc(Arc::clone(&design));
        let marks: Vec<bool> =
            (0..design.processes().len() as u32).map(|p| cd.two_state(p)).collect();
        assert_eq!(marks.iter().filter(|m| **m).count(), 1, "only the adder is X-free: {marks:?}");
    }

    #[test]
    fn reset_state_restores_the_post_construction_snapshot() {
        let src = "module c(input clk, input rst_n, input en, output reg [3:0] q, output tc);\n\
                   assign tc = (q == 4'd11);\n\
                   always @(posedge clk or negedge rst_n) begin\n\
                   if (!rst_n) q <= 4'd0; else if (en) q <= q + 4'd1;\nend\nendmodule\n";
        let file = parse(src).unwrap();
        let design = Arc::new(elaborate(&file, "c").unwrap());
        let fresh = compiled(&design).unwrap();
        let mut used = compiled(&design).unwrap();
        // Drive it somewhere interesting, then rewind.
        SimControl::poke_by_name(&mut used, "rst_n", Logic::bit(true)).unwrap();
        SimControl::poke_by_name(&mut used, "en", Logic::bit(true)).unwrap();
        for _ in 0..5 {
            SimControl::poke_by_name(&mut used, "clk", Logic::bit(true)).unwrap();
            SimControl::poke_by_name(&mut used, "clk", Logic::bit(false)).unwrap();
        }
        used.set_time(500);
        assert_ne!(used.unknown_slots(), fresh.unknown_slots());
        used.reset_state();
        assert_eq!(used.time(), 0);
        assert_eq!(used.unknown_slots(), fresh.unknown_slots());
        for (i, info) in design.signals().iter().enumerate() {
            let id = SignalId(i as u32);
            for word in 0..info.words as u64 {
                assert_eq!(
                    used.peek_word(id, word),
                    fresh.peek_word(id, word),
                    "signal {} word {word} not rewound",
                    info.name
                );
            }
        }
        // And the rewound instance behaves identically to a fresh one.
        let mut replay = compiled(&design).unwrap();
        for sim in [&mut used, &mut replay] {
            SimControl::poke_by_name(sim, "rst_n", Logic::bit(true)).unwrap();
            SimControl::poke_by_name(sim, "en", Logic::bit(true)).unwrap();
            for _ in 0..3 {
                SimControl::poke_by_name(sim, "clk", Logic::bit(true)).unwrap();
                SimControl::poke_by_name(sim, "clk", Logic::bit(false)).unwrap();
            }
        }
        assert_eq!(
            SimControl::peek_by_name(&used, "q").unwrap(),
            SimControl::peek_by_name(&replay, "q").unwrap()
        );
    }
}
