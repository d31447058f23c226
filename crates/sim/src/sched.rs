//! Event-driven simulation engine with delta cycles and blocking /
//! non-blocking assignment regions.
//!
//! The interpreter executes **precompiled process programs**
//! ([`crate::program`]): each body is lowered once at construction into
//! a flat op array with pre-resolved targets and precomputed widths,
//! and the scheduler keeps persistent scratch planes (the active event
//! set, the NBA queue, the write-staging buffer — cleared, never
//! dropped, between deltas), so a steady-state cycle performs **zero
//! heap allocations**. `tests/alloc_steady_state.rs` enforces that
//! bound.

use crate::elab::{Design, Process, ProcessId, SignalId, Trigger};
use crate::eval::{case_matches, eval, eval_into, ValueReader};
use crate::logic::{Logic, Tri};
use crate::program::{lower_process, Dst, Op, ProcessProgram};
use std::fmt;
use std::sync::Arc;
use uvllm_verilog::ast::Edge;

/// Maximum process executions inside one [`Simulator::settle`] call
/// before the engine reports an oscillating (unstable) design.
pub const MAX_ACTIVATIONS: usize = 50_000;

/// Simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Combinational feedback did not stabilise.
    Unstable {
        /// Process activations performed before giving up.
        activations: usize,
    },
    /// A signal name was not found in the design.
    UnknownSignal(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Unstable { activations } => {
                write!(f, "design did not stabilise after {activations} activations")
            }
            SimError::UnknownSignal(name) => write!(f, "unknown signal '{name}'"),
        }
    }
}

impl std::error::Error for SimError {}

/// One resolved write: `value` goes into `[lsb, lsb+width)` of `word` of
/// `signal`. `Copy` (the value is two `u128` planes) so the NBA region
/// can drain its queue without moving the queue's buffer.
#[derive(Debug, Clone, Copy)]
struct Write {
    signal: SignalId,
    word: u64,
    lsb: u32,
    value: Logic,
}

/// The per-design half of a [`Simulator`]: built once at construction,
/// immutable afterwards and shared by clones. Kept apart from the
/// signal values so the event loop borrows it while it mutates them —
/// no per-settle reference-count traffic, no per-activation body clone.
#[derive(Debug)]
struct Plan {
    design: Arc<Design>,
    /// Per-process flat programs, lowered once.
    programs: Vec<ProcessProgram>,
    /// Combinational processes sensitive to each signal.
    comb_sens: Vec<Vec<ProcessId>>,
    /// Edge-triggered processes: (process, edge) per signal.
    seq_sens: Vec<Vec<(ProcessId, Option<Edge>)>>,
    /// Width of each signal, for the per-write resize.
    widths: Vec<u32>,
}

/// An event-driven four-state simulator over an elaborated [`Design`].
///
/// The harness drives it imperatively: [`Simulator::stage`] the input
/// values of one time step and [`Simulator::settle`] to propagate them
/// ([`Simulator::poke`] is both, for one signal), read back with
/// [`Simulator::peek`], and advance [`Simulator::set_time`] between
/// cycles. Clocked logic reacts to edges produced by staged values.
///
/// **Wake-once:** a process woken twice before it runs, runs once — by
/// two staged inputs it is sensitive to, or by two writes of one delta.
/// Once it has started it can be woken again (by anything but its own
/// writes).
///
/// **Counting:** the kernel's work (`sim.event.*`) is tallied in the
/// simulator and added to the registry once, when it drops; a clone
/// starts at zero, so every drive is counted exactly once.
#[derive(Debug)]
pub struct Simulator {
    plan: Arc<Plan>,
    /// Current value per signal per word.
    words: Vec<Vec<Logic>>,
    /// Persistent active event set (FIFO via cursor), empty between
    /// calls. Cleared, never dropped, so its capacity survives — pokes
    /// allocate nothing once the high-water mark is reached.
    active: Vec<ProcessId>,
    /// Per-process "waiting in `active`" flag: set when the process is
    /// queued, cleared when the event loop pops it, so a wake-up of a
    /// process that has not run yet is idempotent. Set for exactly the
    /// processes in `active`; all clear once a drive returns.
    pending: Vec<bool>,
    /// Persistent non-blocking-assignment queue (same rationale).
    nba: Vec<Write>,
    /// Persistent write-staging buffer for concatenated targets (all
    /// index expressions evaluate before any part applies).
    writes: Vec<Write>,
    time: u64,
    /// Set when the initial blocks have been run.
    initialised: bool,
    /// Registry handles, resolved once at construction (`sim.event.*`),
    /// through which `tally` is added on drop.
    metrics: &'static crate::metrics::EventKernelMetrics,
    /// The work of every drive of this simulator so far, in plain
    /// fields: a drive adds to them and touches no shared counter.
    tally: EventTally,
}

/// Kernel work of one simulator, one field per `sim.event.*` counter.
#[derive(Debug, Default)]
struct EventTally {
    settles: u64,
    activations: u64,
    events: u64,
    nba_commits: u64,
}

impl Clone for Simulator {
    /// An independent simulator in the same state, with zero tallies:
    /// its drop adds only what the clone itself drove.
    fn clone(&self) -> Self {
        Simulator {
            plan: Arc::clone(&self.plan),
            words: self.words.clone(),
            active: self.active.clone(),
            pending: self.pending.clone(),
            nba: self.nba.clone(),
            writes: self.writes.clone(),
            time: self.time,
            initialised: self.initialised,
            metrics: self.metrics,
            tally: EventTally::default(),
        }
    }
}

impl Drop for Simulator {
    /// Adds this simulator's tallies to `sim.event.*`: at most four
    /// relaxed adds for its whole life.
    fn drop(&mut self) {
        let (metrics, tally) = (self.metrics, &self.tally);
        for (counter, n) in [
            (metrics.settles, tally.settles),
            (metrics.activations, tally.activations),
            (metrics.events, tally.events),
            (metrics.nba_commits, tally.nba_commits),
        ] {
            if n > 0 {
                counter.add(n);
            }
        }
    }
}

struct StateView<'a> {
    design: &'a Design,
    words: &'a [Vec<Logic>],
}

impl ValueReader for StateView<'_> {
    fn read(&self, id: SignalId) -> Logic {
        self.words[id.0 as usize][0]
    }
    fn read_word(&self, id: SignalId, index: u64) -> Logic {
        self.words[id.0 as usize]
            .get(index as usize)
            .copied()
            .unwrap_or_else(|| Logic::xs(self.design.signal(id).width))
    }
    fn word_count(&self, id: SignalId) -> u64 {
        self.words[id.0 as usize].len() as u64
    }
    fn width(&self, id: SignalId) -> u32 {
        self.design.signal(id).width
    }
}

impl Plan {
    fn new(design: Arc<Design>) -> Plan {
        let nsignals = design.signals().len();
        let mut comb_sens = vec![Vec::new(); nsignals];
        let mut seq_sens = vec![Vec::new(); nsignals];
        for (i, p) in design.processes().iter().enumerate() {
            let pid = ProcessId(i as u32);
            match &p.trigger {
                Trigger::Comb(deps) => {
                    for d in deps {
                        comb_sens[d.0 as usize].push(pid);
                    }
                }
                Trigger::Seq(edges) => {
                    for (s, e) in edges {
                        seq_sens[s.0 as usize].push((pid, *e));
                    }
                }
                Trigger::Initial => {}
            }
        }
        let programs = design.processes().iter().map(|p| lower_process(&design, &p.body)).collect();
        let widths = design.signals().iter().map(|s| s.width).collect();
        Plan { design, programs, comb_sens, seq_sens, widths }
    }

    /// Pushes the processes triggered by `signal` transitioning
    /// `old` → `new` onto `out`, skipping the running process (a
    /// process misses its own events, IEEE 1364) and every process
    /// already waiting there (`pending`: a wake-up is idempotent until
    /// the process runs).
    fn collect_triggered(
        &self,
        signal: SignalId,
        old: Logic,
        new: Logic,
        current: Option<ProcessId>,
        out: &mut Vec<ProcessId>,
        pending: &mut [bool],
    ) {
        let mut wake = |pid: ProcessId| {
            if Some(pid) != current && !std::mem::replace(&mut pending[pid.0 as usize], true) {
                out.push(pid);
            }
        };
        for pid in &self.comb_sens[signal.0 as usize] {
            wake(*pid);
        }
        let seq = &self.seq_sens[signal.0 as usize];
        if seq.is_empty() {
            return;
        }
        // The IEEE 1364 edge table on the least significant bit: a
        // posedge is 0->1, 0->X/Z or X/Z->1; a negedge 1->0, 1->X/Z or
        // X/Z->0 (`None` is X or Z).
        let (from, to) = (old.get_bit(0).to_u128(), new.get_bit(0).to_u128());
        let rising = matches!((from, to), (Some(0), Some(1) | None) | (None, Some(1)));
        let falling = matches!((from, to), (Some(1), Some(0) | None) | (None, Some(0)));
        for (pid, edge) in seq {
            let fire = match edge {
                Some(Edge::Pos) => rising,
                Some(Edge::Neg) => falling,
                None => true,
            };
            if fire {
                wake(*pid);
            }
        }
    }
}

impl Simulator {
    /// Builds a simulator over an owned `design`, runs `initial` blocks
    /// and settles the combinational network once. Callers holding a
    /// shared elaboration use [`Simulator::from_arc`] instead —
    /// nothing on either path clones the design.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unstable`] if the design oscillates at time 0.
    pub fn new(design: Design) -> Result<Self, SimError> {
        Simulator::from_arc(Arc::new(design))
    }

    /// Builds a simulator over an already-shared design without
    /// re-cloning it — the cheap path for an elaboration a stage memo
    /// holds.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unstable`] if the design oscillates at time 0.
    pub fn from_arc(design: Arc<Design>) -> Result<Self, SimError> {
        let words =
            design.signals().iter().map(|s| vec![Logic::xs(s.width); s.words as usize]).collect();
        let pending = vec![false; design.processes().len()];
        let mut sim = Simulator {
            plan: Arc::new(Plan::new(design)),
            words,
            active: Vec::new(),
            pending,
            nba: Vec::new(),
            writes: Vec::new(),
            time: 0,
            initialised: false,
            metrics: crate::metrics::event_kernel(),
            tally: EventTally::default(),
        };
        sim.initialise()?;
        Ok(sim)
    }

    fn initialise(&mut self) -> Result<(), SimError> {
        // Run initial blocks, then every combinational process once so
        // nets acquire their driven values.
        let processes = self.plan.design.processes();
        for (i, p) in processes.iter().enumerate() {
            if matches!(p.trigger, Trigger::Initial) {
                self.active.push(ProcessId(i as u32));
                self.pending[i] = true;
            }
        }
        for (i, p) in processes.iter().enumerate() {
            if matches!(p.trigger, Trigger::Comb(_)) {
                self.active.push(ProcessId(i as u32));
                self.pending[i] = true;
            }
        }
        self.initialised = true;
        self.drive()
    }

    /// The elaborated design being simulated.
    pub fn design(&self) -> &Design {
        &self.plan.design
    }

    /// Current simulation time.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Sets the simulation time (monotonically increased by harnesses).
    pub fn set_time(&mut self, time: u64) {
        self.time = time;
    }

    /// Reads the current value of `id`.
    pub fn peek(&self, id: SignalId) -> Logic {
        self.words[id.0 as usize][0]
    }

    /// Reads word `index` of an array signal.
    pub fn peek_word(&self, id: SignalId, index: u64) -> Logic {
        self.words[id.0 as usize]
            .get(index as usize)
            .copied()
            .unwrap_or_else(|| Logic::xs(self.design().signal(id).width))
    }

    /// Reads a signal by name.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownSignal`] for unknown names.
    pub fn peek_by_name(&self, name: &str) -> Result<Logic, SimError> {
        let id = self
            .design()
            .signal_id(name)
            .ok_or_else(|| SimError::UnknownSignal(name.to_string()))?;
        Ok(self.peek(id))
    }

    /// Writes `value` to `id` and queues the processes the change
    /// wakes, running none of them: several signals staged before one
    /// [`Simulator::settle`] change in the same time step, as a
    /// testbench driver's pin assignments do. Work stays queued until
    /// the next `settle` or `poke`.
    pub fn stage(&mut self, id: SignalId, value: Logic) {
        self.write(id, value);
    }

    /// [`Simulator::stage`], reporting whether the value changed.
    fn write(&mut self, id: SignalId, value: Logic) -> bool {
        let value = value.resize(self.plan.widths[id.0 as usize]);
        let old = self.words[id.0 as usize][0];
        if old == value {
            return false;
        }
        self.words[id.0 as usize][0] = value;
        self.plan.collect_triggered(id, old, value, None, &mut self.active, &mut self.pending);
        true
    }

    /// Drives `id` to `value` and propagates the resulting events,
    /// along with anything staged before: [`Simulator::stage`] plus
    /// [`Simulator::settle`], except that a poke of the value already
    /// held with nothing staged is not a settle at all.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unstable`] on combinational oscillation.
    pub fn poke(&mut self, id: SignalId, value: Logic) -> Result<(), SimError> {
        if !self.write(id, value) && self.active.is_empty() {
            return Ok(());
        }
        self.drive()
    }

    /// Pokes a signal by name.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownSignal`] or [`SimError::Unstable`].
    pub fn poke_by_name(&mut self, name: &str, value: Logic) -> Result<(), SimError> {
        let id = self
            .design()
            .signal_id(name)
            .ok_or_else(|| SimError::UnknownSignal(name.to_string()))?;
        self.poke(id, value)
    }

    /// Runs every process the values staged since the last drive woke
    /// — each once, however many of them woke it — and whatever those
    /// wake in turn, until the design is quiescent. The drain of a
    /// [`Simulator::stage`] batch; with nothing staged it is one
    /// counted, empty settle.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unstable`] on combinational oscillation.
    pub fn settle(&mut self) -> Result<(), SimError> {
        self.drive()
    }

    /// Runs the event loop over the active set its caller seeded, using
    /// the persistent scratch queues. Every buffer is left *cleared*
    /// (capacity intact) and every `pending` flag clear on both exits:
    /// a successful run pops every process it queued, and an `Unstable`
    /// abort must not leave stale events, non-blocking writes or a
    /// process that can never be woken again for a later run.
    fn drive(&mut self) -> Result<(), SimError> {
        self.tally.settles += 1;
        if self.active.is_empty() {
            // Nothing is sensitive to what changed (an explicit settle,
            // the falling clock edge of a posedge-only design): the
            // settle is counted and there is no event loop to run.
            return Ok(());
        }
        let mut exec =
            Exec { plan: &self.plan, words: &mut self.words, pending: &mut self.pending };
        let result =
            exec.run_events(&mut self.active, &mut self.nba, &mut self.writes, &mut self.tally);
        if result.is_err() {
            // The processes still queued at the abort keep their flag.
            self.pending.fill(false);
        }
        self.tally.events += self.active.len() as u64;
        self.active.clear();
        self.nba.clear();
        self.writes.clear();
        result
    }

    /// Iterates processes (used by the DFG builder for cross-checks).
    pub fn processes(&self) -> &[Process] {
        self.design().processes()
    }
}

/// One drive's borrows of a [`Simulator`]: its immutable plan and its
/// mutable signal values, side by side.
struct Exec<'a> {
    plan: &'a Plan,
    words: &'a mut [Vec<Logic>],
    pending: &'a mut [bool],
}

impl Exec<'_> {
    /// Core event loop: runs `active` processes, applying blocking writes
    /// immediately and non-blocking writes at delta boundaries.
    ///
    /// Per IEEE 1364 event semantics, a running process does **not**
    /// observe events produced by its own execution — its event control
    /// is re-armed only after it suspends. This is what lets the common
    /// self-referential `always @(*)` idiom (e.g. a for-loop divider
    /// that resets and rebuilds its outputs) stabilise instead of
    /// re-triggering forever, and equally what makes genuinely missing
    /// sensitivity entries a real bug the simulator reproduces.
    ///
    /// A process's `pending` flag is cleared as it is popped, before it
    /// runs: until then further wake-ups are absorbed, from then on a
    /// write by another process queues it again.
    fn run_events(
        &mut self,
        active: &mut Vec<ProcessId>,
        nba: &mut Vec<Write>,
        writes: &mut Vec<Write>,
        tally: &mut EventTally,
    ) -> Result<(), SimError> {
        let programs = &self.plan.programs;
        let mut activations = 0usize;
        // FIFO via cursor (no front removal); the queue is bounded by
        // the activation cap.
        let mut head = 0usize;
        let result = 'run: loop {
            while head < active.len() {
                let pid = active[head];
                head += 1;
                self.pending[pid.0 as usize] = false;
                if activations == MAX_ACTIVATIONS {
                    break 'run Err(SimError::Unstable { activations });
                }
                activations += 1;
                self.exec_program(&programs[pid.0 as usize], nba, active, writes, Some(pid));
            }
            if nba.is_empty() {
                break 'run Ok(());
            }
            // Non-blocking assignment region: apply all queued writes,
            // collecting newly triggered processes. No process is
            // running here, so nothing is skipped; only `exec_program`
            // queues NBAs, so the list is stable while we iterate, and
            // clearing (not taking) it keeps its capacity.
            tally.nba_commits += nba.len() as u64;
            for w in nba.iter() {
                self.apply_write(w, active, None);
            }
            nba.clear();
        };
        tally.activations += activations as u64;
        result
    }

    fn view(&self) -> StateView<'_> {
        StateView { design: &self.plan.design, words: self.words }
    }

    /// Executes one precompiled process program as a program-counter
    /// loop. Assignment ops evaluate their right-hand side into a
    /// reused slot ([`eval_into`]) and stage writes either directly
    /// (single leaf) or through the persistent `writes` buffer
    /// (concatenated targets, where every index expression must
    /// evaluate before any part applies).
    fn exec_program(
        &mut self,
        program: &ProcessProgram,
        nba: &mut Vec<Write>,
        active: &mut Vec<ProcessId>,
        writes: &mut Vec<Write>,
        current: Option<ProcessId>,
    ) {
        let ops = &program.ops;
        let mut pc = 0usize;
        let mut value = Logic::zeros(1);
        while let Some(op) = ops.get(pc) {
            match op {
                Op::Assign { dst, rhs, width, blocking } => {
                    eval_into(&self.view(), rhs, *width, &mut value);
                    if let Some(w) = self.leaf_write(dst, value) {
                        if *blocking {
                            self.apply_write(&w, active, current);
                        } else {
                            nba.push(w);
                        }
                    }
                }
                Op::AssignConcat { parts, rhs, width, blocking } => {
                    eval_into(&self.view(), rhs, *width, &mut value);
                    debug_assert!(writes.is_empty(), "concat staging buffer leaked");
                    for (lsb, pw, dst) in parts {
                        if let Some(w) = self.leaf_write(dst, value.get_slice(*lsb, *pw)) {
                            writes.push(w);
                        }
                    }
                    if *blocking {
                        for w in writes.iter() {
                            self.apply_write(w, active, current);
                        }
                        writes.clear();
                    } else {
                        nba.append(writes);
                    }
                }
                Op::Branch { cond, on_false, on_unknown } => {
                    match eval(&self.view(), cond, cond.width).truthiness() {
                        Tri::True => {}
                        Tri::False => {
                            pc = *on_false as usize;
                            continue;
                        }
                        // Unknown condition: neither branch executes. (A
                        // full IEEE implementation would merge; taking no
                        // branch keeps state X-conservative.)
                        Tri::Unknown => {
                            pc = *on_unknown as usize;
                            continue;
                        }
                    }
                }
                Op::Jump { to } => {
                    pc = *to as usize;
                    continue;
                }
                Op::Case { kind, sel, width, arms, fallback } => {
                    let s = eval(&self.view(), sel, *width);
                    let mut target = *fallback;
                    'arms: for (labels, arm_start) in arms {
                        for label in labels {
                            let lv = eval(&self.view(), label, *width);
                            if case_matches(*kind, &s, &lv) {
                                target = *arm_start;
                                break 'arms;
                            }
                        }
                    }
                    pc = target as usize;
                    continue;
                }
            }
            pc += 1;
        }
    }

    /// Resolves one pre-lowered leaf into a concrete write. `None` when
    /// a dynamic index is X/Z or out of range (the write is dropped).
    fn leaf_write(&self, dst: &Dst, value: Logic) -> Option<Write> {
        match dst {
            Dst::Whole { sig, width } => {
                Some(Write { signal: *sig, word: 0, lsb: 0, value: value.resize(*width) })
            }
            Dst::Part { sig, lsb, width } => {
                Some(Write { signal: *sig, word: 0, lsb: *lsb, value: value.resize(*width) })
            }
            Dst::Bit { sig, index, limit } => {
                let i = eval(&self.view(), index, index.width).to_u128()?;
                if i < *limit as u128 {
                    Some(Write { signal: *sig, word: 0, lsb: i as u32, value: value.resize(1) })
                } else {
                    None
                }
            }
            Dst::Word { sig, index, width, limit } => {
                let i = eval(&self.view(), index, index.width).to_u128()?;
                if i < *limit as u128 {
                    Some(Write {
                        signal: *sig,
                        word: i as u64,
                        lsb: 0,
                        value: value.resize(*width),
                    })
                } else {
                    None
                }
            }
        }
    }

    fn apply_write(&mut self, w: &Write, active: &mut Vec<ProcessId>, current: Option<ProcessId>) {
        let words = &mut self.words[w.signal.0 as usize];
        let Some(old) = words.get(w.word as usize).copied() else {
            return;
        };
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
        words[w.word as usize] = updated;
        // Array word writes do not produce scalar events (no process is
        // edge/level sensitive to a whole memory in this subset), but
        // combinational readers of the memory must re-run.
        self.plan.collect_triggered(w.signal, old, updated, current, active, self.pending);
    }
}

impl crate::backend::SimControl for Simulator {
    fn design(&self) -> &Design {
        Simulator::design(self)
    }
    fn time(&self) -> u64 {
        Simulator::time(self)
    }
    fn set_time(&mut self, time: u64) {
        Simulator::set_time(self, time);
    }
    fn peek(&self, id: SignalId) -> Logic {
        Simulator::peek(self, id)
    }
    fn peek_word(&self, id: SignalId, index: u64) -> Logic {
        Simulator::peek_word(self, id, index)
    }
    fn stage(&mut self, id: SignalId, value: Logic) {
        Simulator::stage(self, id, value);
    }
    fn poke(&mut self, id: SignalId, value: Logic) -> Result<(), SimError> {
        Simulator::poke(self, id, value)
    }
    fn settle(&mut self) -> Result<(), SimError> {
        Simulator::settle(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elab::elaborate;
    use uvllm_verilog::parse;

    fn sim(src: &str) -> Simulator {
        let file = parse(src).unwrap();
        let top = file.top().map(|m| m.name_of(m.name)).unwrap();
        let design = elaborate(&file, top).unwrap();
        Simulator::new(design).unwrap()
    }

    fn u(sim: &Simulator, name: &str) -> u128 {
        sim.peek_by_name(name).unwrap().to_u128().unwrap_or_else(|| {
            panic!("signal {name} is unknown: {}", sim.peek_by_name(name).unwrap())
        })
    }

    #[test]
    fn combinational_adder() {
        let mut s = sim("module add(input [7:0] a, input [7:0] b, output [8:0] y);\n\
             assign y = a + b;\nendmodule\n");
        s.poke_by_name("a", Logic::from_u128(8, 200)).unwrap();
        s.poke_by_name("b", Logic::from_u128(8, 100)).unwrap();
        assert_eq!(u(&s, "y"), 300);
    }

    #[test]
    fn concat_assign_carry() {
        let mut s =
            sim("module add(input [7:0] a, input [7:0] b, output cout, output [7:0] sum);\n\
             assign {cout, sum} = a + b;\nendmodule\n");
        s.poke_by_name("a", Logic::from_u128(8, 0xff)).unwrap();
        s.poke_by_name("b", Logic::from_u128(8, 0x02)).unwrap();
        assert_eq!(u(&s, "cout"), 1);
        assert_eq!(u(&s, "sum"), 0x01);
    }

    #[test]
    fn clocked_counter_with_async_reset() {
        let mut s = sim("module c(input clk, input rst_n, output reg [3:0] q);\n\
             always @(posedge clk or negedge rst_n) begin\n\
             if (!rst_n) q <= 4'd0; else q <= q + 4'd1;\nend\nendmodule\n");
        s.poke_by_name("clk", Logic::bit(false)).unwrap();
        s.poke_by_name("rst_n", Logic::bit(false)).unwrap();
        assert_eq!(u(&s, "q"), 0);
        s.poke_by_name("rst_n", Logic::bit(true)).unwrap();
        for i in 1..=5u128 {
            s.poke_by_name("clk", Logic::bit(true)).unwrap();
            assert_eq!(u(&s, "q"), i % 16);
            s.poke_by_name("clk", Logic::bit(false)).unwrap();
        }
    }

    #[test]
    fn nonblocking_swap() {
        let mut s = sim("module swap(input clk, output reg a, output reg b);\n\
             initial begin\na = 1'b0;\nb = 1'b1;\nend\n\
             always @(posedge clk) begin\na <= b;\nb <= a;\nend\nendmodule\n");
        s.poke_by_name("clk", Logic::bit(false)).unwrap();
        assert_eq!(u(&s, "a"), 0);
        assert_eq!(u(&s, "b"), 1);
        s.poke_by_name("clk", Logic::bit(true)).unwrap();
        assert_eq!(u(&s, "a"), 1);
        assert_eq!(u(&s, "b"), 0);
    }

    #[test]
    fn blocking_in_comb_chains() {
        let mut s = sim("module m(input [3:0] a, output reg [3:0] y);\nreg [3:0] t;\n\
             always @(*) begin\nt = a + 4'd1;\ny = t + 4'd1;\nend\nendmodule\n");
        s.poke_by_name("a", Logic::from_u128(4, 3)).unwrap();
        assert_eq!(u(&s, "y"), 5);
    }

    #[test]
    fn memory_read_write() {
        let mut s = sim("module r(input clk, input we, input [3:0] addr, input [7:0] din,\n\
             output [7:0] dout);\nreg [7:0] mem [0:15];\n\
             always @(posedge clk) if (we) mem[addr] <= din;\n\
             assign dout = mem[addr];\nendmodule\n");
        s.poke_by_name("clk", Logic::bit(false)).unwrap();
        s.poke_by_name("we", Logic::bit(true)).unwrap();
        s.poke_by_name("addr", Logic::from_u128(4, 5)).unwrap();
        s.poke_by_name("din", Logic::from_u128(8, 0xAB)).unwrap();
        s.poke_by_name("clk", Logic::bit(true)).unwrap();
        assert_eq!(u(&s, "dout"), 0xAB);
        // Other addresses still X.
        s.poke_by_name("addr", Logic::from_u128(4, 6)).unwrap();
        assert!(s.peek_by_name("dout").unwrap().to_u128().is_none());
    }

    #[test]
    fn hierarchical_design_simulates() {
        let mut s = sim("module top(input a, input b, output y);\nwire w;\n\
             andg u1(.x(a), .y(b), .z(w));\nnotg u2(.i(w), .o(y));\nendmodule\n\
             module andg(input x, input y, output z);\nassign z = x & y;\nendmodule\n\
             module notg(input i, output o);\nassign o = ~i;\nendmodule\n");
        s.poke_by_name("a", Logic::bit(true)).unwrap();
        s.poke_by_name("b", Logic::bit(true)).unwrap();
        assert_eq!(u(&s, "y"), 0);
        s.poke_by_name("b", Logic::bit(false)).unwrap();
        assert_eq!(u(&s, "y"), 1);
    }

    #[test]
    fn x_feedback_settles_at_fixpoint() {
        // `assign y = ~y` starting from X reaches the X fixpoint — it
        // must NOT be reported as oscillation.
        let s = parse("module fx(output y);\nassign y = ~y;\nendmodule\n").unwrap();
        let design = elaborate(&s, "fx").unwrap();
        let sim = Simulator::new(design).unwrap();
        assert!(sim.peek_by_name("y").unwrap().to_u128().is_none());
    }

    #[test]
    fn oscillation_detected() {
        // A cross-process combinational loop with defined values: each
        // block's case default resolves the initial X, after which the
        // two blocks chase each other forever. (A single self-reading
        // block would NOT oscillate — a running process misses its own
        // events, as in real simulators.)
        let s = parse(
            "module osc(output reg a, output reg b);\n\
             always @(*) begin\ncase (b)\n1'b0: a = 1'b1;\ndefault: a = 1'b0;\nendcase\nend\n\
             always @(*) begin\ncase (a)\n1'b0: b = 1'b0;\ndefault: b = 1'b1;\nendcase\nend\n\
             endmodule\n",
        )
        .unwrap();
        let design = elaborate(&s, "osc").unwrap();
        match Simulator::new(design) {
            Err(SimError::Unstable { .. }) => {}
            other => panic!("expected unstable, got {other:?}"),
        }
    }

    #[test]
    fn every_exit_from_drive_leaves_the_scratch_queues_empty() {
        // Stable while `trig` is 0; with `trig` high the two blocks
        // chase each other until the activation cap.
        let mut s = sim("module osc(input trig, input clk, input d, output reg a, output reg b,\n\
             output reg q);\n\
             always @(*) begin\nif (trig) begin\ncase (b)\n1'b0: a = 1'b1;\n\
             default: a = 1'b0;\nendcase\nend else\na = 1'b0;\nend\n\
             always @(*) begin\nif (trig) begin\ncase (a)\n1'b0: b = 1'b0;\n\
             default: b = 1'b1;\nendcase\nend else\nb = 1'b0;\nend\n\
             always @(posedge clk) q <= d;\nendmodule\n");
        // Empty queues and no process flagged as waiting in them.
        let scratch_is_empty = |s: &Simulator| {
            s.active.is_empty()
                && s.nba.is_empty()
                && s.writes.is_empty()
                && s.pending.iter().all(|waiting| !waiting)
        };
        s.poke_by_name("clk", Logic::bit(false)).unwrap();
        s.poke_by_name("d", Logic::bit(true)).unwrap();
        s.poke_by_name("trig", Logic::bit(false)).unwrap();
        assert!(scratch_is_empty(&s), "after working settles");
        s.settle().unwrap();
        assert!(scratch_is_empty(&s), "after the early exit");
        let capacity = s.active.capacity();
        assert!(capacity > 0, "the active set keeps its buffer across settles");
        assert_eq!(s.clone().pending, vec![false; 3], "a quiescent clone has nothing waiting");

        let err = s.poke_by_name("trig", Logic::bit(true)).unwrap_err();
        assert_eq!(err, SimError::Unstable { activations: MAX_ACTIVATIONS });
        assert!(scratch_is_empty(&s), "an abort must not leave events for a later run");
        assert!(s.active.capacity() >= capacity);

        // The aborted run queued nothing the next one can see and left
        // no process unwakeable: the block that was waiting at the abort
        // is queued by the next poke, so with the loop broken the design
        // settles, and the flop still works.
        s.poke_by_name("trig", Logic::bit(false)).unwrap();
        assert_eq!(u(&s, "a"), 0);
        assert_eq!(u(&s, "b"), 0);
        s.poke_by_name("clk", Logic::bit(true)).unwrap();
        assert_eq!(u(&s, "q"), 1);
        assert!(scratch_is_empty(&s));
    }

    #[test]
    fn incomplete_sensitivity_is_honoured() {
        // `always @(a)` missing `b` — a classic functional bug the
        // simulator must reproduce faithfully, not paper over.
        let mut s = sim("module m(input a, input b, output reg y);\n\
             always @(a) y = a & b;\nendmodule\n");
        s.poke_by_name("a", Logic::bit(true)).unwrap();
        s.poke_by_name("b", Logic::bit(true)).unwrap();
        // b changed but the block is not sensitive to b; y reflects the
        // value from when a last changed (b was X then).
        assert!(s.peek_by_name("y").unwrap().to_u128().is_none());
        s.poke_by_name("a", Logic::bit(false)).unwrap();
        s.poke_by_name("a", Logic::bit(true)).unwrap();
        assert_eq!(u(&s, "y"), 1);
    }

    #[test]
    fn case_statement_execution() {
        let mut s = sim("module mx(input [1:0] s, input [3:0] a, input [3:0] b, input [3:0] c,\n\
             output reg [3:0] y);\nalways @(*) begin\ncase (s)\n\
             2'b00: y = a;\n2'b01: y = b;\n2'b10: y = c;\ndefault: y = 4'd0;\n\
             endcase\nend\nendmodule\n");
        s.poke_by_name("a", Logic::from_u128(4, 1)).unwrap();
        s.poke_by_name("b", Logic::from_u128(4, 2)).unwrap();
        s.poke_by_name("c", Logic::from_u128(4, 3)).unwrap();
        s.poke_by_name("s", Logic::from_u128(2, 0)).unwrap();
        assert_eq!(u(&s, "y"), 1);
        s.poke_by_name("s", Logic::from_u128(2, 2)).unwrap();
        assert_eq!(u(&s, "y"), 3);
        s.poke_by_name("s", Logic::from_u128(2, 3)).unwrap();
        assert_eq!(u(&s, "y"), 0);
    }

    #[test]
    fn part_select_write() {
        let mut s = sim("module p(input [3:0] lo, input [3:0] hi, output reg [7:0] y);\n\
             always @(*) begin\ny[3:0] = lo;\ny[7:4] = hi;\nend\nendmodule\n");
        s.poke_by_name("lo", Logic::from_u128(4, 0x5)).unwrap();
        s.poke_by_name("hi", Logic::from_u128(4, 0xA)).unwrap();
        assert_eq!(u(&s, "y"), 0xA5);
    }

    #[test]
    fn unknown_signal_errors() {
        let s = sim("module m(input a, output y);\nassign y = a;\nendmodule\n");
        assert!(matches!(s.peek_by_name("nope"), Err(SimError::UnknownSignal(_))));
    }
}
