//! The UVM environment: sequencer → driver → DUT → monitor → scoreboard
//! (Fig. 3 of the paper), with waveform capture and coverage.

use crate::assertion::Assertion;
use crate::iface::{DutInterface, Transaction};
use crate::log::UvmLog;
use crate::refmodel::{IoFrame, IoSpec, RefModel};
use crate::scoreboard::{Coverage, KeptRecords, Mismatch, Scoreboard};
use crate::sequence::Sequence;
use std::fmt;
use uvllm_sim::{Logic, SimBackend, SimControl, SimError, Simulator, Waveform};

/// Nanoseconds per clock cycle in the recorded waveform.
pub const CYCLE_TIME: u64 = 10;

/// Environment construction / execution failure.
#[derive(Debug, Clone, PartialEq)]
pub enum UvmError {
    /// The DUT does not expose a port the interface requires.
    MissingPort(String),
    /// Elaboration of the DUT failed.
    Elab(String),
    /// The simulator failed during the run.
    Sim(String),
}

impl fmt::Display for UvmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UvmError::MissingPort(p) => write!(f, "DUT has no port '{p}'"),
            UvmError::Elab(m) => write!(f, "elaboration failed: {m}"),
            UvmError::Sim(m) => write!(f, "simulation failed: {m}"),
        }
    }
}

impl std::error::Error for UvmError {}

/// Drives transactions onto DUT inputs (pin-level translation of the
/// sequencer's items).
#[derive(Debug, Default, Clone, Copy)]
pub struct Driver;

impl Driver {
    /// Pin-level fast path over pre-resolved ports (the environment's
    /// hot loop — no name lookups). All pins are assigned in one time
    /// step — staged, then settled once — so on return the inputs are
    /// driven *and propagated*, and a process sensitive to several of
    /// them has run once. Port *i* reads entry *i* of a transaction in
    /// port order and searches by name otherwise. A port the
    /// transaction does not name is driven to zero; the kernel resizes
    /// each value to its signal.
    pub fn drive_resolved<S: SimControl + ?Sized>(
        &self,
        sim: &mut S,
        ports: &[(String, uvllm_sim::SignalId, u32)],
        txn: &Transaction,
    ) -> Result<(), SimError> {
        for (slot, (name, id, width)) in ports.iter().enumerate() {
            let v = txn.slot(slot, name).copied().unwrap_or_else(|| Logic::zeros(*width));
            sim.stage(*id, v);
        }
        sim.settle()
    }
}

/// Observes DUT pins.
#[derive(Debug, Default, Clone, Copy)]
pub struct Monitor;

impl Monitor {
    /// Refreshes slot `i` of `into` with the current value of the `i`-th
    /// listed signal — the environment's hot loop samples through
    /// pre-resolved ids into a reused slot-ordered buffer, so the steady
    /// state allocates nothing.
    pub fn observe_slots<S: SimControl + ?Sized>(
        &self,
        sim: &S,
        ids: impl Iterator<Item = uvllm_sim::SignalId>,
        into: &mut [Logic],
    ) {
        for (slot, id) in ids.enumerate() {
            into[slot] = sim.peek(id);
        }
    }
}

/// Pulls transactions out of a list of sequences in order.
pub struct Sequencer {
    sequences: Vec<Box<dyn Sequence>>,
    current: usize,
}

impl Sequencer {
    /// Creates a sequencer over `sequences`.
    pub fn new(sequences: Vec<Box<dyn Sequence>>) -> Self {
        Sequencer { sequences, current: 0 }
    }

    /// Next transaction, advancing through sequences as they exhaust:
    /// refills `txn` in place via [`Sequence::next_into`], so the
    /// steady state allocates nothing. The buffer is cleared at
    /// sequence boundaries so one sequence's key set cannot leak stale
    /// drive values into the next.
    pub fn next_into(&mut self, cycle: usize, txn: &mut Transaction) -> bool {
        while self.current < self.sequences.len() {
            if self.sequences[self.current].next_into(cycle, txn) {
                return true;
            }
            self.current += 1;
            txn.clear();
        }
        false
    }
}

impl fmt::Debug for Sequencer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sequencer")
            .field("sequences", &self.sequences.len())
            .field("current", &self.current)
            .finish()
    }
}

/// The input-side agent of Fig. 3: sequencer + driver (+ input monitor).
pub struct InAgent {
    pub sequencer: Sequencer,
    pub driver: Driver,
    pub monitor: Monitor,
}

/// Summary of one UVM run.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Cycles that were driven and checked.
    pub cycles: usize,
    /// Scoreboard pass rate in `[0, 1]` — the rollback score.
    pub pass_rate: f64,
    /// All mismatches in time order.
    pub mismatches: Vec<Mismatch>,
    /// The UVM log.
    pub log: UvmLog,
    /// Recorded waveform frames: one per checked cycle by default, only
    /// at the cycles of kept records under
    /// [`Environment::frames_at_kept_records`], none under
    /// [`Environment::without_waveform`] (an empty waveform).
    pub waveform: Waveform,
    /// Input-bin coverage in `[0, 1]`.
    pub input_coverage: f64,
    /// Output toggle coverage in `[0, 1]`.
    pub toggle_coverage: f64,
    /// Set when the run aborted early (oscillation etc.).
    pub aborted: Option<String>,
    /// Set when the abort was a combinational oscillation: the process
    /// activation count at which the simulator gave up
    /// ([`uvllm_sim::MAX_ACTIVATIONS`]). Lets harnesses report
    /// `SimError::Unstable` as a distinct outcome instead of an opaque
    /// abort string.
    pub unstable: Option<usize>,
    /// Immediate-assertion failures observed (cycle count, not unique).
    pub assertion_failures: usize,
}

impl RunSummary {
    /// True when every cycle matched and the run completed.
    pub fn all_passed(&self) -> bool {
        self.aborted.is_none() && self.cycles > 0 && self.mismatches.is_empty()
    }
}

/// The top-level verification environment.
///
/// All data inputs of a cycle (and the zeros of the reset phase) change
/// in the same time step: the driver stages every pin and settles once
/// ([`SimControl::stage`]), so a DUT process sensitive to several
/// inputs wakes once per cycle and sees all of them. A DUT whose
/// combinational processes have complete sensitivity lists and do not
/// read their own outputs behaves exactly as under pin-by-pin driving;
/// one that does not gets IEEE 1364's answer, where pin-by-pin driving
/// gave it one wake-up per changed pin in interface order.
pub struct Environment {
    sim: Simulator,
    iface: DutInterface,
    refmodel: Box<dyn RefModel>,
    in_agent: InAgent,
    out_monitor: Monitor,
    scoreboard: Scoreboard,
    coverage: Coverage,
    log: UvmLog,
    /// Built at the first frame, so a run that records none builds none.
    wave: Option<Waveform>,
    frames: Frames,
    /// The records Algorithm 2 keeps, under [`Frames::AtKeptRecords`].
    kept: KeptRecords,
    assertions: Vec<Assertion>,
    assertion_failures: usize,
    /// Interned I/O layout shared with the reference model; also the
    /// slot order of every buffer below.
    spec: IoSpec,
    /// Input ports pre-resolved to `(name, id, width)` — the per-cycle
    /// drive/observe loops must not do name lookups.
    in_ports: Vec<(String, uvllm_sim::SignalId, u32)>,
    /// Output ports pre-resolved to `(name, id)`.
    out_ports: Vec<(String, uvllm_sim::SignalId)>,
    clock_id: Option<uvllm_sim::SignalId>,
    /// Reset line pre-resolved to `(id, active_low)`.
    reset_line: Option<(uvllm_sim::SignalId, bool)>,
    /// Reusable slot-ordered observation/expectation buffers
    /// (steady-state: zero allocations/cycle).
    inputs_buf: Vec<Logic>,
    outputs_buf: Vec<Logic>,
    expected_buf: Vec<Logic>,
    /// When true, the run ends after the first cycle the scoreboard
    /// rejects ([`Environment::stop_at_first_mismatch`]).
    stop_at_first_mismatch: bool,
}

/// Which cycles a run records a waveform frame at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Frames {
    /// Every checked cycle.
    Every,
    /// The cycles holding a mismatch record Algorithm 2 keeps.
    AtKeptRecords,
    /// None.
    Off,
}

impl fmt::Debug for Environment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Environment").field("iface", &self.iface).finish()
    }
}

impl Environment {
    /// Wraps an already-built simulator, binding the reference model to
    /// the interface's [`IoSpec`].
    ///
    /// # Errors
    ///
    /// [`UvmError::MissingPort`] when the DUT lacks an interface port.
    pub fn with_sim(
        sim: impl Into<Simulator>,
        iface: DutInterface,
        mut refmodel: Box<dyn RefModel>,
        sequences: Vec<Box<dyn Sequence>>,
    ) -> Result<Self, UvmError> {
        let sim = sim.into();
        let design = sim.design();
        let mut required: Vec<&str> = Vec::new();
        if let Some(c) = &iface.clock {
            required.push(c);
        }
        if let Some(r) = &iface.reset {
            required.push(&r.name);
        }
        for p in iface.inputs.iter().chain(&iface.outputs) {
            required.push(&p.name);
        }
        for name in required {
            if design.signal_id(name).is_none() {
                return Err(UvmError::MissingPort(name.to_string()));
            }
        }
        let resolve = |name: &str| design.signal_id(name).expect("port presence checked above");
        let in_ports: Vec<(String, uvllm_sim::SignalId, u32)> =
            iface.inputs.iter().map(|p| (p.name.clone(), resolve(&p.name), p.width)).collect();
        let out_ports: Vec<(String, uvllm_sim::SignalId)> =
            iface.outputs.iter().map(|p| (p.name.clone(), resolve(&p.name))).collect();
        let clock_id = iface.clock.as_deref().map(resolve);
        let reset_line = iface.reset.as_ref().map(|r| (resolve(&r.name), r.active_low));
        // Intern the port layout once and hand it to the model: all
        // per-cycle traffic from here on is slot-indexed.
        let spec = IoSpec::from_interface(&iface);
        refmodel.bind(&spec);
        let inputs_buf = iface.inputs.iter().map(|p| Logic::xs(p.width)).collect();
        let outputs_buf: Vec<Logic> = iface.outputs.iter().map(|p| Logic::xs(p.width)).collect();
        let expected_buf = outputs_buf.clone();
        let kept = KeptRecords::new(iface.outputs.len());
        Ok(Environment {
            sim,
            iface,
            refmodel,
            in_agent: InAgent {
                sequencer: Sequencer::new(sequences),
                driver: Driver,
                monitor: Monitor,
            },
            out_monitor: Monitor,
            scoreboard: Scoreboard::new(),
            coverage: Coverage::new(),
            log: UvmLog::new(),
            wave: None,
            frames: Frames::Every,
            kept,
            assertions: Vec::new(),
            assertion_failures: 0,
            spec,
            in_ports,
            out_ports,
            clock_id,
            reset_line,
            inputs_buf,
            outputs_buf,
            expected_buf,
            stop_at_first_mismatch: false,
        })
    }

    /// Attaches immediate assertions checked after every cycle — the
    /// paper's extensibility hook for AI-generated protocol properties.
    pub fn with_assertions(mut self, assertions: Vec<Assertion>) -> Self {
        self.assertions = assertions;
        self
    }

    /// Disables waveform capture. Pass/fail harnesses that never query
    /// the waveform (metric runs, baseline acceptance tests) skip the
    /// one remaining per-cycle allocation; the summary then carries an
    /// empty waveform.
    pub fn without_waveform(mut self) -> Self {
        self.frames = Frames::Off;
        self
    }

    /// Records a frame only at the cycles holding a mismatch record
    /// Algorithm 2 keeps ([`KeptRecords`]): the frames post-processing
    /// reads — the input values at each kept record and the snapshot at
    /// the first — and no other. The waveform answers those timestamps
    /// exactly as a frame per cycle would; the log, the records and the
    /// pass rate are those of the full run.
    pub fn frames_at_kept_records(mut self) -> Self {
        self.frames = Frames::AtKeptRecords;
        self
    }

    /// Ends the run after the first cycle the scoreboard rejects: the
    /// summary then holds that one cycle's mismatches and `cycles` is
    /// its index + 1. For callers that keep only the *class* of a run
    /// (the campaign's verdict runs, dataset validation) — a run that
    /// would have passed is unchanged, a failing one costs its passing
    /// prefix. Repair pipelines, which read every mismatch, the pass
    /// rate and the coverage of the whole stimulus, keep the default.
    pub fn stop_at_first_mismatch(mut self) -> Self {
        self.stop_at_first_mismatch = true;
        self
    }

    /// Parses, elaborates and wraps `src` in one call.
    ///
    /// Nothing is cached: every call parses and elaborates `src` afresh
    /// ([`uvllm_sim::elaborate_source`]). A caller that simulates one
    /// text repeatedly keeps its elaboration and builds each run with
    /// [`Environment::with_sim`] (the campaign's stage memo does this).
    ///
    /// # Errors
    ///
    /// [`UvmError::Elab`] on parse/elaboration failure,
    /// [`UvmError::Sim`] when time-zero settling fails, plus everything
    /// [`Environment::with_sim`] can return.
    pub fn from_source(
        src: &str,
        top: &str,
        iface: DutInterface,
        refmodel: Box<dyn RefModel>,
        sequences: Vec<Box<dyn Sequence>>,
    ) -> Result<Self, UvmError> {
        let design = uvllm_sim::elaborate_source(src, top).map_err(UvmError::Elab)?;
        let sim = Simulator::from_arc(design).map_err(|e| UvmError::Sim(e.to_string()))?;
        Environment::with_sim(sim, iface, refmodel, sequences)
    }

    /// Benchmark compatibility; goes with the next `benchmark` PR.
    ///
    /// # Errors
    ///
    /// As [`Environment::from_source`].
    #[doc(hidden)]
    pub fn from_source_with(
        src: &str,
        top: &str,
        iface: DutInterface,
        refmodel: Box<dyn RefModel>,
        sequences: Vec<Box<dyn Sequence>>,
        _backend: SimBackend,
    ) -> Result<Self, UvmError> {
        Environment::from_source(src, top, iface, refmodel, sequences)
    }

    /// Runs every sequence to exhaustion (or to the first rejected
    /// cycle under [`Environment::stop_at_first_mismatch`]), returning
    /// the summary.
    pub fn run(mut self) -> RunSummary {
        let mut cycle = 0usize;
        let mut aborted = None;
        let mut unstable = None;

        if let Err(e) = self.reset_phase() {
            if let SimError::Unstable { activations } = e {
                unstable = Some(activations);
            }
            aborted = Some(e.to_string());
        }

        if aborted.is_none() {
            // One transaction buffer for the whole run: sequences
            // refill it in place (see `Sequence::next_into`).
            let mut txn = Transaction::new();
            while self.in_agent.sequencer.next_into(cycle, &mut txn) {
                match self.one_cycle(cycle, &txn) {
                    Ok(()) => {}
                    Err(e) => {
                        self.log.error(self.sim.time(), "env", format!("aborted: {e}"));
                        if let SimError::Unstable { activations } = e {
                            unstable = Some(activations);
                        }
                        aborted = Some(e.to_string());
                        break;
                    }
                }
                cycle += 1;
                if self.stop_at_first_mismatch && !self.scoreboard.mismatches().is_empty() {
                    break;
                }
            }
        }

        let pass_rate = self.scoreboard.pass_rate();
        self.log.info(
            self.sim.time(),
            "env",
            format!(
                "run complete: {} cycles, pass rate {:.2}%, {} mismatches",
                cycle,
                pass_rate * 100.0,
                self.scoreboard.mismatches().len()
            ),
        );
        RunSummary {
            cycles: cycle,
            pass_rate,
            mismatches: self.scoreboard.into_mismatches(),
            log: self.log,
            waveform: self.wave.unwrap_or_default(),
            input_coverage: self.coverage.input_coverage(),
            toggle_coverage: self.coverage.toggle_coverage(),
            aborted,
            unstable,
            assertion_failures: self.assertion_failures,
        }
    }

    fn reset_phase(&mut self) -> Result<(), SimError> {
        self.refmodel.reset();
        // Initialise inputs to zero for a clean start, reset or not:
        // an empty transaction drives every port to its default, in one
        // time step like every later cycle's inputs.
        self.in_agent.driver.drive_resolved(&mut self.sim, &self.in_ports, &Transaction::new())?;
        let Some((reset, active_low)) = self.reset_line else {
            return Ok(());
        };
        let assert_v = Logic::bit(!active_low);
        let deassert_v = Logic::bit(active_low);
        if let Some(clk) = self.clock_id {
            self.sim.poke(clk, Logic::bit(false))?;
            self.sim.poke(reset, assert_v)?;
            for _ in 0..2 {
                self.sim.poke(clk, Logic::bit(true))?;
                self.sim.poke(clk, Logic::bit(false))?;
                self.sim.set_time(self.sim.time() + CYCLE_TIME);
            }
            self.sim.poke(reset, deassert_v)?;
        } else {
            self.sim.poke(reset, assert_v)?;
            self.sim.poke(reset, deassert_v)?;
        }
        self.log.info(self.sim.time(), "driver", "reset sequence complete");
        Ok(())
    }

    /// One driven + checked cycle: the cycle's inputs staged and
    /// settled as one time step, the rising edge, the sample, the
    /// falling edge — every drive returns with the design quiescent, so
    /// there is nothing left for an explicit settle to do. This is the
    /// hot loop of the whole verification stack: the driver and
    /// monitors work through pre-resolved port ids, observations land
    /// in reused slot-ordered buffers, and the reference model
    /// reads/writes its [`IoFrame`] in place — the steady state
    /// performs no name lookups and no per-cycle allocations beyond the
    /// waveform frame a run that records one per cycle takes.
    fn one_cycle(&mut self, cycle: usize, txn: &Transaction) -> Result<(), SimError> {
        self.in_agent.driver.drive_resolved(&mut self.sim, &self.in_ports, txn)?;
        if let Some(clk) = self.clock_id {
            self.sim.poke(clk, Logic::bit(true))?;
        }

        // Capture the post-edge state for the localization engine.
        if self.frames == Frames::Every {
            self.capture();
        }

        self.in_agent.monitor.observe_slots(
            &self.sim,
            self.in_ports.iter().map(|(_, id, _)| *id),
            &mut self.inputs_buf,
        );
        self.out_monitor.observe_slots(
            &self.sim,
            self.out_ports.iter().map(|(_, id)| *id),
            &mut self.outputs_buf,
        );
        // Expected outputs start each cycle as all-X: a model that
        // skips a port expects "unknown", it does not inherit last
        // cycle's (possibly correct) value.
        for (slot, v) in self.expected_buf.iter_mut().enumerate() {
            *v = Logic::xs(self.spec.output_width(slot));
        }
        let mut frame = IoFrame::new(&self.inputs_buf, &mut self.expected_buf);
        self.refmodel.step(&mut frame);
        let time = self.sim.time();
        let before = self.scoreboard.mismatches().len();
        let ok = self.scoreboard.check_cycle(
            time,
            cycle,
            &self.spec,
            &self.expected_buf,
            &self.outputs_buf,
        );
        if !ok {
            let records = self.scoreboard.mismatches();
            let mut kept = false;
            for (i, m) in records.iter().enumerate().skip(before) {
                self.log.mismatch(m);
                kept |= self.frames == Frames::AtKeptRecords && self.kept.offer(records, i);
            }
            // The monitors, the model and the scoreboard only read the
            // design: this is the post-edge state a frame per cycle holds.
            if kept {
                self.capture();
            }
        }
        self.coverage.sample(&self.inputs_buf, &self.outputs_buf);

        // Immediate assertions over the post-edge snapshot.
        if !self.assertions.is_empty() {
            let snapshot = self.sim.named_values();
            for a in &self.assertions {
                if !a.holds(&snapshot) {
                    self.assertion_failures += 1;
                    self.log.error(
                        time,
                        "assert",
                        format!("assertion '{}' failed: {}", a.name, a.text),
                    );
                }
            }
        }

        if let Some(clk) = self.clock_id {
            self.sim.poke(clk, Logic::bit(false))?;
        }
        self.sim.set_time(self.sim.time() + CYCLE_TIME);
        Ok(())
    }

    /// Records a frame of the design's current state.
    fn capture(&mut self) {
        let sim = &self.sim;
        self.wave.get_or_insert_with(|| Waveform::new(sim)).capture(sim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iface::PortSig;
    use crate::refmodel::{FnModel, InSlot, OutSlot};
    use crate::sequence::{CornerSequence, RandomSequence};

    fn adder_iface() -> DutInterface {
        DutInterface::combinational(
            vec![PortSig::new("a", 8), PortSig::new("b", 8)],
            vec![PortSig::new("y", 9)],
        )
    }

    fn adder_model() -> Box<dyn RefModel> {
        Box::new(FnModel::new(|s: &IoSpec| {
            let (a, b, y) = (s.input("a"), s.input("b"), s.output("y"));
            move |io: &mut IoFrame<'_>| {
                let v = io.get(a) + io.get(b);
                io.set(y, v);
            }
        }))
    }

    const GOOD_ADDER: &str = "module add(input [7:0] a, input [7:0] b, output [8:0] y);\n\
                              assign y = a + b;\nendmodule\n";
    const BAD_ADDER: &str = "module add(input [7:0] a, input [7:0] b, output [8:0] y);\n\
                             assign y = a - b;\nendmodule\n";

    #[test]
    fn correct_dut_passes() {
        let iface = adder_iface();
        let seqs: Vec<Box<dyn Sequence>> = vec![
            Box::new(RandomSequence::new(&iface.inputs, 50, 42)),
            Box::new(CornerSequence::new(&iface.inputs)),
        ];
        let env =
            Environment::from_source(GOOD_ADDER, "add", iface, adder_model(), seqs).expect("env");
        let summary = env.run();
        assert!(summary.all_passed(), "log:\n{}", summary.log.render());
        assert!(summary.pass_rate > 0.999);
        assert!(summary.cycles >= 50);
        assert!(summary.input_coverage > 0.5);
    }

    #[test]
    fn buggy_dut_produces_mismatches_and_log() {
        let iface = adder_iface();
        let seqs: Vec<Box<dyn Sequence>> =
            vec![Box::new(RandomSequence::new(&iface.inputs, 30, 7))];
        let env =
            Environment::from_source(BAD_ADDER, "add", iface, adder_model(), seqs).expect("env");
        let summary = env.run();
        assert!(!summary.all_passed());
        assert!(summary.pass_rate < 0.5);
        assert!(!summary.mismatches.is_empty());
        let rendered = summary.log.render();
        assert!(rendered.contains("UVM_ERROR"));
        let parsed = UvmLog::parse_mismatches(&rendered);
        assert_eq!(parsed.len(), summary.mismatches.len());
        assert_eq!(parsed[0].1, "y");
        // Waveform recorded one frame per cycle.
        assert_eq!(summary.waveform.len(), summary.cycles);
    }

    #[test]
    fn kept_record_frames_answer_like_a_frame_per_cycle() {
        let run = |kept_only: bool| {
            let iface = adder_iface();
            let seqs: Vec<Box<dyn Sequence>> =
                vec![Box::new(RandomSequence::new(&iface.inputs, 30, 7))];
            let env = Environment::from_source(BAD_ADDER, "add", iface, adder_model(), seqs)
                .expect("env");
            if kept_only {
                env.frames_at_kept_records().run()
            } else {
                env.run()
            }
        };
        let (every, kept) = (run(false), run(true));
        assert_eq!(kept.log, every.log);
        assert_eq!(kept.mismatches, every.mismatches);
        assert_eq!(kept.pass_rate, every.pass_rate);
        // One output, so two records are all Algorithm 2 keeps.
        assert!(every.mismatches.len() > 2);
        assert_eq!(kept.waveform.len(), 2);
        for m in &every.mismatches[..2] {
            for name in ["a", "b", "y"] {
                assert_eq!(
                    kept.waveform.value_at(name, m.time),
                    every.waveform.value_at(name, m.time)
                );
            }
            assert_eq!(kept.waveform.snapshot_at(m.time), every.waveform.snapshot_at(m.time));
        }
        // A run that records no frame builds no waveform.
        let iface = adder_iface();
        let seqs: Vec<Box<dyn Sequence>> =
            vec![Box::new(RandomSequence::new(&iface.inputs, 30, 7))];
        let env = Environment::from_source(GOOD_ADDER, "add", iface, adder_model(), seqs);
        let passing = env.expect("env").frames_at_kept_records().run();
        assert!(passing.all_passed() && passing.waveform.is_empty());
        assert!(passing.waveform.names().is_empty());
    }

    #[test]
    fn sequential_counter_verified() {
        let src = "module c(input clk, input rst_n, input en, output reg [3:0] q);\n\
                   always @(posedge clk or negedge rst_n) begin\n\
                   if (!rst_n) q <= 4'd0;\nelse if (en) q <= q + 4'd1;\nend\nendmodule\n";
        #[derive(Default)]
        struct CounterModel {
            q: u128,
            en: InSlot,
            q_out: OutSlot,
        }
        impl RefModel for CounterModel {
            fn bind(&mut self, spec: &IoSpec) {
                self.en = spec.input("en");
                self.q_out = spec.output("q");
            }
            fn reset(&mut self) {
                self.q = 0;
            }
            fn step(&mut self, io: &mut IoFrame<'_>) {
                if io.get(self.en) == 1 {
                    self.q = (self.q + 1) & 0xf;
                }
                io.set(self.q_out, self.q);
            }
        }
        let iface = DutInterface::clocked(vec![PortSig::new("en", 1)], vec![PortSig::new("q", 4)]);
        let seqs: Vec<Box<dyn Sequence>> =
            vec![Box::new(RandomSequence::new(&iface.inputs, 100, 3))];
        let env = Environment::from_source(src, "c", iface, Box::<CounterModel>::default(), seqs)
            .expect("env");
        let summary = env.run();
        assert!(summary.all_passed(), "log:\n{}", summary.log.render());
    }

    #[test]
    fn assertions_catch_protocol_violations() {
        use crate::assertion::Assertion;
        let src = "module m(input clk, input rst_n, input en, output reg [3:0] q);\n\
                   always @(posedge clk or negedge rst_n) begin\n\
                   if (!rst_n) q <= 4'd0;\nelse if (en) q <= q + 4'd2;\nend\nendmodule\n";
        #[derive(Default)]
        struct M {
            q: u128,
            en: InSlot,
            q_out: OutSlot,
        }
        impl RefModel for M {
            fn bind(&mut self, spec: &IoSpec) {
                self.en = spec.input("en");
                self.q_out = spec.output("q");
            }
            fn reset(&mut self) {
                self.q = 0;
            }
            fn step(&mut self, io: &mut IoFrame<'_>) {
                if io.get(self.en) == 1 {
                    self.q = (self.q + 2) & 0xf;
                }
                io.set(self.q_out, self.q);
            }
        }
        let iface = DutInterface::clocked(vec![PortSig::new("en", 1)], vec![PortSig::new("q", 4)]);
        let seqs: Vec<Box<dyn Sequence>> =
            vec![Box::new(RandomSequence::new(&iface.inputs, 40, 5))];
        let env = Environment::from_source(src, "m", iface, Box::<M>::default(), seqs)
            .expect("env")
            .with_assertions(vec![
                Assertion::parse("q_even", "q[0] == 1'b0").expect("parse"),
                Assertion::parse("q_small", "q < 4'd15").expect("parse"),
            ]);
        let summary = env.run();
        // The DUT matches its model (both step by 2), so the scoreboard
        // passes — but the q_small assertion fires whenever q == 15
        // (never: q stays even), while q_even always holds.
        assert!(summary.all_passed());
        assert_eq!(summary.assertion_failures, 0);

        // Now assert something false and watch it fire.
        let iface = DutInterface::clocked(vec![PortSig::new("en", 1)], vec![PortSig::new("q", 4)]);
        let seqs: Vec<Box<dyn Sequence>> =
            vec![Box::new(RandomSequence::new(&iface.inputs, 40, 5))];
        let env = Environment::from_source(src, "m", iface, Box::<M>::default(), seqs)
            .expect("env")
            .with_assertions(vec![Assertion::parse("q_zero", "q == 4'd0").expect("parse")]);
        let summary = env.run();
        assert!(summary.assertion_failures > 0);
        assert!(summary.log.render().contains("assertion 'q_zero' failed"));
    }

    #[test]
    fn missing_port_is_reported() {
        let iface = DutInterface::combinational(
            vec![PortSig::new("a", 8), PortSig::new("nonexistent", 1)],
            vec![PortSig::new("y", 9)],
        );
        let err =
            Environment::from_source(GOOD_ADDER, "add", iface, adder_model(), vec![]).unwrap_err();
        assert_eq!(err, UvmError::MissingPort("nonexistent".to_string()));
    }

    /// Two cross-coupled comb processes gated by `trig`: stable while
    /// trig is 0, oscillating while it is 1.
    const OSC: &str = "module osc(input trig, output reg a, output reg b, output y);\n\
                       assign y = a;\n\
                       always @(*) begin\nif (trig) begin\ncase (b)\n1'b0: a = 1'b1;\n\
                       default: a = 1'b0;\nendcase\nend else\na = 1'b0;\nend\n\
                       always @(*) begin\nif (trig) begin\ncase (a)\n1'b0: b = 1'b0;\n\
                       default: b = 1'b1;\nendcase\nend else\nb = 1'b0;\nend\nendmodule\n";

    #[test]
    fn mid_run_oscillation_aborts_cleanly() {
        // Stable while trig is 0, oscillating once a random vector
        // drives trig high.
        let iface =
            DutInterface::combinational(vec![PortSig::new("trig", 1)], vec![PortSig::new("y", 1)]);
        let model = FnModel::new(|s: &IoSpec| {
            let y = s.output("y");
            move |io: &mut IoFrame<'_>| io.set(y, 0)
        });
        let seqs: Vec<Box<dyn Sequence>> =
            vec![Box::new(RandomSequence::new(&iface.inputs, 50, 3))];
        let env = Environment::from_source(OSC, "osc", iface, Box::new(model), seqs)
            .expect("env builds: stable at reset");
        let summary = env.run();
        assert!(summary.aborted.is_some(), "oscillation must abort the run");
        assert!(summary.log.render().contains("aborted"));
        // The oscillation is reported structurally, with the activation
        // count pinned at the simulator's cap.
        assert_eq!(summary.unstable, Some(uvllm_sim::MAX_ACTIVATIONS));
        // The scoreboard keeps whatever cycles completed before the hang.
        assert!(summary.pass_rate <= 1.0);
    }

    /// `osc` under directed `trig` values, the model expecting a
    /// constant `y`.
    fn osc_env(trig: &[u128], expected_y: u128) -> Environment {
        let iface =
            DutInterface::combinational(vec![PortSig::new("trig", 1)], vec![PortSig::new("y", 1)]);
        let model = FnModel::new(move |s: &IoSpec| {
            let y = s.output("y");
            move |io: &mut IoFrame<'_>| io.set(y, expected_y)
        });
        let vectors =
            trig.iter().map(|t| Transaction::new().with("trig", Logic::from_u128(1, *t))).collect();
        let seqs: Vec<Box<dyn Sequence>> =
            vec![Box::new(crate::sequence::DirectedSequence::new("trig", vectors))];
        Environment::from_source(OSC, "osc", iface, Box::new(model), seqs).expect("env")
    }

    #[test]
    fn stopping_at_the_first_mismatch_keeps_an_earlier_oscillation() {
        // Three matching cycles, then the DUT oscillates: no mismatch
        // ever stops the run, so it ends where the unstopped run ends.
        let summary = osc_env(&[0, 0, 0, 1, 0], 0).stop_at_first_mismatch().run();
        assert_eq!(summary.unstable, Some(uvllm_sim::MAX_ACTIVATIONS));
        assert!(summary.mismatches.is_empty());
        assert_eq!(summary.cycles, 3);
    }

    #[test]
    fn a_mismatch_before_an_oscillation_ends_the_stopped_run_first() {
        // The model expects y = 1, the quiescent DUT drives 0: cycle 0
        // mismatches, cycle 3 would oscillate. The unstopped run sees
        // both events; the stopped run ends at the first one.
        let full = osc_env(&[0, 0, 0, 1, 0], 1).run();
        assert_eq!(full.unstable, Some(uvllm_sim::MAX_ACTIVATIONS));
        assert_eq!(full.mismatches.len(), 3);
        let stopped = osc_env(&[0, 0, 0, 1, 0], 1).stop_at_first_mismatch().run();
        assert_eq!(stopped.unstable, None);
        assert!(stopped.aborted.is_none());
        assert_eq!(stopped.cycles, 1);
        assert_eq!(stopped.mismatches, full.mismatches[..1]);
    }

    #[test]
    fn a_stopped_run_reports_exactly_its_first_bad_cycle() {
        // Both outputs are wrong whenever a == 3: cycles 3 and 5 of the
        // directed stimulus.
        let src = "module m(input [7:0] a, output [7:0] y, output [7:0] z);\n\
                   assign y = (a == 8'd3) ? 8'd0 : a;\n\
                   assign z = (a == 8'd3) ? 8'd1 : a;\nendmodule\n";
        let env = || {
            let iface = DutInterface::combinational(
                vec![PortSig::new("a", 8)],
                vec![PortSig::new("y", 8), PortSig::new("z", 8)],
            );
            let model = FnModel::new(|s: &IoSpec| {
                let (a, y, z) = (s.input("a"), s.output("y"), s.output("z"));
                move |io: &mut IoFrame<'_>| {
                    let v = io.get(a);
                    io.set(y, v);
                    io.set(z, v);
                }
            });
            let vectors = [0u128, 1, 2, 3, 4, 3, 5]
                .iter()
                .map(|a| Transaction::new().with("a", Logic::from_u128(8, *a)))
                .collect();
            let seqs: Vec<Box<dyn Sequence>> =
                vec![Box::new(crate::sequence::DirectedSequence::new("a", vectors))];
            Environment::from_source(src, "m", iface, Box::new(model), seqs).expect("env")
        };
        let full = env().run();
        assert_eq!(full.cycles, 7);
        assert_eq!(full.mismatches.len(), 4);
        assert_eq!(full.mismatches[0].cycle, 3);

        let stopped = env().stop_at_first_mismatch().run();
        assert_eq!(stopped.cycles, 4, "index of the first bad cycle + 1");
        assert_eq!(stopped.mismatches, full.mismatches[..2], "one cycle's mismatches");
        assert!(stopped.aborted.is_none() && !stopped.all_passed());
        assert_eq!(stopped.pass_rate, 0.75);
        let log = stopped.log.render();
        assert_eq!(UvmLog::parse_mismatches(&log).len(), 2, "a one-cycle log:\n{log}");
        assert!(log.contains("run complete: 4 cycles"), "{log}");

        // A run that passes is the same run either way.
        let (a, b) =
            (osc_env(&[0, 0], 0).run(), osc_env(&[0, 0], 0).stop_at_first_mismatch().run());
        assert!(a.all_passed() && b.all_passed());
        assert_eq!((a.cycles, a.log.render()), (b.cycles, b.log.render()));
    }

    #[test]
    fn directed_vectors_out_of_port_order_drive_what_ordered_ones_do() {
        // `clk`-free `a + b + c`: vectors listing ports out of interface
        // order, naming a port the interface lacks and leaving `b` out
        // must drive, every cycle, what the same vectors in interface
        // order with `b` zero do.
        let src = "module m(input [7:0] a, input [7:0] b, input [3:0] c, output [9:0] y);\n\
                   assign y = a + b + c;\nendmodule\n";
        let run = |vectors: Vec<Transaction>| {
            let iface = DutInterface::combinational(
                vec![PortSig::new("a", 8), PortSig::new("b", 8), PortSig::new("c", 4)],
                vec![PortSig::new("y", 10)],
            );
            let model = FnModel::new(|s: &IoSpec| {
                let (a, b, c, y) = (s.input("a"), s.input("b"), s.input("c"), s.output("y"));
                move |io: &mut IoFrame<'_>| {
                    let v = io.get(a) + io.get(b) + io.get(c);
                    io.set(y, v);
                }
            });
            let seqs: Vec<Box<dyn Sequence>> =
                vec![Box::new(crate::sequence::DirectedSequence::new("mixed", vectors))];
            Environment::from_source(src, "m", iface, Box::new(model), seqs).expect("env").run()
        };
        let cases = [(200u128, 9u128), (17, 15), (0, 0), (255, 1), (3, 7)];
        let ordered = cases
            .iter()
            .map(|(a, c)| {
                Transaction::new()
                    .with("a", Logic::from_u128(8, *a))
                    .with("b", Logic::zeros(8))
                    .with("c", Logic::from_u128(4, *c))
            })
            .collect();
        let mixed = cases
            .iter()
            .map(|(a, c)| {
                Transaction::new()
                    .with("c", Logic::from_u128(4, *c))
                    .with("nonexistent", Logic::ones(8))
                    .with("a", Logic::from_u128(8, *a))
            })
            .collect();
        let (ordered, mixed) = (run(ordered), run(mixed));
        assert!(ordered.all_passed(), "log:\n{}", ordered.log.render());
        assert!(mixed.all_passed(), "log:\n{}", mixed.log.render());
        assert_eq!(mixed.cycles, cases.len());
        let y = |s: &RunSummary| s.waveform.series("y").expect("y is recorded");
        assert_eq!(y(&mixed), y(&ordered));
        let sums: Vec<_> = cases.iter().map(|(a, c)| Some(a + c)).collect();
        assert_eq!(y(&mixed).iter().map(|(_, v)| v.to_u128()).collect::<Vec<_>>(), sums);
        assert_eq!(mixed.waveform.to_vcd("m"), ordered.waveform.to_vcd("m"));
    }

    #[test]
    fn syntax_error_is_elab_error() {
        let iface = adder_iface();
        let err = Environment::from_source(
            "module add(input a, output y)\nendmodule\n",
            "add",
            iface,
            adder_model(),
            vec![],
        )
        .unwrap_err();
        assert!(matches!(err, UvmError::Elab(_)));
    }

    #[test]
    fn unwritten_outputs_are_expected_unknown() {
        // A model that never writes `y` expects all-X every cycle: it
        // must mismatch a driving DUT instead of silently passing.
        let iface = adder_iface();
        let model = FnModel::new(|_: &IoSpec| |_: &mut IoFrame<'_>| {});
        let seqs: Vec<Box<dyn Sequence>> =
            vec![Box::new(RandomSequence::new(&iface.inputs, 10, 9))];
        let env =
            Environment::from_source(GOOD_ADDER, "add", iface, Box::new(model), seqs).expect("env");
        let summary = env.run();
        assert!(!summary.all_passed());
        assert!(summary.mismatches.iter().all(|m| !m.expected.is_fully_known()));
    }
}
