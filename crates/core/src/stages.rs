//! The four pipeline stages of Fig. 2: pre-processing (Algorithm 1),
//! UVM processing, post-processing (Algorithm 2) and repair.

use crate::memo::{parse_text, Elaborated, Parsed, StageMemo};
use crate::patch::apply_pairs;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use uvllm_designs::Design;
use uvllm_dfg::suspicious_lines;
use uvllm_lint::LintReport;
use uvllm_llm::{
    drive, AgentRole, CompleteResponse, Completion, ErrorInfo, LlmError, LlmService, MismatchInfo,
    OutputMode, RepairPair, RepairPrompt, RepairResponse, Step,
};
use uvllm_sim::{Frame, Logic, SimBackend, Simulator};
use uvllm_uvm::{
    CornerSequence, DirectedSequence, DutInterface, Environment, IoSpec, KeptRecords,
    RandomSequence, RunSummary, Sequence, UvmError,
};

pub use uvllm_uvm::MAX_MISMATCH_RECORDS;

/// Statistics of one pre-processing invocation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PreprocessStats {
    /// Lint→fix iterations performed.
    pub iterations: usize,
    /// Warning fixes applied by scripts (no LLM).
    pub script_fixes: usize,
    /// LLM calls made for syntax errors.
    pub llm_calls: usize,
    /// Whether the code changed at all.
    pub changed: bool,
    /// True when the stage exited with the code lint-clean.
    pub clean: bool,
}

/// Pre-processes the DUT with the joint LLM-script loop of Algorithm 1
/// ([`Preprocessing`]), asking `llm` for every syntax repair.
pub fn preprocess(
    code: &str,
    spec: &str,
    llm: &mut dyn LlmService,
    output_mode: OutputMode,
    max_iters: usize,
) -> (String, PreprocessStats) {
    let mut stage = Preprocessing::new(code, spec, output_mode, max_iters);
    let lint = |code: &str| Arc::new(uvllm_lint::lint(code));
    drive(|prompt| llm.complete(prompt), |reply| stage.step(reply, &lint))
}

/// The joint LLM-script loop of Algorithm 1 as resumable state: lint;
/// syntax errors go to the LLM agent, fixable warnings to the script
/// templates; iterate until clean or `max_iters`.
#[derive(Debug)]
pub struct Preprocessing<'s> {
    code: String,
    spec: &'s str,
    output_mode: OutputMode,
    iters_left: usize,
    stats: PreprocessStats,
}

impl<'s> Preprocessing<'s> {
    /// The stage about to lint `code` for the first time.
    pub fn new(code: &str, spec: &'s str, output_mode: OutputMode, max_iters: usize) -> Self {
        Preprocessing {
            code: code.to_string(),
            spec,
            output_mode,
            iters_left: max_iters,
            stats: PreprocessStats::default(),
        }
    }

    /// Runs lint→fix iterations, taking every lint report from `lint`,
    /// until a syntax error needs the LLM agent or the stage ends with
    /// the code and its statistics. `reply` answers the prompt the
    /// previous call asked for.
    pub fn step(
        &mut self,
        reply: Option<Result<Completion, LlmError>>,
        lint: &dyn Fn(&str) -> Arc<LintReport>,
    ) -> Step<(String, PreprocessStats)> {
        match reply {
            None => {}
            // A failed call ends the stage.
            Some(Err(_)) => self.iters_left = 0,
            Some(answer) => {
                self.stats.llm_calls += 1;
                let attempt = apply_repair(&self.code, answer, self.output_mode);
                if attempt.changed {
                    self.stats.changed = true;
                    self.code = attempt.code;
                }
            }
        }
        while self.iters_left > 0 {
            self.iters_left -= 1;
            let report = lint(&self.code);
            if !report.errors().is_empty() {
                self.stats.iterations += 1;
                let log = report.render(&self.code);
                return Step::NeedLlm(
                    RepairPrompt::new(AgentRole::SyntaxFixer, self.spec, &self.code)
                        .with_error_info(ErrorInfo::LintLog(log))
                        .with_output_mode(self.output_mode),
                );
            }
            if report.fixable_warnings().is_empty() {
                break;
            }
            self.stats.iterations += 1;
            let (next, n) = uvllm_lint::apply_fixes(&self.code, &report);
            self.stats.script_fixes += n;
            if n == 0 {
                break;
            }
            self.stats.changed = true;
            self.code = next;
        }
        self.stats.clean = lint(&self.code).is_clean();
        Step::Done((std::mem::take(&mut self.code), std::mem::take(&mut self.stats)))
    }
}

/// Outcome of the UVM processing stage.
#[derive(Debug)]
pub enum UvmOutcome {
    /// The testbench ran; inspect the summary.
    Ran(Box<RunSummary>),
    /// The DUT failed to build (syntax or elaboration error text).
    BuildFailed(String),
}

impl UvmOutcome {
    /// The rollback score: pass rate, or 0 for unbuildable code.
    pub fn score(&self) -> f64 {
        match self {
            UvmOutcome::Ran(s) => s.pass_rate,
            UvmOutcome::BuildFailed(_) => 0.0,
        }
    }

    /// True when every checked cycle matched.
    pub fn passed(&self) -> bool {
        matches!(self, UvmOutcome::Ran(s) if s.all_passed())
    }
}

/// What every verification run of one design shares, its names
/// resolved once: the interface, its I/O spec, and the prototypes of
/// the design's stimulus — random and corner over its inputs, and the
/// public vectors bound to the spec. A run's sequences are clones of
/// these, which copy no name.
pub(crate) struct Stimulus {
    pub iface: DutInterface,
    pub spec: IoSpec,
    random: RandomSequence,
    pub corner: CornerSequence,
    pub public: DirectedSequence,
}

impl Stimulus {
    fn of(design: &Design) -> Stimulus {
        let iface = (design.iface)();
        let spec = IoSpec::from_interface(&iface);
        let mut public = DirectedSequence::new("public", (design.directed_vectors)());
        public.bind(&spec);
        Stimulus {
            random: RandomSequence::new(&iface.inputs, 0, 0),
            corner: CornerSequence::new(&iface.inputs),
            iface,
            spec,
            public,
        }
    }

    /// `len` random transactions from `seed`, as
    /// `RandomSequence::new(&iface.inputs, len, seed)` plays them.
    pub fn random(&self, len: usize, seed: u64) -> RandomSequence {
        self.random.reseeded(len, seed)
    }

    /// The stimulus of `design`: built once per catalogue design and
    /// kept for the process (it is a function of the design alone);
    /// built afresh for any other.
    pub fn of_design(design: &Design) -> Arc<Stimulus> {
        static CATALOGUE: OnceLock<Vec<(&'static Design, Arc<Stimulus>)>> = OnceLock::new();
        let catalogue = CATALOGUE.get_or_init(|| {
            uvllm_designs::all().into_iter().map(|d| (d, Arc::new(Stimulus::of(d)))).collect()
        });
        match catalogue.iter().find(|(d, _)| std::ptr::eq(*d, design)) {
            Some((_, stimulus)) => Arc::clone(stimulus),
            None => Arc::new(Stimulus::of(design)),
        }
    }
}

/// The UVM environment of `elaborated`, a text of `design` as
/// [`StageMemo::elaborate`] made it, driven by `seqs`.
pub(crate) fn environment(
    elaborated: Elaborated,
    design: &Design,
    stimulus: &Stimulus,
    seqs: Vec<Box<dyn Sequence>>,
) -> Result<Environment, UvmError> {
    let sim = Simulator::from_arc(elaborated.map_err(UvmError::Elab)?)
        .map_err(|e| UvmError::Sim(e.to_string()))?;
    Environment::with_spec(sim, &stimulus.iface, &stimulus.spec, (design.model)(), seqs)
}

/// Runs the UVM testbench (random + corner sequences against the golden
/// reference model) on `code`, elaborated through `memo`. The run
/// records waveform frames only where post-processing reads them
/// ([`Environment::frames_at_kept_records`]).
pub fn uvm_stage(
    code: &str,
    design: &Design,
    cycles: usize,
    seed: u64,
    memo: &StageMemo,
) -> UvmOutcome {
    let stimulus = Stimulus::of_design(design);
    let seqs: Vec<Box<dyn Sequence>> =
        vec![Box::new(stimulus.random(cycles, seed)), Box::new(stimulus.corner.clone())];
    match environment(memo.elaborate(design.name, code), design, &stimulus, seqs) {
        Ok(env) => UvmOutcome::Ran(Box::new(env.frames_at_kept_records().run())),
        Err(UvmError::Elab(m)) => UvmOutcome::BuildFailed(m),
        Err(UvmError::MissingPort(p)) => {
            UvmOutcome::BuildFailed(format!("DUT lost its port '{p}'"))
        }
        Err(UvmError::Sim(m)) => UvmOutcome::BuildFailed(m),
    }
}

/// Benchmark compatibility; goes with the next `benchmark` PR.
#[doc(hidden)]
pub fn uvm_stage_with(
    code: &str,
    design: &Design,
    cycles: usize,
    seed: u64,
    _backend: SimBackend,
) -> UvmOutcome {
    uvm_stage(code, design, cycles, seed, &StageMemo::new())
}

/// Runs the weak directed public testbench (`T_pub`) to its end on
/// `code`, elaborated through `memo`, for a caller that reads the run's
/// log or mismatches (the baselines' feedback); no waveform is
/// recorded. A caller that keeps only whether the text passes asks
/// [`crate::metrics::hit_confirmed`], which stops at the first mismatch
/// and is memoised.
pub fn directed_stage(code: &str, design: &Design, memo: &StageMemo) -> UvmOutcome {
    let stimulus = Stimulus::of_design(design);
    let seqs: Vec<Box<dyn Sequence>> = vec![Box::new(stimulus.public.clone())];
    match environment(memo.elaborate(design.name, code), design, &stimulus, seqs) {
        Ok(env) => UvmOutcome::Ran(Box::new(env.without_waveform().run())),
        Err(e) => UvmOutcome::BuildFailed(e.to_string()),
    }
}

/// What post-processing keeps of a failed UVM run — the first half of
/// Algorithm 2, everything that needs the records and the waveform. It
/// is small (at most [`MAX_MISMATCH_RECORDS`] records and one waveform
/// frame), so a memo can hold it where it could not hold the run. It
/// keeps values and slots; names are the spec's and the waveform's,
/// shared, and the records become text only when a prompt asks for
/// them ([`Localized::error_info`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Localized {
    found: Found,
}

#[derive(Debug, Clone, PartialEq)]
enum Found {
    /// The run has no mismatch record (it aborted before one): the last
    /// lines of its log.
    RawLog(String),
    Mismatches {
        /// The records [`KeptRecords`] keeps, in log order.
        records: Vec<KeptRecord>,
        /// The interface's input names, in slot order.
        inputs: Arc<Vec<String>>,
        /// Every signal at the first record's timestamp — what the
        /// dynamic slice of SL mode is taken under (a static slice
        /// without one).
        snapshot: Option<Frame>,
    },
}

/// One kept mismatch record with the input values at its timestamp.
#[derive(Debug, Clone, PartialEq)]
struct KeptRecord {
    time: u64,
    signal: Arc<str>,
    expected: Logic,
    actual: Logic,
    /// Input slot → its value in the waveform, where it has one.
    inputs: Vec<Option<Logic>>,
}

/// Post-processing, first half (Algorithm 2's `getMismatch` and
/// `getInputValue`): takes the kept mismatch records off the run's
/// typed records — the ones its log lines render — and joins the input
/// values from the waveform. The scan ends once no later record can be
/// kept.
pub fn localize(design: &Design, run: &RunSummary) -> Localized {
    let stimulus = Stimulus::of_design(design);
    let inputs = stimulus.spec.input_names();
    let mut kept = KeptRecords::new(stimulus.iface.outputs.len());
    let mut records: Vec<KeptRecord> = Vec::new();
    for (i, m) in run.mismatches.iter().enumerate() {
        if kept.is_done() {
            break;
        }
        if !kept.offer(&run.mismatches, i) {
            continue;
        }
        // getInputValue(W_S, MT).
        records.push(KeptRecord {
            time: m.time,
            signal: Arc::clone(&m.signal),
            expected: m.expected,
            actual: m.actual,
            inputs: inputs.iter().map(|name| run.waveform.value_at(name, m.time)).collect(),
        });
    }
    let found = match records.first().map(|first| run.waveform.frame_at(first.time)) {
        None => Found::RawLog(run.log.render_tail(10)),
        Some(snapshot) => Found::Mismatches { records, inputs: Arc::clone(inputs), snapshot },
    };
    Localized { found }
}

impl Localized {
    /// The error information the repair agent gets: the mismatch
    /// records (MS mode), plus the suspicious lines of `code` in SL
    /// mode; the raw log tail when the run left no mismatch line.
    pub fn error_info(&self, code: &str, design: &Design, sl_mode: bool) -> ErrorInfo {
        self.error_info_from(sl_mode, || self.slice(code, design, || parse_text(code)))
    }

    /// [`Localized::error_info`] with the SL-mode lines supplied by the
    /// caller (asked for at most once).
    pub(crate) fn error_info_from(
        &self,
        sl_mode: bool,
        lines: impl FnOnce() -> Vec<(u32, String)>,
    ) -> ErrorInfo {
        match &self.found {
            Found::RawLog(tail) => ErrorInfo::RawLog(tail.clone()),
            Found::Mismatches { records, inputs, .. } => {
                let signals = records.iter().map(|r| r.info(inputs)).collect();
                if sl_mode {
                    ErrorInfo::SuspiciousLines { signals, lines: lines() }
                } else {
                    ErrorInfo::MismatchSignals(signals)
                }
            }
        }
    }

    /// Post-processing, second half: the time-aware dynamic slice of
    /// `code` at the first mismatch timestamp — its suspicious lines.
    /// Empty when `code` does not parse, has no module named after
    /// `design`, or the run left no mismatch line. `code` is parsed by
    /// `parse`, asked for at most once.
    pub fn slice(
        &self,
        code: &str,
        design: &Design,
        parse: impl FnOnce() -> Parsed,
    ) -> Vec<(u32, String)> {
        let Found::Mismatches { records, snapshot, .. } = &self.found else { return Vec::new() };
        let mut signals: Vec<String> = records.iter().map(|m| m.signal.to_string()).collect();
        signals.dedup();
        let Ok((file, _)) = parse() else { return Vec::new() };
        let Some(module) = file.module(design.name) else { return Vec::new() };
        match snapshot {
            Some(frame) => suspicious_lines(module, code, &signals, frame),
            None => suspicious_lines(module, code, &signals, &HashMap::new()),
        }
    }
}

impl KeptRecord {
    /// The record as the prompt renders it; `inputs` names its input
    /// slots.
    fn info(&self, inputs: &[String]) -> MismatchInfo {
        MismatchInfo {
            time: self.time,
            signal: self.signal.to_string(),
            expected: self.expected.to_string(),
            actual: self.actual.to_string(),
            input_values: inputs
                .iter()
                .zip(&self.inputs)
                .filter_map(|(name, value)| Some((name.clone(), value.as_ref()?.to_string())))
                .collect(),
        }
    }
}

/// Post-processing (Algorithm 2): [`localize`]s the run, then — in SL
/// mode — slices `code` for its suspicious lines.
pub fn postprocess(code: &str, design: &Design, run: &RunSummary, sl_mode: bool) -> ErrorInfo {
    localize(design, run).error_info(code, design, sl_mode)
}

/// One repair-agent invocation: builds the prompt, calls the model,
/// applies the result.
#[derive(Debug)]
pub struct RepairAttempt {
    /// Code after the attempt (unchanged when nothing applied).
    pub code: String,
    /// Pairs that were applied (empty in complete mode).
    pub applied: Vec<RepairPair>,
    /// Whether the code changed.
    pub changed: bool,
}

/// Invokes the repair agent (§III-D) in the given mode: asks `llm` the
/// `repair_prompt` and applies its answer (`apply_repair`).
pub fn repair(
    code: &str,
    spec: &str,
    llm: &mut dyn LlmService,
    error_info: ErrorInfo,
    damage_repairs: &[RepairPair],
    output_mode: OutputMode,
    sl_mode: bool,
) -> RepairAttempt {
    let prompt = repair_prompt(code, spec, error_info, damage_repairs, output_mode, sl_mode);
    apply_repair(code, llm.complete(&prompt), output_mode)
}

/// The repair agent's prompt for `code`.
pub(crate) fn repair_prompt(
    code: &str,
    spec: &str,
    error_info: ErrorInfo,
    damage_repairs: &[RepairPair],
    output_mode: OutputMode,
    sl_mode: bool,
) -> RepairPrompt {
    let role =
        if sl_mode { AgentRole::SuspiciousLineDebugger } else { AgentRole::MismatchDebugger };
    RepairPrompt::new(role, spec, code)
        .with_error_info(error_info)
        .with_damage_repairs(damage_repairs.to_vec())
        .with_output_mode(output_mode)
}

/// Applies the repair agent's answer to `code`; a failed call leaves
/// it unchanged.
pub(crate) fn apply_repair(
    code: &str,
    reply: Result<Completion, LlmError>,
    output_mode: OutputMode,
) -> RepairAttempt {
    let unchanged =
        || RepairAttempt { code: code.to_string(), applied: Vec::new(), changed: false };
    let Ok(completion) = reply else { return unchanged() };
    match output_mode {
        OutputMode::Pairs => match RepairResponse::parse(&completion.content) {
            Ok(resp) => {
                let (next, report) = apply_pairs(code, &resp.correct);
                RepairAttempt { changed: report.changed(), applied: report.applied, code: next }
            }
            Err(_) => unchanged(),
        },
        OutputMode::Complete => match CompleteResponse::parse(&completion.content) {
            Ok(resp) if !resp.code.trim().is_empty() && resp.code != code => {
                RepairAttempt { changed: true, applied: Vec::new(), code: resp.code }
            }
            _ => unchanged(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvllm_designs::by_name;
    use uvllm_llm::{DirectService, ScriptedLlm};

    #[test]
    fn preprocess_scripts_fix_combdly_without_llm() {
        let code = "module m(input a, input b, output reg y);\n\
                    always @(*) y <= a & b;\nendmodule\n";
        let mut llm = DirectService::new(ScriptedLlm::new([]));
        let (fixed, stats) = preprocess(code, "spec", &mut llm, OutputMode::Pairs, 4);
        assert!(stats.clean);
        assert_eq!(stats.llm_calls, 0);
        assert_eq!(stats.script_fixes, 1);
        assert!(fixed.contains("y = a & b;"));
    }

    #[test]
    fn preprocess_uses_llm_for_errors() {
        let code = "module m(input a, output y);\nassign y = a\nendmodule\n";
        let fix = RepairResponse {
            module_name: "m".into(),
            analysis: "missing semicolon".into(),
            correct: vec![RepairPair {
                original: "assign y = a".into(),
                patched: "assign y = a;".into(),
            }],
        };
        let mut llm = DirectService::new(ScriptedLlm::new([fix.to_json()]));
        let (fixed, stats) = preprocess(code, "spec", &mut llm, OutputMode::Pairs, 4);
        assert!(stats.clean, "got:\n{fixed}");
        assert_eq!(stats.llm_calls, 1);
        assert!(uvllm_verilog::parse(&fixed).is_ok());
    }

    #[test]
    fn preprocess_gives_up_after_cap() {
        let code = "module m(input a, output y);\nassign y = a\nendmodule\n";
        // The scripted model keeps emitting useless responses.
        let junk = RepairResponse {
            module_name: "m".into(),
            analysis: "hmm".into(),
            correct: vec![RepairPair { original: "zzz".into(), patched: "qqq".into() }],
        };
        let mut llm = DirectService::new(ScriptedLlm::new(vec![junk.to_json(); 10]));
        let (_, stats) = preprocess(code, "spec", &mut llm, OutputMode::Pairs, 3);
        assert!(!stats.clean);
        assert_eq!(stats.llm_calls, 3);
    }

    #[test]
    fn uvm_stage_detects_functional_bug() {
        let d = by_name("adder_8bit").unwrap();
        let buggy = d.source.replace("a + b", "a - b");
        let outcome = uvm_stage(&buggy, d, 50, 1, &StageMemo::new());
        assert!(!outcome.passed());
        assert!(outcome.score() < 0.9);
        let UvmOutcome::Ran(run) = outcome else { panic!("should run") };
        assert!(!run.mismatches.is_empty());
    }

    #[test]
    fn uvm_stage_build_failure() {
        let d = by_name("adder_8bit").unwrap();
        let broken = d.source.replace(";", "");
        let outcome = uvm_stage(&broken, d, 10, 1, &StageMemo::new());
        assert!(matches!(outcome, UvmOutcome::BuildFailed(_)));
        assert_eq!(outcome.score(), 0.0);
    }

    #[test]
    fn postprocess_extracts_ms_and_sl() {
        let d = by_name("adder_8bit").unwrap();
        let buggy = d.source.replace("a + b", "a - b");
        let UvmOutcome::Ran(run) = uvm_stage(&buggy, d, 50, 1, &StageMemo::new()) else { panic!() };
        let ms = postprocess(&buggy, d, &run, false);
        match &ms {
            ErrorInfo::MismatchSignals(records) => {
                assert!(!records.is_empty());
                assert!(records.len() <= MAX_MISMATCH_RECORDS);
                assert!(records[0].signal == "sum" || records[0].signal == "cout");
                assert!(!records[0].input_values.is_empty());
            }
            other => panic!("expected MS info, got {other:?}"),
        }
        let sl = postprocess(&buggy, d, &run, true);
        match &sl {
            ErrorInfo::SuspiciousLines { lines, .. } => {
                assert!(
                    lines.iter().any(|(_, t)| t.contains("a - b")),
                    "slice should reach the bug: {lines:?}"
                );
            }
            other => panic!("expected SL info, got {other:?}"),
        }
    }

    #[test]
    fn directed_stage_is_weak() {
        // The weak public testbench misses the carry bug by design.
        let d = by_name("adder_8bit").unwrap();
        let buggy = d.source.replace("{cout, sum} = a + b", "{cout, sum} = {1'b0, a} + {1'b0, b}");
        // That rewrite is equivalent; use the cout-drop mutation instead:
        let buggy2 = d.source.replace(
            "assign {cout, sum} = a + b + {7'd0, cin};",
            "assign sum = a + b + {7'd0, cin};\nassign cout = 1'b0;",
        );
        let _ = buggy;
        let outcome = directed_stage(&buggy2, d, &StageMemo::new());
        assert!(outcome.passed(), "weak testbench should miss the carry bug");
        // The strong UVM stage catches it.
        assert!(!uvm_stage(&buggy2, d, 100, 2, &StageMemo::new()).passed());
    }

    #[test]
    fn repair_applies_pairs() {
        let d = by_name("adder_8bit").unwrap();
        let buggy = d.source.replace("a + b", "a - b");
        let fix = RepairResponse {
            module_name: "adder_8bit".into(),
            analysis: "wrong operator".into(),
            correct: vec![RepairPair { original: "a - b".into(), patched: "a + b".into() }],
        };
        let mut llm = DirectService::new(ScriptedLlm::new([fix.to_json()]));
        let attempt = repair(
            &buggy,
            d.spec,
            &mut llm,
            ErrorInfo::MismatchSignals(vec![]),
            &[],
            OutputMode::Pairs,
            false,
        );
        assert!(attempt.changed);
        assert_eq!(attempt.code, d.source);
        assert_eq!(attempt.applied.len(), 1);
    }
}
