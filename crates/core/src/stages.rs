//! The four pipeline stages of Fig. 2: pre-processing (Algorithm 1),
//! UVM processing, post-processing (Algorithm 2) and repair.

use crate::memo::StageMemo;
use crate::patch::apply_pairs;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use uvllm_designs::Design;
use uvllm_dfg::suspicious_lines;
use uvllm_lint::LintReport;
use uvllm_llm::{
    AgentRole, CompleteResponse, ErrorInfo, LlmService, MismatchInfo, OutputMode, RepairPair,
    RepairPrompt, RepairResponse,
};
use uvllm_sim::{Logic, SimBackend, Simulator};
use uvllm_uvm::{
    CornerSequence, DirectedSequence, DutInterface, Environment, RandomSequence, RunSummary,
    Sequence, UvmError, UvmLog,
};

/// Limit on mismatch records forwarded to prompts (token budget).
pub const MAX_MISMATCH_RECORDS: usize = 5;

/// Statistics of one pre-processing invocation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PreprocessStats {
    /// Lint→fix iterations performed.
    pub iterations: usize,
    /// Warning fixes applied by scripts (no LLM).
    pub script_fixes: usize,
    /// LLM calls made for syntax errors.
    pub llm_calls: usize,
    /// Simulated LLM latency spent here.
    pub llm_time: Duration,
    /// Whether the code changed at all.
    pub changed: bool,
    /// True when the stage exited with the code lint-clean.
    pub clean: bool,
}

/// Pre-processes the DUT with the joint LLM-script loop of Algorithm 1:
/// lint; syntax errors go to the LLM agent, fixable warnings to the
/// script templates; iterate until clean or `max_iters`.
///
/// The LLM is consumed through the [`LlmService`] submit/await
/// protocol: on a shared [`uvllm_llm::BatchedLlm`] the await is where
/// this job's round trip overlaps other workers' simulation time.
pub fn preprocess(
    code: &str,
    spec: &str,
    llm: &mut dyn LlmService,
    output_mode: OutputMode,
    max_iters: usize,
) -> (String, PreprocessStats) {
    preprocess_with(code, spec, llm, output_mode, max_iters, |code| {
        Arc::new(uvllm_lint::lint(code))
    })
}

/// [`preprocess`] of an implementation of `design`, taking every lint
/// report from `memo`: a text is linted once per memo, whichever job
/// reaches it first.
pub fn preprocess_on(
    code: &str,
    design: &Design,
    llm: &mut dyn LlmService,
    output_mode: OutputMode,
    max_iters: usize,
    memo: &StageMemo,
) -> (String, PreprocessStats) {
    preprocess_with(code, design.spec, llm, output_mode, max_iters, |code| {
        memo.lint(design.name, code)
    })
}

fn preprocess_with(
    code: &str,
    spec: &str,
    llm: &mut dyn LlmService,
    output_mode: OutputMode,
    max_iters: usize,
    lint: impl Fn(&str) -> Arc<LintReport>,
) -> (String, PreprocessStats) {
    let mut code = code.to_string();
    let mut stats = PreprocessStats::default();
    for _ in 0..max_iters {
        let report = lint(&code);
        if !report.errors().is_empty() {
            stats.iterations += 1;
            let log = report.render(&code);
            let prompt = RepairPrompt::new(AgentRole::SyntaxFixer, spec, &code)
                .with_error_info(ErrorInfo::LintLog(log))
                .with_output_mode(output_mode);
            let ticket = llm.submit(&prompt);
            let Ok(completion) = llm.await_completion(ticket) else { break };
            stats.llm_calls += 1;
            stats.llm_time += completion.latency;
            match output_mode {
                OutputMode::Pairs => {
                    if let Ok(resp) = RepairResponse::parse(&completion.content) {
                        let (next, report) = apply_pairs(&code, &resp.correct);
                        if report.changed() {
                            stats.changed = true;
                            code = next;
                        }
                    }
                }
                OutputMode::Complete => {
                    if let Ok(resp) = CompleteResponse::parse(&completion.content) {
                        if resp.code != code && !resp.code.trim().is_empty() {
                            stats.changed = true;
                            code = resp.code;
                        }
                    }
                }
            }
        } else if !report.fixable_warnings().is_empty() {
            stats.iterations += 1;
            let (next, n) = uvllm_lint::apply_fixes(&code, &report);
            stats.script_fixes += n;
            if n > 0 {
                stats.changed = true;
                code = next;
            } else {
                break;
            }
        } else {
            stats.clean = true;
            break;
        }
    }
    stats.clean = lint(&code).is_clean();
    (code, stats)
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

/// The UVM environment of `code` as an implementation of `design`,
/// driven by `seqs`, on the elaboration `memo` holds for the text.
pub(crate) fn environment(
    code: &str,
    design: &Design,
    iface: DutInterface,
    seqs: Vec<Box<dyn Sequence>>,
    memo: &StageMemo,
) -> Result<Environment, UvmError> {
    let elaborated = memo.elaborate(design.name, code).map_err(UvmError::Elab)?;
    let sim = Simulator::from_arc(elaborated).map_err(|e| UvmError::Sim(e.to_string()))?;
    Environment::with_sim(sim, iface, (design.model)(), seqs)
}

/// Runs the UVM testbench (random + corner sequences against the golden
/// reference model) on `code`, elaborated through `memo`.
pub fn uvm_stage(
    code: &str,
    design: &Design,
    cycles: usize,
    seed: u64,
    memo: &StageMemo,
) -> UvmOutcome {
    let iface = (design.iface)();
    let seqs: Vec<Box<dyn Sequence>> = vec![
        Box::new(RandomSequence::new(&iface.inputs, cycles, seed)),
        Box::new(CornerSequence::new(&iface.inputs)),
    ];
    match environment(code, design, iface, seqs, memo) {
        Ok(env) => UvmOutcome::Ran(Box::new(env.run())),
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

/// Runs the weak directed public testbench (`T_pub`) — the evaluation's
/// Hit-Rate test set and the feedback loop of the baseline methods — on
/// `code`, elaborated through `memo`.
pub fn directed_stage(code: &str, design: &Design, memo: &StageMemo) -> UvmOutcome {
    let seqs: Vec<Box<dyn Sequence>> =
        vec![Box::new(DirectedSequence::new("public", (design.directed_vectors)()))];
    match environment(code, design, (design.iface)(), seqs, memo) {
        Ok(env) => UvmOutcome::Ran(Box::new(env.run())),
        Err(e) => UvmOutcome::BuildFailed(e.to_string()),
    }
}

/// What post-processing keeps of a failed UVM run — the first half of
/// Algorithm 2, everything that needs the log and the waveform. It is
/// small (at most [`MAX_MISMATCH_RECORDS`] records and one waveform
/// frame), so a memo can hold it where it could not hold the run.
#[derive(Debug, Clone, PartialEq)]
pub struct Localized {
    found: Found,
}

#[derive(Debug, Clone, PartialEq)]
enum Found {
    /// The log has no mismatch line (the run aborted before one): its
    /// last lines.
    RawLog(String),
    Mismatches {
        /// At most [`MAX_MISMATCH_RECORDS`], two per signal, in log
        /// order, each with the input values at its timestamp.
        records: Vec<MismatchInfo>,
        /// Every signal at the first record's timestamp — what the
        /// dynamic slice of SL mode is taken under.
        snapshot: HashMap<String, Logic>,
    },
}

/// Post-processing, first half (Algorithm 2's `getMismatch` and
/// `getInputValue`): reads mismatch timestamps/signals off the rendered
/// UVM log and joins the input values from the waveform. The scan ends
/// once [`MAX_MISMATCH_RECORDS`] are kept or every output port has its
/// two: no later line can add a record.
pub fn localize(design: &Design, run: &RunSummary) -> Localized {
    let iface = (design.iface)();
    let mut records: Vec<MismatchInfo> = Vec::new();
    let mut full_ports = 0;
    'scan: for entry in &run.log.entries {
        let rendered = entry.render();
        for line in rendered.lines() {
            let Some((time, signal, expected, actual)) = UvmLog::parse_mismatch_line(line) else {
                continue;
            };
            let kept = records.iter().filter(|r| r.signal == signal).count();
            if kept >= 2 {
                continue; // at most two records per signal
            }
            if kept == 1 && iface.outputs.iter().any(|p| p.name == signal) {
                full_ports += 1;
            }
            // getInputValue(W_S, MT).
            let input_values = iface
                .inputs
                .iter()
                .filter_map(|p| {
                    run.waveform.value_at(&p.name, time).map(|v| (p.name.clone(), v.to_string()))
                })
                .collect();
            records.push(MismatchInfo { time, signal, expected, actual, input_values });
            if records.len() >= MAX_MISMATCH_RECORDS || full_ports == iface.outputs.len() {
                break 'scan;
            }
        }
    }
    let found = match records.first() {
        None => Found::RawLog(tail(&run.log.render(), 10)),
        Some(first) => {
            let snapshot = run.waveform.snapshot_at(first.time);
            Found::Mismatches { records, snapshot }
        }
    };
    Localized { found }
}

impl Localized {
    /// The error information the repair agent gets: the mismatch
    /// records (MS mode), plus the suspicious lines of `code` in SL
    /// mode; the raw log tail when the run left no mismatch line.
    pub fn error_info(&self, code: &str, design: &Design, sl_mode: bool) -> ErrorInfo {
        self.error_info_from(sl_mode, || self.slice(code, design))
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
            Found::Mismatches { records, .. } if !sl_mode => {
                ErrorInfo::MismatchSignals(records.clone())
            }
            Found::Mismatches { records, .. } => {
                ErrorInfo::SuspiciousLines { signals: records.clone(), lines: lines() }
            }
        }
    }

    /// Post-processing, second half: the time-aware dynamic slice of
    /// `code` at the first mismatch timestamp — its suspicious lines.
    /// Empty when `code` does not parse, has no module named after
    /// `design`, or the run left no mismatch line.
    pub fn slice(&self, code: &str, design: &Design) -> Vec<(u32, String)> {
        let Found::Mismatches { records, snapshot } = &self.found else { return Vec::new() };
        let mut signals: Vec<String> = records.iter().map(|m| m.signal.clone()).collect();
        signals.dedup();
        let Ok(file) = uvllm_verilog::parse(code) else { return Vec::new() };
        file.module(design.name)
            .map(|module| suspicious_lines(module, code, &signals, snapshot))
            .unwrap_or_default()
    }
}

/// Post-processing (Algorithm 2): [`localize`]s the run, then — in SL
/// mode — slices `code` for its suspicious lines.
pub fn postprocess(code: &str, design: &Design, run: &RunSummary, sl_mode: bool) -> ErrorInfo {
    localize(design, run).error_info(code, design, sl_mode)
}

fn tail(text: &str, n: usize) -> String {
    let lines: Vec<&str> = text.lines().collect();
    let start = lines.len().saturating_sub(n);
    lines[start..].join("\n")
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
    /// Simulated LLM latency.
    pub llm_time: Duration,
}

/// Invokes the repair agent (§III-D) in the given mode, through the
/// [`LlmService`] submit/await protocol.
pub fn repair(
    code: &str,
    spec: &str,
    llm: &mut dyn LlmService,
    error_info: ErrorInfo,
    damage_repairs: &[RepairPair],
    output_mode: OutputMode,
    sl_mode: bool,
) -> RepairAttempt {
    let role =
        if sl_mode { AgentRole::SuspiciousLineDebugger } else { AgentRole::MismatchDebugger };
    let prompt = RepairPrompt::new(role, spec, code)
        .with_error_info(error_info)
        .with_damage_repairs(damage_repairs.to_vec())
        .with_output_mode(output_mode);
    let ticket = llm.submit(&prompt);
    let Ok(completion) = llm.await_completion(ticket) else {
        return RepairAttempt {
            code: code.to_string(),
            applied: Vec::new(),
            changed: false,
            llm_time: Duration::ZERO,
        };
    };
    let llm_time = completion.latency;
    match output_mode {
        OutputMode::Pairs => match RepairResponse::parse(&completion.content) {
            Ok(resp) => {
                let (next, report) = apply_pairs(code, &resp.correct);
                RepairAttempt {
                    changed: report.changed(),
                    applied: report.applied,
                    code: next,
                    llm_time,
                }
            }
            Err(_) => RepairAttempt {
                code: code.to_string(),
                applied: Vec::new(),
                changed: false,
                llm_time,
            },
        },
        OutputMode::Complete => match CompleteResponse::parse(&completion.content) {
            Ok(resp) if !resp.code.trim().is_empty() && resp.code != code => {
                RepairAttempt { changed: true, applied: Vec::new(), code: resp.code, llm_time }
            }
            _ => RepairAttempt {
                code: code.to_string(),
                applied: Vec::new(),
                changed: false,
                llm_time,
            },
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
