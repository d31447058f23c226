//! Prompt construction for the repair agents (Fig. 4 of the paper).
//!
//! Prompts are kept structured so backends can both render them to text
//! (for token accounting) and introspect which information the pipeline
//! supplied (the calibrated oracle's success probability depends on the
//! information mode, mirroring how real LLM fix rates improve with
//! richer error context).

use std::fmt;

/// Which agent is being invoked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AgentRole {
    /// Pre-processing syntax fixer (consumes lint logs).
    SyntaxFixer,
    /// Repair in Mismatch-Signal mode (§III-C segmented extraction).
    MismatchDebugger,
    /// Repair in Suspicious-Line mode (deep localization).
    SuspiciousLineDebugger,
    /// Whole-file repair from spec + code only (GPT-direct baseline).
    WholeCodeReviewer,
    /// Reference-model author (UVM construction phase).
    RefModelWriter,
}

impl AgentRole {
    /// System-prompt preamble for the role.
    pub fn preamble(&self) -> &'static str {
        match self {
            AgentRole::SyntaxFixer => {
                "You are an expert in Verilog verification. Fix the compile \
                 errors reported by the linter without changing behaviour."
            }
            AgentRole::MismatchDebugger => {
                "You are an expert in Verilog verification. The UVM testbench \
                 found output mismatches; repair the functional error."
            }
            AgentRole::SuspiciousLineDebugger => {
                "You are an expert in Verilog verification. Suspicious lines \
                 from dynamic slicing are given; repair the functional error."
            }
            AgentRole::WholeCodeReviewer => {
                "You are an expert in Verilog verification. Review the design \
                 against its specification and output a corrected version."
            }
            AgentRole::RefModelWriter => {
                "You are an expert verification engineer. Write an executable \
                 reference model for the specification below."
            }
        }
    }
}

/// A mismatch record included in MS-mode prompts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MismatchInfo {
    pub time: u64,
    pub signal: String,
    pub expected: String,
    pub actual: String,
    /// Input pin values at the mismatch timestamp (Algorithm 2's `IV`).
    pub input_values: Vec<(String, String)>,
}

/// The error information section of the prompt — the paper's segmented
/// information extraction strategy decides which variant is sent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErrorInfo {
    /// No error context (GPT-direct baseline).
    None,
    /// Rendered linter log (pre-processing stage).
    LintLog(String),
    /// Raw simulation log (MEIC-style baselines).
    RawLog(String),
    /// Mismatch signals with IO values (MS mode).
    MismatchSignals(Vec<MismatchInfo>),
    /// Mismatch signals plus suspicious source lines (SL mode).
    SuspiciousLines { signals: Vec<MismatchInfo>, lines: Vec<(u32, String)> },
}

/// An original → patched snippet pair (the JSON `correct` entries of
/// Fig. 4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairPair {
    pub original: String,
    pub patched: String,
}

/// How the agent must format its repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputMode {
    /// `(original, patched)` pairs — UVLLM's default.
    Pairs,
    /// Regenerate the complete file — the Table III ablation.
    Complete,
}

/// A fully assembled repair prompt.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairPrompt {
    pub role: AgentRole,
    /// Natural-language specification of the DUT.
    pub spec: String,
    /// Current DUT source.
    pub code: String,
    pub error_info: ErrorInfo,
    /// Previously rejected repairs (rollback's "damage repairs").
    pub damage_repairs: Vec<RepairPair>,
    pub output_mode: OutputMode,
}

impl RepairPrompt {
    /// Creates a prompt with no error info or damage repairs.
    pub fn new(role: AgentRole, spec: impl Into<String>, code: impl Into<String>) -> Self {
        RepairPrompt {
            role,
            spec: spec.into(),
            code: code.into(),
            error_info: ErrorInfo::None,
            damage_repairs: Vec::new(),
            output_mode: OutputMode::Pairs,
        }
    }

    /// Builder: attach error information.
    pub fn with_error_info(mut self, info: ErrorInfo) -> Self {
        self.error_info = info;
        self
    }

    /// Builder: attach damage repairs.
    pub fn with_damage_repairs(mut self, repairs: Vec<RepairPair>) -> Self {
        self.damage_repairs = repairs;
        self
    }

    /// Builder: select the output mode.
    pub fn with_output_mode(mut self, mode: OutputMode) -> Self {
        self.output_mode = mode;
        self
    }

    /// Renders the full prompt text sent to the model.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(self.role.preamble());
        out.push_str("\n\n## Specification\n");
        out.push_str(&self.spec);
        out.push_str("\n\n## DUT code\n```verilog\n");
        out.push_str(&self.code);
        out.push_str("```\n");
        match &self.error_info {
            ErrorInfo::None => {}
            ErrorInfo::LintLog(log) => {
                out.push_str("\n## Linter output\n");
                out.push_str(log);
                out.push('\n');
            }
            ErrorInfo::RawLog(log) => {
                out.push_str("\n## Simulation log\n");
                out.push_str(log);
                out.push('\n');
            }
            ErrorInfo::MismatchSignals(ms) => {
                out.push_str("\n## Mismatch signals\n");
                for m in ms {
                    out.push_str(&format!(
                        "- @{} signal '{}' expected {} actual {} (inputs: {})\n",
                        m.time,
                        m.signal,
                        m.expected,
                        m.actual,
                        m.input_values
                            .iter()
                            .map(|(k, v)| format!("{k}={v}"))
                            .collect::<Vec<_>>()
                            .join(" ")
                    ));
                }
            }
            ErrorInfo::SuspiciousLines { signals, lines } => {
                out.push_str("\n## Mismatch signals\n");
                for m in signals {
                    out.push_str(&format!(
                        "- @{} signal '{}' expected {} actual {}\n",
                        m.time, m.signal, m.expected, m.actual
                    ));
                }
                out.push_str("\n## Suspicious lines (dynamic slice)\n");
                for (n, text) in lines {
                    out.push_str(&format!("{n}: {text}\n"));
                }
            }
        }
        if !self.damage_repairs.is_empty() {
            out.push_str("\n## Damage repairs (previously rejected, do NOT repeat)\n");
            for r in &self.damage_repairs {
                out.push_str(&format!("- `{}` -> `{}`\n", r.original, r.patched));
            }
        }
        match self.output_mode {
            OutputMode::Pairs => out.push_str(
                "\n## Repair instructions\nRespond with JSON: {\"module name\": \
                 ..., \"analysis\": ..., \"correct\": [[\"original\", \
                 \"patched\"], ...]} where each pair replaces one code \
                 fragment.\n",
            ),
            OutputMode::Complete => out.push_str(
                "\n## Repair instructions\nRespond with JSON: {\"module name\": \
                 ..., \"analysis\": ..., \"code\": \"<the complete corrected \
                 file>\"}.\n",
            ),
        }
        out
    }
}

impl fmt::Display for RepairPrompt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_all_sections() {
        let p = RepairPrompt::new(AgentRole::MismatchDebugger, "adds numbers", "module x;")
            .with_error_info(ErrorInfo::MismatchSignals(vec![MismatchInfo {
                time: 125,
                signal: "sum".into(),
                expected: "8'h1a".into(),
                actual: "8'h0a".into(),
                input_values: vec![("a".into(), "8'h10".into())],
            }]))
            .with_damage_repairs(vec![RepairPair {
                original: "a - b".into(),
                patched: "a + b".into(),
            }]);
        let text = p.render();
        assert!(text.contains("## Specification"));
        assert!(text.contains("## Mismatch signals"));
        assert!(text.contains("sum"));
        assert!(text.contains("Damage repairs"));
        assert!(text.contains("\"correct\""));
    }

    #[test]
    fn complete_mode_changes_instructions() {
        let p = RepairPrompt::new(AgentRole::WholeCodeReviewer, "spec", "code")
            .with_output_mode(OutputMode::Complete);
        assert!(p.render().contains("complete corrected"));
    }
}
