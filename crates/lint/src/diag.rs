//! Diagnostic types rendered in Verilator log style.

use std::fmt;
use std::fmt::Write as _;
use uvllm_verilog::span::{LineMap, Span};

/// Severity of a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Severity {
    /// Blocks simulation; must be repaired (by the LLM agent).
    Error,
    /// Style / latent-bug warning; may have a scripted fix template.
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Error => "Error",
            Severity::Warning => "Warning",
        })
    }
}

/// Machine-readable diagnostic codes, mirroring Verilator's taxonomy
/// where an equivalent exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LintCode {
    /// Lex/parse failure.
    Syntax,
    /// Identifier read or written without a declaration.
    Undeclared,
    /// Instantiated module not found in the file.
    UnknownModule,
    /// Named connection to a port the module does not have.
    UnknownPort,
    /// More positional connections than ports.
    PortCount,
    /// Connection width differs from port width.
    PortWidth,
    /// Non-blocking assignment in combinational logic (Verilator
    /// `COMBDLY`); scripted fix: `<=` → `=`.
    CombDly,
    /// Blocking assignment in sequential logic (Verilator `BLKSEQ`);
    /// scripted fix: `=` → `<=`.
    BlkSeq,
    /// Sized literal wider than the assignment target (`WIDTHTRUNC`).
    WidthTrunc,
    /// Level-sensitive block whose sensitivity list misses read signals.
    MissingSens,
    /// `case` without `default` that does not cover the selector space.
    CaseIncomplete,
    /// Output port that is never driven.
    Undriven,
    /// Signal written by more than one continuous driver.
    MultiDriven,
    /// Signal assigned on some but not all paths of combinational logic.
    Latch,
    /// Declared but never read.
    Unused,
    /// Procedural assignment to a net (must be declared `reg`).
    ProcWire,
}

impl LintCode {
    /// Verilator-style tag (used in rendered messages).
    pub fn tag(&self) -> &'static str {
        match self {
            LintCode::Syntax => "SYNTAX",
            LintCode::Undeclared => "UNDECLARED",
            LintCode::UnknownModule => "MODMISSING",
            LintCode::UnknownPort => "PINNOTFOUND",
            LintCode::PortCount => "PINMISSING",
            LintCode::PortWidth => "WIDTH",
            LintCode::CombDly => "COMBDLY",
            LintCode::BlkSeq => "BLKSEQ",
            LintCode::WidthTrunc => "WIDTHTRUNC",
            LintCode::MissingSens => "SYNCASYNCNET",
            LintCode::CaseIncomplete => "CASEINCOMPLETE",
            LintCode::Undriven => "UNDRIVEN",
            LintCode::MultiDriven => "MULTIDRIVEN",
            LintCode::Latch => "LATCH",
            LintCode::Unused => "UNUSEDSIGNAL",
            LintCode::ProcWire => "PROCASSWIRE",
        }
    }
}

/// A scripted textual fix: replace `span` with `replacement`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextFix {
    pub span: Span,
    pub replacement: String,
}

/// One linter finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    pub severity: Severity,
    pub code: LintCode,
    pub message: String,
    pub span: Span,
    /// Template fix applied by the pre-processing scripts, when one is
    /// known (Algorithm 1's `Replace` step).
    pub fix: Option<TextFix>,
}

impl Diagnostic {
    /// Creates an error diagnostic.
    pub fn error(code: LintCode, span: Span, message: impl Into<String>) -> Self {
        Diagnostic { severity: Severity::Error, code, message: message.into(), span, fix: None }
    }

    /// Creates a warning diagnostic.
    pub fn warning(code: LintCode, span: Span, message: impl Into<String>) -> Self {
        Diagnostic { severity: Severity::Warning, code, message: message.into(), span, fix: None }
    }

    /// Attaches a scripted fix.
    pub fn with_fix(mut self, span: Span, replacement: impl Into<String>) -> Self {
        self.fix = Some(TextFix { span, replacement: replacement.into() });
        self
    }

    /// Renders in Verilator log style against `src`:
    /// `%Warning-COMBDLY: dut.v:12:5: message`.
    pub fn render(&self, src: &str) -> String {
        let mut out = String::new();
        self.render_into(&LineMap::new(src), &mut out);
        out
    }

    /// [`Diagnostic::render`] against the line map of `src`, appended to
    /// `out`.
    fn render_into(&self, map: &LineMap, out: &mut String) {
        let (line, col) = map.line_col(self.span.start);
        let (severity, tag) = (self.severity, self.code.tag());
        let _ = write!(out, "%{severity}-{tag}: dut.v:{line}:{col}: {}", self.message);
    }

    /// 1-based source line of the finding.
    pub fn line(&self, src: &str) -> u32 {
        LineMap::new(src).line(self.span.start)
    }
}

/// The result of linting one source file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LintReport {
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// All error-severity findings.
    pub fn errors(&self) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error).collect()
    }

    /// All warning-severity findings.
    pub fn warnings(&self) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Warning).collect()
    }

    /// Warnings that carry a scripted fix template — the subset the
    /// pre-processing stage repairs without an LLM.
    pub fn fixable_warnings(&self) -> Vec<&Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning && d.fix.is_some())
            .collect()
    }

    /// True when the file has no errors and no fixable warnings — the
    /// Algorithm 1 loop exit condition.
    pub fn is_clean(&self) -> bool {
        self.errors().is_empty() && self.fixable_warnings().is_empty()
    }

    /// Renders the full report as a compiler log.
    pub fn render(&self, src: &str) -> String {
        let map = LineMap::new(src);
        let mut out = String::new();
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            d.render_into(&map, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_format() {
        let src = "module m;\nwire w;\nendmodule\n";
        let d = Diagnostic::warning(LintCode::Unused, Span::new(10, 16), "signal 'w' unused");
        let s = d.render(src);
        assert!(s.starts_with("%Warning-UNUSEDSIGNAL: dut.v:2:1"), "got {s}");
    }

    #[test]
    fn report_partitions() {
        let mut r = LintReport::default();
        r.diagnostics.push(Diagnostic::error(LintCode::Syntax, Span::point(0), "boom"));
        r.diagnostics.push(
            Diagnostic::warning(LintCode::CombDly, Span::new(1, 3), "nb in comb")
                .with_fix(Span::new(1, 3), "="),
        );
        r.diagnostics.push(Diagnostic::warning(LintCode::Unused, Span::point(5), "unused"));
        assert_eq!(r.errors().len(), 1);
        assert_eq!(r.warnings().len(), 2);
        assert_eq!(r.fixable_warnings().len(), 1);
        assert!(!r.is_clean());
    }
}
