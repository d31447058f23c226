//! Calibration tables for the oracle backend.
//!
//! The probabilities below are the per-call success rates of the
//! simulated GPT-4-turbo, chosen so that the *pipeline-level* fix rates
//! reproduce the shape of the paper's evaluation (Figures 5–7,
//! Tables II–III); the README's "Paper tables" shows the measured
//! outcomes, pinned in `tests/golden/paper_artefacts.txt`. They
//! encode two robust qualitative findings from the LLM-debugging
//! literature that the paper leans on:
//!
//! 1. richer error context → higher fix rate (lint log < raw sim log <
//!    mismatch signals < suspicious lines), and
//! 2. syntax errors are substantially easier than functional ones.

use crate::prompt::ErrorInfo;
use uvllm_errgen::ErrorKind;

/// The information mode the pipeline supplied to the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InfoMode {
    /// Specification and code only (GPT-direct baseline).
    SpecOnly,
    /// Linter log (pre-processing stage).
    Lint,
    /// Raw simulation log (MEIC-style iteration).
    RawLog,
    /// Extracted mismatch signals with IO values (MS mode).
    Ms,
    /// Mismatch signals plus dynamic-slice suspicious lines (SL mode).
    Sl,
}

impl InfoMode {
    /// Classifies a prompt's error-info section.
    pub fn of(info: &ErrorInfo) -> InfoMode {
        match info {
            ErrorInfo::None => InfoMode::SpecOnly,
            ErrorInfo::LintLog(_) => InfoMode::Lint,
            ErrorInfo::RawLog(_) => InfoMode::RawLog,
            ErrorInfo::MismatchSignals(_) => InfoMode::Ms,
            ErrorInfo::SuspiciousLines { .. } => InfoMode::Sl,
        }
    }
}

/// A named per-call success-probability profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelProfile {
    /// GPT-4-turbo driven by UVLLM's segmented information extraction.
    Gpt4Turbo,
    /// The same model behind a weaker harness (MEIC / direct prompting):
    /// identical pair, but it only ever sees low-density information.
    Gpt4TurboWeakHarness,
}

impl ModelProfile {
    /// Per-call probability that the model emits the *true* fix for an
    /// error of `kind` given `mode` information.
    pub fn success_prob(&self, kind: ErrorKind, mode: InfoMode) -> f64 {
        let base = base_prob(kind, mode);
        match self {
            ModelProfile::Gpt4Turbo => base,
            // The weak harness does not change the model, only the
            // information it receives; the mode already captures that.
            ModelProfile::Gpt4TurboWeakHarness => base,
        }
    }

    /// Multiplier applied in complete-code output mode (Table III):
    /// regeneration is slightly less reliable for localized errors but
    /// handles context-dependent ones (missing port definitions) better.
    pub fn complete_mode_factor(&self, kind: ErrorKind) -> f64 {
        match kind {
            // Whole-file regeneration shines on structural omissions.
            ErrorKind::MissingEnd | ErrorKind::UnbalancedBlock => 1.05,
            _ => 0.78,
        }
    }

    /// Extra multiplier when the suspicious-line slice actually contains
    /// the faulty line (information quality bonus).
    pub fn sl_hit_factor(&self) -> f64 {
        1.5
    }
}

fn base_prob(kind: ErrorKind, mode: InfoMode) -> f64 {
    use ErrorKind::*;
    use InfoMode::*;
    match (kind, mode) {
        // ---- syntax errors -------------------------------------------
        // Lint logs carry exact line/column; LLMs repair these well.
        (MissingSemicolon, Lint) => 0.62,
        (MissingEnd, Lint) => 0.42,
        (UnbalancedBlock, Lint) => 0.38,
        (OperatorTypo, Lint) => 0.55,
        (KeywordTypo, Lint) => 0.60,
        (MalformedLiteral, Lint) => 0.50,
        // Raw compiler output without extraction (MEIC-style).
        (MissingSemicolon, RawLog) => 0.44,
        (MissingEnd, RawLog) => 0.26,
        (UnbalancedBlock, RawLog) => 0.22,
        (OperatorTypo, RawLog) => 0.37,
        (KeywordTypo, RawLog) => 0.42,
        (MalformedLiteral, RawLog) => 0.32,
        // Spec+code only: the model must spot the break unaided.
        (k, SpecOnly) if k.is_syntax() => 0.30,
        // Syntax errors surfacing in MS/SL mode (post-repair breakage)
        // still come with a lint log attached.
        (k, Ms | Sl) if k.is_syntax() => 0.45,

        // ---- functional errors ---------------------------------------
        // Declaration type misuse is visible to the linter.
        (DeclTypeMisuse, Lint) => 0.55,
        (DeclTypeMisuse, Ms) => 0.40,
        (DeclTypeMisuse, Sl) => 0.48,
        (BitwidthMisuse, Ms) => 0.34,
        (BitwidthMisuse, Sl) => 0.44,
        (OperatorMisuse, Ms) => 0.38,
        (OperatorMisuse, Sl) => 0.48,
        (VariableMisuse, Ms) => 0.30,
        (VariableMisuse, Sl) => 0.42,
        (ValueMisuse, Ms) => 0.38,
        (ValueMisuse, Sl) => 0.46,
        (WrongJudgment, Ms) => 0.30,
        (WrongJudgment, Sl) => 0.40,
        (WrongSensitivity, Ms) => 0.26,
        (WrongSensitivity, Sl) => 0.34,
        (WrongSensitivity, Lint) => 0.45,
        (PortMismatch, Ms) => 0.24,
        (PortMismatch, Sl) => 0.34,
        // Functional errors with thin information.
        (_, RawLog) => 0.20,
        (_, SpecOnly) => 0.11,
        (_, Lint) => 0.12,
        // Unreachable fallthrough (all Ms/Sl functional cases listed).
        (_, Ms) => 0.25,
        (_, Sl) => 0.32,
    }
}

/// Probability that an instance of `kind` is *out of distribution* for
/// the model when given rich, extracted information (lint logs, mismatch
/// signals, suspicious lines). Retrying a hard instance barely helps —
/// real LLM failures are strongly correlated across attempts — so these
/// asymptotes, not the per-call probabilities, set the final fix rates.
pub fn hardness_rich(kind: ErrorKind) -> f64 {
    use ErrorKind::*;
    match kind {
        MissingSemicolon => 0.04,
        KeywordTypo => 0.07,
        OperatorTypo => 0.12,
        MalformedLiteral => 0.12,
        MissingEnd => 0.17,
        UnbalancedBlock => 0.22,
        DeclTypeMisuse => 0.14,
        OperatorMisuse => 0.18,
        ValueMisuse => 0.20,
        BitwidthMisuse => 0.25,
        WrongJudgment => 0.26,
        VariableMisuse => 0.28,
        WrongSensitivity => 0.31,
        PortMismatch => 0.33,
    }
}

/// Hardness under low-density information (raw logs / spec only): a
/// superset of the rich-information hard set.
pub fn hardness_poor(kind: ErrorKind) -> f64 {
    let rich = hardness_rich(kind);
    if kind.is_syntax() {
        (rich * 1.6 + 0.12).min(0.95)
    } else {
        (rich * 1.0 + 0.18).min(0.95)
    }
}

/// Extra hardness for larger designs (long code dilutes attention); the
/// paper's Fig. 7 shows exactly this module-complexity effect.
pub fn complexity_bonus(source_len: usize) -> f64 {
    ((source_len as f64 - 400.0) / 6000.0).clamp(0.0, 0.22)
}

/// How a failed attempt manifests (drawn by the oracle on failure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureMode {
    /// Patches an unrelated line, potentially damaging the design —
    /// exercises the rollback mechanism.
    WrongSite,
    /// Edits the right line but with a wrong value — the classic
    /// overfit-shaped failure that weak testbenches may accept.
    OverfitPerturb,
    /// Emits a pair whose `original` does not occur in the code
    /// (hallucinated context); the patch fails to apply.
    Unmatchable,
    /// Emits a patch that breaks the syntax; the pre-processor must
    /// recover on the next iteration.
    SyntaxBreak,
}

impl FailureMode {
    /// Cumulative-weight table used by the oracle's draw.
    pub const WEIGHTED: [(FailureMode, f64); 4] = [
        (FailureMode::WrongSite, 0.35),
        (FailureMode::OverfitPerturb, 0.30),
        (FailureMode::Unmatchable, 0.20),
        (FailureMode::SyntaxBreak, 0.15),
    ];

    /// Draws a failure mode from a uniform sample in `[0, 1)`.
    pub fn draw(u: f64) -> FailureMode {
        let mut acc = 0.0;
        for (mode, w) in Self::WEIGHTED {
            acc += w;
            if u < acc {
                return mode;
            }
        }
        FailureMode::SyntaxBreak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn information_quality_ordering_holds() {
        // For functional kinds: SpecOnly <= RawLog <= Ms <= Sl.
        for kind in ErrorKind::ALL.into_iter().filter(|k| !k.is_syntax()) {
            let p = ModelProfile::Gpt4Turbo;
            let spec = p.success_prob(kind, InfoMode::SpecOnly);
            let raw = p.success_prob(kind, InfoMode::RawLog);
            let ms = p.success_prob(kind, InfoMode::Ms);
            let sl = p.success_prob(kind, InfoMode::Sl);
            assert!(spec <= raw + 1e-9, "{kind}");
            assert!(raw <= ms + 1e-9, "{kind}");
            assert!(ms <= sl + 1e-9, "{kind}");
        }
    }

    #[test]
    fn syntax_easier_than_functional() {
        let p = ModelProfile::Gpt4Turbo;
        let avg = |syntax: bool, mode: InfoMode| {
            let kinds: Vec<_> =
                ErrorKind::ALL.into_iter().filter(|k| k.is_syntax() == syntax).collect();
            kinds.iter().map(|k| p.success_prob(*k, mode)).sum::<f64>() / kinds.len() as f64
        };
        let syn = avg(true, InfoMode::Lint);
        let func = avg(false, InfoMode::Ms);
        assert!(syn > func);
    }

    #[test]
    fn probabilities_are_valid() {
        for kind in ErrorKind::ALL {
            for mode in
                [InfoMode::SpecOnly, InfoMode::Lint, InfoMode::RawLog, InfoMode::Ms, InfoMode::Sl]
            {
                let p = ModelProfile::Gpt4Turbo.success_prob(kind, mode);
                assert!((0.0..=1.0).contains(&p), "{kind} {mode:?}: {p}");
            }
        }
    }

    #[test]
    fn failure_mode_draw_covers_space() {
        assert_eq!(FailureMode::draw(0.0), FailureMode::WrongSite);
        assert_eq!(FailureMode::draw(0.34), FailureMode::WrongSite);
        assert_eq!(FailureMode::draw(0.5), FailureMode::OverfitPerturb);
        assert_eq!(FailureMode::draw(0.75), FailureMode::Unmatchable);
        assert_eq!(FailureMode::draw(0.99), FailureMode::SyntaxBreak);
    }

    #[test]
    fn info_mode_classification() {
        assert_eq!(InfoMode::of(&ErrorInfo::None), InfoMode::SpecOnly);
        assert_eq!(InfoMode::of(&ErrorInfo::LintLog(String::new())), InfoMode::Lint);
        assert_eq!(
            InfoMode::of(&ErrorInfo::SuspiciousLines { signals: vec![], lines: vec![] }),
            InfoMode::Sl
        );
    }

    #[test]
    fn complete_mode_factor_shape() {
        let p = ModelProfile::Gpt4Turbo;
        assert!(p.complete_mode_factor(ErrorKind::ValueMisuse) < 1.0);
        assert!(p.complete_mode_factor(ErrorKind::MissingEnd) > 1.0);
    }
}
