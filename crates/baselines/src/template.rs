//! Script-based baselines: Strider-style signal-guided template repair
//! and RTLrepair-style template search.
//!
//! Both are genuinely algorithmic (no LLM, no ground truth): they
//! enumerate small mutation templates and accept the first candidate
//! that passes the public directed testbench — which is precisely why
//! their Hit Rates outrun their Fix Rates in Fig. 6.

use crate::method::{MethodOutcome, RepairMethod};
use uvllm::metrics::hit_confirmed;
use uvllm::stages::{directed_stage, UvmOutcome};
use uvllm::StageMemo;
use uvllm_designs::Design;
use uvllm_dfg::Dfg;
use uvllm_llm::Usage;
use uvllm_sim::SimBackend;
use uvllm_verilog::span::Span;
use uvllm_verilog::token::{Token, TokenKind};
use uvllm_verilog::SourceFile;

/// One candidate textual edit.
#[derive(Debug, Clone)]
struct Candidate {
    span: Span,
    replacement: String,
}

/// Generates operator-flip and literal-perturbation candidates from the
/// `tokens` of `src` inside the given byte regions (or everywhere when
/// `regions` is `None`).
fn template_candidates(src: &str, tokens: &[Token], regions: Option<&[Span]>) -> Vec<Candidate> {
    let in_region = |t: &Token| match regions {
        None => true,
        Some(rs) => rs.iter().any(|r| t.span().start >= r.start && t.span().end <= r.end),
    };
    let mut out = Vec::new();
    for t in tokens.iter().filter(|t| in_region(t)) {
        match t.kind {
            TokenKind::Plus => out.push(Candidate { span: t.span(), replacement: "-".into() }),
            TokenKind::Minus => out.push(Candidate { span: t.span(), replacement: "+".into() }),
            TokenKind::Amp => out.push(Candidate { span: t.span(), replacement: "|".into() }),
            TokenKind::Pipe => out.push(Candidate { span: t.span(), replacement: "&".into() }),
            TokenKind::Caret => out.push(Candidate { span: t.span(), replacement: "~^".into() }),
            TokenKind::Shl => out.push(Candidate { span: t.span(), replacement: ">>".into() }),
            TokenKind::Shr => out.push(Candidate { span: t.span(), replacement: "<<".into() }),
            TokenKind::Lt => out.push(Candidate { span: t.span(), replacement: "<=".into() }),
            TokenKind::Gt => out.push(Candidate { span: t.span(), replacement: ">=".into() }),
            TokenKind::EqEq => out.push(Candidate { span: t.span(), replacement: "!=".into() }),
            TokenKind::NotEq => out.push(Candidate { span: t.span(), replacement: "==".into() }),
            TokenKind::Number
                if t.number(src)
                    .is_some_and(|n| n.digit_chars(src).all(|c| c.is_ascii_hexdigit())) =>
            {
                let text = t.span().text(src);
                for delta in [1i64, -1] {
                    if let Some(rep) = shift_literal(text, delta) {
                        out.push(Candidate { span: t.span(), replacement: rep });
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// Rewrites a literal with its value shifted by `delta`, preserving the
/// width/base prefix.
fn shift_literal(text: &str, delta: i64) -> Option<String> {
    if let Some(apos) = text.find('\'') {
        let head = &text[..apos + 2]; // includes base letter
        let digits = &text[apos + 2..];
        let radix = match text.as_bytes().get(apos + 1)?.to_ascii_lowercase() {
            b'h' => 16,
            b'b' => 2,
            b'o' => 8,
            b'd' => 10,
            _ => return None,
        };
        let v = i64::from_str_radix(&digits.replace('_', ""), radix).ok()?;
        let nv = v.checked_add(delta)?;
        if nv < 0 {
            return None;
        }
        let rendered = match radix {
            16 => format!("{nv:x}"),
            2 => format!("{nv:b}"),
            8 => format!("{nv:o}"),
            _ => format!("{nv}"),
        };
        Some(format!("{head}{rendered}"))
    } else {
        let v: i64 = text.parse().ok()?;
        let nv = v.checked_add(delta)?;
        if nv < 0 {
            return None;
        }
        Some(format!("{nv}"))
    }
}

/// Bitwidth templates: widen/narrow declared ranges by one bit.
fn bitwidth_candidates(file: &SourceFile) -> Vec<Candidate> {
    let mut out = Vec::new();
    let mut push = |r: &uvllm_verilog::ast::Range| {
        use uvllm_verilog::ast::Expr;
        let (Expr::Number(m), Expr::Number(l)) = (&r.msb, &r.lsb) else { return };
        for delta in [1i64, -1] {
            let nm = m.value as i64 + delta;
            if nm > l.value as i64 && nm < 128 {
                out.push(Candidate { span: r.span, replacement: format!("[{nm}:{}]", l.value) });
            }
        }
    };
    for module in &file.modules {
        for p in &module.ports {
            if let Some(r) = &p.range {
                push(r);
            }
        }
        for item in &module.items {
            if let uvllm_verilog::ast::Item::Net(d) = item {
                if let Some(r) = &d.range {
                    push(r);
                }
            }
        }
    }
    out
}

fn apply(src: &str, c: &Candidate) -> String {
    let mut s = src.to_string();
    s.replace_range(c.span.start..c.span.end, &c.replacement);
    s
}

/// The outcome for an input a template method does not take on.
fn unrepaired(src: &str) -> MethodOutcome {
    MethodOutcome {
        final_code: src.to_string(),
        claimed_success: false,
        iterations: 0,
        usage: Usage::default(),
    }
}

/// Shared search driver for the two template methods. `src_passes`:
/// the untouched `src` already passes the public tests.
fn template_search(
    design: &Design,
    src: &str,
    src_passes: bool,
    candidates: Vec<Candidate>,
    budget: usize,
    memo: &StageMemo,
) -> MethodOutcome {
    let mut iterations = 0;
    // Unrepaired code that already passes: accept as-is (the escape
    // hatch the paper criticises).
    if src_passes {
        return MethodOutcome {
            final_code: src.to_string(),
            claimed_success: true,
            iterations: 0,
            usage: Usage::default(),
        };
    }
    for c in candidates.into_iter().take(budget) {
        iterations += 1;
        let candidate = apply(src, &c);
        if candidate == src {
            continue;
        }
        if hit_confirmed(design, &candidate, memo) {
            return MethodOutcome {
                final_code: candidate,
                claimed_success: true,
                iterations,
                usage: Usage::default(),
            };
        }
    }
    MethodOutcome {
        final_code: src.to_string(),
        claimed_success: false,
        iterations,
        usage: Usage::default(),
    }
}

/// Strider-style repair: signal-value-transition-guided defect repair.
/// Mismatching output signals (from the public run) select suspicious
/// statements via the DFG; templates are tried there first.
#[derive(Debug, Default)]
pub struct StriderRepair<'m> {
    /// Candidate budget per instance.
    pub budget: usize,
    memo: Option<&'m StageMemo>,
}

impl<'m> StriderRepair<'m> {
    /// Default configuration (300-candidate budget).
    pub fn new() -> Self {
        StriderRepair { budget: 300, memo: None }
    }

    /// Benchmark compatibility; goes with the next `benchmark` PR.
    #[doc(hidden)]
    pub fn with_backend(self, _backend: SimBackend) -> Self {
        self
    }

    /// Asks `memo` (a campaign passes its dataset's) instead of a memo
    /// of each repair's own.
    pub fn with_memo(mut self, memo: &'m StageMemo) -> Self {
        self.memo = Some(memo);
        self
    }
}

impl RepairMethod for StriderRepair<'_> {
    fn name(&self) -> &str {
        "Strider"
    }

    fn repair(&mut self, design: &Design, src: &str) -> MethodOutcome {
        // Functional-only method: syntax-broken inputs are returned
        // unrepaired (the paper evaluates Strider on functional errors).
        let own_memo = StageMemo::new();
        let memo = self.memo.unwrap_or(&own_memo);
        let Ok((file, tokens)) = memo.parse(design.name, src) else { return unrepaired(src) };
        // Localize: which outputs mismatch on the public tests?
        let public_run = directed_stage(src, design, memo);
        let src_passes = matches!(&public_run, UvmOutcome::Ran(run) if run.all_passed());
        let mismatch_signals: Vec<&str> = match &public_run {
            UvmOutcome::Ran(run) => {
                let mut s: Vec<&str> = run.mismatches.iter().map(|m| &*m.signal).collect();
                s.sort();
                s.dedup();
                s
            }
            UvmOutcome::BuildFailed(_) => Vec::new(),
        };
        let regions: Option<Vec<Span>> = file.module(design.name).map(|module| {
            let dfg = Dfg::build(module);
            let mut spans: Vec<Span> = Vec::new();
            for sig in &mismatch_signals {
                let slice = dfg.static_slice(sig);
                spans.extend(slice.sites.iter().map(|i| dfg.sites[*i].span));
            }
            spans
        });
        let regions = regions.filter(|r| !r.is_empty());
        let mut candidates = template_candidates(src, &tokens, regions.as_deref());
        // Fall back to a global search when localization found nothing.
        if candidates.is_empty() {
            candidates = template_candidates(src, &tokens, None);
        }
        template_search(design, src, src_passes, candidates, self.budget, memo)
    }
}

/// RTLrepair-style repair: a global template search over operator,
/// constant and declaration-width changes (its strength on "incorrect
/// bitwidth" in Fig. 6 comes from the width templates).
#[derive(Debug, Default)]
pub struct RtlRepair<'m> {
    /// Candidate budget per instance.
    pub budget: usize,
    memo: Option<&'m StageMemo>,
}

impl<'m> RtlRepair<'m> {
    /// Default configuration (400-candidate budget).
    pub fn new() -> Self {
        RtlRepair { budget: 400, memo: None }
    }

    /// Benchmark compatibility; goes with the next `benchmark` PR.
    #[doc(hidden)]
    pub fn with_backend(self, _backend: SimBackend) -> Self {
        self
    }

    /// Asks `memo` (a campaign passes its dataset's) instead of a memo
    /// of each repair's own.
    pub fn with_memo(mut self, memo: &'m StageMemo) -> Self {
        self.memo = Some(memo);
        self
    }
}

impl RepairMethod for RtlRepair<'_> {
    fn name(&self) -> &str {
        "RTLrepair"
    }

    fn repair(&mut self, design: &Design, src: &str) -> MethodOutcome {
        let own_memo = StageMemo::new();
        let memo = self.memo.unwrap_or(&own_memo);
        let Ok((file, tokens)) = memo.parse(design.name, src) else { return unrepaired(src) };
        // Width templates first (the method's signature strength), then
        // the generic operator/constant space.
        let mut candidates = bitwidth_candidates(&file);
        candidates.extend(template_candidates(src, &tokens, None));
        let src_passes = hit_confirmed(design, src, memo);
        template_search(design, src, src_passes, candidates, self.budget, memo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvllm::metrics::fix_confirmed;
    use uvllm_designs::by_name;

    #[test]
    fn strider_fixes_a_value_error_it_can_see() {
        let d = by_name("counter_12").unwrap();
        // Wrap constant off by two — the directed vectors do not reach
        // the wrap, so the bug is invisible to Strider's own tests: it
        // accepts the code unrepaired (claimed success, FR fail).
        let buggy = d.source.replace("== 4'd11", "== 4'd13");
        let mut strider = StriderRepair::new();
        let out = strider.repair(d, &buggy);
        assert!(out.claimed_success);
        assert!(hit_confirmed(d, &out.final_code, &StageMemo::new()));
        assert!(!fix_confirmed(d, &out.final_code, &StageMemo::new()), "overfit accepted");
    }

    #[test]
    fn strider_repairs_visible_operator_bug() {
        let d = by_name("alu_8bit").unwrap();
        // `a + b` -> `a - b` in the op-0 arm; the directed vectors DO
        // exercise op 0, so Strider sees the failure and its operator
        // template genuinely repairs it.
        let buggy = d.source.replace("3'd0: y = a + b;", "3'd0: y = a - b;");
        assert_ne!(buggy, d.source);
        let mut strider = StriderRepair::new();
        let out = strider.repair(d, &buggy);
        assert!(out.claimed_success, "template should find the fix");
        assert!(hit_confirmed(d, &out.final_code, &StageMemo::new()));
        assert!(fix_confirmed(d, &out.final_code, &StageMemo::new()), "this one is a true fix");
    }

    #[test]
    fn rtlrepair_width_template_repairs_shrunk_range() {
        let d = by_name("adder_8bit").unwrap();
        // Narrow the sum port: visible even on the weak vectors?
        // 10+20=30 fits in 7 bits, but 100+27=127 fits too — use the
        // mutated *internal* width of sum [6:0]: 127 still fits! The
        // cin vector gives 7+8+1=16. All weak vectors fit 7 bits, so the
        // weak tests cannot see it... unless the X-padding differs: a
        // [6:0] sum leaves bit 7 undriven in an 8-bit read -> mismatch.
        let buggy = d.source.replace("output [7:0] sum", "output [6:0] sum");
        assert_ne!(buggy, d.source);
        let mut rtl = RtlRepair::new();
        let out = rtl.repair(d, &buggy);
        if out.claimed_success {
            assert!(hit_confirmed(d, &out.final_code, &StageMemo::new()));
        }
    }

    #[test]
    fn methods_give_up_on_syntax_errors() {
        let d = by_name("mux4").unwrap();
        let broken = d.source.replace(';', "");
        let mut strider = StriderRepair::new();
        assert!(!strider.repair(d, &broken).claimed_success);
        let mut rtl = RtlRepair::new();
        assert!(!rtl.repair(d, &broken).claimed_success);
    }

    #[test]
    fn literal_shift_forms() {
        assert_eq!(shift_literal("4'd11", 1).as_deref(), Some("4'd12"));
        assert_eq!(shift_literal("4'd11", -1).as_deref(), Some("4'd10"));
        assert_eq!(shift_literal("8'hff", 1).as_deref(), Some("8'h100"));
        assert_eq!(shift_literal("8'd0", -1), None);
        assert_eq!(shift_literal("5", 1).as_deref(), Some("6"));
    }
}
