//! Scripted fix application — the `Replace` step of Algorithm 1.

use crate::diag::LintReport;

/// Applies every scripted fix in `report` to `src`, returning the
/// rewritten source and the number of fixes applied.
///
/// Fixes are applied back-to-front so earlier spans stay valid;
/// overlapping fixes are skipped after the first.
pub fn apply_fixes(src: &str, report: &LintReport) -> (String, usize) {
    let mut fixes: Vec<_> =
        report.fixable_warnings().into_iter().filter_map(|d| d.fix.clone()).collect();
    fixes.sort_by_key(|f| std::cmp::Reverse(f.span.start));
    let mut out = src.to_string();
    let mut applied = 0;
    let mut last_start = usize::MAX;
    for fix in fixes {
        if fix.span.end > out.len() || fix.span.end > last_start {
            continue; // overlap or stale span
        }
        out.replace_range(fix.span.start..fix.span.end, &fix.replacement);
        last_start = fix.span.start;
        applied += 1;
    }
    (out, applied)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::lint;

    #[test]
    fn combdly_fix_round_trip() {
        let src = "module m(input a, input b, output reg y);\n\
                   always @(*) y <= a & b;\nendmodule\n";
        let report = lint(src);
        let (fixed, n) = apply_fixes(src, &report);
        assert_eq!(n, 1);
        assert!(fixed.contains("y = a & b;"), "got:\n{fixed}");
        // Fixed source is clean of fixable warnings.
        assert!(lint(&fixed).fixable_warnings().is_empty());
    }

    #[test]
    fn blkseq_fix_round_trip() {
        let src = "module m(input clk, input d, output reg q);\n\
                   always @(posedge clk) q = d;\nendmodule\n";
        let report = lint(src);
        let (fixed, n) = apply_fixes(src, &report);
        assert_eq!(n, 1);
        assert!(fixed.contains("q <= d;"), "got:\n{fixed}");
        assert!(lint(&fixed).is_clean());
    }

    #[test]
    fn multiple_fixes_applied_back_to_front() {
        let src = "module m(input a, input b, output reg x, output reg y);\n\
                   always @(*) begin\nx <= a;\ny <= b;\nend\nendmodule\n";
        let report = lint(src);
        let (fixed, n) = apply_fixes(src, &report);
        assert_eq!(n, 2);
        assert!(fixed.contains("x = a;"));
        assert!(fixed.contains("y = b;"));
        assert!(lint(&fixed).fixable_warnings().is_empty());
    }

    #[test]
    fn sensitivity_fix_repairs_behaviour() {
        let src = "module m(input a, input b, output reg y);\n\
                   always @(a) y = a & b;\nendmodule\n";
        let report = lint(src);
        let (fixed, n) = apply_fixes(src, &report);
        assert_eq!(n, 1);
        assert!(fixed.contains("always @(*)"), "got:\n{fixed}");
        assert!(lint(&fixed).is_clean());
    }

    #[test]
    fn no_fix_for_error_only_reports() {
        let src = "module m(input a, output y);\nassign y = ghost;\nendmodule\n";
        let report = lint(src);
        let (fixed, n) = apply_fixes(src, &report);
        assert_eq!(n, 0);
        assert_eq!(fixed, src);
    }
}
