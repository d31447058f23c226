//! Campaign-level aggregation: the Table II / Fig. 5–7 rollups computed
//! over [`EvalRow`]s (so they work identically for fresh runs and
//! resumed JSONL files).

use crate::eval::{EvalRow, MethodKind};
use std::borrow::Borrow;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Aggregated view over a set of result rows — owned (`EvalRow`, the
/// default) or borrowed (`&EvalRow`, for a holder that renders a report
/// over rows it keeps, like the service's live aggregator).
#[derive(Debug, Clone, Default)]
pub struct CampaignReport<R = EvalRow> {
    rows: Vec<R>,
}

/// `100 * num / den` with an empty-set guard.
pub fn percent(num: usize, den: usize) -> f64 {
    if den == 0 {
        f64::NAN
    } else {
        num as f64 / den as f64 * 100.0
    }
}

/// Formats a percentage cell (NaN → `x`, the paper's "not applicable").
pub fn pct_cell(v: f64) -> String {
    if v.is_nan() {
        "x".to_string()
    } else {
        format!("{v:.1}")
    }
}

impl<R: Borrow<EvalRow>> CampaignReport<R> {
    /// Builds a report over `rows`.
    pub fn new(rows: Vec<R>) -> Self {
        CampaignReport { rows }
    }

    /// The underlying rows.
    pub fn rows(&self) -> &[R] {
        &self.rows
    }

    fn iter(&self) -> impl Iterator<Item = &EvalRow> {
        self.rows.iter().map(Borrow::borrow)
    }

    /// Method labels present: the known ones in table order
    /// ([`MethodKind::ALL`]), then any other label in label order.
    /// The report is a function of the row set, not of row order.
    pub fn methods(&self) -> Vec<String> {
        let labels: BTreeSet<&String> = self.iter().map(|row| &row.method).collect();
        let mut labels: Vec<String> = labels.into_iter().cloned().collect();
        let rank = |label: &String| MethodKind::ALL.iter().position(|m| m.label() == label);
        // Stable: labels of equal rank (the unknown ones) stay sorted.
        labels.sort_by_key(|label| rank(label).unwrap_or(MethodKind::ALL.len()));
        labels
    }

    /// Fix rate (%) over rows matching `filter`.
    pub fn fr(&self, filter: impl Fn(&EvalRow) -> bool) -> f64 {
        let selected: Vec<&EvalRow> = self.iter().filter(|r| filter(r)).collect();
        percent(selected.iter().filter(|r| r.fixed).count(), selected.len())
    }

    /// Hit rate (%) over rows matching `filter`.
    pub fn hr(&self, filter: impl Fn(&EvalRow) -> bool) -> f64 {
        let selected: Vec<&EvalRow> = self.iter().filter(|r| filter(r)).collect();
        percent(selected.iter().filter(|r| r.hit).count(), selected.len())
    }

    /// Mean simulated execution time (seconds) over rows matching
    /// `filter`, summed in whole milliseconds so row order cannot move
    /// a rounding.
    pub fn mean_sim_secs(&self, filter: impl Fn(&EvalRow) -> bool) -> f64 {
        let selected: Vec<&EvalRow> = self.iter().filter(|r| filter(r)).collect();
        if selected.is_empty() {
            return f64::NAN;
        }
        selected.iter().map(|r| r.sim_latency_ms).sum::<u64>() as f64
            / 1000.0
            / selected.len() as f64
    }

    /// Renders every rollup as aligned ASCII tables.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "campaign rows: {}", self.rows.len());

        // ---- Per-method summary (Fig. 5/6 aggregate + cost) ---------
        let mut summary = AsciiTable::new(&[
            "Method",
            "Jobs",
            "HR/%",
            "FR/%",
            "Claimed/%",
            "SimT/s",
            "LLM calls",
        ]);
        for method in self.methods() {
            let of_method = |r: &&EvalRow| r.method == method;
            let rows: Vec<&EvalRow> = self.iter().filter(of_method).collect();
            summary.row(vec![
                method.clone(),
                rows.len().to_string(),
                pct_cell(self.hr(|r| r.method == method)),
                pct_cell(self.fr(|r| r.method == method)),
                pct_cell(percent(rows.iter().filter(|r| r.claimed).count(), rows.len())),
                format!("{:.2}", self.mean_sim_secs(|r| r.method == method)),
                rows.iter().map(|r| r.llm_calls).sum::<u64>().to_string(),
            ]);
        }
        out.push_str("\n== Per-method summary ==\n");
        out.push_str(&summary.render());

        // ---- Syntax vs functional split (Fig. 5 / Fig. 6) -----------
        let mut split = AsciiTable::new(&["Method", "Syn HR", "Syn FR", "Fun HR", "Fun FR"]);
        for method in self.methods() {
            split.row(vec![
                method.clone(),
                pct_cell(self.hr(|r| r.method == method && r.syntax)),
                pct_cell(self.fr(|r| r.method == method && r.syntax)),
                pct_cell(self.hr(|r| r.method == method && !r.syntax)),
                pct_cell(self.fr(|r| r.method == method && !r.syntax)),
            ]);
        }
        out.push_str("\n== Syntax vs functional (Fig. 5/6) ==\n");
        out.push_str(&split.render());

        // ---- Per-category FR (figure x-axes) ------------------------
        let categories: BTreeSet<&String> = self.iter().map(|r| &r.category).collect();
        let mut cat = AsciiTable::new(&["Category", "Rows", "FR/%", "HR/%"]);
        for category in categories {
            let n = self.iter().filter(|r| &r.category == category).count();
            cat.row(vec![
                category.clone(),
                n.to_string(),
                pct_cell(self.fr(|r| &r.category == category)),
                pct_cell(self.hr(|r| &r.category == category)),
            ]);
        }
        out.push_str("\n== Per-category (all methods) ==\n");
        out.push_str(&cat.render());

        // ---- Per-design FR heat map (Fig. 7) ------------------------
        let designs: BTreeSet<&String> = self.iter().map(|r| &r.design).collect();
        let methods = self.methods();
        let mut heat_header: Vec<&str> = vec!["Design"];
        for m in &methods {
            heat_header.push(m);
        }
        let mut heat = AsciiTable::new(&heat_header);
        for design in designs {
            let mut cells = vec![design.clone()];
            for method in &methods {
                cells.push(pct_cell(self.fr(|r| &r.design == design && &r.method == method)));
            }
            heat.row(cells);
        }
        out.push_str("\n== Per-design FR heat map (Fig. 7) ==\n");
        out.push_str(&heat.render());

        // ---- Stage attribution (Table II) ---------------------------
        let stages: BTreeSet<&String> = self.iter().filter_map(|r| r.fixed_by.as_ref()).collect();
        if !stages.is_empty() {
            let mut table = AsciiTable::new(&["Stage", "Fixes", "Share/%"]);
            let fixed_total = self.iter().filter(|r| r.fixed_by.is_some()).count();
            for stage in stages {
                let n = self.iter().filter(|r| r.fixed_by.as_ref() == Some(stage)).count();
                table.row(vec![stage.clone(), n.to_string(), pct_cell(percent(n, fixed_total))]);
            }
            out.push_str("\n== Stage attribution (Table II) ==\n");
            out.push_str(&table.render());
        }
        out
    }
}

/// A minimal right-aligned ASCII table (first column left-aligned).
#[derive(Debug)]
pub struct AsciiTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl AsciiTable {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        AsciiTable { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends one row (stringified cells, at most one per header).
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders with column alignment.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], out: &mut String| {
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                if i == 0 {
                    let _ = write!(out, "{cell:<w$}");
                } else {
                    let _ = write!(out, "  {cell:>w$}");
                }
            }
            out.push('\n');
        };
        render_row(&self.header, &mut out);
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
        out.push('\n');
        for row in &self.rows {
            render_row(row, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(method: &str, design: &str, syntax: bool, hit: bool, fixed: bool) -> EvalRow {
        EvalRow {
            id: format!("{design}/k#1@{method}"),
            instance: format!("{design}/k#1"),
            design: design.to_string(),
            group: "Arithmetic".into(),
            kind: "k".into(),
            syntax,
            category: if syntax { "Scope issues" } else { "Flawed conditions" }.into(),
            method: method.to_string(),
            backend: "event".into(),
            hit,
            fixed,
            outcome: if fixed { "pass" } else { "mismatch" }.into(),
            claimed: fixed,
            llm_calls: 2,
            prompt_tokens: 10,
            completion_tokens: 5,
            sim_latency_ms: 2000,
            fixed_by: fixed.then(|| "Repair in MS Mode".to_string()),
            degraded: None,
            llm_wait_ms: None,
            llm_batch_max: None,
        }
    }

    #[test]
    fn rates_and_rendering() {
        let report = CampaignReport::new(vec![
            row("UVLLM", "adder_8bit", true, true, true),
            row("UVLLM", "adder_8bit", false, true, false),
            row("MEIC", "mux4", false, false, false),
        ]);
        assert!((report.fr(|r| r.method == "UVLLM") - 50.0).abs() < 1e-9);
        assert!((report.hr(|r| r.method == "UVLLM") - 100.0).abs() < 1e-9);
        assert!(report.fr(|r| r.method == "nope").is_nan());
        assert_eq!(report.methods(), vec!["UVLLM".to_string(), "MEIC".to_string()]);
        let rendered = report.render();
        for heading in ["Per-method summary", "Fig. 5/6", "Fig. 7", "Table II"] {
            assert!(rendered.contains(heading), "missing {heading}:\n{rendered}");
        }
        assert!((report.mean_sim_secs(|_| true) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn report_is_a_function_of_the_row_set_not_row_order() {
        let mut rows = vec![
            row("RTLrepair", "mux4", false, true, true),
            row("Custom", "mux4", true, false, false),
            row("MEIC", "adder_8bit", true, true, false),
            row("GPT-4-turbo", "mux4", true, true, true),
        ];
        // A mean of exactly 14.345 s: summed as f64 seconds, one order
        // of these rows renders 14.34 and the other 14.35.
        for ms in [1858, 25547, 15630] {
            rows.push(EvalRow {
                sim_latency_ms: ms,
                ..row("UVLLM", "adder_8bit", false, true, true)
            });
        }
        let forward = CampaignReport::new(rows.clone());
        rows.reverse();
        let backward = CampaignReport::new(rows);
        let table_order = ["UVLLM", "MEIC", "GPT-4-turbo", "RTLrepair", "Custom"];
        assert_eq!(forward.methods(), table_order, "known labels in table order, then others");
        assert_eq!(forward.render(), backward.render());
        assert!(forward.render().contains("14.34"), "{}", forward.render());
    }

    #[test]
    fn unknown_labels_follow_the_known_ones_in_label_order() {
        let rows = vec![
            row("Zeta", "mux4", false, true, false),
            row("UVLLM", "mux4", false, true, true),
            row("Alpha", "adder_8bit", true, false, false),
            row("MEIC", "mux4", true, true, true),
        ];
        let mut reversed = rows.clone();
        reversed.reverse();
        let forward = CampaignReport::new(rows);
        let backward = CampaignReport::new(reversed);
        assert_eq!(forward.methods(), ["UVLLM", "MEIC", "Alpha", "Zeta"]);
        assert_eq!(forward.methods(), backward.methods());
        assert_eq!(forward.render(), backward.render());
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = AsciiTable::new(&["Types", "FR/%", "Texec/s"]);
        t.row(vec!["Arithmetic".into(), "84.3".into(), "14.20".into()]);
        t.row(vec!["Control".into(), "89.1".into(), "10.61".into()]);
        let s = t.render();
        assert!(s.contains("Types"));
        assert!(s.lines().count() == 4);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0].len(), lines[2].len());
    }
}
