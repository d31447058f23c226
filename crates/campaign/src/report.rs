//! Campaign-level aggregation: the paper's tables — Table II (the
//! segmented pipeline), Table III (pairs vs complete code) and
//! Figs. 5–7 — rendered from [`EvalRow`]s through one accumulator,
//! [`ReportTallies`], so fresh, resumed, merged and served runs print
//! the same report. Texec is the rows' modelled LLM latency
//! (`sim_latency_ms`), never wall-clock.

use crate::eval::{EvalRow, MethodKind};
use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;
use uvllm::Stage;
use uvllm_designs::Category;
use uvllm_errgen::{FunctionalCategory, SyntaxCategory};

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

/// Formats a seconds cell (NaN → `x`).
fn secs_cell(v: f64) -> String {
    if v.is_nan() {
        "x".to_string()
    } else {
        format!("{v:.2}")
    }
}

/// Table II's stages, in column order.
const STAGES: [Stage; 3] = [Stage::Preprocess, Stage::RepairMs, Stage::RepairSl];

/// Counts over one slice of one method's rows: what every cell reads.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    rows: usize,
    hit: usize,
    fixed: usize,
    claimed: usize,
    llm_calls: u64,
    /// Summed in whole milliseconds, so row order cannot move a rounding.
    sim_ms: u64,
    /// Fixed rows per [`STAGES`] entry, by `fixed_by`.
    by_stage: [usize; 3],
}

impl Tally {
    fn add(&mut self, row: &EvalRow) {
        self.rows += 1;
        self.hit += usize::from(row.hit);
        self.fixed += usize::from(row.fixed);
        self.claimed += usize::from(row.claimed);
        self.llm_calls += row.llm_calls;
        self.sim_ms += row.sim_latency_ms;
        if let (true, Some(stage)) = (row.fixed, &row.fixed_by) {
            if let Some(i) = STAGES.iter().position(|s| s.label() == stage) {
                self.by_stage[i] += 1;
            }
        }
    }

    fn fr(&self) -> f64 {
        percent(self.fixed, self.rows)
    }

    fn hr(&self) -> f64 {
        percent(self.hit, self.rows)
    }

    /// Mean Texec in seconds.
    fn texec(&self) -> f64 {
        if self.rows == 0 {
            return f64::NAN;
        }
        self.sim_ms as f64 / 1000.0 / self.rows as f64
    }
}

/// Which of a method's rows a [`Tally`] counts. `L` is a label: an
/// interned id inside [`ReportTallies`], its text where tables read it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Slice<L> {
    All,
    /// Syntax (`true`) or functional rows.
    Class(bool),
    /// A design group's rows of one class (Table II).
    Group(L, bool),
    /// An error category's rows, and the class they are of (Figs. 5–6).
    Category(L, bool),
    Design(L),
    /// A design's rows of one class (Fig. 7).
    DesignClass(L, bool),
}

impl<L> Slice<L> {
    /// The same slice over the labels `f` maps, or `None` when one of
    /// them does not map.
    fn try_map<M>(self, f: impl Fn(L) -> Option<M>) -> Option<Slice<M>> {
        Some(match self {
            Slice::All => Slice::All,
            Slice::Class(syntax) => Slice::Class(syntax),
            Slice::Group(group, syntax) => Slice::Group(f(group)?, syntax),
            Slice::Category(category, syntax) => Slice::Category(f(category)?, syntax),
            Slice::Design(design) => Slice::Design(f(design)?),
            Slice::DesignClass(design, syntax) => Slice::DesignClass(f(design)?, syntax),
        })
    }
}

/// The report's accumulator: every `Tally` the tables read, keyed by
/// method and slice, built one row at a time — add rows, then
/// [`render`](ReportTallies::render). It owns no row, so a holder that
/// folds rows in as they arrive keeps this instead of the rows: a
/// campaign run as its sink takes each row, `campaign merge` over the
/// merged rows, the service's live aggregator as it tails the sinks.
/// Labels are interned: a row allocates only for a label the
/// accumulator has not seen.
#[derive(Debug, Default)]
pub struct ReportTallies {
    rows: usize,
    /// Label texts by id.
    labels: Vec<Box<str>>,
    ids: HashMap<Box<str>, u32>,
    tallies: HashMap<(u32, Slice<u32>), Tally>,
}

impl ReportTallies {
    /// An accumulator with no rows.
    pub fn new() -> Self {
        ReportTallies::default()
    }

    /// Counts `row` in every slice it belongs to.
    pub fn add(&mut self, row: &EvalRow) {
        self.rows += 1;
        let syntax = row.syntax;
        let method = self.intern(&row.method);
        let group = self.intern(&row.group);
        let category = self.intern(&row.category);
        let design = self.intern(&row.design);
        for slice in [
            Slice::All,
            Slice::Class(syntax),
            Slice::Group(group, syntax),
            Slice::Category(category, syntax),
            Slice::Design(design),
            Slice::DesignClass(design, syntax),
        ] {
            self.tallies.entry((method, slice)).or_default().add(row);
        }
    }

    fn intern(&mut self, label: &str) -> u32 {
        if let Some(&id) = self.ids.get(label) {
            return id;
        }
        let id = self.labels.len() as u32;
        self.labels.push(label.into());
        self.ids.insert(label.into(), id);
        id
    }

    fn get(&self, method: &str, slice: Slice<&str>) -> Tally {
        let id = |label: &str| self.ids.get(label).copied();
        let key = id(method).zip(slice.try_map(id));
        key.and_then(|key| self.tallies.get(&key)).copied().unwrap_or_default()
    }

    /// The labels `pick` reads off the keys present, in the order of
    /// `known`, then any other label in label order.
    fn labels<'a>(
        &'a self,
        pick: impl Fn(&'a str, Slice<&'a str>) -> Option<&'a str>,
        known: &[&str],
    ) -> Vec<&'a str> {
        let text = |id: u32| Some(&*self.labels[id as usize]);
        let picked = self
            .tallies
            .keys()
            .filter_map(|&(method, slice)| pick(text(method)?, slice.try_map(text)?));
        ordered(picked, known)
    }

    /// Renders the per-method summary and the paper's tables as aligned
    /// ASCII tables; a table with no rows to show is left out.
    pub fn render(&self) -> String {
        let methods = self.labels(
            |m, slice| (slice == Slice::All).then_some(m),
            &MethodKind::ALL.map(|m| m.label()),
        );
        let mut out = String::new();
        let _ = writeln!(out, "campaign rows: {}", self.rows);

        let mut summary = AsciiTable::new(&[
            "Method",
            "Jobs",
            "HR/%",
            "FR/%",
            "Claimed/%",
            "SimT/s",
            "LLM calls",
        ]);
        for &method in &methods {
            let all = self.get(method, Slice::All);
            summary.row(vec![
                method.to_string(),
                all.rows.to_string(),
                pct_cell(all.hr()),
                pct_cell(all.fr()),
                pct_cell(percent(all.claimed, all.rows)),
                secs_cell(all.texec()),
                all.llm_calls.to_string(),
            ]);
        }
        section(&mut out, "Per-method summary", &summary);

        section(&mut out, "Table II: segmented UVLLM (FR/%, Texec/s)", &table2(self));
        section(&mut out, "Table III: repair generation form (FR/%, Texec/s)", &table3(self));
        let (syntax, functional) = (SyntaxCategory::ALL, FunctionalCategory::ALL);
        let title = "Fig. 5: HR vs FR, syntax errors (%)";
        figure(&mut out, title, self, true, &syntax.map(|c| c.label()), &FIG5);
        let title = "Fig. 6: HR vs FR, functional errors (%)";
        figure(&mut out, title, self, false, &functional.map(|c| c.label()), &FIG6);

        let catalogue: Vec<&str> = uvllm_designs::all().iter().map(|d| d.name).collect();
        let designs = self.labels(
            |_, slice| match slice {
                Slice::Design(design) => Some(design),
                _ => None,
            },
            &catalogue,
        );
        section(&mut out, "Fig. 7: UVLLM FR per design (%)", &fig7(self, &designs));
        let mut heat_header = vec!["Design"];
        heat_header.extend(&methods);
        let mut heat = AsciiTable::new(&heat_header);
        for &design in &designs {
            let mut cells = vec![design.to_string()];
            for &method in &methods {
                cells.push(pct_cell(self.get(method, Slice::Design(design)).fr()));
            }
            heat.row(cells);
        }
        section(&mut out, "Per-design FR, all methods (%)", &heat);
        out
    }
}

impl<'r> FromIterator<&'r EvalRow> for ReportTallies {
    fn from_iter<I: IntoIterator<Item = &'r EvalRow>>(rows: I) -> Self {
        let mut tallies = ReportTallies::new();
        rows.into_iter().for_each(|row| tallies.add(row));
        tallies
    }
}

/// `labels` in the order of `known`, then any other label in label
/// order: a function of the label set, not of row order.
fn ordered<'r>(labels: impl Iterator<Item = &'r str>, known: &[&str]) -> Vec<&'r str> {
    let mut labels: Vec<&str> = labels.collect::<BTreeSet<_>>().into_iter().collect();
    // Stable: labels of equal rank (the unknown ones) stay sorted.
    labels.sort_by_key(|label| known.iter().position(|k| k == label).unwrap_or(known.len()));
    labels
}

/// Appends `table` under `title`, unless it has no rows.
fn section(out: &mut String, title: &str, table: &AsciiTable) {
    if !table.rows.is_empty() {
        let _ = write!(out, "\n== {title} ==\n{}", table.render());
    }
}

/// The methods Fig. 5 compares on syntax errors (the template methods
/// cannot repair an unparsable text).
const FIG5: [MethodKind; 3] = [MethodKind::Uvllm, MethodKind::Meic, MethodKind::GptDirect];

/// The methods Fig. 6 compares on functional errors.
const FIG6: [MethodKind; 5] = [
    MethodKind::Uvllm,
    MethodKind::Meic,
    MethodKind::GptDirect,
    MethodKind::Strider,
    MethodKind::RtlRepair,
];

/// Table II: per design group × error class, the UVLLM fix rate split
/// by the stage whose change fixed the text, its Texec, and MEIC's for
/// the speedup. A fix UVLLM did not claim — its budget ran out on a
/// version that passes — has no stage: it is counted under `Other FR`,
/// so the four FR columns before `UVLLM FR` sum to it.
fn table2(tallies: &ReportTallies) -> AsciiTable {
    let (uvllm, meic) = (MethodKind::Uvllm.label(), MethodKind::Meic.label());
    let groups = tallies.labels(
        |_, slice| match slice {
            Slice::Group(group, _) => Some(group),
            _ => None,
        },
        &Category::ALL.map(|c| c.label()),
    );
    let mut table = AsciiTable::new(&[
        "Types", "Pre FR", "MS FR", "SL FR", "Other FR", "UVLLM FR", "UVLLM T", "MEIC FR",
        "MEIC T", "Speedup",
    ]);
    let mut line = |label: String, slice: Slice<&str>| {
        let (u, m) = (tallies.get(uvllm, slice), tallies.get(meic, slice));
        if u.rows == 0 {
            return;
        }
        let (ut, mt) = (u.texec(), m.texec());
        let mut cells = vec![label];
        let other = u.fixed - u.by_stage.iter().sum::<usize>();
        cells.extend(u.by_stage.into_iter().chain([other]).map(|n| pct_cell(percent(n, u.rows))));
        cells.extend([
            pct_cell(u.fr()),
            secs_cell(ut),
            pct_cell(m.fr()),
            secs_cell(mt),
            if ut > 0.0 && mt.is_finite() { format!("{:.2}x", mt / ut) } else { "x".into() },
        ]);
        table.row(cells);
    };
    for (syntax, tag, total) in [(true, "s", "Syntax"), (false, "f", "Function")] {
        for &group in &groups {
            line(format!("{group} {tag}"), Slice::Group(group, syntax));
        }
        line(total.to_string(), Slice::Class(syntax));
    }
    line("Overall".to_string(), Slice::All);
    table
}

/// Table III: pair-wise repair vs complete-code regeneration.
fn table3(tallies: &ReportTallies) -> AsciiTable {
    let mut table =
        AsciiTable::new(&["Framework", "FR Syntax", "FR Func.", "Texec Syntax", "Texec Func."]);
    for method in [MethodKind::Uvllm, MethodKind::UvllmComplete] {
        let label = method.label();
        let (s, f) =
            (tallies.get(label, Slice::Class(true)), tallies.get(label, Slice::Class(false)));
        if s.rows + f.rows > 0 {
            table.row(vec![
                label.to_string(),
                pct_cell(s.fr()),
                pct_cell(f.fr()),
                secs_cell(s.texec()),
                secs_cell(f.texec()),
            ]);
        }
    }
    table
}

/// Fig. 5 or 6: FR and HR per error category of one class (in the
/// order of `known`) for each of `shown` that has rows of that class,
/// then their HR − FR deviation — the overfitting gap the paper shades.
fn figure(
    out: &mut String,
    title: &str,
    tallies: &ReportTallies,
    syntax: bool,
    known: &[&str],
    shown: &[MethodKind],
) {
    let methods: Vec<&str> = shown
        .iter()
        .map(MethodKind::label)
        .filter(|m| tallies.get(m, Slice::Class(syntax)).rows > 0)
        .collect();
    if methods.is_empty() {
        return;
    }
    let mut header = vec!["Category".to_string()];
    for m in &methods {
        header.extend([format!("FR({m})"), format!("HR({m})")]);
    }
    let mut table = AsciiTable::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
    let categories = tallies.labels(
        |_, slice| match slice {
            Slice::Category(category, class) if class == syntax => Some(category),
            _ => None,
        },
        known,
    );
    let lines = categories.iter().map(|&c| (c, Slice::Category(c, syntax)));
    for (label, slice) in lines.chain([("Average", Slice::Class(syntax))]) {
        let mut cells = vec![label.to_string()];
        for m in &methods {
            let t = tallies.get(m, slice);
            cells.extend([pct_cell(t.fr()), pct_cell(t.hr())]);
        }
        table.row(cells);
    }
    section(out, title, &table);
    out.push_str("HR-FR deviation/pp:");
    for m in &methods {
        let t = tallies.get(m, Slice::Class(syntax));
        let _ = write!(out, "  {m} {:+.1}", t.hr() - t.fr());
    }
    out.push('\n');
}

/// Fig. 7: UVLLM's syntax and functional fix rates per design, with the
/// design's group and module type from the catalogue.
fn fig7(tallies: &ReportTallies, designs: &[&str]) -> AsciiTable {
    let uvllm = MethodKind::Uvllm.label();
    let mut table = AsciiTable::new(&["Module", "Group", "Type", "Syntax FR", "Function FR", "n"]);
    for &design in designs {
        let s = tallies.get(uvllm, Slice::DesignClass(design, true));
        let f = tallies.get(uvllm, Slice::DesignClass(design, false));
        if s.rows + f.rows == 0 {
            continue;
        }
        let (group, kind) = uvllm_designs::by_name(design)
            .map_or(("-", "-"), |d| (d.category.label(), d.module_type));
        table.row(vec![
            design.to_string(),
            group.to_string(),
            kind.to_string(),
            pct_cell(s.fr()),
            pct_cell(f.fr()),
            (s.rows + f.rows).to_string(),
        ]);
    }
    table
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
        }
    }

    /// `row` re-filed under another group, category and fixing stage.
    fn staged(row: EvalRow, group: &str, category: &str, stage: Option<Stage>) -> EvalRow {
        EvalRow {
            group: group.into(),
            category: category.into(),
            fixed_by: stage.filter(|_| row.fixed).map(|s| s.label().to_string()),
            ..row
        }
    }

    /// Rows for every table: UVLLM fixes by each stage in known groups
    /// and an unknown one, an unclaimed fix, both repair forms, the
    /// Fig. 5/6 baselines, an unknown method and an uncatalogued design.
    fn rows_for_every_table() -> Vec<EvalRow> {
        let mut rows = vec![
            row("RTLrepair", "mux4", false, true, true),
            row("Strider", "counter_12", false, true, false),
            row("Custom", "mux4", true, false, false),
            row("MEIC", "adder_8bit", true, true, false),
            row("MEIC", "counter_12", false, true, true),
            row("GPT-4-turbo", "mux4", true, true, true),
            row("UVLLM(comp)", "mux4", true, true, true),
            row("UVLLM(comp)", "my_core", false, false, false),
            staged(
                row("UVLLM", "counter_12", true, true, true),
                "Control",
                "Data handling",
                Some(Stage::Preprocess),
            ),
            staged(
                row("UVLLM", "counter_12", true, true, true),
                "Control",
                "Scope issues",
                Some(Stage::RepairSl),
            ),
            staged(row("UVLLM", "fifo_sync", true, false, false), "Memory", "Data handling", None),
            EvalRow {
                claimed: false,
                ..staged(
                    row("UVLLM", "fifo_sync", true, true, true),
                    "Memory",
                    "Scope issues",
                    None,
                )
            },
            staged(
                row("UVLLM", "my_core", true, true, true),
                "Custom group",
                "Scope issues",
                Some(Stage::RepairMs),
            ),
        ];
        // A functional mean of exactly 14.345 s: summed as f64 seconds,
        // one order of these rows renders 14.34 and the other 14.35.
        for ms in [1858, 25547, 15630] {
            rows.push(EvalRow {
                sim_latency_ms: ms,
                ..row("UVLLM", "adder_8bit", false, true, true)
            });
        }
        rows
    }

    /// The cells of `table`'s body lines in the rendered report.
    fn table_lines<'a>(rendered: &'a str, table: &str) -> Vec<Vec<&'a str>> {
        let start = rendered.find(&format!("== {table}")).expect("table rendered");
        rendered[start..]
            .lines()
            .skip(3)
            .take_while(|line| !line.is_empty() && !line.starts_with("=="))
            .map(|line| line.split_whitespace().collect())
            .collect()
    }

    /// The report a fold of `rows` renders.
    fn render(rows: &[EvalRow]) -> String {
        rows.iter().collect::<ReportTallies>().render()
    }

    /// The per-method summary's first column: the methods, in order.
    fn methods(rendered: &str) -> Vec<&str> {
        table_lines(rendered, "Per-method summary").iter().map(|cells| cells[0]).collect()
    }

    #[test]
    fn rates_and_rendering() {
        let rendered = render(&[
            row("UVLLM", "adder_8bit", true, true, true),
            row("UVLLM", "adder_8bit", false, true, false),
            row("MEIC", "mux4", false, false, false),
        ]);
        assert!(rendered.starts_with("campaign rows: 3\n"), "{rendered}");
        let summary = table_lines(&rendered, "Per-method summary");
        // Method, jobs, HR, FR: known methods in table order.
        let rates: Vec<&[&str]> = summary.iter().map(|cells| &cells[..4]).collect();
        assert_eq!(rates, [["UVLLM", "2", "100.0", "50.0"], ["MEIC", "1", "0.0", "0.0"]]);
        for heading in ["Per-method summary", "Table II", "Table III", "Fig. 5", "Fig. 6", "Fig. 7"]
        {
            assert!(rendered.contains(heading), "missing {heading}:\n{rendered}");
        }
        // Every row's modelled latency is 2 s, so every Texec mean is too.
        assert!(summary.iter().all(|cells| cells[5] == "2.00"), "{rendered}");
    }

    #[test]
    fn report_is_a_function_of_the_row_set_not_row_order() {
        let mut rows = rows_for_every_table();
        let rendered = render(&rows);
        rows.reverse();
        assert_eq!(rendered, render(&rows));
        let table_order = ["UVLLM", "UVLLM(comp)", "MEIC", "GPT-4-turbo", "Strider", "RTLrepair"];
        let mut known_then_others = table_order.to_vec();
        known_then_others.push("Custom");
        assert_eq!(
            methods(&rendered),
            known_then_others,
            "known labels in table order, then others"
        );
        for heading in [
            "Per-method summary",
            "Table II",
            "Table III",
            "Fig. 5",
            "Fig. 6",
            "Fig. 7",
            "Per-design FR",
        ] {
            assert!(rendered.contains(heading), "missing {heading}:\n{rendered}");
        }
        // Table III and Table II's functional lines read the 14.345 s mean.
        assert!(rendered.contains("14.34"), "{rendered}");
        // Groups in Table II order, then the unknown one; catalogue
        // designs in catalogue order, then the uncatalogued one.
        let types: Vec<&str> = table_lines(&rendered, "Table II").iter().map(|c| c[0]).collect();
        assert_eq!(
            types,
            ["Control", "Memory", "Custom", "Syntax", "Arithmetic", "Function", "Overall"]
        );
        let designs: Vec<&str> = table_lines(&rendered, "Fig. 7").iter().map(|c| c[0]).collect();
        assert_eq!(designs, ["adder_8bit", "counter_12", "fifo_sync", "my_core"]);
    }

    #[test]
    fn table2_stage_cells_sum_to_the_uvllm_cell() {
        let rendered = render(&rows_for_every_table());
        let lines = table_lines(&rendered, "Table II");
        assert_eq!(lines.len(), 7, "{rendered}");
        let mut others = 0.0;
        for cells in lines {
            // Types, three stage FRs, Other FR, UVLLM FR/T, MEIC FR/T,
            // speedup.
            let fr: Vec<f64> =
                cells[cells.len() - 9..][..5].iter().map(|c| c.parse().unwrap()).collect();
            let parts = fr[0] + fr[1] + fr[2] + fr[3];
            // Each of the five cells is rounded to 0.1.
            assert!((parts - fr[4]).abs() <= 0.25, "{cells:?} in\n{rendered}");
            others += fr[3];
        }
        assert!(others > 0.0, "the unclaimed fix is counted under Other FR:\n{rendered}");
    }

    #[test]
    fn percent_and_guards() {
        assert!((percent(1, 2) - 50.0).abs() < 1e-9);
        assert!(percent(0, 0).is_nan());
        assert_eq!(pct_cell(f64::NAN), "x");
        assert_eq!(pct_cell(86.99), "87.0");
        assert_eq!(secs_cell(13.829), "13.83");
        assert_eq!(secs_cell(f64::NAN), "x");
    }

    #[test]
    fn unknown_labels_follow_the_known_ones_in_label_order() {
        let rows = vec![
            row("Zeta", "mux4", false, true, false),
            row("UVLLM", "mux4", false, true, true),
            row("Alpha", "adder_8bit", true, false, false),
            row("MEIC", "mux4", true, true, true),
        ];
        let rendered = render(&rows);
        assert_eq!(methods(&rendered), ["UVLLM", "MEIC", "Alpha", "Zeta"]);
        let mut reversed = rows;
        reversed.reverse();
        assert_eq!(rendered, render(&reversed));
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
