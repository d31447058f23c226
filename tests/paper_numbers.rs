//! The paper-facing numbers, pinned: the full 331 × 6 campaign at the
//! default dataset seed must keep its row digest and its Table II /
//! Fig. 5–6 roll-ups (hit and fix counts per method, the syntax /
//! functional split, the outcome-label histogram), and the same run's
//! rendered report — Table II/III and Figs. 5–7 — must read as
//! committed.
//!
//! `tests/golden/paper_numbers.txt` was generated by the commit *before*
//! the verdict memo and the fail-fast verdict runs landed, so an
//! optimisation of how candidates are judged cannot silently shift a
//! fix rate. The digest is the `rows_digest` that the repo benchmark's
//! `--workload campaign_full --seed 0xDA7A` prints.
//! `tests/golden/paper_artefacts.txt` is what `campaign run` prints
//! below its run summary for the default campaign.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use uvllm_campaign::{fnv1a64, Campaign, CampaignConfig, EvalRow, MemorySink, MethodKind};

/// Counts of `rows` as `<what> <total> hit <n> fixed <n>`.
fn tally<'r>(rows: impl Iterator<Item = &'r EvalRow>) -> String {
    let (mut total, mut hit, mut fixed) = (0, 0, 0);
    for row in rows {
        total += 1;
        hit += usize::from(row.hit);
        fixed += usize::from(row.fixed);
    }
    format!("{total} hit {hit} fixed {fixed}")
}

#[test]
fn full_campaign_reproduces_the_committed_paper_numbers() {
    let config = CampaignConfig { workers: 2, ..CampaignConfig::default() };
    let mut sink = MemorySink::new();
    let outcome = Campaign::new(config).unwrap().run(&mut sink).unwrap();

    let rows = sink.rows();
    let mut lines: Vec<String> = rows.iter().map(EvalRow::to_json_line).collect();
    lines.sort();
    let mut file = String::new();
    for line in &lines {
        file.push_str(line);
        file.push('\n');
    }

    let mut actual = String::new();
    let _ = writeln!(actual, "rows_digest {:016x}", fnv1a64(file.as_bytes()));
    let _ = writeln!(actual, "rows {}", rows.len());
    for method in MethodKind::ALL.map(|m| m.label()) {
        let of = |syntax: Option<bool>| {
            tally(
                rows.iter().filter(|r| r.method == method && syntax.is_none_or(|s| r.syntax == s)),
            )
        };
        let _ = writeln!(actual, "method {method}: all {}", of(None));
        let _ = writeln!(actual, "method {method}: syntax {}", of(Some(true)));
        let _ = writeln!(actual, "method {method}: functional {}", of(Some(false)));
    }
    let mut outcomes: BTreeMap<&str, usize> = BTreeMap::new();
    for row in rows {
        *outcomes.entry(row.outcome.as_str()).or_default() += 1;
    }
    for (label, n) in outcomes {
        let _ = writeln!(actual, "outcome {label} {n}");
    }

    let golden = include_str!("golden/paper_numbers.txt");
    assert_eq!(actual, golden, "paper-facing numbers moved; this run read:\n{actual}");

    let rendered = outcome.report.render();
    let golden = include_str!("golden/paper_artefacts.txt");
    assert_eq!(rendered, golden, "the rendered paper tables moved; this run read:\n{rendered}");
}
