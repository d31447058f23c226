//! Regenerates **Fig. 6**: HR vs FR in functional-error verification for
//! UVLLM, GPT-4-turbo, Strider, MEIC and RTLrepair, per category.
//!
//! Run: `cargo run -p uvllm-bench --bin fig6_functional --release`

use uvllm_bench::harness::{dataset_size_from_env, evaluate, MethodKind};
use uvllm_bench::report::{fr, hr, pct_cell, AsciiTable};
use uvllm_errgen::{ErrorCategory, FunctionalCategory};

fn main() {
    let size = dataset_size_from_env();
    eprintln!("building dataset ({size} instances)...");
    let dataset = uvllm::build_dataset(size, 0xDA7A, &uvllm::StageMemo::new());
    let functional: Vec<_> = dataset.functional().into_iter().cloned().collect();
    eprintln!("{} functional instances; evaluating 5 methods...", functional.len());

    let methods = [
        MethodKind::Uvllm,
        MethodKind::GptDirect,
        MethodKind::Strider,
        MethodKind::Meic,
        MethodKind::RtlRepair,
    ];
    let mut all_records = Vec::new();
    for m in methods {
        eprintln!("  running {}...", m.label());
        all_records.extend(evaluate(m, &functional));
    }

    println!("Fig. 6 — HR vs FR in Functional-Error Verification (%)\n");
    let mut header: Vec<String> = vec!["Category".into()];
    for m in methods {
        header.push(format!("FR({})", m.label()));
        header.push(format!("HR({})", m.label()));
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = AsciiTable::new(&header_refs);
    for cat in FunctionalCategory::ALL {
        let mut row = vec![cat.label().to_string()];
        for m in methods {
            let recs: Vec<_> = all_records
                .iter()
                .filter(|r| r.method == m && r.category == ErrorCategory::Functional(cat))
                .collect();
            row.push(pct_cell(fr(&recs)));
            row.push(pct_cell(hr(&recs)));
        }
        table.row(row);
    }
    let mut avg = vec!["Average".to_string()];
    for m in methods {
        let recs: Vec<_> = all_records.iter().filter(|r| r.method == m).collect();
        avg.push(pct_cell(fr(&recs)));
        avg.push(pct_cell(hr(&recs)));
    }
    table.row(avg);
    println!("{}", table.render());

    println!("HR-FR deviation per method (the paper: >30 pp for baselines, ~1.4 pp for UVLLM):");
    for m in methods {
        let recs: Vec<_> = all_records.iter().filter(|r| r.method == m).collect();
        println!("  {:<12} {:+.1} pp", m.label(), hr(&recs) - fr(&recs));
    }
}
