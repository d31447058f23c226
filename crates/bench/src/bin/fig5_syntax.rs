//! Regenerates **Fig. 5**: HR vs FR in syntax-error verification for
//! UVLLM, MEIC and plain GPT-4-turbo, per syntax category.
//!
//! Run: `cargo run -p uvllm-bench --bin fig5_syntax --release`
//! (set `UVLLM_BENCH_SIZE=80` for a quick pass).

use uvllm_bench::harness::{dataset_size_from_env, evaluate, MethodKind};
use uvllm_bench::report::{fr, hr, pct_cell, AsciiTable};
use uvllm_errgen::{ErrorCategory, SyntaxCategory};

fn main() {
    let size = dataset_size_from_env();
    eprintln!("building dataset ({size} instances)...");
    let dataset = uvllm::build_dataset(size, 0xDA7A, &uvllm::StageMemo::new());
    let syntax: Vec<_> = dataset.syntax().into_iter().cloned().collect();
    eprintln!("{} syntax instances; evaluating 3 methods...", syntax.len());

    let methods = [MethodKind::Uvllm, MethodKind::Meic, MethodKind::GptDirect];
    let mut all_records = Vec::new();
    for m in methods {
        eprintln!("  running {}...", m.label());
        all_records.extend(evaluate(m, &syntax));
    }

    println!("Fig. 5 — HR vs FR in Syntax-Error Verification (%)");
    println!("(deviation = HR - FR, the overfitting gap shaded in the paper)\n");
    let mut table = AsciiTable::new(&[
        "Category",
        "FR(UVLLM)",
        "HR(UVLLM)",
        "FR(MEIC)",
        "HR(MEIC)",
        "FR(GPT-4)",
        "HR(GPT-4)",
    ]);
    for cat in SyntaxCategory::ALL {
        let mut row = vec![cat.label().to_string()];
        for m in methods {
            let recs: Vec<_> = all_records
                .iter()
                .filter(|r| r.method == m && r.category == ErrorCategory::Syntax(cat))
                .collect();
            row.push(pct_cell(fr(&recs)));
            row.push(pct_cell(hr(&recs)));
        }
        table.row(row);
    }
    // Average row.
    let mut avg = vec!["Average".to_string()];
    for m in methods {
        let recs: Vec<_> = all_records.iter().filter(|r| r.method == m).collect();
        avg.push(pct_cell(fr(&recs)));
        avg.push(pct_cell(hr(&recs)));
    }
    table.row(avg);
    println!("{}", table.render());

    // Deviation summary (Result 2 of the paper).
    println!("HR-FR deviation per method:");
    for m in methods {
        let recs: Vec<_> = all_records.iter().filter(|r| r.method == m).collect();
        println!("  {:<12} {:+.1} pp", m.label(), hr(&recs) - fr(&recs));
    }
}
