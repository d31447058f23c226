//! Regenerates **Fig. 7**: the per-module FR heat map — 27 modules ×
//! (syntax, function) UVLLM fix rates, with `x` where an error type
//! cannot be imposed on a module.
//!
//! Run: `cargo run -p uvllm-bench --bin fig7_heatmap --release`

use uvllm_bench::harness::{dataset_size_from_env, evaluate, MethodKind};
use uvllm_bench::report::{fr, pct_cell, AsciiTable};

fn main() {
    let size = dataset_size_from_env();
    eprintln!("building dataset ({size} instances)...");
    let dataset = uvllm::build_dataset(size, 0xDA7A, &uvllm::StageMemo::new());
    eprintln!("{} instances; evaluating UVLLM...", dataset.instances.len());
    let records = evaluate(MethodKind::Uvllm, &dataset.instances);

    println!("Fig. 7 — UVLLM FR heat map per module (%; x = error type not applicable)\n");
    let mut table = AsciiTable::new(&["Module", "Group", "Type", "Syntax FR", "Function FR", "n"]);
    for design in uvllm_designs::all() {
        let syn: Vec<_> =
            records.iter().filter(|r| r.design == design.name && r.kind.is_syntax()).collect();
        let func: Vec<_> =
            records.iter().filter(|r| r.design == design.name && !r.kind.is_syntax()).collect();
        table.row(vec![
            design.name.to_string(),
            design.category.label().to_string(),
            design.module_type.to_string(),
            pct_cell(fr(&syn)),
            pct_cell(fr(&func)),
            format!("{}", syn.len() + func.len()),
        ]);
    }
    println!("{}", table.render());

    // Weighted means (the paper's Syntax / Function summary cells).
    let syn: Vec<_> = records.iter().filter(|r| r.kind.is_syntax()).collect();
    let func: Vec<_> = records.iter().filter(|r| !r.kind.is_syntax()).collect();
    println!(
        "Weighted mean FR:  syntax {:>5}   function {:>5}",
        pct_cell(fr(&syn)),
        pct_cell(fr(&func))
    );

    if !dataset.inapplicable.is_empty() {
        println!("\nInapplicable (design, error-type) pairs — the 'x' cells:");
        for (design, kind) in &dataset.inapplicable {
            println!("  {design} x {kind}");
        }
    }
}
