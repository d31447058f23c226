//! Regenerates **Table III**: the repair-generation-form ablation —
//! original→patched pairs (UVLLM_pair) vs complete-code regeneration
//! (UVLLM_comp), FR and Texec for syntax and functional errors.
//!
//! Run: `cargo run -p uvllm-bench --bin table3_ablation --release`

use uvllm_bench::harness::{dataset_size_from_env, evaluate, MethodKind};
use uvllm_bench::report::{fr, mean_time, pct_cell, secs_cell, AsciiTable};

fn main() {
    let size = dataset_size_from_env();
    eprintln!("building dataset ({size} instances)...");
    let dataset = uvllm::build_dataset(size, 0xDA7A, &uvllm::StageMemo::new(), 1);
    eprintln!("{} instances; evaluating both repair forms...", dataset.instances.len());
    let pair_recs = evaluate(MethodKind::Uvllm, &dataset.instances);
    let comp_recs = evaluate(MethodKind::UvllmComplete, &dataset.instances);

    println!("Table III — Ablation: repair generation form\n");
    let mut table =
        AsciiTable::new(&["Framework", "FR Syntax", "FR Func.", "Texec Syntax", "Texec Func."]);
    for (label, recs) in [("UVLLM_pair", &pair_recs), ("UVLLM_comp", &comp_recs)] {
        let syn: Vec<_> = recs.iter().filter(|r| r.kind.is_syntax()).collect();
        let func: Vec<_> = recs.iter().filter(|r| !r.kind.is_syntax()).collect();
        table.row(vec![
            label.to_string(),
            pct_cell(fr(&syn)),
            pct_cell(fr(&func)),
            secs_cell(mean_time(&syn)),
            secs_cell(mean_time(&func)),
        ]);
    }
    println!("{}", table.render());
    println!(
        "expected shape (paper): pair-wise repair wins on FR and is 2-4x \
         faster; complete regeneration only helps on structural omissions."
    );
}
