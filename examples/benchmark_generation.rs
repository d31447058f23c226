//! Regenerating the benchmark dataset: the paradigm error generator of
//! §III-E applied across the 27-design suite, with validation that every
//! admitted instance is a *real* bug.
//!
//! Run with: `cargo run -p uvllm --example benchmark_generation --release`

use std::collections::BTreeMap;

fn main() {
    // A reduced dataset for example purposes (the full evaluation uses
    // 331, the paper's size — see `uvllm::dataset::PAPER_DATASET_SIZE`).
    let target = 120;
    println!("building {target} validated error instances...");
    let dataset = uvllm::build_dataset(target, 0xC0DE, &uvllm::StageMemo::new(), 1);

    println!("\n{} instances built:", dataset.instances.len());
    let mut by_kind: BTreeMap<&str, usize> = BTreeMap::new();
    let mut by_group: BTreeMap<String, usize> = BTreeMap::new();
    for inst in &dataset.instances {
        *by_kind.entry(inst.kind.name()).or_default() += 1;
        *by_group.entry(inst.design.category.label().to_string()).or_default() += 1;
    }
    println!("\nby error kind:");
    for (kind, n) in &by_kind {
        println!("  {kind:<20} {n}");
    }
    println!("\nby module group:");
    for (group, n) in &by_group {
        println!("  {group:<15} {n}");
    }

    println!(
        "\n{} (design, kind) pairs are structurally inapplicable — the \
         'x' cells of the paper's Fig. 7:",
        dataset.inapplicable.len()
    );
    for (design, kind) in dataset.inapplicable.iter().take(8) {
        println!("  {design} x {kind}");
    }

    // Show one instance in full.
    if let Some(inst) = dataset.instances.iter().find(|i| !i.kind.is_syntax()) {
        println!("\nsample instance {}:", inst.id());
        println!("  {}", inst.ground_truth.description);
        println!("  buggy: {}", inst.ground_truth.buggy_line);
        println!("  fixed: {}", inst.ground_truth.fixed_line);
    }
}
