//! Extension experiment (beyond the paper's Table III): ablates the two
//! framework mechanisms DESIGN.md calls out — the score-register
//! rollback and the MS→SL information escalation — quantifying what each
//! contributes to the fix rate.
//!
//! Run: `cargo run -p uvllm-bench --bin ablation_framework --release`

use uvllm::{BenchInstance, Uvllm, VerifyConfig};
use uvllm_bench::report::{pct_cell, percent, AsciiTable};
use uvllm_llm::{ModelProfile, OracleLlm};

fn run_with(config: &VerifyConfig, instances: &[BenchInstance]) -> (f64, f64) {
    let mut fixed_syntax = 0usize;
    let mut n_syntax = 0usize;
    let mut fixed_func = 0usize;
    let mut n_func = 0usize;
    for inst in instances {
        let mut llm = OracleLlm::new(
            inst.ground_truth.clone(),
            inst.design.source,
            ModelProfile::Gpt4Turbo,
            inst.seed ^ 0xAB1A,
        );
        let mut framework = Uvllm::new(&mut llm, config.clone());
        let out = framework.verify(inst.design, &inst.mutated_src);
        let fixed = out.success
            && uvllm::metrics::fix_confirmed(
                inst.design,
                &out.final_code,
                &uvllm::StageMemo::new(),
            );
        if inst.kind.is_syntax() {
            n_syntax += 1;
            fixed_syntax += fixed as usize;
        } else {
            n_func += 1;
            fixed_func += fixed as usize;
        }
    }
    (percent(fixed_syntax, n_syntax), percent(fixed_func, n_func))
}

fn main() {
    let size = std::env::var("UVLLM_BENCH_SIZE").ok().and_then(|s| s.parse().ok()).unwrap_or(160);
    eprintln!("building dataset ({size} instances)...");
    let dataset = uvllm::build_dataset(size, 0xDA7A, &uvllm::StageMemo::new());

    let configs: [(&str, VerifyConfig); 4] = [
        ("full framework", VerifyConfig::default()),
        ("no rollback", VerifyConfig { rollback_enabled: false, ..VerifyConfig::default() }),
        ("no SL escalation", VerifyConfig { sl_enabled: false, ..VerifyConfig::default() }),
        (
            "no rollback, no SL",
            VerifyConfig { rollback_enabled: false, sl_enabled: false, ..VerifyConfig::default() },
        ),
    ];

    println!("Framework-mechanism ablation (FR %, {} instances)\n", dataset.instances.len());
    let mut table = AsciiTable::new(&["Configuration", "FR Syntax", "FR Func."]);
    for (label, config) in configs {
        eprintln!("  running {label}...");
        let (syn, func) = run_with(&config, &dataset.instances);
        table.row(vec![label.to_string(), pct_cell(syn), pct_cell(func)]);
    }
    println!("{}", table.render());
    println!(
        "expected: disabling rollback lets damaging patches persist; \
         disabling SL keeps hard functional errors at MS-level information."
    );
}
