//! Quickstart: inject a realistic error into a verified design, then
//! let UVLLM find and repair it.
//!
//! Run with: `cargo run -p uvllm --example quickstart`

use uvllm::{Uvllm, VerifyConfig};
use uvllm_errgen::{mutate, ErrorKind};
use uvllm_llm::{ModelProfile, OracleLlm, Pricing};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Pick a verified design from the benchmark suite.
    let design = uvllm_designs::by_name("adder_8bit").expect("catalogued design");
    println!("design: {} — {}", design.name, design.spec);

    // 2. Inject a Table-I style error (operator misuse: `+` becomes `-`).
    let broken = mutate(design.source, ErrorKind::OperatorMisuse, 4)?;
    println!("\ninjected error: {}", broken.ground_truth.description);
    println!("buggy line {}: {}", broken.ground_truth.line, broken.ground_truth.buggy_line);

    // 3. Wire up the LLM backend. Offline, this is the calibrated
    //    GPT-4-turbo twin; swapping in a live API client only requires
    //    implementing `LanguageModel`.
    let mut llm =
        OracleLlm::new(broken.ground_truth.clone(), design.source, ModelProfile::Gpt4Turbo, 4);

    // 4. Run the four-stage verification loop.
    let mut framework = Uvllm::new(&mut llm, VerifyConfig::default());
    let outcome = framework.verify(design, &broken.mutated_src);

    println!("\nverification {}", if outcome.success { "SUCCEEDED" } else { "FAILED" });
    println!("  iterations:     {}", outcome.iterations);
    println!("  fixed by stage: {:?}", outcome.fixed_by.map(|s| s.label()));
    println!("  rollbacks:      {}", outcome.rollbacks);
    println!("  LLM calls:      {}", outcome.usage.calls);
    println!("  token cost:     ${:.4}", outcome.usage.cost(Pricing::GPT4_TURBO));
    let texec = outcome.usage.latency.as_secs_f64();
    println!("  Texec:          {texec:.2}s (modelled LLM latency)");

    // 5. Independent validation — the paper's Fix-Rate check.
    if outcome.success {
        let confirmed =
            uvllm::metrics::fix_confirmed(design, &outcome.final_code, &uvllm::StageMemo::new());
        println!(
            "  expert (differential) validation: {}",
            if confirmed { "CONFIRMED" } else { "REJECTED (overfit!)" }
        );
    }
    Ok(())
}
