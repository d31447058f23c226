//! Divergences the reference found, each minimized into a fixture under
//! `tests/fixtures/`: a module whose header comments say how it was
//! found, how it was resolved, and how to drive it. A `// drive:` line
//! is one time step — its `name=literal` inputs staged, then settled —
//! and after each the kernel and the reference must agree on every
//! word of every signal. `// elaborates: no` marks a design elaboration
//! must reject.

use std::sync::Arc;
use uvllm_refsim::{lockstep, RefSim};
use uvllm_sim::{elaborate, Logic, SimControl, Simulator};
use uvllm_verilog::ast::Expr;

fn literal(text: &str) -> Logic {
    match uvllm_verilog::parse_expr(text, &mut uvllm_verilog::Names::new()) {
        Ok(Expr::Number(n)) => Logic::from_planes(n.width.unwrap_or(32), n.value, n.xz),
        other => panic!("'{text}' is not a literal: {other:?}"),
    }
}

fn run(name: &str) {
    let path = format!("{}/tests/fixtures/{name}.v", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let file = uvllm_verilog::parse(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
    let elaborated = elaborate(&file, name);
    if src.lines().any(|line| line.trim() == "// elaborates: no") {
        assert!(elaborated.is_err(), "{name}: elaboration must reject it");
        return;
    }
    let design = Arc::new(elaborated.unwrap_or_else(|e| panic!("{name}: {e}")));
    let mut kernel = Simulator::from_arc(Arc::clone(&design)).unwrap();
    let mut reference = RefSim::new(Arc::clone(&design)).unwrap();
    let steps = src.lines().filter_map(|line| line.trim().strip_prefix("// drive:"));
    for (n, step) in steps.enumerate() {
        let values: Vec<_> = step
            .split_whitespace()
            .map(|pair| {
                let (input, value) = pair.split_once('=').expect("name=literal");
                (design.signal_id(input).expect("an input"), literal(value))
            })
            .collect();
        let outcome = lockstep(&mut kernel, &mut reference, |sim: &mut dyn SimControl| {
            for (id, value) in &values {
                sim.stage(*id, *value);
            }
            sim.settle()
        });
        if let Err(difference) = outcome {
            panic!("{name}, step {n} ({}): {difference}", step.trim());
        }
    }
}

#[test]
fn edge_to_and_from_x() {
    run("edge_to_and_from_x");
}

#[test]
fn select_out_of_range_reads_narrow_x() {
    run("select_out_of_range_reads_narrow_x");
}

#[test]
fn case_items_size_the_selector() {
    run("case_items_size_the_selector");
}

#[test]
fn arithmetic_shift_of_unsigned_is_logical() {
    run("arithmetic_shift_of_unsigned_is_logical");
}

#[test]
fn power_past_128() {
    run("power_past_128");
}

#[test]
fn word_index_past_64_bits() {
    run("word_index_past_64_bits");
}

#[test]
fn concat_target_past_128_bits() {
    run("concat_target_past_128_bits");
}
