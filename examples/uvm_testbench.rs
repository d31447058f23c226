//! Building a UVM-style testbench by hand: constrained-random plus
//! corner stimulus against a golden reference model, with coverage and
//! a parseable UVM log — the §III-B machinery of the paper.
//!
//! Run with: `cargo run -p uvllm --example uvm_testbench`

use uvllm_uvm::{CornerSequence, Environment, RandomSequence, Sequence, UvmLog};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let design = uvllm_designs::by_name("fifo_sync").expect("catalogued design");

    // A correct run first.
    let iface = (design.iface)();
    let sequences: Vec<Box<dyn Sequence>> = vec![
        Box::new(RandomSequence::new(&iface.inputs, 200, 0xF1F0)),
        Box::new(CornerSequence::new(&iface.inputs)),
    ];
    let env =
        Environment::from_source(design.source, design.name, iface, (design.model)(), sequences)?;
    let summary = env.run();
    println!(
        "pristine FIFO: {} cycles, pass rate {:.1}%",
        summary.cycles,
        summary.pass_rate * 100.0
    );
    println!("  input coverage:  {:.1}%", summary.input_coverage * 100.0);
    println!("  toggle coverage: {:.1}%", summary.toggle_coverage * 100.0);

    // Now break the occupancy counter and watch the scoreboard object.
    let buggy = design.source.replace("count <= count - 4'd1;", "count <= count - 4'd2;");
    assert_ne!(buggy, design.source);
    let iface = (design.iface)();
    let sequences: Vec<Box<dyn Sequence>> =
        vec![Box::new(RandomSequence::new(&iface.inputs, 200, 0xF1F0))];
    let env = Environment::from_source(&buggy, design.name, iface, (design.model)(), sequences)?;
    let summary = env.run();
    println!(
        "\nbuggy FIFO: pass rate {:.1}%, {} mismatches",
        summary.pass_rate * 100.0,
        summary.mismatches.len()
    );

    // The log is what UVLLM's localization engine consumes.
    let rendered = summary.log.render();
    let mismatches = UvmLog::parse_mismatches(&rendered);
    println!("first mismatch records (time, signal, expected, actual):");
    for m in mismatches.iter().take(3) {
        println!("  @{} {:10} expected {:8} actual {}", m.0, m.1, m.2, m.3);
    }

    // Input values at the first mismatch timestamp — Algorithm 2's `IV`.
    if let Some((t, _, _, _)) = mismatches.first() {
        println!("inputs at t={t}:");
        for name in ["push", "pop", "din"] {
            if let Some(v) = summary.waveform.value_at(name, *t) {
                println!("  {name} = {v}");
            }
        }
    }
    Ok(())
}
