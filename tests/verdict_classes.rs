//! Class preservation over the whole corpus: a verdict run stops at the
//! first cycle the scoreboard rejects, which redefines a run's class as
//! that of its *first failing event*. For every distinct `(design, final
//! text)` a campaign judges, the stopped run must give the class — and
//! the hit — that the run to the last cycle gives when classified the
//! way `run_verdict` used to (`Unstable` tested before `Mismatch`).
//!
//! The run-to-the-end side is rebuilt here from public pieces on
//! purpose: it is the oracle, so it shares no code with the function it
//! checks.
//!
//! Also here: an oscillating DUT reaches the result sink as a distinct
//! `unstable` row, and rows of older builds still decode.

use uvllm::metrics::{FR_CYCLES, FR_EXTRA_SEEDS, FR_PRIMARY_SEED};
use uvllm::{build_instance, Verdict};
use uvllm_campaign::{Campaign, CampaignConfig, EvalRow, MemorySink, MethodKind, ResultSink};
use uvllm_designs::Design;
use uvllm_errgen::ErrorKind;
use uvllm_uvm::{
    CornerSequence, DirectedSequence, Environment, RandomSequence, Sequence, UvmError,
};

/// The stimulus of `hit_confirmed`.
fn hit_seqs(design: &Design) -> Vec<Box<dyn Sequence>> {
    vec![Box::new(DirectedSequence::new("public", (design.directed_vectors)()))]
}

/// The stimulus of `fix_verdict`.
fn fr_seqs(design: &Design) -> Vec<Box<dyn Sequence>> {
    let iface = (design.iface)();
    let random = |seed| -> Box<dyn Sequence> {
        Box::new(RandomSequence::new(&iface.inputs, FR_CYCLES, seed))
    };
    let mut seqs = vec![
        random(FR_PRIMARY_SEED),
        Box::new(CornerSequence::new(&iface.inputs)),
        Box::new(DirectedSequence::new("public", (design.directed_vectors)())),
    ];
    seqs.extend(FR_EXTRA_SEEDS.map(random));
    seqs
}

/// `code` under `seqs`, run to the last cycle and classified in the
/// order used before verdict runs stopped early.
fn class_of_the_whole_run(design: &Design, code: &str, seqs: Vec<Box<dyn Sequence>>) -> Verdict {
    match Environment::from_source(code, design.name, (design.iface)(), (design.model)(), seqs) {
        Ok(env) => {
            let summary = env.without_waveform().run();
            if summary.all_passed() {
                Verdict::Pass
            } else if let Some(activations) = summary.unstable {
                Verdict::Unstable { activations }
            } else {
                Verdict::Mismatch
            }
        }
        Err(UvmError::Sim(_)) => Verdict::Unstable { activations: uvllm_sim::MAX_ACTIVATIONS },
        Err(_) => Verdict::BuildFailed,
    }
}

/// Runs the full 331 × 6 campaign on dataset `seed`, then re-judges
/// every text its memo holds the old way. Returns the texts checked.
fn sweep(seed: u64) -> usize {
    let config = CampaignConfig { dataset_seed: seed, workers: 2, ..CampaignConfig::default() };
    let campaign = Campaign::new(config).unwrap();
    let dataset = campaign.build_dataset();
    campaign.run_on(&dataset, &mut MemorySink::new()).unwrap();
    let judged = dataset.memo().judged();

    // Two threads, like the campaign itself: the run-to-the-end side
    // costs what every verdict cost before the memo.
    let halves = judged.split_at(judged.len() / 2);
    std::thread::scope(|scope| {
        for half in [halves.0, halves.1] {
            scope.spawn(move || {
                for (name, text, (hit, verdict)) in half {
                    let design = uvllm_designs::by_name(name).unwrap();
                    let whole_fix = class_of_the_whole_run(design, text, fr_seqs(design));
                    assert_eq!(*verdict, whole_fix, "seed {seed:#x}, fix class of {name}:\n{text}");
                    let whole_hit = class_of_the_whole_run(design, text, hit_seqs(design));
                    assert_eq!(*hit, whole_hit.passed(), "seed {seed:#x}, hit of {name}:\n{text}");
                }
            });
        }
    });
    judged.len()
}

#[test]
fn stopped_verdicts_keep_their_class_on_the_default_corpus() {
    assert_eq!(sweep(CampaignConfig::default().dataset_seed), 684);
}

/// Two more datasets; CI runs these in release.
#[test]
#[ignore = "costs two full campaigns of run-to-the-end verdicts; run by CI in release"]
fn stopped_verdicts_keep_their_class_on_two_more_datasets() {
    for seed in [7, 8] {
        assert!(sweep(seed) > 300, "seed {seed}");
    }
}

/// An oscillating cross-coupled DUT must flow through evaluation and the
/// result sink as a distinct `unstable` outcome row carrying the
/// activation cap — not panic, not a bare `fixed: false`.
#[test]
fn unstable_design_becomes_a_distinct_outcome_row() {
    // Take a real benchmark instance, then swap its mutated source for
    // an interface-compatible adder whose cross-coupled always blocks
    // oscillate as soon as stimulus drives a[0] high.
    let d = uvllm_designs::by_name("adder_8bit").unwrap();
    let mut inst = build_instance(d, ErrorKind::OperatorMisuse, 5, &uvllm::StageMemo::new())
        .expect("instance");
    inst.mutated_src = "module adder_8bit(\n  input [7:0] a,\n  input [7:0] b,\n  input cin,\n\
                        \x20 output [7:0] sum,\n  output cout\n);\nreg p;\nreg q;\n\
                        assign sum = {7'd0, p};\nassign cout = q;\n\
                        always @(*) begin\nif (a[0]) begin\ncase (q)\n1'b0: p = 1'b1;\n\
                        default: p = 1'b0;\nendcase\nend else\np = 1'b0;\nend\n\
                        always @(*) begin\nif (a[0]) begin\ncase (p)\n1'b0: q = 1'b0;\n\
                        default: q = 1'b1;\nendcase\nend else\nq = 1'b0;\nend\nendmodule\n"
        .to_string();

    // Strider is scripted (no LLM) and cannot repair this shape, so the
    // final code still oscillates when the metrics re-check it.
    let record = uvllm_campaign::evaluate_one(MethodKind::Strider, &inst);
    assert!(!record.fixed);
    assert_eq!(
        record.fix_outcome,
        Verdict::Unstable { activations: uvllm_sim::MAX_ACTIVATIONS },
        "oscillation must be classified, with the activation cap"
    );

    // The row lands in a campaign sink as a distinct outcome.
    let mut sink = MemorySink::new();
    let row = record.to_row();
    sink.append(&row).unwrap();
    assert_eq!(sink.rows()[0].outcome, "unstable");
    assert_eq!(sink.rows()[0].backend, "event");

    // And survives the JSONL round trip.
    let back = EvalRow::from_json_line(&row.to_json_line()).unwrap();
    assert_eq!(back, row);
    assert_eq!(back.outcome, "unstable");
}

/// Pre-schema JSONL rows (no `backend` / `outcome` members) still decode
/// with their historical implicit values, and rows an older build wrote
/// on the compiled kernel decode as they were written, so old campaign
/// files resume and merge.
#[test]
fn legacy_rows_decode_with_default_backend_and_outcome() {
    let line = "{\"id\":\"adder_8bit/operator_misuse#5@Strider\",\
                \"instance\":\"adder_8bit/operator_misuse#5\",\"design\":\"adder_8bit\",\
                \"group\":\"Arithmetic\",\"kind\":\"operator_misuse\",\"syntax\":false,\
                \"category\":\"Flawed conditions\",\"method\":\"Strider\",\"hit\":false,\
                \"fixed\":true,\"claimed\":true,\"llm_calls\":0,\"prompt_tokens\":0,\
                \"completion_tokens\":0,\"sim_latency_ms\":0,\"fixed_by\":null}";
    let row = EvalRow::from_json_line(line).unwrap();
    assert_eq!(row.backend, "event");
    assert_eq!(row.outcome, "pass");

    let compiled =
        line.replace("\"method\":\"Strider\",", "\"method\":\"Strider\",\"backend\":\"compiled\",");
    let row = EvalRow::from_json_line(&compiled).unwrap();
    assert_eq!(row.backend, "compiled");
    assert_eq!(EvalRow::from_json_line(&row.to_json_line()).unwrap(), row);
}
