//! Regenerates **Table II**: per-stage FR/Texec contributions of the
//! segmented pipeline (Pre-processing, MS mode, SL mode) across module
//! groups and error classes, with the MEIC comparison and speedup.
//!
//! Run: `cargo run -p uvllm-bench --bin table2_segmented --release`

use uvllm::Stage;
use uvllm_bench::harness::{dataset_size_from_env, evaluate, EvalRecord, MethodKind};
use uvllm_bench::report::{fr, mean_time, pct_cell, percent, secs_cell, AsciiTable};
use uvllm_designs::Category;

fn stage_fr(records: &[&EvalRecord], stage: Stage) -> f64 {
    percent(records.iter().filter(|r| r.fixed && r.fixed_by == Some(stage)).count(), records.len())
}

fn stage_time(records: &[&EvalRecord], pick: fn(&uvllm::StageTimes) -> f64) -> f64 {
    if records.is_empty() {
        return f64::NAN;
    }
    records.iter().filter_map(|r| r.stage_times.as_ref().map(pick)).sum::<f64>()
        / records.len() as f64
}

fn main() {
    let size = dataset_size_from_env();
    eprintln!("building dataset ({size} instances)...");
    let dataset = uvllm::build_dataset(size, 0xDA7A, &uvllm::StageMemo::new());
    eprintln!("{} instances; evaluating UVLLM + MEIC...", dataset.instances.len());
    let uvllm_recs = evaluate(MethodKind::Uvllm, &dataset.instances);
    let meic_recs = evaluate(MethodKind::Meic, &dataset.instances);

    println!("Table II — Performance of the segmented approach (FR %, Texec s)\n");
    let mut table = AsciiTable::new(&[
        "Types", "Pre FR", "Pre T", "MS FR", "MS T", "SL FR", "SL T", "UVLLM FR", "UVLLM T",
        "MEIC FR", "MEIC T", "Speedup",
    ]);

    let emit = |label: String, u: Vec<&EvalRecord>, m: Vec<&EvalRecord>, table: &mut AsciiTable| {
        if u.is_empty() {
            return;
        }
        let ut = mean_time(&u);
        let mt = mean_time(&m);
        table.row(vec![
            label,
            pct_cell(stage_fr(&u, Stage::Preprocess)),
            secs_cell(stage_time(&u, |t| t.preprocess.as_secs_f64())),
            pct_cell(stage_fr(&u, Stage::RepairMs)),
            secs_cell(stage_time(&u, |t| t.ms.as_secs_f64())),
            pct_cell(stage_fr(&u, Stage::RepairSl)),
            secs_cell(stage_time(&u, |t| t.sl.as_secs_f64())),
            pct_cell(fr(&u)),
            secs_cell(ut),
            pct_cell(fr(&m)),
            secs_cell(mt),
            if ut > 0.0 && mt.is_finite() { format!("{:.2}x", mt / ut) } else { "x".into() },
        ]);
    };

    for syntax in [true, false] {
        for group in Category::ALL {
            let u: Vec<_> = uvllm_recs
                .iter()
                .filter(|r| r.group == group && r.kind.is_syntax() == syntax)
                .collect();
            let m: Vec<_> = meic_recs
                .iter()
                .filter(|r| r.group == group && r.kind.is_syntax() == syntax)
                .collect();
            let tag = if syntax { "s" } else { "f" };
            emit(format!("{} {tag}", group.label()), u, m, &mut table);
        }
        let u: Vec<_> = uvllm_recs.iter().filter(|r| r.kind.is_syntax() == syntax).collect();
        let m: Vec<_> = meic_recs.iter().filter(|r| r.kind.is_syntax() == syntax).collect();
        emit(if syntax { "Syntax".to_string() } else { "Function".to_string() }, u, m, &mut table);
    }
    let u: Vec<_> = uvllm_recs.iter().collect();
    let m: Vec<_> = meic_recs.iter().collect();
    emit("Overall".to_string(), u, m, &mut table);

    println!("{}", table.render());
    println!(
        "note: per-stage FR columns attribute each fixed instance to the stage \
         that produced the final successful change; UVLLM FR is their sum."
    );
}
