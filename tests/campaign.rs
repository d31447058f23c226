//! Campaign-engine guarantees: worker-count-invariant output, shard
//! partitioning and crash-resume over the JSONL sink.

use std::path::PathBuf;
use uvllm_campaign::{
    Campaign, CampaignConfig, EvalRow, JsonlSink, MemorySink, MethodKind, ReportTallies,
    ResultSink, ShardSpec,
};

fn small_config(workers: usize) -> CampaignConfig {
    CampaignConfig {
        dataset_size: 10,
        dataset_seed: 0xD15E,
        // One pipeline method (LLM-heavy), one baseline LLM method, one
        // script method: covers all evaluation paths.
        methods: vec![MethodKind::Uvllm, MethodKind::Meic, MethodKind::Strider],
        workers,
        shard: ShardSpec::default(),
        ..CampaignConfig::default()
    }
}

fn sorted_lines(sink: &MemorySink) -> Vec<String> {
    let mut lines: Vec<String> = sink.rows().iter().map(|r| r.to_json_line()).collect();
    lines.sort();
    lines
}

/// The report a fold of `rows` renders.
fn report_of(rows: &[EvalRow]) -> String {
    rows.iter().collect::<ReportTallies>().render()
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("uvllm-campaign-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// The core determinism contract: 1, 2 and 8 workers produce
/// byte-identical row sets.
#[test]
fn output_is_identical_for_1_2_and_8_workers() {
    let mut baseline = MemorySink::new();
    Campaign::new(small_config(1)).unwrap().run(&mut baseline).unwrap();
    let expected = sorted_lines(&baseline);
    assert_eq!(expected.len(), 30, "10 instances x 3 methods");

    for workers in [2, 8] {
        let mut sink = MemorySink::new();
        Campaign::new(small_config(workers)).unwrap().run(&mut sink).unwrap();
        assert_eq!(
            sorted_lines(&sink),
            expected,
            "rows must be byte-identical with {workers} workers"
        );
    }
}

/// The same contract through the file sink: sorted JSONL bytes match.
#[test]
fn jsonl_files_are_identical_across_worker_counts() {
    let mut files = Vec::new();
    for workers in [1, 8] {
        let path = temp_path(&format!("workers{workers}.jsonl"));
        let _ = std::fs::remove_file(&path);
        let mut sink = JsonlSink::open(&path).unwrap();
        Campaign::new(small_config(workers)).unwrap().run(&mut sink).unwrap();
        drop(sink);
        let mut lines: Vec<String> =
            std::fs::read_to_string(&path).unwrap().lines().map(str::to_string).collect();
        lines.sort();
        files.push(lines);
        let _ = std::fs::remove_file(&path);
    }
    assert_eq!(files[0], files[1]);
    assert!(!files[0].is_empty());
}

/// Kill-and-restart: a campaign whose sink dies mid-run (simulated by
/// truncating the JSONL file to a prefix, with the final line torn)
/// resumes by re-running only the missing jobs, and converges on
/// exactly the uninterrupted row set.
#[test]
fn resume_after_partial_sink_skips_completed_jobs() {
    let campaign = Campaign::new(small_config(2)).unwrap();

    // Uninterrupted reference run.
    let mut reference = MemorySink::new();
    let outcome = campaign.run(&mut reference).unwrap();
    let total = outcome.evaluated;
    assert_eq!(total, 30);

    // Simulate the kill: a file holding 11 completed rows and a torn
    // 12th line that a crashed writer left behind.
    let path = temp_path("resume.jsonl");
    let keep = 11usize;
    let mut torn = String::new();
    for row in reference.existing_rows().iter().take(keep) {
        torn.push_str(&row.to_json_line());
        torn.push('\n');
    }
    let half = reference.existing_rows()[keep].to_json_line();
    torn.push_str(&half[..half.len() / 2]);
    std::fs::write(&path, &torn).unwrap();

    // Restart.
    let mut sink = JsonlSink::open(&path).unwrap();
    assert_eq!(sink.resumed(), keep, "torn line must not count as completed");
    let outcome = campaign.run(&mut sink).unwrap();
    assert_eq!(outcome.resumed, keep);
    assert_eq!(outcome.evaluated, total - keep);
    assert_eq!(outcome.report.render(), report_of(reference.rows()));

    // The merged file holds every job exactly once, matching the
    // uninterrupted run.
    drop(sink);
    let reopened = JsonlSink::open(&path).unwrap();
    let mut merged: Vec<String> =
        reopened.existing_rows().iter().map(|r| r.to_json_line()).collect();
    merged.sort();
    let mut expected: Vec<String> =
        reference.existing_rows().iter().map(|r| r.to_json_line()).collect();
    expected.sort();
    assert_eq!(merged, expected);
    let _ = std::fs::remove_file(&path);
}

/// A sink file that holds one job's row twice (a stolen shard's
/// overlap, or two writers on one `--out`) resumes with each job once:
/// the report counts `total_jobs` rows, not one more.
#[test]
fn resumed_report_counts_a_repeated_row_once() {
    let campaign = Campaign::new(small_config(2)).unwrap();
    let mut reference = MemorySink::new();
    campaign.run(&mut reference).unwrap();
    let rows = reference.existing_rows();

    let path = temp_path("repeated.jsonl");
    let mut text = String::new();
    for row in rows.iter().take(5).chain(rows.first()) {
        text.push_str(&row.to_json_line());
        text.push('\n');
    }
    std::fs::write(&path, text).unwrap();

    let mut sink = JsonlSink::open(&path).unwrap();
    assert_eq!(sink.resumed(), 5);
    let outcome = campaign.run(&mut sink).unwrap();
    assert_eq!(outcome.resumed, 5);
    assert_eq!(outcome.report.render(), report_of(reference.rows()));
    drop(sink);
    let reopened = JsonlSink::open(&path).unwrap();
    let mut got: Vec<String> = reopened.existing_rows().iter().map(|r| r.to_json_line()).collect();
    got.sort();
    assert_eq!(got, sorted_lines(&reference));
    let _ = std::fs::remove_file(&path);
}

/// Shards are worker-count-invariant too, and partition the campaign.
#[test]
fn sharded_runs_union_to_the_whole_campaign() {
    let mut whole = MemorySink::new();
    Campaign::new(small_config(1)).unwrap().run(&mut whole).unwrap();
    let expected = sorted_lines(&whole);

    let mut union = Vec::new();
    for index in 0..2 {
        let mut config = small_config(4);
        config.shard = ShardSpec { index, count: 2 };
        let mut sink = MemorySink::new();
        let outcome = Campaign::new(config).unwrap().run(&mut sink).unwrap();
        assert_eq!(outcome.sharded_out + sink.rows().len(), outcome.total_jobs);
        union.extend(sink.rows().iter().map(|r| r.to_json_line()));
    }
    union.sort();
    assert_eq!(union, expected);
}
