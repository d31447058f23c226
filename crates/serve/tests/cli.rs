//! The `campaign` binary end to end: sharded runs merge into the rows
//! of a whole run, a re-run on the same `--out` resumes without
//! appending, `merge` refuses a shard set that is not an exact cover,
//! both spellings of a hex seed name the same dataset, injected panics
//! are reported, and no flag lets a row depend on the wall clock.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const SIZE: &str = "6";
const METHODS: &str = "Strider,RTLrepair";

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("uvllm-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn campaign(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_campaign")).current_dir(dir).args(args).output().unwrap()
}

/// Runs the binary and insists it succeeded; returns its stdout.
fn campaign_ok(dir: &Path, args: &[&str]) -> String {
    let output = campaign(dir, args);
    assert!(
        output.status.success(),
        "campaign {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).unwrap()
}

/// A run of the test campaign into `out`, with any extra flags.
fn run(dir: &Path, out: &str, extra: &[&str]) -> String {
    let mut args = vec!["--size", SIZE, "--methods", METHODS, "--workers", "2", "--out", out];
    args.extend_from_slice(extra);
    campaign_ok(dir, &args)
}

fn sorted_lines(path: &Path) -> Vec<String> {
    let mut lines: Vec<String> =
        std::fs::read_to_string(path).unwrap().lines().map(str::to_string).collect();
    lines.sort();
    lines
}

/// Everything from the report's first line on.
fn report(stdout: &str) -> &str {
    &stdout[stdout.find("campaign rows:").expect("no report in output")..]
}

#[test]
fn shards_merge_into_the_whole_run_and_bad_shard_sets_are_refused() {
    let dir = fresh_dir("merge");
    let whole = run(&dir, "whole.jsonl", &[]);
    run(&dir, "s0.jsonl", &["--shard", "0/2"]);
    run(&dir, "s1.jsonl", &["--shard", "1/2"]);
    let merge = |shards: &[&str], out: &[&str]| {
        let mut args = vec!["merge", "--size", SIZE, "--methods", METHODS];
        args.extend_from_slice(shards);
        args.extend_from_slice(out);
        campaign(&dir, &args)
    };

    let merged = merge(&["s0.jsonl", "s1.jsonl"], &["--out", "merged.jsonl"]);
    assert!(merged.status.success(), "{}", String::from_utf8_lossy(&merged.stderr));
    let whole_rows = sorted_lines(&dir.join("whole.jsonl"));
    assert_eq!(whole_rows.len(), 12);
    assert_eq!(sorted_lines(&dir.join("merged.jsonl")), whole_rows);
    // The report is a function of the row set.
    assert_eq!(report(&String::from_utf8(merged.stdout).unwrap()), report(&whole));

    std::fs::write(dir.join("empty.jsonl"), "").unwrap();
    for shards in [
        &["s0.jsonl"][..],
        &["s0.jsonl", "s0.jsonl", "s1.jsonl"],
        &["s0.jsonl", "s1.jsonl", "empty.jsonl"],
    ] {
        let output = merge(shards, &[]);
        assert!(!output.status.success(), "merge {shards:?} should have been refused");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_rerun_on_the_same_out_appends_nothing() {
    let dir = fresh_dir("resume");
    run(&dir, "rows.jsonl", &[]);
    let before = std::fs::read(dir.join("rows.jsonl")).unwrap();
    let stdout = run(&dir, "rows.jsonl", &[]);
    assert!(stdout.contains("resuming: 12 completed rows"), "{stdout}");
    assert!(stdout.contains("0 evaluated now, 12 resumed"), "{stdout}");
    assert_eq!(std::fs::read(dir.join("rows.jsonl")).unwrap(), before);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn both_hex_seed_spellings_give_the_same_rows() {
    let dir = fresh_dir("seed");
    run(&dir, "lower.jsonl", &["--seed", "0x42"]);
    run(&dir, "upper.jsonl", &["--seed", "0X42"]);
    let lower = sorted_lines(&dir.join("lower.jsonl"));
    assert_eq!(lower.len(), 12);
    assert_eq!(sorted_lines(&dir.join("upper.jsonl")), lower);
    let bad = campaign(&dir, &["--seed", "0x0x42", "--out", "bad.jsonl"]);
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("--seed"), "the error names its flag");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `--inject-panic` alone reports what the pool quarantined.
#[test]
fn injected_panics_print_the_pool_line() {
    let dir = fresh_dir("inject-panic");
    let stdout = campaign_ok(
        &dir,
        &[
            "--size",
            "2",
            "--methods",
            "RTLrepair",
            "--inject-panic",
            "@RTLrepair",
            "--out",
            "p.jsonl",
        ],
    );
    assert!(stdout.contains("2 quarantined rows"), "{stdout}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Flags that would make a row depend on the wall clock, or that no
/// caller sets, are unknown: each exits 1 naming itself before anything
/// runs.
#[test]
fn removed_flags_are_unknown() {
    let dir = fresh_dir("removed-flags");
    for (args, error) in [
        (&["--llm-latency-ms", "5"][..], "unknown campaign flag '--llm-latency-ms'"),
        (&["--llm-max-wait-ms", "1"], "unknown campaign flag '--llm-max-wait-ms'"),
        (&["--llm-timeout-ms", "5"], "unknown campaign flag '--llm-timeout-ms'"),
        (&["--llm-telemetry"], "unknown campaign flag '--llm-telemetry'"),
        (&["--job-deadline-ms", "5"], "unknown campaign flag '--job-deadline-ms'"),
        (&["--inject-stall", "@MEIC:5"], "unknown campaign flag '--inject-stall'"),
        (&["worker", "--llm-batch", "4"], "unknown worker flag '--llm-batch'"),
        (&["worker", "--llm-max-wait-ms", "1"], "unknown worker flag '--llm-max-wait-ms'"),
        (&["serve", "--fsync", "always"], "unknown serve flag '--fsync'"),
        (&["serve", "--compact-every", "8"], "unknown serve flag '--compact-every'"),
    ] {
        let output = campaign(&dir, args);
        assert_eq!(output.status.code(), Some(1), "campaign {args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains(error), "campaign {args:?}: {stderr}");
    }
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "no run started");
    std::fs::remove_dir_all(&dir).unwrap();
}
