//! Served rows are merged rows: `GET /runs/<id>/rows` equals
//! `campaign merge` over the same shard files byte for byte, and the
//! status report equals the report rendered over those rows, through a
//! torn trailing line, a stolen shard's identical overlap, a differing
//! duplicate and a server restart. The server keeps only an index of
//! its sinks' lines, so every read here goes back to the files.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use uvllm_campaign::{EvalRow, ReportTallies};
use uvllm_json::Json;
use uvllm_serve::{http, ServeConfig, Server};

const SIZE: &str = "6";
const METHODS: &str = "Strider,RTLrepair";

fn campaign(dir: &Path, args: &[&str]) {
    let output =
        Command::new(env!("CARGO_BIN_EXE_campaign")).current_dir(dir).args(args).output().unwrap();
    assert!(
        output.status.success(),
        "campaign {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
}

fn start(data_dir: &Path) -> Server {
    Server::start(ServeConfig { data_dir: data_dir.to_path_buf(), ..ServeConfig::default() })
        .unwrap()
}

fn get(server: &Server, target: &str) -> String {
    let (status, body) = http::request(&server.addr().to_string(), "GET", target, "").unwrap();
    assert_eq!(status, 200, "{target}: {body}");
    body
}

/// The run's status: `(rows, diags, report)`.
fn status(server: &Server, run: &str) -> (u64, Vec<String>, String) {
    let json = Json::parse(&get(server, &format!("/runs/{run}"))).unwrap();
    let rows = json.get("rows").and_then(Json::as_u64).unwrap();
    let diags = json.get("diags").and_then(Json::as_array).unwrap();
    let diags = diags.iter().map(|d| d.as_str().unwrap().to_string()).collect();
    (rows, diags, json.get("report").and_then(Json::as_str).unwrap().to_string())
}

fn append(path: &Path, bytes: &[u8]) {
    let mut file = std::fs::OpenOptions::new().create(true).append(true).open(path).unwrap();
    file.write_all(bytes).unwrap();
}

#[test]
fn served_rows_are_the_merge_of_the_shard_files() {
    let dir = std::env::temp_dir().join(format!("uvllm-served-rows-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let base = ["--size", SIZE, "--methods", METHODS, "--workers", "2"];
    for shard in ["0/2", "1/2"] {
        let out = format!("s{}.jsonl", &shard[..1]);
        campaign(&dir, &[&base[..], &["--shard", shard, "--out", &out]].concat());
    }
    let merge = ["merge", "--size", SIZE, "--methods", METHODS, "s0.jsonl", "s1.jsonl"];
    campaign(&dir, &[&merge[..], &["--out", "merged.jsonl"]].concat());
    let merged = std::fs::read_to_string(dir.join("merged.jsonl")).unwrap();
    assert_eq!(merged.lines().count(), 12, "6 instances x 2 methods");
    let rows: Vec<EvalRow> =
        merged.lines().map(|line| EvalRow::from_json_line(line).unwrap()).collect();
    let report = rows.iter().collect::<ReportTallies>().render();
    let s0 = std::fs::read_to_string(dir.join("s0.jsonl")).unwrap();
    let s1 = std::fs::read_to_string(dir.join("s1.jsonl")).unwrap();
    let s0_lines: Vec<&str> = s0.lines().collect();
    assert!(s0_lines.len() >= 2, "{s0}");

    let data_dir = dir.join("serve");
    let server = start(&data_dir);
    let (status_code, body) = http::request(
        &server.addr().to_string(),
        "POST",
        "/jobs",
        &format!("{{\"size\": {SIZE}, \"methods\": [\"Strider\", \"RTLrepair\"], \"shards\": 2}}"),
    )
    .unwrap();
    assert_eq!(status_code, 200, "{body}");
    let run = Json::parse(&body).unwrap().get("run").unwrap().as_str().unwrap().to_string();
    let sink = |i: usize| -> PathBuf { data_dir.join(&run).join(format!("shard-{i}.jsonl")) };
    let rows_target = format!("/runs/{run}/rows");

    // Shard 0 is mid-append: its last row is torn. Shard 1 also holds
    // shard 0's first row, the overlap a stolen shard leaves.
    let (last, complete) = s0_lines.split_last().unwrap();
    let torn = last.len() / 2;
    append(&sink(0), format!("{}\n{}", complete.join("\n"), &last[..torn]).as_bytes());
    append(&sink(1), format!("{s1}{}\n", s0_lines[0]).as_bytes());
    let without_last: String =
        merged.lines().filter(|line| line != last).map(|line| format!("{line}\n")).collect();
    assert_eq!(get(&server, &rows_target), without_last, "a torn line is not served");
    let (count, diags, partial_report) = status(&server, &run);
    assert_eq!(count as usize, merged.lines().count() - 1);
    assert!(diags.is_empty(), "{diags:?}");
    assert_eq!(partial_report, "", "no report before the last row");

    // The writer finishes the line: every row is in.
    append(&sink(0), format!("{}\n", &last[torn..]).as_bytes());
    assert_eq!(get(&server, &rows_target), merged);
    let (count, diags, served_report) = status(&server, &run);
    assert_eq!(count as usize, merged.lines().count());
    assert!(diags.is_empty(), "an identical copy is dropped silently: {diags:?}");
    assert_eq!(served_report, report);

    // A copy that differs keeps the first and says so.
    let mut differing = EvalRow::from_json_line(s0_lines[1]).unwrap();
    differing.llm_calls += 1;
    append(&sink(1), format!("{}\n", differing.to_json_line()).as_bytes());
    assert_eq!(get(&server, &rows_target), merged);
    let (_, diags, _) = status(&server, &run);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert!(diags[0].contains("determinism contract violation"), "{}", diags[0]);
    server.shutdown();

    // A restarted server rebuilds the index from the surviving sinks.
    let server = start(&data_dir);
    assert_eq!(get(&server, &rows_target), merged);
    let (count, diags, recovered_report) = status(&server, &run);
    assert_eq!(count as usize, merged.lines().count());
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(recovered_report, report);
    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}
