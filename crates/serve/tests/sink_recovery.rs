//! The sinks are the record of progress. A served run whose journal, as
//! an older build wrote it, says every shard completed is booted with
//! one shard's sink cut short — at every line boundary and once mid-line
//! — and the other two whole. The short shard must be leased again, and
//! the run must end with `GET /runs/<id>/rows` equal to `campaign merge`
//! of the whole shard files, byte for byte. One in-process worker with
//! a 60 s lease drives each boot to the end, so nothing is stolen and
//! nothing waits on a clock.

use std::path::Path;
use std::process::Command;
use std::time::Duration;
use uvllm_campaign::{CampaignConfig, MethodKind};
use uvllm_json::Json;
use uvllm_serve::journal::Event;
use uvllm_serve::{
    http, run_worker, Journal, JournalConfig, RunSpec, ServeConfig, Server, WorkerOptions,
};

const SIZE: usize = 12;
const METHODS: &str = "Strider,RTLrepair";
const SHARDS: usize = 3;
const RUN: &str = "run-1";

fn campaign(dir: &Path, args: &[&str]) {
    let output =
        Command::new(env!("CARGO_BIN_EXE_campaign")).current_dir(dir).args(args).output().unwrap();
    assert!(
        output.status.success(),
        "campaign {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
}

/// The journal of a finished run in the record kinds an older build
/// wrote: the submit, a lease and a complete per shard, the finish.
fn finished_run_journal(data_dir: &Path, spec: &RunSpec) {
    let run = || RUN.to_string();
    let worker = || "w".to_string();
    let mut events = vec![Event::Submit { run: run(), spec: spec.clone() }];
    for shard in 0..SHARDS {
        events.push(Event::Lease { run: run(), shard, epoch: 1, worker: worker(), stolen: false });
        events.push(Event::Complete { run: run(), shard, epoch: 1, worker: worker() });
    }
    events.push(Event::Finish { run: run() });
    let mut journal = Journal::open(data_dir, JournalConfig::default(), 1, 0).unwrap();
    for event in &events {
        journal.append(event).unwrap();
    }
}

fn get(addr: &str, target: &str) -> String {
    let (status, body) = http::request(addr, "GET", target, "").unwrap();
    assert_eq!(status, 200, "{target}: {body}");
    body
}

#[test]
fn every_sink_prefix_recovers_to_the_merged_rows() {
    let dir = std::env::temp_dir().join(format!("uvllm-sink-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let size = SIZE.to_string();
    let base = ["--size", &size, "--methods", METHODS, "--workers", "2"];
    let mut merge = vec!["merge", "--size", &size, "--methods", METHODS, "--out", "merged.jsonl"];
    let names: Vec<String> = (0..SHARDS).map(|i| format!("s{i}.jsonl")).collect();
    for (i, name) in names.iter().enumerate() {
        let shard = format!("{i}/{SHARDS}");
        campaign(&dir, &[&base[..], &["--shard", &shard, "--out", name]].concat());
        merge.push(name);
    }
    campaign(&dir, &merge);
    let merged = std::fs::read_to_string(dir.join("merged.jsonl")).unwrap();
    assert_eq!(merged.lines().count(), 2 * SIZE);
    let sinks: Vec<String> =
        names.iter().map(|name| std::fs::read_to_string(dir.join(name)).unwrap()).collect();
    let spec = RunSpec {
        size: SIZE,
        seed: CampaignConfig::default().dataset_seed,
        methods: vec![MethodKind::Strider, MethodKind::RtlRepair],
        shards: SHARDS,
        lease: Duration::from_secs(60),
    };

    for (short, text) in sinks.iter().enumerate() {
        // Every line boundary, the whole file included, and the middle
        // of the last line.
        let mut cuts: Vec<usize> =
            std::iter::once(0).chain(text.match_indices('\n').map(|(at, _)| at + 1)).collect();
        assert!(cuts.len() >= 3, "shard {short} holds too few rows to cut: {text}");
        cuts.push((cuts[cuts.len() - 2] + text.len()) / 2);
        for cut in cuts {
            let data_dir = dir.join(format!("serve-{short}-{cut}"));
            std::fs::create_dir_all(data_dir.join(RUN)).unwrap();
            finished_run_journal(&data_dir, &spec);
            for (shard, text) in sinks.iter().enumerate() {
                let text = if shard == short { &text[..cut] } else { text };
                std::fs::write(data_dir.join(RUN).join(format!("shard-{shard}.jsonl")), text)
                    .unwrap();
            }
            let server =
                Server::start(ServeConfig { data_dir: data_dir.clone(), ..ServeConfig::default() })
                    .unwrap();
            let addr = server.addr().to_string();
            let worker = WorkerOptions {
                name: "heir".to_string(),
                workers: 1,
                max_idle: Some(1),
                ..WorkerOptions::new(addr.clone())
            };
            let summary = run_worker(&worker).unwrap();
            let whole = cut == text.len();
            let at = format!("shard {short} cut at byte {cut} of {}", text.len());
            assert_eq!(summary.leases, u64::from(!whole), "{at}: only a short shard is leased");
            assert_eq!(summary.completed, summary.leases, "{at}");
            assert_eq!(get(&addr, &format!("/runs/{RUN}/rows")), merged, "{at}");
            let status = Json::parse(&get(&addr, &format!("/runs/{RUN}"))).unwrap();
            assert_eq!(status.get("done").and_then(Json::as_bool), Some(true), "{at}");
            server.shutdown();
            std::fs::remove_dir_all(&data_dir).unwrap();
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
