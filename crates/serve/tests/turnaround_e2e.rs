//! A served shard costs what its engine run costs: turnaround does not
//! depend on the lease length, and a worker builds a run's dataset
//! once, not once per shard.
//!
//! Lives in its own integration-test binary because
//! `campaign.dataset_builds` is a process-wide counter; the two tests
//! here take turns on [`SERIAL`] for the same reason.

use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};
use uvllm_campaign::{Campaign, CampaignConfig, MemorySink, MethodKind};
use uvllm_json::{s, Json};
use uvllm_serve::{http, post_json, run_worker, ServeConfig, Server, WorkerOptions};

const SEED: u64 = 0x42;

static SERIAL: Mutex<()> = Mutex::new(());

fn methods() -> Vec<MethodKind> {
    vec![MethodKind::Strider, MethodKind::RtlRepair]
}

fn start_server(name: &str) -> Server {
    let data_dir =
        std::env::temp_dir().join(format!("uvllm-turnaround-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    Server::start(ServeConfig { data_dir, ..ServeConfig::default() }).unwrap()
}

fn submit(addr: &str, size: usize, shards: usize, lease_ms: Option<u64>) -> String {
    let mut body = vec![
        ("size".to_string(), Json::Num(size as f64)),
        ("seed".to_string(), s(format!("0x{SEED:X}"))),
        ("methods".to_string(), Json::Arr(methods().iter().map(|m| s(m.label())).collect())),
        ("shards".to_string(), Json::Num(shards as f64)),
    ];
    if let Some(ms) = lease_ms {
        body.push(("lease_ms".to_string(), Json::Num(ms as f64)));
    }
    let (status, json) = post_json(addr, "/jobs", &Json::Obj(body)).unwrap();
    assert_eq!(status, 200, "{}", json.render());
    json.get("run").and_then(Json::as_str).unwrap().to_string()
}

fn worker(addr: &str) -> WorkerOptions {
    WorkerOptions { workers: 2, max_idle: Some(1), ..WorkerOptions::new(addr) }
}

fn run_is_done(addr: &str, run: &str) -> bool {
    let (status, body) = http::request(addr, "GET", &format!("/runs/{run}"), "").unwrap();
    assert_eq!(status, 200, "{body}");
    Json::parse(&body).unwrap().get("done").and_then(Json::as_bool).unwrap()
}

/// At a 60 s lease the heartbeat is due every 20 s; a worker that waited
/// for the next one before reporting a shard took 40 s over these two.
#[test]
fn turnaround_is_not_floored_at_a_third_of_the_lease() {
    let _turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let server = start_server("lease");
    let addr = server.addr().to_string();
    let run = submit(&addr, 2, 2, Some(60_000));
    let started = Instant::now();
    let summary = run_worker(&worker(&addr)).unwrap();
    let took = started.elapsed();
    assert_eq!((summary.leases, summary.completed, summary.lost), (2, 2, 0));
    assert!(took < Duration::from_secs(10), "two tiny shards took {took:?}");
    assert!(run_is_done(&addr, &run));
    server.shutdown();
}

#[test]
fn one_worker_builds_a_runs_dataset_once_and_serves_identical_rows() {
    let _turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    const SIZE: usize = 8;
    let config = CampaignConfig {
        dataset_size: SIZE,
        dataset_seed: SEED,
        methods: methods(),
        workers: 2,
        ..CampaignConfig::default()
    };
    let mut sink = MemorySink::new();
    Campaign::new(config).unwrap().run(&mut sink).unwrap();
    let mut direct: Vec<String> = sink.rows().iter().map(|r| r.to_json_line()).collect();
    direct.sort();

    let server = start_server("builds");
    let addr = server.addr().to_string();
    // The server's own build (the run's id space) happens inside the
    // submission, before the worker's are counted.
    let run = submit(&addr, SIZE, 4, None);
    let builds = uvllm_obs::registry().counter("campaign.dataset_builds");
    let before = builds.get();
    let summary = run_worker(&worker(&addr)).unwrap();
    assert_eq!((summary.leases, summary.completed), (4, 4));
    assert_eq!(builds.get() - before, 1, "four shards of one run share one build");

    assert!(run_is_done(&addr, &run));
    let (status, body) = http::request(&addr, "GET", &format!("/runs/{run}/rows"), "").unwrap();
    assert_eq!(status, 200);
    let served: Vec<&str> = body.lines().collect();
    assert_eq!(served, direct.iter().map(String::as_str).collect::<Vec<_>>());
    server.shutdown();
}
