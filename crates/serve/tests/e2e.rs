//! End-to-end service gates: a full campaign served over HTTP with a
//! worker killed mid-shard must converge — the expired lease is stolen,
//! the thief resumes the dead worker's sink, and the final rows are
//! byte-identical to a plain CLI-style run.

use std::time::Duration;
use uvllm_campaign::{Campaign, CampaignConfig, MemorySink, MethodKind};
use uvllm_json::{s, Json};
use uvllm_serve::{http, post_json, run_worker, ServeConfig, Server, WorkerOptions};

const SIZE: usize = 4;
const SEED: u64 = 0x42;

fn methods() -> Vec<MethodKind> {
    vec![MethodKind::Strider, MethodKind::RtlRepair]
}

/// The ground truth: the same configuration run directly through the
/// engine, no server involved.
fn baseline_rows() -> Vec<String> {
    let config = CampaignConfig {
        dataset_size: SIZE,
        dataset_seed: SEED,
        methods: methods(),
        workers: 2,
        ..CampaignConfig::default()
    };
    let mut sink = MemorySink::new();
    Campaign::new(config).unwrap().run(&mut sink).unwrap();
    let mut rows: Vec<String> = sink.rows().iter().map(|r| r.to_json_line()).collect();
    rows.sort();
    rows
}

fn start_server(name: &str) -> Server {
    let data_dir = std::env::temp_dir().join(format!("uvllm-e2e-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    Server::start(ServeConfig {
        data_dir,
        default_lease: Duration::from_millis(400),
        ..ServeConfig::default()
    })
    .unwrap()
}

fn submit(addr: &str) -> String {
    let body = Json::Obj(vec![
        ("size".to_string(), Json::Num(SIZE as f64)),
        ("seed".to_string(), s(format!("0x{SEED:X}"))),
        ("methods".to_string(), Json::Arr(methods().iter().map(|m| s(m.label())).collect())),
        ("shards".to_string(), Json::Num(2.0)),
        ("lease_ms".to_string(), Json::Num(400.0)),
    ]);
    let (status, json) = post_json(addr, "/jobs", &body).unwrap();
    assert_eq!(status, 200, "{}", json.render());
    json.get("run").and_then(Json::as_str).unwrap().to_string()
}

#[test]
fn stolen_lease_rows_are_byte_identical_event_driven() {
    let baseline = baseline_rows();
    let server = start_server("event");
    let addr = server.addr().to_string();
    let run = submit(&addr);

    // Worker "doomed" takes shard 0 and dies after flushing one row:
    // its sink keeps the row, no completion is reported, and its lease
    // runs out the 400 ms deadline.
    let doomed = WorkerOptions {
        name: "doomed".to_string(),
        workers: 2,
        once: true,
        abort_after_rows: Some(1),
        ..WorkerOptions::new(addr.clone())
    };
    let summary = run_worker(&doomed).unwrap();
    assert_eq!(summary.leases, 1);
    assert_eq!(summary.aborted, 1);
    assert_eq!(summary.completed, 0);

    // Worker "thief" immediately completes the still-pending shard 1.
    let thief = WorkerOptions {
        name: "thief".to_string(),
        workers: 2,
        once: true,
        ..WorkerOptions::new(addr.clone())
    };
    let summary = run_worker(&thief).unwrap();
    assert_eq!(summary.completed, 1);
    assert_eq!(summary.stolen, 0, "shard 1 was pending, not stolen");

    // Mid-run (shard 0 dead, not yet stolen): the metrics endpoint must
    // serve a valid uvllm-metrics/v1 snapshot.
    let (status, body) = http::request(&addr, "GET", "/metrics", "").unwrap();
    assert_eq!(status, 200);
    uvllm_obs::validate_snapshot_json(&body).unwrap();
    let (status, body) = http::request(&addr, "GET", &format!("/runs/{run}"), "").unwrap();
    assert_eq!(status, 200);
    let status_json = Json::parse(&body).unwrap();
    assert_eq!(status_json.get("done").and_then(Json::as_bool), Some(false));
    // A running campaign's status carries no report: polls pay for no
    // render until every row is in.
    assert_eq!(status_json.get("report").and_then(Json::as_str), Some(""), "{body}");

    // The thief polls again: shard 0's lease expires and is re-granted
    // as stolen; the sink resume protocol skips the dead worker's row.
    let summary = run_worker(&thief).unwrap();
    assert_eq!(summary.leases, 1, "must pick up the expired shard");
    assert_eq!(summary.stolen, 1, "the grant must be marked stolen");
    assert_eq!(summary.completed, 1);

    // Final status: done, with the steal recorded on shard 0.
    let (status, body) = http::request(&addr, "GET", &format!("/runs/{run}"), "").unwrap();
    assert_eq!(status, 200);
    let status_json = Json::parse(&body).unwrap();
    assert_eq!(status_json.get("done").and_then(Json::as_bool), Some(true), "{body}");
    assert_eq!(status_json.get("diags").and_then(Json::as_array).map(<[Json]>::len), Some(0));
    let report = status_json.get("report").and_then(Json::as_str).unwrap();
    assert!(report.contains(&format!("campaign rows: {}", SIZE * methods().len())), "{report}");
    let shards = status_json.get("shards").and_then(Json::as_array).unwrap();
    let steals: u64 = shards.iter().map(|s| s.get("steals").and_then(Json::as_u64).unwrap()).sum();
    assert!(steals >= 1, "{body}");

    // The acceptance gate: served rows byte-identical to the baseline.
    let (status, body) = http::request(&addr, "GET", &format!("/runs/{run}/rows"), "").unwrap();
    assert_eq!(status, 200);
    let served: Vec<&str> = body.lines().collect();
    assert_eq!(served, baseline.iter().map(String::as_str).collect::<Vec<_>>());

    // The steal landed in the registry the /metrics endpoint serves.
    assert!(uvllm_obs::registry().counter("serve.leases.stolen").get() >= 1);

    let (status, _) = http::request(&addr, "POST", "/shutdown", "").unwrap();
    assert_eq!(status, 200);
    let data_dir = std::env::temp_dir().join(format!("uvllm-e2e-{}-event", std::process::id()));
    server.join();
    let text = std::fs::read_to_string(data_dir.join("metrics.json")).unwrap();
    uvllm_obs::validate_snapshot_json(&text).unwrap();
}

/// Idle workers exit on their idle budget, and a worker arriving at a
/// draining server exits immediately with nothing counted.
#[test]
fn workers_exit_on_idle_budget_and_drain() {
    let server = start_server("idle");
    let addr = server.addr().to_string();
    let idle = WorkerOptions {
        name: "idle".to_string(),
        max_idle: Some(3),
        ..WorkerOptions::new(addr.clone())
    };
    let summary = run_worker(&idle).unwrap();
    assert_eq!(summary, Default::default(), "no runs submitted, nothing to lease");
    let (status, _) = http::request(&addr, "POST", "/shutdown", "").unwrap();
    assert_eq!(status, 200);
    // 410 races the listener teardown: either answer means "go away".
    if let Ok(drained) = run_worker(&idle) {
        assert_eq!(drained, Default::default());
    }
    server.join();
}
