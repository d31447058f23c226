//! Crash-recovery gates: the server process is killed outright (the
//! deterministic `--crash-after` abort and a literal SIGKILL) mid-run
//! with live workers attached, then restarted on the same data
//! directory. The restarted server must replay its journal, fence the
//! pre-crash leases (stale workers observe `409 LeaseLost`), resume
//! granting, and finish with rows byte-identical to a direct engine
//! run.
//!
//! The server runs as a *separate OS process* (`campaign serve`) so
//! the kill is a real process death, not a cooperative shutdown;
//! workers re-find the restarted server through the shared
//! `--addr-file`.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use uvllm_campaign::{Campaign, CampaignConfig, MemorySink, MethodKind};
use uvllm_json::{s, Json};
use uvllm_serve::{http, post_json, run_worker, WorkerOptions, WorkerSummary};

const SIZE: usize = 4;
/// The SIGKILL test's dataset. A shard of the `SIZE`-instance run is
/// leased and done between two status polls; this one stays leased for
/// hundreds of milliseconds, so the kill lands on a live lease.
const SIGKILL_SIZE: usize = 256;
const SEED: u64 = 0x42;
const DEADLINE: Duration = Duration::from_secs(120);

fn methods() -> Vec<MethodKind> {
    vec![MethodKind::Strider, MethodKind::RtlRepair]
}

/// Ground truth: the same configuration run directly through the
/// engine, no server and no crash involved.
fn baseline_rows(size: usize) -> Vec<String> {
    let config = CampaignConfig {
        dataset_size: size,
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

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("uvllm-recovery-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Spawns `campaign serve` on an ephemeral port, publishing its
/// address to `addr_file`.
fn spawn_server(data_dir: &Path, addr_file: &Path, extra: &[&str]) -> Child {
    // Clear any previous address so `wait_addr` sees the new publish.
    let _ = std::fs::remove_file(addr_file);
    Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(["serve", "--addr"])
        .arg("127.0.0.1:0")
        .arg("--addr-file")
        .arg(addr_file)
        .arg("--data-dir")
        .arg(data_dir)
        .args(["--lease-ms", "600", "--fsync", "always"])
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap()
}

fn wait_addr(addr_file: &Path) -> String {
    let start = Instant::now();
    loop {
        if let Ok(text) = std::fs::read_to_string(addr_file) {
            let addr = text.trim();
            if !addr.is_empty() {
                return addr.to_string();
            }
        }
        assert!(start.elapsed() < DEADLINE, "server never published its address");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn wait_exit(child: &mut Child) {
    let start = Instant::now();
    loop {
        if child.try_wait().unwrap().is_some() {
            return;
        }
        assert!(start.elapsed() < DEADLINE, "server process never exited");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn submit(addr: &str, size: usize) -> String {
    let body = Json::Obj(vec![
        ("size".to_string(), Json::Num(size as f64)),
        ("seed".to_string(), s(format!("0x{SEED:X}"))),
        ("methods".to_string(), Json::Arr(methods().iter().map(|m| s(m.label())).collect())),
        ("shards".to_string(), Json::Num(2.0)),
        ("lease_ms".to_string(), Json::Num(600.0)),
    ]);
    let (status, json) = post_json(addr, "/jobs", &body).unwrap();
    assert_eq!(status, 200, "{}", json.render());
    json.get("run").and_then(Json::as_str).unwrap().to_string()
}

/// Workers that survive a server restart: they re-read `addr_file` on
/// transport errors and keep polling on a generous idle budget until
/// the (restarted) server drains them with `POST /shutdown`.
fn spawn_workers(addr: &str, addr_file: &Path) -> Vec<std::thread::JoinHandle<WorkerSummary>> {
    (0..2)
        .map(|i| {
            let options = WorkerOptions {
                name: format!("survivor-{i}"),
                workers: 2,
                // The idle budget (~6 s of polls, 100 ms apart) must
                // outlast the kill → restart gap; it is also how workers
                // exit once the drained server is gone.
                max_idle: Some(60),
                addr_file: Some(addr_file.to_path_buf()),
                ..WorkerOptions::new(addr.to_string())
            };
            std::thread::spawn(move || run_worker(&options).unwrap())
        })
        .collect()
}

fn run_status(addr: &str, run: &str) -> Json {
    let (status, body) = http::request(addr, "GET", &format!("/runs/{run}"), "").unwrap();
    assert_eq!(status, 200, "{body}");
    Json::parse(&body).unwrap()
}

fn wait_done(addr: &str, run: &str) {
    let start = Instant::now();
    loop {
        if run_status(addr, run).get("done").and_then(Json::as_bool) == Some(true) {
            return;
        }
        assert!(start.elapsed() < DEADLINE, "run never finished after the restart");
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn counter(addr: &str, name: &str) -> u64 {
    let (status, body) = http::request(addr, "GET", "/metrics", "").unwrap();
    assert_eq!(status, 200);
    uvllm_obs::validate_snapshot_json(&body).unwrap();
    let snapshot = Json::parse(&body).unwrap();
    snapshot.get("counters").and_then(|c| c.get(name)).and_then(Json::as_u64).unwrap_or(0)
}

/// Shared tail of both crash flavours: restart on the same `data_dir`,
/// let the surviving workers reconnect and finish, and hold the
/// restarted server to the exact rows a crash-free run produces.
fn restart_and_verify(
    size: usize,
    data_dir: &Path,
    addr_file: &Path,
    run: &str,
    workers: Vec<std::thread::JoinHandle<WorkerSummary>>,
) -> WorkerSummary {
    let mut heir = spawn_server(data_dir, addr_file, &[]);
    let addr = wait_addr(addr_file);

    // The restarted process must know it recovered: journal records
    // replayed into the rebuilt store, pre-crash leases fenced.
    assert!(counter(&addr, "serve.recoveries") >= 1);
    assert!(counter(&addr, "serve.journal.records_replayed") >= 1);

    wait_done(&addr, run);
    let status_json = run_status(&addr, run);
    assert_eq!(
        status_json.get("diags").and_then(Json::as_array).map(<[Json]>::len),
        Some(0),
        "{}",
        status_json.render()
    );

    // The acceptance gate: rows served after a kill + restart are
    // byte-identical to the uninterrupted baseline. (Computed here, not
    // before the restart: the workers' reconnect budget must not depend
    // on how long the baseline takes.)
    let baseline = baseline_rows(size);
    let (status, body) = http::request(&addr, "GET", &format!("/runs/{run}/rows"), "").unwrap();
    assert_eq!(status, 200);
    let served: Vec<&str> = body.lines().collect();
    assert_eq!(served, baseline.iter().map(String::as_str).collect::<Vec<_>>());

    let (status, _) = http::request(&addr, "POST", "/shutdown", "").unwrap();
    assert_eq!(status, 200);
    let mut total = WorkerSummary::default();
    for handle in workers {
        let summary = handle.join().unwrap();
        total.leases += summary.leases;
        total.completed += summary.completed;
        total.stolen += summary.stolen;
        total.lost += summary.lost;
        total.reconnects += summary.reconnects;
    }
    // At least one pre-crash worker carried a stale epoch across the
    // restart and was refused with 409 LeaseLost.
    assert!(total.lost >= 1, "no worker observed 409 LeaseLost ({total:?})");
    wait_exit(&mut heir);
    total
}

/// Deterministic crash: `--crash-after complete:1` aborts the server
/// (kill -9 semantics — no destructors, no flush beyond the journal's
/// own fsync) inside the first shard completion, after the journal
/// append but before the reply. The completing worker never gets its
/// ack; recovery replays the record anyway.
#[test]
fn crash_after_complete_recovers_byte_identical_event_driven() {
    let data_dir = fresh_dir("abort-event");
    let addr_file = data_dir.join("addr");
    let mut doomed = spawn_server(
        &data_dir,
        &addr_file,
        &["--crash-after", "complete:1", "--compact-every", "8"],
    );
    let addr = wait_addr(&addr_file);
    let run = submit(&addr, SIZE);
    let workers = spawn_workers(&addr, &addr_file);

    // The abort fires on the first POST /complete; wait for the corpse.
    wait_exit(&mut doomed);
    let total = restart_and_verify(SIZE, &data_dir, &addr_file, &run, workers);
    // The completing worker was mid-POST when the server died: its
    // retry had to re-read the address file, and the replayed journal
    // already held its Complete record, so the retry got 409.
    assert!(total.reconnects >= 1, "no worker re-read the address file ({total:?})");
}

/// Literal SIGKILL at a nondeterministic moment: wait until workers
/// have leased shards and pushed progress, then kill -9 the server.
/// Whatever the journal's final record looks like (possibly torn),
/// replay must recover a consistent store and the run must converge.
#[test]
fn sigkill_mid_run_recovers_byte_identical() {
    let data_dir = fresh_dir("sigkill");
    let addr_file = data_dir.join("addr");
    let mut doomed = spawn_server(&data_dir, &addr_file, &[]);
    let addr = wait_addr(&addr_file);
    let run = submit(&addr, SIGKILL_SIZE);
    let workers = spawn_workers(&addr, &addr_file);

    // Kill once at least one lease is live — recovery must fence it,
    // so its holder is guaranteed to observe 409 LeaseLost.
    let start = Instant::now();
    loop {
        let status_json = run_status(&addr, &run);
        let leased = status_json
            .get("shards")
            .and_then(Json::as_array)
            .map(|shards| {
                shards
                    .iter()
                    .filter(|s| s.get("state").and_then(Json::as_str) == Some("leased"))
                    .count()
            })
            .unwrap_or(0);
        if leased >= 1 {
            break;
        }
        assert!(start.elapsed() < DEADLINE, "no shard was ever leased");
        std::thread::sleep(Duration::from_millis(10));
    }
    doomed.kill().unwrap(); // SIGKILL on Unix
    wait_exit(&mut doomed);
    restart_and_verify(SIGKILL_SIZE, &data_dir, &addr_file, &run, workers);
}
