//! What a resident server keeps of each run it serves, store, journal
//! and aggregator together: a real [`Server`] is driven over HTTP
//! through default 331 × 6 runs — submit, lease and complete each
//! shard with its sink written directly (no engine), then read the
//! run's status and rows — and the live heap bytes it retains per run
//! are pinned at [`RETAINED_PER_RUN`].
//!
//! One `#[test]` in a binary of its own: the live-byte count is
//! process-wide, so no other test may allocate beside it.

mod support;

use std::sync::atomic::Ordering;
use support::{default_run, LIVE};
use uvllm_json::{s, Json};
use uvllm_serve::{http, post_json, LeaseGrant, RunSpec, ServeConfig, Server};

/// Live heap bytes a served default run may keep. Measured at 39.9 KB:
/// the aggregator's index and report are 39.3 KB of it
/// (`retained_memory.rs`), the store's image and the journal the rest.
/// Pinned with half again for headroom.
const RETAINED_PER_RUN: i64 = 60 * 1024;

/// Served runs measured, after one that warms the id space, the
/// registry's metrics and the journal.
const RUNS: usize = 6;

const SHARDS: usize = 4;

/// Serves one run end to end and checks what the server answers.
fn serve_run(addr: &str, spec: &RunSpec, texts: &[String], rows: &str) {
    let (status, json) = post_json(addr, "/jobs", &spec.to_json()).unwrap();
    assert_eq!(status, 200, "{}", json.render());
    let run = json.get("run").and_then(Json::as_str).unwrap().to_string();
    for _ in 0..SHARDS {
        let worker = Json::Obj(vec![("worker".to_string(), s("w"))]);
        let (status, json) = post_json(addr, "/lease", &worker).unwrap();
        assert_eq!(status, 200, "{}", json.render());
        let grant = LeaseGrant::from_json(&json).unwrap();
        std::fs::write(&grant.sink, &texts[grant.shard]).unwrap();
        let complete = Json::Obj(vec![
            ("run".to_string(), s(grant.run)),
            ("shard".to_string(), Json::Num(grant.shard as f64)),
            ("epoch".to_string(), Json::Num(grant.epoch as f64)),
        ]);
        let (status, json) = post_json(addr, "/complete", &complete).unwrap();
        assert_eq!(status, 200, "{}", json.render());
    }
    let (status, body) = http::request(addr, "GET", &format!("/runs/{run}"), "").unwrap();
    assert_eq!(status, 200, "{body}");
    let json = Json::parse(&body).unwrap();
    assert_eq!(json.get("done").and_then(Json::as_bool), Some(true), "{body}");
    let (status, body) = http::request(addr, "GET", &format!("/runs/{run}/rows"), "").unwrap();
    assert_eq!(status, 200);
    assert!(body == rows, "{run}: served rows differ");
}

#[test]
fn a_served_run_retains_what_its_store_journal_and_index_keep() {
    let (spec, texts, rows) = default_run(SHARDS);
    let data_dir = std::env::temp_dir().join(format!("uvllm-served-memory-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let server =
        Server::start(ServeConfig { data_dir: data_dir.clone(), ..ServeConfig::default() })
            .unwrap();
    let addr = server.addr().to_string();
    serve_run(&addr, &spec, &texts, &rows);

    let before = LIVE.load(Ordering::SeqCst);
    for _ in 0..RUNS {
        serve_run(&addr, &spec, &texts, &rows);
    }
    let per_run = (LIVE.load(Ordering::SeqCst) - before) / RUNS as i64;
    eprintln!("{per_run} live heap bytes retained per served run");
    assert!(
        per_run <= RETAINED_PER_RUN,
        "a served run retains {per_run} live heap bytes, pinned at {RETAINED_PER_RUN}"
    );
    server.shutdown();
    std::fs::remove_dir_all(&data_dir).unwrap();
}
