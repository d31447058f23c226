//! The resident HTTP server: accept loop, routing, and the
//! graceful-shutdown sequence.
//!
//! Threading model: one accept thread, one thread per request
//! (requests are one round trip and handlers share only the
//! `Arc<ServeState>`), and a detached drain thread on shutdown. An idle
//! server runs only its accept thread: nothing works on a timer. A read
//! folds the sinks it reports on first — `GET /runs/<id>…` that run's,
//! `GET /metrics` every run's — so no read is staler than the sinks.
//!
//! Shutdown (from `POST /shutdown`, [`Server::shutdown`], or the CLI's
//! SIGINT handler — idempotent, first caller wins):
//! 1. the store drains: `POST /lease` answers `410 Gone`;
//! 2. wait for in-flight leases to complete or expire;
//! 3. one final aggregation pass over every sink;
//! 4. the final metrics snapshot lands in `<data_dir>/metrics.json`;
//! 5. the accept thread stops and joins.

use crate::aggregate::Aggregator;
use crate::http::{self, Request};
use crate::journal::CrashSpec;
use crate::recovery::RecoveryReport;
use crate::store::{JobStore, LeaseError, LeaseOutcome, RunSpec};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use uvllm_json::{s, Json};

/// How the resident service is wired.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; `127.0.0.1:0` picks an ephemeral port (read it
    /// back from [`Server::addr`]).
    pub addr: String,
    /// Where run directories (`run-N/shard-i.jsonl`) and the final
    /// `metrics.json` live.
    pub data_dir: PathBuf,
    /// Lease duration for submissions that don't specify `lease_ms`.
    pub default_lease: Duration,
    /// The deterministic crash knob (`--crash-after EVENT[:N]`).
    pub crash_after: Option<CrashSpec>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            data_dir: PathBuf::from("campaign-serve"),
            default_lease: Duration::from_secs(60),
            crash_after: None,
        }
    }
}

/// Everything request handlers share.
struct ServeState {
    store: JobStore,
    agg: Aggregator,
    /// Set once the drain has completed; stops the accept loop.
    stopped: AtomicBool,
    /// Guards the shutdown sequence against double entry.
    shutting_down: AtomicBool,
    addr: SocketAddr,
    http_requests: &'static uvllm_obs::Counter,
}

/// A running resident service.
pub struct Server {
    state: Arc<ServeState>,
    accept: JoinHandle<()>,
    recovery: RecoveryReport,
}

impl Server {
    /// Opens the store (recovering the runs a previous process left in
    /// `data_dir` — see [`crate::recovery`]), re-registers them with the
    /// aggregator, marks done each shard whose sink holds all its rows,
    /// binds, spawns the accept thread, returns immediately.
    ///
    /// # Errors
    ///
    /// Bind, data-directory, and journal I/O failures.
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        let (store, recovery) =
            JobStore::open(config.data_dir, config.default_lease, config.crash_after)?;
        if recovery.recovered_state() {
            uvllm_obs::registry().counter("serve.recoveries").inc();
        }
        uvllm_obs::registry()
            .counter("serve.journal.records_replayed")
            .add(recovery.records_replayed);
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ServeState {
            store,
            agg: Aggregator::new(),
            stopped: AtomicBool::new(false),
            shutting_down: AtomicBool::new(false),
            addr,
            http_requests: uvllm_obs::registry().counter("serve.http_requests"),
        });

        // Recovered runs re-enter the aggregator, which re-scans their
        // surviving sinks — rows flushed before the crash are counted
        // again before any worker reconnects. A shard is done exactly
        // when its sink holds a row for every job it owns; the rest are
        // pending, and a re-lease resumes each from its sink.
        let runs = state.store.run_ids();
        for run in &runs {
            let spec = state.store.spec(run).expect("recovered run has a spec");
            let sinks = state.store.sinks(run).expect("recovered run has sinks");
            state.agg.register(run, &spec, sinks);
        }
        state.agg.poll();
        for run in &runs {
            for shard in state.agg.filled_shards(run) {
                state.store.mark_done(run, shard);
            }
        }

        let accept_state = Arc::clone(&state);
        let accept = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_state.stopped.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(mut stream) = stream else { continue };
                let handler_state = Arc::clone(&accept_state);
                // Handlers are one short round trip each; detached is
                // fine — shutdown waits on leases, not sockets.
                std::thread::spawn(move || handle(&handler_state, &mut stream));
            }
        });

        Ok(Server { state, accept, recovery })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// What boot-time recovery found in the data directory (empty
    /// report for a fresh directory).
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// True once a shutdown has been requested (by any path).
    pub fn shutdown_requested(&self) -> bool {
        self.state.shutting_down.load(Ordering::SeqCst)
    }

    /// Runs the graceful-shutdown sequence (drain → wait → final
    /// aggregation → final metrics snapshot) and joins the accept
    /// thread. Safe to call after `POST /shutdown` already started
    /// the sequence — this then just waits for it.
    pub fn shutdown(self) {
        begin_shutdown(&self.state);
        self.join();
    }

    /// Blocks until the service stops (a `POST /shutdown` or a
    /// concurrent [`Server::shutdown`]).
    pub fn join(self) {
        // The accept thread returns only once the drain thread has set
        // `stopped` and connected to it, after the whole sequence.
        let _ = self.accept.join();
    }
}

/// The drain → wait → flush sequence, spawned detached so the
/// requesting HTTP handler can answer before the wait. First caller
/// wins; later calls are no-ops (the sequence is already running).
fn begin_shutdown(state: &Arc<ServeState>) {
    if state.shutting_down.swap(true, Ordering::SeqCst) {
        return;
    }
    // Before the caller is answered, not on the thread below: a client
    // told "draining" must not see a lease granted afterwards.
    state.store.drain();
    let state = Arc::clone(state);
    std::thread::spawn(move || {
        state.store.wait_drained();
        // Completed leases have flushed their rows; fold them in and
        // persist the final metrics snapshot next to the run data.
        state.agg.poll();
        let snapshot = uvllm_obs::registry().snapshot().render();
        let _ = std::fs::write(state.store.data_dir().join("metrics.json"), snapshot);
        state.stopped.store(true, Ordering::SeqCst);
        // Unblock the accept loop's blocking `accept()`.
        let _ = TcpStream::connect(state.addr);
    });
}

fn handle(state: &Arc<ServeState>, stream: &mut TcpStream) {
    let request = match http::read_request(stream) {
        Ok(request) => request,
        Err(e) => {
            let _ = http::respond(stream, 400, "text/plain", &format!("{e}\n"));
            return;
        }
    };
    state.http_requests.inc();
    let (status, content_type, body) = route(state, &request);
    let _ = http::respond(stream, status, content_type, &body);
}

/// Dispatch. Returns `(status, content-type, body)`.
fn route(state: &Arc<ServeState>, request: &Request) -> (u16, &'static str, String) {
    let target = request.target.as_str();
    match (request.method.as_str(), target) {
        ("POST", "/jobs") => post_jobs(state, &request.body),
        ("POST", "/lease") => post_lease(state, &request.body),
        ("POST", "/heartbeat") => post_renewal(state, &request.body, false),
        ("POST", "/complete") => post_renewal(state, &request.body, true),
        ("POST", "/shutdown") => {
            begin_shutdown(state);
            json_ok(Json::Obj(vec![("draining".to_string(), Json::Bool(true))]))
        }
        ("GET", "/healthz") => (200, "text/plain", "ok\n".to_string()),
        ("GET", "/metrics") => {
            // Metrics include per-run row counters; poll first so they
            // reflect every row currently on disk.
            state.agg.poll();
            (200, "application/json", uvllm_obs::registry().snapshot().render())
        }
        ("GET", "/runs") => {
            let runs = state.store.run_ids();
            json_ok(Json::Obj(vec![(
                "runs".to_string(),
                Json::Arr(runs.into_iter().map(s).collect()),
            )]))
        }
        ("GET", path) if path.starts_with("/runs/") => get_run(state, &path["/runs/".len()..]),
        (_, "/jobs" | "/lease" | "/heartbeat" | "/complete" | "/shutdown") => {
            (405, "text/plain", "POST only\n".to_string())
        }
        (_, "/healthz" | "/metrics" | "/runs") => (405, "text/plain", "GET only\n".to_string()),
        _ => (404, "text/plain", format!("no such endpoint: {target}\n")),
    }
}

fn json_ok(json: Json) -> (u16, &'static str, String) {
    (200, "application/json", json.render())
}

fn bad_request(message: impl Into<String>) -> (u16, &'static str, String) {
    let mut body = message.into();
    body.push('\n');
    (400, "text/plain", body)
}

fn post_jobs(state: &Arc<ServeState>, body: &str) -> (u16, &'static str, String) {
    let json = match Json::parse(body) {
        Ok(json) => json,
        Err(e) => return bad_request(format!("bad submission JSON: {e}")),
    };
    let spec = match RunSpec::from_json(&json, state.store.default_lease()) {
        Ok(spec) => spec,
        Err(e) => return bad_request(e),
    };
    let run = match state.store.submit(spec.clone()) {
        Ok(run) => run,
        Err(e) => return (500, "text/plain", format!("submit failed: {e}\n")),
    };
    let Some(sinks) = state.store.sinks(&run) else {
        return (500, "text/plain", format!("store lost run {run} right after accepting it\n"));
    };
    state.agg.register(&run, &spec, sinks);
    json_ok(Json::Obj(vec![
        ("run".to_string(), s(run)),
        ("shards".to_string(), Json::Num(spec.shards as f64)),
    ]))
}

fn post_lease(state: &Arc<ServeState>, body: &str) -> (u16, &'static str, String) {
    let worker = match Json::parse(body) {
        Ok(json) => match json.get("worker").and_then(Json::as_str) {
            Some(worker) => worker.to_string(),
            None => return bad_request("lease request missing member 'worker'"),
        },
        Err(e) => return bad_request(format!("bad lease JSON: {e}")),
    };
    match state.store.lease(&worker) {
        LeaseOutcome::Granted(grant) => json_ok(grant.to_json()),
        LeaseOutcome::Empty => (204, "text/plain", String::new()),
        LeaseOutcome::Draining => (410, "text/plain", "draining\n".to_string()),
    }
}

/// `POST /heartbeat` and `POST /complete` share a body shape
/// (`{run, shard, epoch}`) and an error mapping.
fn post_renewal(
    state: &Arc<ServeState>,
    body: &str,
    complete: bool,
) -> (u16, &'static str, String) {
    let json = match Json::parse(body) {
        Ok(json) => json,
        Err(e) => return bad_request(format!("bad JSON: {e}")),
    };
    let Some(run) = json.get("run").and_then(Json::as_str) else {
        return bad_request("missing member 'run'");
    };
    let Some(shard) = json.get("shard").and_then(Json::as_u64) else {
        return bad_request("missing member 'shard'");
    };
    let Some(epoch) = json.get("epoch").and_then(Json::as_u64) else {
        return bad_request("missing member 'epoch'");
    };
    let result = if complete {
        state.store.complete(run, shard as usize, epoch)
    } else {
        // Optional worker-pushed progress as of its last heartbeat,
        // defaulting to 0 for old clients.
        let rows_done = json.get("rows_done").and_then(Json::as_u64).unwrap_or(0);
        state.store.heartbeat(run, shard as usize, epoch, rows_done)
    };
    match result {
        Ok(()) => json_ok(Json::Obj(vec![("ok".to_string(), Json::Bool(true))])),
        Err(LeaseError::UnknownRun) => (404, "text/plain", format!("no such run: {run}\n")),
        Err(LeaseError::UnknownShard) => (404, "text/plain", format!("no such shard: {shard}\n")),
        Err(LeaseError::LeaseLost) => {
            (409, "text/plain", "lease lost: stale epoch (expired and re-leased?)\n".to_string())
        }
    }
}

/// `GET /runs/<id>` (status JSON) and `GET /runs/<id>/rows` (the
/// deduplicated rows as canonical sorted JSONL, read from the sinks).
fn get_run(state: &Arc<ServeState>, rest: &str) -> (u16, &'static str, String) {
    let (run, rows_only) = match rest.strip_suffix("/rows") {
        Some(run) => (run, true),
        None => (rest, false),
    };
    if rows_only {
        return match state.agg.rows_jsonl(run) {
            None => (404, "text/plain", format!("no such run: {run}\n")),
            Some(Ok(text)) => (200, "application/jsonl", text),
            Some(Err(e)) => (500, "text/plain", format!("run {run}: rows unreadable: {e}\n")),
        };
    }
    let Some(summary) = state.agg.summary(run) else {
        return (404, "text/plain", format!("no such run: {run}\n"));
    };
    let Some((shards, shards_done)) = state.store.status(run) else {
        return (500, "text/plain", format!("run {run} is aggregated but unknown to the store\n"));
    };
    let rows_pushed: u64 = shards.iter().map(|s| s.rows_done).sum();
    let shard_rows: Vec<Json> = shards
        .iter()
        .map(|shard| {
            Json::Obj(vec![
                ("shard".to_string(), Json::Num(shard.shard as f64)),
                ("state".to_string(), s(shard.state)),
                ("worker".to_string(), shard.worker.as_ref().map_or(Json::Null, |w| s(w.clone()))),
                ("steals".to_string(), Json::Num(shard.steals as f64)),
                ("rows_done".to_string(), Json::Num(shard.rows_done as f64)),
            ])
        })
        .collect();
    json_ok(Json::Obj(vec![
        ("run".to_string(), s(run)),
        ("done".to_string(), Json::Bool(shards_done && summary.complete())),
        ("rows".to_string(), Json::Num(summary.rows as f64)),
        ("rows_pushed".to_string(), Json::Num(rows_pushed as f64)),
        ("expected".to_string(), Json::Num(summary.expected as f64)),
        ("shards".to_string(), Json::Arr(shard_rows)),
        ("diags".to_string(), Json::Arr(summary.diags.into_iter().map(s).collect())),
        ("report".to_string(), s(summary.report.as_deref().unwrap_or_default().to_string())),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_dir(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("uvllm-serve-unit-{}-{name}", std::process::id()))
    }

    fn server_at(data_dir: PathBuf) -> Server {
        Server::start(ServeConfig {
            data_dir,
            default_lease: Duration::from_millis(500),
            ..ServeConfig::default()
        })
        .unwrap()
    }

    fn test_server(name: &str) -> Server {
        let data_dir = test_dir(name);
        // Fresh directory: recovery-on-open must not pick up a prior
        // test execution's journal.
        let _ = std::fs::remove_dir_all(&data_dir);
        server_at(data_dir)
    }

    #[test]
    fn routing_basics() {
        let server = test_server("routing");
        let addr = server.addr().to_string();
        let (status, body) = http::request(&addr, "GET", "/healthz", "").unwrap();
        assert_eq!((status, body.as_str()), (200, "ok\n"));
        let (status, _) = http::request(&addr, "GET", "/nope", "").unwrap();
        assert_eq!(status, 404);
        let (status, _) = http::request(&addr, "GET", "/lease", "").unwrap();
        assert_eq!(status, 405);
        let (status, _) = http::request(&addr, "POST", "/metrics", "").unwrap();
        assert_eq!(status, 405);
        let (status, _) = http::request(&addr, "GET", "/runs/run-none", "").unwrap();
        assert_eq!(status, 404);
        let (status, body) = http::request(&addr, "POST", "/jobs", "{").unwrap();
        assert_eq!(status, 400, "{body}");
        let (status, body) = http::request(&addr, "GET", "/metrics", "").unwrap();
        assert_eq!(status, 200);
        uvllm_obs::validate_snapshot_json(&body).unwrap();
        server.shutdown();
    }

    /// A body nested past `uvllm_json::MAX_DEPTH` is a 400 on every
    /// endpoint that parses one, and the server serves the next request
    /// (it used to overflow the handler's stack and abort the process).
    #[test]
    fn a_deeply_nested_body_is_a_400_and_the_server_serves_on() {
        let server = test_server("nested");
        let addr = server.addr().to_string();
        let hostile = "[".repeat(100_000);
        for path in ["/jobs", "/lease", "/heartbeat", "/complete"] {
            let (status, body) = http::request(&addr, "POST", path, &hostile).unwrap();
            assert_eq!(status, 400, "{path}: {body}");
            assert!(body.contains("nesting deeper than 128 levels at byte 128"), "{path}: {body}");
        }
        let (status, body) = http::request(&addr, "GET", "/healthz", "").unwrap();
        assert_eq!((status, body.as_str()), (200, "ok\n"));
        let (status, body) = http::request(&addr, "POST", "/jobs", "{\"size\": 2}").unwrap();
        assert_eq!(status, 200, "{body}");
        server.shutdown();
    }

    /// A run the aggregator knows and the store does not answers the
    /// client with a 500 instead of panicking the handler thread.
    #[test]
    fn store_and_aggregator_disagreement_is_a_500_not_a_panic() {
        let server = test_server("disagree");
        let addr = server.addr().to_string();
        let spec = RunSpec::from_json(
            &Json::parse("{\"size\": 1, \"methods\": [\"Strider\"]}").unwrap(),
            Duration::from_secs(1),
        )
        .unwrap();
        server.state.agg.register("run-ghost", &spec, Vec::new());
        let (status, body) = http::request(&addr, "GET", "/runs/run-ghost", "").unwrap();
        assert_eq!(status, 500, "{body}");
        assert!(body.contains("run-ghost"), "{body}");
        // The rows endpoint needs nothing from the store.
        let (status, body) = http::request(&addr, "GET", "/runs/run-ghost/rows", "").unwrap();
        assert_eq!((status, body.as_str()), (200, ""));
        server.shutdown();
    }

    /// The registry lives as long as the server, so nothing in it may
    /// be keyed by run: a run's row count is in `GET /runs/<id>`.
    #[test]
    fn submissions_register_no_per_run_metric() {
        let server = test_server("no-run-metric");
        let addr = server.addr().to_string();
        for _ in 0..3 {
            let (status, body) =
                http::request(&addr, "POST", "/jobs", "{\"size\": 1, \"shards\": 1}").unwrap();
            assert_eq!(status, 200, "{body}");
        }
        let (status, body) = http::request(&addr, "GET", "/metrics", "").unwrap();
        assert_eq!(status, 200);
        let snapshot = Json::parse(&body).unwrap();
        let Some(Json::Obj(counters)) = snapshot.get("counters") else {
            panic!("no counters object in {body}");
        };
        assert!(counters.iter().any(|(name, _)| name == "serve.jobs_submitted"), "{body}");
        let per_run: Vec<&str> = counters
            .iter()
            .map(|(name, _)| name.as_str())
            .filter(|name| name.starts_with("serve.run."))
            .collect();
        assert!(per_run.is_empty(), "per-run counters leak for the server's life: {per_run:?}");
        server.shutdown();
    }

    #[test]
    fn shutdown_is_graceful_and_idempotent() {
        let server = test_server("shutdown");
        let addr = server.addr().to_string();
        let data_dir = server.state.store.data_dir().to_path_buf();
        let (status, _) =
            http::request(&addr, "POST", "/jobs", "{\"size\": 1, \"shards\": 1}").unwrap();
        assert_eq!(status, 200);
        // Hold a live lease so the drain has something to wait for —
        // the server must keep answering while it waits.
        let (status, grant) =
            http::request(&addr, "POST", "/lease", "{\"worker\": \"w\"}").unwrap();
        assert_eq!(status, 200, "{grant}");
        let grant = Json::parse(&grant).unwrap();
        let (status, body) = http::request(&addr, "POST", "/shutdown", "").unwrap();
        assert_eq!(status, 200, "{body}");
        // Draining: new leases are refused while ours is in flight.
        let (status, _) = http::request(&addr, "POST", "/lease", "{\"worker\": \"w2\"}").unwrap();
        assert_eq!(status, 410);
        let complete = Json::Obj(vec![
            ("run".to_string(), grant.get("run").unwrap().clone()),
            ("shard".to_string(), grant.get("shard").unwrap().clone()),
            ("epoch".to_string(), grant.get("epoch").unwrap().clone()),
        ]);
        let (status, body) = http::request(&addr, "POST", "/complete", &complete.render()).unwrap();
        assert_eq!(status, 200, "{body}");
        server.shutdown(); // second entry: waits, doesn't re-run
        let text = std::fs::read_to_string(data_dir.join("metrics.json")).unwrap();
        uvllm_obs::validate_snapshot_json(&text).unwrap();
    }

    #[test]
    fn restarted_server_recovers_runs_and_fences_old_epochs() {
        let server = test_server("restart");
        let addr = server.addr().to_string();
        let data_dir = server.state.store.data_dir().to_path_buf();
        assert!(!server.recovery().recovered_state(), "fresh directory");
        let (status, body) =
            http::request(&addr, "POST", "/jobs", "{\"size\": 1, \"shards\": 2}").unwrap();
        assert_eq!(status, 200, "{body}");
        let run = Json::parse(&body).unwrap().get("run").unwrap().as_str().unwrap().to_string();
        let (status, grant) =
            http::request(&addr, "POST", "/lease", "{\"worker\": \"doomed\"}").unwrap();
        assert_eq!(status, 200, "{grant}");
        let grant = Json::parse(&grant).unwrap();
        // Stop the first server with the lease still in flight (it
        // expires during the drain); its journal stays on disk.
        server.shutdown();

        let server = server_at(data_dir);
        let report = server.recovery();
        assert!(report.recovered_state(), "{report:?}");
        assert_eq!(report.runs, 1);
        assert!(report.records_replayed > 0, "{report:?}");
        let addr = server.addr().to_string();
        let heartbeat = |epoch: u64| {
            let renewal = Json::Obj(vec![
                ("run".to_string(), s(run.clone())),
                ("shard".to_string(), grant.get("shard").unwrap().clone()),
                ("epoch".to_string(), Json::Num(epoch as f64)),
            ]);
            http::request(&addr, "POST", "/heartbeat", &renewal.render()).unwrap().0
        };
        // The pre-restart worker's epoch answers the canonical 409…
        let doomed = grant.get("epoch").and_then(Json::as_u64).unwrap();
        assert_eq!(heartbeat(doomed), 409, "stale pre-restart epoch must be fenced");
        // …and the run is visible, resumable, and re-grantable.
        let (status, body) = http::request(&addr, "GET", &format!("/runs/{run}"), "").unwrap();
        assert_eq!(status, 200, "{body}");
        let (status, body) =
            http::request(&addr, "POST", "/lease", "{\"worker\": \"heir\"}").unwrap();
        assert_eq!(status, 200, "{body}");
        let heir = Json::parse(&body).unwrap();
        assert_eq!(heir.get("run").unwrap().as_str(), Some(run.as_str()));
        assert_eq!(heir.get("shard"), grant.get("shard"));
        // The heir's epoch counts as far within its generation as the
        // doomed one did in the previous: only the generation fences.
        let heir = heir.get("epoch").and_then(Json::as_u64).unwrap();
        assert_eq!((heir as u32, heir >> 32), (doomed as u32, (doomed >> 32) + 1));
        assert_eq!(heartbeat(doomed), 409, "a pre-restart epoch never names a live lease");
        assert_eq!(heartbeat(heir), 200);
        server.shutdown();
    }
}
