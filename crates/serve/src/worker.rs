//! The leased-shard worker: polls `POST /lease`, runs each granted
//! shard through the normal campaign engine into the grant's JSONL
//! sink, heartbeats while evaluating (renewing the lease, nothing
//! more), fsyncs the sink once, and reports `POST /complete`. The sink
//! is the record of the shard's progress: the server reads rows from it,
//! and a restarted server counts the shard done only if it holds every
//! row.
//!
//! Determinism does the heavy lifting: a worker needs *no* state from
//! the server beyond the grant — the [`RunSpec`](crate::RunSpec) pins
//! the dataset and seeds, the shard index pins the slice, and the
//! sink's resume protocol skips whatever a previous (dead) holder
//! already flushed. A stolen shard therefore continues mid-file and
//! produces rows byte-identical to an uninterrupted run.
//!
//! A shard's turnaround is its engine run: the heartbeat thread waits
//! on a channel, so it stops the moment the run returns (not at its
//! next wake-up), and the worker keeps the datasets it has built
//! (`DATASETS_KEPT` of them) so the shards of one run — or of a
//! resubmitted spec — share one build.
//!
//! Crash-safe serving needs the mirror-image property on this side:
//! with an `addr_file` configured, a worker treats transport errors as
//! "the server is restarting", re-reads the file (a restarted server
//! republishes its — possibly new — address there), and keeps polling
//! within its idle budget; the lease loop and `POST /complete` retry
//! through the one `Endpoint::reconnect`. Leases held across the
//! crash are fenced by the restarted store's new generation, so the
//! reconnecting worker sees the ordinary `409 LeaseLost`, abandons the
//! shard, and re-leases it fresh. A server that never comes back costs
//! a synced shard nothing: the worker counts it lost and returns, and
//! the next server to boot on the data dir finds it done in its sink.

use crate::memo::Memo;
use crate::store::{post_json, LeaseGrant};
use std::path::PathBuf;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;
use uvllm_campaign::{
    Campaign, CampaignConfig, CampaignDataset, EvalRow, JsonlSink, ResultSink, ShardSpec,
};
use uvllm_json::{s, Json};

/// Built datasets a worker keeps, most recently leased first. Two
/// covers a worker alternating between two live runs; the bound is what
/// keeps a resident worker from growing with every spec it has served.
const DATASETS_KEPT: usize = 2;

/// The wait after a lease poll that found no work, and between retries
/// while the server is unreachable.
const POLL: Duration = Duration::from_millis(100);

/// Attempts at `POST /complete` for a worker with no idle budget: one
/// that polls until the server drains must still give up on a server
/// that is gone for good.
const COMPLETE_ATTEMPTS: u64 = 100;

/// The worker's built datasets, keyed by the size and seed
/// [`CampaignDataset::build`] takes (its thread count changes nothing).
type Datasets = Memo<(usize, u64), CampaignDataset>;

/// How a worker process connects and behaves.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Server address, e.g. `127.0.0.1:8091`.
    pub server: String,
    /// Worker name quoted in leases (shows up in run status).
    pub name: String,
    /// Pool threads per leased shard (0 = one per CPU).
    pub workers: usize,
    /// Exit after this many consecutive empty lease polls, 100 ms
    /// apart (`None` = poll until the server drains). With an
    /// `addr_file`, failed polls while the server is down also count
    /// against this budget.
    pub max_idle: Option<u64>,
    /// Exit after the first granted lease finishes (tests, CI).
    pub once: bool,
    /// Fault injection for the steal tests: the sink starts refusing
    /// appends after this many rows, simulating a worker dying
    /// mid-shard (rows already flushed stay on disk; no complete is
    /// reported; the lease expires and someone else finishes the file).
    pub abort_after_rows: Option<usize>,
    /// Where the server publishes its bound address. When set,
    /// transport errors trigger a re-read instead of failing the
    /// worker — the handshake that lets workers outlive a server
    /// crash/restart (which may come back on a different port).
    pub addr_file: Option<PathBuf>,
}

impl WorkerOptions {
    /// Sensible defaults for connecting to `server`.
    pub fn new(server: impl Into<String>) -> WorkerOptions {
        WorkerOptions {
            server: server.into(),
            name: format!("worker-{}", std::process::id()),
            workers: 0,
            max_idle: None,
            once: false,
            abort_after_rows: None,
            addr_file: None,
        }
    }
}

/// What a worker did before exiting.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Leases granted to this worker.
    pub leases: u64,
    /// Shards completed (accepted by the server).
    pub completed: u64,
    /// Shards whose leases this worker stole from expired holders.
    pub stolen: u64,
    /// Shards abandoned by injected sink failure (`abort_after_rows`).
    pub aborted: u64,
    /// Shards evaluated but not completed here: a completion or
    /// heartbeat was refused with a stale epoch — the shard was
    /// re-leased out from under us while we evaluated (work stealing) or
    /// the server crashed and recovery fenced our epoch — or
    /// `POST /complete` found no server within the idle budget. Either
    /// way the rows are synced to the shard's sink, which decides.
    pub lost: u64,
    /// Transport errors survived by re-reading the address file.
    pub reconnects: u64,
}

/// The server address as this worker currently knows it: a plain
/// string, refreshed from the address file after transport errors (by
/// the lease loop and the heartbeat thread alike, hence the lock).
#[derive(Debug)]
struct Endpoint {
    addr: Mutex<String>,
    file: Option<PathBuf>,
}

impl Endpoint {
    fn new(options: &WorkerOptions) -> Endpoint {
        Endpoint { addr: Mutex::new(options.server.clone()), file: options.addr_file.clone() }
    }

    fn get(&self) -> String {
        self.addr.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// Re-reads the address file (if any). Returns true when refresh
    /// is possible at all — false means there is no file and transport
    /// errors are fatal, preserving the plain-address behavior.
    fn refresh(&self) -> bool {
        let Some(file) = &self.file else { return false };
        if let Ok(text) = std::fs::read_to_string(file) {
            let text = text.trim();
            if !text.is_empty() {
                *self.addr.lock().unwrap_or_else(PoisonError::into_inner) = text.to_string();
            }
        }
        true
    }

    /// Rides out the transport error `error` of a call the caller is
    /// about to retry: refreshes the address, counts a reconnect and
    /// spends one poll of the idle budget. `Ok(true)`: call again;
    /// `Ok(false)`: the budget is spent. Without an address file the
    /// error is returned: it is fatal.
    fn reconnect(
        &self,
        error: String,
        idle: &mut Idle,
        summary: &mut WorkerSummary,
    ) -> Result<bool, String> {
        if !self.refresh() {
            return Err(error);
        }
        summary.reconnects += 1;
        Ok(idle.wait())
    }
}

/// Consecutive polls that found no work or no server, against a budget.
struct Idle {
    spent: u64,
    budget: Option<u64>,
}

impl Idle {
    fn new(budget: Option<u64>) -> Idle {
        Idle { spent: 0, budget }
    }

    /// Spends one poll: `false` when that was the budget's last,
    /// otherwise waits [`POLL`] and returns `true`.
    fn wait(&mut self) -> bool {
        self.spent += 1;
        if self.budget.is_some_and(|budget| self.spent >= budget) {
            return false;
        }
        std::thread::sleep(POLL);
        true
    }
}

/// Runs the worker loop until the server drains, the idle budget runs
/// out, or (`once`) the first lease finishes.
///
/// # Errors
///
/// Transport failures (without an `addr_file`) and undecodable grants.
/// A lost lease is *not* an error — the thief owns the shard now; it
/// counts in the summary.
pub fn run_worker(options: &WorkerOptions) -> Result<WorkerSummary, String> {
    let endpoint = Endpoint::new(options);
    let mut datasets = Datasets::new(DATASETS_KEPT);
    let mut summary = WorkerSummary::default();
    let mut idle = Idle::new(options.max_idle);
    loop {
        let body = Json::Obj(vec![("worker".to_string(), s(options.name.clone()))]);
        let again = match post_json(&endpoint.get(), "/lease", &body) {
            // Server unreachable: with an address file, a restart in
            // progress.
            Err(e) => endpoint.reconnect(e, &mut idle, &mut summary)?,
            Ok((410, _)) => break,
            Ok((204, _)) => idle.wait(),
            Ok((200, json)) => {
                idle.spent = 0;
                let grant = LeaseGrant::from_json(&json)?;
                summary.leases += 1;
                if grant.stolen {
                    summary.stolen += 1;
                }
                run_lease(options, &endpoint, &grant, &mut datasets, &mut summary)?;
                !options.once
            }
            Ok((other, _)) => return Err(format!("POST /lease: unexpected status {other}")),
        };
        if !again {
            break;
        }
    }
    Ok(summary)
}

/// Renews a lease every `interval` until `stop` fires — a message, or
/// (what [`run_lease`] does) the sender dropped — and returns at once
/// when it does, however long the interval. `send` posts one heartbeat
/// and returns the reply's status. Returns true if the lease was lost:
/// a 409 means it was re-granted, so renewing stops (the thief owns
/// the shard now). Other statuses and transport errors keep trying;
/// the deadline is the arbiter.
fn heartbeat_loop(
    stop: &mpsc::Receiver<()>,
    interval: Duration,
    mut send: impl FnMut() -> Result<u16, String>,
) -> bool {
    while let Err(RecvTimeoutError::Timeout) = stop.recv_timeout(interval) {
        if let Ok(409) = send() {
            return true;
        }
    }
    false
}

/// One granted shard: campaign run + heartbeats + completion report.
fn run_lease(
    options: &WorkerOptions,
    endpoint: &Endpoint,
    grant: &LeaseGrant,
    datasets: &mut Datasets,
    summary: &mut WorkerSummary,
) -> Result<(), String> {
    let spec = &grant.spec;
    let config = CampaignConfig {
        dataset_size: spec.size,
        dataset_seed: spec.seed,
        methods: spec.methods.clone(),
        workers: options.workers,
        shard: ShardSpec { index: grant.shard, count: spec.shards },
        ..CampaignConfig::default()
    };
    let campaign = Campaign::new(config).map_err(|e| format!("bad grant config: {e}"))?;
    let sink = JsonlSink::open(&grant.sink)
        .map_err(|e| format!("cannot open sink {}: {e}", grant.sink.display()))?;
    let mut sink = AbortingSink::new(sink, options.abort_after_rows);

    // Heartbeat at a third of the lease so two misses still fit inside
    // the deadline. The thread starts before the dataset is looked up:
    // a first lease builds it, and that must not eat into the deadline
    // unrenewed.
    let interval = (grant.lease / 3).max(Duration::from_millis(10));
    let (stop, stopped) = mpsc::channel::<()>();
    let (run, lost) = std::thread::scope(|scope| {
        let beat = scope.spawn(move || {
            heartbeat_loop(&stopped, interval, || {
                // A restarting server may move: refresh the address on
                // transport errors.
                post_json(&endpoint.get(), "/heartbeat", &renewal_body(grant))
                    .map(|(status, _)| status)
                    .inspect_err(|_| {
                        endpoint.refresh();
                    })
            })
        });
        let dataset =
            datasets.get_or_insert_with((spec.size, spec.seed), || campaign.build_dataset());
        // The sink's rows must outlive a power loss before the server
        // is told the shard is done.
        let run = campaign.run_on(dataset, &mut sink).and_then(|outcome| {
            sink.sync()?;
            Ok(outcome)
        });
        drop(stop);
        // A heartbeat thread that died renewed nothing and learned
        // nothing: `POST /complete` still answers 409 if the lease went.
        (run, beat.join().unwrap_or(false))
    });

    match run {
        Err(_) if sink.aborted() => {
            // Injected death: rows flushed so far stay on disk, no
            // completion is reported, the lease runs out its deadline.
            summary.aborted += 1;
            Ok(())
        }
        Err(e) => Err(format!("shard {}/{} failed: {e}", grant.run, grant.shard)),
        Ok(_) => {
            if lost {
                summary.lost += 1;
                return Ok(());
            }
            match post_complete(options, endpoint, grant, summary)? {
                Some(200) => summary.completed += 1,
                Some(409) | None => summary.lost += 1,
                Some(other) => return Err(format!("POST /complete: unexpected status {other}")),
            }
            Ok(())
        }
    }
}

/// Reports completion and returns the reply's status, riding out a
/// restarting server: with an `addr_file`, transport errors refresh the
/// address and retry within the idle budget (the shard's rows are
/// already synced to its sink, and a restarted server answers 409 to
/// the old epoch). `None`: the budget ran out with no server; the sink
/// decides at the next server's boot.
fn post_complete(
    options: &WorkerOptions,
    endpoint: &Endpoint,
    grant: &LeaseGrant,
    summary: &mut WorkerSummary,
) -> Result<Option<u16>, String> {
    let body = renewal_body(grant);
    let mut idle = Idle::new(Some(options.max_idle.unwrap_or(COMPLETE_ATTEMPTS)));
    loop {
        match post_json(&endpoint.get(), "/complete", &body) {
            Ok((status, _)) => return Ok(Some(status)),
            Err(e) => {
                if !endpoint.reconnect(e, &mut idle, summary)? {
                    return Ok(None);
                }
            }
        }
    }
}

/// The body of `POST /heartbeat` and `POST /complete`: the lease's
/// identity and epoch.
fn renewal_body(grant: &LeaseGrant) -> Json {
    Json::Obj(vec![
        ("run".to_string(), s(grant.run.clone())),
        ("shard".to_string(), Json::Num(grant.shard as f64)),
        ("epoch".to_string(), Json::Num(grant.epoch as f64)),
    ])
}

/// A sink that dies on schedule: forwards the first `limit` appends to
/// the wrapped [`JsonlSink`], then refuses every append with an I/O
/// error. `limit: None` forwards everything. Because the engine
/// flushes per row, the file is left exactly as a `kill -9` at that
/// point would leave it — which is what the steal tests need.
struct AbortingSink {
    inner: JsonlSink,
    limit: Option<usize>,
    written: usize,
    aborted: bool,
}

impl AbortingSink {
    fn new(inner: JsonlSink, limit: Option<usize>) -> AbortingSink {
        AbortingSink { inner, limit, written: 0, aborted: false }
    }

    fn aborted(&self) -> bool {
        self.aborted
    }

    fn sync(&mut self) -> std::io::Result<()> {
        self.inner.sync()
    }
}

impl ResultSink for AbortingSink {
    fn completed_ids(&self) -> std::collections::HashSet<String> {
        self.inner.completed_ids()
    }

    fn existing_rows(&self) -> Vec<EvalRow> {
        self.inner.existing_rows()
    }

    fn append(&mut self, row: &EvalRow) -> std::io::Result<()> {
        if self.limit.is_some_and(|limit| self.written >= limit) {
            self.aborted = true;
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "injected worker death",
            ));
        }
        self.inner.append(row)?;
        self.written += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{read_request, respond};
    use crate::store::RunSpec;
    use std::net::TcpListener;
    use std::time::Instant;
    use uvllm_campaign::MethodKind;

    /// A shard evaluated and synced whose server then goes for good: the
    /// address file names a closed port, so every `POST /complete`
    /// retry fails to connect. The worker counts the shard lost and
    /// returns; the row stays in the sink for the next server's boot.
    #[test]
    fn a_synced_shard_survives_a_server_gone_for_good() {
        let dir = std::env::temp_dir().join(format!("uvllm-worker-{}-gone", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let closed = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        let addr_file = dir.join("serve.addr");
        std::fs::write(&addr_file, format!("{closed}\n")).unwrap();
        let lease = Duration::from_secs(60);
        let spec = RunSpec {
            size: 1,
            seed: 0xDA7A,
            methods: vec![MethodKind::RtlRepair],
            shards: 1,
            lease,
        };
        let sink = dir.join("run-1.shard-0.jsonl");
        let grant = LeaseGrant {
            run: "run-1".to_string(),
            shard: 0,
            epoch: 1,
            stolen: false,
            lease,
            sink: sink.clone(),
            spec,
        };
        // A server that grants one lease and is gone before the worker
        // reads the grant.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let server = listener.local_addr().unwrap();
        let granting = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            drop(listener);
            read_request(&mut stream).unwrap();
            respond(&mut stream, 200, "application/json", &grant.to_json().render()).unwrap();
        });
        let options = WorkerOptions {
            workers: 1,
            max_idle: Some(2),
            once: true,
            addr_file: Some(addr_file),
            ..WorkerOptions::new(server.to_string())
        };
        let summary = run_worker(&options).expect("a synced shard never fails the worker");
        granting.join().unwrap();
        assert_eq!((summary.leases, summary.completed, summary.lost), (1, 0, 1));
        assert_eq!(summary.reconnects, 2, "one per failed POST /complete");
        assert_eq!(std::fs::read_to_string(&sink).unwrap().lines().count(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn heartbeat_beats_at_the_interval_until_stopped() {
        let (stop, stopped) = mpsc::channel::<()>();
        let (beat, beats) = mpsc::channel::<Instant>();
        let started = Instant::now();
        let interval = Duration::from_millis(20);
        let lost = std::thread::scope(|scope| {
            let heart = scope.spawn(move || {
                heartbeat_loop(&stopped, interval, || {
                    beat.send(Instant::now()).unwrap();
                    Ok(200)
                })
            });
            // The beats themselves are the clock: no sleeping here.
            let third = beats.iter().nth(2).expect("three beats while running");
            assert!(third - started >= 3 * interval, "beats come no faster than the interval");
            drop(stop);
            heart.join().unwrap()
        });
        assert!(!lost);
    }

    #[test]
    fn heartbeat_returns_at_once_when_stopped_whatever_the_interval() {
        let (stop, stopped) = mpsc::channel::<()>();
        let started = Instant::now();
        let lost = std::thread::scope(|scope| {
            let heart = scope.spawn(move || {
                heartbeat_loop(&stopped, Duration::from_secs(60), || {
                    panic!("no beat is due within the test")
                })
            });
            drop(stop);
            heart.join().unwrap()
        });
        assert!(!lost);
        assert!(started.elapsed() < Duration::from_secs(5), "took {:?}", started.elapsed());
    }

    #[test]
    fn heartbeat_stops_itself_on_409_and_rides_out_other_replies() {
        // The sender stays alive: only the 409 can end the loop.
        let (_stop, stopped) = mpsc::channel::<()>();
        let mut replies =
            vec![Ok(200), Err("connection refused".to_string()), Ok(404), Ok(409)].into_iter();
        let mut sent = 0;
        let lost = heartbeat_loop(&stopped, Duration::from_millis(1), || {
            sent += 1;
            replies.next().expect("the loop stops at the 409")
        });
        assert!(lost);
        assert_eq!(sent, 4);
    }
}
