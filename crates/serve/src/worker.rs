//! The leased-shard worker: polls `POST /lease`, runs each granted
//! shard through the normal campaign engine into the grant's JSONL
//! sink, heartbeats while evaluating (pushing `rows_done` progress),
//! fsyncs the sink once, and reports `POST /complete`. The sink is the
//! durable record of the shard's progress: a restarted server counts
//! the shard done only if its sink holds every row.
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
//! ([`DATASETS_KEPT`] of them) so the shards of one run — or of a
//! resubmitted spec — share one build.
//!
//! Crash-safe serving needs the mirror-image property on this side:
//! with an `addr_file` configured, a worker treats transport errors as
//! "the server is restarting", re-reads the file (a restarted server
//! republishes its — possibly new — address there), and keeps polling
//! within its idle budget. Leases held across the crash are fenced by
//! the restarted store's new generation, so the reconnecting worker
//! sees the ordinary `409 LeaseLost`, abandons the shard, and re-leases
//! it fresh.

use crate::memo::Memo;
use crate::store::{post_json, LeaseGrant};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, PoisonError};
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
    /// Completions/heartbeats refused with a stale epoch — the shard
    /// was re-leased out from under us while we evaluated (work
    /// stealing) or the server crashed and recovery fenced our epoch.
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
    let mut idle = 0u64;
    loop {
        let body = Json::Obj(vec![("worker".to_string(), s(options.name.clone()))]);
        let (status, json) = match post_json(&endpoint.get(), "/lease", &body) {
            Ok(reply) => reply,
            Err(e) => {
                // Server unreachable. With an address file this is a
                // restart in progress: refresh, spend idle budget,
                // retry. Without one it stays fatal.
                if !endpoint.refresh() {
                    return Err(e);
                }
                summary.reconnects += 1;
                idle += 1;
                if options.max_idle.is_some_and(|max| idle >= max) {
                    break;
                }
                std::thread::sleep(POLL);
                continue;
            }
        };
        match status {
            410 => break,
            204 => {
                idle += 1;
                if options.max_idle.is_some_and(|max| idle >= max) {
                    break;
                }
                std::thread::sleep(POLL);
                continue;
            }
            200 => {}
            other => return Err(format!("POST /lease: unexpected status {other}")),
        }
        idle = 0;
        let grant = LeaseGrant::from_json(&json)?;
        summary.leases += 1;
        if grant.stolen {
            summary.stolen += 1;
        }
        run_lease(options, &endpoint, &grant, &mut datasets, &mut summary)?;
        if options.once {
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
    // The progress the heartbeat pushes counts everything in the sink,
    // including rows a previous holder flushed before dying.
    let rows_done = Arc::new(AtomicU64::new(sink.completed_ids().len() as u64));
    let mut sink = AbortingSink::new(sink, options.abort_after_rows, Arc::clone(&rows_done));

    // Heartbeat at a third of the lease so two misses still fit inside
    // the deadline. The thread starts before the dataset is looked up:
    // a first lease builds it, and that must not eat into the deadline
    // unrenewed.
    let interval = (grant.lease / 3).max(Duration::from_millis(10));
    let (stop, stopped) = mpsc::channel::<()>();
    let rows_pushed = &*rows_done;
    let (run, lost) = std::thread::scope(|scope| {
        let beat = scope.spawn(move || {
            heartbeat_loop(&stopped, interval, || {
                let body = renewal_body(grant, Some(rows_pushed.load(Ordering::SeqCst)));
                // A restarting server may move: refresh the address on
                // transport errors.
                post_json(&endpoint.get(), "/heartbeat", &body)
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
            let (status, _) = post_complete(options, endpoint, grant, summary)?;
            match status {
                200 => summary.completed += 1,
                409 => summary.lost += 1,
                other => return Err(format!("POST /complete: unexpected status {other}")),
            }
            Ok(())
        }
    }
}

/// Reports completion, riding out a restarting server: with an
/// `addr_file`, transport errors refresh the address and retry within
/// the idle budget (the shard's rows are already synced to its sink,
/// and a restarted server answers 409 to the old epoch — both outcomes
/// are fine, silence is not).
fn post_complete(
    options: &WorkerOptions,
    endpoint: &Endpoint,
    grant: &LeaseGrant,
    summary: &mut WorkerSummary,
) -> Result<(u16, Json), String> {
    let body = renewal_body(grant, None);
    let retries = options.max_idle.unwrap_or(100);
    let mut attempt = 0u64;
    loop {
        match post_json(&endpoint.get(), "/complete", &body) {
            Ok(reply) => return Ok(reply),
            Err(e) => {
                attempt += 1;
                if !endpoint.refresh() || attempt >= retries {
                    return Err(e);
                }
                summary.reconnects += 1;
                std::thread::sleep(POLL);
            }
        }
    }
}

fn renewal_body(grant: &LeaseGrant, rows_done: Option<u64>) -> Json {
    let mut members = vec![
        ("run".to_string(), s(grant.run.clone())),
        ("shard".to_string(), Json::Num(grant.shard as f64)),
        ("epoch".to_string(), Json::Num(grant.epoch as f64)),
    ];
    if let Some(rows) = rows_done {
        members.push(("rows_done".to_string(), Json::Num(rows as f64)));
    }
    Json::Obj(members)
}

/// A sink that dies on schedule: forwards the first `limit` appends to
/// the wrapped [`JsonlSink`], then refuses every append with an I/O
/// error. `limit: None` forwards everything. Because the engine
/// flushes per row, the file is left exactly as a `kill -9` at that
/// point would leave it — which is what the steal tests need. Also
/// the worker's progress meter: every successful append bumps the
/// shared counter the heartbeat thread reads.
struct AbortingSink {
    inner: JsonlSink,
    limit: Option<usize>,
    written: usize,
    aborted: bool,
    rows_done: Arc<AtomicU64>,
}

impl AbortingSink {
    fn new(inner: JsonlSink, limit: Option<usize>, rows_done: Arc<AtomicU64>) -> AbortingSink {
        AbortingSink { inner, limit, written: 0, aborted: false, rows_done }
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
        self.rows_done.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

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
