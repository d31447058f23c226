//! The leasable job store: submitted runs split into shards, shards
//! leased to workers under deadlines, expired leases reclaimed and
//! re-granted (work stealing).
//!
//! Epoch fencing makes stealing safe without distributed locks: every
//! grant carries the shard's current epoch, and heartbeat/complete
//! calls quoting a stale epoch are refused (`LeaseLost` → HTTP 409).
//! A `complete` with the *matching* epoch is accepted even past the
//! deadline — the rows are already on disk and byte-identical to what
//! any other worker would produce, so late completion loses nothing.
//!
//! The store's state is a [`StoreImage`]. Only submissions are
//! durable: [`JobStore::submit`] appends and fsyncs the run's spec to
//! `data_dir/journal.jsonl` (see [`crate::journal`]) before it answers,
//! and folds it in with the [`StoreImage::apply`] that boot replay runs.
//! Lease, heartbeat and complete change the image in memory and touch
//! no file: which shards are done is a fact about their sinks, which
//! the worker fsyncs before it reports `complete` and the server reads
//! back on boot (see [`crate::recovery`]). Lease deadlines live beside
//! the image.
//!
//! [`JobStore::open`] appends one fsynced `boot` record. The number of
//! boot records so far is the store's generation, and every epoch it
//! grants carries it in the high 32 bits, so no epoch a pre-crash
//! worker quotes can name a live lease.
//!
//! Leases are granted round-robin across active runs: the scan starts
//! at the run after the previously granted one, so two concurrent
//! campaigns interleave rather than the first submitted starving the
//! second.

use crate::http;
use crate::journal::{CrashSpec, Event, Journal, JournalConfig};
use crate::recovery::{self, RecoveryReport, RunImage, ShardPhase, StoreImage};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};
use uvllm_campaign::{parse_seed, MethodKind};
use uvllm_json::{s, Json};

/// Registry handles for the store (`serve.*`), resolved once.
#[derive(Debug)]
struct StoreMetrics {
    jobs_submitted: &'static uvllm_obs::Counter,
    leases_granted: &'static uvllm_obs::Counter,
    leases_expired: &'static uvllm_obs::Counter,
    leases_stolen: &'static uvllm_obs::Counter,
    heartbeats: &'static uvllm_obs::Counter,
}

fn metrics() -> &'static StoreMetrics {
    static METRICS: std::sync::OnceLock<StoreMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| StoreMetrics {
        jobs_submitted: uvllm_obs::registry().counter("serve.jobs_submitted"),
        leases_granted: uvllm_obs::registry().counter("serve.leases.granted"),
        leases_expired: uvllm_obs::registry().counter("serve.leases.expired"),
        leases_stolen: uvllm_obs::registry().counter("serve.leases.stolen"),
        heartbeats: uvllm_obs::registry().counter("serve.heartbeats"),
    })
}

/// What a submitted run evaluates — the wire form of the deterministic
/// subset of [`uvllm_campaign::CampaignConfig`]. Every field feeds the
/// row byte-identity contract, so the server hands the *same* spec to
/// every worker that leases one of the run's shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSpec {
    /// Benchmark instances to build.
    pub size: usize,
    /// Dataset seed.
    pub seed: u64,
    /// Methods to evaluate on every instance.
    pub methods: Vec<MethodKind>,
    /// How many shards the job space is split into.
    pub shards: usize,
    /// Lease duration granted per shard.
    pub lease: Duration,
}

impl RunSpec {
    /// Decodes a submission body. Every member except `size` has a
    /// default; `seed` accepts a hex string (`"0x42"`) or a number —
    /// the hex-string form is canonical because f64 JSON numbers lose
    /// precision above 2^53. Members of retired options (`opt_level`,
    /// `backend`) are ignored whatever their value: every value they
    /// took produced the same rows.
    ///
    /// # Errors
    ///
    /// Names the offending member.
    pub fn from_json(json: &Json, default_lease: Duration) -> Result<RunSpec, String> {
        let size =
            json.get("size")
                .ok_or("submission missing member 'size'")?
                .as_u64()
                .ok_or("submission member 'size' must be a positive integer")? as usize;
        if size == 0 {
            return Err("submission member 'size' must be >= 1".to_string());
        }
        let seed = match json.get("seed") {
            None => 0xDA7A,
            Some(v) => seed_member(v)?,
        };
        let methods = match json.get("methods") {
            None => MethodKind::ALL.to_vec(),
            Some(v) => {
                let arr = v
                    .as_array()
                    .ok_or("submission member 'methods' must be an array of method labels")?;
                let mut methods = Vec::with_capacity(arr.len());
                for item in arr {
                    let label =
                        item.as_str().ok_or("submission member 'methods' must contain strings")?;
                    methods.push(
                        MethodKind::from_label(label)
                            .ok_or_else(|| format!("unknown method label '{label}'"))?,
                    );
                }
                if methods.is_empty() {
                    return Err("submission member 'methods' must not be empty".to_string());
                }
                methods
            }
        };
        let shards = match json.get("shards") {
            None => 1,
            Some(v) => v
                .as_u64()
                .filter(|&n| n >= 1)
                .ok_or("submission member 'shards' must be a positive integer")?
                as usize,
        };
        let lease = match json.get("lease_ms") {
            None => default_lease,
            Some(v) => Duration::from_millis(
                v.as_u64().ok_or("submission member 'lease_ms' must be a positive integer")?,
            ),
        };
        Ok(RunSpec { size, seed, methods, shards, lease })
    }

    /// The wire form, round-trippable through [`RunSpec::from_json`].
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("size".to_string(), Json::Num(self.size as f64)),
            ("seed".to_string(), s(format!("0x{:X}", self.seed))),
            ("methods".to_string(), Json::Arr(self.methods.iter().map(|m| s(m.label())).collect())),
            ("shards".to_string(), Json::Num(self.shards as f64)),
            ("lease_ms".to_string(), Json::Num(self.lease.as_millis() as f64)),
        ])
    }
}

fn seed_member(v: &Json) -> Result<u64, String> {
    if let Some(text) = v.as_str() {
        return parse_seed(text).map_err(|e| format!("submission member 'seed': {e}"));
    }
    v.as_u64().ok_or_else(|| {
        "submission member 'seed' must be a hex string like \"0xDA7A\" or an integer".to_string()
    })
}

/// One granted lease, everything a worker needs to run the shard.
#[derive(Debug, Clone)]
pub struct LeaseGrant {
    pub run: String,
    pub shard: usize,
    pub epoch: u64,
    /// True when this grant reclaimed an expired lease from another
    /// worker.
    pub stolen: bool,
    pub lease: Duration,
    pub sink: PathBuf,
    pub spec: RunSpec,
}

impl LeaseGrant {
    /// The wire form handed to workers.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("run".to_string(), s(self.run.clone())),
            ("shard".to_string(), Json::Num(self.shard as f64)),
            ("epoch".to_string(), Json::Num(self.epoch as f64)),
            ("stolen".to_string(), Json::Bool(self.stolen)),
            ("lease_ms".to_string(), Json::Num(self.lease.as_millis() as f64)),
            ("sink".to_string(), s(self.sink.display().to_string())),
            ("config".to_string(), self.spec.to_json()),
        ])
    }

    /// Decodes a grant on the worker side.
    ///
    /// # Errors
    ///
    /// Names the missing or malformed member.
    pub fn from_json(json: &Json) -> Result<LeaseGrant, String> {
        let run =
            json.get("run").and_then(Json::as_str).ok_or("grant missing member 'run'")?.to_string();
        let shard =
            json.get("shard").and_then(Json::as_u64).ok_or("grant missing member 'shard'")?
                as usize;
        let epoch =
            json.get("epoch").and_then(Json::as_u64).ok_or("grant missing member 'epoch'")?;
        let stolen = json.get("stolen").and_then(Json::as_bool).unwrap_or(false);
        let lease = Duration::from_millis(
            json.get("lease_ms").and_then(Json::as_u64).ok_or("grant missing member 'lease_ms'")?,
        );
        let sink = PathBuf::from(
            json.get("sink").and_then(Json::as_str).ok_or("grant missing member 'sink'")?,
        );
        let spec =
            RunSpec::from_json(json.get("config").ok_or("grant missing member 'config'")?, lease)?;
        Ok(LeaseGrant { run, shard, epoch, stolen, lease, sink, spec })
    }
}

/// What `POST /lease` answers.
#[derive(Debug)]
pub enum LeaseOutcome {
    /// Work to do.
    Granted(Box<LeaseGrant>),
    /// Nothing pending right now — poll again.
    Empty,
    /// The server is draining; workers should exit.
    Draining,
}

/// Why a heartbeat/complete was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeaseError {
    /// No such run id (HTTP 404).
    UnknownRun,
    /// Shard index out of range (HTTP 404).
    UnknownShard,
    /// The quoted epoch is stale: the lease expired and was re-granted,
    /// the shard was completed by someone else, or the epoch is from
    /// before a restart (HTTP 409).
    LeaseLost,
}

/// A summary row for `GET /runs/<id>`.
#[derive(Debug, Clone)]
pub struct ShardStatus {
    pub shard: usize,
    /// `"pending" | "leased" | "done"`.
    pub state: &'static str,
    /// Current or completing worker, if any.
    pub worker: Option<String>,
    pub steals: u64,
    /// Last worker-pushed progress for this shard.
    pub rows_done: u64,
}

/// Everything under the store mutex.
#[derive(Debug)]
struct StoreInner {
    image: StoreImage,
    journal: Journal,
    /// Lease deadlines by `(run index, shard)`: an entry exactly while
    /// that shard is leased. Process-local, so beside the image.
    deadlines: HashMap<(usize, usize), Instant>,
    /// Round-robin cursor: index of the run the next lease scan starts
    /// at, advanced past each run that grants.
    cursor: usize,
    /// The number the next submitted run's `run-N` id gets.
    next_run: u64,
    /// The armed crash knob, and the matching transitions seen so far.
    crash_after: Option<CrashSpec>,
    crash_matches: u64,
}

impl StoreInner {
    /// Journals `event` (fsynced), then folds it into the image with
    /// the function boot replay runs.
    fn commit(&mut self, event: &Event, data_dir: &Path) -> std::io::Result<()> {
        let seq = self.journal.append(event)?;
        self.crash_point(event.kind());
        let mut diags = Vec::new();
        self.image.apply(seq, event, data_dir, &mut diags);
        debug_assert!(diags.is_empty(), "a validated record failed to apply: {diags:?}");
        Ok(())
    }

    /// The crash knob: aborts the process (no destructors, no reply —
    /// what `kill -9` leaves) at the armed transition, after its durable
    /// effect, if it has one, and before its state change.
    fn crash_point(&mut self, transition: &str) {
        let Some(crash) = &self.crash_after else { return };
        if crash.event == transition {
            self.crash_matches += 1;
            if self.crash_matches == crash.count {
                eprintln!("crash-after {}:{}: aborting now", crash.event, crash.count);
                std::process::abort();
            }
        }
    }

    fn run(&self, id: &str) -> Option<&RunImage> {
        self.image.runs.iter().find(|r| r.id == id)
    }

    /// The run's index, if the lease `epoch` names on its `shard` is
    /// still the shard's.
    fn live_lease(&self, run: &str, shard: usize, epoch: u64) -> Result<usize, LeaseError> {
        let index =
            self.image.runs.iter().position(|r| r.id == run).ok_or(LeaseError::UnknownRun)?;
        let image = self.image.runs[index].shards.get(shard).ok_or(LeaseError::UnknownShard)?;
        match image.phase {
            ShardPhase::Leased if image.epoch == epoch => Ok(index),
            _ => Err(LeaseError::LeaseLost),
        }
    }
}

/// The resident store behind the HTTP surface. All mutation goes
/// through one mutex — the unit of work is a whole campaign shard, so
/// store contention is noise.
#[derive(Debug)]
pub struct JobStore {
    data_dir: PathBuf,
    default_lease: Duration,
    inner: Mutex<StoreInner>,
    /// Paired with `inner`: notified when a lease completes, so
    /// [`JobStore::wait_drained`] wakes without polling.
    lease_done: Condvar,
    draining: AtomicBool,
}

impl JobStore {
    fn lock(&self) -> std::sync::MutexGuard<'_, StoreInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Opens the store on `data_dir`, recovering the runs a previous
    /// process submitted there with every shard pending (the server
    /// then marks done the shards whose sinks hold all their rows), and
    /// journals this boot. A fresh directory recovers to an empty store
    /// with an empty report. `crash_after` arms the crash knob.
    ///
    /// # Errors
    ///
    /// Directory-creation and journal I/O failures (corruption is a
    /// report diagnostic, not an error).
    pub fn open(
        data_dir: impl Into<PathBuf>,
        default_lease: Duration,
        crash_after: Option<CrashSpec>,
    ) -> std::io::Result<(JobStore, RecoveryReport)> {
        let data_dir = data_dir.into();
        std::fs::create_dir_all(&data_dir)?;
        let recovered = recovery::recover(&data_dir)?;
        let image = recovered.image;
        let journal = Journal::open(&data_dir, JournalConfig::default(), image.seq + 1, 0)?;
        let next_run = image.max_run_number() + 1;
        let mut inner = StoreInner {
            image,
            journal,
            deadlines: HashMap::new(),
            cursor: 0,
            next_run,
            crash_after,
            crash_matches: 0,
        };
        // Durable before any grant: two boots never share a generation.
        inner.commit(&Event::Boot, &data_dir)?;
        let store = JobStore {
            data_dir,
            default_lease,
            inner: Mutex::new(inner),
            lease_done: Condvar::new(),
            draining: AtomicBool::new(false),
        };
        Ok((store, recovered.report))
    }

    pub fn data_dir(&self) -> &Path {
        &self.data_dir
    }

    pub fn default_lease(&self) -> Duration {
        self.default_lease
    }

    /// Registers a run and creates its shard-sink directory. Returns
    /// the run id.
    ///
    /// # Errors
    ///
    /// Directory-creation and journal failures.
    pub fn submit(&self, spec: RunSpec) -> std::io::Result<String> {
        let mut inner = self.lock();
        let run = format!("run-{}", inner.next_run);
        inner.next_run += 1;
        std::fs::create_dir_all(self.data_dir.join(&run))?;
        inner.commit(&Event::Submit { run: run.clone(), spec }, &self.data_dir)?;
        drop(inner);
        metrics().jobs_submitted.inc();
        Ok(run)
    }

    /// Grants an available shard, scanning runs round-robin from the
    /// cursor so concurrent runs interleave: pending shards first
    /// within a run, then expired leases (reclaimed, epoch bumped,
    /// marked stolen).
    pub fn lease(&self, worker: &str) -> LeaseOutcome {
        if self.draining.load(Ordering::SeqCst) {
            return LeaseOutcome::Draining;
        }
        let now = Instant::now();
        let mut guard = self.lock();
        let inner = &mut *guard;
        let count = inner.image.runs.len();
        for offset in 0..count {
            let run_index = (inner.cursor + offset) % count;
            let run = &inner.image.runs[run_index];
            let expired =
                |shard| inner.deadlines.get(&(run_index, shard)).is_none_or(|d| *d <= now);
            let candidate =
                run.shards.iter().enumerate().find_map(|(i, shard)| match shard.phase {
                    ShardPhase::Pending => Some((i, false)),
                    ShardPhase::Leased if expired(i) => Some((i, true)),
                    _ => None,
                });
            let Some((shard, stolen)) = candidate else { continue };
            inner.crash_point("lease");
            let generation = inner.image.boots << 32;
            let run = &mut inner.image.runs[run_index];
            let image = &mut run.shards[shard];
            image.phase = ShardPhase::Leased;
            image.worker = Some(worker.to_string());
            image.epoch = image.epoch.max(generation) + 1;
            image.steals += u64::from(stolen);
            inner.deadlines.insert((run_index, shard), now + run.spec.lease);
            if stolen {
                metrics().leases_expired.inc();
                metrics().leases_stolen.inc();
            }
            metrics().leases_granted.inc();
            inner.cursor = (run_index + 1) % count;
            return LeaseOutcome::Granted(Box::new(LeaseGrant {
                run: run.id.clone(),
                shard,
                epoch: image.epoch,
                stolen,
                lease: run.spec.lease,
                sink: image.sink.clone(),
                spec: run.spec.clone(),
            }));
        }
        LeaseOutcome::Empty
    }

    /// Extends a live lease's deadline and records the worker's pushed
    /// progress (`rows_done`).
    ///
    /// # Errors
    ///
    /// [`LeaseError`] for unknown runs/shards and stale epochs.
    pub fn heartbeat(
        &self,
        run: &str,
        shard: usize,
        epoch: u64,
        rows_done: u64,
    ) -> Result<(), LeaseError> {
        let now = Instant::now();
        let mut guard = self.lock();
        let inner = &mut *guard;
        let index = inner.live_lease(run, shard, epoch)?;
        inner.crash_point("heartbeat");
        let run = &mut inner.image.runs[index];
        run.shards[shard].rows_done = rows_done;
        inner.deadlines.insert((index, shard), now + run.spec.lease);
        metrics().heartbeats.inc();
        Ok(())
    }

    /// Marks a shard done. Accepted on a matching epoch even past the
    /// deadline — as long as nobody re-leased it, the worker has synced
    /// the shard's rows to its sink and its work stands.
    ///
    /// # Errors
    ///
    /// [`LeaseError`] for unknown runs/shards and stale epochs.
    pub fn complete(&self, run: &str, shard: usize, epoch: u64) -> Result<(), LeaseError> {
        let mut inner = self.lock();
        let index = inner.live_lease(run, shard, epoch)?;
        inner.crash_point("complete");
        inner.image.runs[index].shards[shard].phase = ShardPhase::Done;
        inner.deadlines.remove(&(index, shard));
        self.lease_done.notify_all();
        Ok(())
    }

    /// Marks a shard done before any lease: the server's verdict at
    /// boot for a shard whose sink holds a row for every job it owns.
    pub(crate) fn mark_done(&self, run: &str, shard: usize) {
        let mut inner = self.lock();
        let run = inner.image.runs.iter_mut().find(|r| r.id == run);
        if let Some(image) = run.and_then(|r| r.shards.get_mut(shard)) {
            image.phase = ShardPhase::Done;
        }
    }

    /// Stops granting leases; `POST /lease` answers `410 Gone`.
    pub fn drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Blocks until no shard holds an unexpired lease — in-flight
    /// workers have either completed or run out their deadlines, so
    /// shutdown can proceed to the final aggregation pass. Wakes when a
    /// lease completes, and otherwise at the latest live deadline, which
    /// a heartbeat may since have pushed back.
    pub fn wait_drained(&self) {
        let mut inner = self.lock();
        loop {
            let now = Instant::now();
            let Some(latest) = inner.deadlines.values().filter(|d| **d > now).max() else {
                return;
            };
            let wait = *latest - now;
            inner =
                self.lease_done.wait_timeout(inner, wait).unwrap_or_else(PoisonError::into_inner).0;
        }
    }

    /// The spec a run was submitted with, if the run exists.
    pub fn spec(&self, run: &str) -> Option<RunSpec> {
        self.lock().run(run).map(|r| r.spec.clone())
    }

    /// Shard sink paths for a run, in shard order.
    pub fn sinks(&self, run: &str) -> Option<Vec<PathBuf>> {
        self.lock().run(run).map(|r| r.shards.iter().map(|s| s.sink.clone()).collect())
    }

    /// All run ids, submission order.
    pub fn run_ids(&self) -> Vec<String> {
        self.lock().image.runs.iter().map(|r| r.id.clone()).collect()
    }

    /// Per-shard status rows plus "all shards done".
    pub fn status(&self, run: &str) -> Option<(Vec<ShardStatus>, bool)> {
        let inner = self.lock();
        let rows: Vec<ShardStatus> = inner
            .run(run)?
            .shards
            .iter()
            .enumerate()
            .map(|(shard, image)| ShardStatus {
                shard,
                state: image.phase.label(),
                worker: image.worker.clone(),
                steals: image.steals,
                rows_done: image.rows_done,
            })
            .collect();
        let done = rows.iter().all(|r| r.state == "done");
        Some((rows, done))
    }
}

/// Client-side helper: one JSON round trip against a serve endpoint.
///
/// # Errors
///
/// Transport errors only, as messages naming the call.
pub fn post_json(addr: &str, path: &str, body: &Json) -> Result<(u16, Json), String> {
    let (status, text) = http::request(addr, "POST", path, &body.render())?;
    // Error statuses carry text/plain diagnostics, not JSON — the
    // status code is the protocol, so an unparseable body degrades to
    // its raw text instead of masquerading as a transport failure.
    let json =
        if text.is_empty() { Json::Null } else { Json::parse(&text).unwrap_or(Json::Str(text)) };
    Ok((status, json))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(shards: usize, lease: Duration) -> RunSpec {
        RunSpec { size: 2, seed: 0x42, methods: vec![MethodKind::Strider], shards, lease }
    }

    fn store_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("uvllm-store-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn store_at(dir: &Path, lease: Duration) -> (JobStore, RecoveryReport) {
        JobStore::open(dir, lease, None).unwrap()
    }

    fn store(name: &str, lease: Duration) -> JobStore {
        store_at(&store_dir(name), lease).0
    }

    fn grant(store: &JobStore, worker: &str) -> LeaseGrant {
        match store.lease(worker) {
            LeaseOutcome::Granted(g) => *g,
            other => panic!("expected grant, got {other:?}"),
        }
    }

    #[test]
    fn spec_json_round_trips_with_hex_seed() {
        let original = RunSpec {
            size: 331,
            // Above 2^53: the f64 number path would corrupt this.
            seed: 0xDEAD_BEEF_CAFE_F00D,
            methods: vec![MethodKind::Uvllm, MethodKind::Meic],
            shards: 4,
            lease: Duration::from_secs(30),
        };
        let json = original.to_json();
        assert!(json.render().contains("\"0xDEADBEEFCAFEF00D\""));
        let decoded = RunSpec::from_json(&json, Duration::from_secs(1)).unwrap();
        assert_eq!(decoded, original);
    }

    #[test]
    fn spec_defaults_and_errors() {
        let json = Json::parse("{\"size\": 4}").unwrap();
        let spec = RunSpec::from_json(&json, Duration::from_secs(7)).unwrap();
        assert_eq!(spec.size, 4);
        assert_eq!(spec.seed, 0xDA7A);
        assert_eq!(spec.methods, MethodKind::ALL.to_vec());
        assert_eq!(spec.shards, 1);
        assert_eq!(spec.lease, Duration::from_secs(7));

        // Bodies written for the retired `opt_level` and `backend`
        // members still decode: every value produced the same rows, so
        // ignoring them is exact — a label no build ever knew included.
        for old in [
            "{\"size\": 4, \"opt_level\": 2}",
            "{\"size\": 4, \"backend\": \"compiled\"}",
            "{\"size\": 4, \"backend\": \"event\"}",
            "{\"size\": 4, \"backend\": \"warp\"}",
        ] {
            let old = Json::parse(old).unwrap();
            assert_eq!(RunSpec::from_json(&old, Duration::from_secs(7)).unwrap(), spec);
        }
        let wire = spec.to_json().render();
        assert!(!wire.contains("opt_level") && !wire.contains("backend"), "{wire}");

        let err = |text: &str| {
            RunSpec::from_json(&Json::parse(text).unwrap(), Duration::from_secs(1)).unwrap_err()
        };
        assert!(err("{}").contains("'size'"));
        assert!(err("{\"size\": 1, \"methods\": [\"nope\"]}").contains("'nope'"));
        assert!(err("{\"size\": 1, \"seed\": \"0xZZ\"}").contains("'0xZZ'"));
    }

    #[test]
    fn leases_grant_heartbeat_and_complete() {
        let store = store("basic", Duration::from_secs(60));
        let run = store.submit(spec(2, Duration::from_secs(60))).unwrap();
        let grant_a = grant(&store, "a");
        assert_eq!(grant_a.run, run);
        assert_eq!(grant_a.shard, 0);
        assert!(!grant_a.stolen);
        let grant_b = grant(&store, "b");
        assert_eq!(grant_b.shard, 1);
        assert!(matches!(store.lease("c"), LeaseOutcome::Empty));

        store.heartbeat(&run, 0, grant_a.epoch, 1).unwrap();
        store.complete(&run, 0, grant_a.epoch).unwrap();
        store.complete(&run, 1, grant_b.epoch).unwrap();
        let (rows, done) = store.status(&run).unwrap();
        assert!(done);
        assert_eq!(rows[0].worker.as_deref(), Some("a"));
        assert_eq!(rows[0].rows_done, 1, "heartbeat progress sticks");
        assert_eq!(rows[1].worker.as_deref(), Some("b"));

        assert_eq!(store.heartbeat("run-none", 0, 1, 0), Err(LeaseError::UnknownRun));
        assert_eq!(store.heartbeat(&run, 9, 1, 0), Err(LeaseError::UnknownShard));
        assert_eq!(store.complete(&run, 0, grant_a.epoch), Err(LeaseError::LeaseLost));
    }

    #[test]
    fn expired_leases_are_stolen_and_fenced() {
        // Long enough that the first grant outlives the empty poll.
        let lease = Duration::from_millis(200);
        let store = store("steal", lease);
        let run = store.submit(spec(1, lease)).unwrap();
        let dead = grant(&store, "dead");
        // Not yet expired: nothing to steal.
        assert!(matches!(store.lease("thief"), LeaseOutcome::Empty));
        std::thread::sleep(lease + Duration::from_millis(50));
        let stolen = grant(&store, "thief");
        assert!(stolen.stolen);
        assert_eq!(stolen.shard, dead.shard);
        assert!(stolen.epoch > dead.epoch);
        assert_eq!(stolen.sink, dead.sink, "the thief resumes the same sink");
        // The corpse's epoch is fenced out of both verbs.
        assert_eq!(store.heartbeat(&run, 0, dead.epoch, 0), Err(LeaseError::LeaseLost));
        assert_eq!(store.complete(&run, 0, dead.epoch), Err(LeaseError::LeaseLost));
        // The thief finishes normally.
        store.complete(&run, 0, stolen.epoch).unwrap();
        let (rows, done) = store.status(&run).unwrap();
        assert!(done);
        assert_eq!(rows[0].steals, 1);
        assert_eq!(rows[0].worker.as_deref(), Some("thief"));
    }

    #[test]
    fn late_complete_on_matching_epoch_is_accepted() {
        let store = store("late", Duration::from_millis(10));
        let run = store.submit(spec(1, Duration::from_millis(10))).unwrap();
        let g = grant(&store, "slow");
        std::thread::sleep(Duration::from_millis(20));
        // Expired but not re-leased: the work is done, accept it.
        store.complete(&run, 0, g.epoch).unwrap();
        let (_, done) = store.status(&run).unwrap();
        assert!(done);
    }

    /// The drain wait wakes on the completion, not at the 60 s deadline.
    #[test]
    fn drain_refuses_new_leases_and_reports_quiescence() {
        let lease = Duration::from_secs(60);
        let store = store("drain", lease);
        let run = store.submit(spec(1, lease)).unwrap();
        let g = grant(&store, "w");
        store.drain();
        assert!(matches!(store.lease("w2"), LeaseOutcome::Draining));
        let started = Instant::now();
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| store.wait_drained());
            // Time for the waiter to park, so the completion wakes it.
            std::thread::sleep(Duration::from_millis(20));
            store.complete(&run, 0, g.epoch).unwrap();
            waiter.join().unwrap();
        });
        assert!(started.elapsed() < Duration::from_secs(5), "took {:?}", started.elapsed());
    }

    #[test]
    fn an_uncompleted_lease_stops_blocking_the_drain_at_its_deadline() {
        let lease = Duration::from_millis(30);
        let store = store("drain-expiry", lease);
        store.submit(spec(1, lease)).unwrap();
        let granted = Instant::now();
        grant(&store, "gone");
        store.drain();
        store.wait_drained();
        assert!(granted.elapsed() >= lease, "returned {:?} into the lease", granted.elapsed());
    }

    #[test]
    fn two_runs_interleave_grants_round_robin() {
        let store = store("fairness", Duration::from_secs(60));
        let first = store.submit(spec(3, Duration::from_secs(60))).unwrap();
        let second = store.submit(spec(3, Duration::from_secs(60))).unwrap();
        // Strict run-then-shard order would grant all of `first`
        // before any of `second`; the round-robin cursor alternates.
        let order: Vec<String> = (0..6).map(|i| grant(&store, &format!("w{i}")).run).collect();
        assert_eq!(
            order,
            vec![first.clone(), second.clone(), first.clone(), second.clone(), first, second],
            "grants must interleave the two runs"
        );
    }

    #[test]
    fn run_ids_are_minted_per_store() {
        let lease = Duration::from_secs(60);
        let (first, second) = (store("ids-a", lease), store("ids-b", lease));
        assert_eq!(first.submit(spec(1, lease)).unwrap(), "run-1");
        assert_eq!(second.submit(spec(1, lease)).unwrap(), "run-1", "no process-wide counter");
        assert_eq!(first.submit(spec(1, lease)).unwrap(), "run-2");
    }

    /// The generation in the high 32 bits of an epoch.
    fn generation(epoch: u64) -> u64 {
        epoch >> 32
    }

    #[test]
    fn reopened_store_recovers_runs_and_fences_dead_leases() {
        let dir = store_dir("reopen");
        let lease = Duration::from_secs(60);
        let (run, done_grant, live_grant) = {
            let (store, report) = store_at(&dir, lease);
            assert!(!report.recovered_state(), "fresh directory");
            let run = store.submit(spec(2, lease)).unwrap();
            let a = grant(&store, "a");
            store.heartbeat(&run, a.shard, a.epoch, 2).unwrap();
            store.complete(&run, a.shard, a.epoch).unwrap();
            let b = grant(&store, "b");
            (run, a, b)
            // The store drops here with shard 1 leased — the "crash".
        };
        let (store, report) = store_at(&dir, lease);
        assert!(report.recovered_state());
        assert_eq!(report.runs, 1);
        assert_eq!(report.records_replayed, 2, "a boot and a submit: no lease is journaled");
        assert_eq!(store.run_ids(), vec![run.clone()]);
        assert_eq!(store.spec(&run).unwrap(), spec(2, lease));

        // The store alone knows no sink: every shard comes back pending,
        // and the server marks done the ones whose sinks are full.
        let (rows, done) = store.status(&run).unwrap();
        assert!(!done);
        for row in &rows {
            assert_eq!((row.state, &row.worker, row.rows_done), ("pending", &None, 0));
        }
        store.mark_done(&run, done_grant.shard);

        // The pre-crash holders are fenced out…
        assert_eq!(
            store.heartbeat(&run, live_grant.shard, live_grant.epoch, 0),
            Err(LeaseError::LeaseLost)
        );
        assert_eq!(
            store.complete(&run, done_grant.shard, done_grant.epoch),
            Err(LeaseError::LeaseLost)
        );
        // …and the shard re-grants to a reconnecting worker, in a new
        // generation: the same count within it no longer matches.
        let retry = grant(&store, "b2");
        assert_eq!(retry.shard, live_grant.shard);
        assert_eq!(retry.epoch as u32, live_grant.epoch as u32, "same low bits");
        assert_eq!(generation(retry.epoch), generation(live_grant.epoch) + 1);
        assert_eq!(
            store.heartbeat(&run, live_grant.shard, live_grant.epoch, 0),
            Err(LeaseError::LeaseLost)
        );
        assert_eq!(retry.sink, live_grant.sink, "same sink — resume, don't redo");
        store.complete(&run, retry.shard, retry.epoch).unwrap();
        assert!(store.status(&run).unwrap().1);
    }

    /// Each open is a new generation, with or without a submission in
    /// between.
    #[test]
    fn every_boot_is_a_new_generation() {
        let dir = store_dir("generations");
        let lease = Duration::from_secs(60);
        let run = store_at(&dir, lease).0.submit(spec(1, lease)).unwrap();
        let epochs: Vec<u64> = (0..3).map(|_| grant(&store_at(&dir, lease).0, "w").epoch).collect();
        assert_eq!(epochs.iter().map(|e| generation(*e)).collect::<Vec<_>>(), [2, 3, 4]);
        assert!(epochs.iter().all(|e| *e as u32 == 1), "{epochs:x?}");
        let (store, report) = store_at(&dir, lease);
        assert_eq!(report.records_replayed, 5, "one submit, four boots");
        for epoch in epochs {
            assert_eq!(store.complete(&run, 0, epoch), Err(LeaseError::LeaseLost));
        }
    }

    #[test]
    fn grant_json_round_trips() {
        let grant = LeaseGrant {
            run: "run-9".to_string(),
            shard: 1,
            epoch: 3,
            stolen: true,
            lease: Duration::from_millis(750),
            sink: PathBuf::from("/tmp/run-9/shard-1.jsonl"),
            spec: spec(2, Duration::from_millis(750)),
        };
        let decoded = LeaseGrant::from_json(&grant.to_json()).unwrap();
        assert_eq!(decoded.run, grant.run);
        assert_eq!(decoded.shard, grant.shard);
        assert_eq!(decoded.epoch, grant.epoch);
        assert!(decoded.stolen);
        assert_eq!(decoded.lease, grant.lease);
        assert_eq!(decoded.sink, grant.sink);
        assert_eq!(decoded.spec, grant.spec);
    }
}
