//! The write-ahead journal: every job-store state transition is
//! appended to `data_dir/journal.jsonl`, then applied by the same
//! [`crate::recovery::StoreImage::apply`] that replay runs, so a
//! crashed server can rebuild the store on the next boot (see
//! [`crate::recovery`]).
//!
//! ## Record framing
//!
//! One record per line: `<len>:<crc32-hex>:<json>\n` — the JSON event
//! body length-prefixed with its byte count and checksummed with
//! CRC-32 (IEEE). Replay reuses the [`LineTailer`] discipline the
//! JSONL sinks already trust: only complete (newline-terminated) lines
//! are consumed, so a record torn by a `kill -9` mid-append is simply
//! the end of the log. A length or checksum mismatch on an *earlier*
//! line means real corruption; replay stops there and drops the
//! suffix, which is always safe in this system — the journal carries
//! coordination state only, rows live in the shard sinks, and
//! determinism means any re-done work reproduces the same bytes.
//!
//! ## Durability knob
//!
//! [`FsyncPolicy`] trades durability for throughput: `Always` fsyncs
//! after every record (a crash loses nothing that was acknowledged),
//! `EveryN(n)` amortizes the sync over `n` records (a crash may lose
//! up to `n-1` acknowledged transitions — workers re-do that work),
//! `Never` leaves flushing to the OS. The default is `Always`: store
//! transitions are one HTTP round trip each, so the sync is not on any
//! per-row hot path.
//!
//! ## Crash knob
//!
//! [`CrashSpec`] (`--crash-after <event>[:N]`) aborts the process
//! (`std::process::abort`, no destructors — the same disk state a
//! `kill -9` leaves) immediately after the matching record is appended
//! and synced, and *before* the in-memory state mutates or the HTTP
//! response is written. That is the most adversarial torn moment the
//! recovery path must survive, and it makes the chaos harness
//! deterministic.

use crate::store::RunSpec;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Duration;
use uvllm_campaign::LineTailer;
use uvllm_json::{s, Json};

/// File name of the journal inside the server's data directory.
pub const JOURNAL_FILE: &str = "journal.jsonl";

/// When the journal fsyncs after an append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// After every record: an acknowledged transition survives any
    /// crash. The default.
    Always,
    /// After every `n` records: a crash loses at most `n-1`
    /// acknowledged transitions (the work is re-done, rows unaffected).
    EveryN(u64),
    /// Never — the OS flushes when it pleases. Fastest; a crash can
    /// rewind the store to the last natural writeback.
    Never,
}

impl FsyncPolicy {
    /// Parses `always`, `never` or `every:N`.
    ///
    /// # Errors
    ///
    /// Names the accepted forms.
    pub fn parse(text: &str) -> Result<FsyncPolicy, String> {
        match text {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            _ => text
                .strip_prefix("every:")
                .and_then(|n| n.parse::<u64>().ok())
                .filter(|n| *n >= 1)
                .map(FsyncPolicy::EveryN)
                .ok_or_else(|| {
                    format!("bad fsync policy '{text}' (want always | never | every:N)")
                }),
        }
    }
}

/// The deterministic kill knob: abort the process right after the
/// `count`-th journal append whose event kind matches `event`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashSpec {
    /// Event kind label (`submit`, `lease`, `heartbeat`, `complete`,
    /// `finish`).
    pub event: String,
    /// Which matching append triggers the abort (1-based).
    pub count: u64,
}

impl CrashSpec {
    /// Parses `event` or `event:N` (N defaults to 1).
    ///
    /// # Errors
    ///
    /// Names the accepted event kinds.
    pub fn parse(text: &str) -> Result<CrashSpec, String> {
        let (event, count) = match text.split_once(':') {
            Some((event, n)) => (
                event,
                n.parse::<u64>()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or_else(|| format!("bad crash count in '{text}' (want EVENT[:N])"))?,
            ),
            None => (text, 1),
        };
        if !matches!(event, "submit" | "lease" | "heartbeat" | "complete" | "finish") {
            return Err(format!(
                "unknown crash event '{event}' (want submit | lease | heartbeat | complete | \
                 finish)"
            ));
        }
        Ok(CrashSpec { event: event.to_string(), count })
    }
}

/// How the journal behaves.
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Durability/throughput trade-off for appends.
    pub fsync: FsyncPolicy,
    /// Compact (snapshot + truncate) once the journal holds this many
    /// records, bounding replay cost. 0 disables compaction.
    pub compact_every: u64,
    /// Deterministic crash injection (tests, the chaos harness).
    pub crash_after: Option<CrashSpec>,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig { fsync: FsyncPolicy::Always, compact_every: 512, crash_after: None }
    }
}

/// One journaled state transition. The wire kinds are the
/// [`CrashSpec`] event names.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A run was submitted.
    Submit { run: String, spec: RunSpec },
    /// A shard was leased (`stolen` when the grant reclaimed an
    /// expired lease).
    Lease { run: String, shard: usize, epoch: u64, worker: String, stolen: bool },
    /// A live lease was renewed, carrying the worker's pushed
    /// progress.
    Heartbeat { run: String, shard: usize, epoch: u64, rows_done: u64 },
    /// A shard was completed.
    Complete { run: String, shard: usize, epoch: u64, worker: String },
    /// Every shard of the run is done.
    Finish { run: String },
}

impl Event {
    /// The wire kind label (also the crash-knob event name).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::Submit { .. } => "submit",
            Event::Lease { .. } => "lease",
            Event::Heartbeat { .. } => "heartbeat",
            Event::Complete { .. } => "complete",
            Event::Finish { .. } => "finish",
        }
    }

    fn to_json(&self) -> Json {
        let mut members = vec![("kind".to_string(), s(self.kind()))];
        match self {
            Event::Submit { run, spec } => {
                members.push(("run".to_string(), s(run.clone())));
                members.push(("spec".to_string(), spec.to_json()));
            }
            Event::Lease { run, shard, epoch, worker, stolen } => {
                members.push(("run".to_string(), s(run.clone())));
                members.push(("shard".to_string(), Json::Num(*shard as f64)));
                members.push(("epoch".to_string(), Json::Num(*epoch as f64)));
                members.push(("worker".to_string(), s(worker.clone())));
                members.push(("stolen".to_string(), Json::Bool(*stolen)));
            }
            Event::Heartbeat { run, shard, epoch, rows_done } => {
                members.push(("run".to_string(), s(run.clone())));
                members.push(("shard".to_string(), Json::Num(*shard as f64)));
                members.push(("epoch".to_string(), Json::Num(*epoch as f64)));
                members.push(("rows_done".to_string(), Json::Num(*rows_done as f64)));
            }
            Event::Complete { run, shard, epoch, worker } => {
                members.push(("run".to_string(), s(run.clone())));
                members.push(("shard".to_string(), Json::Num(*shard as f64)));
                members.push(("epoch".to_string(), Json::Num(*epoch as f64)));
                members.push(("worker".to_string(), s(worker.clone())));
            }
            Event::Finish { run } => members.push(("run".to_string(), s(run.clone()))),
        }
        Json::Obj(members)
    }

    fn from_json(json: &Json) -> Result<Event, String> {
        let kind = json.get("kind").and_then(Json::as_str).ok_or("record missing 'kind'")?;
        let run = || {
            json.get("run")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{kind} record missing 'run'"))
        };
        let num = |name: &str| {
            json.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{kind} record missing '{name}'"))
        };
        let worker = || {
            json.get("worker")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{kind} record missing 'worker'"))
        };
        match kind {
            "submit" => {
                let spec = RunSpec::from_json(
                    json.get("spec").ok_or("submit record missing 'spec'")?,
                    // The spec always serializes lease_ms, so the
                    // default is never consulted on replay.
                    Duration::from_secs(60),
                )?;
                Ok(Event::Submit { run: run()?, spec })
            }
            "lease" => Ok(Event::Lease {
                run: run()?,
                shard: num("shard")? as usize,
                epoch: num("epoch")?,
                worker: worker()?,
                stolen: json.get("stolen").and_then(Json::as_bool).unwrap_or(false),
            }),
            "heartbeat" => Ok(Event::Heartbeat {
                run: run()?,
                shard: num("shard")? as usize,
                epoch: num("epoch")?,
                rows_done: num("rows_done")?,
            }),
            "complete" => Ok(Event::Complete {
                run: run()?,
                shard: num("shard")? as usize,
                epoch: num("epoch")?,
                worker: worker()?,
            }),
            "finish" => Ok(Event::Finish { run: run()? }),
            other => Err(format!("unknown record kind '{other}'")),
        }
    }
}

/// CRC-32 (IEEE 802.3, reflected) over `bytes`. Bitwise — the journal
/// appends one record per HTTP round trip, nowhere near a hot path.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in bytes {
        crc ^= byte as u32;
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & 0u32.wrapping_sub(crc & 1));
        }
    }
    !crc
}

fn frame(seq: u64, event: &Event) -> String {
    let body = Json::Obj(vec![
        ("seq".to_string(), Json::Num(seq as f64)),
        ("event".to_string(), event.to_json()),
    ])
    .render();
    format!("{}:{:08x}:{body}\n", body.len(), crc32(body.as_bytes()))
}

/// Parses one complete journal line back into `(seq, Event)`.
///
/// # Errors
///
/// Framing violations (bad prefix, length mismatch, checksum
/// mismatch) and undecodable event bodies — any of which ends replay.
fn parse_line(raw: &[u8]) -> Result<(u64, Event), String> {
    let text = std::str::from_utf8(raw).map_err(|_| "record is not UTF-8".to_string())?;
    let (len, rest) = text.split_once(':').ok_or("record lacks a length prefix")?;
    let (crc, body) = rest.split_once(':').ok_or("record lacks a checksum")?;
    let len: usize = len.parse().map_err(|_| format!("bad length prefix '{len}'"))?;
    if body.len() != len {
        return Err(format!("length mismatch: prefix says {len}, body is {} bytes", body.len()));
    }
    let crc = u32::from_str_radix(crc, 16).map_err(|_| format!("bad checksum field '{crc}'"))?;
    let actual = crc32(body.as_bytes());
    if crc != actual {
        return Err(format!("checksum mismatch: header {crc:08x}, body {actual:08x}"));
    }
    let json = Json::parse(body).map_err(|e| format!("bad record JSON: {e}"))?;
    let seq = json.get("seq").and_then(Json::as_u64).ok_or("record missing 'seq'")?;
    let event = Event::from_json(json.get("event").ok_or("record missing 'event'")?)?;
    Ok((seq, event))
}

/// Registry handles for the journal (`serve.journal.*`), resolved once.
struct JournalMetrics {
    appends: &'static uvllm_obs::Counter,
    fsyncs: &'static uvllm_obs::Counter,
    compactions: &'static uvllm_obs::Counter,
}

fn metrics() -> &'static JournalMetrics {
    static METRICS: std::sync::OnceLock<JournalMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| JournalMetrics {
        appends: uvllm_obs::registry().counter("serve.journal.appends"),
        fsyncs: uvllm_obs::registry().counter("serve.journal.fsyncs"),
        compactions: uvllm_obs::registry().counter("serve.journal.compactions"),
    })
}

/// The append side of the write-ahead log. Owned by the job store and
/// driven under its state lock, so journal order *is* state-mutation
/// order.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
    config: JournalConfig,
    /// Sequence number the next append gets.
    next_seq: u64,
    /// Records appended since the last fsync (for `EveryN`).
    unsynced: u64,
    /// Records currently in the file (for the compaction trigger).
    records: u64,
    /// Matching appends seen so far, per the crash knob.
    crash_matches: u64,
}

impl Journal {
    /// Opens (or creates) the journal at `dir/journal.jsonl` in append
    /// mode. `next_seq` and `records` come from the replay the caller
    /// just did (see [`crate::recovery::recover`]).
    ///
    /// # Errors
    ///
    /// File-system failures.
    pub fn open(
        dir: &Path,
        config: JournalConfig,
        next_seq: u64,
        records: u64,
    ) -> std::io::Result<Journal> {
        let path = dir.join(JOURNAL_FILE);
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Journal { path, file, config, next_seq, unsynced: 0, records, crash_matches: 0 })
    }

    /// The journal file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records currently in the file.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Appends one record, syncs per the fsync policy, fires the crash
    /// knob. Returns the record's sequence number.
    ///
    /// # Errors
    ///
    /// Write/sync failures — the caller must *not* apply the state
    /// transition when the append fails (write-ahead discipline).
    pub fn append(&mut self, event: &Event) -> std::io::Result<u64> {
        let seq = self.next_seq;
        self.file.write_all(frame(seq, event).as_bytes())?;
        self.next_seq += 1;
        self.records += 1;
        self.unsynced += 1;
        let sync = match self.config.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => self.unsynced >= n,
            FsyncPolicy::Never => false,
        };
        if sync {
            self.file.sync_data()?;
            self.unsynced = 0;
            metrics().fsyncs.inc();
        }
        metrics().appends.inc();
        if let Some(crash) = &self.config.crash_after {
            if crash.event == event.kind() {
                self.crash_matches += 1;
                if self.crash_matches == crash.count {
                    // The deterministic kill: no destructors, no
                    // response written, exactly what `kill -9` leaves.
                    eprintln!("crash-after {}:{}: aborting now", crash.event, crash.count);
                    std::process::abort();
                }
            }
        }
        Ok(seq)
    }

    /// True once the compaction threshold is reached.
    pub fn wants_compaction(&self) -> bool {
        self.config.compact_every > 0 && self.records >= self.config.compact_every
    }

    /// Truncates the journal after a successful snapshot: every record
    /// it held is now folded into `store.snapshot.json`, and replay
    /// skips stale sequence numbers anyway if the truncate itself is
    /// lost to a crash.
    ///
    /// # Errors
    ///
    /// File-system failures.
    pub fn truncate(&mut self) -> std::io::Result<()> {
        self.file = OpenOptions::new().write(true).truncate(true).open(&self.path)?;
        self.file.sync_data()?;
        self.records = 0;
        self.unsynced = 0;
        metrics().compactions.inc();
        Ok(())
    }
}

/// What a journal replay recovered.
#[derive(Debug, Default)]
pub struct Replay {
    /// `(seq, event)` in file order, framing-verified.
    pub events: Vec<(u64, Event)>,
    /// Records read (== `events.len()`, kept separate for clarity at
    /// call sites that filter by seq).
    pub records: u64,
    /// Where replay stopped early: a located description of the first
    /// corrupt record (everything after it was dropped), or the torn
    /// trailing line a killed writer left. `None` when the whole file
    /// replayed clean.
    pub diag: Option<String>,
}

/// Replays `dir/journal.jsonl`. A missing journal replays as empty.
///
/// Stops at the first framing violation (torn tail, length or checksum
/// mismatch, undecodable body) and reports it in `diag` — records past
/// a corrupt one cannot be trusted in a log whose meaning is its
/// order. Dropping a journal suffix is safe here: the journal carries
/// lease coordination only, so lost transitions merely make workers
/// re-do work whose rows are deterministic.
///
/// # Errors
///
/// I/O failures other than the file not existing.
pub fn replay(dir: &Path) -> std::io::Result<Replay> {
    let path = dir.join(JOURNAL_FILE);
    let mut tailer = LineTailer::new(&path);
    let mut replay = Replay::default();
    let raw = tailer.poll_raw()?;
    for line in raw.lines() {
        if line.bytes.is_empty() {
            continue;
        }
        match parse_line(line.bytes) {
            Ok((seq, event)) => {
                replay.events.push((seq, event));
                replay.records += 1;
            }
            Err(message) => {
                replay.diag = Some(format!(
                    "{}:{}: {message} — dropping this and all later records",
                    path.display(),
                    line.number,
                ));
                return Ok(replay);
            }
        }
    }
    let remainder = tailer.remainder();
    if remainder > 0 {
        replay.diag = Some(format!(
            "{}:{}: torn trailing record ({remainder} bytes lack a newline) — dropped",
            path.display(),
            tailer.line(),
        ));
    }
    Ok(replay)
}

/// A framed `Submit` record as binaries that still had a retired spec
/// member wrote it — `member` is that member's JSON text, such as
/// `"opt_level":2` or `"backend":"compiled"`. The wire-compatibility
/// fixture of the journal and recovery tests.
#[cfg(test)]
pub(crate) fn legacy_submit_record(seq: u64, run: &str, spec: &RunSpec, member: &str) -> String {
    let event = Event::Submit { run: run.to_string(), spec: spec.clone() };
    let line = frame(seq, &event);
    let body = line.trim_end().splitn(3, ':').nth(2).expect("len:crc:body");
    let body = body.replace("\"shards\":", &format!("{member},\"shards\":"));
    format!("{}:{:08x}:{body}\n", body.len(), crc32(body.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use uvllm_campaign::MethodKind;

    fn spec() -> RunSpec {
        RunSpec {
            size: 3,
            seed: 0xDEAD_BEEF_CAFE_F00D,
            methods: vec![MethodKind::Strider, MethodKind::Uvllm],
            shards: 2,
            lease: Duration::from_millis(750),
        }
    }

    fn events() -> Vec<Event> {
        vec![
            Event::Submit { run: "run-1".into(), spec: spec() },
            Event::Lease {
                run: "run-1".into(),
                shard: 0,
                epoch: 1,
                worker: "w".into(),
                stolen: false,
            },
            Event::Heartbeat { run: "run-1".into(), shard: 0, epoch: 1, rows_done: 4 },
            Event::Lease {
                run: "run-1".into(),
                shard: 1,
                epoch: 3,
                worker: "t".into(),
                stolen: true,
            },
            Event::Complete { run: "run-1".into(), shard: 0, epoch: 1, worker: "w".into() },
            Event::Finish { run: "run-1".into() },
        ]
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("uvllm-journal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn fsync_and_crash_specs_parse() {
        assert_eq!(FsyncPolicy::parse("always").unwrap(), FsyncPolicy::Always);
        assert_eq!(FsyncPolicy::parse("never").unwrap(), FsyncPolicy::Never);
        assert_eq!(FsyncPolicy::parse("every:16").unwrap(), FsyncPolicy::EveryN(16));
        assert!(FsyncPolicy::parse("every:0").is_err());
        assert!(FsyncPolicy::parse("sometimes").is_err());

        assert_eq!(
            CrashSpec::parse("lease").unwrap(),
            CrashSpec { event: "lease".into(), count: 1 }
        );
        assert_eq!(
            CrashSpec::parse("complete:3").unwrap(),
            CrashSpec { event: "complete".into(), count: 3 }
        );
        assert!(CrashSpec::parse("reboot").is_err());
        assert!(CrashSpec::parse("lease:0").is_err());
    }

    #[test]
    fn append_replay_round_trips_every_event_kind() {
        let dir = temp_dir("roundtrip");
        let mut journal = Journal::open(&dir, JournalConfig::default(), 1, 0).unwrap();
        for event in events() {
            journal.append(&event).unwrap();
        }
        let replay = replay(&dir).unwrap();
        assert!(replay.diag.is_none(), "{:?}", replay.diag);
        assert_eq!(replay.records, 6);
        let seqs: Vec<u64> = replay.events.iter().map(|(seq, _)| *seq).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5, 6]);
        let decoded: Vec<Event> = replay.events.into_iter().map(|(_, e)| e).collect();
        assert_eq!(decoded, events());
    }

    /// Replays a journal holding one `Submit` record that carries
    /// `member`, asserting it decodes to the spec a current binary
    /// journals.
    fn legacy_submit_replays_as_current(name: &str, member: &str) {
        let dir = temp_dir(name);
        let line = legacy_submit_record(1, "run-1", &spec(), member);
        assert!(line.contains(member), "{line}");
        std::fs::write(dir.join(JOURNAL_FILE), line).unwrap();
        let replay = replay(&dir).unwrap();
        assert!(replay.diag.is_none(), "{:?}", replay.diag);
        assert_eq!(replay.events, vec![(1, events().remove(0))]);
    }

    #[test]
    fn submit_records_carrying_opt_level_decode_to_the_same_spec() {
        legacy_submit_replays_as_current("legacy-submit", "\"opt_level\":2");
    }

    #[test]
    fn submit_records_carrying_a_backend_decode_to_the_same_spec() {
        legacy_submit_replays_as_current("legacy-backend", "\"backend\":\"compiled\"");
    }

    #[test]
    fn missing_journal_replays_empty() {
        let dir = temp_dir("missing");
        let replay = replay(&dir).unwrap();
        assert_eq!(replay.records, 0);
        assert!(replay.diag.is_none());
    }

    #[test]
    fn torn_final_record_is_dropped_with_a_diag() {
        let dir = temp_dir("torn");
        let mut journal = Journal::open(&dir, JournalConfig::default(), 1, 0).unwrap();
        for event in events().into_iter().take(3) {
            journal.append(&event).unwrap();
        }
        // A kill mid-append: half a record, no newline.
        let mut file = OpenOptions::new().append(true).open(dir.join(JOURNAL_FILE)).unwrap();
        file.write_all(b"61:deadbeef:{\"seq\":4,\"event\":{\"kind\":\"compl").unwrap();
        drop(file);
        let replay = replay(&dir).unwrap();
        assert_eq!(replay.records, 3, "the complete records all land");
        let diag = replay.diag.expect("the torn tail must be reported");
        assert!(diag.contains("torn trailing record"), "{diag}");
        assert!(diag.contains("journal.jsonl:4"), "{diag}");
    }

    #[test]
    fn checksum_mismatch_mid_file_stops_replay_there() {
        let dir = temp_dir("corrupt");
        let mut journal = Journal::open(&dir, JournalConfig::default(), 1, 0).unwrap();
        for event in events() {
            journal.append(&event).unwrap();
        }
        // Flip one byte inside record 3's body (JSON, past the frame).
        let path = dir.join(JOURNAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let line_starts: Vec<usize> = std::iter::once(0)
            .chain(bytes.iter().enumerate().filter(|(_, b)| **b == b'\n').map(|(i, _)| i + 1))
            .collect();
        let mid = line_starts[2] + 20;
        bytes[mid] = bytes[mid].wrapping_add(1);
        std::fs::write(&path, &bytes).unwrap();

        let replay = replay(&dir).unwrap();
        assert_eq!(replay.records, 2, "records before the corruption survive");
        let diag = replay.diag.expect("corruption must be reported");
        assert!(diag.contains("journal.jsonl:3"), "{diag}");
        assert!(diag.contains("mismatch"), "{diag}");
        assert!(diag.contains("dropping this and all later records"), "{diag}");
    }

    #[test]
    fn length_mismatch_is_caught() {
        let dir = temp_dir("length");
        let mut journal = Journal::open(&dir, JournalConfig::default(), 1, 0).unwrap();
        journal.append(&events()[0]).unwrap();
        // Append a record whose prefix lies about the body length but
        // whose checksum is honest — the length check must fire.
        let body = "{\"seq\":2,\"event\":{\"kind\":\"finish\",\"run\":\"run-1\"}}";
        let line = format!("{}:{:08x}:{body}\n", body.len() + 5, crc32(body.as_bytes()));
        let mut file = OpenOptions::new().append(true).open(dir.join(JOURNAL_FILE)).unwrap();
        file.write_all(line.as_bytes()).unwrap();
        drop(file);
        let replay = replay(&dir).unwrap();
        assert_eq!(replay.records, 1);
        assert!(replay.diag.unwrap().contains("length mismatch"));
    }

    #[test]
    fn truncate_resets_the_file_and_preserves_seq() {
        let dir = temp_dir("truncate");
        let mut journal = Journal::open(&dir, JournalConfig::default(), 1, 0).unwrap();
        for event in events().into_iter().take(4) {
            journal.append(&event).unwrap();
        }
        assert_eq!(journal.records(), 4);
        journal.truncate().unwrap();
        assert_eq!(journal.records(), 0);
        assert_eq!(replay(&dir).unwrap().records, 0);
        // Sequence numbers keep climbing across the truncate, so stale
        // snapshot/journal overlap stays resolvable by seq.
        let seq = journal.append(&Event::Finish { run: "run-1".into() }).unwrap();
        assert_eq!(seq, 5);
        let replayed = replay(&dir).unwrap();
        assert_eq!(replayed.events[0].0, 5);
    }

    #[test]
    fn every_n_fsync_policy_counts_down() {
        let dir = temp_dir("everyn");
        let config = JournalConfig { fsync: FsyncPolicy::EveryN(3), ..JournalConfig::default() };
        let mut journal = Journal::open(&dir, config, 1, 0).unwrap();
        let before = uvllm_obs::registry().counter("serve.journal.fsyncs").get();
        for event in events() {
            journal.append(&event).unwrap();
        }
        let after = uvllm_obs::registry().counter("serve.journal.fsyncs").get();
        // 6 appends at every:3 → exactly 2 syncs (other tests may run
        // concurrently, so bound from below only on the shared counter).
        assert!(after >= before + 2, "{before} → {after}");
        assert!(replay(&dir).unwrap().diag.is_none());
    }
}
