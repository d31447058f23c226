//! Cold-start recovery: rebuild the job store from
//! `store.snapshot.json` + `journal.jsonl` after a crash (or a clean
//! restart — the path is the same).
//!
//! [`StoreImage`] is the store's one state machine. A live transition
//! is appended, then applied by the same [`StoreImage::apply`] that
//! replay runs, so the state a restart rebuilds is the state the
//! crashed process held.
//!
//! The snapshot is a periodic compaction checkpoint: the full store
//! image plus the sequence number of the last journal record folded
//! into it. Recovery loads the snapshot (a corrupt or missing one
//! degrades to the empty image, with a diagnostic), replays the
//! journal, and applies only records with `seq > snapshot.seq` — so a
//! crash *between* snapshot write and journal truncation is harmless,
//! and where the two disagree the journal wins by construction.
//!
//! Recovery's last act is to expire every in-flight lease: each leased
//! shard reverts to pending with its epoch bumped, so a pre-crash
//! worker that reconnects and quotes its old epoch gets the same
//! `409 LeaseLost` it would after ordinary work stealing, while the
//! shard itself is immediately re-grantable. Rows the dead leases
//! already flushed still sit in the per-shard sinks; the aggregator
//! re-scans those on boot and the sink resume protocol skips them on
//! re-lease, which is what makes recovered runs byte-identical to
//! uninterrupted ones.

use crate::journal::{self, Event};
use crate::store::RunSpec;
use std::io::Write;
use std::path::{Path, PathBuf};
use uvllm_json::{s, Json};

/// File name of the compaction checkpoint inside the data directory.
pub const SNAPSHOT_FILE: &str = "store.snapshot.json";

/// Format tag the snapshot self-identifies with.
pub const SNAPSHOT_FORMAT: &str = "uvllm-store-snapshot/v1";

/// A shard's durable lifecycle phase. Lease deadlines are `Instant`s
/// and meaningless across processes, so they are not part of the
/// image — the live store keeps them beside it, and recovery expires
/// every lease anyway.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardPhase {
    /// Never leased, or reclaimed and waiting.
    Pending,
    /// Leased to `worker`.
    Leased { worker: String },
    /// Completed by `worker`.
    Done { worker: String },
}

impl ShardPhase {
    /// The wire label: `"pending" | "leased" | "done"`.
    pub fn label(&self) -> &'static str {
        match self {
            ShardPhase::Pending => "pending",
            ShardPhase::Leased { .. } => "leased",
            ShardPhase::Done { .. } => "done",
        }
    }

    /// The holding or completing worker, if any.
    pub fn worker(&self) -> Option<&str> {
        match self {
            ShardPhase::Pending => None,
            ShardPhase::Leased { worker } | ShardPhase::Done { worker } => Some(worker),
        }
    }
}

/// One shard's durable state.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardImage {
    pub phase: ShardPhase,
    /// Fencing token at image time.
    pub epoch: u64,
    /// Times an expired lease was re-granted.
    pub steals: u64,
    /// The shard's JSONL sink.
    pub sink: PathBuf,
    /// Last worker-pushed progress (heartbeat `rows_done`).
    pub rows_done: u64,
}

/// One run's durable state.
#[derive(Debug, Clone, PartialEq)]
pub struct RunImage {
    pub id: String,
    pub spec: RunSpec,
    pub shards: Vec<ShardImage>,
}

/// The whole store's durable state: what the live store transitions,
/// what the snapshot holds and what journal replay folds events into.
#[derive(Debug, Clone, Default)]
pub struct StoreImage {
    /// Sequence number of the last record folded in (0 = none).
    pub seq: u64,
    pub runs: Vec<RunImage>,
}

impl StoreImage {
    /// `run-N` ids are minted from a counter; the next mint must clear
    /// every recovered id.
    pub fn max_run_number(&self) -> u64 {
        self.runs
            .iter()
            .filter_map(|run| run.id.strip_prefix("run-"))
            .filter_map(|n| n.parse::<u64>().ok())
            .max()
            .unwrap_or(0)
    }

    /// Folds one journal record in, skipping stale sequence numbers
    /// (already in the snapshot): every live transition right after
    /// its append, and every replayed record at boot. Unknown
    /// runs/shards are reported, not fatal — a truncated journal
    /// suffix must not brick the boot.
    pub fn apply(&mut self, seq: u64, event: &Event, data_dir: &Path, diags: &mut Vec<String>) {
        if seq <= self.seq {
            return;
        }
        self.seq = seq;
        let mut diag = |message: String| diags.push(format!("journal seq {seq}: {message}"));
        match event {
            Event::Submit { run, spec } => {
                let dir = data_dir.join(run);
                let shards = (0..spec.shards)
                    .map(|i| ShardImage {
                        phase: ShardPhase::Pending,
                        epoch: 0,
                        steals: 0,
                        sink: dir.join(format!("shard-{i}.jsonl")),
                        rows_done: 0,
                    })
                    .collect();
                self.runs.push(RunImage { id: run.clone(), spec: spec.clone(), shards });
            }
            Event::Lease { run, shard, epoch, worker, stolen } => {
                let Some(image) = self.runs.iter_mut().find(|r| &r.id == run) else {
                    return diag(format!("lease for unknown run '{run}'"));
                };
                let Some(image) = image.shards.get_mut(*shard) else {
                    return diag(format!("lease for unknown shard {shard} of '{run}'"));
                };
                image.phase = ShardPhase::Leased { worker: worker.clone() };
                image.epoch = *epoch;
                image.steals += u64::from(*stolen);
            }
            Event::Heartbeat { run, shard, epoch, rows_done } => {
                let Some(image) = self
                    .runs
                    .iter_mut()
                    .find(|r| &r.id == run)
                    .and_then(|r| r.shards.get_mut(*shard))
                else {
                    return diag(format!("heartbeat for unknown shard {shard} of '{run}'"));
                };
                if image.epoch == *epoch {
                    image.rows_done = *rows_done;
                }
            }
            Event::Complete { run, shard, epoch: _, worker } => {
                let Some(image) = self
                    .runs
                    .iter_mut()
                    .find(|r| &r.id == run)
                    .and_then(|r| r.shards.get_mut(*shard))
                else {
                    return diag(format!("complete for unknown shard {shard} of '{run}'"));
                };
                image.phase = ShardPhase::Done { worker: worker.clone() };
            }
            // Derived state (all shards done) — journaled for the
            // crash knob and the audit trail, nothing to fold in.
            Event::Finish { .. } => {}
        }
    }

    fn to_json(&self) -> Json {
        let runs = self
            .runs
            .iter()
            .map(|run| {
                let shards = run
                    .shards
                    .iter()
                    .map(|shard| {
                        Json::Obj(vec![
                            ("state".to_string(), s(shard.phase.label())),
                            ("worker".to_string(), shard.phase.worker().map_or(Json::Null, s)),
                            ("epoch".to_string(), Json::Num(shard.epoch as f64)),
                            ("steals".to_string(), Json::Num(shard.steals as f64)),
                            ("sink".to_string(), s(shard.sink.display().to_string())),
                            ("rows_done".to_string(), Json::Num(shard.rows_done as f64)),
                        ])
                    })
                    .collect();
                Json::Obj(vec![
                    ("id".to_string(), s(run.id.clone())),
                    ("spec".to_string(), run.spec.to_json()),
                    ("shards".to_string(), Json::Arr(shards)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("format".to_string(), s(SNAPSHOT_FORMAT)),
            ("seq".to_string(), Json::Num(self.seq as f64)),
            ("runs".to_string(), Json::Arr(runs)),
        ])
    }

    fn from_json(json: &Json) -> Result<StoreImage, String> {
        let format =
            json.get("format").and_then(Json::as_str).ok_or("snapshot missing 'format'")?;
        if format != SNAPSHOT_FORMAT {
            return Err(format!("unknown snapshot format '{format}'"));
        }
        let seq = json.get("seq").and_then(Json::as_u64).ok_or("snapshot missing 'seq'")?;
        let mut runs = Vec::new();
        for run in json.get("runs").and_then(Json::as_array).ok_or("snapshot missing 'runs'")? {
            let id = run
                .get("id")
                .and_then(Json::as_str)
                .ok_or("snapshot run missing 'id'")?
                .to_string();
            let spec = RunSpec::from_json(
                run.get("spec").ok_or("snapshot run missing 'spec'")?,
                std::time::Duration::from_secs(60),
            )?;
            let mut shards = Vec::new();
            for shard in
                run.get("shards").and_then(Json::as_array).ok_or("snapshot run missing 'shards'")?
            {
                let worker = shard.get("worker").and_then(Json::as_str).map(str::to_string);
                let phase = match shard.get("state").and_then(Json::as_str) {
                    Some("pending") => ShardPhase::Pending,
                    Some("leased") => ShardPhase::Leased {
                        worker: worker.ok_or("leased snapshot shard missing 'worker'")?,
                    },
                    Some("done") => ShardPhase::Done {
                        worker: worker.ok_or("done snapshot shard missing 'worker'")?,
                    },
                    other => return Err(format!("bad snapshot shard state {other:?}")),
                };
                shards.push(ShardImage {
                    phase,
                    epoch: shard
                        .get("epoch")
                        .and_then(Json::as_u64)
                        .ok_or("snapshot shard missing 'epoch'")?,
                    steals: shard.get("steals").and_then(Json::as_u64).unwrap_or(0),
                    sink: PathBuf::from(
                        shard
                            .get("sink")
                            .and_then(Json::as_str)
                            .ok_or("snapshot shard missing 'sink'")?,
                    ),
                    rows_done: shard.get("rows_done").and_then(Json::as_u64).unwrap_or(0),
                });
            }
            runs.push(RunImage { id, spec, shards });
        }
        Ok(StoreImage { seq, runs })
    }
}

/// Writes the compaction checkpoint atomically: temp file, fsync,
/// rename over the old snapshot. A crash at any point leaves either
/// the old snapshot or the new one, never a torn mix.
///
/// # Errors
///
/// File-system failures.
pub fn write_snapshot(dir: &Path, image: &StoreImage) -> std::io::Result<()> {
    let tmp = dir.join(format!("{SNAPSHOT_FILE}.tmp"));
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(image.to_json().render().as_bytes())?;
    file.sync_data()?;
    drop(file);
    std::fs::rename(&tmp, dir.join(SNAPSHOT_FILE))
}

/// What a boot-time recovery found and did.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Runs alive again after recovery.
    pub runs: usize,
    /// Journal records newer than the snapshot that were folded in.
    pub records_replayed: u64,
    /// Sequence number the snapshot covered (0 = no usable snapshot).
    pub snapshot_seq: u64,
    /// In-flight leases expired (epochs bumped) so pre-crash workers
    /// are fenced to `409 LeaseLost`.
    pub leases_expired: u64,
    /// Everything non-fatal that was wrong: torn journal tail, corrupt
    /// records, a corrupt snapshot, events naming unknown runs.
    pub diags: Vec<String>,
}

impl RecoveryReport {
    /// True when the boot found prior state to recover (the
    /// `serve.recoveries` signal).
    pub fn recovered_state(&self) -> bool {
        self.runs > 0 || self.records_replayed > 0 || self.snapshot_seq > 0
    }

    /// One log line for the CLI.
    pub fn render(&self) -> String {
        format!(
            "recovered {} run(s): snapshot seq {}, {} journal record(s) replayed, {} lease(s) \
             expired{}",
            self.runs,
            self.snapshot_seq,
            self.records_replayed,
            self.leases_expired,
            if self.diags.is_empty() {
                String::new()
            } else {
                format!(", {} diag(s)", self.diags.len())
            },
        )
    }
}

/// The outcome of [`recover`]: the rebuilt image plus what the journal
/// file physically holds (the store needs both to reopen the journal
/// with correct sequence and compaction accounting).
#[derive(Debug)]
pub struct Recovery {
    pub image: StoreImage,
    /// Valid records currently in the journal file (including ones
    /// older than the snapshot — they still occupy file space and
    /// count toward the compaction threshold).
    pub journal_records: u64,
    pub report: RecoveryReport,
}

/// Rebuilds the store image from `dir`: snapshot, then journal records
/// with `seq > snapshot.seq` (journal wins), then lease expiry. An
/// empty directory recovers to the empty image with an empty report.
///
/// # Errors
///
/// I/O failures reading the files; *corruption* in either file is a
/// diagnostic, not an error.
pub fn recover(dir: &Path) -> std::io::Result<Recovery> {
    let mut report = RecoveryReport::default();
    let snapshot_path = dir.join(SNAPSHOT_FILE);
    let mut image = match std::fs::read_to_string(&snapshot_path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => StoreImage::default(),
        Err(e) => return Err(e),
        Ok(text) => match Json::parse(&text)
            .map_err(|e| e.to_string())
            .and_then(|json| StoreImage::from_json(&json))
        {
            Ok(image) => image,
            Err(message) => {
                // A corrupt snapshot degrades to a journal-only boot:
                // worst case some compacted history is gone and the
                // affected runs restart from their sinks.
                report.diags.push(format!(
                    "{}: corrupt snapshot ({message}) — ignoring it",
                    snapshot_path.display()
                ));
                StoreImage::default()
            }
        },
    };
    report.snapshot_seq = image.seq;

    let replay = journal::replay(dir)?;
    if let Some(diag) = replay.diag {
        report.diags.push(diag);
    }
    for (seq, event) in &replay.events {
        let before = image.seq;
        image.apply(*seq, event, dir, &mut report.diags);
        if image.seq > before {
            report.records_replayed += 1;
        }
    }

    // Fence out every pre-crash lease: pending again, epoch bumped, so
    // stale heartbeats/completes answer 409 and the shard re-grants.
    for run in &mut image.runs {
        for shard in &mut run.shards {
            if matches!(shard.phase, ShardPhase::Leased { .. }) {
                shard.phase = ShardPhase::Pending;
                shard.epoch += 1;
                report.leases_expired += 1;
            }
        }
    }
    report.runs = image.runs.len();
    Ok(Recovery { image, journal_records: replay.records, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{Journal, JournalConfig};
    use std::time::Duration;
    use uvllm_campaign::MethodKind;

    fn spec(shards: usize) -> RunSpec {
        RunSpec {
            size: 2,
            seed: 0x42,
            methods: vec![MethodKind::Strider],
            shards,
            lease: Duration::from_millis(500),
        }
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("uvllm-recovery-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn journaled(dir: &Path, events: &[Event]) {
        let mut journal = Journal::open(dir, JournalConfig::default(), 1, 0).unwrap();
        for event in events {
            journal.append(event).unwrap();
        }
    }

    #[test]
    fn empty_dir_recovers_to_empty_image() {
        let dir = temp_dir("empty");
        let recovery = recover(&dir).unwrap();
        assert!(recovery.image.runs.is_empty());
        assert!(!recovery.report.recovered_state());
        assert!(recovery.report.diags.is_empty());
    }

    #[test]
    fn journal_only_boot_rebuilds_runs_and_expires_leases() {
        let dir = temp_dir("journal-only");
        journaled(
            &dir,
            &[
                Event::Submit { run: "run-7".into(), spec: spec(2) },
                Event::Lease {
                    run: "run-7".into(),
                    shard: 0,
                    epoch: 1,
                    worker: "a".into(),
                    stolen: false,
                },
                Event::Heartbeat { run: "run-7".into(), shard: 0, epoch: 1, rows_done: 3 },
                Event::Lease {
                    run: "run-7".into(),
                    shard: 1,
                    epoch: 1,
                    worker: "b".into(),
                    stolen: false,
                },
                Event::Complete { run: "run-7".into(), shard: 1, epoch: 1, worker: "b".into() },
            ],
        );
        let recovery = recover(&dir).unwrap();
        let report = &recovery.report;
        assert!(report.recovered_state());
        assert_eq!(report.records_replayed, 5);
        assert_eq!(report.leases_expired, 1, "only shard 0 was in flight");
        assert_eq!(recovery.image.max_run_number(), 7);

        let run = &recovery.image.runs[0];
        assert_eq!(run.spec, spec(2));
        // The in-flight lease is expired and fenced...
        assert_eq!(run.shards[0].phase, ShardPhase::Pending);
        assert_eq!(run.shards[0].epoch, 2, "bumped past the dead worker's epoch 1");
        assert_eq!(run.shards[0].rows_done, 3, "pushed progress survives");
        // ...while the completed shard stands.
        assert_eq!(run.shards[1].phase, ShardPhase::Done { worker: "b".into() });
        assert_eq!(run.shards[1].sink, dir.join("run-7").join("shard-1.jsonl"));
    }

    /// Recovers a journal whose `Submit` record carries the retired
    /// spec `member`: the member is ignored and the run comes back
    /// exactly as a current binary would have journalled it.
    fn legacy_journal_recovers_as_current(name: &str, member: &str) {
        let dir = temp_dir(name);
        std::fs::write(
            dir.join(crate::journal::JOURNAL_FILE),
            crate::journal::legacy_submit_record(1, "run-7", &spec(2), member),
        )
        .unwrap();
        // Later records append behind the legacy one as usual.
        let mut journal = Journal::open(&dir, JournalConfig::default(), 2, 1).unwrap();
        journal
            .append(&Event::Lease {
                run: "run-7".into(),
                shard: 0,
                epoch: 1,
                worker: "a".into(),
                stolen: false,
            })
            .unwrap();
        drop(journal);
        let recovery = recover(&dir).unwrap();
        assert!(recovery.report.diags.is_empty(), "{:?}", recovery.report.diags);
        assert_eq!(recovery.report.records_replayed, 2);
        assert_eq!(recovery.image.runs[0].spec, spec(2));
        assert_eq!(recovery.report.leases_expired, 1);
    }

    /// A journal written before `opt_level` left the spec.
    #[test]
    fn journal_with_opt_level_in_its_submit_records_recovers() {
        legacy_journal_recovers_as_current("legacy-journal", "\"opt_level\":2");
    }

    /// A journal written before `backend` left the spec, by a run on
    /// the kernel that no longer exists.
    #[test]
    fn journal_with_a_backend_in_its_submit_records_recovers() {
        legacy_journal_recovers_as_current("legacy-backend", "\"backend\":\"compiled\"");
    }

    #[test]
    fn snapshot_round_trips_and_journal_wins_disagreements() {
        let dir = temp_dir("journal-wins");
        // Snapshot at seq 4: shard 0 leased, shard 1 pending.
        let image = StoreImage {
            seq: 4,
            runs: vec![RunImage {
                id: "run-3".into(),
                spec: spec(2),
                shards: vec![
                    ShardImage {
                        phase: ShardPhase::Leased { worker: "old".into() },
                        epoch: 2,
                        steals: 1,
                        sink: dir.join("run-3").join("shard-0.jsonl"),
                        rows_done: 5,
                    },
                    ShardImage {
                        phase: ShardPhase::Pending,
                        epoch: 0,
                        steals: 0,
                        sink: dir.join("run-3").join("shard-1.jsonl"),
                        rows_done: 0,
                    },
                ],
            }],
        };
        write_snapshot(&dir, &image).unwrap();

        // The journal carries both pre-snapshot records (seq ≤ 4, must
        // be skipped — a crash before truncation leaves exactly this)
        // and newer ones that contradict the snapshot (must win).
        let mut journal = Journal::open(&dir, JournalConfig::default(), 3, 0).unwrap();
        journal // seq 3: stale — folding it again would double-count the steal
            .append(&Event::Lease {
                run: "run-3".into(),
                shard: 0,
                epoch: 2,
                worker: "old".into(),
                stolen: true,
            })
            .unwrap();
        journal // seq 4: stale heartbeat
            .append(&Event::Heartbeat { run: "run-3".into(), shard: 0, epoch: 2, rows_done: 5 })
            .unwrap();
        journal // seq 5: news — the lease completed after the snapshot
            .append(&Event::Complete {
                run: "run-3".into(),
                shard: 0,
                epoch: 2,
                worker: "old".into(),
            })
            .unwrap();
        drop(journal);

        let recovery = recover(&dir).unwrap();
        let report = &recovery.report;
        assert_eq!(report.snapshot_seq, 4);
        assert_eq!(report.records_replayed, 1, "only seq 5 is newer than the snapshot");
        assert_eq!(recovery.journal_records, 3, "the file still holds all three");
        assert_eq!(report.leases_expired, 0);
        let shard = &recovery.image.runs[0].shards[0];
        assert_eq!(shard.phase, ShardPhase::Done { worker: "old".into() }, "journal wins");
        assert_eq!(shard.steals, 1, "stale records were not double-applied");
    }

    #[test]
    fn empty_journal_with_stale_snapshot_restores_the_snapshot() {
        let dir = temp_dir("stale-snapshot");
        let image = StoreImage {
            seq: 9,
            runs: vec![RunImage {
                id: "run-2".into(),
                spec: spec(1),
                shards: vec![ShardImage {
                    phase: ShardPhase::Leased { worker: "gone".into() },
                    epoch: 4,
                    steals: 0,
                    sink: dir.join("run-2").join("shard-0.jsonl"),
                    rows_done: 1,
                }],
            }],
        };
        write_snapshot(&dir, &image).unwrap();
        // No journal file at all — compaction truncated it and the
        // crash hit before any further writes.
        let recovery = recover(&dir).unwrap();
        assert_eq!(recovery.report.records_replayed, 0);
        assert_eq!(recovery.report.snapshot_seq, 9);
        assert!(recovery.report.recovered_state());
        let shard = &recovery.image.runs[0].shards[0];
        assert_eq!(shard.phase, ShardPhase::Pending, "the stale lease is expired");
        assert_eq!(shard.epoch, 5);
    }

    #[test]
    fn corrupt_snapshot_degrades_to_journal_only_boot() {
        let dir = temp_dir("corrupt-snapshot");
        std::fs::write(dir.join(SNAPSHOT_FILE), "{\"format\": \"who-knows/v9\"}").unwrap();
        journaled(&dir, &[Event::Submit { run: "run-1".into(), spec: spec(1) }]);
        let recovery = recover(&dir).unwrap();
        assert_eq!(recovery.image.runs.len(), 1, "the journal still rebuilds the run");
        assert!(
            recovery.report.diags.iter().any(|d| d.contains("corrupt snapshot")),
            "{:?}",
            recovery.report.diags
        );
    }

    #[test]
    fn unknown_run_in_journal_is_a_diag_not_a_crash() {
        let dir = temp_dir("unknown-run");
        journaled(
            &dir,
            &[Event::Complete { run: "run-404".into(), shard: 0, epoch: 1, worker: "w".into() }],
        );
        let recovery = recover(&dir).unwrap();
        assert!(recovery.image.runs.is_empty());
        assert!(recovery.report.diags.iter().any(|d| d.contains("run-404")));
    }
}
