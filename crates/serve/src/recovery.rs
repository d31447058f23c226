//! Cold-start recovery: rebuild the job store from `journal.jsonl`
//! after a crash (or a clean restart — the path is the same).
//!
//! The journal says which runs were submitted and how many boots came
//! before (see [`crate::journal`]); [`recover`] rebuilds each run with
//! every shard pending. The shard sinks decide the rest: once the
//! server's boot poll has indexed them, a shard whose sink holds a row
//! for every job it owns is marked done (see [`crate::server`]). No
//! lease survives a restart, and every epoch the restarted store grants
//! carries the new boot generation, so a pre-crash worker that reports
//! in gets the same `409 LeaseLost` it would after work stealing. Rows
//! the dead leases flushed stay in the sinks, and the sink resume
//! protocol skips them on re-lease, which is what makes recovered runs
//! byte-identical to uninterrupted ones.
//!
//! Older builds compacted the journal into `store.snapshot.json`. Such a
//! snapshot is still read for each run's `id` and `spec`, and the
//! journal records it already covers (`seq <= snapshot.seq`) are
//! skipped. Nothing writes one any more.

use crate::journal::{self, Event};
use crate::store::RunSpec;
use std::path::{Path, PathBuf};
use uvllm_json::Json;

/// File name of an older build's compaction checkpoint inside the data
/// directory.
pub const SNAPSHOT_FILE: &str = "store.snapshot.json";

/// Format tag that checkpoint self-identifies with.
pub const SNAPSHOT_FORMAT: &str = "uvllm-store-snapshot/v1";

/// A shard's lifecycle phase in the live store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPhase {
    /// Never leased since boot, or its sink was short of rows at boot.
    Pending,
    /// Leased; the live store keeps its deadline beside the image.
    Leased,
    /// Completed, or its sink held all its rows at boot.
    Done,
}

impl ShardPhase {
    /// The wire label: `"pending" | "leased" | "done"`.
    pub fn label(self) -> &'static str {
        match self {
            ShardPhase::Pending => "pending",
            ShardPhase::Leased => "leased",
            ShardPhase::Done => "done",
        }
    }
}

/// One shard's state.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardImage {
    pub phase: ShardPhase,
    /// The holding or completing worker, when this process granted the
    /// lease.
    pub worker: Option<String>,
    /// Fencing token of the shard's latest grant (0 before this boot
    /// granted one).
    pub epoch: u64,
    /// Times an expired lease was re-granted.
    pub steals: u64,
    /// The shard's JSONL sink.
    pub sink: PathBuf,
    /// Last worker-pushed progress (heartbeat `rows_done`).
    pub rows_done: u64,
}

/// One run's state.
#[derive(Debug, Clone, PartialEq)]
pub struct RunImage {
    pub id: String,
    pub spec: RunSpec,
    pub shards: Vec<ShardImage>,
}

impl RunImage {
    /// A run as submitted: every shard pending, its sinks in
    /// `data_dir/<id>/`.
    fn new(id: String, spec: RunSpec, data_dir: &Path) -> RunImage {
        let dir = data_dir.join(&id);
        let shards = (0..spec.shards)
            .map(|i| ShardImage {
                phase: ShardPhase::Pending,
                worker: None,
                epoch: 0,
                steals: 0,
                sink: dir.join(format!("shard-{i}.jsonl")),
                rows_done: 0,
            })
            .collect();
        RunImage { id, spec, shards }
    }
}

/// The store's state: what the live store transitions and what journal
/// replay folds records into.
#[derive(Debug, Clone, Default)]
pub struct StoreImage {
    /// Sequence number of the last record folded in (0 = none).
    pub seq: u64,
    /// `boot` records folded in: the live store's generation.
    pub boots: u64,
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
    /// (already in an older build's snapshot): every live submission
    /// and boot right after its append, and every replayed record at
    /// boot. An older build's lease, heartbeat, complete and finish
    /// records fold nothing — the sinks hold the progress they tracked
    /// — but one naming an unknown run is reported, not fatal.
    pub fn apply(&mut self, seq: u64, event: &Event, data_dir: &Path, diags: &mut Vec<String>) {
        if seq <= self.seq {
            return;
        }
        self.seq = seq;
        match event {
            Event::Submit { run, spec } => {
                self.runs.push(RunImage::new(run.clone(), spec.clone(), data_dir));
            }
            Event::Boot => self.boots += 1,
            other => {
                let run = other.run().unwrap_or_default();
                if !self.runs.iter().any(|r| r.id == run) {
                    diags.push(format!(
                        "journal seq {seq}: {} for unknown run '{run}'",
                        other.kind()
                    ));
                }
            }
        }
    }
}

/// Reads an older build's `store.snapshot.json`: its `seq` and each
/// run's `id` and `spec`. A missing file is the empty image; a corrupt
/// one is a diagnostic and the empty image.
fn read_snapshot(dir: &Path, diags: &mut Vec<String>) -> std::io::Result<StoreImage> {
    let path = dir.join(SNAPSHOT_FILE);
    let text = match std::fs::read_to_string(&path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(StoreImage::default()),
        result => result?,
    };
    let image = Json::parse(&text).map_err(|e| e.to_string()).and_then(|json| {
        let format =
            json.get("format").and_then(Json::as_str).ok_or("snapshot missing 'format'")?;
        if format != SNAPSHOT_FORMAT {
            return Err(format!("unknown snapshot format '{format}'"));
        }
        let seq = json.get("seq").and_then(Json::as_u64).ok_or("snapshot missing 'seq'")?;
        let mut image = StoreImage { seq, ..StoreImage::default() };
        for run in json.get("runs").and_then(Json::as_array).ok_or("snapshot missing 'runs'")? {
            let id = run.get("id").and_then(Json::as_str).ok_or("snapshot run missing 'id'")?;
            let spec = RunSpec::from_json(
                run.get("spec").ok_or("snapshot run missing 'spec'")?,
                std::time::Duration::from_secs(60),
            )?;
            image.runs.push(RunImage::new(id.to_string(), spec, dir));
        }
        Ok(image)
    });
    Ok(image.unwrap_or_else(|message| {
        // The journal still rebuilds the runs submitted after it.
        diags.push(format!("{}: corrupt snapshot ({message}) — ignoring it", path.display()));
        StoreImage::default()
    }))
}

/// What a boot-time recovery found.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Runs alive again after recovery.
    pub runs: usize,
    /// Journal records newer than the snapshot that were replayed.
    pub records_replayed: u64,
    /// Sequence number an older build's snapshot covered (0 = none).
    pub snapshot_seq: u64,
    /// Everything non-fatal that was wrong: torn journal tail, corrupt
    /// records, a corrupt snapshot, records naming unknown runs.
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
            "recovered {} run(s): snapshot seq {}, {} journal record(s) replayed{}",
            self.runs,
            self.snapshot_seq,
            self.records_replayed,
            if self.diags.is_empty() {
                String::new()
            } else {
                format!(", {} diag(s)", self.diags.len())
            },
        )
    }
}

/// The outcome of [`recover`]: the rebuilt image and its report.
#[derive(Debug)]
pub struct Recovery {
    pub image: StoreImage,
    pub report: RecoveryReport,
}

/// Rebuilds the store image from `dir`: an older build's snapshot, if
/// any, then the journal records with `seq > snapshot.seq`. Every shard
/// comes back pending. An empty directory recovers to the empty image
/// with an empty report.
///
/// # Errors
///
/// I/O failures reading the files; *corruption* in either file is a
/// diagnostic, not an error.
pub fn recover(dir: &Path) -> std::io::Result<Recovery> {
    let mut report = RecoveryReport::default();
    let mut image = read_snapshot(dir, &mut report.diags)?;
    report.snapshot_seq = image.seq;
    let replay = journal::replay(dir)?;
    report.diags.extend(replay.diag);
    for (seq, event) in &replay.events {
        if *seq > image.seq {
            report.records_replayed += 1;
        }
        image.apply(*seq, event, dir, &mut report.diags);
    }
    report.runs = image.runs.len();
    Ok(Recovery { image, report })
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

    /// A `store.snapshot.json` as older builds wrote it at `seq`, with
    /// `run`'s shards in `state` — the shard half recovery ignores.
    fn old_snapshot(dir: &Path, seq: u64, run: &str, spec: &RunSpec, state: &str) {
        let shards: Vec<String> = (0..spec.shards)
            .map(|i| {
                let sink = dir.join(run).join(format!("shard-{i}.jsonl"));
                format!(
                    "{{\"state\":\"{state}\",\"worker\":\"old\",\"epoch\":2,\"steals\":1,\
                     \"sink\":\"{}\",\"rows_done\":5}}",
                    sink.display()
                )
            })
            .collect();
        let text = format!(
            "{{\"format\":\"{SNAPSHOT_FORMAT}\",\"seq\":{seq},\"runs\":[{{\"id\":\"{run}\",\
             \"spec\":{},\"shards\":[{}]}}]}}",
            spec.to_json().render(),
            shards.join(",")
        );
        std::fs::write(dir.join(SNAPSHOT_FILE), text).unwrap();
    }

    fn assert_pending(run: &RunImage, dir: &Path) {
        for (i, shard) in run.shards.iter().enumerate() {
            assert_eq!((shard.phase, &shard.worker, shard.epoch), (ShardPhase::Pending, &None, 0));
            assert_eq!(shard.sink, dir.join(&run.id).join(format!("shard-{i}.jsonl")));
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

    /// A journal an older build wrote, with every record kind it
    /// journaled: each record counts as replayed, only the submit
    /// folds, and every shard comes back pending for the sinks to
    /// judge.
    #[test]
    fn an_older_builds_journal_replays_and_only_submits_fold() {
        let dir = temp_dir("older-journal");
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
                Event::Complete { run: "run-7".into(), shard: 0, epoch: 1, worker: "a".into() },
                Event::Finish { run: "run-7".into() },
            ],
        );
        let recovery = recover(&dir).unwrap();
        let report = &recovery.report;
        assert!(report.recovered_state());
        assert!(report.diags.is_empty(), "{:?}", report.diags);
        assert_eq!(report.records_replayed, 5);
        assert_eq!((recovery.image.seq, recovery.image.boots), (5, 0));
        assert_eq!(recovery.image.max_run_number(), 7);
        let run = &recovery.image.runs[0];
        assert_eq!(run.spec, spec(2));
        assert_pending(run, &dir);
        assert_eq!(run.shards[0].rows_done, 0, "progress is the sink's, not the journal's");
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
        journal.append(&Event::Boot).unwrap();
        drop(journal);
        let recovery = recover(&dir).unwrap();
        assert!(recovery.report.diags.is_empty(), "{:?}", recovery.report.diags);
        assert_eq!(recovery.report.records_replayed, 2);
        assert_eq!(recovery.image.boots, 1);
        assert_eq!(recovery.image.runs[0].spec, spec(2));
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

    /// An older build's snapshot restores its runs, its shard states
    /// ignored; journal records it covers are skipped and newer ones
    /// fold in.
    #[test]
    fn snapshot_round_trips_and_journal_wins_disagreements() {
        let dir = temp_dir("journal-wins");
        old_snapshot(&dir, 4, "run-3", &spec(2), "done");
        // Records the snapshot covers (a crash before the older build
        // truncated leaves exactly this) and one it does not.
        let mut journal = Journal::open(&dir, JournalConfig::default(), 3, 0).unwrap();
        journal // seq 3: stale — folding it would duplicate run-3
            .append(&Event::Submit { run: "run-3".into(), spec: spec(2) })
            .unwrap();
        journal // seq 4: stale
            .append(&Event::Heartbeat { run: "run-3".into(), shard: 0, epoch: 2, rows_done: 5 })
            .unwrap();
        journal // seq 5: news
            .append(&Event::Submit { run: "run-4".into(), spec: spec(1) })
            .unwrap();
        drop(journal);

        let recovery = recover(&dir).unwrap();
        let report = &recovery.report;
        assert!(report.diags.is_empty(), "{:?}", report.diags);
        assert_eq!(report.snapshot_seq, 4);
        assert_eq!(report.records_replayed, 1, "only seq 5 is newer than the snapshot");
        let ids: Vec<&str> = recovery.image.runs.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, ["run-3", "run-4"]);
        assert_eq!(recovery.image.runs[0].spec, spec(2));
        for run in &recovery.image.runs {
            assert_pending(run, &dir);
        }
    }

    #[test]
    fn empty_journal_with_stale_snapshot_restores_the_snapshot() {
        let dir = temp_dir("stale-snapshot");
        old_snapshot(&dir, 9, "run-2", &spec(1), "leased");
        // No journal file at all — the older build's compaction
        // truncated it and the crash hit before any further writes.
        let recovery = recover(&dir).unwrap();
        assert_eq!(recovery.report.records_replayed, 0);
        assert_eq!(recovery.report.snapshot_seq, 9);
        assert!(recovery.report.recovered_state());
        assert_eq!(recovery.image.seq, 9, "the next record is seq 10");
        assert_eq!(recovery.image.max_run_number(), 2);
        assert_pending(&recovery.image.runs[0], &dir);
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
