//! The live aggregator: a rolling, deduplicated index of every run's
//! shard sinks, built by tailing their JSONL files with
//! [`SinkTailer`] — the same reader `campaign merge` uses, minus the
//! strictness: a torn trailing line here just means a worker is
//! mid-append, so it stays pending until the next fold.
//!
//! Nothing folds on a timer. A read of one run folds that run's fresh
//! lines under the lock it reads under, so no read is staler than the
//! sinks; [`Aggregator::poll`] folds every run (for `GET /metrics`,
//! boot and the final drain).
//!
//! A run holds no rows. Each new line is parsed once — to check its id,
//! dedupe it and count it into the report's [`ReportTallies`] — and
//! dropped. What stays is where each job's first copy lives (sink, byte
//! offset, length: 16 bytes a job) and, once every job is in, the
//! rendered report. `GET /runs/<id>/rows` reads the indexed lines back
//! from the sinks, so a resident server's memory does not grow with
//! the rows it has served.
//!
//! Work stealing makes duplicate rows *normal*: a stolen shard's first
//! holder may have appended rows the thief re-evaluates. The
//! determinism contract says those duplicates are byte-identical, so
//! the aggregator keys rows by job id and keeps the first copy —
//! flagging any duplicate that *differs* as a diagnostic, because that
//! would mean the contract broke.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use uvllm_campaign::{expected_job_ids, EvalRow, MethodKind, ReportTallies, ShardSpec, SinkTailer};

use crate::memo::Memo;
use crate::store::RunSpec;

/// Distinct job-id spaces a resident server keeps; resubmissions of a
/// held spec skip the dataset build inside `POST /jobs`.
const ID_SPACES_KEPT: usize = 8;

/// What a run's job-id space is a function of.
type IdSpaceKey = (usize, u64, Vec<MethodKind>);

/// Where a job's first row lives: `len` bytes at `offset` in the run's
/// sink number `sink`; `len == 0` while the job has no row. A line
/// that is not its row's canonical encoding (nothing [`JsonlSink`]
/// writes) is served re-encoded: `sink` is then [`REENCODED`] and
/// `offset` indexes the run's `reencoded` lines.
///
/// [`JsonlSink`]: uvllm_campaign::JsonlSink
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    offset: u64,
    len: u32,
    sink: u32,
}

/// [`Slot::sink`] of a row served from its re-encoding.
const REENCODED: u32 = u32::MAX;

// A default run's index is 1 986 of these.
const _: () = assert!(std::mem::size_of::<Slot>() == 16);

/// One run's rolling state.
struct RunAgg {
    run: String,
    tailers: Vec<SinkTailer>,
    /// The run's full job-id space, sorted — the canonical row order
    /// `campaign merge` produces — and shared with every other run of
    /// the same dataset and methods.
    ids: Arc<[String]>,
    /// Each job's first row, in `ids` order.
    slots: Vec<Slot>,
    /// Jobs with a row.
    filled: usize,
    /// Canonical encodings of first copies stored in another form.
    reencoded: Vec<Box<str>>,
    /// Located parse failures, contract violations, foreign rows.
    diags: Vec<String>,
    /// The report's tallies while rows come in; dropped when the last
    /// row is in and `report` is rendered from them.
    tallies: Option<ReportTallies>,
    /// The complete run's report: its rows cannot change, so every read
    /// shares one render.
    report: Option<Arc<str>>,
}

/// A row copy the tailer handed over that is not a job's first.
enum Later {
    /// Outside the run's job space (the id).
    Foreign(String),
    /// A later copy of job number `.0`, canonically encoded.
    Copy(usize, String),
}

impl RunAgg {
    /// The canonical bytes of the first copy `slot` locates.
    fn first_copy(&self, slot: Slot) -> std::io::Result<Vec<u8>> {
        match slot.sink {
            REENCODED => Ok(self.reencoded[slot.offset as usize].as_bytes().to_vec()),
            sink => read_range(self.tailers[sink as usize].path(), slot.offset, slot.len.into()),
        }
    }

    /// The deduplicated rows as canonical JSONL in job-id order, each
    /// sink read once, up to the end of its last indexed line.
    fn jsonl(&self) -> std::io::Result<String> {
        let mut ends = vec![0u64; self.tailers.len()];
        let stored = self.slots.iter().filter(|slot| slot.len > 0 && slot.sink != REENCODED);
        for slot in stored {
            let end = &mut ends[slot.sink as usize];
            *end = (*end).max(slot.offset + u64::from(slot.len));
        }
        let sinks: Vec<Vec<u8>> = self
            .tailers
            .iter()
            .zip(ends)
            .map(|(tailer, end)| read_range(tailer.path(), 0, end))
            .collect::<Result<_, _>>()?;
        let mut text = Vec::with_capacity(sinks.iter().map(Vec::len).sum());
        for slot in self.slots.iter().filter(|slot| slot.len > 0) {
            let line = match slot.sink {
                REENCODED => self.reencoded[slot.offset as usize].as_bytes(),
                sink => {
                    let start = slot.offset as usize;
                    &sinks[sink as usize][start..start + slot.len as usize]
                }
            };
            text.extend_from_slice(line);
            text.push(b'\n');
        }
        String::from_utf8(text).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

/// `len` bytes of `path` from `offset`.
fn read_range(path: &Path, offset: u64, len: u64) -> std::io::Result<Vec<u8>> {
    let mut bytes = vec![0; len as usize];
    if len > 0 {
        let mut file = File::open(path)?;
        file.seek(SeekFrom::Start(offset))?;
        file.read_exact(&mut bytes)?;
    }
    Ok(bytes)
}

/// A point-in-time copy of one run's aggregation, rows included, read
/// back from its sinks. Status queries use the copy-free
/// [`RunSummary`]; `GET /runs/<id>/rows` uses [`Aggregator::rows_jsonl`].
#[derive(Debug, Clone)]
pub struct RunView {
    pub run: String,
    /// Deduplicated rows in canonical job-id order.
    pub rows: Vec<EvalRow>,
    pub diags: Vec<String>,
    /// Size of the expected job space.
    pub expected: usize,
}

impl RunView {
    /// True once every expected job has a row.
    pub fn complete(&self) -> bool {
        self.rows.len() == self.expected
    }
}

/// What `GET /runs/<id>` reports of a run's aggregation, computed from
/// the aggregator's index: a status poll reads no row.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Deduplicated rows so far.
    pub rows: usize,
    /// Size of the expected job space.
    pub expected: usize,
    pub diags: Vec<String>,
    /// The Table-II style report over the run's rows, rendered once
    /// every expected row is in (and shared by every later read); `None`
    /// before that, so the polls of a running campaign pay for no
    /// render.
    pub report: Option<Arc<str>>,
}

impl RunSummary {
    /// True once every expected job has a row.
    pub fn complete(&self) -> bool {
        self.rows == self.expected
    }
}

/// All runs' rolling aggregation, folded only when asked (see the
/// module doc).
pub struct Aggregator {
    runs: Mutex<Vec<RunAgg>>,
    /// Job-id spaces by spec. Its own lock: a first submission builds
    /// a dataset under it, which must not hold up polls and reads.
    id_spaces: Mutex<Memo<IdSpaceKey, Arc<[String]>>>,
    /// `serve.rows_aggregated` — rows folded in across all runs.
    rows_aggregated: &'static uvllm_obs::Counter,
}

impl Aggregator {
    pub fn new() -> Aggregator {
        Aggregator {
            runs: Mutex::new(Vec::new()),
            id_spaces: Mutex::new(Memo::new(ID_SPACES_KEPT)),
            rows_aggregated: uvllm_obs::registry().counter("serve.rows_aggregated"),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Vec<RunAgg>> {
        self.runs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The sorted job-id space of `spec` (dataset size × seed ×
    /// methods), built the first time a spec is seen.
    fn id_space(&self, spec: &RunSpec) -> Arc<[String]> {
        let mut id_spaces = self.id_spaces.lock().unwrap_or_else(PoisonError::into_inner);
        let key = (spec.size, spec.seed, spec.methods.clone());
        Arc::clone(id_spaces.get_or_insert_with(key, || {
            let mut ids = expected_job_ids(spec.size, spec.seed, &spec.methods);
            ids.sort_unstable();
            ids.dedup();
            ids.into()
        }))
    }

    /// Registers a submitted run: looks up its expected job-id space
    /// and starts tailers on its shard sinks. The sinks need not exist
    /// yet — a tailer on a missing file reports empty batches until the
    /// first worker creates it.
    pub fn register(&self, run: &str, spec: &RunSpec, sinks: Vec<PathBuf>) {
        let ids = self.id_space(spec);
        self.lock().push(RunAgg {
            run: run.to_string(),
            tailers: sinks.into_iter().map(SinkTailer::new).collect(),
            slots: vec![Slot::default(); ids.len()],
            ids,
            filled: 0,
            reencoded: Vec::new(),
            diags: Vec::new(),
            tallies: Some(ReportTallies::new()),
            report: None,
        });
    }

    /// Tails every registered sink and folds fresh rows in. Cheap when
    /// nothing changed: a sink that has not grown costs one `stat`.
    pub fn poll(&self) {
        for agg in self.lock().iter_mut() {
            self.fold(agg);
        }
    }

    /// Folds run `run`'s fresh sink lines in, then reads it with `read`
    /// under the same lock: what every read of one run does, so no read
    /// is staler than that run's sinks and none pays for the others.
    fn read<T>(&self, run: &str, read: impl FnOnce(&mut RunAgg) -> T) -> Option<T> {
        let mut runs = self.lock();
        let agg = runs.iter_mut().find(|a| a.run == run)?;
        self.fold(agg);
        Some(read(agg))
    }

    fn fold(&self, agg: &mut RunAgg) {
        for sink in 0..agg.tailers.len() {
            let mut later = Vec::new();
            let RunAgg { tailers, ids, slots, filled, reencoded, tallies, .. } = &mut *agg;
            let polled = tailers[sink].poll_rows(|row, line| {
                let Ok(at) = ids.binary_search(&row.id) else {
                    later.push(Later::Foreign(row.id));
                    return;
                };
                let canonical = row.to_json_line();
                if slots[at].len > 0 {
                    later.push(Later::Copy(at, canonical));
                    return;
                }
                slots[at] = match u32::try_from(line.bytes.len()) {
                    Ok(len) if line.bytes == canonical.as_bytes() => {
                        Slot { offset: line.offset, len, sink: sink as u32 }
                    }
                    _ => {
                        reencoded.push(canonical.into());
                        Slot { offset: reencoded.len() as u64 - 1, len: 1, sink: REENCODED }
                    }
                };
                *filled += 1;
                if let Some(tallies) = tallies {
                    tallies.add(&row);
                }
                self.rows_aggregated.inc();
            });
            let path = agg.tailers[sink].path().display();
            match polled {
                Ok(diags) => agg.diags.extend(diags),
                Err(e) => agg.diags.push(format!("{path}: {e}")),
            }
            for later in later {
                let diag = match later {
                    Later::Foreign(id) => {
                        format!("{path}: row '{id}' is outside the run's job space")
                    }
                    // A byte-identical duplicate is a stolen shard's
                    // overlap — expected, drop it.
                    Later::Copy(at, canonical) => match agg.first_copy(agg.slots[at]) {
                        Ok(first) if first == canonical.as_bytes() => continue,
                        Ok(_) => format!(
                            "{path}: row '{}' differs from an earlier copy — determinism \
                             contract violation",
                            agg.ids[at],
                        ),
                        Err(e) => {
                            format!("{path}: row '{}': earlier copy unreadable: {e}", agg.ids[at])
                        }
                    },
                };
                agg.diags.push(diag);
            }
        }
        if agg.filled == agg.ids.len() {
            if let Some(tallies) = agg.tallies.take() {
                agg.report = Some(tallies.render().into());
            }
        }
    }

    /// The shards of run `run` whose jobs all have a row in the index,
    /// as of the last fold (one shard per registered sink). Reads no
    /// file; empty for unknown runs.
    pub fn filled_shards(&self, run: &str) -> Vec<usize> {
        let runs = self.lock();
        let Some(agg) = runs.iter().find(|a| a.run == run) else { return Vec::new() };
        let count = agg.tailers.len();
        let filled = |index| {
            let shard = ShardSpec { index, count };
            agg.ids.iter().zip(&agg.slots).all(|(id, slot)| slot.len > 0 || !shard.owns_id(id))
        };
        (0..count).filter(|&index| filled(index)).collect()
    }

    /// One run's deduplicated rows as canonical JSONL (job-id order,
    /// one line each) — what `GET /runs/<id>/rows` serves — read back
    /// from its sinks; `None` for unknown runs.
    pub fn rows_jsonl(&self, run: &str) -> Option<std::io::Result<String>> {
        self.read(run, |agg| agg.jsonl())
    }

    /// A copy of one run's current state, rows read back from its
    /// sinks, or `None` for unknown runs. A sink that cannot be read
    /// back is a diagnostic.
    pub fn view(&self, run: &str) -> Option<RunView> {
        self.read(run, |agg| {
            let mut diags = agg.diags.clone();
            let rows = match agg.jsonl() {
                Ok(text) => {
                    text.lines().filter_map(|line| EvalRow::from_json_line(line).ok()).collect()
                }
                Err(e) => {
                    diags.push(format!("run {run}: rows unreadable: {e}"));
                    Vec::new()
                }
            };
            RunView { run: agg.run.clone(), rows, diags, expected: agg.ids.len() }
        })
    }

    /// One run's counts, diagnostics and — once complete — rendered
    /// report, or `None` for unknown runs.
    pub fn summary(&self, run: &str) -> Option<RunSummary> {
        self.read(run, |agg| RunSummary {
            rows: agg.filled,
            expected: agg.ids.len(),
            diags: agg.diags.clone(),
            report: agg.report.clone(),
        })
    }
}

impl Default for Aggregator {
    fn default() -> Self {
        Aggregator::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::time::Duration;
    use uvllm_campaign::{Campaign, CampaignConfig, MemorySink, MethodKind};

    fn spec() -> RunSpec {
        RunSpec {
            size: 2,
            seed: 0x42,
            methods: vec![MethodKind::Strider],
            shards: 1,
            lease: Duration::from_secs(1),
        }
    }

    fn real_rows() -> Vec<EvalRow> {
        let config = CampaignConfig {
            dataset_size: 2,
            dataset_seed: 0x42,
            methods: vec![MethodKind::Strider],
            workers: 1,
            ..CampaignConfig::default()
        };
        let mut sink = MemorySink::new();
        Campaign::new(config).unwrap().run(&mut sink).unwrap();
        sink.rows().to_vec()
    }

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("uvllm-agg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn aggregates_incrementally_and_dedups_identical_rows() {
        let rows = real_rows();
        assert_eq!(rows.len(), 2);
        let path = temp_path("incr.jsonl");
        let _ = std::fs::remove_file(&path);

        let agg = Aggregator::new();
        agg.register("run-t1", &spec(), vec![path.clone()]);
        agg.poll();
        let view = agg.view("run-t1").unwrap();
        assert_eq!(view.rows.len(), 0, "missing sink file aggregates as empty");
        assert_eq!(view.expected, 2);
        assert!(!view.complete());

        let mut file = std::fs::File::create(&path).unwrap();
        writeln!(file, "{}", rows[0].to_json_line()).unwrap();
        file.flush().unwrap();
        agg.poll();
        assert_eq!(agg.view("run-t1").unwrap().rows.len(), 1);

        // The second row plus a byte-identical duplicate of the first
        // (a stolen shard's overlap): dedup keeps the count exact.
        writeln!(file, "{}", rows[1].to_json_line()).unwrap();
        writeln!(file, "{}", rows[0].to_json_line()).unwrap();
        file.flush().unwrap();
        agg.poll();
        let view = agg.view("run-t1").unwrap();
        assert_eq!(view.rows.len(), 2);
        assert!(view.complete());
        assert!(view.diags.is_empty(), "{:?}", view.diags);
        // Canonical order: sorted by job id.
        let ids: Vec<&str> = view.rows.iter().map(|r| r.id.as_str()).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn malformed_and_differing_rows_become_diagnostics() {
        let rows = real_rows();
        let path = temp_path("diag.jsonl");
        let mut mutated = rows[0].clone();
        mutated.llm_calls += 1;
        std::fs::write(
            &path,
            format!(
                "{}\nnot json at all\n{}\n{{\"id\": \"torn",
                rows[0].to_json_line(),
                mutated.to_json_line(),
            ),
        )
        .unwrap();

        let agg = Aggregator::new();
        agg.register("run-t2", &spec(), vec![path.clone()]);
        agg.poll();
        let view = agg.view("run-t2").unwrap();
        assert_eq!(view.rows.len(), 1, "the good row lands, the torn tail stays pending");
        assert_eq!(view.diags.len(), 2, "{:?}", view.diags);
        assert!(view.diags[0].contains("diag.jsonl:2:"), "{}", view.diags[0]);
        assert!(view.diags[1].contains("determinism contract violation"), "{}", view.diags[1]);
        assert!(agg.view("run-nope").is_none());
        let _ = std::fs::remove_file(&path);
    }

    /// `(rows, diags)` folded into `run` so far, read without folding.
    fn folded(agg: &Aggregator, run: &str) -> (usize, usize) {
        let runs = agg.lock();
        let agg = runs.iter().find(|a| a.run == run).unwrap();
        (agg.filled, agg.diags.len())
    }

    #[test]
    fn reading_one_run_folds_only_that_run() {
        let rows = real_rows();
        let (path_a, path_b) = (temp_path("read-a.jsonl"), temp_path("read-b.jsonl"));
        let both = format!("{}\n{}\n", rows[0].to_json_line(), rows[1].to_json_line());
        std::fs::write(&path_a, &both).unwrap();
        std::fs::write(&path_b, &both).unwrap();

        let agg = Aggregator::new();
        agg.register("run-a", &spec(), vec![path_a.clone()]);
        agg.register("run-b", &spec(), vec![path_b.clone()]);
        let summary = agg.summary("run-a").unwrap();
        assert_eq!((summary.rows, summary.expected), (2, 2), "A's fresh rows fold in at once");
        assert!(summary.complete());
        let report = summary.report.expect("a complete run has its report");
        assert!(report.contains("campaign rows: 2"), "{report}");
        assert_eq!(folded(&agg, "run-b"), (0, 0), "reading A leaves B's sink unread");
        assert!(agg.summary("run-nope").is_none());
        agg.poll();
        assert_eq!(folded(&agg, "run-b"), (2, 0), "a poll folds every run");

        // A finished run is checked at its next read: B's own read
        // reports the differing duplicate in its sink, A's does not.
        let mut mutated = rows[0].clone();
        mutated.llm_calls += 1;
        let mut file = std::fs::OpenOptions::new().append(true).open(&path_b).unwrap();
        writeln!(file, "{}", mutated.to_json_line()).unwrap();
        assert!(agg.summary("run-a").unwrap().diags.is_empty());
        assert_eq!(folded(&agg, "run-b"), (2, 0));
        let diags = agg.summary("run-b").unwrap().diags;
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].contains("determinism contract violation"), "{}", diags[0]);
        let _ = std::fs::remove_file(&path_a);
        let _ = std::fs::remove_file(&path_b);
    }

    #[test]
    fn submissions_of_one_spec_share_one_id_space() {
        let agg = Aggregator::new();
        let other_methods = RunSpec { methods: vec![MethodKind::RtlRepair], ..spec() };
        // Shards and lease do not shape the id space.
        let same_ids = RunSpec { shards: 4, lease: Duration::from_secs(9), ..spec() };
        agg.register("run-s1", &spec(), Vec::new());
        agg.register("run-s2", &same_ids, Vec::new());
        agg.register("run-s3", &other_methods, Vec::new());
        let runs = agg.lock();
        assert!(Arc::ptr_eq(&runs[0].ids, &runs[1].ids), "one spec, one id space");
        assert!(!Arc::ptr_eq(&runs[0].ids, &runs[2].ids));
        assert_eq!(runs[2].ids.len(), 2);
        assert!(runs[2].ids.iter().all(|id| id.ends_with("@RTLrepair")), "{:?}", runs[2].ids);
        assert!(runs[0].ids.iter().all(|id| !runs[2].ids.contains(id)));
        assert!(runs[0].ids.windows(2).all(|w| w[0] < w[1]), "sorted: {:?}", runs[0].ids);
    }

    /// A line that parses but is not its row's canonical encoding is
    /// served re-encoded; a later canonical copy is the same row. An
    /// older build's line with the since-removed `llm_wait_ms` /
    /// `llm_batch_max` members is such a line.
    #[test]
    fn a_non_canonical_line_is_served_re_encoded() {
        let rows = real_rows();
        let path = temp_path("reencode.jsonl");
        let canonical: Vec<String> = rows.iter().map(EvalRow::to_json_line).collect();
        let spaced = canonical[0].replace(",\"", ", \"");
        assert_ne!(spaced, canonical[0]);
        let old = canonical[1].replace('}', ",\"llm_wait_ms\":3,\"llm_batch_max\":2}");
        assert!(old.ends_with(",\"llm_wait_ms\":3,\"llm_batch_max\":2}"), "{old}");
        let lines = [&spaced, &old, &canonical[1], &canonical[0]];
        std::fs::write(&path, lines.map(|line| format!("{line}\n")).concat()).unwrap();
        let agg = Aggregator::new();
        agg.register("run-re", &spec(), vec![path.clone()]);
        agg.poll();
        let mut expected: Vec<String> = canonical.iter().map(|line| format!("{line}\n")).collect();
        expected.sort();
        assert_eq!(agg.rows_jsonl("run-re").unwrap().unwrap(), expected.concat());
        assert!(agg.summary("run-re").unwrap().diags.is_empty());
        assert!(agg.rows_jsonl("run-nope").is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_complete_runs_report_is_rendered_once() {
        let rows = real_rows();
        let path = temp_path("report-once.jsonl");
        std::fs::write(&path, format!("{}\n", rows[0].to_json_line())).unwrap();
        let agg = Aggregator::new();
        agg.register("run-r", &spec(), vec![path.clone()]);
        assert_eq!(agg.summary("run-r").unwrap().report, None, "no report before the last row");

        std::fs::write(&path, format!("{}\n{}\n", rows[0].to_json_line(), rows[1].to_json_line()))
            .unwrap();
        let (first, second) = (agg.summary("run-r").unwrap(), agg.summary("run-r").unwrap());
        let (first, second) = (first.report.unwrap(), second.report.unwrap());
        assert_eq!(first, second, "two reads of a complete run report the same");
        assert!(Arc::ptr_eq(&first, &second), "the second read shares the first's render");
        assert_eq!(*first, *rows.iter().collect::<ReportTallies>().render());
        let _ = std::fs::remove_file(&path);
    }
}
