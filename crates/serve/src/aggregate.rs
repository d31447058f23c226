//! The live aggregator: a rolling, deduplicated view of every run's
//! shard sinks, built by tailing their JSONL files with
//! [`SinkTailer`] — the same reader `campaign merge` uses, minus the
//! strictness: a torn trailing line here just means a worker is
//! mid-append, so it stays pending until the next poll.
//!
//! Work stealing makes duplicate rows *normal*: a stolen shard's first
//! holder may have appended rows the thief re-evaluates. The
//! determinism contract says those duplicates are byte-identical, so
//! the aggregator keys rows by job id and keeps the first copy —
//! flagging any duplicate that *differs* as a diagnostic, because that
//! would mean the contract broke.

use std::collections::{BTreeMap, HashSet};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use uvllm_campaign::{CampaignDataset, CampaignReport, EvalRow, MethodKind, SinkTailer};

use crate::memo::Memo;
use crate::store::RunSpec;

/// Distinct job-id spaces a resident server keeps; resubmissions of a
/// held spec skip the dataset build inside `POST /jobs`.
const ID_SPACES_KEPT: usize = 8;

/// What a run's job-id space is a function of.
type IdSpaceKey = (usize, u64, Vec<MethodKind>);

/// One run's rolling state.
struct RunAgg {
    run: String,
    tailers: Vec<SinkTailer>,
    /// Job id → first row seen. BTreeMap iteration *is* the canonical
    /// sorted row order `campaign merge` produces.
    rows: BTreeMap<String, EvalRow>,
    /// Located parse failures, contract violations, foreign rows.
    diags: Vec<String>,
    /// The run's full job-id space (what "complete" means), shared
    /// with every other run of the same dataset and methods.
    expected: Arc<HashSet<String>>,
}

/// A point-in-time copy of one run's aggregation, rows included — what
/// `GET /runs/<id>/rows` serves. Status queries use the copy-free
/// [`RunSummary`].
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
/// the aggregator's own rows: a status poll copies none of them.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Deduplicated rows so far.
    pub rows: usize,
    /// Size of the expected job space.
    pub expected: usize,
    pub diags: Vec<String>,
    /// The Table-II style report over the run's rows, rendered once
    /// every expected row is in; empty before that, so the polls of a
    /// running campaign pay for no render.
    pub report: String,
}

impl RunSummary {
    /// True once every expected job has a row.
    pub fn complete(&self) -> bool {
        self.rows == self.expected
    }
}

/// All runs' rolling aggregation. One aggregator thread calls
/// [`Aggregator::poll`] on a cadence; request handlers call
/// [`Aggregator::poll_run`] inline before reading so `GET /runs/<id>`
/// is never staler than that run's sinks.
pub struct Aggregator {
    runs: Mutex<Vec<RunAgg>>,
    /// Job-id spaces by spec. Its own lock: a first submission builds
    /// a dataset under it, which must not hold up polls and reads.
    id_spaces: Mutex<Memo<IdSpaceKey, Arc<HashSet<String>>>>,
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

    /// The job-id space of `spec` (dataset size × seed × methods),
    /// built the first time a spec is seen, on one thread per CPU.
    fn id_space(&self, spec: &RunSpec) -> Arc<HashSet<String>> {
        let mut id_spaces = self.id_spaces.lock().unwrap_or_else(PoisonError::into_inner);
        let key = (spec.size, spec.seed, spec.methods.clone());
        Arc::clone(id_spaces.get_or_insert_with(key, || {
            let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
            let dataset = CampaignDataset::build(spec.size, spec.seed, workers);
            Arc::new(dataset.job_ids(&spec.methods).into_iter().collect())
        }))
    }

    /// Registers a submitted run: looks up its expected job-id space
    /// and starts tailers on its shard sinks. The sinks need not exist
    /// yet — a tailer on a missing file reports empty batches until the
    /// first worker creates it.
    pub fn register(&self, run: &str, spec: &RunSpec, sinks: Vec<PathBuf>) {
        let expected = self.id_space(spec);
        self.lock().push(RunAgg {
            run: run.to_string(),
            tailers: sinks.into_iter().map(SinkTailer::new).collect(),
            rows: BTreeMap::new(),
            diags: Vec::new(),
            expected,
        });
    }

    /// Tails every registered sink and folds fresh rows in. Cheap when
    /// nothing changed: each tailer resumes from its byte offset.
    pub fn poll(&self) {
        for agg in self.lock().iter_mut() {
            self.fold(agg);
        }
    }

    /// [`Aggregator::poll`] for one run: the read-your-writes step of a
    /// status query, whose cost must not grow with the run table. The
    /// aggregator thread's `poll` still visits every run, finished ones
    /// included, so no sink goes unchecked.
    pub fn poll_run(&self, run: &str) {
        if let Some(agg) = self.lock().iter_mut().find(|a| a.run == run) {
            self.fold(agg);
        }
    }

    fn fold(&self, agg: &mut RunAgg) {
        for tailer in &mut agg.tailers {
            let batch = match tailer.poll() {
                Ok(batch) => batch,
                Err(e) => {
                    agg.diags.push(format!("{}: {e}", tailer.path().display()));
                    continue;
                }
            };
            agg.diags.extend(batch.diags);
            for row in batch.rows {
                if !agg.expected.contains(&row.id) {
                    agg.diags.push(format!(
                        "{}: row '{}' is outside the run's job space",
                        tailer.path().display(),
                        row.id,
                    ));
                    continue;
                }
                match agg.rows.get(&row.id) {
                    None => {
                        agg.rows.insert(row.id.clone(), row);
                        self.rows_aggregated.inc();
                    }
                    // A byte-identical duplicate is a stolen shard's
                    // overlap — expected, drop it.
                    Some(first) if first.to_json_line() == row.to_json_line() => {}
                    Some(_) => agg.diags.push(format!(
                        "{}: row '{}' differs from an earlier copy — determinism \
                         contract violation",
                        tailer.path().display(),
                        row.id,
                    )),
                }
            }
        }
    }

    /// A copy of one run's current state, or `None` for unknown runs.
    pub fn view(&self, run: &str) -> Option<RunView> {
        let runs = self.lock();
        let agg = runs.iter().find(|a| a.run == run)?;
        Some(RunView {
            run: agg.run.clone(),
            rows: agg.rows.values().cloned().collect(),
            diags: agg.diags.clone(),
            expected: agg.expected.len(),
        })
    }

    /// One run's counts, diagnostics and — once complete — rendered
    /// report, or `None` for unknown runs.
    pub fn summary(&self, run: &str) -> Option<RunSummary> {
        let runs = self.lock();
        let agg = runs.iter().find(|a| a.run == run)?;
        let complete = agg.rows.len() == agg.expected.len();
        Some(RunSummary {
            rows: agg.rows.len(),
            expected: agg.expected.len(),
            diags: agg.diags.clone(),
            report: if complete {
                CampaignReport::new(agg.rows.values().collect()).render()
            } else {
                String::new()
            },
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

    #[test]
    fn reading_one_run_leaves_the_others_to_the_background_poll() {
        let rows = real_rows();
        let (path_a, path_b) = (temp_path("read-a.jsonl"), temp_path("read-b.jsonl"));
        let both = format!("{}\n{}\n", rows[0].to_json_line(), rows[1].to_json_line());
        std::fs::write(&path_a, &both).unwrap();
        std::fs::write(&path_b, &both).unwrap();

        let agg = Aggregator::new();
        agg.register("run-a", &spec(), vec![path_a.clone()]);
        agg.register("run-b", &spec(), vec![path_b.clone()]);
        agg.poll_run("run-a");
        agg.poll_run("run-nope");
        let summary = agg.summary("run-a").unwrap();
        assert_eq!((summary.rows, summary.expected), (2, 2), "A's fresh rows fold in at once");
        assert!(summary.complete());
        assert!(summary.report.contains("campaign rows: 2"), "{}", summary.report);
        assert_eq!(agg.summary("run-b").unwrap().rows, 0, "B waits for the background poll");
        assert!(agg.summary("run-nope").is_none());
        agg.poll();
        assert_eq!(agg.view("run-b").unwrap().rows.len(), 2);

        // A finished run nobody reads any more is still checked: the
        // background poll reports a differing duplicate in its sink.
        let mut mutated = rows[0].clone();
        mutated.llm_calls += 1;
        let mut file = std::fs::OpenOptions::new().append(true).open(&path_b).unwrap();
        writeln!(file, "{}", mutated.to_json_line()).unwrap();
        agg.poll_run("run-a");
        assert!(agg.summary("run-b").unwrap().diags.is_empty());
        agg.poll();
        let diags = agg.summary("run-b").unwrap().diags;
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].contains("determinism contract violation"), "{}", diags[0]);
        assert!(agg.summary("run-a").unwrap().diags.is_empty());
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
        assert!(Arc::ptr_eq(&runs[0].expected, &runs[1].expected), "one spec, one id space");
        assert!(!Arc::ptr_eq(&runs[0].expected, &runs[2].expected));
        assert_eq!(runs[2].expected.len(), 2);
        assert!(
            runs[2].expected.iter().all(|id| id.ends_with("@RTLrepair")),
            "{:?}",
            runs[2].expected
        );
        assert!(runs[0].expected.is_disjoint(&runs[2].expected));
    }
}
