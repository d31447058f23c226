//! The campaign engine: dataset assembly, shard/resume filtering and the
//! worker pool, glued to a result sink.

use crate::eval::{LlmPolicy, MethodKind};
use crate::job::{expand_jobs, Job, ShardSpec};
use crate::queue::{run_pool_supervised, PoolStats};
use crate::report::ReportTallies;
use crate::sink::ResultSink;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;
use uvllm::{BenchInstance, StageMemo};
use uvllm_llm::{BatchConfig, FaultPlan, ResiliencePolicy};
use uvllm_sim::SimBackend;

/// Registry handles for the engine (`campaign.*`) and the per-job stage
/// timings ([`crate::eval`]), resolved once. Worker-side counters
/// (`campaign.worker.<i>.jobs`, `campaign.queue_depth`) live in
/// [`crate::queue::run_pool_supervised`].
#[derive(Debug)]
pub(crate) struct CampaignMetrics {
    /// Rows successfully appended to the sink by this process.
    sink_rows: &'static uvllm_obs::Counter,
    /// Jobs skipped because the sink already held their rows.
    resume_skips: &'static uvllm_obs::Counter,
    /// Datasets built and validated ([`CampaignDataset::build`]).
    dataset_builds: &'static uvllm_obs::Counter,
    /// `stage_us.repair`: one sample per job.
    pub(crate) repair_us: &'static uvllm_obs::Histogram,
    /// `stage_us.simulate`: one sample per job.
    pub(crate) simulate_us: &'static uvllm_obs::Histogram,
}

pub(crate) fn metrics() -> &'static CampaignMetrics {
    static METRICS: std::sync::OnceLock<CampaignMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| CampaignMetrics {
        sink_rows: uvllm_obs::registry().counter("campaign.sink_rows"),
        resume_skips: uvllm_obs::registry().counter("campaign.resume_skips"),
        dataset_builds: uvllm_obs::registry().counter("campaign.dataset_builds"),
        repair_us: uvllm_obs::registry().histogram("stage_us.repair"),
        simulate_us: uvllm_obs::registry().histogram("stage_us.simulate"),
    })
}

/// A built and validated dataset in the form the engine runs on. It is
/// a pure function of `(size, seed)`, so one build serves every shard
/// and every method list of that dataset: a resident worker keeps it
/// across leases instead of paying the build per shard.
///
/// It also owns the [`StageMemo`] of everything run on it: a candidate
/// text is linted, simulated, localized and judged once per dataset,
/// whichever job, worker or shard reaches it first. The build pins the
/// dataset's own texts, its mutants and goldens, in the memo: only
/// those keep their elaborations.
#[derive(Debug)]
pub struct CampaignDataset {
    size: usize,
    seed: u64,
    instances: Vec<Arc<BenchInstance>>,
    memo: StageMemo,
}

impl CampaignDataset {
    /// Builds the dataset ([`uvllm::build_dataset`]) through its own
    /// memo on `workers` threads, the calling one included; counted in
    /// `campaign.dataset_builds` and timed in `stage_us.dataset_build`.
    /// The dataset is the same at any `workers`.
    pub fn build(size: usize, seed: u64, workers: usize) -> CampaignDataset {
        let _span = uvllm_obs::Span::enter("dataset_build");
        metrics().dataset_builds.inc();
        let memo = StageMemo::new();
        let instances = uvllm::build_dataset(size, seed, &memo, workers)
            .instances
            .into_iter()
            .map(Arc::new)
            .collect();
        CampaignDataset { size, seed, instances, memo }
    }

    /// What the build and the jobs run on this dataset so far have
    /// learnt about their candidate texts: lint reports, UVM-stage
    /// facts and verdicts, and the elaborations of the pinned texts.
    pub fn memo(&self) -> &StageMemo {
        &self.memo
    }

    /// The full job-id space of these instances crossed with `methods`.
    pub fn job_ids(&self, methods: &[MethodKind]) -> Vec<String> {
        expand_jobs(&self.instances, methods).iter().map(Job::id).collect()
    }
}

/// What to run and how wide.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Benchmark instances to build (the paper's dataset is 331).
    pub dataset_size: usize,
    /// Dataset seed.
    pub dataset_seed: u64,
    /// Methods to evaluate on every instance.
    pub methods: Vec<MethodKind>,
    /// Pool threads, i.e. jobs that compute at once (0 = one per
    /// available CPU). On a service loop (`llm_batch`, latency, faults
    /// or resilience) a job waiting on the LLM is parked and its thread
    /// takes another.
    pub workers: usize,
    /// Which `i/n` slice of the job space this process owns.
    pub shard: ShardSpec,
    /// Benchmark compatibility; goes with the next `benchmark` PR.
    /// Nothing reads it.
    #[doc(hidden)]
    pub backend: SimBackend,
    /// `Some` batches every job's LLM traffic on one service loop
    /// ([`uvllm_llm::BatchedLlm`]); `None` (default) answers inline, or
    /// one prompt at a time when latency, faults or resilience are set.
    /// Either way the rows are byte-identical.
    pub llm_batch: Option<BatchConfig>,
    /// Injected endpoint round trip, per batch on the loop's one
    /// exclusive connection (a batch is one prompt without `llm_batch`).
    /// The knob behind the overlap benchmark; `None` for real runs.
    pub llm_latency: Option<Duration>,
    /// `Some` writes a [`uvllm_obs`] snapshot (`MetricsSnapshot::render`)
    /// to this path at the end of the run, plus a best-effort periodic
    /// flush every [`CampaignConfig::metrics_flush_jobs`] finished jobs.
    /// Metrics never touch the rows: metrics-on and metrics-off runs
    /// produce byte-identical JSONL.
    pub metrics_out: Option<std::path::PathBuf>,
    /// Periodic metrics-flush cadence in finished jobs (0 disables the
    /// periodic flush; the end-of-run snapshot is always written when
    /// [`CampaignConfig::metrics_out`] is set).
    pub metrics_flush_jobs: usize,
    /// `Some` injects seeded faults into every job's session (per-job
    /// streams from the plan seed × the job's oracle seed): the harness
    /// the resilience policy is proven against; `None` for real runs.
    pub fault: Option<FaultPlan>,
    /// `Some` retries, breaks and degrades every job's session under
    /// this policy (per-job jitter derivation). Independent of `fault`.
    pub resilience: Option<ResiliencePolicy>,
    /// Fault injection for the worker pool's supervision: panic every
    /// job whose id contains this substring (deterministic, so the job
    /// fails its retry too and quarantines as a `worker_panic` row).
    pub inject_panic: Option<String>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            dataset_size: uvllm::dataset::PAPER_DATASET_SIZE,
            dataset_seed: 0xDA7A,
            methods: MethodKind::ALL.to_vec(),
            workers: 0,
            shard: ShardSpec::default(),
            backend: SimBackend,
            llm_batch: None,
            llm_latency: None,
            metrics_out: None,
            metrics_flush_jobs: 64,
            fault: None,
            resilience: None,
            inject_panic: None,
        }
    }
}

/// What a finished (shard of a) campaign looked like. It keeps no
/// row: the sink holds them.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// The paper's tables over every row in the sink: the resumed ones,
    /// then each fresh one as the sink took it.
    pub report: ReportTallies,
    /// Rows this run evaluated and appended to the sink.
    pub evaluated: usize,
    /// Jobs in the full job space.
    pub total_jobs: usize,
    /// Jobs owned by other shards.
    pub sharded_out: usize,
    /// Jobs skipped because the sink already had their rows.
    pub resumed: usize,
    /// Registry snapshot taken when the pool wound down: kernel, stage-memo,
    /// campaign and LLM-service counters (`llm.ticket_wait_us` and
    /// friends).
    pub metrics: uvllm_obs::MetricsSnapshot,
    /// What worker supervision did: panics caught, requeues granted,
    /// quarantined rows.
    pub pool_stats: PoolStats,
}

/// A configured, validated campaign.
#[derive(Debug, Clone)]
pub struct Campaign {
    config: CampaignConfig,
    /// `config.workers`, or what a zero resolved to.
    workers: usize,
}

impl Campaign {
    /// Validates `config`.
    ///
    /// # Errors
    ///
    /// Rejects an invalid shard spec or an empty method list.
    pub fn new(config: CampaignConfig) -> Result<Campaign, String> {
        config.shard.validate()?;
        if config.methods.is_empty() {
            return Err("campaign needs at least one method".to_string());
        }
        let workers = match config.workers {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        Ok(Campaign { config, workers })
    }

    /// The validated configuration.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// Pool threads the run uses: `config.workers`, or one per
    /// available CPU when that is zero.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs the campaign: builds the dataset, then [`Campaign::run_on`]
    /// it — drains the sharded job queue across the worker pool,
    /// streaming each finished row into `sink`.
    ///
    /// Output is deterministic: the same configuration produces
    /// byte-identical rows (modulo order) at any worker count, because
    /// every record is a pure function of its job.
    ///
    /// # Errors
    ///
    /// Returns the first row the sink refuses: no job starts after it,
    /// and the rows of the jobs in flight are dropped.
    pub fn run(&self, sink: &mut dyn ResultSink) -> std::io::Result<CampaignOutcome> {
        self.run_on(&self.build_dataset(), sink)
    }

    /// Builds this campaign's dataset for [`Campaign::run_on`], on as
    /// many threads as the campaign runs workers.
    pub fn build_dataset(&self) -> CampaignDataset {
        CampaignDataset::build(self.config.dataset_size, self.config.dataset_seed, self.workers)
    }

    /// [`Campaign::run`] on a dataset the caller already built — the
    /// resident-worker path, where one [`CampaignDataset`] serves every
    /// shard leased from the same run.
    ///
    /// # Errors
    ///
    /// Returns the first row the sink refuses: no job starts after it,
    /// and the rows of the jobs in flight are dropped.
    ///
    /// # Panics
    ///
    /// If `dataset` was built for another size or seed than this
    /// campaign's configuration: its rows would silently belong to
    /// a different campaign.
    pub fn run_on(
        &self,
        dataset: &CampaignDataset,
        sink: &mut dyn ResultSink,
    ) -> std::io::Result<CampaignOutcome> {
        let config = &self.config;
        assert!(
            (dataset.size, dataset.seed) == (config.dataset_size, config.dataset_seed),
            "dataset built for another configuration than the campaign it runs"
        );
        let all_jobs = expand_jobs(&dataset.instances, &self.config.methods);
        let total_jobs = all_jobs.len();
        let completed = sink.completed_ids();
        let shard = self.config.shard;
        let mut sharded_out = 0usize;
        let mut resumed = 0usize;
        let jobs: Vec<Job> = all_jobs
            .into_iter()
            .filter(|job| {
                if !shard.owns(job) {
                    sharded_out += 1;
                    return false;
                }
                if completed.contains(&job.id()) {
                    resumed += 1;
                    return false;
                }
                true
            })
            .collect();

        let campaign_metrics = metrics();
        if resumed > 0 {
            campaign_metrics.resume_skips.add(resumed as u64);
        }

        // The one read of the sink's rows, right before the pool starts.
        let report = sink.existing_rows().iter().collect();
        let written = Mutex::new(Written { sink, report, evaluated: 0, error: None });
        let metrics_out = self.config.metrics_out.as_deref();
        let flush_every = self.config.metrics_flush_jobs;

        // One service loop for the whole pool, when it needs one: every
        // job opens a session on it, so LLM round trips from all workers
        // coalesce while the rest of the pool keeps simulating.
        let llm = LlmPolicy::direct()
            .with_batch(self.config.llm_batch.clone())
            .with_latency(self.config.llm_latency)
            .with_faults(self.config.fault.clone())
            .with_resilience(self.config.resilience.clone());

        // The lock recovers from poisoning: a worker that panics while
        // the row callback holds it must not wedge the remaining
        // workers or swallow the sink error — the sink's own append is
        // atomic per row (JSONL lines), so the recovered state is
        // usable.
        let pool_stats = run_pool_supervised(
            jobs,
            self.workers,
            &llm,
            &dataset.memo,
            self.config.inject_panic.as_deref(),
            |_, record| {
                let row = record.to_row();
                let mut written = written.lock().unwrap_or_else(PoisonError::into_inner);
                if written.error.is_some() {
                    return false;
                }
                if let Err(e) = written.sink.append(&row) {
                    written.error = Some(e);
                    return false;
                }
                written.report.add(&row);
                written.evaluated += 1;
                let done = written.evaluated;
                drop(written);
                campaign_metrics.sink_rows.inc();
                // Periodic flush is best-effort (a torn write here must
                // not fail the campaign); the end-of-run write below is
                // the authoritative one and does error.
                let flush = flush_every > 0 && done.is_multiple_of(flush_every);
                if let Some(path) = metrics_out.filter(|_| flush) {
                    let _ = std::fs::write(path, uvllm_obs::registry().snapshot().render());
                }
                true
            },
        );
        // Joins this run's loop before the snapshot; every session was
        // drained when its job finished.
        drop(llm);
        let Written { report, evaluated, error, .. } =
            written.into_inner().unwrap_or_else(PoisonError::into_inner);
        if let Some(e) = error {
            return Err(e);
        }

        let metrics_snapshot = uvllm_obs::registry().snapshot();
        if let Some(path) = &self.config.metrics_out {
            std::fs::write(path, metrics_snapshot.render())?;
        }
        Ok(CampaignOutcome {
            report,
            evaluated,
            total_jobs,
            sharded_out,
            resumed,
            metrics: metrics_snapshot,
            pool_stats,
        })
    }
}

/// What the pool's row callback writes to, under one lock: the sink,
/// the report each appended row folds into, how many rows were
/// appended, and the first append that failed.
struct Written<'s> {
    sink: &'s mut dyn ResultSink,
    report: ReportTallies,
    evaluated: usize,
    error: Option<std::io::Error>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;

    fn tiny_config(workers: usize) -> CampaignConfig {
        CampaignConfig {
            dataset_size: 6,
            dataset_seed: 0x42,
            methods: vec![MethodKind::Strider, MethodKind::RtlRepair],
            workers,
            shard: ShardSpec::default(),
            ..CampaignConfig::default()
        }
    }

    /// The report a fold of `sink`'s rows renders.
    fn report_of(sink: &MemorySink) -> String {
        sink.rows().iter().collect::<ReportTallies>().render()
    }

    #[test]
    fn campaign_runs_and_reports() {
        let mut sink = MemorySink::new();
        let outcome = Campaign::new(tiny_config(2)).unwrap().run(&mut sink).unwrap();
        assert_eq!(outcome.total_jobs, 12);
        assert_eq!(outcome.evaluated, 12);
        assert_eq!(sink.rows().len(), 12);
        assert_eq!(outcome.resumed, 0);
        assert_eq!(outcome.sharded_out, 0);
        assert_eq!(outcome.report.render(), report_of(&sink));
    }

    /// A sink that notes the thread each row was appended on.
    #[derive(Default)]
    struct ThreadNoting {
        rows: Vec<(std::thread::ThreadId, String)>,
    }

    impl ResultSink for ThreadNoting {
        fn completed_ids(&self) -> std::collections::HashSet<String> {
            Default::default()
        }

        fn existing_rows(&self) -> Vec<crate::eval::EvalRow> {
            Vec::new()
        }

        fn append(&mut self, row: &crate::eval::EvalRow) -> std::io::Result<()> {
            self.rows.push((std::thread::current().id(), row.to_json_line()));
            Ok(())
        }
    }

    /// Worker 0 is the calling thread, so one worker spawns none and
    /// two spawn one, with the same rows.
    #[test]
    fn the_pool_runs_on_its_calling_thread() {
        let caller = std::thread::current().id();
        let run = |workers| {
            let mut sink = ThreadNoting::default();
            Campaign::new(tiny_config(workers)).unwrap().run(&mut sink).unwrap();
            let threads: std::collections::HashSet<_> =
                sink.rows.iter().map(|&(thread, _)| thread).collect();
            let mut rows: Vec<String> = sink.rows.into_iter().map(|(_, row)| row).collect();
            rows.sort_unstable();
            (threads, rows)
        };
        let (threads, one) = run(1);
        assert_eq!(threads, [caller].into(), "one worker appends on the caller");
        let (threads, two) = run(2);
        assert_eq!(two, one, "rows differ between one worker and two");
        assert!(threads.len() <= 2 && threads.contains(&caller), "{threads:?}");
    }

    #[test]
    fn resume_skips_completed_jobs() {
        let mut sink = MemorySink::new();
        let campaign = Campaign::new(tiny_config(2)).unwrap();
        campaign.run(&mut sink).unwrap();
        // Second run over the same sink: everything is already there.
        let outcome = campaign.run(&mut sink).unwrap();
        assert_eq!(outcome.resumed, 12);
        assert_eq!(outcome.evaluated, 0);
        assert_eq!(sink.rows().len(), 12, "no duplicate rows on resume");
        assert_eq!(outcome.report.render(), report_of(&sink));
    }

    #[test]
    fn pool_records_match_serial_evaluate_one() {
        let config = CampaignConfig {
            methods: vec![MethodKind::Uvllm, MethodKind::Strider],
            ..tiny_config(2)
        };
        let campaign = Campaign::new(config).unwrap();
        let dataset = campaign.build_dataset();
        let mut sink = MemorySink::new();
        let outcome = campaign.run_on(&dataset, &mut sink).unwrap();
        let jobs = expand_jobs(&dataset.instances, &campaign.config.methods);
        assert_eq!(outcome.evaluated, jobs.len());
        let mut rows: Vec<String> = sink.rows().iter().map(|r| r.to_json_line()).collect();
        let mut serial: Vec<String> = jobs
            .iter()
            .map(|job| crate::eval::evaluate_one(job.method, &job.instance).to_row().to_json_line())
            .collect();
        rows.sort();
        serial.sort();
        assert_eq!(rows, serial);
    }

    /// Refuses every row, counting the offers.
    struct RefusingSink {
        appends: usize,
    }

    impl ResultSink for RefusingSink {
        fn completed_ids(&self) -> std::collections::HashSet<String> {
            Default::default()
        }

        fn existing_rows(&self) -> Vec<crate::eval::EvalRow> {
            Vec::new()
        }

        fn append(&mut self, _: &crate::eval::EvalRow) -> std::io::Result<()> {
            self.appends += 1;
            Err(std::io::Error::other("disk full"))
        }
    }

    #[test]
    fn a_campaign_stops_at_the_first_row_its_sink_refuses() {
        let config = CampaignConfig { dataset_size: 15, ..tiny_config(2) };
        let campaign = Campaign::new(config).unwrap();
        let dataset = campaign.build_dataset();
        assert_eq!(dataset.job_ids(&campaign.config.methods).len(), 30);
        let mut sink = RefusingSink { appends: 0 };
        let error = campaign.run_on(&dataset, &mut sink).unwrap_err();
        assert_eq!(error.to_string(), "disk full");
        assert_eq!(sink.appends, 1, "no row is offered after the first refusal");
    }

    #[test]
    fn shards_union_to_the_full_campaign() {
        let mut whole = MemorySink::new();
        Campaign::new(tiny_config(1)).unwrap().run(&mut whole).unwrap();
        let mut union: Vec<String> = Vec::new();
        for index in 0..3 {
            let mut sink = MemorySink::new();
            let mut config = tiny_config(2);
            config.shard = ShardSpec { index, count: 3 };
            Campaign::new(config).unwrap().run(&mut sink).unwrap();
            union.extend(sink.rows().iter().map(|r| r.to_json_line()));
        }
        let mut expected: Vec<String> = whole.rows().iter().map(|r| r.to_json_line()).collect();
        expected.sort();
        union.sort();
        assert_eq!(union, expected, "3-way shard must partition the campaign exactly");
    }

    /// The core gate of the resilience policy: a campaign with LLM
    /// faults injected at double-digit rates, retried by the service
    /// loop, produces rows byte-identical to the fault-free run. A
    /// faulted prompt never reaches the oracle, so a retried ticket
    /// lands on exactly the completion the fault-free run saw.
    #[test]
    fn faults_plus_retries_reproduce_the_fault_free_rows() {
        let llm_config = || CampaignConfig {
            dataset_size: 4,
            dataset_seed: 0x42,
            methods: vec![MethodKind::Uvllm, MethodKind::GptDirect],
            workers: 2,
            ..CampaignConfig::default()
        };
        let rows_of = |config: CampaignConfig| {
            let mut sink = MemorySink::new();
            Campaign::new(config).unwrap().run(&mut sink).unwrap();
            let mut rows: Vec<String> = sink.rows().iter().map(|r| r.to_json_line()).collect();
            rows.sort();
            rows
        };
        let baseline = rows_of(llm_config());
        let mut faulted = llm_config();
        faulted.fault =
            Some(FaultPlan { error_rate: 0.15, malform_rate: 0.10, ..FaultPlan::default() });
        faulted.resilience = Some(ResiliencePolicy {
            retries: 8,
            base_backoff: std::time::Duration::from_micros(50),
            max_backoff: std::time::Duration::from_micros(400),
            breaker_threshold: 100,
            validate: true,
            ..ResiliencePolicy::default()
        });
        let retries_before = uvllm_obs::registry().counter("llm.retries").get();
        let rows = rows_of(faulted.clone());
        assert!(
            uvllm_obs::registry().counter("llm.retries").get() > retries_before,
            "the fault plan must actually exercise the retry path"
        );
        assert!(
            !rows.iter().any(|r| r.contains("\"degraded\"")),
            "8 retries must absorb 25% fault rates without degrading"
        );
        assert_eq!(rows, baseline, "faulted rows must be byte-identical to the fault-free run");
        assert_eq!(rows_of(faulted.clone()), rows, "same fault seed, same rows");
    }

    #[test]
    fn injected_panics_quarantine_but_the_campaign_completes() {
        let mut config = tiny_config(2);
        config.inject_panic = Some("@RTLrepair".to_string());
        let mut sink = MemorySink::new();
        let outcome = Campaign::new(config).unwrap().run(&mut sink).unwrap();
        assert_eq!(sink.rows().len(), 12, "every job answers, crashed ones included");
        let panicked: Vec<_> = sink.rows().iter().filter(|r| r.outcome == "worker_panic").collect();
        assert_eq!(panicked.len(), 6, "every RTLrepair job quarantines after its requeue");
        assert!(panicked.iter().all(|r| r.method == "RTLrepair"));
        assert_eq!(outcome.pool_stats.panicked, 12, "first attempt plus requeue, per job");
        assert_eq!(outcome.pool_stats.requeued, 6);
        assert_eq!(outcome.pool_stats.quarantined_panics, 6);
        let strider: Vec<_> = sink.rows().iter().filter(|r| r.method == "Strider").collect();
        assert_eq!(strider.len(), 6);
        assert!(strider.iter().all(|r| r.outcome != "worker_panic"), "other jobs are untouched");
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut bad_shard = tiny_config(1);
        bad_shard.shard = ShardSpec { index: 5, count: 2 };
        assert!(Campaign::new(bad_shard).is_err());
        let mut no_methods = tiny_config(1);
        no_methods.methods.clear();
        assert!(Campaign::new(no_methods).is_err());
    }
}
