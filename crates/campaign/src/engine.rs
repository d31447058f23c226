//! The campaign engine: dataset assembly, shard/resume filtering and the
//! worker pool, glued to a result sink.

use crate::eval::{EvalRecord, LlmPolicy, MethodKind, SharedLlm};
use crate::job::{expand_jobs, Job, ShardSpec};
use crate::queue::{run_pool, run_pool_supervised, PoolPolicy, PoolStats};
use crate::report::CampaignReport;
use crate::sink::ResultSink;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;
use uvllm::{BenchInstance, StageMemo};
use uvllm_llm::{BatchConfig, BatchedLlm, FaultPlan, ResiliencePolicy};
use uvllm_sim::SimBackend;

/// Registry handles for the engine (`campaign.*`), resolved once.
/// Worker-side counters (`campaign.worker.<i>.jobs`, `campaign.queue_depth`)
/// live in [`crate::queue::run_pool`].
#[derive(Debug)]
struct CampaignMetrics {
    /// Rows successfully appended to the sink by this process.
    sink_rows: &'static uvllm_obs::Counter,
    /// Jobs skipped because the sink already held their rows.
    resume_skips: &'static uvllm_obs::Counter,
    /// Datasets built and validated ([`CampaignDataset::build`]).
    dataset_builds: &'static uvllm_obs::Counter,
}

fn metrics() -> &'static CampaignMetrics {
    static METRICS: std::sync::OnceLock<CampaignMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| CampaignMetrics {
        sink_rows: uvllm_obs::registry().counter("campaign.sink_rows"),
        resume_skips: uvllm_obs::registry().counter("campaign.resume_skips"),
        dataset_builds: uvllm_obs::registry().counter("campaign.dataset_builds"),
    })
}

/// A built and validated dataset in the form the engine runs on. It is
/// a pure function of `(size, seed)`, so one build serves every shard
/// and every method list of that dataset: a resident worker keeps it
/// across leases instead of paying the build per shard.
///
/// It also owns the [`StageMemo`] of everything run on it: a candidate
/// text is elaborated, linted, simulated, localized and judged once per
/// dataset, whichever job, worker or shard reaches it first. A fresh
/// build starts with the elaborations of its own validation runs.
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
    /// learnt about their candidate texts: elaborations, lint reports,
    /// UVM-stage facts and verdicts.
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
    /// Jobs that compute at once, i.e. CPU slots (0 = one per available
    /// CPU). An unbatched pool runs this many threads; a batched one
    /// (`llm_batch`, or a caller-owned service) runs two per slot, and a
    /// thread waiting on the LLM lends its slot to another.
    pub workers: usize,
    /// Which `i/n` slice of the job space this process owns.
    pub shard: ShardSpec,
    /// Benchmark compatibility; goes with the next `benchmark` PR.
    /// Nothing reads it.
    #[doc(hidden)]
    pub backend: SimBackend,
    /// `Some` runs every job's LLM traffic through one shared
    /// [`BatchedLlm`] with this flush policy; `None` (default) gives
    /// each job an in-process direct service. Either way the rows are
    /// byte-identical — batching changes wall-clock only.
    pub llm_batch: Option<BatchConfig>,
    /// Injected endpoint round-trip latency: per prompt in direct mode
    /// (on one exclusive connection), per flush in batched mode. The
    /// knob behind the overlap benchmark; `None` for real runs.
    pub llm_latency: Option<Duration>,
    /// Record per-job `llm_wait_ms` / `llm_batch_max` telemetry members
    /// in JSONL rows. Off by default: the members are wall-clock
    /// measurements and therefore excluded from the row byte-identity
    /// contract.
    pub llm_telemetry: bool,
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
    /// `Some` wraps every job's model in a seeded
    /// [`uvllm_llm::FaultyLlm`] (per-job streams derived from the plan
    /// seed × the job's oracle seed). The fault-injection harness the
    /// resilience layer is proven against; `None` for real runs.
    pub fault: Option<FaultPlan>,
    /// `Some` wraps every job's service handle in a
    /// [`uvllm_llm::ResilientService`] with this policy (per-job jitter
    /// derivation). Independent of `fault`, so resilience can run
    /// against real transports too.
    pub resilience: Option<ResiliencePolicy>,
    /// Worker-pool supervision: per-job deadline and the deterministic
    /// failure-injection knobs (see [`PoolPolicy`]).
    pub pool: PoolPolicy,
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
            llm_telemetry: false,
            metrics_out: None,
            metrics_flush_jobs: 64,
            fault: None,
            resilience: None,
            pool: PoolPolicy::default(),
        }
    }
}

impl CampaignConfig {
    /// Resolves `workers == 0` to [`default_worker_count`].
    ///
    /// Prefer validating through [`Campaign::new`], which resolves the
    /// count up front and surfaces a bad `UVLLM_WORKERS` as a config
    /// `Err` instead of this method's panic.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            default_worker_count()
        }
    }
}

/// Reads the worker-count override from `UVLLM_WORKERS`.
///
/// Returns `Ok(None)` when the variable is unset.
///
/// # Errors
///
/// A set-but-invalid value (not a positive integer) is rejected with a
/// message naming the variable — never silently replaced by the CPU
/// count, which used to mask typos like `UVLLM_WORKERS=eight`.
pub fn worker_count_from_env() -> Result<Option<usize>, String> {
    match std::env::var("UVLLM_WORKERS") {
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(_)) => {
            Err("UVLLM_WORKERS is set to a non-unicode value".to_string())
        }
        Ok(text) => match text.trim().parse::<usize>() {
            Ok(n) if n > 0 => Ok(Some(n)),
            _ => Err(format!(
                "UVLLM_WORKERS must be a positive integer, got '{text}' \
                 (unset it to use one worker per available CPU)"
            )),
        },
    }
}

/// The worker count used when none is configured: the `UVLLM_WORKERS`
/// environment variable, else one worker per available CPU. The single
/// sizing policy for campaigns and the bench harness alike.
///
/// # Panics
///
/// Panics with [`worker_count_from_env`]'s message when the variable is
/// set but invalid — a configuration error that must not degrade into a
/// silent CPU-count fallback.
pub fn default_worker_count() -> usize {
    match worker_count_from_env() {
        Ok(Some(n)) => n,
        Ok(None) => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        Err(message) => panic!("{message}"),
    }
}

/// What a finished (shard of a) campaign looked like.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// Rollups over every row in the sink (resumed + fresh).
    pub report: CampaignReport,
    /// Records freshly evaluated by this run, in job order.
    pub new_records: Vec<EvalRecord>,
    /// Jobs in the full job space.
    pub total_jobs: usize,
    /// Jobs owned by other shards.
    pub sharded_out: usize,
    /// Jobs skipped because the sink already had their rows.
    pub resumed: usize,
    /// Registry snapshot taken when the pool wound down: kernel, stage-memo,
    /// campaign and LLM-service counters (`llm.ticket_wait_us` and
    /// friends replace the old `llm_wait_total` / `llm_batch_max`
    /// roll-ups; per-job waits stay on [`EvalRecord`]).
    pub metrics: uvllm_obs::MetricsSnapshot,
    /// What worker supervision did: panics caught, requeues granted,
    /// deadline overruns, quarantined rows.
    pub pool_stats: PoolStats,
}

/// A configured, validated campaign.
#[derive(Debug, Clone)]
pub struct Campaign {
    config: CampaignConfig,
    /// Worker count resolved at validation time (so a bad
    /// `UVLLM_WORKERS` is a config `Err`, not a mid-run panic).
    workers: usize,
}

impl Campaign {
    /// Validates `config`.
    ///
    /// # Errors
    ///
    /// Rejects an invalid shard spec, an empty method list, or — when
    /// `config.workers == 0` defers sizing to the environment — an
    /// unparsable `UVLLM_WORKERS` value ([`worker_count_from_env`]'s
    /// message, propagated instead of panicking inside the run).
    pub fn new(config: CampaignConfig) -> Result<Campaign, String> {
        config.shard.validate()?;
        if config.methods.is_empty() {
            return Err("campaign needs at least one method".to_string());
        }
        let workers = if config.workers > 0 {
            config.workers
        } else {
            match worker_count_from_env()? {
                Some(n) => n,
                None => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            }
        };
        Ok(Campaign { config, workers })
    }

    /// The validated configuration.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
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
    /// Returns the first sink I/O error, after the pool has wound down.
    pub fn run(&self, sink: &mut dyn ResultSink) -> std::io::Result<CampaignOutcome> {
        self.run_shared(sink, None)
    }

    /// [`Campaign::run`] on a caller-owned batched LLM service instead
    /// of one constructed per run — the resident-worker path, where one
    /// [`SharedLlm`] outlives many leased shards and its flush policy
    /// keeps coalescing prompts across them. `None` behaves exactly
    /// like [`Campaign::run`] (a per-run service is started when
    /// `config.llm_batch` asks for one). Rows are byte-identical either
    /// way: sessions see their own prompts in submission order
    /// regardless of which service thread carries them.
    ///
    /// # Errors
    ///
    /// Returns the first sink I/O error, after the pool has wound down.
    pub fn run_shared(
        &self,
        sink: &mut dyn ResultSink,
        shared: Option<&SharedLlm>,
    ) -> std::io::Result<CampaignOutcome> {
        self.run_on(&self.build_dataset(), sink, shared)
    }

    /// Builds this campaign's dataset for [`Campaign::run_on`], on as
    /// many threads as the campaign runs workers.
    pub fn build_dataset(&self) -> CampaignDataset {
        CampaignDataset::build(self.config.dataset_size, self.config.dataset_seed, self.workers)
    }

    /// [`Campaign::run_shared`] on a dataset the caller already built —
    /// the resident-worker path, where one [`CampaignDataset`] serves
    /// every shard leased from the same run.
    ///
    /// # Errors
    ///
    /// Returns the first sink I/O error, after the pool has wound down.
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
        shared: Option<&SharedLlm>,
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

        let existing_rows = sink.existing_rows();
        let sink = Mutex::new(sink);
        let sink_error: Mutex<Option<std::io::Error>> = Mutex::new(None);
        let telemetry = self.config.llm_telemetry;
        let metrics_out = self.config.metrics_out.as_deref();
        let flush_every = self.config.metrics_flush_jobs;
        let finished = std::sync::atomic::AtomicUsize::new(0);

        // One shared batching service for the whole pool: every job
        // opens a session on it, so LLM round trips from all workers
        // coalesce while the rest of the pool keeps simulating. A
        // caller-owned service (resident workers) takes precedence and
        // outlives this run.
        let own_llm: Option<SharedLlm> = match shared {
            Some(_) => None,
            None => self.config.llm_batch.as_ref().map(|batch| {
                let batch = BatchConfig {
                    round_trip: self.config.llm_latency.unwrap_or(batch.round_trip),
                    ..batch.clone()
                };
                BatchedLlm::start(batch)
            }),
        };
        let llm = match shared.or(own_llm.as_ref()) {
            Some(service) => LlmPolicy::batched(service),
            None => LlmPolicy::direct().with_latency(self.config.llm_latency),
        }
        .with_faults(self.config.fault.clone())
        .with_resilience(self.config.resilience.clone());

        // Sink locks recover from poisoning: a worker that panics while
        // the row callback holds the lock must not wedge the remaining
        // workers or swallow the sink-error report — the sink's own
        // append is atomic per row (JSONL lines), so the recovered
        // state is usable.
        let (new_records, pool_stats) = run_pool_supervised(
            jobs,
            self.workers,
            &llm,
            &dataset.memo,
            &self.config.pool,
            |_, record| {
                let row = if telemetry { record.to_row_with_telemetry() } else { record.to_row() };
                {
                    let mut guard = sink.lock().unwrap_or_else(PoisonError::into_inner);
                    if let Err(e) = guard.append(&row) {
                        sink_error.lock().unwrap_or_else(PoisonError::into_inner).get_or_insert(e);
                        return;
                    }
                }
                campaign_metrics.sink_rows.inc();
                let done = finished.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
                if let Some(path) = metrics_out {
                    // Periodic flush is best-effort (a torn write here
                    // must not fail the campaign); the end-of-run write
                    // below is the authoritative one and does error.
                    if flush_every > 0 && done.is_multiple_of(flush_every) {
                        let _ = std::fs::write(path, uvllm_obs::registry().snapshot().render());
                    }
                }
            },
        );
        drop(llm);
        if let Some(service) = own_llm {
            // Joins the service thread; every session was drained when
            // its job finished, so this is bookkeeping, not a wait. A
            // caller-owned `shared` service keeps running for the next
            // run instead.
            drop(service);
        }
        if let Some(e) = sink_error.into_inner().unwrap_or_else(PoisonError::into_inner) {
            return Err(e);
        }

        let metrics_snapshot = uvllm_obs::registry().snapshot();
        if let Some(path) = &self.config.metrics_out {
            std::fs::write(path, metrics_snapshot.render())?;
        }
        let mut rows = existing_rows;
        rows.extend(new_records.iter().map(EvalRecord::to_row));
        Ok(CampaignOutcome {
            report: CampaignReport::new(rows),
            new_records,
            total_jobs,
            sharded_out,
            resumed,
            metrics: metrics_snapshot,
            pool_stats,
        })
    }
}

/// Evaluates one method over pre-built instances on a worker pool,
/// returning records in instance order — the parallel engine behind
/// `uvllm_bench::harness::evaluate`.
pub fn evaluate_parallel(
    method: MethodKind,
    instances: &[BenchInstance],
    workers: usize,
) -> Vec<EvalRecord> {
    let shared: Vec<Arc<BenchInstance>> = instances.iter().cloned().map(Arc::new).collect();
    let jobs = expand_jobs(&shared, &[method]);
    run_pool(jobs, workers.max(1), &LlmPolicy::direct(), |_, _| {})
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

    #[test]
    fn campaign_runs_and_reports() {
        let mut sink = MemorySink::new();
        let outcome = Campaign::new(tiny_config(2)).unwrap().run(&mut sink).unwrap();
        assert_eq!(outcome.total_jobs, 12);
        assert_eq!(outcome.new_records.len(), 12);
        assert_eq!(sink.rows().len(), 12);
        assert_eq!(outcome.resumed, 0);
        assert_eq!(outcome.sharded_out, 0);
        assert_eq!(outcome.report.rows().len(), 12);
    }

    #[test]
    fn resume_skips_completed_jobs() {
        let mut sink = MemorySink::new();
        let campaign = Campaign::new(tiny_config(2)).unwrap();
        campaign.run(&mut sink).unwrap();
        // Second run over the same sink: everything is already there.
        let outcome = campaign.run(&mut sink).unwrap();
        assert_eq!(outcome.resumed, 12);
        assert!(outcome.new_records.is_empty());
        assert_eq!(sink.rows().len(), 12, "no duplicate rows on resume");
        assert_eq!(outcome.report.rows().len(), 12);
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

    #[test]
    fn unparsable_worker_env_is_rejected_not_defaulted() {
        // Other tests in this binary pass explicit worker counts, so
        // mutating the variable here cannot change their behaviour.
        std::env::set_var("UVLLM_WORKERS", "eight");
        let err = worker_count_from_env().unwrap_err();
        assert!(err.contains("UVLLM_WORKERS"), "error must name the variable: {err}");
        assert!(err.contains("eight"), "error must echo the bad value: {err}");
        // Campaign::new resolves workers eagerly, so an auto-workers
        // config (workers == 0) surfaces the same error as Err instead
        // of panicking inside the pool later.
        let err = Campaign::new(tiny_config(0)).map(|_| ()).unwrap_err();
        assert!(err.contains("UVLLM_WORKERS"), "Campaign::new must propagate the env error: {err}");
        std::env::set_var("UVLLM_WORKERS", "0");
        assert!(worker_count_from_env().is_err(), "zero workers is invalid");
        std::env::set_var("UVLLM_WORKERS", "3");
        assert_eq!(worker_count_from_env(), Ok(Some(3)));
        assert_eq!(default_worker_count(), 3);
        std::env::remove_var("UVLLM_WORKERS");
        assert_eq!(worker_count_from_env(), Ok(None));
        assert!(default_worker_count() >= 1);
    }

    /// The core gate of the resilience layer: a campaign with LLM
    /// faults injected at double-digit rates, retried by the resilient
    /// service, produces rows byte-identical to the fault-free run.
    /// FaultyLlm fabricates faults without consuming the inner oracle's
    /// stream, so a retried ticket lands on exactly the completion the
    /// fault-free run saw.
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
        config.pool =
            PoolPolicy { inject_panic: Some("@RTLrepair".to_string()), ..PoolPolicy::default() };
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
