//! # uvllm-campaign
//!
//! The large-scale verification campaign engine: runs the full
//! benchmark (design × mutation × seed) across every repair method on a
//! pool of worker threads, with sharding, caching and resume — the
//! infrastructure that turns the paper's serial evaluation loop into a
//! production-shaped system.
//!
//! * [`Job`] — one (benchmark instance × method) unit of work;
//!   [`ShardSpec`] assigns jobs to cooperating processes by stable
//!   hash, so `--shard i/n` partitions a campaign with no coordination.
//! * [`queue`] — the job list cut into one
//!   contiguous stretch per pool thread, drained by those threads (the
//!   caller and scoped ones, `std::thread::scope`): thread *k* starts at job `k·n/t`, a thread
//!   whose stretch is empty steals the back half of the largest
//!   remaining one, and requeued jobs go first. Threads so hold
//!   different instances and do not wait on each other's memo slots;
//!   jobs are coarse, so one lock per job is noise. The pool runs
//!   `workers` threads; on a batched service a job waiting on the LLM is
//!   parked as data (its repair loop is a step function) and the thread
//!   takes a woken or a new job, up to `workers + 2 × max_batch` in
//!   flight. The pool is supervision-grade:
//!   `catch_unwind` around every step with requeue-once-then-quarantine
//!   (`worker_panic` rows) and poison-recovering locks — see
//!   [`PoolStats`]. No pool setting reads the clock, so no setting can
//!   make a row depend on it.
//! * fault tolerance — `CampaignConfig::fault` injects seeded LLM
//!   faults ([`uvllm_llm::FaultPlan`]) and `CampaignConfig::resilience`
//!   retries, breaks and degrades ([`uvllm_llm::ResiliencePolicy`]):
//!   both are data of each job's session on the service loop; degraded
//!   jobs are tagged in their rows (`"degraded": true`).
//! * [`evaluate_one`] — the per-job evaluation, a *pure function of the
//!   job*: each job owns an [`OracleLlm`](uvllm_llm::OracleLlm) seeded
//!   from the instance seed and method salt, and the pipeline owns its
//!   LLM service handle ([`uvllm::Uvllm`] is generic over
//!   `S: LlmService`), so no mutable LLM state is shared across workers.
//! * [`LlmPolicy`] / [`SharedLlm`] — how jobs obtain that handle:
//!   per-job [`DirectService`](uvllm_llm::DirectService)s (default), or
//!   per-job *sessions* on one [`BatchedLlm`](uvllm_llm::BatchedLlm)
//!   event loop (`CampaignConfig::llm_batch`, or batches of one when
//!   latency, faults or resilience are set without it), which batches
//!   prompts from every worker so LLM round trips overlap simulation
//!   time. Sessions see their own prompts in submission order, so rows
//!   are byte-identical batched or not.
//! * [`merge_rows`] / `campaign merge` — combine shard JSONL files into
//!   one report, validating shard disjointness and full job-space
//!   coverage (failures name the `(instance, method)` pairs).
//! * [`CampaignDataset`] / [`Campaign::run_on`] — dataset construction
//!   split from the run, so a resident worker builds a run's dataset
//!   once and serves every leased shard from it. The build validates
//!   candidates on the campaign's worker count and is the same dataset
//!   at any count.
//! * [`StageMemo`] — owned by the dataset: a candidate text is linted,
//!   run through the UVM stage and judged (hit run + fix run) once per
//!   dataset — mutated sources across methods, candidates across
//!   metrics, the golden text behind every confirmed fix — and a worker
//!   that asks for what another worker is working out waits for that
//!   result (`campaign.stage_memo.{elab,lint,uvm}.*`,
//!   `campaign.verdict_memo.*`; the waits in
//!   `campaign.stage_memo.wait_us`). Elaborations are kept only for the
//!   dataset's own texts, its mutants and goldens; any other text is
//!   elaborated per run (`campaign.stage_memo.elab.unpinned`).
//! * [`ResultSink`] / [`JsonlSink`] — every finished row is streamed as
//!   one JSON line and flushed; reopening the file resumes the
//!   campaign, skipping completed job ids.
//! * [`ReportTallies`] — the paper's tables (Table II/III, Figs. 5–7)
//!   folded from rows as they are written, read or tailed, so fresh,
//!   resumed, merged and served runs print the same report: every
//!   artefact is a view of the rows, never a second evaluation. A run
//!   keeps no row; the sink holds them.
//!
//! **Determinism contract:** the same [`CampaignConfig`] produces
//! byte-identical JSONL rows (modulo row order) at any worker count and
//! any shard split. Rows therefore exclude wall-clock measurements; the
//! execution-time proxy is the calibrated simulated LLM latency.
//!
//! ## Example
//!
//! ```rust
//! use uvllm_campaign::{Campaign, CampaignConfig, MemorySink, MethodKind};
//!
//! let config = CampaignConfig {
//!     dataset_size: 4,
//!     dataset_seed: 0x42,
//!     methods: vec![MethodKind::Strider],
//!     workers: 2,
//!     ..CampaignConfig::default()
//! };
//! let mut sink = MemorySink::new();
//! let outcome = Campaign::new(config).unwrap().run(&mut sink).unwrap();
//! assert_eq!(outcome.evaluated, sink.rows().len());
//! println!("{}", outcome.report.render());
//! ```

pub mod engine;
pub mod eval;
pub mod job;
pub mod merge;
pub mod queue;
pub mod report;
pub mod sink;

pub use engine::{Campaign, CampaignConfig, CampaignDataset, CampaignOutcome};
pub use eval::{
    evaluate_one, evaluate_one_on, EvalRecord, EvalRow, LlmPolicy, MethodKind, SharedLlm,
    WrapService,
};
pub use job::{expand_jobs, fnv1a64, parse_seed, Job, ShardSpec};
pub use merge::{expected_job_ids, merge_rows, read_shard, MergeOutcome};
pub use queue::PoolStats;
pub use report::ReportTallies;
pub use sink::{
    JsonlSink, LineTailer, MemorySink, RawLines, ResultSink, SinkTailer, TailBatch, TailedLine,
};
pub use uvllm::StageMemo;
pub use uvllm_llm::{BatchConfig, FaultPlan, ResiliencePolicy};
