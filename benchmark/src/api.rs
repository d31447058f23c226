//! The only file of the benchmark that names product symbols.
//!
//! Everything else talks to the product through the plain functions and
//! small structs below, so a change that moves or renames a product API
//! needs a follow-up in this file alone. Nothing here edits the product
//! or reaches into a private item: every call is one an outside user of
//! the crates could make, and every timing is taken around such a call.

use crate::trace::Tracer;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};
use uvllm::metrics::{FR_CYCLES, FR_EXTRA_SEEDS, FR_PRIMARY_SEED};
use uvllm::stages::{postprocess, preprocess, repair, uvm_stage_with, UvmOutcome};
use uvllm::{BenchInstance, Stage, Verdict, VerifyConfig};
use uvllm_baselines::{GptDirect, MeicRepair, RepairMethod, RtlRepair, StriderRepair};
use uvllm_campaign::{
    expand_jobs, merge_rows, BatchConfig, Campaign, CampaignConfig, EvalRecord, EvalRow, FaultPlan,
    Job, JsonlSink, LlmPolicy, MethodKind, ResiliencePolicy, ResultSink, ShardSpec, SharedLlm,
};
use uvllm_json::Json;
use uvllm_llm::{
    BatchedLlm, Completion, ErrorInfo, LanguageModel, LlmError, LlmService, ModelProfile,
    OracleLlm, OutputMode, RepairPair, RepairPrompt, ResilienceStats, Ticket, Usage, WaitStats,
};
use uvllm_serve::journal::Event;
use uvllm_serve::{
    Aggregator, FsyncPolicy, Journal, JournalConfig, RunSpec, ServeConfig, Server, WorkerOptions,
};
use uvllm_sim::{AnySim, Logic, SimBackend, SimControl};
use uvllm_uvm::{
    CornerSequence, DirectedSequence, Driver, Environment, RandomSequence, Sequence, Transaction,
    UvmError,
};

/// Busy threads in every CPU-bound measurement (README, rule 1).
pub const WORKERS: usize = 2;

/// Removes every `UVLLM_*` variable so the product's own defaults
/// (backend, worker count, bench sizes) are what is measured. Call
/// before any thread starts.
pub fn clear_product_env() {
    let keys: Vec<_> = std::env::vars_os()
        .map(|(key, _)| key)
        .filter(|key| key.to_string_lossy().starts_with("UVLLM_"))
        .collect();
    for key in keys {
        std::env::remove_var(key);
    }
}

/// Empties the process-wide elaboration cache and simulator pool, so a
/// pass starts where a fresh `campaign` process would.
pub fn reset_sim_caches() {
    uvllm_sim::cache::reset();
    uvllm_sim::cache::sim_pool_reset();
}

/// A product counter by its registered name (0 until first used).
pub fn counter(name: &str) -> u64 {
    uvllm_obs::registry().counter(name).get()
}

// ----------------------------------------------------------------------
// Campaigns
// ----------------------------------------------------------------------

/// Sees a campaign's pool start and every finished row, from the worker
/// thread that produced it.
pub trait RowObserver: Sync {
    fn ops_begin(&self);
    fn row_done(&self, id: &str);
}

/// Forwards to a real [`JsonlSink`] and tells the observer. The engine
/// asks a sink for its existing rows right before it starts the pool,
/// which is the pool-start stamp.
struct StampingSink<'o> {
    inner: JsonlSink,
    observer: &'o dyn RowObserver,
}

impl ResultSink for StampingSink<'_> {
    fn completed_ids(&self) -> HashSet<String> {
        self.inner.completed_ids()
    }

    fn existing_rows(&self) -> Vec<EvalRow> {
        self.observer.ops_begin();
        self.inner.existing_rows()
    }

    fn append(&mut self, row: &EvalRow) -> std::io::Result<()> {
        self.inner.append(row)?;
        self.observer.row_done(&row.id);
        Ok(())
    }
}

/// The four methods that talk to the LLM.
const LLM_METHODS: [MethodKind; 4] =
    [MethodKind::Uvllm, MethodKind::UvllmComplete, MethodKind::Meic, MethodKind::GptDirect];

/// Instances in the paper's dataset (`campaign_full`, `served_campaign`).
pub const PAPER_INSTANCES: usize = uvllm::dataset::PAPER_DATASET_SIZE;
/// Instances in the `llm_wait` workload.
pub const LLM_WAIT_INSTANCES: usize = 32;
/// Endpoint round trip injected on `llm_wait`.
const LLM_LATENCY: Duration = Duration::from_millis(5);

/// One configured campaign.
#[derive(Clone)]
pub struct CampaignPlan {
    config: CampaignConfig,
}

impl CampaignPlan {
    /// `size` instances × all six methods on [`WORKERS`] workers, with
    /// the product's default backend and options.
    pub fn sized(seed: u64, size: usize) -> CampaignPlan {
        CampaignPlan {
            config: CampaignConfig {
                dataset_size: size,
                dataset_seed: seed,
                workers: WORKERS,
                ..CampaignConfig::default()
            },
        }
    }

    /// The paper's 331 instances × 6 methods.
    pub fn full(seed: u64) -> CampaignPlan {
        CampaignPlan::sized(seed, PAPER_INSTANCES)
    }

    /// `size` instances × the four LLM methods, direct and fault-free:
    /// the rows every `llm_wait` pass must reproduce.
    ///
    /// The instances always come from the product's default dataset
    /// seed; the run's seed drives the retry jitter instead (see
    /// [`CampaignPlan::llm_faulted`]). With 64 instances the oracle's
    /// success draws alone moved a pass between 6.8 s and 9.4 s from one
    /// dataset seed to the next (22 % spread in `op_ms_p50`), which would
    /// drown the layer this workload watches.
    pub fn llm_reference(size: usize) -> CampaignPlan {
        let mut plan = CampaignPlan::sized(CampaignConfig::default().dataset_seed, size);
        plan.config.methods = LLM_METHODS.to_vec();
        plan
    }

    /// The same jobs behind a batched endpoint with a 5 ms round trip
    /// that fails 10 % of calls and garbles 5 %.
    ///
    /// Which calls fail is part of the workload, like the instances: the
    /// fault stream has a fixed seed and `seed` drives the backoff jitter
    /// only. Five fault seeds on the same code spread `op_ms_p90` 17 % and
    /// `ops_per_s` 11 % (which jobs draw a chain of retries decides both);
    /// five runs of one fault seed 1.5 % and 3 %.
    ///
    /// The policy departs from `ResiliencePolicy::default()` in three
    /// fields, each needed for "no operation fails": `validate` so a
    /// garbled completion is retried instead of accepted (the default
    /// let 48 of 256 rows differ at 64 instances), and a retry budget and breaker
    /// threshold high enough that no seed exhausts them and degrades.
    pub fn llm_faulted(seed: u64, size: usize) -> CampaignPlan {
        let mut plan = CampaignPlan::llm_reference(size);
        plan.config.llm_batch = Some(BatchConfig::default());
        plan.config.llm_latency = Some(LLM_LATENCY);
        plan.config.fault =
            Some(FaultPlan { error_rate: 0.10, malform_rate: 0.05, ..FaultPlan::default() });
        plan.config.resilience = Some(ResiliencePolicy {
            validate: true,
            retries: 8,
            breaker_threshold: 100,
            jitter_seed: seed,
            ..ResiliencePolicy::default()
        });
        plan
    }

    /// The `index`-th of `count` shards of this campaign.
    pub fn shard(&self, index: usize, count: usize) -> CampaignPlan {
        let mut plan = self.clone();
        plan.config.shard = ShardSpec { index, count };
        plan
    }

    /// Runs the campaign through `Campaign::run` into a fresh JSONL
    /// file at `sink_path`. Returns the number of jobs in the job space.
    pub fn run(&self, sink_path: &Path, observer: &dyn RowObserver) -> Result<usize, String> {
        let _ = std::fs::remove_file(sink_path);
        let inner = JsonlSink::open(sink_path).map_err(|e| format!("open sink: {e}"))?;
        let mut sink = StampingSink { inner, observer };
        let campaign = Campaign::new(self.config.clone())?;
        let outcome = campaign.run(&mut sink).map_err(|e| format!("campaign run: {e}"))?;
        Ok(outcome.total_jobs)
    }

    /// The submission body that asks the service for this campaign.
    pub fn submission(&self, shards: usize, lease_ms: u64) -> String {
        format!(
            "{{\"size\": {}, \"seed\": \"0x{:X}\", \"shards\": {shards}, \"lease_ms\": {lease_ms}}}",
            self.config.dataset_size, self.config.dataset_seed
        )
    }
}

/// An observer for runs nobody is timing.
pub struct Unobserved;

impl RowObserver for Unobserved {
    fn ops_begin(&self) {}
    fn row_done(&self, _id: &str) {}
}

// ----------------------------------------------------------------------
// Golden-design simulation (`sim_long`)
// ----------------------------------------------------------------------

/// Names of the golden designs, in catalogue order.
pub fn golden_designs() -> Vec<&'static str> {
    uvllm_designs::all().iter().map(|d| d.name).collect()
}

/// What one golden run produced.
pub struct GoldenRun {
    pub cycles: usize,
    pub all_passed: bool,
    /// Every simulated statistic of the run, folded into one word.
    pub fingerprint: u64,
}

fn golden_env(index: usize, cycles: usize, seq_seed: u64) -> Result<Environment, String> {
    let design = uvllm_designs::all()[index];
    let iface = (design.iface)();
    let seqs: Vec<Box<dyn Sequence>> =
        vec![Box::new(RandomSequence::new(&iface.inputs, cycles, seq_seed))];
    Environment::from_source(design.source, design.name, iface, (design.model)(), seqs)
        .map(Environment::without_waveform)
        .map_err(|e| format!("{}: {e}", design.name))
}

/// `cycles` random cycles of golden design `index` against its
/// reference model, through the UVM environment.
pub fn run_golden(index: usize, cycles: usize, seq_seed: u64) -> Result<GoldenRun, String> {
    let summary = golden_env(index, cycles, seq_seed)?.run();
    let mut fingerprint = crate::record::FNV_OFFSET;
    for word in [
        summary.cycles as u64,
        summary.mismatches.len() as u64,
        summary.pass_rate.to_bits(),
        summary.input_coverage.to_bits(),
        summary.toggle_coverage.to_bits(),
    ] {
        fingerprint = crate::record::fnv1a(fingerprint, &word.to_le_bytes());
    }
    Ok(GoldenRun { cycles: summary.cycles, all_passed: summary.all_passed(), fingerprint })
}

/// The exact counts of one design's bare-kernel loop; its times are the
/// spans.
pub struct KernelSplit {
    pub cycles: u64,
    /// Exact product counts over the kernel-only loop (meaningful only
    /// while no other thread simulates).
    pub settles: u64,
    pub activations: u64,
    pub allocations: u64,
}

/// Runs golden design `index` twice over the same stimulus: once
/// through the environment, once poking the kernel directly the way the
/// environment's driver does (inputs, clock high, settle, clock low)
/// with no monitor, scoreboard or reference model. The two timed
/// sections are also the spans `uvm.run` and `sim.kernel_loop`, with
/// the design's index as the job.
pub fn split_kernel_from_env(
    index: usize,
    cycles: usize,
    seq_seed: u64,
    tracer: &Tracer,
) -> Result<KernelSplit, String> {
    let env = golden_env(index, cycles, seq_seed)?;
    let summary = tracer.time("uvm.run", index as u64, || env.run());
    if !summary.all_passed() {
        return Err(format!("golden design {index} failed its own reference model"));
    }

    let design = uvllm_designs::all()[index];
    let iface = (design.iface)();
    let elaborated = uvllm_sim::elaborate_source_cached(design.source, design.name)?;
    let mut sim = AnySim::new(&elaborated, SimBackend::from_env()).map_err(|e| e.to_string())?;
    let id = |name: &str| elaborated.signal_id(name).ok_or(format!("no port {name}"));
    let ports = iface
        .inputs
        .iter()
        .map(|p| Ok((p.name.clone(), id(&p.name)?, p.width)))
        .collect::<Result<Vec<_>, String>>()?;
    let clock = iface.clock.as_deref().map(id).transpose()?;
    let mut stimulus = Vec::with_capacity(cycles);
    let mut sequence = RandomSequence::new(&iface.inputs, cycles, seq_seed);
    let mut txn = Transaction::new();
    while sequence.next_into(stimulus.len(), &mut txn) {
        stimulus.push(txn.clone());
    }

    // The environment's reset phase, poke for poke.
    let poke = |sim: &mut AnySim, id, value| sim.poke(id, value).map_err(|e| e.to_string());
    for (_, port, width) in &ports {
        poke(&mut sim, *port, Logic::zeros(*width))?;
    }
    if let Some(reset) = &iface.reset {
        let line = id(&reset.name)?;
        if let Some(clock) = clock {
            poke(&mut sim, clock, Logic::bit(false))?;
        }
        poke(&mut sim, line, Logic::bit(!reset.active_low))?;
        if let Some(clock) = clock {
            for _ in 0..2 {
                poke(&mut sim, clock, Logic::bit(true))?;
                poke(&mut sim, clock, Logic::bit(false))?;
            }
        }
        poke(&mut sim, line, Logic::bit(reset.active_low))?;
    }

    let settles = || counter("sim.event.settles") + counter("sim.compiled.settles");
    let activations = || {
        counter("sim.event.activations")
            + counter("sim.compiled.fastpath_hits")
            + counter("sim.compiled.fallback_hits")
    };
    let (settles0, activations0) = (settles(), activations());
    let (allocations0, _) = crate::alloc::counted();
    let span = tracer.span("sim.kernel_loop", index as u64);
    for txn in &stimulus {
        Driver.drive_resolved(&mut sim, &ports, txn).map_err(|e| e.to_string())?;
        if let Some(clock) = clock {
            poke(&mut sim, clock, Logic::bit(true))?;
        }
        sim.settle().map_err(|e| e.to_string())?;
        if let Some(clock) = clock {
            poke(&mut sim, clock, Logic::bit(false))?;
        }
    }
    drop(span);
    Ok(KernelSplit {
        cycles: stimulus.len() as u64,
        settles: settles() - settles0,
        activations: activations() - activations0,
        allocations: crate::alloc::counted().0 - allocations0,
    })
}

// ----------------------------------------------------------------------
// The pipeline walk (traced run of `campaign_full` / `llm_wait`)
// ----------------------------------------------------------------------

/// Wraps a job's LLM handle: counts prompts, spans every wait.
struct TimedService<'t> {
    inner: Box<dyn LlmService>,
    tracer: &'t Tracer,
    job: u64,
    prompts: &'t AtomicU64,
}

impl LlmService for TimedService<'_> {
    fn backend_name(&self) -> &str {
        self.inner.backend_name()
    }
    fn submit(&mut self, prompt: &RepairPrompt) -> Ticket {
        self.prompts.fetch_add(1, Ordering::Relaxed);
        self.inner.submit(prompt)
    }
    fn await_completion(&mut self, ticket: Ticket) -> Result<Completion, LlmError> {
        let _span = self.tracer.span("llm.wait", self.job);
        self.inner.await_completion(ticket)
    }
    fn usage(&self) -> Usage {
        self.inner.usage()
    }
    fn wait_stats(&self) -> WaitStats {
        self.inner.wait_stats()
    }
    fn resilience_stats(&self) -> ResilienceStats {
        self.inner.resilience_stats()
    }
}

/// Shared state of one walked pass.
struct Walk<'t> {
    tracer: &'t Tracer,
    backend: SimBackend,
    prompts: AtomicU64,
    /// Hashes of texts already elaborated in this pass: the walk parses
    /// a text exactly when the product would (an elaboration miss).
    seen: Mutex<HashSet<u64>>,
}

impl Walk<'_> {
    /// Calls the front-end layers on `code` directly, one span each,
    /// before the stage that will simulate it: parse, elaborate (this is
    /// the call that fills the cache, so the stage's own lookup hits),
    /// and for a text new to this pass the two build steps between an
    /// elaborated design and a runnable environment.
    fn front_end(&self, code: &str, design: &uvllm_designs::Design, job: u64) {
        let hash = crate::record::fnv1a(crate::record::FNV_OFFSET, code.as_bytes());
        let fresh = self.seen.lock().unwrap_or_else(PoisonError::into_inner).insert(hash);
        if fresh {
            let _ = self.tracer.time("verilog.parse", job, || uvllm_verilog::parse(code));
        }
        let mut span = self.tracer.span("sim.elab_hit", job);
        let elaborated = uvllm_sim::elaborate_source_cached(code, design.name);
        if fresh {
            // A text that does not parse never reaches elaboration.
            span.rename(if elaborated.is_ok() { "sim.elab_miss" } else { "sim.elab_reject" });
        }
        drop(span);
        let (true, Ok(elaborated)) = (fresh, elaborated) else { return };
        let Ok(sim) = self.tracer.time("sim.build", job, || AnySim::new(&elaborated, self.backend))
        else {
            return;
        };
        let _ = self.tracer.time("uvm.env_build", job, || {
            Environment::with_sim(sim, (design.iface)(), (design.model)(), Vec::new())
        });
    }

    /// The loop of `Uvllm::verify`, stage for stage, with a span around
    /// each stage function and the layer calls above in front of them.
    /// Returns `(final code, success, fixed_by)`.
    fn verify(
        &self,
        design: &uvllm_designs::Design,
        src: &str,
        service: &mut dyn LlmService,
        cfg: &VerifyConfig,
        job: u64,
    ) -> (String, bool, Option<Stage>) {
        let tracer = self.tracer;
        let mut code = src.to_string();
        let mut damage: Vec<RepairPair> = Vec::new();
        let mut best: (f64, String) = (-1.0, code.clone());
        let mut last_change: Option<(Stage, Vec<RepairPair>)> = None;
        let mut final_score = 0.0;
        for iter in 0..cfg.max_iterations {
            let _ = tracer.time("lint.check", job, || uvllm_lint::lint(&code));
            let (pre_code, pre_stats) = tracer.time("core.preprocess", job, || {
                preprocess(&code, design.spec, service, cfg.output_mode, cfg.preproc_iters)
            });
            if pre_stats.changed {
                code = pre_code;
                last_change = Some((Stage::Preprocess, Vec::new()));
            }

            self.front_end(&code, design, job);
            let outcome = tracer.time("uvm.stage", job, || {
                uvm_stage_with(&code, design, cfg.uvm_cycles, cfg.uvm_seed, cfg.backend)
            });
            let score = outcome.score();
            final_score = score;
            if outcome.passed() {
                return (code, true, last_change.map(|(stage, _)| stage));
            }
            if cfg.rollback_enabled && score < best.0 {
                if let Some((_, pairs)) = last_change.take() {
                    damage.extend(pairs);
                }
                code = best.1.clone();
            } else if score >= best.0 {
                best = (score, code.clone());
            }

            let sl_mode = cfg.sl_enabled && iter >= cfg.ms_threshold;
            let error_info = match &outcome {
                UvmOutcome::Ran(run) => {
                    let info = tracer
                        .time("core.postprocess", job, || postprocess(&code, design, run, sl_mode));
                    self.localize(&code, design, run, &info, job);
                    info
                }
                UvmOutcome::BuildFailed(msg) => {
                    ErrorInfo::LintLog(format!("%Error: dut.v:1:1: {msg}"))
                }
            };
            let attempt = tracer.time("core.repair", job, || {
                repair(&code, design.spec, service, error_info, &damage, cfg.output_mode, sl_mode)
            });
            if attempt.changed {
                code = attempt.code;
                let stage = if sl_mode { Stage::RepairSl } else { Stage::RepairMs };
                last_change = Some((stage, attempt.applied));
            }
        }
        if best.0 > final_score {
            code = best.1;
        }
        (code, false, None)
    }

    /// The localization call post-processing makes in SL mode, made
    /// again on the same inputs so the slice has a span of its own.
    fn localize(
        &self,
        code: &str,
        design: &uvllm_designs::Design,
        run: &uvllm_uvm::RunSummary,
        info: &ErrorInfo,
        job: u64,
    ) {
        let ErrorInfo::SuspiciousLines { signals: records, .. } = info else { return };
        let Some(first) = records.first() else { return };
        let mut signals: Vec<String> = records.iter().map(|m| m.signal.clone()).collect();
        signals.dedup();
        let Ok(file) = self.tracer.time("verilog.parse", job, || uvllm_verilog::parse(code)) else {
            return;
        };
        let Some(module) = file.module(design.name) else { return };
        let snapshot = run.waveform.snapshot_at(first.time);
        let _ = self.tracer.time("dfg.localize", job, || {
            uvllm_dfg::suspicious_lines(module, code, &signals, &snapshot)
        });
    }

    /// The metric run behind `hit_confirmed_with` / `fix_verdict_with`
    /// (the public test set for the hit rate; three random seeds, the
    /// corner patterns and the public set for the fix rate), with the
    /// environment build and the run as spans of the `uvm` layer.
    fn verdict(
        &self,
        code: &str,
        design: &uvllm_designs::Design,
        seqs: Vec<Box<dyn Sequence>>,
        job: u64,
    ) -> Verdict {
        let built = self.tracer.time("uvm.env_build", job, || {
            Environment::from_source_with(
                code,
                design.name,
                (design.iface)(),
                (design.model)(),
                seqs,
                self.backend,
            )
        });
        match built {
            Ok(env) => {
                let summary = self.tracer.time("uvm.run", job, || env.without_waveform().run());
                match summary.unstable {
                    _ if summary.all_passed() => Verdict::Pass,
                    Some(activations) => Verdict::Unstable { activations },
                    None => Verdict::Mismatch,
                }
            }
            Err(UvmError::Sim(_)) => Verdict::Unstable { activations: uvllm_sim::MAX_ACTIVATIONS },
            Err(_) => Verdict::BuildFailed,
        }
    }

    /// `evaluate_one_on`, with the UVLLM methods walked stage by stage.
    /// Returns the job's canonical row.
    fn job(&self, job: &Job, llm: &LlmPolicy<'_>, number: u64) -> String {
        let tracer = self.tracer;
        let _root = tracer.span("campaign.job", number);
        let inst: &BenchInstance = &job.instance;
        let design = inst.design;
        let method = job.method;
        let backend = self.backend;
        // The method salt of `evaluate_one_on` is the method's 1-based
        // position in table order; the row comparison below catches it
        // if that ever stops being true.
        let salt = MethodKind::ALL.iter().position(|m| *m == method).expect("listed") as u64 + 1;
        let oracle_seed = inst.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let service = |profile| {
            let model: Box<dyn LanguageModel> = Box::new(OracleLlm::new(
                inst.ground_truth.clone(),
                design.source,
                profile,
                oracle_seed,
            ));
            TimedService {
                inner: llm.service_for_job(model, oracle_seed),
                tracer,
                job: number,
                prompts: &self.prompts,
            }
        };
        let (final_code, claimed, fixed_by, usage, degraded) = match method {
            MethodKind::Uvllm | MethodKind::UvllmComplete => {
                let cfg = VerifyConfig {
                    output_mode: if method == MethodKind::UvllmComplete {
                        OutputMode::Complete
                    } else {
                        OutputMode::Pairs
                    },
                    backend,
                    ..VerifyConfig::default()
                };
                let mut service = service(ModelProfile::Gpt4Turbo);
                let (code, success, fixed_by) =
                    self.verify(design, &inst.mutated_src, &mut service, &cfg, number);
                let degraded = service.resilience_stats().degraded > 0;
                (code, success, fixed_by, service.usage(), degraded)
            }
            MethodKind::Meic | MethodKind::GptDirect => {
                let mut service = service(ModelProfile::Gpt4TurboWeakHarness);
                let out = tracer.time("baselines.job", number, || {
                    if method == MethodKind::Meic {
                        MeicRepair::new(&mut service)
                            .with_backend(backend)
                            .repair(design, &inst.mutated_src)
                    } else {
                        GptDirect::new(&mut service)
                            .with_backend(backend)
                            .repair(design, &inst.mutated_src)
                    }
                });
                let degraded = service.resilience_stats().degraded > 0;
                (out.final_code, out.claimed_success, None, out.usage, degraded)
            }
            MethodKind::Strider | MethodKind::RtlRepair => {
                let out = tracer.time("baselines.job", number, || {
                    if method == MethodKind::Strider {
                        StriderRepair::new().with_backend(backend).repair(design, &inst.mutated_src)
                    } else {
                        RtlRepair::new().with_backend(backend).repair(design, &inst.mutated_src)
                    }
                });
                (out.final_code, out.claimed_success, None, out.usage, false)
            }
        };
        self.front_end(&final_code, design, number);
        let (hit, fix_outcome) = tracer.time("core.verdict", number, || {
            let iface = (design.iface)();
            let public = || -> Box<dyn Sequence> {
                Box::new(DirectedSequence::new("public", (design.directed_vectors)()))
            };
            let random = |seed| -> Box<dyn Sequence> {
                Box::new(RandomSequence::new(&iface.inputs, FR_CYCLES, seed))
            };
            let mut campaign: Vec<Box<dyn Sequence>> = vec![
                random(FR_PRIMARY_SEED),
                Box::new(CornerSequence::new(&iface.inputs)),
                public(),
            ];
            campaign.extend(FR_EXTRA_SEEDS.map(random));
            (
                self.verdict(&final_code, design, vec![public()], number).passed(),
                self.verdict(&final_code, design, campaign, number),
            )
        });
        EvalRecord {
            instance_id: inst.id(),
            design: design.name,
            group: design.category,
            kind: inst.kind,
            category: inst.ground_truth.category,
            method,
            backend,
            hit,
            fixed: fix_outcome.passed(),
            fix_outcome,
            claimed,
            texec: 0.0,
            stage_times: None,
            fixed_by,
            usage,
            llm_wait: Duration::ZERO,
            llm_batch_max: 0,
            degraded,
        }
        .to_row()
        .to_json_line()
    }
}

/// What one walked pass did.
pub struct WalkOutcome {
    /// Canonical rows, sorted: must equal the campaign's own.
    pub rows: Vec<String>,
    pub wall_s: f64,
    pub prompts: u64,
}

impl CampaignPlan {
    /// Walks every job of this campaign on [`WORKERS`] closed-loop
    /// threads, the way `Campaign::run` would, but stage by stage with
    /// spans recorded into `tracer`.
    pub fn walk(&self, tracer: &Tracer) -> WalkOutcome {
        let backend = self.config.backend;
        let started = Instant::now();
        let dataset = tracer.time("core.dataset_build", 0, || {
            uvllm::build_dataset_with(self.config.dataset_size, self.config.dataset_seed, backend)
        });
        let instances: Vec<Arc<BenchInstance>> =
            dataset.instances.into_iter().map(Arc::new).collect();
        let jobs = expand_jobs(&instances, &self.config.methods);
        let shared: Option<SharedLlm> = self.config.llm_batch.as_ref().map(|batch| {
            BatchedLlm::start(BatchConfig {
                round_trip: self.config.llm_latency.unwrap_or(batch.round_trip),
                ..batch.clone()
            })
        });
        let llm = match &shared {
            Some(service) => LlmPolicy::batched(service),
            None => LlmPolicy::direct().with_latency(self.config.llm_latency),
        }
        .with_faults(self.config.fault.clone())
        .with_resilience(self.config.resilience.clone());
        let walk =
            Walk { tracer, backend, prompts: AtomicU64::new(0), seen: Mutex::new(HashSet::new()) };
        let next = AtomicUsize::new(0);
        let rows = Mutex::new(Vec::with_capacity(jobs.len()));
        std::thread::scope(|scope| {
            for _ in 0..WORKERS {
                scope.spawn(|| loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(index) else { break };
                    let row = walk.job(job, &llm, index as u64 + 1);
                    rows.lock().unwrap_or_else(PoisonError::into_inner).push(row);
                });
            }
        });
        drop(llm);
        drop(shared);
        let mut rows = rows.into_inner().unwrap_or_else(PoisonError::into_inner);
        rows.sort();
        WalkOutcome {
            rows,
            wall_s: started.elapsed().as_secs_f64(),
            prompts: walk.prompts.load(Ordering::Relaxed),
        }
    }

    /// Calls the entry points of the layers a job does not reach on its
    /// own, one span per call, over this campaign's instances and
    /// `rows` (its canonical rows): mutation, row encode/decode, sink
    /// append, shard merge, JSON parse/render, registry snapshot.
    /// Returns the bytes of row text the JSON spans covered.
    pub fn layer_calls(&self, rows: &[String], dir: &Path, tracer: &Tracer) -> Result<u64, String> {
        let config = &self.config;
        let dataset =
            uvllm::build_dataset_with(config.dataset_size, config.dataset_seed, config.backend);
        for inst in &dataset.instances {
            let _ = tracer.time("errgen.mutate", 0, || {
                uvllm_errgen::mutate(inst.design.source, inst.kind, inst.seed)
            });
        }
        let mut decoded = Vec::with_capacity(rows.len());
        for line in rows {
            decoded.push(tracer.time("campaign.row_decode", 0, || EvalRow::from_json_line(line))?);
        }
        let path = dir.join("layer-sink.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut sink = JsonlSink::open(&path).map_err(|e| format!("open sink: {e}"))?;
        for row in &decoded {
            let _ = tracer.time("campaign.row_encode", 0, || row.to_json_line());
            tracer
                .time("campaign.sink_append", 0, || sink.append(row))
                .map_err(|e| format!("sink append: {e}"))?;
        }
        let expected: Vec<String> = decoded.iter().map(|row| row.id.clone()).collect();
        let mut shards: Vec<(String, Vec<EvalRow>)> =
            (0..4).map(|i| (format!("shard-{i}"), Vec::new())).collect();
        for (i, row) in decoded.iter().enumerate() {
            shards[i % 4].1.push(row.clone());
        }
        shards.retain(|(_, rows)| !rows.is_empty());
        tracer.time("campaign.merge_rows", 0, || merge_rows(&shards, &expected))?;
        let mut bytes = 0u64;
        for line in rows {
            bytes += line.len() as u64;
            let json = tracer.time("json.parse", 0, || Json::parse(line))?;
            let _ = tracer.time("json.render", 0, || json.render());
        }
        for _ in 0..32 {
            let _ = tracer.time("obs.snapshot", 0, || uvllm_obs::registry().snapshot());
        }
        Ok(bytes)
    }
}

/// `(hits, misses)` of the elaboration cache since the last reset.
pub fn elab_cache_counts() -> (u64, u64) {
    let stats = uvllm_sim::cache::stats();
    (stats.hits, stats.misses)
}

// ----------------------------------------------------------------------
// The resident service (`served_campaign`)
// ----------------------------------------------------------------------

/// An in-process server with the product's default journal settings
/// (`FsyncPolicy::Always`) on a fresh data directory.
pub struct ServedHost {
    server: Server,
    addr: String,
}

impl ServedHost {
    pub fn start(data_dir: &Path) -> Result<ServedHost, String> {
        let server = Server::start(ServeConfig {
            data_dir: data_dir.to_path_buf(),
            ..ServeConfig::default()
        })
        .map_err(|e| format!("server start: {e}"))?;
        let addr = server.addr().to_string();
        Ok(ServedHost { server, addr })
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Drains and joins the server's threads.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// One HTTP round trip with the product's own client.
pub fn http(addr: &str, method: &str, target: &str, body: &str) -> Result<(u16, String), String> {
    uvllm_serve::http::request(addr, method, target, body)
}

/// The product's worker loop on [`WORKERS`] threads: leases shards until
/// the server has none left, then returns how many it completed.
pub fn run_leased_worker(addr: &str) -> Result<u64, String> {
    let options = WorkerOptions {
        name: "benchmark-worker".to_string(),
        workers: WORKERS,
        max_idle: Some(1),
        ..WorkerOptions::new(addr)
    };
    uvllm_serve::run_worker(&options).map(|summary| summary.completed)
}

/// `count` journal appends under one fsync policy, one span each
/// (`serve.journal_append.always` / `.never`).
pub fn journal_appends(
    dir: &Path,
    fsync_always: bool,
    count: usize,
    tracer: &Tracer,
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("journal dir: {e}"))?;
    let (fsync, name) = if fsync_always {
        (FsyncPolicy::Always, "serve.journal_append.always")
    } else {
        (FsyncPolicy::Never, "serve.journal_append.never")
    };
    let config = JournalConfig { fsync, compact_every: 0, crash_after: None };
    let mut journal = Journal::open(dir, config, 1, 0).map_err(|e| format!("journal open: {e}"))?;
    for i in 0..count {
        let event = Event::Heartbeat {
            run: "run-1".to_string(),
            shard: i % 4,
            epoch: 1,
            rows_done: i as u64,
        };
        tracer
            .time(name, 0, || journal.append(&event))
            .map_err(|e| format!("journal append: {e}"))?;
    }
    Ok(())
}

/// Writes a journal of one submitted run, its leases and `heartbeats`
/// heartbeats into `dir`, then runs cold-start recovery over it under a
/// `serve.recover` span. Returns the records replayed.
pub fn recover_journal(dir: &Path, heartbeats: usize, tracer: &Tracer) -> Result<u64, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("journal dir: {e}"))?;
    let config = JournalConfig { fsync: FsyncPolicy::Never, compact_every: 0, crash_after: None };
    let mut journal = Journal::open(dir, config, 1, 0).map_err(|e| format!("journal open: {e}"))?;
    let spec =
        RunSpec::from_json(&Json::parse("{\"size\": 8, \"shards\": 4}")?, Duration::from_secs(60))?;
    let mut events = vec![Event::Submit { run: "run-1".to_string(), spec }];
    for shard in 0..4 {
        events.push(Event::Lease {
            run: "run-1".to_string(),
            shard,
            epoch: 1,
            worker: "w".to_string(),
            stolen: false,
        });
    }
    for i in 0..heartbeats {
        events.push(Event::Heartbeat {
            run: "run-1".to_string(),
            shard: i % 4,
            epoch: 1,
            rows_done: i as u64,
        });
    }
    for event in &events {
        journal.append(event).map_err(|e| format!("journal append: {e}"))?;
    }
    drop(journal);
    let recovery = tracer
        .time("serve.recover", 0, || uvllm_serve::recover(dir))
        .map_err(|e| format!("recover: {e}"))?;
    if recovery.report.records_replayed != events.len() as u64 {
        return Err(format!(
            "recovery replayed {} of {} records",
            recovery.report.records_replayed,
            events.len()
        ));
    }
    Ok(recovery.report.records_replayed)
}

/// Appends `rows` to a sink file eight at a time, polling a registered
/// aggregator after each batch under a `serve.aggregate_poll` span.
pub fn aggregate_polls(
    plan: &CampaignPlan,
    rows: &[String],
    dir: &Path,
    tracer: &Tracer,
) -> Result<(), String> {
    use std::io::Write;
    std::fs::create_dir_all(dir).map_err(|e| format!("aggregate dir: {e}"))?;
    let path: PathBuf = dir.join("shard-0.jsonl");
    let _ = std::fs::remove_file(&path);
    let spec =
        RunSpec::from_json(&Json::parse(&plan.submission(1, 3000))?, Duration::from_secs(3))?;
    let aggregator = Aggregator::new();
    aggregator.register("run-probe", &spec, vec![path.clone()]);
    let mut file = std::fs::File::create(&path).map_err(|e| format!("sink create: {e}"))?;
    for batch in rows.chunks(8) {
        for line in batch {
            writeln!(file, "{line}").map_err(|e| format!("sink write: {e}"))?;
        }
        tracer.time("serve.aggregate_poll", 0, || aggregator.poll());
    }
    let seen = aggregator.view("run-probe").map_or(0, |view| view.rows.len());
    if seen != rows.len() {
        return Err(format!("aggregator saw {seen} of {} rows", rows.len()));
    }
    Ok(())
}

// ----------------------------------------------------------------------
// JSON documents (service replies, the benchmark's own result lines)
// ----------------------------------------------------------------------

/// A parsed JSON document.
pub struct Doc(Json);

impl Doc {
    pub fn parse(text: &str) -> Result<Doc, String> {
        Json::parse(text.trim()).map(Doc)
    }

    fn at(&self, path: &[&str]) -> Option<&Json> {
        path.iter().try_fold(&self.0, |json, key| json.get(key))
    }

    pub fn number(&self, path: &[&str]) -> Option<f64> {
        self.at(path)?.as_f64()
    }

    pub fn boolean(&self, path: &[&str]) -> Option<bool> {
        self.at(path)?.as_bool()
    }

    pub fn string(&self, path: &[&str]) -> Option<String> {
        self.at(path)?.as_str().map(str::to_string)
    }

    /// Member names of the object at `path`, in document order.
    pub fn keys(&self, path: &[&str]) -> Vec<String> {
        match self.at(path) {
            Some(Json::Obj(members)) => members.iter().map(|(key, _)| key.clone()).collect(),
            _ => Vec::new(),
        }
    }

    /// The string member `key` of every object in the array at `path`.
    pub fn strings_in_array(&self, path: &[&str], key: &str) -> Vec<String> {
        self.at(path)
            .and_then(Json::as_array)
            .unwrap_or_default()
            .iter()
            .filter_map(|item| item.get(key)?.as_str().map(str::to_string))
            .collect()
    }
}

/// Maps every row's job id to the row, for comparisons by job.
pub fn rows_by_id(rows: &[String]) -> Result<HashMap<String, usize>, String> {
    rows.iter()
        .enumerate()
        .map(|(index, line)| Ok((EvalRow::from_json_line(line)?.id, index)))
        .collect()
}
