//! The traced run: per-layer metrics (README, "Metric catalogue").
//!
//! Three probes cover the layers: the *pipeline walk* (every crate a
//! campaign job passes through), the *kernel split* (`sim` against
//! `uvm`) and the *service probe* (`serve`, with `json` and `obs`).
//! Every traced run executes all three, so every per-layer metric is
//! measured in every run; the probe that belongs to the traced workload
//! runs at that workload's full size on most of the time budget, the
//! other two at a reduced size on the rest.

use crate::api::{self, CampaignPlan, ServedHost, Unobserved};
use crate::estimator::median;
use crate::measure::{Metric, Report};
use crate::trace::{self, SpanRecord, Tracer};
use crate::workloads::{self, CampaignWorkload, Workload};
use crate::{alloc, out_dir};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Share of `--seconds` the traced workload's own probe may use; the
/// other two probes split the rest.
const HOME_SHARE: f64 = 0.6;
/// Instances of the reduced-size pipeline walk and service probe.
const AWAY_INSTANCES: usize = 24;
/// Cycles per design of the reduced-size kernel split.
const AWAY_CYCLES: usize = 500;

/// `(name, unit, better)` of every per-layer metric, in the order
/// `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str, &str); 62] = [
    ("verilog.parse_us_p50", "us", "lower"),
    ("verilog.parse_share", "ratio", "lower"),
    ("sim.elab_us_p50", "us", "lower"),
    ("sim.elab_cache_hit_ratio", "ratio", "higher"),
    ("sim.build_us_p50", "us", "lower"),
    ("sim.front_end_share", "ratio", "lower"),
    ("sim.settles_per_job", "count", "lower"),
    ("sim.activations_per_job", "count", "lower"),
    ("sim.kernel_ns_per_cycle", "ns", "lower"),
    ("sim.settles_per_cycle", "count", "lower"),
    ("sim.activations_per_cycle", "count", "lower"),
    ("sim.alloc_per_cycle", "count", "lower"),
    ("uvm.env_build_us_p50", "us", "lower"),
    ("uvm.stage_us_p50", "us", "lower"),
    ("uvm.run_share", "ratio", "lower"),
    ("uvm.env_ns_per_cycle", "ns", "lower"),
    ("uvm.env_self_ns_per_cycle", "ns", "lower"),
    ("lint.check_us_p50", "us", "lower"),
    ("lint.share", "ratio", "lower"),
    ("dfg.localize_us_p50", "us", "lower"),
    ("dfg.share", "ratio", "lower"),
    ("errgen.mutate_us_p50", "us", "lower"),
    ("core.dataset_build_s", "s", "lower"),
    ("core.preprocess_us_p50", "us", "lower"),
    ("core.verdict_us_p50", "us", "lower"),
    ("core.repair_us_p50", "us", "lower"),
    ("core.share", "ratio", "lower"),
    ("baselines.job_us_p50", "us", "lower"),
    ("baselines.share", "ratio", "lower"),
    ("llm.prompts_per_job", "count", "lower"),
    ("llm.round_trips_per_job", "count", "lower"),
    ("llm.wait_ms_p50", "ms", "lower"),
    ("llm.batch_size_mean", "count", "higher"),
    ("llm.flushes_per_job", "count", "lower"),
    ("llm.retries_per_prompt", "ratio", "lower"),
    ("llm.faults_injected", "count", "lower"),
    ("llm.degraded", "count", "lower"),
    ("llm.share", "ratio", "lower"),
    ("campaign.sink_append_us_p50", "us", "lower"),
    ("campaign.row_encode_us_p50", "us", "lower"),
    ("campaign.row_decode_us_p50", "us", "lower"),
    ("campaign.merge_rows_ms", "ms", "lower"),
    ("campaign.pool_idle_share", "ratio", "lower"),
    ("campaign.alloc_kb_per_job", "kB", "lower"),
    ("campaign.share", "ratio", "lower"),
    ("serve.submit_ms_p50", "ms", "lower"),
    ("serve.lease_ms_p50", "ms", "lower"),
    ("serve.heartbeat_ms_p50", "ms", "lower"),
    ("serve.complete_ms_p50", "ms", "lower"),
    ("serve.status_ms_p50", "ms", "lower"),
    ("serve.rows_ms_p50", "ms", "lower"),
    ("serve.metrics_ms_p50", "ms", "lower"),
    ("serve.journal_append_us_p50.always", "us", "lower"),
    ("serve.journal_append_us_p50.never", "us", "lower"),
    ("serve.recover_ms_per_krecord", "ms", "lower"),
    ("serve.aggregate_poll_ms_p50", "ms", "lower"),
    ("serve.shard_idle_ms_p50", "ms", "lower"),
    ("serve.overhead_ratio", "ratio", "lower"),
    ("json.parse_mb_per_s", "MB/s", "higher"),
    ("json.render_mb_per_s", "MB/s", "higher"),
    ("obs.snapshot_us_p50", "us", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
];

/// What the probes accumulate.
#[derive(Default)]
struct Layers {
    values: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    spans: Vec<SpanRecord>,
}

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }
}

fn p50(spans: &[SpanRecord], name: &str, scale: f64) -> f64 {
    median(&trace::durations(spans, name)) * scale
}

fn total(spans: &[SpanRecord], name: &str) -> f64 {
    trace::durations(spans, name).iter().sum()
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

pub fn run(name: &str, seed: u64, seconds: f64, dir: &Path) -> Result<Report, String> {
    let budget = |home: bool| seconds * if home { HOME_SHARE } else { (1.0 - HOME_SHARE) / 2.0 };
    let mut layers = Layers::default();
    layers.notes.push(format!(
        "traced run of {name}  seed 0x{seed:X}  nproc {}  busy threads {}",
        crate::sys::nproc(),
        api::WORKERS
    ));

    let pipeline = match name {
        "campaign_full" => Pipeline::Full,
        "llm_wait" => Pipeline::LlmWait,
        _ => Pipeline::Reduced,
    };
    walk_pipeline(pipeline, seed, budget(pipeline != Pipeline::Reduced), dir, &mut layers)?;
    let sim_home = name == "sim_long";
    let cycles = if sim_home { workloads::SIM_CYCLES } else { AWAY_CYCLES };
    split_kernel(seed, cycles, budget(sim_home), &mut layers)?;
    let serve_home = name == "served_campaign";
    let size = if serve_home { api::PAPER_INSTANCES } else { AWAY_INSTANCES };
    probe_service(seed, size, budget(serve_home), dir, &mut layers)?;

    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let path = out.join(format!("trace-{name}.jsonl"));
    trace::write_jsonl(&path, &layers.spans)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    layers.notes.push(format!("{} spans written to {}", layers.spans.len(), path.display()));

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let value = layers.values.get(name).copied();
            value
                .map(|value| Metric { name, value, unit })
                .ok_or(format!("{name} was not measured"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Report { metrics, attempted: layers.attempted, failed: layers.failed, notes: layers.notes })
}

// ----------------------------------------------------------------------
// Pipeline walk
// ----------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
enum Pipeline {
    Full,
    LlmWait,
    Reduced,
}

/// Product counters read around every walked pass.
const COUNTERS: [&str; 13] = [
    "sim.event.settles",
    "sim.compiled.settles",
    "sim.event.activations",
    "sim.compiled.fastpath_hits",
    "sim.compiled.fallback_hits",
    "llm.flushes",
    "llm.flushed_prompts",
    "llm.retries",
    "llm.faults.errors",
    "llm.faults.malformed",
    "llm.faults.stalls",
    "llm.degraded",
    "llm.tickets",
];

fn read_counters() -> [u64; COUNTERS.len()] {
    COUNTERS.map(api::counter)
}

/// Alternates the product's own pass (`Campaign::run`, untraced) and
/// the walked pass (traced) until the budget is spent; both must
/// reproduce the reference rows.
fn walk_pipeline(
    kind: Pipeline,
    seed: u64,
    budget_s: f64,
    dir: &Path,
    layers: &mut Layers,
) -> Result<(), String> {
    let (plan, reference_plan, slices) = match kind {
        Pipeline::Full => (CampaignPlan::full(seed), None, 32),
        Pipeline::LlmWait => (
            CampaignPlan::llm_faulted(seed, api::LLM_WAIT_INSTANCES),
            Some(CampaignPlan::llm_reference(api::LLM_WAIT_INSTANCES)),
            8,
        ),
        Pipeline::Reduced => (CampaignPlan::sized(seed, AWAY_INSTANCES), None, 8),
    };
    let dir = dir.join("pipeline");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    // Allocation volume is counted over the reference run alone, so the
    // counting never slows a pass whose time is compared.
    let bytes_before = alloc::counted().1;
    alloc::set_counting(true);
    let mut campaign = CampaignWorkload::new(plan.clone(), reference_plan, &dir, slices)?;
    alloc::set_counting(false);
    let reference_bytes = alloc::counted().1 - bytes_before;
    let jobs = campaign.ops() as f64;
    let tracer = Tracer::new(true);
    let started = Instant::now();
    let (mut untraced_s, mut traced_s, mut busy_s) = (0.0, 0.0, 0.0);
    let (mut rounds, mut prompts, mut hits, mut misses) = (0.0, 0u64, 0u64, 0u64);
    let mut counts = [0u64; COUNTERS.len()];
    loop {
        let record = campaign.pass()?;
        untraced_s += record.slice_wall.iter().sum::<f64>();
        busy_s += record.busy_s;
        layers.attempted += record.attempted;
        layers.failed += record.failed;

        api::reset_sim_caches();
        let before = read_counters();
        let walked = plan.walk(&tracer);
        for (count, (after, before)) in counts.iter_mut().zip(read_counters().iter().zip(before)) {
            *count += after - before;
        }
        let (h, m) = api::elab_cache_counts();
        hits += h;
        misses += m;
        traced_s += walked.wall_s;
        prompts += walked.prompts;
        layers.attempted += walked.rows.len() as u64;
        layers.failed += workloads::row_failures(&walked.rows, campaign.reference());
        rounds += 1.0;
        if started.elapsed().as_secs_f64() >= budget_s {
            break;
        }
    }
    let walk_spans = tracer.drain();
    let bytes_of_rows = plan.layer_calls(campaign.reference(), &dir, &tracer)?;
    let call_spans = tracer.drain();

    // Shares are of the walked jobs' wall time: spans under a
    // `campaign.job` root (job numbers start at 1).
    let job_spans: Vec<SpanRecord> = walk_spans.iter().filter(|s| s.job != 0).cloned().collect();
    let own = trace::layer_self_seconds(&job_spans);
    let job_s = total(&job_spans, "campaign.job");
    let share = |layer: &str| ratio(own.get(layer).copied().unwrap_or(0.0), job_s);
    for (metric, layer) in [
        ("verilog.parse_share", "verilog"),
        ("sim.front_end_share", "sim"),
        ("uvm.run_share", "uvm"),
        ("lint.share", "lint"),
        ("dfg.share", "dfg"),
        ("core.share", "core"),
        ("baselines.share", "baselines"),
        ("llm.share", "llm"),
        ("campaign.share", "campaign"),
    ] {
        layers.set(metric, share(layer));
    }
    for (metric, span, scale) in [
        ("verilog.parse_us_p50", "verilog.parse", 1e6),
        ("sim.elab_us_p50", "sim.elab_miss", 1e6),
        ("sim.build_us_p50", "sim.build", 1e6),
        ("uvm.env_build_us_p50", "uvm.env_build", 1e6),
        ("uvm.stage_us_p50", "uvm.stage", 1e6),
        ("lint.check_us_p50", "lint.check", 1e6),
        ("dfg.localize_us_p50", "dfg.localize", 1e6),
        ("core.dataset_build_s", "core.dataset_build", 1.0),
        ("core.preprocess_us_p50", "core.preprocess", 1e6),
        ("core.verdict_us_p50", "core.verdict", 1e6),
        ("core.repair_us_p50", "core.repair", 1e6),
        ("baselines.job_us_p50", "baselines.job", 1e6),
        ("llm.wait_ms_p50", "llm.wait", 1e3),
    ] {
        layers.set(metric, p50(&walk_spans, span, scale));
    }
    for (metric, span, scale) in [
        ("errgen.mutate_us_p50", "errgen.mutate", 1e6),
        ("campaign.sink_append_us_p50", "campaign.sink_append", 1e6),
        ("campaign.row_encode_us_p50", "campaign.row_encode", 1e6),
        ("campaign.row_decode_us_p50", "campaign.row_decode", 1e6),
        ("campaign.merge_rows_ms", "campaign.merge_rows", 1e3),
        ("obs.snapshot_us_p50", "obs.snapshot", 1e6),
    ] {
        layers.set(metric, p50(&call_spans, span, scale));
    }
    let count = |name: &str| {
        let at = COUNTERS.iter().position(|c| *c == name).expect("listed counter");
        counts[at] as f64
    };
    let walked_jobs = jobs * rounds;
    let retries = count("llm.retries");
    let flushes = count("llm.flushes");
    layers.set("sim.elab_cache_hit_ratio", ratio(hits as f64, (hits + misses) as f64));
    layers.set(
        "sim.settles_per_job",
        (count("sim.event.settles") + count("sim.compiled.settles")) / walked_jobs,
    );
    layers.set(
        "sim.activations_per_job",
        (count("sim.event.activations")
            + count("sim.compiled.fastpath_hits")
            + count("sim.compiled.fallback_hits"))
            / walked_jobs,
    );
    layers.set("llm.prompts_per_job", prompts as f64 / walked_jobs);
    layers.set("llm.round_trips_per_job", (prompts as f64 + retries) / walked_jobs);
    layers.set("llm.batch_size_mean", ratio(count("llm.flushed_prompts"), flushes));
    layers.set("llm.flushes_per_job", flushes / walked_jobs);
    layers.set("llm.retries_per_prompt", ratio(retries, prompts as f64));
    layers.set(
        "llm.faults_injected",
        (count("llm.faults.errors") + count("llm.faults.malformed") + count("llm.faults.stalls"))
            / rounds,
    );
    layers.set("llm.degraded", count("llm.degraded"));
    layers.set("campaign.pool_idle_share", 1.0 - busy_s / (api::WORKERS as f64 * untraced_s));
    layers.set("campaign.alloc_kb_per_job", reference_bytes as f64 / 1024.0 / jobs);
    let megabytes = bytes_of_rows as f64 / 1e6;
    layers.set("json.parse_mb_per_s", ratio(megabytes, total(&call_spans, "json.parse")));
    layers.set("json.render_mb_per_s", ratio(megabytes, total(&call_spans, "json.render")));
    layers.set("trace.overhead_share", traced_s / untraced_s - 1.0);
    layers.notes.push(format!(
        "pipeline walk: {rounds} round(s) of {jobs} jobs; walked {traced_s:.3} s against \
         {untraced_s:.3} s through Campaign::run; {:.1} % of job wall attributed below the job \
         span",
        100.0 * (1.0 - share("campaign"))
    ));
    layers.spans.extend(walk_spans);
    layers.spans.extend(call_spans);
    Ok(())
}

// ----------------------------------------------------------------------
// Kernel split
// ----------------------------------------------------------------------

/// Every golden design through the environment and through the bare
/// kernel on the same stimulus. Round 0 runs alone with counting on and
/// supplies the exact counts; later rounds run on two threads and supply
/// the times, each design's fastest round.
fn split_kernel(
    seed: u64,
    cycles: usize,
    budget_s: f64,
    layers: &mut Layers,
) -> Result<(), String> {
    let designs = api::golden_designs().len();
    let tracer = Tracer::new(true);
    let seq_seed = |design: usize| seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ design as u64;
    let started = Instant::now();

    let (mut settles, mut activations, mut allocations, mut counted_cycles) = (0u64, 0, 0, 0);
    alloc::set_counting(true);
    for design in 0..designs {
        let split =
            api::split_kernel_from_env(design, cycles, seq_seed(design), &Tracer::new(false))?;
        settles += split.settles;
        activations += split.activations;
        allocations += split.allocations;
        counted_cycles += split.cycles;
    }
    alloc::set_counting(false);

    let mut rounds = 0;
    while rounds == 0 || started.elapsed().as_secs_f64() < budget_s {
        let results: Vec<Result<(), String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..api::WORKERS)
                .map(|worker| {
                    let tracer = &tracer;
                    scope.spawn(move || {
                        for design in (worker..designs).step_by(api::WORKERS) {
                            api::split_kernel_from_env(design, cycles, seq_seed(design), tracer)?;
                        }
                        Ok(())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("split thread does not panic")).collect()
        });
        results.into_iter().collect::<Result<(), String>>()?;
        rounds += 1;
    }
    let spans = tracer.drain();
    let filtered_seconds = |name: &str| -> f64 {
        (0..designs as u64)
            .map(|design| {
                spans
                    .iter()
                    .filter(|s| s.name == name && s.job == design)
                    .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
                    .fold(f64::INFINITY, f64::min)
            })
            .sum()
    };
    let all_cycles = counted_cycles as f64;
    let env_ns = filtered_seconds("uvm.run") / all_cycles * 1e9;
    let kernel_ns = filtered_seconds("sim.kernel_loop") / all_cycles * 1e9;
    layers.set("uvm.env_ns_per_cycle", env_ns);
    layers.set("sim.kernel_ns_per_cycle", kernel_ns);
    layers.set("uvm.env_self_ns_per_cycle", env_ns - kernel_ns);
    layers.set("sim.settles_per_cycle", settles as f64 / all_cycles);
    layers.set("sim.activations_per_cycle", activations as f64 / all_cycles);
    layers.set("sim.alloc_per_cycle", allocations as f64 / all_cycles);
    layers.attempted += (designs * (rounds + 1)) as u64;
    layers.notes.push(format!(
        "kernel split: {designs} designs x {cycles} cycles, {rounds} timed round(s) on {} threads",
        api::WORKERS
    ));
    layers.spans.extend(spans);
    Ok(())
}

// ----------------------------------------------------------------------
// Service probe
// ----------------------------------------------------------------------

/// Endpoint rounds of the service probe, at least.
const MIN_ENDPOINT_ROUNDS: usize = 3;

fn probe_service(
    seed: u64,
    size: usize,
    budget_s: f64,
    dir: &Path,
    layers: &mut Layers,
) -> Result<(), String> {
    let dir = dir.join("service");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let plan = CampaignPlan::sized(seed, size);
    let tracer = Tracer::new(true);
    let shards = workloads::SERVED_SHARDS;
    let started = Instant::now();

    // The same campaign directly, whole and shard by shard (one cache
    // reset, shards in lease order, as in a served pass).
    let direct_started = Instant::now();
    let reference = workloads::run_unobserved(&plan, &dir.join("direct.jsonl"))?;
    let direct_s = direct_started.elapsed().as_secs_f64();
    api::reset_sim_caches();
    let mut engine_ms = Vec::with_capacity(shards);
    for shard in 0..shards {
        let shard_started = Instant::now();
        plan.shard(shard, shards).run(&dir.join("direct-shard.jsonl"), &Unobserved)?;
        engine_ms.push(shard_started.elapsed().as_secs_f64() * 1e3);
    }

    let host = ServedHost::start(&dir.join("serve"))?;
    let served =
        tracer.time("serve.pass", 0, || workloads::serve_once(host.addr(), &plan, shards))?;
    layers.attempted += reference.len() as u64;
    layers.failed += served.failed + workloads::row_failures(&served.rows, &reference);
    let idle: Vec<f64> = served.shard_ms.iter().zip(&engine_ms).map(|(t, e)| t - e).collect();
    layers.set("serve.shard_idle_ms_p50", median(&idle));
    layers.set("serve.overhead_ratio", served.wall_s / direct_s);

    // This process as its own worker and client: one span per request.
    let addr = host.addr();
    let mut requests = 0u64;
    let mut bad = 0u64;
    let mut call = |span: &'static str, method: &str, target: &str, body: &str| {
        requests += 1;
        match tracer.time(span, 0, || api::http(addr, method, target, body)) {
            Ok((200, body)) => body,
            _ => {
                bad += 1;
                String::new()
            }
        }
    };
    let mut rounds = 0;
    while rounds < MIN_ENDPOINT_ROUNDS || started.elapsed().as_secs_f64() < budget_s {
        let reply = call("serve.submit", "POST", "/jobs", &plan.submission(shards, 3000));
        let run = api::Doc::parse(&reply).ok().and_then(|doc| doc.string(&["run"]));
        let Some(run) = run else { break };
        for _ in 0..shards {
            let grant = call("serve.lease", "POST", "/lease", "{\"worker\": \"benchmark\"}");
            let Ok(grant) = api::Doc::parse(&grant) else { continue };
            let (Some(shard), Some(epoch)) = (grant.number(&["shard"]), grant.number(&["epoch"]))
            else {
                continue;
            };
            let lease = format!(
                "{{\"run\": \"{}\", \"shard\": {shard}, \"epoch\": {epoch}",
                grant.string(&["run"]).unwrap_or_default()
            );
            call("serve.heartbeat", "POST", "/heartbeat", &format!("{lease}, \"rows_done\": 1}}"));
            call("serve.complete", "POST", "/complete", &format!("{lease}}}"));
        }
        call("serve.status", "GET", &format!("/runs/{run}"), "");
        call("serve.rows", "GET", &format!("/runs/{run}/rows"), "");
        call("serve.metrics", "GET", "/metrics", "");
        rounds += 1;
    }
    layers.attempted += requests;
    layers.failed += bad;

    // The store's collaborators, called directly.
    api::journal_appends(&dir.join("journal-always"), true, 64, &tracer)?;
    api::journal_appends(&dir.join("journal-never"), false, 64, &tracer)?;
    let records = api::recover_journal(&dir.join("journal-recover"), 2000, &tracer)?;
    api::aggregate_polls(&plan, &reference, &dir.join("aggregate"), &tracer)?;
    host.shutdown();

    let spans = tracer.drain();
    for (metric, span, scale) in [
        ("serve.submit_ms_p50", "serve.submit", 1e3),
        ("serve.lease_ms_p50", "serve.lease", 1e3),
        ("serve.heartbeat_ms_p50", "serve.heartbeat", 1e3),
        ("serve.complete_ms_p50", "serve.complete", 1e3),
        ("serve.status_ms_p50", "serve.status", 1e3),
        ("serve.rows_ms_p50", "serve.rows", 1e3),
        ("serve.metrics_ms_p50", "serve.metrics", 1e3),
        ("serve.journal_append_us_p50.always", "serve.journal_append.always", 1e6),
        ("serve.journal_append_us_p50.never", "serve.journal_append.never", 1e6),
        ("serve.aggregate_poll_ms_p50", "serve.aggregate_poll", 1e3),
    ] {
        layers.set(metric, p50(&spans, span, scale));
    }
    layers.set(
        "serve.recover_ms_per_krecord",
        total(&spans, "serve.recover") * 1e3 / (records as f64 / 1e3),
    );
    layers.notes.push(format!(
        "service probe: {size} instances x 6 methods in {shards} shards; served {:.3} s against \
         {direct_s:.3} s direct; shard turnaround {:?} ms against engine {:?} ms; {rounds} endpoint \
         round(s)",
        served.wall_s,
        served.shard_ms.iter().map(|t| t.round()).collect::<Vec<_>>(),
        engine_ms.iter().map(|t| t.round()).collect::<Vec<_>>(),
    ));
    layers.spans.extend(spans);
    Ok(())
}
