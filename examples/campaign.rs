//! Full-dataset verification campaign across all repair methods, on a
//! sharded multi-worker engine with a resumable JSONL sink and an
//! optional shared batched LLM service.
//!
//! ```text
//! cargo run --release --example campaign -- --workers 8
//! cargo run --release --example campaign -- --workers 8 --shard 0/4 --out shard0.jsonl
//! cargo run --release --example campaign -- --size 60 --methods UVLLM,MEIC
//! cargo run --release --example campaign -- --workers 8 --llm-batch 8
//! cargo run --release --example campaign -- --llm-batch 8 --llm-latency-ms 5 --llm-telemetry
//! cargo run --release --example campaign -- --metrics-out metrics.json
//! cargo run --release --example campaign -- --fault-error-rate 0.15 --llm-retries 8
//! cargo run --release --example campaign -- --inject-panic '@RTLrepair' --job-deadline-ms 60000
//! cargo run --release --example campaign -- merge shard0.jsonl shard1.jsonl --out merged.jsonl
//! cargo run --release --example campaign -- metrics-check metrics.json
//! cargo run --release --example campaign -- serve --addr 127.0.0.1:8091 --data-dir serve-data
//! cargo run --release --example campaign -- serve --addr-file serve.addr --fsync every:32
//! cargo run --release --example campaign -- worker --connect 127.0.0.1:8091 --workers 8
//! cargo run --release --example campaign -- worker --addr-file serve.addr --workers 8
//! cargo run --release --example campaign -- submit --connect 127.0.0.1:8091 --size 60 --shards 4
//! cargo run --release --example campaign -- status --connect 127.0.0.1:8091 run-1 --wait
//! cargo run --release --example campaign -- shutdown --connect 127.0.0.1:8091
//! ```
//!
//! Re-running with the same `--out` resumes: completed jobs are read
//! back from the file and skipped. Output rows are byte-identical
//! (modulo order) for any `--workers` value, with `--llm-batch` on or
//! off — batching changes wall-clock, not rows.
//!
//! `merge` combines shard files into one report, validating shard
//! disjointness and full job-space coverage (pass the same `--size` /
//! `--seed` / `--methods` the shards ran with).
//!
//! The `serve` family runs the resident campaign service
//! (`uvllm-serve`): `serve` keeps campaigns resident and leases their
//! shards over HTTP; `worker --connect` evaluates leased shards;
//! `submit` / `status` / `metrics` / `shutdown` / `ping` are thin
//! clients over the same endpoints. Rows served this way are
//! byte-identical to a plain CLI run of the same configuration —
//! including across worker deaths, stolen leases, and `kill -9` of the
//! server itself: the job store is write-ahead journaled into
//! `--data-dir`, a restart replays it (see `--fsync`, `--compact-every`,
//! and the `--crash-after` chaos knob), and workers given `--addr-file`
//! re-find the restarted server on their own.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use uvllm_campaign::{
    expected_job_ids, merge_rows, read_shard, BatchConfig, Campaign, CampaignConfig,
    CampaignReport, FaultPlan, JsonlSink, MethodKind, ResiliencePolicy, ShardSpec,
};
use uvllm_json::{s, Json};
use uvllm_serve::{
    http, post_json, run_worker, CrashSpec, FsyncPolicy, ServeConfig, Server, WorkerOptions,
};

struct Args {
    config: CampaignConfig,
    out: String,
}

const USAGE: &str = "usage: campaign [--workers N] [--shard i/n] [--size N] \
     [--seed HEX] [--methods A,B,..] \
     [--llm-batch N] [--llm-max-wait-ms MS] [--llm-latency-ms MS] \
     [--llm-telemetry] [--metrics-out FILE] [--metrics-flush-jobs N] [--out FILE]\n\
     \x20      campaign [--fault-seed HEX] [--fault-error-rate F] [--fault-malform-rate F] \
     [--fault-latency-ms MS]\n\
     \x20      campaign [--llm-retries N] [--llm-timeout-ms MS] [--llm-breaker-threshold N] \
     [--job-deadline-ms MS] [--inject-panic PAT] [--inject-stall PAT:MS]\n\
     \x20      campaign merge [--size N] [--seed HEX] [--methods A,B,..] \
     [--out FILE] SHARD.jsonl..\n\
     \x20      campaign metrics-check METRICS.json\n\
     \x20      campaign serve [--addr HOST:PORT] [--addr-file FILE] [--data-dir DIR] \
     [--lease-ms MS] [--poll-ms MS] [--fsync always|never|every:N] [--compact-every N] \
     [--crash-after EVENT[:N]]\n\
     \x20      campaign worker --connect HOST:PORT [--addr-file FILE] [--name NAME] [--workers N] \
     [--poll-ms MS] [--idle-exit N] [--once] [--llm-batch N] [--llm-max-wait-ms MS] \
     [--abort-after-rows N]\n\
     \x20      campaign submit --connect HOST:PORT [--size N] [--seed HEX] [--methods A,B,..] \
     [--shards N] [--lease-ms MS]\n\
     \x20      campaign status --connect HOST:PORT RUN [--wait] [--rows-out FILE]\n\
     \x20      campaign metrics --connect HOST:PORT [--out FILE]\n\
     \x20      campaign shutdown --connect HOST:PORT | campaign ping --connect HOST:PORT\n\
     methods: UVLLM, UVLLM(comp), MEIC, GPT-4-turbo, Strider, RTLrepair";

/// Flags shared by the run and merge forms.
fn parse_common(
    flag: &str,
    config: &mut CampaignConfig,
    out: &mut String,
    mut value: impl FnMut(&str) -> Result<String, String>,
) -> Result<bool, String> {
    match flag {
        "--size" => {
            config.dataset_size =
                value("--size")?.parse().map_err(|_| "--size must be a number".to_string())?;
        }
        "--seed" => {
            let text = value("--seed")?;
            let text = text.trim_start_matches("0x");
            config.dataset_seed = u64::from_str_radix(text, 16)
                .or_else(|_| text.parse())
                .map_err(|_| "--seed must be a (hex) number".to_string())?;
        }
        "--methods" => {
            config.methods = value("--methods")?
                .split(',')
                .map(|label| {
                    MethodKind::from_label(label.trim())
                        .ok_or_else(|| format!("unknown method '{label}'"))
                })
                .collect::<Result<Vec<_>, _>>()?;
        }
        "--out" => *out = value("--out")?,
        "--help" | "-h" => {
            println!("{USAGE}");
            std::process::exit(0);
        }
        _ => return Ok(false),
    }
    Ok(true)
}

fn parse_args() -> Result<Args, String> {
    let mut config = CampaignConfig::default();
    let mut out = "campaign.jsonl".to_string();
    let mut max_wait: Option<Duration> = None;
    let mut fault = FaultPlan::default();
    let mut fault_on = false;
    // Campaign-shaped resilience defaults: validate completions (a
    // malformed completion must be retried, not parsed downstream) and
    // keep backoffs small — the faults are injected, not a remote
    // endpoint that needs multi-second politeness.
    let mut resilience = ResiliencePolicy {
        validate: true,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(8),
        ..ResiliencePolicy::default()
    };
    let mut resilience_on = false;
    let rate = |name: &str, text: String| -> Result<f64, String> {
        text.parse::<f64>()
            .ok()
            .filter(|r| (0.0..=1.0).contains(r))
            .ok_or_else(|| format!("{name} must be a rate in 0..=1"))
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        if parse_common(&flag, &mut config, &mut out, &mut value)? {
            continue;
        }
        match flag.as_str() {
            "--workers" => {
                config.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "--workers must be a number".to_string())?;
            }
            "--shard" => config.shard = ShardSpec::parse(&value("--shard")?)?,
            "--llm-batch" => {
                let max_batch: usize = value("--llm-batch")?
                    .parse()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or_else(|| "--llm-batch must be a positive number".to_string())?;
                config.llm_batch = Some(BatchConfig { max_batch, ..BatchConfig::default() });
            }
            "--llm-max-wait-ms" => {
                let ms: u64 = value("--llm-max-wait-ms")?
                    .parse()
                    .map_err(|_| "--llm-max-wait-ms must be a number".to_string())?;
                max_wait = Some(Duration::from_millis(ms));
            }
            "--llm-latency-ms" => {
                let ms: u64 = value("--llm-latency-ms")?
                    .parse()
                    .map_err(|_| "--llm-latency-ms must be a number".to_string())?;
                config.llm_latency = Some(Duration::from_millis(ms));
            }
            "--fault-seed" => {
                let text = value("--fault-seed")?;
                let text = text.trim_start_matches("0x");
                fault.seed = u64::from_str_radix(text, 16)
                    .or_else(|_| text.parse())
                    .map_err(|_| "--fault-seed must be a (hex) number".to_string())?;
                fault_on = true;
            }
            "--fault-error-rate" => {
                fault.error_rate = rate("--fault-error-rate", value("--fault-error-rate")?)?;
                fault_on = true;
            }
            "--fault-malform-rate" => {
                fault.malform_rate = rate("--fault-malform-rate", value("--fault-malform-rate")?)?;
                fault_on = true;
            }
            "--fault-latency-ms" => {
                let ms: u64 = value("--fault-latency-ms")?
                    .parse()
                    .map_err(|_| "--fault-latency-ms must be a number".to_string())?;
                fault.latency = Duration::from_millis(ms);
                if fault.latency_rate == 0.0 {
                    fault.latency_rate = 1.0;
                }
                fault_on = true;
            }
            "--llm-retries" => {
                resilience.retries = value("--llm-retries")?
                    .parse()
                    .map_err(|_| "--llm-retries must be a number".to_string())?;
                resilience_on = true;
            }
            "--llm-timeout-ms" => {
                let ms: u64 = value("--llm-timeout-ms")?
                    .parse()
                    .map_err(|_| "--llm-timeout-ms must be a number".to_string())?;
                resilience.ticket_deadline = Some(Duration::from_millis(ms));
                resilience_on = true;
            }
            "--llm-breaker-threshold" => {
                resilience.breaker_threshold = value("--llm-breaker-threshold")?
                    .parse()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or_else(|| "--llm-breaker-threshold must be positive".to_string())?;
                resilience_on = true;
            }
            "--job-deadline-ms" => {
                let ms: u64 = value("--job-deadline-ms")?
                    .parse()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or_else(|| "--job-deadline-ms must be a positive number".to_string())?;
                config.pool.job_deadline = Some(Duration::from_millis(ms));
            }
            "--inject-panic" => config.pool.inject_panic = Some(value("--inject-panic")?),
            "--inject-stall" => {
                let text = value("--inject-stall")?;
                let (pattern, ms) = text
                    .rsplit_once(':')
                    .ok_or_else(|| "--inject-stall wants PATTERN:MS".to_string())?;
                let ms: u64 =
                    ms.parse().map_err(|_| "--inject-stall wants PATTERN:MS".to_string())?;
                config.pool.inject_stall = Some((pattern.to_string(), Duration::from_millis(ms)));
            }
            "--llm-telemetry" => config.llm_telemetry = true,
            "--metrics-out" => {
                config.metrics_out = Some(std::path::PathBuf::from(value("--metrics-out")?));
            }
            "--metrics-flush-jobs" => {
                config.metrics_flush_jobs =
                    value("--metrics-flush-jobs")?.parse().map_err(|_| {
                        "--metrics-flush-jobs must be a number (0 disables)".to_string()
                    })?;
            }
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    match (max_wait, &mut config.llm_batch) {
        (None, _) => {}
        // Tuning the flush window only makes sense on the batched
        // service; applying it alone must not silently enable batching.
        (Some(_), None) => return Err("--llm-max-wait-ms needs --llm-batch".to_string()),
        (Some(wait), Some(batch)) => batch.max_wait = wait,
    }
    if fault_on {
        config.fault = Some(fault);
        // Injected faults without retries would wreck every row; the
        // point of the fault plan is to exercise the resilience layer.
        resilience_on = true;
    }
    if resilience_on {
        config.resilience = Some(resilience);
    }
    // Invalid UVLLM_WORKERS (workers == 0 defers to the environment)
    // surfaces as an Err from Campaign::new, already a clean CLI error.
    Ok(Args { config, out })
}

fn run_campaign() -> Result<(), String> {
    let Args { config, out } = parse_args()?;
    let campaign = Campaign::new(config).map_err(|m| format!("invalid campaign: {m}"))?;
    let config = campaign.config();
    let llm_mode = match &config.llm_batch {
        Some(batch) => {
            format!("batched llm (max_batch {}, max_wait {:?})", batch.max_batch, batch.max_wait)
        }
        None => "per-job llm".to_string(),
    };
    println!(
        "campaign: {} instances x {} methods, {} workers, shard {}/{}, {llm_mode}, sink {out}",
        config.dataset_size,
        config.methods.len(),
        config.effective_workers(),
        config.shard.index,
        config.shard.count,
    );

    if let Some(fault) = &config.fault {
        println!(
            "fault injection: seed {:#x}, error {:.0}%, malform {:.0}%, truncate {:.0}%, \
             stall {:?} at {:.0}%",
            fault.seed,
            fault.error_rate * 100.0,
            fault.malform_rate * 100.0,
            fault.truncate_rate * 100.0,
            fault.latency,
            fault.latency_rate * 100.0,
        );
    }
    if let Some(policy) = &config.resilience {
        println!(
            "resilience policy: {} retries, backoff {:?}..{:?}, breaker threshold {}, deadline {:?}",
            policy.retries,
            policy.base_backoff,
            policy.max_backoff,
            policy.breaker_threshold,
            policy.ticket_deadline,
        );
    }
    let mut sink = JsonlSink::open(&out).map_err(|e| format!("cannot open sink {out}: {e}"))?;
    if sink.resumed() > 0 {
        println!("resuming: {} completed rows found in {out}", sink.resumed());
    }
    let started = std::time::Instant::now();
    let outcome = campaign.run(&mut sink).map_err(|e| format!("campaign failed: {e}"))?;
    println!(
        "done in {:.1?}: {} jobs total, {} evaluated now, {} resumed, {} other shards",
        started.elapsed(),
        outcome.total_jobs,
        outcome.new_records.len(),
        outcome.resumed,
        outcome.sharded_out,
    );
    println!(
        "elaboration cache: {} golden designs pre-warmed; {} hits / {} misses ({} entries)",
        outcome.golden_designs,
        outcome.elab_stats.hits,
        outcome.elab_stats.misses,
        outcome.elab_stats.entries,
    );
    let tickets = outcome.metrics.counter("llm.tickets").unwrap_or(0);
    let flushes = outcome.metrics.counter("llm.flushes").unwrap_or(0);
    let prompts = outcome.metrics.counter("llm.flushed_prompts").unwrap_or(0);
    let mean_batch = if flushes > 0 { prompts as f64 / flushes as f64 } else { 0.0 };
    println!(
        "llm service: {tickets} tickets across {flushes} flushes (mean batch {mean_batch:.2})",
    );
    if config.resilience.is_some() || config.pool.job_deadline.is_some() {
        println!(
            "resilience: {} retries, {} breaker transitions, {} degraded; \
             pool: {} panics ({} requeued), {} timeouts, {} quarantined rows",
            outcome.metrics.counter("llm.retries").unwrap_or(0),
            outcome.metrics.counter("llm.breaker_transitions").unwrap_or(0),
            outcome.metrics.counter("llm.degraded").unwrap_or(0),
            outcome.pool_stats.panicked,
            outcome.pool_stats.requeued,
            outcome.pool_stats.timed_out,
            outcome.pool_stats.quarantined_panics + outcome.pool_stats.quarantined_timeouts,
        );
    }
    if let Some(path) = &config.metrics_out {
        println!("metrics snapshot written to {}", path.display());
    }
    println!("{}", outcome.report.render());
    Ok(())
}

/// Validates a `--metrics-out` snapshot file against the
/// `uvllm-metrics/v1` schema (the CI gate for metrics artifacts).
fn run_metrics_check(paths: Vec<String>) -> Result<(), String> {
    if paths.is_empty() {
        return Err("metrics-check needs a metrics JSON file".to_string());
    }
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        uvllm_obs::validate_snapshot_json(&text).map_err(|e| format!("{path}: {e}"))?;
        println!("{path}: valid {} snapshot", uvllm_obs::SNAPSHOT_SCHEMA);
    }
    Ok(())
}

fn run_merge(args: Vec<String>) -> Result<(), String> {
    let mut config = CampaignConfig::default();
    let mut out = String::new();
    let mut shard_paths: Vec<String> = Vec::new();
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        if parse_common(&flag, &mut config, &mut out, &mut value)? {
            continue;
        }
        if flag.starts_with('-') {
            return Err(format!("unknown merge flag '{flag}' (try --help)"));
        }
        shard_paths.push(flag);
    }
    if shard_paths.is_empty() {
        return Err("merge needs at least one shard file".to_string());
    }
    let shards: Vec<(String, Vec<_>)> = shard_paths
        .iter()
        .map(|path| read_shard(path).map(|rows| (path.clone(), rows)))
        .collect::<Result<_, _>>()?;
    let expected = expected_job_ids(config.dataset_size, config.dataset_seed, &config.methods);
    let merged = merge_rows(&shards, &expected)?;
    println!(
        "merged {} shards: {} rows, full coverage of {} (instance, method) pairs",
        merged.shards,
        merged.rows.len(),
        expected.len(),
    );
    if !out.is_empty() {
        let text: String =
            merged.rows.iter().map(|row| format!("{}\n", row.to_json_line())).collect();
        std::fs::write(&out, text).map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("wrote {out}");
    }
    println!("{}", CampaignReport::new(merged.rows).render());
    Ok(())
}

/// SIGINT flag for `campaign serve`: the handler only sets this; the
/// foreground loop notices it and runs the graceful shutdown.
static SIGINT: AtomicBool = AtomicBool::new(false);

/// Installs a SIGINT handler through libc's `signal(2)` directly — the
/// build is dependency-free, and std already links libc on unix.
#[cfg(unix)]
fn install_sigint() {
    extern "C" fn on_sigint(_signum: i32) {
        SIGINT.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT_NUM: i32 = 2;
    unsafe {
        signal(SIGINT_NUM, on_sigint as extern "C" fn(i32) as usize);
    }
}

#[cfg(not(unix))]
fn install_sigint() {}

fn parse_ms(name: &str, text: &str) -> Result<u64, String> {
    text.parse().ok().filter(|n| *n > 0).ok_or_else(|| format!("{name} must be a positive number"))
}

/// `campaign serve`: run the resident service in the foreground until
/// `POST /shutdown` or SIGINT drains it.
fn run_serve(args: Vec<String>) -> Result<(), String> {
    let mut config = ServeConfig::default();
    let mut addr_file: Option<std::path::PathBuf> = None;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--addr-file" => addr_file = Some(value("--addr-file")?.into()),
            "--data-dir" => config.data_dir = value("--data-dir")?.into(),
            "--lease-ms" => {
                config.default_lease =
                    Duration::from_millis(parse_ms("--lease-ms", &value("--lease-ms")?)?);
            }
            "--poll-ms" => {
                config.poll = Duration::from_millis(parse_ms("--poll-ms", &value("--poll-ms")?)?);
            }
            "--fsync" => config.journal.fsync = FsyncPolicy::parse(&value("--fsync")?)?,
            "--compact-every" => {
                config.journal.compact_every = value("--compact-every")?
                    .parse()
                    .map_err(|_| "--compact-every must be a number".to_string())?;
            }
            "--crash-after" => {
                config.journal.crash_after = Some(CrashSpec::parse(&value("--crash-after")?)?);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(());
            }
            other => return Err(format!("unknown serve flag '{other}' (try --help)")),
        }
    }
    install_sigint();
    let data_dir = config.data_dir.clone();
    let lease = config.default_lease;
    let server = Server::start(config).map_err(|e| format!("cannot start server: {e}"))?;
    let report = server.recovery();
    if report.recovered_state() {
        println!("{}", report.render());
        for diag in &report.diags {
            eprintln!("recovery diag: {diag}");
        }
    }
    if let Some(path) = &addr_file {
        // Temp-and-rename so a worker mid-read never sees a torn file.
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, format!("{}\n", server.addr()))
            .and_then(|()| std::fs::rename(&tmp, path))
            .map_err(|e| format!("cannot publish address to {}: {e}", path.display()))?;
    }
    println!("serving on {}", server.addr());
    println!(
        "data dir {}; default lease {:?}; POST /shutdown or SIGINT to drain",
        data_dir.display(),
        lease,
    );
    while !SIGINT.load(Ordering::SeqCst) && !server.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(100));
    }
    if SIGINT.load(Ordering::SeqCst) {
        println!("SIGINT: draining in-flight leases and flushing the final metrics snapshot");
    }
    // Idempotent: if POST /shutdown started the sequence this just
    // waits for it; final metrics land in <data_dir>/metrics.json.
    server.shutdown();
    println!("shutdown complete; final metrics in {}", data_dir.join("metrics.json").display());
    Ok(())
}

/// `campaign worker --connect`: evaluate leased shards until the server
/// drains (or the idle budget runs out).
fn run_remote_worker(args: Vec<String>) -> Result<(), String> {
    let mut options = WorkerOptions::new(String::new());
    let mut max_wait: Option<Duration> = None;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--connect" => options.server = value("--connect")?,
            // Survive server restarts: re-read the published address on
            // transport errors (also serves as the initial address when
            // --connect is omitted).
            "--addr-file" => options.addr_file = Some(value("--addr-file")?.into()),
            "--name" => options.name = value("--name")?,
            "--workers" => {
                options.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "--workers must be a number".to_string())?;
            }
            "--poll-ms" => {
                options.poll = Duration::from_millis(parse_ms("--poll-ms", &value("--poll-ms")?)?);
            }
            "--idle-exit" => {
                options.max_idle = Some(parse_ms("--idle-exit", &value("--idle-exit")?)?);
            }
            "--once" => options.once = true,
            "--llm-batch" => {
                let max_batch = parse_ms("--llm-batch", &value("--llm-batch")?)? as usize;
                options.llm_batch = Some(BatchConfig { max_batch, ..BatchConfig::default() });
            }
            "--llm-max-wait-ms" => {
                max_wait = Some(Duration::from_millis(parse_ms(
                    "--llm-max-wait-ms",
                    &value("--llm-max-wait-ms")?,
                )?));
            }
            // Deterministic fault injection for the steal drills: die
            // (stop appending, never complete) after N rows.
            "--abort-after-rows" => {
                options.abort_after_rows = Some(
                    value("--abort-after-rows")?
                        .parse()
                        .map_err(|_| "--abort-after-rows must be a number".to_string())?,
                );
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(());
            }
            other => return Err(format!("unknown worker flag '{other}' (try --help)")),
        }
    }
    match (&options.server.is_empty(), &options.addr_file) {
        (false, _) => {}
        (true, Some(file)) => {
            options.server = std::fs::read_to_string(file)
                .map_err(|e| format!("cannot read --addr-file {}: {e}", file.display()))?
                .trim()
                .to_string();
        }
        (true, None) => return Err("worker needs --connect HOST:PORT or --addr-file".to_string()),
    }
    match (max_wait, &mut options.llm_batch) {
        (None, _) => {}
        (Some(_), None) => return Err("--llm-max-wait-ms needs --llm-batch".to_string()),
        (Some(wait), Some(batch)) => batch.max_wait = wait,
    }
    let summary = run_worker(&options)?;
    println!(
        "worker {}: {} lease(s) ({} stolen), {} completed, {} aborted, {} lost, {} reconnect(s)",
        options.name,
        summary.leases,
        summary.stolen,
        summary.completed,
        summary.aborted,
        summary.lost,
        summary.reconnects,
    );
    Ok(())
}

/// `campaign submit --connect`: register a run; prints the bare run id
/// on stdout (everything else goes to stderr) so scripts can capture it
/// with `RUN=$(campaign submit ...)`.
fn run_submit(args: Vec<String>) -> Result<(), String> {
    let mut server = String::new();
    let mut config = CampaignConfig::default();
    let mut shards = 1usize;
    let mut lease_ms: Option<u64> = None;
    let mut out = String::new();
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        if parse_common(&flag, &mut config, &mut out, &mut value)? {
            continue;
        }
        match flag.as_str() {
            "--connect" => server = value("--connect")?,
            "--shards" => shards = parse_ms("--shards", &value("--shards")?)? as usize,
            "--lease-ms" => lease_ms = Some(parse_ms("--lease-ms", &value("--lease-ms")?)?),
            other => return Err(format!("unknown submit flag '{other}' (try --help)")),
        }
    }
    if server.is_empty() {
        return Err("submit needs --connect HOST:PORT".to_string());
    }
    let mut body = vec![
        ("size".to_string(), Json::Num(config.dataset_size as f64)),
        ("seed".to_string(), s(format!("0x{:X}", config.dataset_seed))),
        ("methods".to_string(), Json::Arr(config.methods.iter().map(|m| s(m.label())).collect())),
        ("shards".to_string(), Json::Num(shards as f64)),
    ];
    if let Some(ms) = lease_ms {
        body.push(("lease_ms".to_string(), Json::Num(ms as f64)));
    }
    let (status, json) = post_json(&server, "/jobs", &Json::Obj(body))?;
    if status != 200 {
        return Err(format!("POST /jobs failed with status {status}: {}", json.render()));
    }
    let run =
        json.get("run").and_then(Json::as_str).ok_or("POST /jobs answered without a run id")?;
    eprintln!(
        "submitted {run}: {} instances x {} methods, {shards} shard(s)",
        config.dataset_size,
        config.methods.len(),
    );
    println!("{run}");
    Ok(())
}

/// `campaign status --connect RUN`: one status snapshot, or `--wait`
/// until the run completes; `--rows-out` saves the canonical rows.
fn run_status(args: Vec<String>) -> Result<(), String> {
    let mut server = String::new();
    let mut run: Option<String> = None;
    let mut wait = false;
    let mut rows_out: Option<String> = None;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--connect" => server = value("--connect")?,
            "--wait" => wait = true,
            "--rows-out" => rows_out = Some(value("--rows-out")?),
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(());
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown status flag '{other}' (try --help)"));
            }
            _ => run = Some(flag),
        }
    }
    if server.is_empty() {
        return Err("status needs --connect HOST:PORT".to_string());
    }
    let run = run.ok_or("status needs a RUN id (from submit)")?;
    let json = loop {
        let (status, body) = http::request(&server, "GET", &format!("/runs/{run}"), "")?;
        if status != 200 {
            return Err(format!("GET /runs/{run} failed with status {status}: {body}"));
        }
        let json = Json::parse(&body).map_err(|e| format!("bad status JSON: {e}"))?;
        let rows = json.get("rows").and_then(Json::as_u64).unwrap_or(0);
        let expected = json.get("expected").and_then(Json::as_u64).unwrap_or(0);
        let done = json.get("done").and_then(Json::as_bool).unwrap_or(false);
        if done || !wait {
            break json;
        }
        eprintln!("{run}: {rows}/{expected} rows, waiting …");
        std::thread::sleep(Duration::from_millis(500));
    };
    println!(
        "{run}: done={} rows={}/{}",
        json.get("done").and_then(Json::as_bool).unwrap_or(false),
        json.get("rows").and_then(Json::as_u64).unwrap_or(0),
        json.get("expected").and_then(Json::as_u64).unwrap_or(0),
    );
    for shard in json.get("shards").and_then(Json::as_array).unwrap_or(&[]) {
        println!(
            "  shard {}: {} (worker {}, {} steal(s))",
            shard.get("shard").and_then(Json::as_u64).unwrap_or(0),
            shard.get("state").and_then(Json::as_str).unwrap_or("?"),
            shard.get("worker").and_then(Json::as_str).unwrap_or("-"),
            shard.get("steals").and_then(Json::as_u64).unwrap_or(0),
        );
    }
    for diag in json.get("diags").and_then(Json::as_array).unwrap_or(&[]) {
        println!("  diag: {}", diag.as_str().unwrap_or("?"));
    }
    // Save rows before the (chatty) report print: the file must land
    // even when stdout is a closed pipe.
    if let Some(path) = rows_out {
        let (status, body) = http::request(&server, "GET", &format!("/runs/{run}/rows"), "")?;
        if status != 200 {
            return Err(format!("GET /runs/{run}/rows failed with status {status}"));
        }
        std::fs::write(&path, &body).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {} row(s) to {path}", body.lines().count());
    }
    if let Some(report) = json.get("report").and_then(Json::as_str) {
        println!("{report}");
    }
    Ok(())
}

/// `campaign metrics --connect`: fetch `GET /metrics`, validate it
/// against `uvllm-metrics/v1`, print or save it.
fn run_remote_metrics(args: Vec<String>) -> Result<(), String> {
    let mut server = String::new();
    let mut out: Option<String> = None;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--connect" => server = value("--connect")?,
            "--out" => out = Some(value("--out")?),
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(());
            }
            other => return Err(format!("unknown metrics flag '{other}' (try --help)")),
        }
    }
    if server.is_empty() {
        return Err("metrics needs --connect HOST:PORT".to_string());
    }
    let (status, body) = http::request(&server, "GET", "/metrics", "")?;
    if status != 200 {
        return Err(format!("GET /metrics failed with status {status}"));
    }
    uvllm_obs::validate_snapshot_json(&body).map_err(|e| format!("GET /metrics: {e}"))?;
    match out {
        Some(path) => {
            std::fs::write(&path, &body).map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("{path}: valid {} snapshot", uvllm_obs::SNAPSHOT_SCHEMA);
        }
        None => println!("{body}"),
    }
    Ok(())
}

/// `campaign shutdown --connect` / `campaign ping --connect`.
fn run_remote_simple(verb: &str, args: Vec<String>) -> Result<(), String> {
    let mut server = String::new();
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--connect" => server = value("--connect")?,
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(());
            }
            other => return Err(format!("unknown {verb} flag '{other}' (try --help)")),
        }
    }
    if server.is_empty() {
        return Err(format!("{verb} needs --connect HOST:PORT"));
    }
    let (method, path) = match verb {
        "shutdown" => ("POST", "/shutdown"),
        _ => ("GET", "/healthz"),
    };
    let (status, body) = http::request(&server, method, path, "")?;
    if status != 200 {
        return Err(format!("{method} {path} failed with status {status}: {body}"));
    }
    match verb {
        "shutdown" => println!("{server}: draining"),
        _ => println!("{server}: ok"),
    }
    Ok(())
}

fn main() -> ExitCode {
    let rest = || std::env::args().skip(2).collect::<Vec<String>>();
    let result = match std::env::args().nth(1).as_deref() {
        Some("merge") => run_merge(rest()),
        Some("metrics-check") => run_metrics_check(rest()),
        Some("serve") => run_serve(rest()),
        Some("worker") => run_remote_worker(rest()),
        Some("submit") => run_submit(rest()),
        Some("status") => run_status(rest()),
        Some("metrics") => run_remote_metrics(rest()),
        Some(verb @ ("shutdown" | "ping")) => run_remote_simple(verb, rest()),
        _ => run_campaign(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
