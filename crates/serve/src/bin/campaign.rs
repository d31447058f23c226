//! Full-dataset verification campaign across all repair methods, on a
//! sharded multi-worker engine with a resumable JSONL sink and an
//! optional shared batched LLM service.
//!
//! ```text
//! cargo run --release --bin campaign -- --workers 8 --shard 0/4 --out shard0.jsonl
//! cargo run --release --bin campaign -- merge shard0.jsonl shard1.jsonl --out merged.jsonl
//! cargo run --release --bin campaign -- serve --addr-file serve.addr --data-dir serve-data
//! cargo run --release --bin campaign -- worker --addr-file serve.addr --workers 8
//! cargo run --release --bin campaign -- submit --connect 127.0.0.1:8091 --size 60 --shards 4
//! ```
//!
//! `--help` lists every verb and flag.
//!
//! Re-running with the same `--out` resumes: completed jobs are read
//! back from the file and skipped. Output rows are byte-identical
//! (modulo order) for any `--workers` value, with `--llm-batch` on or
//! off — batching changes wall-clock, not rows. No flag makes a row
//! depend on the wall clock.
//!
//! `merge` combines shard files into one report, validating shard
//! disjointness and full job-space coverage (pass the same `--size` /
//! `--seed` / `--methods` the shards ran with).
//!
//! The `serve` family runs the resident campaign service: `serve` keeps
//! campaigns resident and leases their shards over HTTP; `worker
//! --connect` evaluates leased shards; `submit` / `status` / `metrics` /
//! `shutdown` / `ping` are thin clients over the same endpoints. Rows
//! served this way are byte-identical to a plain CLI run of the same
//! configuration — including across worker deaths, stolen leases, and
//! `kill -9` of the server itself: each submitted spec is journaled
//! into `--data-dir`, each shard's rows are synced to its sink before
//! the shard completes, a restart reads both back (see the
//! `--crash-after` chaos knob), and workers given `--addr-file` re-find
//! the restarted server on their own.

use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use uvllm_campaign::{
    expected_job_ids, merge_rows, parse_seed, read_shard, BatchConfig, Campaign, CampaignConfig,
    FaultPlan, JsonlSink, MethodKind, ReportTallies, ResiliencePolicy, ShardSpec,
};
use uvllm_json::{s, Json};
use uvllm_serve::{http, post_json, run_worker, CrashSpec, ServeConfig, Server, WorkerOptions};

/// `println!` that drops a failed write: a verb's stdout is its log, and
/// a reader that goes away (`campaign … | head`) must not fail a run
/// whose rows and files are written either way.
macro_rules! say {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = writeln!(std::io::stdout(), $($arg)*);
    }};
}

const USAGE: &str = "usage: campaign [--workers N] [--shard i/n] [--size N] \
     [--seed HEX] [--methods A,B,..] [--llm-batch N] \
     [--metrics-out FILE] [--metrics-flush-jobs N] [--out FILE]\n\
     \x20      campaign [--fault-seed HEX] [--fault-error-rate F] [--fault-malform-rate F] \
     [--fault-latency-ms MS]\n\
     \x20      campaign [--llm-retries N] [--llm-breaker-threshold N] [--inject-panic PAT]\n\
     \x20      campaign merge [--size N] [--seed HEX] [--methods A,B,..] \
     [--out FILE] SHARD.jsonl..\n\
     \x20      campaign metrics-check METRICS.json\n\
     \x20      campaign serve [--addr HOST:PORT] [--addr-file FILE] [--data-dir DIR] \
     [--lease-ms MS] [--crash-after EVENT[:N]]\n\
     \x20      campaign worker --connect HOST:PORT [--addr-file FILE] [--name NAME] [--workers N] \
     [--idle-exit N] [--once] [--abort-after-rows N]\n\
     \x20      campaign submit --connect HOST:PORT [--size N] [--seed HEX] [--methods A,B,..] \
     [--shards N] [--lease-ms MS]\n\
     \x20      campaign status --connect HOST:PORT RUN [--wait] [--rows-out FILE]\n\
     \x20      campaign metrics --connect HOST:PORT [--out FILE]\n\
     \x20      campaign shutdown --connect HOST:PORT | campaign ping --connect HOST:PORT\n\
     methods: UVLLM, UVLLM(comp), MEIC, GPT-4-turbo, Strider, RTLrepair";

/// One verb's arguments, read front to back. Each reader takes the
/// value after a flag, and its error names the flag.
struct Flags {
    verb: &'static str,
    args: std::vec::IntoIter<String>,
}

/// A verb's own flags: `Ok(true)` when it took `flag` (and its value).
type Own<'a> = dyn FnMut(&mut Flags, &str) -> Result<bool, String> + 'a;

impl Flags {
    fn new(verb: &'static str, args: Vec<String>) -> Flags {
        Flags { verb, args: args.into_iter() }
    }

    /// Reads every argument: `own` takes the flags it knows, `--help`
    /// prints the usage and exits, and the remaining arguments are
    /// positional — returned in order where the verb takes them
    /// (`positional`), an unknown flag otherwise.
    fn each(mut self, positional: bool, own: &mut Own) -> Result<Vec<String>, String> {
        let mut rest = Vec::new();
        while let Some(arg) = self.args.next() {
            if arg == "--help" || arg == "-h" {
                say!("{USAGE}");
                std::process::exit(0);
            }
            if own(&mut self, &arg)? {
                continue;
            }
            if !positional || arg.starts_with('-') {
                return Err(format!("unknown {} flag '{arg}' (try --help)", self.verb));
            }
            rest.push(arg);
        }
        Ok(rest)
    }

    /// [`Flags::each`] for a client verb: `--connect HOST:PORT` is read
    /// here, and the verb fails without it.
    fn client(self, positional: bool, own: &mut Own) -> Result<(String, Vec<String>), String> {
        let verb = self.verb;
        let mut server = None;
        let rest = self.each(positional, &mut |f, flag| {
            if flag != "--connect" {
                return own(f, flag);
            }
            server = Some(f.value(flag)?);
            Ok(true)
        })?;
        let server = server.ok_or_else(|| format!("{verb} needs --connect HOST:PORT"))?;
        Ok((server, rest))
    }

    /// The value after `flag`, parsed as whatever the caller stores.
    fn value<T: FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let text = self.args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        text.parse().map_err(|_| format!("{flag}: bad value '{text}'"))
    }

    /// The value through `parse`, whose error is prefixed with the flag.
    fn parse<T>(&mut self, flag: &str, parse: fn(&str) -> Result<T, String>) -> Result<T, String> {
        parse(&self.value::<String>(flag)?).map_err(|e| format!("{flag}: {e}"))
    }

    fn positive<T: FromStr + Default + PartialOrd>(&mut self, flag: &str) -> Result<T, String> {
        let text: String = self.value(flag)?;
        let n = text.parse().ok().filter(|n| *n > T::default());
        n.ok_or_else(|| format!("{flag} must be a positive number, got '{text}'"))
    }

    fn rate(&mut self, flag: &str) -> Result<f64, String> {
        let text: String = self.value(flag)?;
        let rate = text.parse().ok().filter(|r| (0.0..=1.0).contains(r));
        rate.ok_or_else(|| format!("{flag} must be a rate in 0..=1, got '{text}'"))
    }

    /// `--size`, `--seed`, `--methods` and `--out`: how the run, merge
    /// and submit verbs name a campaign and where its rows go.
    fn campaign(
        &mut self,
        flag: &str,
        config: &mut CampaignConfig,
        out: &mut String,
    ) -> Result<bool, String> {
        match flag {
            "--size" => config.dataset_size = self.value(flag)?,
            "--seed" => config.dataset_seed = self.parse(flag, parse_seed)?,
            "--methods" => config.methods = self.parse(flag, parse_methods)?,
            "--out" => *out = self.value(flag)?,
            _ => return Ok(false),
        }
        Ok(true)
    }
}

fn parse_methods(text: &str) -> Result<Vec<MethodKind>, String> {
    text.split(',')
        .map(|label| {
            MethodKind::from_label(label.trim()).ok_or_else(|| format!("unknown method '{label}'"))
        })
        .collect()
}

/// The run verb's flags: the campaign configuration and the sink path.
fn parse_run(args: Vec<String>) -> Result<(CampaignConfig, String), String> {
    let mut config = CampaignConfig::default();
    let mut out = "campaign.jsonl".to_string();
    Flags::new("campaign", args).each(false, &mut |f, flag| {
        match flag {
            "--workers" => config.workers = f.value(flag)?,
            "--shard" => config.shard = f.parse(flag, ShardSpec::parse)?,
            "--llm-batch" => {
                let max_batch = f.positive(flag)?;
                config.llm_batch = Some(BatchConfig { max_batch, ..BatchConfig::default() });
            }
            "--fault-seed" => fault(&mut config).seed = f.parse(flag, parse_seed)?,
            "--fault-error-rate" => fault(&mut config).error_rate = f.rate(flag)?,
            "--fault-malform-rate" => fault(&mut config).malform_rate = f.rate(flag)?,
            "--fault-latency-ms" => {
                fault(&mut config).latency = Duration::from_millis(f.value(flag)?);
            }
            "--llm-retries" => resilience(&mut config).retries = f.value(flag)?,
            "--llm-breaker-threshold" => {
                resilience(&mut config).breaker_threshold = f.positive(flag)?;
            }
            "--inject-panic" => config.inject_panic = Some(f.value(flag)?),
            "--metrics-out" => config.metrics_out = Some(f.value(flag)?),
            "--metrics-flush-jobs" => config.metrics_flush_jobs = f.value(flag)?,
            _ => return f.campaign(flag, &mut config, &mut out),
        }
        Ok(true)
    })?;
    if config.fault.is_some() {
        // Injected faults without retries would wreck every row; the
        // point of the fault plan is to exercise the resilience layer.
        resilience(&mut config);
    }
    Ok((config, out))
}

fn fault(config: &mut CampaignConfig) -> &mut FaultPlan {
    config.fault.get_or_insert_with(FaultPlan::default)
}

/// The run's resilience policy, first set to the campaign-shaped
/// defaults: validate completions (a malformed completion must be
/// retried, not parsed downstream) and keep backoffs small — the faults
/// are injected, not a remote endpoint that needs multi-second
/// politeness.
fn resilience(config: &mut CampaignConfig) -> &mut ResiliencePolicy {
    config.resilience.get_or_insert_with(|| ResiliencePolicy {
        validate: true,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(8),
        ..ResiliencePolicy::default()
    })
}

fn run_campaign(args: Vec<String>) -> Result<(), String> {
    let (config, out) = parse_run(args)?;
    let campaign = Campaign::new(config).map_err(|m| format!("invalid campaign: {m}"))?;
    let config = campaign.config();
    let llm_mode = config.llm_batch.as_ref().map_or("per-job llm".to_string(), |batch| {
        format!("batched llm (max_batch {}, max_wait {:?})", batch.max_batch, batch.max_wait)
    });
    say!(
        "campaign: {} instances x {} methods, {} workers, shard {}/{}, {llm_mode}, sink {out}",
        config.dataset_size,
        config.methods.len(),
        campaign.workers(),
        config.shard.index,
        config.shard.count,
    );

    if let Some(fault) = &config.fault {
        say!(
            "fault injection: seed {:#x}, error {:.0}%, malform {:.0}%, stall {:?}",
            fault.seed,
            fault.error_rate * 100.0,
            fault.malform_rate * 100.0,
            fault.latency,
        );
    }
    if let Some(policy) = &config.resilience {
        say!(
            "resilience policy: {} retries, backoff {:?}..{:?}, breaker threshold {}",
            policy.retries,
            policy.base_backoff,
            policy.max_backoff,
            policy.breaker_threshold,
        );
    }
    let mut sink = JsonlSink::open(&out).map_err(|e| format!("cannot open sink {out}: {e}"))?;
    if sink.resumed() > 0 {
        say!("resuming: {} completed rows found in {out}", sink.resumed());
    }
    let started = std::time::Instant::now();
    let outcome = campaign.run(&mut sink).map_err(|e| format!("campaign failed: {e}"))?;
    say!(
        "done in {:.1?}: {} jobs total, {} evaluated now, {} resumed, {} other shards",
        started.elapsed(),
        outcome.total_jobs,
        outcome.evaluated,
        outcome.resumed,
        outcome.sharded_out,
    );
    let tickets = outcome.metrics.counter("llm.tickets").unwrap_or(0);
    let flushes = outcome.metrics.counter("llm.flushes").unwrap_or(0);
    let prompts = outcome.metrics.counter("llm.flushed_prompts").unwrap_or(0);
    let mean_batch = if flushes > 0 { prompts as f64 / flushes as f64 } else { 0.0 };
    say!("llm service: {tickets} tickets across {flushes} flushes (mean batch {mean_batch:.2})",);
    if config.resilience.is_some() {
        say!(
            "resilience: {} retries, {} breaker transitions, {} degraded",
            outcome.metrics.counter("llm.retries").unwrap_or(0),
            outcome.metrics.counter("llm.breaker_transitions").unwrap_or(0),
            outcome.metrics.counter("llm.degraded").unwrap_or(0),
        );
    }
    if outcome.pool_stats.panicked > 0 {
        say!(
            "pool: {} panics ({} requeued), {} quarantined rows",
            outcome.pool_stats.panicked,
            outcome.pool_stats.requeued,
            outcome.pool_stats.quarantined_panics,
        );
    }
    if let Some(path) = &config.metrics_out {
        say!("metrics snapshot written to {}", path.display());
    }
    say!("{}", outcome.report.render());
    Ok(())
}

/// Validates a `--metrics-out` snapshot file against the
/// `uvllm-metrics/v1` schema (the CI gate for metrics artifacts).
fn run_metrics_check(paths: Vec<String>) -> Result<(), String> {
    if paths.is_empty() {
        return Err("metrics-check needs a metrics JSON file".to_string());
    }
    for path in &paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        uvllm_obs::validate_snapshot_json(&text).map_err(|e| format!("{path}: {e}"))?;
        say!("{path}: valid {} snapshot", uvllm_obs::SNAPSHOT_SCHEMA);
    }
    Ok(())
}

fn run_merge(args: Vec<String>) -> Result<(), String> {
    let mut config = CampaignConfig::default();
    let mut out = String::new();
    let shard_paths = Flags::new("merge", args)
        .each(true, &mut |f, flag| f.campaign(flag, &mut config, &mut out))?;
    if shard_paths.is_empty() {
        return Err("merge needs at least one shard file".to_string());
    }
    let shards: Vec<(String, Vec<_>)> = shard_paths
        .iter()
        .map(|path| read_shard(path).map(|rows| (path.clone(), rows)))
        .collect::<Result<_, _>>()?;
    let expected = expected_job_ids(config.dataset_size, config.dataset_seed, &config.methods);
    let merged = merge_rows(&shards, &expected)?;
    say!(
        "merged {} shards: {} rows, full coverage of {} (instance, method) pairs",
        merged.shards,
        merged.rows.len(),
        expected.len(),
    );
    if !out.is_empty() {
        let text: String =
            merged.rows.iter().map(|row| format!("{}\n", row.to_json_line())).collect();
        std::fs::write(&out, text).map_err(|e| format!("cannot write {out}: {e}"))?;
        say!("wrote {out}");
    }
    say!("{}", merged.rows.iter().collect::<ReportTallies>().render());
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
    // SAFETY: `signal` takes a valid signal number and the address of an
    // `extern "C" fn(i32)`; the handler only stores to an atomic, which
    // is async-signal-safe.
    unsafe {
        signal(SIGINT_NUM, on_sigint as extern "C" fn(i32) as usize);
    }
}

#[cfg(not(unix))]
fn install_sigint() {}

/// `campaign serve`: run the resident service in the foreground until
/// `POST /shutdown` or SIGINT drains it. This is the process the crash
/// tests kill: `--addr-file` publishes the bound address (ephemeral
/// ports welcome) for workers to re-read after a restart, and
/// `--crash-after EVENT[:N]` arms the deterministic abort.
fn run_serve(args: Vec<String>) -> Result<(), String> {
    let mut config = ServeConfig::default();
    let mut addr_file: Option<PathBuf> = None;
    Flags::new("serve", args).each(false, &mut |f, flag| {
        match flag {
            "--addr" => config.addr = f.value(flag)?,
            "--addr-file" => addr_file = Some(f.value(flag)?),
            "--data-dir" => config.data_dir = f.value(flag)?,
            "--lease-ms" => config.default_lease = Duration::from_millis(f.positive(flag)?),
            "--crash-after" => config.crash_after = Some(f.parse(flag, CrashSpec::parse)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    install_sigint();
    let data_dir = config.data_dir.clone();
    let lease = config.default_lease;
    let server = Server::start(config).map_err(|e| format!("cannot start server: {e}"))?;
    let report = server.recovery();
    if report.recovered_state() {
        say!("{}", report.render());
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
    say!("serving on {}", server.addr());
    say!(
        "data dir {}; default lease {:?}; POST /shutdown or SIGINT to drain",
        data_dir.display(),
        lease,
    );
    while !SIGINT.load(Ordering::SeqCst) && !server.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(100));
    }
    if SIGINT.load(Ordering::SeqCst) {
        say!("SIGINT: draining in-flight leases and flushing the final metrics snapshot");
    }
    // Idempotent: if POST /shutdown started the sequence this just
    // waits for it; final metrics land in <data_dir>/metrics.json.
    server.shutdown();
    say!("shutdown complete; final metrics in {}", data_dir.join("metrics.json").display());
    Ok(())
}

/// `campaign worker --connect`: evaluate leased shards until the server
/// drains (or the idle budget runs out).
fn run_remote_worker(args: Vec<String>) -> Result<(), String> {
    let mut options = WorkerOptions::new(String::new());
    Flags::new("worker", args).each(false, &mut |f, flag| {
        match flag {
            "--connect" => options.server = f.value(flag)?,
            // Survive server restarts: re-read the published address on
            // transport errors (also serves as the initial address when
            // --connect is omitted).
            "--addr-file" => options.addr_file = Some(f.value(flag)?),
            "--name" => options.name = f.value(flag)?,
            "--workers" => options.workers = f.value(flag)?,
            "--idle-exit" => options.max_idle = Some(f.positive(flag)?),
            "--once" => options.once = true,
            // Deterministic fault injection for the steal drills: die
            // (stop appending, never complete) after N rows.
            "--abort-after-rows" => options.abort_after_rows = Some(f.value(flag)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    match (options.server.is_empty(), &options.addr_file) {
        (false, _) => {}
        (true, Some(file)) => {
            options.server = std::fs::read_to_string(file)
                .map_err(|e| format!("cannot read --addr-file {}: {e}", file.display()))?
                .trim()
                .to_string();
        }
        (true, None) => return Err("worker needs --connect HOST:PORT or --addr-file".to_string()),
    }
    let summary = run_worker(&options)?;
    say!(
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
    let mut config = CampaignConfig::default();
    let mut shards = 1u64;
    let mut lease_ms: Option<u64> = None;
    let mut out = String::new();
    let (server, _) = Flags::new("submit", args).client(false, &mut |f, flag| {
        match flag {
            "--shards" => shards = f.positive(flag)?,
            "--lease-ms" => lease_ms = Some(f.positive(flag)?),
            _ => return f.campaign(flag, &mut config, &mut out),
        }
        Ok(true)
    })?;
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
    say!("{run}");
    Ok(())
}

/// `campaign status --connect RUN`: one status snapshot, or `--wait`
/// until the run completes; `--rows-out` saves the canonical rows.
fn run_status(args: Vec<String>) -> Result<(), String> {
    let mut wait = false;
    let mut rows_out: Option<String> = None;
    let (server, mut runs) = Flags::new("status", args).client(true, &mut |f, flag| {
        match flag {
            "--wait" => wait = true,
            "--rows-out" => rows_out = Some(f.value(flag)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let run = runs.pop().ok_or("status needs a RUN id (from submit)")?;
    let number = |json: &Json, key| json.get(key).and_then(Json::as_u64).unwrap_or(0);
    let progress = |json: &Json| format!("{}/{}", number(json, "rows"), number(json, "expected"));
    let (json, done) = loop {
        let body = call(&server, "GET", &format!("/runs/{run}"))?;
        let json = Json::parse(&body).map_err(|e| format!("bad status JSON: {e}"))?;
        let done = json.get("done").and_then(Json::as_bool).unwrap_or(false);
        if done || !wait {
            break (json, done);
        }
        eprintln!("{run}: {} rows, waiting …", progress(&json));
        std::thread::sleep(Duration::from_millis(500));
    };
    say!("{run}: done={done} rows={}", progress(&json));
    for shard in json.get("shards").and_then(Json::as_array).unwrap_or(&[]) {
        say!(
            "  shard {}: {} (worker {}, {} steal(s))",
            number(shard, "shard"),
            shard.get("state").and_then(Json::as_str).unwrap_or("?"),
            shard.get("worker").and_then(Json::as_str).unwrap_or("-"),
            number(shard, "steals"),
        );
    }
    for diag in json.get("diags").and_then(Json::as_array).unwrap_or(&[]) {
        say!("  diag: {}", diag.as_str().unwrap_or("?"));
    }
    // Save rows before the (chatty) report print: the file must land
    // even when stdout is a closed pipe.
    if let Some(path) = rows_out {
        let body = call(&server, "GET", &format!("/runs/{run}/rows"))?;
        std::fs::write(&path, &body).map_err(|e| format!("cannot write {path}: {e}"))?;
        say!("wrote {} row(s) to {path}", body.lines().count());
    }
    // The server renders the report only once every row is in.
    if let Some(report) = json.get("report").and_then(Json::as_str).filter(|r| !r.is_empty()) {
        say!("{report}");
    }
    Ok(())
}

/// `campaign metrics --connect`: fetch `GET /metrics`, validate it
/// against `uvllm-metrics/v1`, print or save it.
fn run_remote_metrics(args: Vec<String>) -> Result<(), String> {
    let mut out: Option<String> = None;
    let (server, _) = Flags::new("metrics", args).client(false, &mut |f, flag| {
        if flag != "--out" {
            return Ok(false);
        }
        out = Some(f.value(flag)?);
        Ok(true)
    })?;
    let body = call(&server, "GET", "/metrics")?;
    uvllm_obs::validate_snapshot_json(&body).map_err(|e| format!("GET /metrics: {e}"))?;
    match out {
        Some(path) => {
            std::fs::write(&path, &body).map_err(|e| format!("cannot write {path}: {e}"))?;
            say!("{path}: valid {} snapshot", uvllm_obs::SNAPSHOT_SCHEMA);
        }
        None => say!("{body}"),
    }
    Ok(())
}

/// `campaign shutdown --connect` / `campaign ping --connect`.
fn run_remote_simple(verb: &'static str, args: Vec<String>) -> Result<(), String> {
    let (server, _) = Flags::new(verb, args).client(false, &mut |_, _| Ok(false))?;
    let (method, path, said) = match verb {
        "shutdown" => ("POST", "/shutdown", "draining"),
        _ => ("GET", "/healthz", "ok"),
    };
    call(&server, method, path)?;
    say!("{server}: {said}");
    Ok(())
}

/// One bodiless request to the service; anything but `200` is an error.
fn call(server: &str, method: &str, path: &str) -> Result<String, String> {
    let (status, body) = http::request(server, method, path, "")?;
    if status != 200 {
        return Err(format!("{method} {path} failed with status {status}: {body}"));
    }
    Ok(body)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = || args[1..].to_vec();
    let result = match args.first().map(String::as_str) {
        Some("merge") => run_merge(rest()),
        Some("metrics-check") => run_metrics_check(rest()),
        Some("serve") => run_serve(rest()),
        Some("worker") => run_remote_worker(rest()),
        Some("submit") => run_submit(rest()),
        Some("status") => run_status(rest()),
        Some("metrics") => run_remote_metrics(rest()),
        Some("shutdown") => run_remote_simple("shutdown", rest()),
        Some("ping") => run_remote_simple("ping", rest()),
        _ => run_campaign(args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Vec<String> {
        text.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn run_flags_fill_the_config() {
        let (config, out) = parse_run(args(
            "--size 6 --seed 0X42 --methods Strider,RTLrepair --workers 2 --shard 1/2 \
             --llm-batch 4 --fault-seed 42 --inject-panic @MEIC --out o",
        ))
        .unwrap();
        assert_eq!((config.dataset_size, config.dataset_seed, config.workers), (6, 0x42, 2));
        assert_eq!(config.methods, [MethodKind::Strider, MethodKind::RtlRepair]);
        assert_eq!(config.shard, ShardSpec { index: 1, count: 2 });
        assert_eq!(config.llm_batch.unwrap().max_batch, 4);
        assert_eq!(config.fault.unwrap().seed, 0x42);
        assert!(config.resilience.is_some(), "a fault plan turns the resilience policy on");
        assert_eq!(config.inject_panic.as_deref(), Some("@MEIC"));
        assert_eq!(out, "o");
    }

    #[test]
    fn every_error_names_its_flag() {
        for (line, flag) in [
            ("--size", "--size"),
            ("--size six", "--size"),
            ("--seed 0x0x42", "--seed"),
            ("--fault-seed 0xZZ", "--fault-seed"),
            ("--methods UVLLM,Nope", "--methods"),
            ("--shard 2/2", "--shard"),
            ("--llm-batch 0", "--llm-batch"),
            ("--fault-error-rate 1.5", "--fault-error-rate"),
            ("--bogus", "--bogus"),
        ] {
            let err = parse_run(args(line)).unwrap_err();
            assert!(err.contains(flag), "{line}: {err}");
        }
    }

    #[test]
    fn client_verbs_need_connect() {
        let err = Flags::new("ping", Vec::new()).client(false, &mut |_, _| Ok(false)).unwrap_err();
        assert_eq!(err, "ping needs --connect HOST:PORT");
        let (server, runs) = Flags::new("status", args("run-1 --connect h:1"))
            .client(true, &mut |_, _| Ok(false))
            .unwrap();
        assert_eq!((server.as_str(), runs), ("h:1", vec!["run-1".to_string()]));
        let err =
            Flags::new("submit", args("run-1")).client(false, &mut |_, _| Ok(false)).unwrap_err();
        assert!(err.contains("unknown submit flag 'run-1'"), "{err}");
    }

    #[test]
    fn serve_rejects_a_zero_interval() {
        let err = run_serve(args("--lease-ms 0")).unwrap_err();
        assert!(err.contains("--lease-ms"), "{err}");
    }
}
