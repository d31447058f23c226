//! The repo benchmark. `README.md` beside this crate is the manual.
//!
//! ```text
//! uvllm-benchmark --workload NAME --seed N --seconds S --trace 0|1   one run, one result line
//! uvllm-benchmark run [--seed N]        every workload, end to end, each in its own process
//! uvllm-benchmark trace [--seed N]      every workload, traced, each in its own process
//! uvllm-benchmark selfcheck [--seed N]  `run` twice, compared against the bounds
//! uvllm-benchmark manifest              prints `BENCHMARK.json` from the code's own tables
//! ```

mod alloc;
mod api;
mod estimator;
mod manifest;
mod measure;
mod probes;
mod record;
mod selfcheck;
mod sys;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Seed used when none is given: the product's own dataset seed.
pub const DEFAULT_SEED: u64 = 0xDA7A;
/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// Where span files go and scratch directories live; inside the
/// checkout, ignored by git.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A scratch directory that is removed when the run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Result<Scratch, String> {
        let dir = out_dir().join(format!("tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_seed(text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|_| format!("--seed wants a whole number (decimal or 0x hex), got '{text}'"))
}

fn parse_flags(flags: &[String]) -> Result<Args, String> {
    let mut args =
        Args { workload: None, seed: DEFAULT_SEED, seconds: RUN_SECONDS as f64, trace: false };
    let mut flags = flags.iter();
    while let Some(flag) = flags.next() {
        let value = flags.next().ok_or_else(|| format!("{flag} wants a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => args.seed = parse_seed(value)?,
            "--seconds" => {
                args.seconds =
                    value.parse().ok().filter(|s: &f64| *s > 0.0 && s.is_finite()).ok_or_else(
                        || format!("--seconds wants a positive number, got '{value}'"),
                    )?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got '{other}'")),
                }
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(args)
}

/// The result line the driver reads: the last line of standard output.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[measure::Metric]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// One run of one workload in this process.
fn single(args: &Args) -> Result<bool, String> {
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    if !workloads::WORKLOADS.iter().any(|(known, _, _)| *known == name) {
        return Err(format!("unknown workload '{name}'"));
    }
    let measure::Report { metrics, attempted, failed, notes } = if args.trace {
        let scratch = Scratch::new()?;
        probes::run(name, args.seed, args.seconds, &scratch.0)?
    } else {
        measure::run(name, args.seed, args.seconds)?
    };
    for note in &notes {
        println!("{note}");
    }
    for metric in &metrics {
        println!("  {:<40} {:>16.6} {}", metric.name, metric.value, metric.unit);
    }
    let correct = failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    println!("{}", result_line(correct, attempted.max(1), failed, &metrics));
    Ok(correct)
}

/// The internal mode behind an end-to-end run: one of its child
/// processes (see `measure`).
fn part(args: &Args, process_start: Instant) -> Result<bool, String> {
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    let scratch = Scratch::new()?;
    measure::part(name, args.seed, args.seconds, &scratch.0, process_start)?;
    Ok(true)
}

fn dispatch(process_start: Instant) -> Result<bool, String> {
    if sys::nproc() < api::WORKERS {
        return Err(format!(
            "this benchmark keeps {} threads busy and needs as many CPUs; found {}",
            api::WORKERS,
            sys::nproc()
        ));
    }
    api::clear_product_env();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("run") => selfcheck::run_all(&parse_flags(&argv[1..])?, false).map(|_| true),
        Some("trace") => selfcheck::run_all(&parse_flags(&argv[1..])?, true).map(|_| true),
        Some("selfcheck") => selfcheck::selfcheck(&parse_flags(&argv[1..])?),
        Some("part") => part(&parse_flags(&argv[1..])?, process_start),
        Some("manifest") => {
            print!("{}", manifest::text());
            Ok(true)
        }
        Some(flag) if flag.starts_with("--") => single(&parse_flags(&argv)?),
        _ => Err("usage: --workload NAME --seed N --seconds S --trace 0|1 | run | trace | \
                  selfcheck"
            .to_string()),
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    match dispatch(process_start) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("uvllm-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
