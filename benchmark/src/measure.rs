//! The end-to-end run of one workload.
//!
//! A run is three *parts*, each a fresh child process that sets the
//! workload up cold, runs a third of the timed passes and reports what
//! it recorded. The parent pools the passes of all parts before applying
//! the repeat filter, so a process that landed badly (thread placement,
//! memory layout, a slow stretch of the machine) is outvoted the same
//! way a slow pass is; `setup_s` and `peak_rss_mb` are the medians of
//! the three processes.

use crate::estimator::{fastest_per_column, fastest_slices_sum, median, quantile};
use crate::record::PassRecord;
use crate::sys;
use crate::workloads;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Child processes per run.
const PARTS: usize = 3;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The tail percentile of op latency: `llm_wait`'s 128 jobs leave six
/// beyond a p95, fewer than the ten a tail needs, and 13 beyond a p90.
const TAIL: f64 = 0.90;

/// `(name, unit, direction, bound)` of every end-to-end metric, in the
/// order `BENCHMARK.json` lists them. Three times the widest spread
/// BASELINE.md records for any of them in the box's noisy hours is more
/// than the contract's cap, so every bound is the cap, 0.25.
pub const END_TO_END: [(&str, &str, &str, f64); 6] = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "op/s", "higher", 0.25),
    ("op_ms_p50", "ms", "lower", 0.25),
    ("op_ms_p90", "ms", "lower", 0.25),
    ("cpu_ms_per_op", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
];

pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable lines printed above the result line.
    pub notes: Vec<String>,
}

/// Passes one part runs. The count is fixed by `--seconds` and the
/// workload's table entry, not by the clock, so two runs of one commit
/// do the same work (a resident server's memory grows with every pass)
/// and a faster commit finishes sooner instead of doing more.
fn passes_per_part(name: &str, seconds: f64) -> usize {
    let at_run_seconds = workloads::WORKLOADS.iter().find(|w| w.0 == name).map_or(1, |w| w.2);
    ((at_run_seconds as f64 * seconds / crate::RUN_SECONDS as f64).round() as usize).max(1)
}

/// What one part reports: its set-up time, its peak memory and the
/// passes it recorded.
struct Part {
    setup_s: f64,
    peak_rss_mb: f64,
    ops: usize,
    passes: Vec<PassRecord>,
}

fn numbers(values: &[f64]) -> String {
    values.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(" ")
}

/// The child side: cold set-up timed from `process_start`, then the
/// part's passes, printed one record per line group.
pub fn part(
    name: &str,
    seed: u64,
    seconds: f64,
    dir: &Path,
    process_start: Instant,
) -> Result<(), String> {
    let mut workload = workloads::setup(name, seed, dir)?;
    let setup_s = process_start.elapsed().as_secs_f64();
    let passes = (0..passes_per_part(name, seconds))
        .map(|_| workload.pass())
        .collect::<Result<Vec<_>, _>>()?;
    let ops = workload.ops();
    workload.teardown();
    println!("part {setup_s} {} {ops}", sys::peak_rss_mb());
    for pass in &passes {
        println!("pass {} {} {}", pass.attempted, pass.failed, pass.digest);
        println!("wall {}", numbers(&pass.slice_wall));
        println!("cpu {}", numbers(&pass.slice_cpu));
        println!("op_ms {}", numbers(&pass.op_ms));
    }
    Ok(())
}

fn parse_part(stdout: &str) -> Result<Part, String> {
    fn fields<T: std::str::FromStr>(line: &str, tag: &str) -> Result<Vec<T>, String> {
        let rest =
            line.strip_prefix(tag).ok_or_else(|| format!("expected '{tag}', got '{line}'"))?;
        rest.split_whitespace()
            .map(|word| word.parse().map_err(|_| format!("bad number '{word}' in a {tag} line")))
            .collect()
    }
    let mut lines = stdout.lines();
    let head: Vec<f64> = fields(lines.next().unwrap_or_default(), "part")?;
    let [setup_s, peak_rss_mb, ops] = head[..] else {
        return Err("part line wants three numbers".to_string());
    };
    let mut passes = Vec::new();
    while let Some(line) = lines.next() {
        let counts: Vec<u64> = fields(line, "pass")?;
        let [attempted, failed, digest] = counts[..] else {
            return Err("pass line wants three numbers".to_string());
        };
        let mut next = |tag| fields::<f64>(lines.next().unwrap_or_default(), tag);
        passes.push(PassRecord {
            slice_wall: next("wall")?,
            slice_cpu: next("cpu")?,
            op_ms: next("op_ms")?,
            busy_s: 0.0,
            attempted,
            failed,
            digest,
        });
    }
    Ok(Part { setup_s, peak_rss_mb, ops: ops as usize, passes })
}

/// Runs one part in a fresh child process.
fn run_part(name: &str, seed: u64, seconds: f64) -> Result<Part, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["part", "--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn part: {e}"))?;
    if !output.status.success() {
        return Err(format!("a part of {name} failed ({})", output.status));
    }
    parse_part(&String::from_utf8_lossy(&output.stdout))
}

pub fn run(name: &str, seed: u64, seconds: f64) -> Result<Report, String> {
    let started = Instant::now();
    let parts = (0..PARTS).map(|_| run_part(name, seed, seconds)).collect::<Result<Vec<_>, _>>()?;
    let ops = parts[0].ops;
    let passes: Vec<&PassRecord> = parts.iter().flat_map(|part| &part.passes).collect();

    let mut failed: u64 = passes.iter().map(|p| p.failed).sum();
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    // A pass that lost ops has fewer slices than its peers and cannot
    // be lined up with them; it already counts as failed.
    let slices = passes.iter().map(|p| p.slice_wall.len()).max().unwrap_or(0);
    let aligned: Vec<&PassRecord> = passes
        .iter()
        .copied()
        .filter(|p| p.slice_wall.len() == slices && p.op_ms.len() == passes[0].op_ms.len())
        .collect();
    failed += (passes.len() - aligned.len()) as u64;
    let wall: Vec<Vec<f64>> = aligned.iter().map(|p| p.slice_wall.clone()).collect();
    let cpu: Vec<Vec<f64>> = aligned.iter().map(|p| p.slice_cpu.clone()).collect();
    let latency: Vec<Vec<f64>> = aligned.iter().map(|p| p.op_ms.clone()).collect();
    let pass_s = fastest_slices_sum(&wall);
    let cpu_s = fastest_slices_sum(&cpu);
    let op_ms = fastest_per_column(&latency);
    let setups: Vec<f64> = parts.iter().map(|part| part.setup_s).collect();
    let peaks: Vec<f64> = parts.iter().map(|part| part.peak_rss_mb).collect();

    let values = [
        median(&setups),
        ops as f64 / pass_s,
        quantile(&op_ms, 0.50),
        quantile(&op_ms, TAIL),
        cpu_s / ops as f64 * 1e3,
        median(&peaks),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _, _), value)| Metric { name, value, unit })
        .collect();

    let whole: Vec<f64> = passes.iter().map(|p| p.slice_wall.iter().sum()).collect();
    let three = |values: &[f64]| values.iter().map(|v| format!("{v:.3}")).collect::<Vec<_>>();
    let mut notes = vec![
        format!(
            "workload {name}  seed 0x{seed:X}  nproc {}  busy threads {}  wall {:.1} s",
            sys::nproc(),
            crate::api::WORKERS,
            started.elapsed().as_secs_f64()
        ),
        format!(
            "{PARTS} processes x {} passes = {} passes, {:.2} s timed  ops/pass {ops}  \
             slices/pass {slices}",
            parts[0].passes.len(),
            passes.len(),
            whole.iter().sum::<f64>(),
        ),
        format!(
            "pass time: fastest slices {pass_s:.4} s, median pass {:.4} s, best pass {:.4} s",
            median(&whole),
            whole.iter().copied().fold(f64::INFINITY, f64::min),
        ),
        format!(
            "latency samples/pass {} (per-op fastest of {} passes){}",
            op_ms.len(),
            aligned.len(),
            if crate::estimator::tail_has_ten_beyond(op_ms.len(), TAIL) {
                String::new()
            } else {
                format!(
                    "; p90 has fewer than ten samples beyond it and reads as the slowest of {}",
                    op_ms.len()
                )
            },
        ),
        format!(
            "setup_s per process {:?}  peak_rss_mb per process {:?}",
            three(&setups),
            three(&peaks)
        ),
        format!(
            "ops attempted {attempted}  failed {failed}  failed_share {:.6}",
            failed as f64 / attempted.max(1) as f64
        ),
    ];
    let digests: Vec<u64> = passes.iter().map(|p| p.digest).collect();
    notes.push(if digests.windows(2).all(|pair| pair[0] == pair[1]) {
        format!("rows_digest {:016x}", digests[0])
    } else {
        failed += 1;
        format!("rows_digest differs between passes: {digests:016x?}")
    });
    Ok(Report { metrics, attempted, failed, notes })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_part_survives_the_trip_through_its_child_process_output() {
        let text = "part 2.5 35.25 1986\npass 1986 0 1234567890123456789\nwall 0.5 0.25\ncpu 1 0.5\n\
                    op_ms 1.5 2.5 3.5\npass 1986 2 42\nwall 0.75 0.125\ncpu 1.5 0.25\nop_ms 1 2 3\n";
        let part = parse_part(text).unwrap();
        assert_eq!((part.setup_s, part.peak_rss_mb, part.ops), (2.5, 35.25, 1986));
        assert_eq!(part.passes.len(), 2);
        assert_eq!(part.passes[0].digest, 1234567890123456789);
        assert_eq!(part.passes[0].slice_wall, vec![0.5, 0.25]);
        assert_eq!(part.passes[1].failed, 2);
        assert_eq!(part.passes[1].op_ms, vec![1.0, 2.0, 3.0]);
        assert_eq!(numbers(&part.passes[1].slice_cpu), "1.5 0.25");
    }

    #[test]
    fn malformed_part_output_is_an_error_not_a_panic() {
        assert!(parse_part("").is_err());
        assert!(parse_part("part 1 2\n").is_err());
        assert!(parse_part("part 1 2 3\npass 1 0 9\nwall 0.5\ncpu x\nop_ms 1\n").is_err());
        assert!(parse_part("part 1 2 3\npass 1 0 9\nwall 0.5\n").is_err());
    }

    #[test]
    fn pass_counts_follow_seconds_and_never_reach_zero() {
        assert_eq!(passes_per_part("campaign_full", 20.0), 3);
        assert_eq!(passes_per_part("sim_long", 20.0), 6);
        assert_eq!(passes_per_part("llm_wait", 20.0), 2);
        assert_eq!(passes_per_part("served_campaign", 20.0), 2);
        assert_eq!(passes_per_part("campaign_full", 1.0), 1);
        assert_eq!(passes_per_part("sim_long", 60.0), 18);
    }
}
