//! `run`, `trace` and `selfcheck`: every workload, each in a child
//! process of its own, so peak memory and cold set-up are per workload.

use crate::api::Doc;
use crate::measure::END_TO_END;
use crate::workloads::WORKLOADS;
use crate::{Args, RUN_SECONDS};
use std::process::{Command, Stdio};

/// The result line of one child run.
pub struct RunResult {
    pub workload: &'static str,
    /// `(name, value, unit)` in the order the child printed them.
    pub metrics: Vec<(String, f64, String)>,
}

fn run_child(workload: &'static str, seed: u64, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &RUN_SECONDS.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let result = lines.pop().ok_or_else(|| format!("{workload} printed nothing"))?;
    for line in lines {
        println!("{line}");
    }
    println!();
    let doc = Doc::parse(result).map_err(|e| format!("{workload}: bad result line ({e})"))?;
    let metrics = doc
        .keys(&["metrics"])
        .into_iter()
        .map(|name| {
            let value = doc.number(&["metrics", &name, "value"]);
            let unit = doc.string(&["metrics", &name, "unit"]);
            match (value, unit) {
                (Some(value), Some(unit)) => Ok((name, value, unit)),
                _ => Err(format!("{workload}: metric {name} lacks a value or a unit")),
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    let failed = doc.number(&["failed"]).unwrap_or(f64::NAN);
    if !output.status.success() || doc.boolean(&["correct"]) != Some(true) || failed != 0.0 {
        return Err(format!(
            "{workload}: run was not correct (exit {}, failed {failed})",
            output.status
        ));
    }
    Ok(RunResult { workload, metrics })
}

/// Runs every workload once. Fails on the first incorrect run.
pub fn run_all(args: &Args, trace: bool) -> Result<Vec<RunResult>, String> {
    WORKLOADS.iter().map(|(workload, _, _)| run_child(workload, args.seed, trace)).collect()
}

/// How much worse `second` is than `first`, as a share of `first`, in
/// the metric's own direction; negative when it got better.
fn worsening(first: f64, second: f64, better: &str) -> f64 {
    let change = (second - first) / first;
    if better == "higher" {
        -change
    } else {
        change
    }
}

/// Two end-to-end runs of the same code must agree within the bounds.
pub fn selfcheck(args: &Args) -> Result<bool, String> {
    let first = run_all(args, false)?;
    let second = run_all(args, false)?;
    println!(
        "{:<16} {:<14} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse %", "bound %"
    );
    let mut breaches = 0;
    for (a, b) in first.iter().zip(&second) {
        for &(name, unit, better, bound) in &END_TO_END {
            let value = |run: &RunResult| {
                run.metrics
                    .iter()
                    .find(|(metric, _, _)| metric == name)
                    .map(|(_, value, _)| *value)
                    .ok_or_else(|| format!("{}: no {name} in the result line", run.workload))
            };
            let (x, y) = (value(a)?, value(b)?);
            let worse = worsening(x, y, better);
            let breach = worse > bound;
            breaches += breach as u32;
            println!(
                "{:<16} {:<14} {:>14.4} {:>14.4} {:>+9.2} {:>7.0} {unit}{}",
                a.workload,
                name,
                x,
                y,
                worse * 100.0,
                bound * 100.0,
                if breach { "  BREACH" } else { "" }
            );
        }
    }
    // An incorrect run already stopped `run_all` with an error.
    println!("{breaches} metric(s) beyond their bound");
    Ok(breaches == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metrics_direction() {
        assert!((worsening(100.0, 110.0, "lower") - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, "lower") + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, "higher") - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, "higher") + 0.10).abs() < 1e-12);
    }
}
