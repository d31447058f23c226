//! Aggregation and ASCII table rendering for the experiment binaries.

use crate::harness::EvalRecord;

/// Fix rate over a record slice, in percent.
pub fn fr(records: &[&EvalRecord]) -> f64 {
    percent(records.iter().filter(|r| r.fixed).count(), records.len())
}

/// Hit rate over a record slice, in percent.
pub fn hr(records: &[&EvalRecord]) -> f64 {
    percent(records.iter().filter(|r| r.hit).count(), records.len())
}

pub use uvllm_campaign::report::{pct_cell, percent, AsciiTable};

/// Mean `texec` in seconds.
pub fn mean_time(records: &[&EvalRecord]) -> f64 {
    if records.is_empty() {
        return f64::NAN;
    }
    records.iter().map(|r| r.texec).sum::<f64>() / records.len() as f64
}

/// Formats a seconds cell.
pub fn secs_cell(v: f64) -> String {
    if v.is_nan() {
        "x".to_string()
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_and_guards() {
        assert!((percent(1, 2) - 50.0).abs() < 1e-9);
        assert!(percent(0, 0).is_nan());
        assert_eq!(pct_cell(f64::NAN), "x");
        assert_eq!(pct_cell(86.99), "87.0");
        assert_eq!(secs_cell(13.829), "13.83");
    }
}
