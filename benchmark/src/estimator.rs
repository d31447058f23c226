//! Noise-robust estimators (README, "Noise model and the three rules").
//!
//! This box flips between a fast and a slow mode (×1.39 on a fixed spin
//! unit) for tens of seconds at a time, so a plain mean or median of pass
//! times measures which mode the run happened to sit in. The noise only
//! ever adds time. Everything timed is therefore cut into *slices* of
//! identical work repeated in every pass, and each slice contributes its
//! fastest repeat: a slice needs one of its repeats to land in the fast
//! mode, where a lower quartile needs a quarter of them and a whole run
//! can sit in a slow stretch.

/// Quantile `q` in `[0, 1]` by linear interpolation between the two
/// closest ranks (R type 7). Returns 0 for an empty sample so a layer
/// that did no work reads as zero rather than poisoning a table with
/// NaN.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median, for the comparisons the README makes against the estimator.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The repeat filter: column `k` of `repeats` holds the same piece of
/// work measured once per pass; the result is each column's fastest
/// repeat. All rows must have the same length.
pub fn fastest_per_column(repeats: &[Vec<f64>]) -> Vec<f64> {
    let Some(first) = repeats.first() else { return Vec::new() };
    debug_assert!(repeats.iter().all(|row| row.len() == first.len()));
    (0..first.len())
        .map(|k| repeats.iter().map(|row| row[k]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// Time of one pass with the slow mode filtered out:
/// `Σ_k min_p(slices[p][k])`.
pub fn fastest_slices_sum(slices: &[Vec<f64>]) -> f64 {
    fastest_per_column(slices).iter().sum()
}

/// A percentile is reported as a tail only when at least ten samples
/// lie beyond it (choosing-metrics §1): p90 needs 100 samples, p95 200.
pub fn tail_has_ten_beyond(samples: usize, percentile: f64) -> bool {
    samples as f64 * (1.0 - percentile) >= 10.0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic jitter in `[-1, 1)`.
    fn jitter(state: &mut u64) -> f64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((*state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    }

    /// 12 passes × 32 slices; `slow(p, k)` says which samples ran in the
    /// ×1.4 mode. Returns (true pass time, samples).
    fn synthetic(slow: impl Fn(usize, usize) -> bool) -> (f64, Vec<Vec<f64>>) {
        let mut state = 7u64;
        let truth: Vec<f64> = (0..32).map(|k| 0.050 + 0.001 * k as f64).collect();
        let samples = (0..12)
            .map(|p| {
                (0..32)
                    .map(|k| {
                        let mode = if slow(p, k) { 1.4 } else { 1.0 };
                        truth[k] * mode * (1.0 + 0.01 * jitter(&mut state))
                    })
                    .collect()
            })
            .collect();
        (truth.iter().sum(), samples)
    }

    #[test]
    fn fastest_slices_recover_the_rate_under_a_slow_mode_covering_60_percent() {
        // The slow mode arrives as one stretch of wall time (the way the
        // box behaves): samples 40..270 of 384 in time order, 60 %.
        let (truth, samples) = synthetic(|p, k| (40..270).contains(&(p * 32 + k)));
        let slow = samples.iter().flatten().count() as f64;
        assert!((230.0 / slow - 0.6).abs() < 0.01);

        let estimate = fastest_slices_sum(&samples);
        assert!((estimate / truth - 1.0).abs() < 0.03, "estimate {estimate} vs truth {truth}");

        // The plain median of whole-pass times sits in the slow mode.
        let pass_times: Vec<f64> = samples.iter().map(|p| p.iter().sum()).collect();
        let plain = median(&pass_times);
        assert!(plain / truth > 1.2, "median {plain} vs truth {truth}");
    }

    #[test]
    fn one_fast_pass_in_twelve_is_enough_where_a_lower_quartile_is_not() {
        // The run sits in the slow mode except for the two halves of one
        // pass's worth of slices, met in different passes.
        let (truth, samples) = synthetic(|p, k| !((p == 3 && k < 16) || (p == 9 && k >= 16)));
        let estimate = fastest_slices_sum(&samples);
        assert!((estimate / truth - 1.0).abs() < 0.03, "estimate {estimate} vs truth {truth}");

        let quartiles: f64 = (0..32)
            .map(|k| quantile(&samples.iter().map(|row| row[k]).collect::<Vec<_>>(), 0.25))
            .sum();
        assert!(quartiles / truth > 1.3, "lower quartiles {quartiles} vs truth {truth}");
    }

    #[test]
    fn fastest_slices_recover_the_rate_under_scattered_noise() {
        // Independent per-sample slow-downs hit 30 % of samples.
        let mut state = 99u64;
        let hits: Vec<bool> = (0..384).map(|_| jitter(&mut state) < -0.4).collect();
        let (truth, samples) = synthetic(|p, k| hits[p * 32 + k]);
        let estimate = fastest_slices_sum(&samples);
        assert!((estimate / truth - 1.0).abs() < 0.03, "estimate {estimate} vs truth {truth}");
        let mean: f64 = samples.iter().flatten().sum::<f64>() / 12.0;
        assert!(mean / truth > 1.08, "mean {mean} vs truth {truth}");
    }

    #[test]
    fn quantiles_interpolate_and_tolerate_empty_input() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[3.0], 0.95), 3.0);
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.5), 2.5);
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.25), 1.75);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), 5.0);
        let columns = fastest_per_column(&[vec![1.0, 30.0], vec![3.0, 10.0]]);
        assert_eq!(columns, vec![1.0, 10.0]);
        assert_eq!(fastest_slices_sum(&[vec![1.0, 30.0], vec![3.0, 10.0]]), 11.0);
        assert!(fastest_per_column(&[]).is_empty());
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond_them() {
        assert!(tail_has_ten_beyond(200, 0.95));
        assert!(!tail_has_ten_beyond(199, 0.95));
        assert!(tail_has_ten_beyond(1986, 0.99));
        assert!(tail_has_ten_beyond(256, 0.90) && !tail_has_ten_beyond(256, 0.97));
        assert!(!tail_has_ten_beyond(4, 0.90));
    }
}
