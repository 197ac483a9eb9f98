//! Exact order statistics over raw samples.
//!
//! Every quantile the benchmark prints is computed here from the full
//! sample vector, never from a bucketed histogram, and is printed with
//! its sample count.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples`, by linear interpolation
/// between closest ranks (the "type 7" rule). `None` when empty.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// Rank, as a quantile, at which an operation repeated in a run is timed:
/// the median of its repetitions.
///
/// The repetitions are timed on the reference clock (`hostref`), which
/// takes out the host's fast and slow blocks, so what is left is unimodal
/// and the median is steady. A fixed rank rather than the best
/// repetition: the best of more draws is lower, so a minimum would improve
/// whenever faster code fits more repetitions into the same seconds.
pub const REP_RANK: f64 = 0.5;

/// Each operation's time at [`REP_RANK`] over its repetitions. `samples`
/// holds repetitions of the same `period` operations back to back (the
/// last one may be cut short); operation `i` is timed over samples `i`,
/// `i + period`, `i + 2·period`, …
pub fn per_operation(samples: &[f64], period: usize) -> Vec<f64> {
    let period = period.max(1).min(samples.len());
    (0..period)
        .map(|i| {
            let reps: Vec<f64> = samples.iter().skip(i).step_by(period).copied().collect();
            quantile(&reps, REP_RANK).unwrap_or(0.0)
        })
        .collect()
}

/// The mean (0 when empty).
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Fewest timed calls a latency metric is reported from.
pub const MIN_SAMPLES: usize = 1000;
/// Fewest distinct operations a latency quantile is taken over: ten
/// beyond the 90th percentile.
pub const MIN_OPERATIONS: usize = 100;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&s, 1.0), Some(4.0));
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn per_operation_groups_repetitions() {
        // Five repetitions of two operations; the last is cut short.
        let s = [1.0, 10.0, 3.0, 30.0, 2.0, 20.0, 5.0, 50.0, 4.0];
        assert_eq!(per_operation(&s, 2), vec![3.0, 25.0]);
        assert_eq!(per_operation(&s[..1], 2), vec![1.0]);
        assert!(per_operation(&[], 2).is_empty());
        assert_eq!(mean(&[3.0, 1.0]), 2.0);
    }
}
