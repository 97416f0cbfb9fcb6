//! Percentile selection over raw samples.
//!
//! Every timing is reported as a median plus a tail percentile, and a tail
//! is only reported when the sample supports it: at least [`MIN_BEYOND`]
//! samples must lie beyond the chosen rank.

use hb_net::{HistoSnapshot, LatencyHisto};

/// Samples that must lie strictly beyond a tail percentile's rank.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of quantile `q` in `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of ascending `sorted`: the smallest sample with
/// at least a share `q` of all samples at or below it. `None` when empty.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// True when at least [`MIN_BEYOND`] of `n` samples lie beyond the rank of
/// quantile `q`.
pub fn tail_supported(n: usize, q: f64) -> bool {
    n > 0 && n - rank(n, q) >= MIN_BEYOND
}

/// [`percentile`] for a tail quantile, `None` unless the sample supports it.
pub fn tail(sorted: &[u64], q: f64) -> Option<u64> {
    if tail_supported(sorted.len(), q) {
        percentile(sorted, q)
    } else {
        None
    }
}

/// Sorts `samples` and returns its `(p50, p99)`; the tail is `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond rank 99 %.
pub fn p50_p99(samples: &mut [u64]) -> (Option<u64>, Option<u64>) {
    samples.sort_unstable();
    (percentile(samples, 0.5), tail(samples, 0.99))
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median_f64(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of a power-of-two bucket histogram, reported as
/// the upper bound of the bucket holding the rank.
pub fn histo_percentile(histo: &HistoSnapshot, q: f64) -> Option<u64> {
    if histo.count == 0 {
        return None;
    }
    let want = rank(histo.count as usize, q) as u64;
    let mut seen = 0u64;
    for (index, &count) in histo.buckets.iter().enumerate() {
        seen += count;
        if seen >= want {
            return Some(LatencyHisto::bucket_upper_ns(index));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_selection() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.5), Some(50));
        assert_eq!(percentile(&sorted, 0.99), Some(99));
        assert_eq!(percentile(&sorted, 1.0), Some(100));
        assert_eq!(percentile(&sorted, 0.0), Some(1));
        assert_eq!(percentile(&[7], 0.5), Some(7));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of n samples sits at rank ceil(0.99 n); n - rank must be >= 10.
        assert!(!tail_supported(999, 0.99), "rank 990 leaves 9 beyond");
        assert!(tail_supported(1000, 0.99), "rank 990 leaves 10 beyond");
        assert!(tail_supported(100, 0.9), "rank 90 leaves exactly 10 beyond");
        assert!(!tail_supported(99, 0.9), "rank 90 leaves 9 beyond");
        let sorted: Vec<u64> = (0..999).collect();
        assert_eq!(tail(&sorted, 0.99), None);
        let sorted: Vec<u64> = (0..1000).collect();
        assert_eq!(tail(&sorted, 0.99), Some(989));
        assert_eq!(tail(&[], 0.5), None);
    }

    #[test]
    fn p50_p99_sorts_first() {
        let mut samples: Vec<u64> = (0..2000).rev().collect();
        assert_eq!(p50_p99(&mut samples), (Some(999), Some(1979)));
        let mut few = vec![3, 1, 2];
        assert_eq!(p50_p99(&mut few), (Some(2), None));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median_f64(&[]).is_nan());
    }

    #[test]
    fn histogram_percentile_reports_bucket_bound() {
        let histo = LatencyHisto::new();
        for ns in [1u64, 2, 3, 1000, 1000, 1000, 1_000_000] {
            histo.record(ns);
        }
        let snap = histo.snapshot();
        // 7 samples: the median (rank 4) is a 1000 ns sample, bucket [512, 1023].
        assert_eq!(histo_percentile(&snap, 0.5), Some(1023));
        assert_eq!(histo_percentile(&LatencyHisto::new().snapshot(), 0.5), None);
    }
}
