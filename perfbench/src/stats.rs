//! Order statistics with the benchmark's reporting rule: a percentile
//! is reported only when at least [`MIN_BEYOND`] samples lie beyond it,
//! so a tail figure always rests on more than a handful of samples.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Sorted copy of `values` (NaN-free input; `f64::INFINITY` is allowed
/// and stands for a failed operation, which misses every limit).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Nearest-rank percentile `q ∈ (0, 100)` of sorted samples, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q / 100.0) * n as f64).ceil() as usize;
    let idx = rank.clamp(1, n) - 1;
    if n - 1 - idx < MIN_BEYOND {
        return None;
    }
    Some(sorted[idx])
}

/// Median of sorted samples (midpoint of the two middle values for an
/// even count); `None` when empty.
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Median of unsorted samples, 0 when empty (for per-layer figures,
/// where an absent layer reads as no work).
pub fn median_or_zero(values: &[f64]) -> f64 {
    median(&sorted(values)).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // p95 of 200: rank 190, ten samples beyond it.
        assert_eq!(percentile(&v, 95.0), Some(190.0));
        // p99 of 200: rank 198, only two beyond.
        assert_eq!(percentile(&v, 99.0), None);
        // p95 of 199 samples: rank 190, nine beyond.
        assert_eq!(percentile(&v[..199], 95.0), None);
        let big: Vec<f64> = (1..=1010).map(f64::from).collect();
        assert_eq!(percentile(&big, 99.0), Some(1000.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[1.0, 2.0, 9.0]), Some(2.0));
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), Some(3.0));
        assert_eq!(median(&[]), None);
        assert_eq!(median_or_zero(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn failed_operations_sort_last() {
        let v = sorted(&[3.0, f64::INFINITY, 1.0]);
        assert_eq!(v, vec![1.0, 3.0, f64::INFINITY]);
    }
}
