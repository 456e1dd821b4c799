//! Order statistics over raw samples. Every percentile the benchmark
//! reports is an exact order statistic (nearest rank) over all samples of
//! the window — no histograms, no interpolation.

/// Sort a copy of `samples` ascending. NaNs are a bug in the caller.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("sample is NaN"));
    v
}

/// 0-based index of the nearest-rank `q`-quantile among `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank `q`-quantile of an ascending slice; 0.0 when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q)]
}

/// Median (nearest rank) of unsorted samples; 0.0 when empty.
pub fn p50(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// How many samples lie strictly beyond the nearest-rank `q`-quantile.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank(n, q)
}

/// A tail percentile is only trustworthy with at least ten samples beyond
/// it (choosing-metrics §1); p90 therefore needs 100 samples.
pub fn tail_is_resolved(n: usize, q: f64) -> bool {
    beyond(n, q) >= 10
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// `hit / (hit + miss)`, 0.0 when nothing was counted.
pub fn ratio(hit: u64, miss: u64) -> f64 {
    if hit + miss == 0 {
        return 0.0;
    }
    hit as f64 / (hit + miss) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_selection() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        // odd count: the true middle
        assert_eq!(p50(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn p90_needs_ten_samples_beyond() {
        // 100 samples: p90 is the 90th, ten lie beyond it.
        assert_eq!(beyond(100, 0.9), 10);
        assert!(tail_is_resolved(100, 0.9));
        assert_eq!(beyond(99, 0.9), 9);
        assert!(!tail_is_resolved(99, 0.9));
        assert!(!tail_is_resolved(0, 0.9));
        // the median of 20 samples is the 10th: ten lie beyond it
        assert!(tail_is_resolved(20, 0.5));
        assert!(!tail_is_resolved(19, 0.5));
    }

    #[test]
    fn ratios_and_means() {
        assert_eq!(ratio(0, 0), 0.0);
        assert_eq!(ratio(1, 3), 0.25);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }
}
