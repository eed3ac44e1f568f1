//! Order statistics with the benchmark's reporting rule: a percentile is
//! reported only when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index (0-based) of percentile `p` (0..=100) among `n`
/// sorted samples.
fn rank_index(n: usize, p: f64) -> usize {
    // The epsilon keeps float noise (99.9 × 10000 / 100 = 9990.000…02)
    // from bumping an exact rank.
    let rank = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// True when percentile `p` of `n` samples leaves at least
/// [`MIN_BEYOND`] samples above it.
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && n - 1 - rank_index(n, p) >= MIN_BEYOND
}

/// The highest of `candidates` that `n` samples support, if any.
pub fn highest_supported(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates.iter().copied().filter(|&p| supports(n, p)).reduce(f64::max)
}

/// Nearest-rank percentile `p` of `sorted` (ascending), or `None` when
/// the sample does not support it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    supports(sorted.len(), p).then(|| sorted[rank_index(sorted.len(), p)])
}

/// Sorts a sample in place (NaN-free input).
pub fn sort(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
}

/// Median (mean of the middle two for an even count); `None` if empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    Some(if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, so 10 lie beyond — supported.
        assert!(supports(1000, 99.0));
        // 999 samples: rank 990 (ceil 989.01), 9 beyond — not supported.
        assert!(!supports(999, 99.0));
        assert!(supports(20, 50.0));
        assert!(!supports(19, 50.0));
        assert!(!supports(0, 50.0));
    }

    #[test]
    fn highest_supported_percentile_falls_back() {
        let cands = [50.0, 90.0, 99.0, 99.9];
        assert_eq!(highest_supported(10_000, &cands), Some(99.9));
        assert_eq!(highest_supported(1_000, &cands), Some(99.0));
        assert_eq!(highest_supported(200, &cands), Some(90.0));
        assert_eq!(highest_supported(5, &cands), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(500.0));
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        assert_eq!(percentile(&v[..999], 99.0), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
