//! The benchmark's own statistics. Deliberately not `harness::measure` /
//! `perfbench` / `compare`: those are code under test.

/// Value at percentile `p` (0–100) of an ascending slice, linearly
/// interpolated between neighbours.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Ascending copy of `xs`.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample.
pub fn median(xs: &[f64]) -> f64 {
    percentile(&sorted(xs), 50.0)
}

/// The highest reportable tail of a sample of `n`: the largest percentile
/// that still has at least ten samples beyond it, or `None` below 20 samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    // (percentile, share of the sample beyond it as a fraction)
    [
        (99.9, 1, 1000),
        (99.0, 1, 100),
        (95.0, 5, 100),
        (90.0, 10, 100),
        (75.0, 25, 100),
        (50.0, 50, 100),
    ]
    .into_iter()
    .find(|&(_, num, den)| n * num >= 10 * den)
    .map(|(p, _, _)| p)
}

/// Geometric mean of positive values (1.0 for an empty slice).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    (xs.iter()
        .map(|x| x.max(f64::MIN_POSITIVE).ln())
        .sum::<f64>()
        / xs.len() as f64)
        .exp()
}

/// Coefficient of variation (population standard deviation / mean).
pub fn cv(xs: &[f64]) -> f64 {
    let mean = xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    if xs.len() < 2 || mean == 0.0 {
        return 0.0;
    }
    (xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64).sqrt() / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_and_median_sorts() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert_eq!(percentile(&s, 50.0), 2.5);
        assert!((percentile(&s, 95.0) - 3.85).abs() < 1e-12);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn geomean_and_cv() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
        assert_eq!(cv(&[3.0, 3.0, 3.0]), 0.0);
        assert!((cv(&[1.0, 3.0]) - 0.5).abs() < 1e-12);
    }
}
