//! Order statistics for timings.
//!
//! A timing is reported as its median and the highest percentile that
//! still has at least [`MIN_TAIL`] samples beyond it: with `n` samples
//! that is the `100·(1 − MIN_TAIL/n)`-th percentile, so the 95th needs
//! 200 samples and the 99th needs 1,000.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_TAIL: usize = 10;

/// The highest percentile (in `(0, 100)`) that leaves at least
/// [`MIN_TAIL`] of `n` samples beyond it, or `None` when `n` is too
/// small for any tail (`n <= MIN_TAIL`).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    (n > MIN_TAIL).then(|| 100.0 * (1.0 - MIN_TAIL as f64 / n as f64))
}

/// True when `n` samples support reporting percentile `p`.
pub fn supports_percentile(n: usize, p: f64) -> bool {
    highest_supported_percentile(n).is_some_and(|h| h + 1e-9 >= p)
}

/// Nearest-rank percentile `p` (in `[0, 100]`) of an ascending slice:
/// the smallest sample with at least `p`% of the samples at or below it.
/// `None` on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    // The epsilon keeps an exact rank such as 0.95 × 200 from rounding
    // up to the next sample through floating-point error.
    let rank = ((p.clamp(0.0, 100.0) / 100.0) * sorted.len() as f64 - 1e-9).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of unsorted values (mean of the middle pair for even counts);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(10), None);
        assert_eq!(highest_supported_percentile(0), None);
        assert!((highest_supported_percentile(200).unwrap() - 95.0).abs() < 1e-12);
        assert!((highest_supported_percentile(1000).unwrap() - 99.0).abs() < 1e-12);
        assert!(supports_percentile(200, 95.0));
        assert!(!supports_percentile(199, 95.0));
        assert!(supports_percentile(20, 50.0));
        assert!(!supports_percentile(19, 50.0));
    }

    #[test]
    fn supported_percentile_leaves_ten_samples_beyond() {
        for n in [11usize, 57, 200, 201, 999, 5000] {
            let p = highest_supported_percentile(n).unwrap();
            let sorted: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let v = percentile(&sorted, p).unwrap();
            let beyond = sorted.iter().filter(|&&x| x > v).count();
            assert!(beyond >= MIN_TAIL, "n={n} p={p} beyond={beyond}");
        }
    }

    #[test]
    fn nearest_rank_percentile_and_median() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 50.0), Some(2.0));
        assert_eq!(percentile(&s, 100.0), Some(4.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
