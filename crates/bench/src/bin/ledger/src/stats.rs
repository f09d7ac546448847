//! The two statistics every timing is reported with: the median, and
//! the highest percentile that still has ten samples beyond it.

use nopfs_util::stats::Summary;

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    Summary::new(values).median()
}

/// The percentiles a tail may be reported at, lowest first, each with
/// the share of samples beyond it as "one in `k`" (integers, so that
/// 10 000 samples give p99.9 exactly ten).
const LADDER: [(&str, usize); 4] = [("p90", 10), ("p95", 20), ("p99", 100), ("p99.9", 1000)];

/// The highest percentile of the ladder with at least ten samples
/// beyond it, and its value (nearest rank); `None` below 100 samples,
/// where even p90 would rest on fewer than ten.
pub fn tail(values: &[f64]) -> Option<(&'static str, f64)> {
    let (label, k) = LADDER.iter().rev().find(|(_, k)| values.len() / k >= 10)?;
    Some((label, beyond_one_in(values, *k)))
}

/// The value that one sample in `k` lies beyond (nearest rank): `k` =
/// 100 is the 99th percentile.
pub fn beyond_one_in(values: &[f64], k: usize) -> f64 {
    let n = values.len();
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are not NaN"));
    v[n - 1 - n / k]
}

/// `median (pXX tail, n=count)` for the printed report.
pub fn describe(values: &[f64], unit: &str) -> String {
    let m = median(values);
    match tail(values) {
        Some((p, t)) => format!("{m:.4} {unit} ({p} {t:.4}, n={})", values.len()),
        None => format!("{m:.4} {unit} (n={})", values.len()),
    }
}

/// Sample standard deviation over the mean.
pub fn coefficient_of_variation(values: &[f64]) -> f64 {
    let summary = Summary::new(values);
    summary.std_dev() / summary.mean()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&v(99)), None, "9.9 samples beyond p90");
        // 100 samples: ten lie beyond p90 (91..=100), so p90 = 90.
        assert_eq!(tail(&v(100)), Some(("p90", 90.0)));
        assert_eq!(tail(&v(199)), Some(("p90", 180.0)));
        assert_eq!(tail(&v(200)), Some(("p95", 190.0)));
        assert_eq!(tail(&v(1_000)), Some(("p99", 990.0)));
        assert_eq!(tail(&v(10_000)), Some(("p99.9", 9_990.0)));
    }

    #[test]
    fn cv_of_constant_work_is_zero() {
        assert_eq!(coefficient_of_variation(&[2.0, 2.0, 2.0]), 0.0);
        // Mean 2, sample standard deviation sqrt(2).
        assert!((coefficient_of_variation(&[1.0, 3.0]) - 2f64.sqrt() / 2.0).abs() < 1e-12);
    }
}
