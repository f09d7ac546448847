//! Summary statistics, percentiles, and histograms.
//!
//! The paper reports median epoch times with 95% confidence intervals and
//! violin plots of per-batch times (Figs. 10–15); this module provides the
//! numeric machinery those reproductions print: order statistics computed
//! by full sort (the sample counts here are small enough that selection
//! algorithms would be over-engineering), a distribution-free binomial
//! confidence interval on the median, and fixed-width histograms used for
//! Fig. 3's access-frequency plot.

/// Summary statistics over a sample of `f64` observations.
///
/// Construction sorts a copy of the data once; all accessors are O(1)
/// afterwards.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    sorted: Vec<f64>,
    mean: f64,
    std_dev: f64,
}

impl Summary {
    /// Builds a summary from the observations.
    ///
    /// # Panics
    /// Panics if `data` is empty or contains NaN.
    pub fn new(data: &[f64]) -> Self {
        assert!(
            !data.is_empty(),
            "Summary requires at least one observation"
        );
        assert!(
            data.iter().all(|x| !x.is_nan()),
            "Summary observations must not be NaN"
        );
        let mut sorted = data.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN checked above"));
        let n = sorted.len() as f64;
        let mean = sorted.iter().sum::<f64>() / n;
        let var = if sorted.len() > 1 {
            sorted.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0)
        } else {
            0.0
        };
        Self {
            sorted,
            mean,
            std_dev: var.sqrt(),
        }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when the summary holds exactly one observation — kept for
    /// clippy symmetry with [`Self::len`]; a `Summary` is never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample standard deviation (Bessel-corrected; 0 for a single point).
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// Minimum observation.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Maximum observation.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty by construction")
    }

    /// Median (50th percentile).
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Linear-interpolated percentile, `p` in `[0, 100]`.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        let n = self.sorted.len();
        if n == 1 {
            return self.sorted[0];
        }
        let rank = p / 100.0 * (n - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
    }

    /// Distribution-free ~95% confidence interval for the median, from the
    /// binomial order-statistic bound (the interval between order
    /// statistics `n/2 ± 1.96·√n/2`). Degenerates to `(min, max)` for very
    /// small samples — matching how the paper's error bars behave with 3
    /// to 10 epochs per point.
    pub fn median_ci95(&self) -> (f64, f64) {
        let n = self.sorted.len();
        if n < 3 {
            return (self.min(), self.max());
        }
        let nf = n as f64;
        let half_width = 1.96 * nf.sqrt() / 2.0;
        let lo = ((nf / 2.0 - half_width).floor().max(0.0)) as usize;
        let hi = (((nf / 2.0 + half_width).ceil()) as usize).min(n - 1);
        (self.sorted[lo], self.sorted[hi])
    }

    /// The sorted observations.
    pub fn sorted(&self) -> &[f64] {
        &self.sorted
    }
}

/// A fixed-width histogram over `u64` values, used for the Fig. 3
/// access-frequency distribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    bucket_width: u64,
}

impl Histogram {
    /// Creates a histogram with `buckets` buckets of `bucket_width` each;
    /// values at or beyond the last edge are clamped into the final
    /// bucket so no observation is ever lost.
    ///
    /// # Panics
    /// Panics if `buckets == 0` or `bucket_width == 0`.
    pub fn new(buckets: usize, bucket_width: u64) -> Self {
        assert!(buckets > 0, "histogram needs at least one bucket");
        assert!(bucket_width > 0, "bucket width must be positive");
        Self {
            counts: vec![0; buckets],
            bucket_width,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        let idx = ((value / self.bucket_width) as usize).min(self.counts.len() - 1);
        self.counts[idx] += 1;
    }

    /// Per-bucket counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of recorded observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Inclusive lower edge of bucket `i`.
    pub fn bucket_start(&self, i: usize) -> u64 {
        i as u64 * self.bucket_width
    }
}

/// The steady-state epoch time: the median of the epochs after the
/// first (the warm-up), or the first epoch's time for a one-epoch run;
/// 0 for none. The runtime figures' and the cluster's convention.
pub fn steady_epoch_time(epoch_times: &[f64]) -> f64 {
    match epoch_times {
        [] => 0.0,
        [only] => *only,
        [_, tail @ ..] => Summary::new(tail).median(),
    }
}

/// Ordinary least-squares fit `y ≈ a + b·x`.
///
/// The paper infers unmeasured performance-model parameters (e.g. PFS
/// bandwidth at an unmeasured client count) "using linear regression";
/// this is that regression.
///
/// Returns `(intercept, slope)`.
///
/// # Panics
/// Panics if the slices differ in length, are empty, or if all `x` are
/// identical (the slope would be undefined).
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> (f64, f64) {
    assert_eq!(xs.len(), ys.len(), "mismatched regression inputs");
    assert!(!xs.is_empty(), "regression requires data");
    let n = xs.len() as f64;
    let mean_x = xs.iter().sum::<f64>() / n;
    let mean_y = ys.iter().sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        sxx += (x - mean_x) * (x - mean_x);
        sxy += (x - mean_x) * (y - mean_y);
    }
    assert!(
        sxx > 0.0,
        "regression requires at least two distinct x values"
    );
    let slope = sxy / sxx;
    (mean_y - slope * mean_x, slope)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic_moments() {
        let s = Summary::new(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 5.0);
        assert!((s.std_dev() - (2.5f64).sqrt()).abs() < 1e-12);
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn summary_single_observation() {
        let s = Summary::new(&[7.5]);
        assert_eq!(s.median(), 7.5);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.percentile(99.0), 7.5);
        assert_eq!(s.median_ci95(), (7.5, 7.5));
    }

    #[test]
    #[should_panic(expected = "at least one observation")]
    fn summary_rejects_empty() {
        Summary::new(&[]);
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn summary_rejects_nan() {
        Summary::new(&[1.0, f64::NAN]);
    }

    #[test]
    fn percentile_interpolates() {
        let s = Summary::new(&[0.0, 10.0]);
        assert_eq!(s.percentile(0.0), 0.0);
        assert_eq!(s.percentile(100.0), 10.0);
        assert!((s.percentile(50.0) - 5.0).abs() < 1e-12);
        assert!((s.percentile(25.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn median_even_count() {
        let s = Summary::new(&[1.0, 2.0, 3.0, 4.0]);
        assert!((s.median() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn median_ci_contains_median() {
        let data: Vec<f64> = (0..101).map(|i| i as f64).collect();
        let s = Summary::new(&data);
        let (lo, hi) = s.median_ci95();
        assert!(lo <= s.median() && s.median() <= hi);
        assert!(lo > s.min() && hi < s.max());
    }

    #[test]
    fn summary_unsorted_input() {
        let s = Summary::new(&[5.0, 1.0, 3.0]);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.max(), 5.0);
    }

    #[test]
    fn histogram_records_and_clamps() {
        let mut h = Histogram::new(4, 10);
        h.record(0);
        h.record(9);
        h.record(10);
        h.record(39);
        h.record(40); // beyond last edge: clamped
        h.record(1_000_000);
        assert_eq!(h.counts(), &[2, 1, 0, 3]);
        assert_eq!(h.total(), 6);
        assert_eq!(h.bucket_start(2), 20);
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn histogram_rejects_zero_buckets() {
        Histogram::new(0, 1);
    }

    #[test]
    fn linear_fit_exact_line() {
        let xs = [1.0, 2.0, 4.0, 8.0];
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 + 2.0 * x).collect();
        let (a, b) = linear_fit(&xs, &ys);
        assert!((a - 3.0).abs() < 1e-9);
        assert!((b - 2.0).abs() < 1e-9);
    }

    #[test]
    fn linear_fit_least_squares() {
        // Symmetric noise around y = x should fit slope ~1.
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [0.1, 0.9, 2.1, 2.9];
        let (a, b) = linear_fit(&xs, &ys);
        assert!(b > 0.9 && b < 1.1, "slope {b}");
        assert!(a.abs() < 0.2, "intercept {a}");
    }

    #[test]
    #[should_panic(expected = "distinct x")]
    fn linear_fit_rejects_constant_x() {
        linear_fit(&[2.0, 2.0], &[1.0, 3.0]);
    }
}
