//! Throughput curves: aggregate bandwidth as a function of the number of
//! threads or clients.
//!
//! The paper models all storage throughput as functions — `t(γ)` for the
//! PFS under `γ` readers, `r_j(p)`/`w_j(p)` for storage class `j` with
//! `p` threads — because "for many storage devices, a single thread
//! cannot saturate its bandwidth" and PFS bandwidth "is heavily dependent
//! on the number of clients". Operators measure a few points with FIO or
//! IOR; values in between are interpolated and values beyond are
//! extrapolated with the least-squares line through the measurements,
//! mirroring the paper's "parameterized values … inferred using linear
//! regression when the exact value is not available".

use nopfs_util::stats::linear_fit;

/// Smallest throughput the curve will ever report, bytes/second. The
/// extrapolated regression line could otherwise cross zero and produce
/// nonsensical negative fetch times.
const MIN_RATE: f64 = 1.0;

/// An aggregate-throughput curve built from measured `(count, bytes/s)`
/// points.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputCurve {
    /// Measured points, ascending in `x`; at least one.
    points: Vec<(f64, f64)>,
    /// Least-squares `(intercept, slope)` through all points, present
    /// when there are ≥ 2 points with distinct `x`.
    fit: Option<(f64, f64)>,
}

impl ThroughputCurve {
    /// Builds a curve from measured points (`x` = thread/client count,
    /// `y` = aggregate bytes/second).
    ///
    /// # Panics
    /// Panics if `points` is empty, contains non-finite values,
    /// non-positive throughput, duplicate `x`, or non-positive `x`.
    pub fn from_points(points: &[(f64, f64)]) -> Self {
        assert!(!points.is_empty(), "a curve needs at least one point");
        let mut pts = points.to_vec();
        for &(x, y) in &pts {
            assert!(x.is_finite() && x > 0.0, "counts must be positive, got {x}");
            assert!(
                y.is_finite() && y > 0.0,
                "throughput must be positive, got {y}"
            );
        }
        pts.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite checked"));
        for w in pts.windows(2) {
            assert!(
                w[0].0 < w[1].0,
                "duplicate measurement for count {}",
                w[0].0
            );
        }
        let fit = if pts.len() >= 2 {
            let xs: Vec<f64> = pts.iter().map(|p| p.0).collect();
            let ys: Vec<f64> = pts.iter().map(|p| p.1).collect();
            Some(linear_fit(&xs, &ys))
        } else {
            None
        };
        Self { points: pts, fit }
    }

    /// A constant curve: the device delivers `rate` bytes/second at any
    /// thread count.
    pub fn flat(rate: f64) -> Self {
        Self::from_points(&[(1.0, rate)])
    }

    /// Aggregate throughput (bytes/second) at `count` threads/clients.
    ///
    /// Exact at measured points, piecewise-linear between them, and on
    /// the regression line outside the measured range (floored at a tiny
    /// positive rate so times stay finite). A single-point curve is flat.
    pub fn at(&self, count: f64) -> f64 {
        assert!(count.is_finite() && count > 0.0, "count must be positive");
        let pts = &self.points;
        if pts.len() == 1 {
            return pts[0].1;
        }
        if count <= pts[0].0 || count >= pts[pts.len() - 1].0 {
            // Outside the measured range: regression line.
            let (a, b) = self.fit.expect("≥2 points implies a fit");
            // Clamp interior boundary values to the exact measurements.
            if count == pts[0].0 {
                return pts[0].1;
            }
            if count == pts[pts.len() - 1].0 {
                return pts[pts.len() - 1].1;
            }
            return (a + b * count).max(MIN_RATE);
        }
        // Piecewise-linear interpolation.
        let idx = pts.partition_point(|p| p.0 < count);
        let (x0, y0) = pts[idx - 1];
        let (x1, y1) = pts[idx];
        if count == x0 {
            return y0;
        }
        let frac = (count - x0) / (x1 - x0);
        (y0 + frac * (y1 - y0)).max(MIN_RATE)
    }

    /// Per-thread throughput at `count` threads: `curve(count)/count` —
    /// the quantity the model's fetch equations divide by.
    pub fn per_thread(&self, count: f64) -> f64 {
        self.at(count) / count
    }

    /// A copy of the curve with every throughput multiplied by
    /// `factor` — how a slower (or faster) device of the same shape is
    /// derived from a measured one when building deeper hierarchies.
    ///
    /// # Panics
    /// Panics unless `factor` is positive and finite.
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be positive, got {factor}"
        );
        let pts: Vec<(f64, f64)> = self.points.iter().map(|&(x, y)| (x, y * factor)).collect();
        Self::from_points(&pts)
    }

    /// The knee `γ*`: the smallest whole count whose aggregate
    /// throughput is within 5 % of the most the curve delivers at any
    /// whole count up to its last measured point. Adding streams past
    /// it buys nothing (a saturating curve) or loses bandwidth (a
    /// thrashing one), so it never lies past the curve's argmax.
    pub fn knee(&self) -> usize {
        let last = self.points[self.points.len() - 1].0.ceil().max(1.0) as usize;
        let best = (1..=last)
            .map(|g| self.at(g as f64))
            .fold(f64::MIN, f64::max);
        (1..=last)
            .find(|&g| self.at(g as f64) >= 0.95 * best)
            .expect("the argmax itself qualifies")
    }

    /// The measured points, ascending in `x`.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Maximum measured aggregate throughput.
    pub fn peak_measured(&self) -> f64 {
        self.points.iter().map(|p| p.1).fold(f64::MIN, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_multiplies_throughput_everywhere() {
        let c = ThroughputCurve::from_points(&[(1.0, 100.0), (4.0, 300.0)]);
        let s = c.scaled(0.25);
        for count in [1.0, 2.0, 4.0, 8.0] {
            assert!((s.at(count) - c.at(count) * 0.25).abs() < 1e-9);
        }
        assert_eq!(s.points().len(), 2);
    }

    /// The paper's Lassen-derived PFS curve from Sec. 6.1.
    fn lassen_pfs() -> ThroughputCurve {
        ThroughputCurve::from_points(&[
            (1.0, 330.0e6),
            (2.0, 730.0e6),
            (4.0, 1_540.0e6),
            (8.0, 2_870.0e6),
        ])
    }

    #[test]
    fn exact_at_measured_points() {
        let c = lassen_pfs();
        assert_eq!(c.at(1.0), 330.0e6);
        assert_eq!(c.at(2.0), 730.0e6);
        assert_eq!(c.at(4.0), 1_540.0e6);
        assert_eq!(c.at(8.0), 2_870.0e6);
    }

    #[test]
    fn interpolates_between_points() {
        let c = lassen_pfs();
        let mid = c.at(3.0);
        assert!((mid - (730.0e6 + 1_540.0e6) / 2.0).abs() < 1.0);
        assert!(c.at(6.0) > 1_540.0e6 && c.at(6.0) < 2_870.0e6);
    }

    #[test]
    fn extrapolates_with_regression() {
        let c = lassen_pfs();
        // The Lassen points are close to linear (~363 MB/s per client);
        // 16 clients should extrapolate to roughly 5.8 GB/s.
        let x16 = c.at(16.0);
        assert!(
            x16 > 5.0e9 && x16 < 6.5e9,
            "extrapolation out of plausible range: {x16}"
        );
    }

    #[test]
    fn extrapolation_never_negative() {
        // Strongly decreasing curve: regression line crosses zero.
        let c = ThroughputCurve::from_points(&[(1.0, 100.0), (2.0, 10.0)]);
        assert!(c.at(10.0) >= 1.0);
    }

    #[test]
    fn flat_curve_is_constant() {
        let c = ThroughputCurve::flat(5.0e9);
        assert_eq!(c.at(1.0), 5.0e9);
        assert_eq!(c.at(64.0), 5.0e9);
        assert_eq!(c.per_thread(4.0), 1.25e9);
    }

    #[test]
    fn per_thread_divides_aggregate() {
        let c = lassen_pfs();
        assert!((c.per_thread(8.0) - 2_870.0e6 / 8.0).abs() < 1.0);
    }

    #[test]
    fn points_are_sorted_on_construction() {
        let c = ThroughputCurve::from_points(&[(4.0, 40.0), (1.0, 10.0), (2.0, 20.0)]);
        let xs: Vec<f64> = c.points().iter().map(|p| p.0).collect();
        assert_eq!(xs, vec![1.0, 2.0, 4.0]);
    }

    #[test]
    fn peak_measured_is_max() {
        assert_eq!(lassen_pfs().peak_measured(), 2_870.0e6);
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn rejects_empty() {
        ThroughputCurve::from_points(&[]);
    }

    #[test]
    #[should_panic(expected = "duplicate measurement")]
    fn rejects_duplicate_x() {
        ThroughputCurve::from_points(&[(1.0, 10.0), (1.0, 20.0)]);
    }

    #[test]
    #[should_panic(expected = "throughput must be positive")]
    fn rejects_zero_rate() {
        ThroughputCurve::from_points(&[(1.0, 0.0)]);
    }

    #[test]
    #[should_panic(expected = "count must be positive")]
    fn rejects_zero_count_query() {
        ThroughputCurve::flat(1.0).at(0.0);
    }
}
