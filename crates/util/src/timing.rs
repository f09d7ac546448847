//! Time scaling and precise waits for the runtime experiments.
//!
//! The paper's experiments span minutes to hours on 32–1024 GPUs; the
//! reproduction runs scaled-down versions in seconds on a handful of
//! threads. [`TimeScale`] maps *model seconds* (the performance model's
//! unit) to *wall time*, and [`precise_wait`] implements a hybrid
//! sleep/spin delay so that even sub-millisecond scaled durations keep
//! their correct relative magnitudes (plain `thread::sleep` has ~50 µs+
//! granularity and would flatten the distributions the violin plots in
//! Figs. 10–15 depend on).

use std::time::{Duration, Instant};

/// Threshold below which we spin instead of sleeping; OS sleep overshoot
/// is typically tens of microseconds, so sleeping for less than this is
/// mostly noise.
const SPIN_THRESHOLD: Duration = Duration::from_micros(200);

/// Waits for approximately `d`, combining `thread::sleep` for the bulk of
/// the interval with a spin loop for the final stretch.
///
/// Accuracy is a few microseconds, versus tens to hundreds for a bare
/// sleep. Zero-length waits return immediately.
pub fn precise_wait(d: Duration) {
    if d.is_zero() {
        return;
    }
    let deadline = Instant::now() + d;
    if d > SPIN_THRESHOLD {
        std::thread::sleep(d - SPIN_THRESHOLD);
    }
    while Instant::now() < deadline {
        std::hint::spin_loop();
    }
}

/// Maps model time (the unit of the paper's performance model) to wall
/// time for the runtime experiments.
///
/// A scale of `1e-4` runs a modelled 1000-second epoch in 100 ms of wall
/// time. The mapping is linear, so ratios between policies — the
/// reproduction target — are preserved exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeScale {
    /// Wall seconds per model second.
    wall_per_model: f64,
}

impl TimeScale {
    /// Creates a scale with `wall_per_model` wall seconds per model second.
    ///
    /// # Panics
    /// Panics unless `wall_per_model` is finite and positive.
    pub fn new(wall_per_model: f64) -> Self {
        assert!(
            wall_per_model.is_finite() && wall_per_model > 0.0,
            "time scale must be positive"
        );
        Self { wall_per_model }
    }

    /// Identity scale: model seconds run in real time.
    pub fn realtime() -> Self {
        Self::new(1.0)
    }

    /// Wall seconds per model second.
    pub fn factor(&self) -> f64 {
        self.wall_per_model
    }

    /// Converts model seconds to a wall-clock duration.
    pub fn to_wall(&self, model_seconds: f64) -> Duration {
        debug_assert!(model_seconds >= 0.0, "negative model time");
        Duration::from_secs_f64((model_seconds * self.wall_per_model).max(0.0))
    }

    /// Converts an observed wall duration back to model seconds.
    pub fn to_model(&self, wall: Duration) -> f64 {
        wall.as_secs_f64() / self.wall_per_model
    }

    /// Scales a bandwidth given in model bytes/model-second into the
    /// equivalent wall bytes/wall-second (bandwidths shrink when time is
    /// compressed, because the same bytes must take fewer wall seconds...
    /// i.e. rates *grow* by `1/factor`).
    pub fn rate_to_wall(&self, model_bytes_per_sec: f64) -> f64 {
        model_bytes_per_sec / self.wall_per_model
    }

    /// Blocks for `model_seconds` of model time.
    pub fn wait(&self, model_seconds: f64) {
        precise_wait(self.to_wall(model_seconds));
    }
}

impl Default for TimeScale {
    fn default() -> Self {
        Self::realtime()
    }
}

/// A simple stopwatch measuring wall time, convertible to model time.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Elapsed wall time.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Restarts the stopwatch, returning the elapsed wall time up to now.
    pub fn lap(&mut self) -> Duration {
        let e = self.start.elapsed();
        self.start = Instant::now();
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precise_wait_zero_is_instant() {
        let t0 = Instant::now();
        precise_wait(Duration::ZERO);
        assert!(t0.elapsed() < Duration::from_millis(1));
    }

    #[test]
    fn precise_wait_never_returns_early_on_a_spun_wait() {
        // 100 µs is below the spin threshold: the whole wait is spun.
        // How far past the deadline it returns is the scheduler's
        // doing, not this function's, so only the lower side is held.
        let target = Duration::from_micros(100);
        for _ in 0..20 {
            let t0 = Instant::now();
            precise_wait(target);
            let e = t0.elapsed();
            assert!(e >= target, "returned early: {e:?}");
        }
    }

    #[test]
    fn precise_wait_accuracy_long() {
        let target = Duration::from_millis(20);
        let t0 = Instant::now();
        precise_wait(target);
        let e = t0.elapsed();
        assert!(e >= target);
        assert!(e < target + Duration::from_millis(10), "overshoot: {e:?}");
    }

    #[test]
    fn timescale_roundtrip() {
        let ts = TimeScale::new(1e-3);
        let wall = ts.to_wall(5.0);
        assert_eq!(wall, Duration::from_secs_f64(0.005));
        assert!((ts.to_model(wall) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn timescale_rate_conversion() {
        // Compressing time 1000x means rates must be 1000x faster on the
        // wall clock to move the same bytes per model second.
        let ts = TimeScale::new(1e-3);
        assert!((ts.rate_to_wall(10.0) - 10_000.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn timescale_rejects_zero() {
        TimeScale::new(0.0);
    }

    #[test]
    fn stopwatch_laps() {
        let mut sw = Stopwatch::start();
        precise_wait(Duration::from_millis(2));
        let lap = sw.lap();
        assert!(lap >= Duration::from_millis(2));
        let after = sw.elapsed();
        assert!(after < lap, "lap should reset the stopwatch");
    }

    #[test]
    fn default_is_realtime() {
        assert_eq!(TimeScale::default().factor(), 1.0);
    }
}
