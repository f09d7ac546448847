//! Time scaling and precise waits for the runtime experiments.
//!
//! The paper's experiments span minutes to hours on 32–1024 GPUs; the
//! reproduction runs scaled-down versions in seconds on a handful of
//! threads. [`TimeScale`] maps *model seconds* (the performance model's
//! unit) to *wall time*, and [`precise_wait`] sleeps through them: each
//! thread's waits total the model's to within one timer overshoot, and
//! a single wait jitters by about that overshoot, with no thread spinning.

use std::cell::Cell;
use std::time::{Duration, Instant};

thread_local! {
    /// How far this thread's last sleep overran its request, not yet
    /// taken off a later wait.
    static DEBT: Cell<Duration> = const { Cell::new(Duration::ZERO) };
}

/// Waits for `d`, less what the calling thread's earlier sleeps overran.
///
/// A wait no longer than that debt returns at once and reduces it; a
/// longer one sleeps for the difference, and the sleep's overshoot
/// becomes the debt, so the debt never exceeds one overshoot. The time a
/// thread spends in its waits is their sum plus its debt: never less (a
/// thread's first wait is never early) and at most one overshoot more.
/// Zero-length waits return immediately.
pub fn precise_wait(d: Duration) {
    if d.is_zero() {
        return;
    }
    DEBT.with(|debt| {
        let owed = debt.get();
        if d <= owed {
            debt.set(owed - d);
        } else {
            let sleep = d - owed;
            let start = Instant::now();
            std::thread::sleep(sleep);
            debt.set(start.elapsed().saturating_sub(sleep));
        }
    });
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

    /// Runs `f` on a thread of its own, which owes no overshoot yet.
    fn on_fresh_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        std::thread::spawn(f).join().unwrap()
    }

    fn debt() -> Duration {
        DEBT.with(Cell::get)
    }

    #[test]
    fn back_to_back_waits_never_total_short() {
        // One wait may end early by the overshoot its thread's last
        // sleep carried over, so what holds is the total: k waits take
        // at least k·d, for every k. How far past that they return is
        // the scheduler's doing, so only the lower side is held.
        on_fresh_thread(|| {
            let target = Duration::from_micros(100);
            let t0 = Instant::now();
            for k in 1..=20u32 {
                precise_wait(target);
                let e = t0.elapsed();
                assert!(e >= target * k, "{k} waits of {target:?} took {e:?}");
            }
        });
    }

    #[test]
    fn a_fresh_threads_first_wait_is_never_early() {
        for us in [1, 50, 300] {
            let target = Duration::from_micros(us);
            let e = on_fresh_thread(move || {
                assert_eq!(debt(), Duration::ZERO);
                let t0 = Instant::now();
                precise_wait(target);
                t0.elapsed()
            });
            assert!(e >= target, "returned early: {e:?} < {target:?}");
        }
    }

    #[test]
    fn a_wait_within_the_debt_does_not_sleep_and_the_debt_stays_under_one_overshoot() {
        on_fresh_thread(|| {
            let waits = [100_000, 1_000, 2_000, 50_000, 500].map(Duration::from_nanos);
            let (mut paid_from_debt, mut last_overshoot) = (0, Duration::ZERO);
            for &target in waits.iter().cycle().take(200) {
                let owed = debt();
                let t0 = Instant::now();
                precise_wait(target);
                let e = t0.elapsed();
                let owes = debt();
                if target <= owed {
                    // No sleep: the debt falls by exactly the wait.
                    assert_eq!(owes, owed - target);
                    paid_from_debt += 1;
                } else {
                    // Slept `target - owed`; the caller saw it overrun
                    // by at least what the thread now owes.
                    last_overshoot = e.saturating_sub(target - owed);
                }
                assert!(owes <= last_overshoot, "{owes:?} > {last_overshoot:?}");
            }
            assert!(paid_from_debt > 0, "no wait fell within a debt");
        });
    }

    /// CPU time the calling thread has used.
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    fn thread_cpu_time() -> Duration {
        extern "C" {
            fn clock_gettime(clock: i32, ts: *mut [i64; 2]) -> i32;
        }
        const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
        let mut ts = [0i64; 2];
        // SAFETY: `ts` is a live buffer laid out as a 64-bit Linux
        // `timespec` (seconds, nanoseconds); the call keeps no pointer.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime: {}", std::io::Error::last_os_error());
        Duration::new(ts[0] as u64, ts[1] as u32)
    }

    #[test]
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    fn waits_sleep_instead_of_spinning() {
        on_fresh_thread(|| {
            let (wall, cpu) = (Instant::now(), thread_cpu_time());
            for _ in 0..40 {
                precise_wait(Duration::from_micros(300));
            }
            let (wall, cpu) = (wall.elapsed(), thread_cpu_time() - cpu);
            assert!(cpu * 4 < wall, "40 waits used {cpu:?} of CPU in {wall:?}");
        });
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
