//! Token-bucket rate limiting.
//!
//! The runtime substrates (synthetic PFS, throttled storage backends,
//! modelled NICs) make real byte movement take *realistic* time by pacing
//! it through token buckets whose refill rates follow the performance
//! model's throughput curves. A bucket is shared by all threads using a
//! device, so aggregate throughput — not per-thread throughput — is what
//! is limited, matching the paper's aggregate `r_j(p)`, `w_j(p)`, and
//! `t(γ)` quantities.

use parking_lot::Mutex;
use std::time::{Duration, Instant};

use crate::timing::precise_wait;

#[derive(Debug)]
struct BucketState {
    /// Tokens currently available, in bytes.
    tokens: f64,
    /// Refill rate, bytes per wall second.
    rate: f64,
    /// Maximum token accumulation (burst), bytes.
    burst: f64,
    last_refill: Instant,
}

/// A thread-safe token bucket metering bytes per second.
///
/// `acquire(n)` blocks the calling thread until `n` bytes worth of tokens
/// are available, enforcing the configured aggregate rate across all
/// callers. Rates may be changed at runtime (`set_rate`), which is how the
/// synthetic PFS applies its reader-count-dependent `t(γ)` curve.
#[derive(Debug)]
pub struct TokenBucket {
    state: Mutex<BucketState>,
}

impl TokenBucket {
    /// Creates a bucket with the given rate (bytes/second) and burst
    /// capacity (bytes). The bucket starts full.
    ///
    /// # Panics
    /// Panics if `rate` or `burst` is not finite and positive.
    pub fn new(rate: f64, burst: f64) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "rate must be positive");
        assert!(burst.is_finite() && burst > 0.0, "burst must be positive");
        Self {
            state: Mutex::new(BucketState {
                tokens: burst,
                rate,
                burst,
                last_refill: Instant::now(),
            }),
        }
    }

    /// Convenience constructor: burst sized to `burst_seconds` of rate.
    pub fn with_burst_window(rate: f64, burst_seconds: f64) -> Self {
        Self::new(rate, (rate * burst_seconds).max(1.0))
    }

    /// Changes the refill rate (bytes/second), effective immediately.
    /// Outstanding waiters recompute their wait on wakeup.
    ///
    /// # Panics
    /// Panics if `rate` is not finite and positive.
    pub fn set_rate(&self, rate: f64) {
        assert!(rate.is_finite() && rate > 0.0, "rate must be positive");
        let mut s = self.state.lock();
        Self::refill(&mut s);
        s.rate = rate;
    }

    /// Current refill rate in bytes per second.
    pub fn rate(&self) -> f64 {
        self.state.lock().rate
    }

    fn refill(s: &mut BucketState) {
        let now = Instant::now();
        let dt = now.duration_since(s.last_refill).as_secs_f64();
        s.tokens = (s.tokens + dt * s.rate).min(s.burst);
        s.last_refill = now;
    }

    /// Blocks until `bytes` tokens are available, then consumes them.
    ///
    /// Uses debt-based pacing: tokens are consumed immediately (the
    /// balance may go negative) and the caller then waits until its own
    /// debt is repaid by the refill rate. Because debts queue up in lock
    /// order, concurrent callers are served FIFO at the aggregate rate,
    /// and requests larger than the burst capacity cannot deadlock. The
    /// [`precise_wait`] is shortened by what the thread's last sleep overran,
    /// which the refill credited too; as the bucket's schedule does not
    /// move, no caller gets ahead of it by more than one overshoot.
    ///
    /// A rate change made while a caller is already waiting does not
    /// retroactively shorten or lengthen that caller's wait; this
    /// approximation is fine for the gradual `t(γ)` adjustments the PFS
    /// regulator makes.
    pub fn acquire(&self, bytes: u64) {
        let bytes = bytes as f64;
        let wait = {
            let mut s = self.state.lock();
            Self::refill(&mut s);
            s.tokens -= bytes;
            if s.tokens >= 0.0 {
                None
            } else {
                Some(Duration::from_secs_f64(-s.tokens / s.rate))
            }
        };
        if let Some(d) = wait {
            precise_wait(d);
        }
    }

    /// Non-blocking attempt to take `bytes` tokens; returns whether the
    /// tokens were consumed.
    pub fn try_acquire(&self, bytes: u64) -> bool {
        let mut s = self.state.lock();
        Self::refill(&mut s);
        if s.tokens >= bytes as f64 {
            s.tokens -= bytes as f64;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn burst_is_instant() {
        let tb = TokenBucket::new(1_000_000.0, 1_000_000.0);
        let t0 = Instant::now();
        tb.acquire(500_000);
        assert!(t0.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn rate_is_enforced() {
        // 10 MB/s, tiny burst; moving 1 MB should take ~100 ms.
        let tb = TokenBucket::new(10_000_000.0, 10_000.0);
        // Drain the initial burst.
        tb.acquire(10_000);
        let t0 = Instant::now();
        for _ in 0..10 {
            tb.acquire(100_000);
        }
        let dt = t0.elapsed().as_secs_f64();
        assert!(dt > 0.07, "finished too fast: {dt}s");
        assert!(dt < 0.4, "finished too slow: {dt}s");
    }

    #[test]
    fn oversized_request_does_not_deadlock() {
        let tb = TokenBucket::new(10_000_000.0, 1_000.0);
        let t0 = Instant::now();
        tb.acquire(1_000_000); // 1000x the burst; ~100 ms at 10 MB/s
        let dt = t0.elapsed().as_secs_f64();
        assert!(dt > 0.05, "oversized transfer unrealistically fast: {dt}s");
        assert!(dt < 0.5);
    }

    #[test]
    fn aggregate_rate_across_threads() {
        let tb = Arc::new(TokenBucket::new(20_000_000.0, 10_000.0));
        tb.acquire(10_000);
        let t0 = Instant::now();
        let mut handles = vec![];
        for _ in 0..4 {
            let tb = Arc::clone(&tb);
            handles.push(std::thread::spawn(move || {
                for _ in 0..5 {
                    tb.acquire(100_000);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // 4 threads * 5 * 100 KB = 2 MB at 20 MB/s => ~100 ms aggregate.
        let dt = t0.elapsed().as_secs_f64();
        assert!(dt > 0.07, "aggregate pacing violated: {dt}s");
        assert!(dt < 0.5);
    }

    #[test]
    fn a_late_waiter_is_not_refunded_twice() {
        // The refill credits a waiter's timer overshoot, and so does the
        // thread's shortened next wait; together they must not add up.
        let (rate, burst, calls, bytes) = (10_000_000.0, 10_000.0, 200, 5_000);
        let tb = TokenBucket::new(rate, burst);
        let t0 = Instant::now();
        for _ in 0..calls {
            tb.acquire(bytes);
        }
        let dt = t0.elapsed().as_secs_f64();
        let floor = ((calls * bytes) as f64 - burst) / rate - 1e-3;
        assert!(dt >= floor, "finished in {dt}s, before {floor}s");
    }

    #[test]
    fn set_rate_takes_effect() {
        let tb = TokenBucket::new(1_000.0, 100.0);
        tb.acquire(100);
        tb.set_rate(10_000_000.0);
        let t0 = Instant::now();
        tb.acquire(1_000_000);
        assert!(t0.elapsed() < Duration::from_millis(400));
        assert_eq!(tb.rate(), 10_000_000.0);
    }

    #[test]
    fn try_acquire_semantics() {
        let tb = TokenBucket::new(1_000.0, 500.0);
        assert!(tb.try_acquire(400));
        assert!(!tb.try_acquire(400));
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn rejects_zero_rate() {
        TokenBucket::new(0.0, 1.0);
    }
}
