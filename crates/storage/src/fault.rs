//! The retry schedule for the storage hierarchy.
//!
//! Production traces of ML storage backends (and the cloud-storage
//! characterization literature) show transient read errors are the
//! norm, not the exception: loaders must retry with backoff rather
//! than crash. [`RetryPolicy`] is a seeded, capped, full-jitter
//! exponential backoff, and [`RetryPolicy::backoff`] is the workspace's
//! one backoff formula. The decision that follows it is
//! [`crate::ResilienceCore::on_failure`]'s, which both the runtime's
//! [`crate::ResilientSource`] and the simulator's cloud model run;
//! [`crate::ResilienceConfig::retry_only`] is that client with nothing
//! but the retry. It retries retryable failures (per the
//! [`crate::ErrorClass`] taxonomy) and refuses to retry permanent ones
//! ([`crate::SourceError::NotFound`] /
//! [`crate::SourceError::Full`] / [`crate::SourceError::Unavailable`]
//! — a missing sample does not come back, no matter how often one
//! asks).
//!
//! The runtime's transient read errors are planted in the PFS itself
//! (`nopfs_policy::ReadErrors`), beneath every loader's origin retry
//! loop; a retry budget above their burst bound makes every read
//! eventually succeed.

use nopfs_util::rng::mix64;
use std::time::Duration;

/// Converts a hash to a uniform draw in `[0, 1)`.
pub(crate) fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Retry schedule: bounded attempts with capped exponential backoff and
/// seeded *full jitter* (the AWS-recommended decorrelation scheme —
/// each sleep is drawn from an interval below the exponential ceiling,
/// so synchronized clients spread out instead of retrying in lockstep).
/// Pure — [`RetryPolicy::backoff`] is a function of the attempt number
/// and a draw counter, so jitter bounds are testable without clocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total read attempts, including the first (≥ 1).
    pub attempts: u32,
    /// Backoff ceiling before the first retry; doubles per further
    /// retry until it reaches `max_backoff`.
    pub base_backoff: Duration,
    /// Jitter fraction in `[0, 1]`: each backoff is drawn uniformly
    /// from `ceiling · [1 - jitter, 1]`. `1` is canonical full jitter
    /// (anywhere below the ceiling), `0` is deterministic exponential
    /// backoff.
    pub jitter: f64,
    /// Seed of the jitter sequence.
    pub seed: u64,
    /// Hard cap on the backoff ceiling: the exponential stops doubling
    /// here, so high attempt counts neither overflow nor produce
    /// unrealistic multi-hour sleeps.
    pub max_backoff: Duration,
}

impl RetryPolicy {
    /// A new policy with the default backoff cap of `1024 × base`.
    ///
    /// # Panics
    /// Panics on zero attempts or jitter outside `[0, 1]`.
    pub fn new(attempts: u32, base_backoff: Duration, jitter: f64, seed: u64) -> Self {
        assert!(attempts >= 1, "at least one attempt");
        assert!((0.0..=1.0).contains(&jitter), "jitter must be in [0, 1]");
        Self {
            attempts,
            base_backoff,
            jitter,
            seed,
            max_backoff: base_backoff.saturating_mul(1024),
        }
    }

    /// Replaces the backoff ceiling cap.
    #[must_use]
    pub fn with_max_backoff(mut self, max_backoff: Duration) -> Self {
        self.max_backoff = max_backoff;
        self
    }

    /// The exponential ceiling before retry number `retry` (0-based):
    /// `min(base · 2^retry, max_backoff)`, computed in floating point so
    /// arbitrarily high attempt counts saturate at the cap instead of
    /// overflowing a shift.
    pub fn ceiling(&self, retry: u32) -> Duration {
        let exp = 2f64.powi(retry.min(1024) as i32);
        let secs = (self.base_backoff.as_secs_f64() * exp).min(self.max_backoff.as_secs_f64());
        Duration::from_secs_f64(secs)
    }

    /// The backoff before retry number `retry` (0-based), using `draw`
    /// as the jitter counter. Always within
    /// `ceiling(retry) · [1 - jitter, 1]`.
    pub fn backoff(&self, retry: u32, draw: u64) -> Duration {
        let u = unit(mix64(self.seed, draw));
        let factor = (1.0 - self.jitter) + self.jitter * u;
        Duration::from_secs_f64(self.ceiling(retry).as_secs_f64() * factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::tests::{mem_with, retry_only, FailNTimes};
    use crate::tier::{DataSource, SourceError};
    use bytes::Bytes;
    use std::sync::Arc;

    #[test]
    fn permanent_errors_are_never_retried() {
        // NotFound: a single attempt, returned verbatim.
        let retry = retry_only(mem_with(&[]), 5);
        assert_eq!(retry.read(9), Err(SourceError::NotFound(9)));
        let stats = retry.stats();
        assert_eq!((stats.reads, stats.retries, stats.exhausted), (1, 0, 0));
    }

    #[test]
    fn full_jitter_stays_within_documented_bounds() {
        let p = RetryPolicy::new(8, Duration::from_millis(10), 0.25, 0xBEEF);
        for retry in 0..4u32 {
            let ceil = 0.010 * f64::from(1u32 << retry);
            let (lo, hi) = (ceil * 0.75, ceil);
            let mut spread = (f64::MAX, f64::MIN);
            for draw in 0..200u64 {
                let b = p.backoff(retry, draw).as_secs_f64();
                assert!(
                    (lo..=hi).contains(&b),
                    "retry {retry} draw {draw}: {b} outside [{lo}, {hi}]"
                );
                spread = (spread.0.min(b), spread.1.max(b));
            }
            // The jitter actually jitters: draws spread over the range.
            assert!(spread.1 - spread.0 > 0.2 * (hi - lo));
        }
        // Canonical full jitter spans all the way down to (near) zero.
        let full = RetryPolicy::new(8, Duration::from_millis(10), 1.0, 0xBEEF);
        let draws: Vec<f64> = (0..500u64)
            .map(|d| full.backoff(0, d).as_secs_f64())
            .collect();
        assert!(draws.iter().all(|&b| (0.0..=0.010).contains(&b)));
        assert!(draws.iter().any(|&b| b < 0.002), "low tail never drawn");
        assert!(draws.iter().any(|&b| b > 0.008), "high tail never drawn");
        // Zero jitter is exact capped exponential backoff.
        let p0 = RetryPolicy::new(3, Duration::from_millis(10), 0.0, 1);
        assert_eq!(p0.backoff(2, 42), Duration::from_millis(40));
    }

    #[test]
    fn backoff_exponent_is_capped_at_high_attempt_counts() {
        // The pinning test for attempt ≥ 32: the old `1u32 << retry`
        // shift would overflow there. The ceiling must saturate at
        // `max_backoff` and stay finite for ANY attempt number.
        let p = RetryPolicy::new(64, Duration::from_millis(1), 0.0, 7)
            .with_max_backoff(Duration::from_millis(250));
        assert_eq!(p.ceiling(0), Duration::from_millis(1));
        assert_eq!(p.ceiling(7), Duration::from_millis(128));
        // From retry 8 on (2^8 ms > 250 ms) the cap rules.
        for retry in [8, 31, 32, 33, 64, 1_000, u32::MAX] {
            assert_eq!(
                p.ceiling(retry),
                Duration::from_millis(250),
                "retry {retry}"
            );
            assert_eq!(p.backoff(retry, 0), Duration::from_millis(250));
        }
        // Default cap: 1024 × base, so u32::MAX attempts stay sane.
        let d = RetryPolicy::new(2, Duration::from_micros(100), 0.0, 7);
        assert_eq!(d.ceiling(u32::MAX), Duration::from_micros(100) * 1024);
        // Full jitter below the cap still spans the documented range.
        let j = p.with_max_backoff(Duration::from_millis(100));
        let b = j.backoff(u32::MAX, 3).as_secs_f64();
        assert!((0.0..=0.100).contains(&b));
    }

    #[test]
    fn taxonomy_classifies_and_gates_retries() {
        use crate::tier::ErrorClass;
        let throttled = SourceError::Throttled {
            retry_after: Duration::from_millis(1),
        };
        assert_eq!(SourceError::Io("x".into()).class(), ErrorClass::Transient);
        assert_eq!(throttled.class(), ErrorClass::Throttled);
        assert_eq!(SourceError::NotFound(1).class(), ErrorClass::Permanent);
        assert_eq!(
            SourceError::Full {
                needed: 1,
                available: 0
            }
            .class(),
            ErrorClass::Permanent
        );
        assert_eq!(
            SourceError::Unavailable("open".into()).class(),
            ErrorClass::Permanent
        );
        assert!(throttled.is_retryable());
        assert!(!SourceError::Unavailable("open".into()).is_retryable());
    }

    #[test]
    fn retry_over_injection_always_succeeds() {
        // attempts > burst: every read eventually succeeds, each failed
        // attempt costing exactly one retry.
        for burst in 0..4u64 {
            let faulty = Arc::new(FailNTimes::new(
                mem_with(&[0, 1, 2]),
                SourceError::Io("burst".into()),
                burst,
            ));
            let retry = retry_only(faulty.clone(), burst as u32 + 1);
            for round in 0..50 {
                for id in 0..3u64 {
                    let data = retry
                        .read(id)
                        .unwrap_or_else(|e| panic!("burst {burst} round {round}: {e}"));
                    assert_eq!(data[0], id as u8);
                }
            }
            let stats = retry.stats();
            assert_eq!(stats.exhausted, 0);
            assert_eq!(stats.retries, faulty.failures());
            assert_eq!(stats.retries, 150 * burst);
        }
    }

    #[test]
    fn metadata_and_writes_pass_through_both_wrappers() {
        let faulty = Arc::new(FailNTimes::new(
            mem_with(&[5]),
            SourceError::Io("unused".into()),
            0,
        ));
        let retry = retry_only(faulty, 2);
        assert_eq!(retry.name(), "mem");
        assert!(retry.contains(5));
        assert_eq!(retry.size_of(5), Some(8));
        retry.write(6, Bytes::from_static(b"abcd")).unwrap();
        assert_eq!(retry.count(), 2);
        assert!(retry.evict(6));
        assert_eq!(retry.count(), 1);
    }
}
