//! Fault injection and the retry schedule for the storage hierarchy.
//!
//! Production traces of ML storage backends (and the cloud-storage
//! characterization literature) show transient read errors are the
//! norm, not the exception: loaders must retry with backoff rather
//! than crash. This module provides the injecting half as a
//! [`DataSource`] wrapper, so it slots *beneath* a
//! [`crate::TierStack`] — typically around the PFS origin — without the
//! fetch paths above knowing, and the schedule the retrying half runs:
//!
//! - [`FaultySource`] deterministically injects transient
//!   [`SourceError::Io`] failures on reads, in bounded bursts, from a
//!   seed (the same seed reproduces the same failure pattern);
//! - [`RetryPolicy`] is a seeded, capped, full-jitter exponential
//!   backoff. The retry loop that follows it is
//!   [`crate::ResilientSource`]'s; [`crate::ResilienceConfig::retry_only`]
//!   is that wrapper with nothing but the loop. It retries retryable
//!   failures (per the [`crate::ErrorClass`] taxonomy) and refuses to
//!   retry permanent ones ([`SourceError::NotFound`] /
//!   [`SourceError::Full`] / [`SourceError::Unavailable`] — a missing
//!   sample does not come back, no matter how often one asks).
//!
//! Stacked as `ResilientSource(FaultySource(origin))` with a retry
//! budget exceeding the burst bound, every read eventually succeeds —
//! the "transient by construction" contract the elastic runtime's
//! fault plans rely on.

use crate::tier::{DataSource, SourceError};
use crate::SampleId;
use bytes::Bytes;
use nopfs_util::rng::mix64;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Converts a hash to a uniform draw in `[0, 1)`.
pub(crate) fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Configuration of deterministic transient-error injection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorInjection {
    /// Probability that a fresh read starts a failure burst.
    pub rate: f64,
    /// Maximum consecutive failures per burst (≥ 1). A retry budget
    /// larger than this bound is guaranteed to succeed eventually.
    pub max_burst: u32,
    /// Seed of the failure pattern.
    pub seed: u64,
}

impl ErrorInjection {
    /// A new injection spec.
    ///
    /// # Panics
    /// Panics on a rate outside `[0, 1)` or a zero burst bound.
    pub fn new(rate: f64, max_burst: u32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&rate), "rate must be in [0, 1)");
        assert!(max_burst >= 1, "bursts contain at least one failure");
        Self {
            rate,
            max_burst,
            seed,
        }
    }
}

/// Per-sample burst state of a [`FaultySource`].
#[derive(Debug, Clone, Copy, Default)]
struct BurstState {
    /// Failures still owed in the current burst.
    pending: u32,
    /// Bursts started so far (the per-id draw counter).
    bursts: u64,
    /// The read right after a burst is guaranteed to succeed, bounding
    /// consecutive failures at `max_burst` regardless of draws.
    cooldown: bool,
}

/// A [`DataSource`] wrapper injecting transient read errors in bounded
/// bursts: when a read of sample `k` draws a failure (probability
/// `rate`, deterministic in the seed and the per-sample draw count),
/// the next `1..=max_burst` reads of `k` fail with
/// [`SourceError::Io`], after which one read is guaranteed clean.
/// Writes and metadata are untouched.
pub struct FaultySource {
    inner: Arc<dyn DataSource>,
    spec: ErrorInjection,
    state: Mutex<HashMap<SampleId, BurstState>>,
    injected: AtomicU64,
}

impl std::fmt::Debug for FaultySource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultySource")
            .field("inner", &self.inner.name())
            .field("spec", &self.spec)
            .field("injected", &self.injected)
            .finish()
    }
}

impl FaultySource {
    /// Wraps `inner` with the given injection spec.
    pub fn new(inner: Arc<dyn DataSource>, spec: ErrorInjection) -> Self {
        Self {
            inner,
            spec,
            state: Mutex::new(HashMap::new()),
            injected: AtomicU64::new(0),
        }
    }

    /// Total injected failures so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Whether this read should fail (and bookkeeping for the burst).
    fn should_fail(&self, id: SampleId) -> bool {
        let mut st = self.state.lock();
        let s = st.entry(id).or_default();
        if s.pending > 0 {
            s.pending -= 1;
            s.cooldown = s.pending == 0;
            return true;
        }
        if s.cooldown {
            s.cooldown = false;
            return false;
        }
        let h = mix64(self.spec.seed, mix64(id, s.bursts));
        s.bursts += 1;
        if unit(h) < self.spec.rate {
            // Burst length 1..=max_burst; this read is the first failure.
            s.pending = (h >> 32) as u32 % self.spec.max_burst;
            s.cooldown = s.pending == 0;
            return true;
        }
        false
    }
}

impl DataSource for FaultySource {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn read(&self, id: SampleId) -> Result<Bytes, SourceError> {
        if self.should_fail(id) {
            self.injected.fetch_add(1, Ordering::Relaxed);
            return Err(SourceError::Io(format!(
                "injected transient fault on sample {id}"
            )));
        }
        self.inner.read(id)
    }

    fn write(&self, id: SampleId, data: Bytes) -> Result<(), SourceError> {
        self.inner.write(id, data)
    }

    fn contains(&self, id: SampleId) -> bool {
        self.inner.contains(id)
    }

    fn capacity(&self) -> Option<u64> {
        self.inner.capacity()
    }

    fn used(&self) -> u64 {
        self.inner.used()
    }

    fn evict(&self, id: SampleId) -> bool {
        self.inner.evict(id)
    }

    fn count(&self) -> usize {
        self.inner.count()
    }

    fn size_of(&self, id: SampleId) -> Option<u64> {
        self.inner.size_of(id)
    }
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
    use crate::backend::{MemoryBackend, StorageBackend};
    use crate::resilience::{ResilienceConfig, ResilientSource};
    use nopfs_util::timing::TimeScale;

    fn mem_with(ids: &[SampleId]) -> Arc<dyn DataSource> {
        let m = MemoryBackend::new("mem", 1_000_000);
        for &id in ids {
            m.insert(id, Bytes::from(vec![id as u8; 8])).unwrap();
        }
        Arc::new(m)
    }

    /// The plain retry: a [`ResilientSource`] with nothing but the loop.
    fn retrying(inner: Arc<dyn DataSource>, attempts: u32) -> ResilientSource {
        let policy = RetryPolicy::new(attempts, Duration::from_micros(10), 0.5, 7);
        ResilientSource::new(
            inner,
            ResilienceConfig::retry_only(policy),
            TimeScale::realtime(),
        )
    }

    #[test]
    fn permanent_errors_are_never_retried() {
        // NotFound: a single attempt, returned verbatim.
        let retry = retrying(mem_with(&[]), 5);
        assert_eq!(retry.read(9), Err(SourceError::NotFound(9)));
        let stats = retry.resilience().unwrap();
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
        let deadline = SourceError::DeadlineExceeded {
            deadline: Duration::from_millis(5),
        };
        assert_eq!(SourceError::Io("x".into()).class(), ErrorClass::Transient);
        assert_eq!(throttled.class(), ErrorClass::Throttled);
        assert_eq!(deadline.class(), ErrorClass::DeadlineExceeded);
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
        assert!(throttled.is_retryable() && deadline.is_retryable());
        assert!(!SourceError::Unavailable("open".into()).is_retryable());
    }

    #[test]
    fn injected_bursts_are_bounded_and_deterministic() {
        let spec = ErrorInjection::new(0.3, 3, 0xFA);
        let run = || {
            let f = FaultySource::new(mem_with(&[0, 1, 2, 3]), spec);
            let mut outcomes = Vec::new();
            for _ in 0..200 {
                for id in 0..4u64 {
                    outcomes.push(f.read(id).is_ok());
                }
            }
            (outcomes, f.injected())
        };
        let (a, injected) = run();
        let (b, _) = run();
        assert_eq!(a, b, "same seed, same failure pattern");
        assert!(injected > 0, "rate 0.3 over 800 reads must inject");
        // Burst bound: per id, never more than max_burst consecutive
        // failures (a success always follows within 3).
        for id in 0..4usize {
            let per_id: Vec<bool> = a.iter().skip(id).step_by(4).copied().collect();
            let mut consecutive = 0u32;
            for ok in per_id {
                if ok {
                    consecutive = 0;
                } else {
                    consecutive += 1;
                    assert!(consecutive <= 3, "burst exceeded bound on sample {id}");
                }
            }
        }
    }

    #[test]
    fn retry_over_injection_always_succeeds() {
        // attempts > max_burst: the cooldown guarantee makes every read
        // eventually succeed, whatever the seed.
        for seed in 0..20u64 {
            let faulty = Arc::new(FaultySource::new(
                mem_with(&[0, 1, 2]),
                ErrorInjection::new(0.45, 2, seed),
            ));
            let retry = retrying(faulty, 4);
            for round in 0..50 {
                for id in 0..3u64 {
                    let data = retry
                        .read(id)
                        .unwrap_or_else(|e| panic!("seed {seed} round {round}: {e}"));
                    assert_eq!(data[0], id as u8);
                }
            }
            assert_eq!(retry.resilience().unwrap().exhausted, 0);
        }
    }

    #[test]
    fn metadata_and_writes_pass_through_both_wrappers() {
        let faulty = Arc::new(FaultySource::new(
            mem_with(&[5]),
            ErrorInjection::new(0.0, 1, 0),
        ));
        let retry = retrying(faulty, 2);
        assert_eq!(retry.name(), "mem");
        assert!(retry.contains(5));
        assert_eq!(retry.size_of(5), Some(8));
        retry.write(6, Bytes::from_static(b"abcd")).unwrap();
        assert_eq!(retry.count(), 2);
        assert!(retry.evict(6));
        assert_eq!(retry.count(), 1);
    }
}
