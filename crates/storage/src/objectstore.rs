//! An object-store origin tier: S3-like request economics behind the
//! [`DataSource`] trait.
//!
//! Training fleets increasingly read datasets from object stores whose
//! behavior is nothing like a PFS (arxiv 2108.06322): every request
//! pays a **latency floor** regardless of size, aggregate throughput is
//! **parallelism-dependent** (a single stream cannot saturate the
//! fabric), small adjacent objects are cheaper **coalesced** into range
//! requests, and the service misbehaves in characteristic ways — tail
//! **latency spikes**, explicit **throttling** (HTTP 503 "slow down"),
//! and **brownout windows** where both get worse at once.
//!
//! [`ObjectStoreBackend`] models all of that over any inner
//! [`DataSource`] (an in-memory object map, or the synthetic PFS when
//! the runtime treats the cloud store as the true origin). The
//! disturbance model is fully seeded and *bounded*: throttle bursts use
//! the same bounded-burst-plus-cooldown scheme as
//! [`crate::FaultySource`], so a retry budget above the burst bound is
//! guaranteed to succeed — disturbances change *when* bytes arrive,
//! never *which* bytes, which is what keeps disturbed global sample
//! streams bit-identical to fault-free runs.

use crate::fault::unit;
use crate::tier::{DataSource, SourceError};
use crate::SampleId;
use bytes::Bytes;
use nopfs_perfmodel::ThroughputCurve;
use nopfs_util::rate::TokenBucket;
use nopfs_util::rng::mix64;
use nopfs_util::timing::TimeScale;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One window of degraded service, in model-seconds since the store
/// was built.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrownoutWindow {
    /// Window start, model seconds.
    pub start: f64,
    /// Window length, model seconds.
    pub duration: f64,
    /// Latency multiplier (and throughput divisor) inside the window
    /// (≥ 1).
    pub latency_factor: f64,
    /// Additional probability that a request inside the window opens a
    /// throttle burst.
    pub throttle_rate: f64,
}

impl BrownoutWindow {
    /// Whether `now` falls inside the window.
    pub fn contains(&self, now: f64) -> bool {
        now >= self.start && now < self.start + self.duration
    }
}

/// Seeded disturbance model: spikes, throttles, brownouts.
#[derive(Debug, Clone, PartialEq)]
pub struct Disturbance {
    /// Probability that a request draws a tail-latency spike.
    pub spike_rate: f64,
    /// Latency multiplier of a spiked request (≥ 1).
    pub spike_factor: f64,
    /// Baseline probability that a fresh request opens a throttle
    /// burst.
    pub throttle_rate: f64,
    /// Maximum consecutive [`SourceError::Throttled`] responses per
    /// sample (≥ 1); one clean read is guaranteed after each burst.
    pub throttle_burst: u32,
    /// `retry_after` hint attached to throttle responses, model
    /// seconds.
    pub retry_after: f64,
    /// Scheduled brownout windows.
    pub brownouts: Vec<BrownoutWindow>,
    /// Seed of the spike/throttle pattern.
    pub seed: u64,
}

impl Disturbance {
    /// A quiet model: no spikes, no throttles, no brownouts.
    pub fn none(seed: u64) -> Self {
        Self {
            spike_rate: 0.0,
            spike_factor: 1.0,
            throttle_rate: 0.0,
            throttle_burst: 1,
            retry_after: 0.0,
            brownouts: Vec::new(),
            seed,
        }
    }

    /// Latency factor and extra throttle probability at model time
    /// `now` (the strongest active brownout wins).
    pub fn brownout_at(&self, now: f64) -> (f64, f64) {
        let mut factor = 1.0f64;
        let mut throttle = 0.0f64;
        for w in &self.brownouts {
            if w.contains(now) {
                factor = factor.max(w.latency_factor);
                throttle = throttle.max(w.throttle_rate);
            }
        }
        (factor, throttle)
    }

    /// Validates rates and factors.
    ///
    /// # Errors
    /// A description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..1.0).contains(&self.spike_rate) {
            return Err(format!("spike_rate {} outside [0, 1)", self.spike_rate));
        }
        if self.spike_factor < 1.0 {
            return Err(format!("spike_factor {} below 1", self.spike_factor));
        }
        if !(0.0..1.0).contains(&self.throttle_rate) {
            return Err(format!(
                "throttle_rate {} outside [0, 1)",
                self.throttle_rate
            ));
        }
        if self.throttle_burst < 1 {
            return Err("throttle_burst must be at least 1".into());
        }
        if self.retry_after < 0.0 {
            return Err(format!("retry_after {} negative", self.retry_after));
        }
        for (i, w) in self.brownouts.iter().enumerate() {
            if w.start < 0.0 || w.duration < 0.0 {
                return Err(format!("brownout {i} has a negative start or duration"));
            }
            if w.latency_factor < 1.0 {
                return Err(format!("brownout {i} latency_factor below 1"));
            }
            if !(0.0..1.0).contains(&w.throttle_rate) {
                return Err(format!("brownout {i} throttle_rate outside [0, 1)"));
            }
        }
        Ok(())
    }
}

/// Object-store performance parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectStoreConfig {
    /// Per-request latency floor, model seconds (time-to-first-byte).
    pub latency_floor: f64,
    /// Aggregate throughput as a function of concurrent requests,
    /// model bytes/s.
    pub curve: ThroughputCurve,
    /// Longest run of adjacent sample ids [`DataSource::read_each`]
    /// merges into one request (≥ 1; 1 disables coalescing).
    pub max_coalesce: usize,
    /// Disturbances; `None` = ideally behaved store.
    pub disturbance: Option<Disturbance>,
}

impl ObjectStoreConfig {
    /// A well-behaved store.
    ///
    /// # Panics
    /// Panics on a negative latency floor or zero `max_coalesce`.
    pub fn new(latency_floor: f64, curve: ThroughputCurve, max_coalesce: usize) -> Self {
        assert!(
            latency_floor.is_finite() && latency_floor >= 0.0,
            "latency floor must be non-negative"
        );
        assert!(max_coalesce >= 1, "max_coalesce must be at least 1");
        Self {
            latency_floor,
            curve,
            max_coalesce,
            disturbance: None,
        }
    }

    /// Adds a disturbance model.
    ///
    /// # Panics
    /// Panics when the disturbance fails validation.
    #[must_use]
    pub fn with_disturbance(mut self, disturbance: Disturbance) -> Self {
        disturbance.validate().expect("valid disturbance");
        self.disturbance = Some(disturbance);
        self
    }
}

/// Request-level statistics of an [`ObjectStoreBackend`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObjectStoreStats {
    /// Requests issued (a coalesced run counts once).
    pub requests: u64,
    /// Samples served.
    pub samples: u64,
    /// Samples that rode along in a coalesced request instead of
    /// paying their own latency floor.
    pub coalesced_samples: u64,
    /// Requests that drew a tail-latency spike.
    pub spikes: u64,
    /// [`SourceError::Throttled`] responses returned.
    pub throttled: u64,
    /// Requests served inside a brownout window.
    pub brownout_requests: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct ThrottleState {
    /// Throttled responses still owed in the current burst.
    pending: u32,
    /// Bursts drawn so far (the per-id draw counter).
    draws: u64,
    /// One clean read is guaranteed after a burst.
    cooldown: bool,
}

#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    samples: AtomicU64,
    coalesced_samples: AtomicU64,
    spikes: AtomicU64,
    throttled: AtomicU64,
    brownout_requests: AtomicU64,
}

/// The object-store origin tier: wraps any [`DataSource`] holding the
/// objects and charges S3-like request costs on every read — latency
/// floor, parallelism-dependent throughput (more concurrent requests,
/// more aggregate bandwidth, exactly the `t(γ)` idiom of the synthetic
/// PFS), coalescing for adjacent ids, and the seeded disturbances of
/// its [`ObjectStoreConfig`].
pub struct ObjectStoreBackend {
    name: String,
    inner: Arc<dyn DataSource>,
    cfg: ObjectStoreConfig,
    scale: TimeScale,
    /// Concurrent requests in flight (the throughput curve's γ).
    inflight: AtomicU64,
    /// Shared bandwidth regulator, re-rated as requests enter/leave.
    regulator: TokenBucket,
    /// Construction instant: brownout windows are positioned in model
    /// time relative to it.
    start: Instant,
    throttle: Mutex<HashMap<SampleId, ThrottleState>>,
    spike_draws: AtomicU64,
    counters: Counters,
}

impl std::fmt::Debug for ObjectStoreBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectStoreBackend")
            .field("name", &self.name)
            .field("inner", &self.inner.name())
            .field("cfg", &self.cfg)
            .finish()
    }
}

impl ObjectStoreBackend {
    /// Wraps `inner` (the store actually holding the objects) with
    /// object-store request economics.
    pub fn over(inner: Arc<dyn DataSource>, cfg: ObjectStoreConfig, scale: TimeScale) -> Self {
        let initial = scale.rate_to_wall(cfg.curve.at(1.0)).max(1.0);
        Self {
            name: "objectstore".to_string(),
            inner,
            cfg,
            scale,
            inflight: AtomicU64::new(0),
            regulator: TokenBucket::with_burst_window(initial, 0.01),
            start: Instant::now(),
            throttle: Mutex::new(HashMap::new()),
            spike_draws: AtomicU64::new(0),
            counters: Counters::default(),
        }
    }

    /// A standalone store over an unbounded in-memory object map
    /// (benches and tests).
    pub fn in_memory(cfg: ObjectStoreConfig, scale: TimeScale) -> Self {
        Self::over(
            Arc::new(crate::backend::MemoryBackend::new("objects", u64::MAX)),
            cfg,
            scale,
        )
    }

    /// Request-level statistics snapshot.
    pub fn stats(&self) -> ObjectStoreStats {
        let c = &self.counters;
        ObjectStoreStats {
            requests: c.requests.load(Ordering::Relaxed),
            samples: c.samples.load(Ordering::Relaxed),
            coalesced_samples: c.coalesced_samples.load(Ordering::Relaxed),
            spikes: c.spikes.load(Ordering::Relaxed),
            throttled: c.throttled.load(Ordering::Relaxed),
            brownout_requests: c.brownout_requests.load(Ordering::Relaxed),
        }
    }

    /// The store's configuration.
    pub fn config(&self) -> &ObjectStoreConfig {
        &self.cfg
    }

    /// Model time since construction.
    fn now(&self) -> f64 {
        self.scale.to_model(self.start.elapsed())
    }

    /// Whether reading `id` now draws a throttle (and the burst
    /// bookkeeping). `extra` is the active brownout's additional rate.
    fn throttled(&self, id: SampleId, extra: f64) -> bool {
        let Some(d) = &self.cfg.disturbance else {
            return false;
        };
        let rate = (d.throttle_rate + extra).min(0.999_999);
        if rate <= 0.0 {
            return false;
        }
        let mut map = self.throttle.lock();
        let s = map.entry(id).or_default();
        if s.pending > 0 {
            s.pending -= 1;
            s.cooldown = s.pending == 0;
            return true;
        }
        if s.cooldown {
            s.cooldown = false;
            return false;
        }
        let h = mix64(d.seed ^ 0x7407_71E5, mix64(id, s.draws));
        s.draws += 1;
        if unit(h) < rate {
            s.pending = (h >> 32) as u32 % d.throttle_burst;
            s.cooldown = s.pending == 0;
            return true;
        }
        false
    }

    /// Pays one request's latency floor (spikes and brownouts applied)
    /// and returns the brownout throughput divisor in force.
    fn pay_latency(&self, now: f64) -> f64 {
        let mut latency = self.cfg.latency_floor;
        let mut slowdown = 1.0;
        if let Some(d) = &self.cfg.disturbance {
            let (factor, _) = d.brownout_at(now);
            if factor > 1.0 {
                self.counters
                    .brownout_requests
                    .fetch_add(1, Ordering::Relaxed);
            }
            slowdown = factor;
            if d.spike_rate > 0.0 {
                let draw = self.spike_draws.fetch_add(1, Ordering::Relaxed);
                if unit(mix64(d.seed ^ 0x5917_CE00, draw)) < d.spike_rate {
                    self.counters.spikes.fetch_add(1, Ordering::Relaxed);
                    latency *= d.spike_factor;
                }
            }
        }
        self.scale.wait(latency * slowdown);
        slowdown
    }

    /// Performs one request for the adjacent run `ids`: one latency
    /// floor, per-id throttle checks, shared-bandwidth byte costs.
    /// `sink` gets one result per id, in order.
    fn request(&self, ids: &[SampleId], sink: &mut dyn FnMut(Result<Bytes, SourceError>)) {
        let now = self.now();
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        self.counters
            .samples
            .fetch_add(ids.len() as u64, Ordering::Relaxed);
        self.counters
            .coalesced_samples
            .fetch_add(ids.len() as u64 - 1, Ordering::Relaxed);

        let extra_throttle = self
            .cfg
            .disturbance
            .as_ref()
            .map_or(0.0, |d| d.brownout_at(now).1);
        let guard = RequestGuard::enter(self, 1.0);
        let slowdown = self.pay_latency(now);
        // Brownouts also depress throughput: re-rate for this request's
        // lifetime (the guard re-rates again on exit).
        if slowdown > 1.0 {
            guard.rerate(slowdown);
        }
        for &id in ids {
            if self.throttled(id, extra_throttle) {
                self.counters.throttled.fetch_add(1, Ordering::Relaxed);
                let retry_after = self
                    .cfg
                    .disturbance
                    .as_ref()
                    .map_or(Duration::ZERO, |d| self.scale.to_wall(d.retry_after));
                sink(Err(SourceError::Throttled { retry_after }));
                continue;
            }
            sink(self.inner.read(id).inspect(|data| {
                self.regulator.acquire(data.len() as u64);
            }));
        }
    }
}

/// RAII guard tracking one in-flight request: entering re-rates the
/// shared regulator to the curve at the new concurrency (the `t(γ)`
/// idiom), leaving re-rates it back down.
struct RequestGuard<'a> {
    store: &'a ObjectStoreBackend,
}

impl<'a> RequestGuard<'a> {
    fn enter(store: &'a ObjectStoreBackend, slowdown: f64) -> Self {
        let inflight = store.inflight.fetch_add(1, Ordering::SeqCst) + 1;
        store.regulator.set_rate(
            store
                .scale
                .rate_to_wall(store.cfg.curve.at(inflight as f64) / slowdown)
                .max(1.0),
        );
        Self { store }
    }

    fn rerate(&self, slowdown: f64) {
        let inflight = self.store.inflight.load(Ordering::SeqCst).max(1);
        self.store.regulator.set_rate(
            self.store
                .scale
                .rate_to_wall(self.store.cfg.curve.at(inflight as f64) / slowdown)
                .max(1.0),
        );
    }
}

impl Drop for RequestGuard<'_> {
    fn drop(&mut self) {
        let prev = self.store.inflight.fetch_sub(1, Ordering::SeqCst);
        let remaining = prev.saturating_sub(1).max(1);
        self.store.regulator.set_rate(
            self.store
                .scale
                .rate_to_wall(self.store.cfg.curve.at(remaining as f64))
                .max(1.0),
        );
    }
}

impl DataSource for ObjectStoreBackend {
    fn name(&self) -> &str {
        &self.name
    }

    fn read(&self, id: SampleId) -> Result<Bytes, SourceError> {
        let mut got = None;
        self.request(&[id], &mut |r| got = Some(r));
        got.expect("one id, one result")
    }

    fn read_each(&self, ids: &[SampleId], sink: &mut dyn FnMut(Result<Bytes, SourceError>)) {
        // Coalesce runs of adjacent ids into single requests: each run
        // pays one latency floor instead of one per sample.
        let mut i = 0;
        while i < ids.len() {
            let mut j = i + 1;
            while j < ids.len() && j - i < self.cfg.max_coalesce && ids[j] == ids[j - 1] + 1 {
                j += 1;
            }
            self.request(&ids[i..j], sink);
            i = j;
        }
    }

    fn write(&self, id: SampleId, data: Bytes) -> Result<(), SourceError> {
        // PUTs pay the request latency too, but are never disturbed
        // (the harnesses materialize datasets before the clock starts).
        self.scale.wait(self.cfg.latency_floor);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{MemoryBackend, StorageBackend};

    fn objects(n: u64, size: usize) -> Arc<dyn DataSource> {
        let m = MemoryBackend::new("objects", u64::MAX);
        for id in 0..n {
            m.insert(id, Bytes::from(vec![(id % 251) as u8; size]))
                .unwrap();
        }
        Arc::new(m)
    }

    /// A fast config: microsecond-scale model times under a realtime
    /// scale keep tests quick.
    fn quick_cfg(latency: f64) -> ObjectStoreConfig {
        ObjectStoreConfig::new(latency, ThroughputCurve::flat(1e12), 8)
    }

    #[test]
    fn reads_serve_correct_bytes_and_count_requests() {
        let store = ObjectStoreBackend::over(objects(8, 16), quick_cfg(0.0), TimeScale::realtime());
        for id in 0..8u64 {
            assert_eq!(store.read(id).unwrap()[0], (id % 251) as u8);
        }
        let s = store.stats();
        assert_eq!((s.requests, s.samples, s.coalesced_samples), (8, 8, 0));
        assert!(matches!(store.read(99), Err(SourceError::NotFound(99))));
    }

    #[test]
    fn latency_floor_is_paid_per_request() {
        // 2 ms model floor at realtime scale: 10 reads ≥ 20 ms.
        let store =
            ObjectStoreBackend::over(objects(10, 4), quick_cfg(0.002), TimeScale::realtime());
        let t0 = Instant::now();
        for id in 0..10u64 {
            store.read(id).unwrap();
        }
        assert!(t0.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn coalescing_merges_adjacent_runs_and_pays_one_floor_per_run() {
        let store =
            ObjectStoreBackend::over(objects(32, 8), quick_cfg(0.003), TimeScale::realtime());
        // Two adjacent runs (0..8, 20..24) and one singleton.
        let ids: Vec<u64> = (0..8).chain([15]).chain(20..24).collect();
        let t0 = Instant::now();
        let mut results = Vec::new();
        store.read_each(&ids, &mut |r| results.push(r));
        let elapsed = t0.elapsed();
        assert_eq!(results.len(), ids.len());
        for (r, &id) in results.iter().zip(&ids) {
            assert_eq!(r.as_ref().unwrap()[0], (id % 251) as u8);
        }
        let s = store.stats();
        assert_eq!(s.requests, 3, "three coalesced requests");
        assert_eq!(s.samples, 13);
        assert_eq!(s.coalesced_samples, 10);
        // Three floors (9 ms), not thirteen (39 ms).
        assert!(elapsed >= Duration::from_millis(9));
        assert!(elapsed < Duration::from_millis(39));
    }

    #[test]
    fn coalescing_respects_the_run_cap() {
        let mut cfg = quick_cfg(0.0);
        cfg.max_coalesce = 4;
        let store = ObjectStoreBackend::over(objects(16, 8), cfg, TimeScale::realtime());
        let ids: Vec<u64> = (0..10).collect();
        store.read_each(&ids, &mut |r| assert!(r.is_ok()));
        assert_eq!(store.stats().requests, 3, "10 adjacent ids in runs of 4");
    }

    #[test]
    fn throttle_bursts_are_bounded_deterministic_and_carry_retry_after() {
        let disturbance = Disturbance {
            throttle_rate: 0.3,
            throttle_burst: 2,
            retry_after: 1e-6,
            ..Disturbance::none(0xCAFE)
        };
        let run = || {
            let store = ObjectStoreBackend::over(
                objects(4, 8),
                quick_cfg(0.0).with_disturbance(disturbance.clone()),
                TimeScale::realtime(),
            );
            let mut outcomes = Vec::new();
            for _ in 0..100 {
                for id in 0..4u64 {
                    outcomes.push(store.read(id).is_ok());
                }
            }
            (outcomes, store.stats().throttled)
        };
        let (a, throttled) = run();
        let (b, _) = run();
        assert_eq!(a, b, "same seed, same throttle pattern");
        assert!(throttled > 0, "rate 0.3 over 400 reads must throttle");
        // Bounded per id: never more than 2 consecutive throttles.
        for id in 0..4usize {
            let per_id: Vec<bool> = a.iter().skip(id).step_by(4).copied().collect();
            let mut consecutive = 0;
            for ok in per_id {
                if ok {
                    consecutive = 0;
                } else {
                    consecutive += 1;
                    assert!(consecutive <= 2, "burst bound exceeded on {id}");
                }
            }
        }
        // The error carries the server's retry_after hint.
        let store = ObjectStoreBackend::over(
            objects(1, 8),
            quick_cfg(0.0).with_disturbance(Disturbance {
                throttle_rate: 0.999,
                ..disturbance
            }),
            TimeScale::realtime(),
        );
        let mut saw_throttle = false;
        for _ in 0..10 {
            if let Err(SourceError::Throttled { retry_after }) = store.read(0) {
                assert_eq!(retry_after, Duration::from_micros(1));
                saw_throttle = true;
            }
        }
        assert!(saw_throttle);
    }

    #[test]
    fn brownout_window_slows_requests_inside_it_only() {
        // Window [0, 0.05) model-seconds at realtime scale, 10× factor
        // on a 2 ms floor: early reads pay ≥ 20 ms, late reads 2 ms.
        let store = ObjectStoreBackend::over(
            objects(4, 8),
            quick_cfg(0.002).with_disturbance(Disturbance {
                brownouts: vec![BrownoutWindow {
                    start: 0.0,
                    duration: 0.05,
                    latency_factor: 10.0,
                    throttle_rate: 0.0,
                }],
                ..Disturbance::none(1)
            }),
            TimeScale::realtime(),
        );
        let t0 = Instant::now();
        store.read(0).unwrap();
        assert!(
            t0.elapsed() >= Duration::from_millis(20),
            "browned-out read"
        );
        assert!(store.stats().brownout_requests >= 1);
        std::thread::sleep(Duration::from_millis(60));
        let t1 = Instant::now();
        store.read(1).unwrap();
        let fast = t1.elapsed();
        assert!(fast < Duration::from_millis(20), "recovered read: {fast:?}");
    }

    #[test]
    fn parallel_requests_raise_aggregate_throughput() {
        // Curve: 1 request = 1 MB/s, 8 requests = 8 MB/s aggregate.
        // Reading 8 × 100 KB serially ≈ 800 ms; in parallel ≈ 100 ms.
        let curve = ThroughputCurve::from_points(&[(1.0, 1e6), (8.0, 8e6)]);
        let store = Arc::new(ObjectStoreBackend::over(
            objects(8, 100_000),
            ObjectStoreConfig::new(0.0, curve, 1),
            TimeScale::realtime(),
        ));
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for id in 0..8u64 {
                let store = Arc::clone(&store);
                s.spawn(move || store.read(id).unwrap());
            }
        });
        let parallel = t0.elapsed();
        assert!(
            parallel < Duration::from_millis(500),
            "parallelism must beat the serial 800 ms: {parallel:?}"
        );
    }

    #[test]
    fn spikes_are_seeded_and_only_stretch_latency() {
        let store = ObjectStoreBackend::over(
            objects(4, 8),
            quick_cfg(1e-6).with_disturbance(Disturbance {
                spike_rate: 0.5,
                spike_factor: 3.0,
                ..Disturbance::none(9)
            }),
            TimeScale::realtime(),
        );
        for _ in 0..50 {
            for id in 0..4u64 {
                assert_eq!(store.read(id).unwrap()[0], id as u8, "bytes unchanged");
            }
        }
        assert!(store.stats().spikes > 0, "rate 0.5 must spike");
    }

    #[test]
    fn disturbance_validation_rejects_nonsense() {
        assert!(Disturbance {
            spike_rate: 1.5,
            ..Disturbance::none(0)
        }
        .validate()
        .is_err());
        assert!(Disturbance {
            spike_factor: 0.5,
            ..Disturbance::none(0)
        }
        .validate()
        .is_err());
        assert!(Disturbance {
            brownouts: vec![BrownoutWindow {
                start: -1.0,
                duration: 1.0,
                latency_factor: 2.0,
                throttle_rate: 0.0,
            }],
            ..Disturbance::none(0)
        }
        .validate()
        .is_err());
        assert!(Disturbance::none(0).validate().is_ok());
    }
}
