//! The resilience layer: deadlines, hedged requests, and a circuit
//! breaker over any [`DataSource`].
//!
//! Object-store origins fail differently from a PFS: tail latency,
//! throttling, and brownouts dominate, and the cloud-storage
//! characterization literature (arxiv 2108.06322) shows naive loaders
//! degrade unboundedly under them. [`ResilientSource`] composes the
//! standard defenses into one wrapper that slots beneath a
//! [`crate::TierStack`] like every other [`DataSource`]:
//!
//! - **per-read deadlines** — an attempt that outlives its budget
//!   surfaces [`SourceError::DeadlineExceeded`] instead of stalling the
//!   step loop;
//! - **hedged requests** — when the primary read outlives a measured
//!   latency quantile, a duplicate is fired and the first answer wins
//!   (hedging changes *when* bytes arrive, never *which* bytes);
//! - **retry** — retryable failures are re-attempted under the caller's
//!   [`RetryPolicy`] (capped exponential backoff, full jitter). This is
//!   the storage layer's one retry loop:
//!   [`ResilienceConfig::retry_only`] — no deadline, hedge or breaker —
//!   is the plain retrying source;
//! - **circuit breaking** — consecutive failures open a [`CircuitBreaker`];
//!   while open, reads fail fast with [`SourceError::Unavailable`] so
//!   the fetch path can degrade gracefully to peers or lower tiers, and
//!   half-open probes re-close the breaker once the backend recovers.
//!
//! Everything observable is counted in [`ResilienceStats`], surfaced
//! through [`DataSource::resilience`] next to the per-tier
//! [`crate::TierStats`].

use crate::fault::RetryPolicy;
use crate::tier::{DataSource, SourceError, SourceHealth};
use crate::SampleId;
use bytes::Bytes;
use nopfs_obs::{names, Counter, Histogram, Registry, Tracer};
use nopfs_util::timing::TimeScale;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Circuit-breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// Model-seconds the breaker stays open before letting half-open
    /// probes through.
    pub cooldown: f64,
    /// Probes that must all succeed in half-open state to re-close
    /// (and the cap on concurrent half-open probes).
    pub half_open_probes: u32,
}

impl BreakerConfig {
    /// A new config.
    ///
    /// # Panics
    /// Panics on a zero threshold, zero probes, or negative cooldown.
    pub fn new(failure_threshold: u32, cooldown: f64, half_open_probes: u32) -> Self {
        assert!(failure_threshold >= 1, "threshold must be at least 1");
        assert!(half_open_probes >= 1, "at least one half-open probe");
        assert!(
            cooldown.is_finite() && cooldown >= 0.0,
            "cooldown must be non-negative"
        );
        Self {
            failure_threshold,
            cooldown,
            half_open_probes,
        }
    }
}

/// The three breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakerState {
    /// Normal operation; failures are counted.
    #[default]
    Closed,
    /// Failing fast; no traffic reaches the backend until the cooldown
    /// elapses.
    Open,
    /// Cooldown elapsed: a bounded number of probes test the backend.
    HalfOpen,
}

#[derive(Debug, Default)]
struct BreakerInner {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: f64,
    probes_inflight: u32,
    probe_successes: u32,
}

/// A per-backend circuit breaker (closed → open → half-open → closed)
/// driven by an explicit model-time clock: every transition is a pure
/// function of the call sequence and `now`, so state-machine behavior
/// is testable without wall clocks and reusable by the discrete-event
/// simulator.
#[derive(Debug)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    inner: Mutex<BreakerInner>,
    to_open: Counter,
    to_half_open: Counter,
    to_closed: Counter,
    rejections: Counter,
    tracer: Tracer,
}

impl CircuitBreaker {
    /// A new breaker, initially closed, with private counters.
    pub fn new(cfg: BreakerConfig) -> Self {
        Self::new_in_registry(cfg, &Registry::new())
    }

    /// Like [`Self::new`], but transition counters register in
    /// `registry` as `breaker.*` metrics.
    pub fn new_in_registry(cfg: BreakerConfig, registry: &Registry) -> Self {
        Self {
            cfg,
            inner: Mutex::new(BreakerInner::default()),
            to_open: registry.counter(names::BREAKER_TO_OPEN),
            to_half_open: registry.counter(names::BREAKER_TO_HALF_OPEN),
            to_closed: registry.counter(names::BREAKER_TO_CLOSED),
            rejections: registry.counter(names::BREAKER_REJECTIONS),
            tracer: Tracer::noop(),
        }
    }

    /// Attaches a tracer: every state transition emits a model-clock
    /// instant (`breaker_open` / `breaker_half_open` / `breaker_closed`)
    /// stamped with the breaker's own `now`.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Current state (without advancing the open → half-open clock).
    pub fn state(&self) -> BreakerState {
        self.inner.lock().state
    }

    /// Whether a request may proceed at model time `now`. An open
    /// breaker whose cooldown has elapsed transitions to half-open and
    /// admits the caller as a probe; half-open admits callers up to the
    /// probe cap. `false` means fail fast.
    pub fn allow(&self, now: f64) -> bool {
        let mut s = self.inner.lock();
        match s.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                if now >= s.opened_at + self.cfg.cooldown {
                    s.state = BreakerState::HalfOpen;
                    s.probes_inflight = 1;
                    s.probe_successes = 0;
                    self.to_half_open.inc();
                    self.tracer
                        .instant_at(names::EV_BREAKER_HALF_OPEN, "resilience", now, vec![]);
                    true
                } else {
                    self.rejections.inc();
                    false
                }
            }
            BreakerState::HalfOpen => {
                if s.probes_inflight < self.cfg.half_open_probes {
                    s.probes_inflight += 1;
                    true
                } else {
                    self.rejections.inc();
                    false
                }
            }
        }
    }

    /// Records a successful request admitted at or before `now`.
    pub fn on_success(&self, now: f64) {
        let mut s = self.inner.lock();
        match s.state {
            BreakerState::Closed => s.consecutive_failures = 0,
            BreakerState::HalfOpen => {
                s.probes_inflight = s.probes_inflight.saturating_sub(1);
                s.probe_successes += 1;
                if s.probe_successes >= self.cfg.half_open_probes {
                    s.state = BreakerState::Closed;
                    s.consecutive_failures = 0;
                    self.to_closed.inc();
                    self.tracer
                        .instant_at(names::EV_BREAKER_CLOSED, "resilience", now, vec![]);
                }
            }
            // A straggling success from before the trip: no evidence
            // about the backend *now*.
            BreakerState::Open => {}
        }
    }

    /// Records a failed request at model time `now`.
    pub fn on_failure(&self, now: f64) {
        let mut s = self.inner.lock();
        match s.state {
            BreakerState::Closed => {
                s.consecutive_failures += 1;
                if s.consecutive_failures >= self.cfg.failure_threshold {
                    s.state = BreakerState::Open;
                    s.opened_at = now;
                    self.to_open.inc();
                    self.tracer
                        .instant_at(names::EV_BREAKER_OPEN, "resilience", now, vec![]);
                }
            }
            BreakerState::HalfOpen => {
                // A failed probe re-opens immediately.
                s.state = BreakerState::Open;
                s.opened_at = now;
                self.to_open.inc();
                self.tracer
                    .instant_at(names::EV_BREAKER_OPEN, "resilience", now, vec![]);
            }
            BreakerState::Open => {}
        }
    }

    /// Health at model time `now`: open-and-cooling is unavailable,
    /// open-but-probe-due and half-open are degraded (traffic *should*
    /// probe), closed is healthy.
    pub fn health(&self, now: f64) -> SourceHealth {
        let s = self.inner.lock();
        match s.state {
            BreakerState::Closed => SourceHealth::Healthy,
            BreakerState::HalfOpen => SourceHealth::Degraded,
            BreakerState::Open => {
                if now >= s.opened_at + self.cfg.cooldown {
                    SourceHealth::Degraded
                } else {
                    SourceHealth::Unavailable
                }
            }
        }
    }

    /// Model time at which an open breaker starts admitting half-open
    /// probes; `None` unless currently open. Lets sequential callers
    /// (the discrete-event simulator) jump the clock to the next probe
    /// instead of polling [`Self::allow`].
    pub fn reopen_at(&self) -> Option<f64> {
        let s = self.inner.lock();
        matches!(s.state, BreakerState::Open).then(|| s.opened_at + self.cfg.cooldown)
    }

    /// Lifetime transition counters:
    /// `(to_open, to_half_open, to_closed, rejections)`.
    pub fn transitions(&self) -> (u64, u64, u64, u64) {
        (
            self.to_open.get(),
            self.to_half_open.get(),
            self.to_closed.get(),
            self.rejections.get(),
        )
    }
}

/// Hedged-request tuning: fire a duplicate read once the primary has
/// outlived the tracked latency quantile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgeConfig {
    /// Latency quantile (e.g. `0.95`) after which the hedge fires.
    pub quantile: f64,
    /// Hedge delay floor, and the delay used until enough latencies
    /// have been observed.
    pub min_delay: Duration,
    /// Completed reads tracked in the sliding latency window.
    pub window: usize,
}

impl HedgeConfig {
    /// A new config.
    ///
    /// # Panics
    /// Panics on a quantile outside `(0, 1)` or an empty window.
    pub fn new(quantile: f64, min_delay: Duration, window: usize) -> Self {
        assert!(
            quantile > 0.0 && quantile < 1.0,
            "quantile must be in (0, 1)"
        );
        assert!(window >= 1, "window must hold at least one sample");
        Self {
            quantile,
            min_delay,
            window,
        }
    }
}

/// Sliding window of completed-read latencies, for quantile-based hedge
/// delays ("The Tail at Scale": hedge after the 95th percentile, cap
/// the extra load at ~5%).
#[derive(Debug)]
struct LatencyTracker {
    window: Vec<Duration>,
    next: usize,
    filled: bool,
}

impl LatencyTracker {
    fn new(window: usize) -> Self {
        Self {
            window: Vec::with_capacity(window),
            next: 0,
            filled: false,
        }
    }

    fn record(&mut self, latency: Duration) {
        if self.window.len() < self.window.capacity() {
            self.window.push(latency);
        } else {
            self.window[self.next] = latency;
            self.next = (self.next + 1) % self.window.len();
            self.filled = true;
        }
    }

    /// The hedge delay: the configured quantile of the window once it
    /// has filled at least once, `min_delay` before that (no evidence,
    /// no aggression), floored at `min_delay` always.
    fn delay(&self, cfg: &HedgeConfig) -> Duration {
        if !self.filled && self.window.len() < self.window.capacity() {
            return cfg.min_delay;
        }
        let mut sorted = self.window.clone();
        sorted.sort_unstable();
        let rank = ((sorted.len() as f64 - 1.0) * cfg.quantile).round() as usize;
        sorted[rank.min(sorted.len() - 1)].max(cfg.min_delay)
    }
}

/// Everything a [`ResilientSource`] layers over a backend.
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Retry schedule for retryable failures.
    pub retry: RetryPolicy,
    /// Wall-clock budget per attempt; `None` = wait forever.
    pub deadline: Option<Duration>,
    /// Hedged-request tuning; `None` disables hedging.
    pub hedge: Option<HedgeConfig>,
    /// Circuit-breaker tuning; `None` disables breaking.
    pub breaker: Option<BreakerConfig>,
}

impl ResilienceConfig {
    /// Retry-only resilience (no deadline, hedge, or breaker).
    pub fn retry_only(retry: RetryPolicy) -> Self {
        Self {
            retry,
            deadline: None,
            hedge: None,
            breaker: None,
        }
    }

    /// Adds a per-attempt deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Adds hedged requests.
    #[must_use]
    pub fn with_hedge(mut self, hedge: HedgeConfig) -> Self {
        self.hedge = Some(hedge);
        self
    }

    /// Adds a circuit breaker.
    #[must_use]
    pub fn with_breaker(mut self, breaker: BreakerConfig) -> Self {
        self.breaker = Some(breaker);
        self
    }
}

/// Cumulative resilience counters, the per-backend health companion to
/// [`crate::TierStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Reads entering the resilience layer.
    pub reads: u64,
    /// Retries performed (attempts beyond each read's first).
    pub retries: u64,
    /// Reads whose whole retry budget was exhausted.
    pub exhausted: u64,
    /// Hedge requests fired.
    pub hedges_fired: u64,
    /// Hedged reads where the hedge answered first.
    pub hedges_won: u64,
    /// Attempts that missed their deadline.
    pub deadline_misses: u64,
    /// Attempts rejected by backend throttling.
    pub throttled: u64,
    /// Reads failed fast because the breaker was open.
    pub breaker_open_rejections: u64,
    /// Breaker transitions into the open state.
    pub breaker_to_open: u64,
    /// Breaker transitions into the half-open state.
    pub breaker_to_half_open: u64,
    /// Breaker transitions back to closed.
    pub breaker_to_closed: u64,
}

impl ResilienceStats {
    /// Accumulates `other` into `self` (for aggregating ranks/tenants).
    pub fn merge(&mut self, other: &ResilienceStats) {
        self.reads += other.reads;
        self.retries += other.retries;
        self.exhausted += other.exhausted;
        self.hedges_fired += other.hedges_fired;
        self.hedges_won += other.hedges_won;
        self.deadline_misses += other.deadline_misses;
        self.throttled += other.throttled;
        self.breaker_open_rejections += other.breaker_open_rejections;
        self.breaker_to_open += other.breaker_to_open;
        self.breaker_to_half_open += other.breaker_to_half_open;
        self.breaker_to_closed += other.breaker_to_closed;
    }
}

/// The resilience layer's registry handles (`resilience.*` metrics);
/// [`ResilienceStats`] is the typed view over them.
#[derive(Debug)]
struct Counters {
    reads: Counter,
    retries: Counter,
    exhausted: Counter,
    hedges_fired: Counter,
    hedges_won: Counter,
    deadline_misses: Counter,
    throttled: Counter,
    /// End-to-end read latency (ns), breaker rejections included.
    read_latency: Histogram,
}

impl Counters {
    fn new(registry: &Registry) -> Self {
        Self {
            reads: registry.counter(names::RES_READS),
            retries: registry.counter(names::RES_RETRIES),
            exhausted: registry.counter(names::RES_EXHAUSTED),
            hedges_fired: registry.counter(names::RES_HEDGES_FIRED),
            hedges_won: registry.counter(names::RES_HEDGES_WON),
            deadline_misses: registry.counter(names::RES_DEADLINE_MISSES),
            throttled: registry.counter(names::RES_THROTTLED),
            read_latency: registry.histogram(names::RES_READ_LATENCY),
        }
    }
}

/// The outcome of one attempt: who answered, with what, after how long.
enum AttemptOutcome {
    Done(Result<Bytes, SourceError>, Duration, bool),
    TimedOut,
}

/// A [`DataSource`] wrapper combining deadlines, hedging, retry, and
/// circuit breaking — the full failure domain for an object-store (or
/// any flaky) origin. Layering, outermost first: breaker (fail fast
/// while open) → retry loop → per-attempt deadline + hedge.
pub struct ResilientSource {
    inner: Arc<dyn DataSource>,
    cfg: ResilienceConfig,
    breaker: Option<CircuitBreaker>,
    tracker: Mutex<LatencyTracker>,
    counters: Counters,
    tracer: Tracer,
    scale: TimeScale,
    start: Instant,
    draws: AtomicU64,
}

impl std::fmt::Debug for ResilientSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientSource")
            .field("inner", &self.inner.name())
            .field("cfg", &self.cfg)
            .finish()
    }
}

impl ResilientSource {
    /// Wraps `inner` under `cfg`; `scale` maps the breaker's
    /// model-second cooldowns onto the wall clock.
    pub fn new(inner: Arc<dyn DataSource>, cfg: ResilienceConfig, scale: TimeScale) -> Self {
        Self::new_in_registry(inner, cfg, scale, &Registry::new())
    }

    /// Like [`Self::new`], but the `resilience.*` / `breaker.*` metrics
    /// register in `registry` (with its scope labels).
    pub fn new_in_registry(
        inner: Arc<dyn DataSource>,
        cfg: ResilienceConfig,
        scale: TimeScale,
        registry: &Registry,
    ) -> Self {
        let window = cfg.hedge.map_or(1, |h| h.window);
        Self {
            breaker: cfg
                .breaker
                .map(|b| CircuitBreaker::new_in_registry(b, registry)),
            tracker: Mutex::new(LatencyTracker::new(window)),
            inner,
            cfg,
            counters: Counters::new(registry),
            tracer: Tracer::noop(),
            scale,
            start: Instant::now(),
            draws: AtomicU64::new(0),
        }
    }

    /// Attaches a tracer: hedge firings and breaker state changes emit
    /// model-clock instants into it.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.breaker = self.breaker.map(|b| b.with_tracer(tracer.clone()));
        self.tracer = tracer;
        self
    }

    /// Model time since construction, the breaker's clock.
    fn now(&self) -> f64 {
        self.scale.to_model(self.start.elapsed())
    }

    /// The wrapped source.
    pub fn inner(&self) -> &Arc<dyn DataSource> {
        &self.inner
    }

    /// The breaker, when configured (for tests and telemetry).
    pub fn breaker(&self) -> Option<&CircuitBreaker> {
        self.breaker.as_ref()
    }

    /// One attempt: primary read, hedge after the quantile delay, both
    /// racing the per-attempt deadline. Returns the first completion.
    fn attempt(&self, id: SampleId) -> AttemptOutcome {
        // Fast path: nothing to race, read inline (no thread spawn).
        if self.cfg.deadline.is_none() && self.cfg.hedge.is_none() {
            let t0 = Instant::now();
            let r = self.inner.read(id);
            return AttemptOutcome::Done(r, t0.elapsed(), false);
        }

        let (tx, rx) = mpsc::channel::<(bool, Result<Bytes, SourceError>, Duration)>();
        let spawn = |hedge: bool| {
            let inner = Arc::clone(&self.inner);
            let tx = tx.clone();
            std::thread::spawn(move || {
                let t0 = Instant::now();
                let r = inner.read(id);
                // The loser's result is dropped with the receiver.
                let _ = tx.send((hedge, r, t0.elapsed()));
            });
        };
        let started = Instant::now();
        let deadline = self.cfg.deadline;
        let remaining = |started: Instant| deadline.map(|d| d.saturating_sub(started.elapsed()));
        spawn(false);
        let mut outstanding = 1u32;

        // Phase 1: wait up to the hedge delay (clipped by the deadline).
        if let Some(h) = &self.cfg.hedge {
            let hedge_delay = self.tracker.lock().delay(h);
            let wait = remaining(started).map_or(hedge_delay, |r| hedge_delay.min(r));
            match rx.recv_timeout(wait) {
                Ok((hedge, r, lat)) => return AttemptOutcome::Done(r, lat, hedge),
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if remaining(started).is_none_or(|r| r > Duration::ZERO) {
                        self.counters.hedges_fired.inc();
                        self.tracer.instant_at(
                            names::EV_HEDGE_FIRED,
                            "resilience",
                            self.now(),
                            vec![("sample", id.into())],
                        );
                        spawn(true);
                        outstanding += 1;
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => unreachable!("senders outlive us"),
            }
        }

        // Phase 2: first success (or last failure) wins, racing the
        // remaining deadline.
        let mut last: Option<AttemptOutcome> = None;
        while outstanding > 0 {
            let got = match remaining(started) {
                None => rx.recv().map_err(|_| mpsc::RecvTimeoutError::Disconnected),
                Some(r) if r > Duration::ZERO => rx.recv_timeout(r),
                Some(_) => return AttemptOutcome::TimedOut,
            };
            match got {
                Ok((hedge, r, lat)) => {
                    outstanding -= 1;
                    let done = AttemptOutcome::Done(r, lat, hedge);
                    if matches!(done, AttemptOutcome::Done(Ok(_), ..)) || outstanding == 0 {
                        return done;
                    }
                    last = Some(done);
                }
                Err(mpsc::RecvTimeoutError::Timeout) => return AttemptOutcome::TimedOut,
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        last.unwrap_or(AttemptOutcome::TimedOut)
    }

    /// One breaker admission: `Err` is the fail-fast answer while the
    /// breaker is open.
    fn admit(&self) -> Result<(), SourceError> {
        match &self.breaker {
            Some(b) if !b.allow(self.now()) => Err(SourceError::Unavailable(format!(
                "{}: circuit open",
                self.inner.name()
            ))),
            _ => Ok(()),
        }
    }

    /// **The** retry loop behind every read: breaker → retry →
    /// deadline/hedge. Between attempts it counts a retry and sleeps
    /// the jittered backoff — or the server-suggested `retry_after`,
    /// whichever is longer.
    fn retry(&self, id: SampleId) -> Result<Bytes, SourceError> {
        let mut last = None;
        for attempt in 0..self.cfg.retry.attempts {
            self.admit()?;
            let err = match self.attempt(id) {
                AttemptOutcome::Done(Ok(data), latency, hedge_won) => {
                    if let Some(b) = &self.breaker {
                        b.on_success(self.now());
                    }
                    if hedge_won {
                        self.counters.hedges_won.inc();
                    }
                    self.tracker.lock().record(latency);
                    return Ok(data);
                }
                // NotFound/Full say nothing about backend health: pass
                // through without tripping.
                AttemptOutcome::Done(Err(e), ..) if !e.is_retryable() => return Err(e),
                AttemptOutcome::Done(Err(e), ..) => {
                    if matches!(e, SourceError::Throttled { .. }) {
                        self.counters.throttled.inc();
                    }
                    e
                }
                AttemptOutcome::TimedOut => {
                    self.counters.deadline_misses.inc();
                    SourceError::DeadlineExceeded {
                        deadline: self.cfg.deadline.unwrap_or_default(),
                    }
                }
            };
            if let Some(b) = &self.breaker {
                b.on_failure(self.now());
            }
            if attempt + 1 < self.cfg.retry.attempts {
                let draw = self.draws.fetch_add(1, Ordering::Relaxed);
                self.counters.retries.inc();
                let backoff = self.cfg.retry.backoff(attempt, draw);
                std::thread::sleep(match &err {
                    SourceError::Throttled { retry_after } => backoff.max(*retry_after),
                    _ => backoff,
                });
            }
            last = Some(err);
        }
        self.counters.exhausted.inc();
        Err(last.expect("loop ran at least once"))
    }
}

impl DataSource for ResilientSource {
    fn read(&self, id: SampleId) -> Result<Bytes, SourceError> {
        // Only pay for the clock when a histogram is listening.
        let t0 = self.counters.read_latency.is_active().then(Instant::now);
        self.counters.reads.inc();
        let result = self.retry(id);
        if let Some(t0) = t0 {
            self.counters.read_latency.record_duration(t0.elapsed());
        }
        result
    }

    /// A length-1 call is [`Self::read`], deadline and hedge included.
    /// A longer batch is admitted through the breaker **once** (an
    /// open breaker answers every id `Unavailable` without touching the
    /// inner source) and goes down as one inner vectored read, so a
    /// coalescing backend keeps its batching; its outcome is booked
    /// once. Each retryable straggler then counts a retry and is
    /// re-driven through the retry loop — after the inner call has
    /// returned, so no backoff sleeps inside the inner source's reader
    /// registration. Permanent errors are returned in place.
    fn read_each(&self, ids: &[SampleId], sink: &mut dyn FnMut(Result<Bytes, SourceError>)) {
        if let &[id] = ids {
            return sink(self.read(id));
        }
        self.counters.reads.add(ids.len() as u64);
        if let Err(e) = self.admit() {
            return ids.iter().for_each(|_| sink(Err(e.clone())));
        }
        let mut results = Vec::with_capacity(ids.len());
        self.inner.read_each(ids, &mut |r| results.push(r));
        if let Some(b) = &self.breaker {
            if results
                .iter()
                .any(|r| matches!(r, Err(e) if e.is_retryable()))
            {
                b.on_failure(self.now());
            } else {
                b.on_success(self.now());
            }
        }
        for (r, &id) in results.into_iter().zip(ids) {
            sink(match r {
                Err(e) if e.is_retryable() => {
                    if matches!(e, SourceError::Throttled { .. }) {
                        self.counters.throttled.inc();
                    }
                    self.counters.retries.inc();
                    self.retry(id)
                }
                other => other,
            });
        }
    }

    fn name(&self) -> &str {
        self.inner.name()
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

    fn health(&self) -> SourceHealth {
        match &self.breaker {
            Some(b) => b.health(self.now()),
            None => self.inner.health(),
        }
    }

    fn resilience(&self) -> Option<ResilienceStats> {
        let (to_open, to_half_open, to_closed, rejections) = self
            .breaker
            .as_ref()
            .map_or((0, 0, 0, 0), |b| b.transitions());
        let c = &self.counters;
        let mut stats = ResilienceStats {
            reads: c.reads.get(),
            retries: c.retries.get(),
            exhausted: c.exhausted.get(),
            hedges_fired: c.hedges_fired.get(),
            hedges_won: c.hedges_won.get(),
            deadline_misses: c.deadline_misses.get(),
            throttled: c.throttled.get(),
            breaker_open_rejections: rejections,
            breaker_to_open: to_open,
            breaker_to_half_open: to_half_open,
            breaker_to_closed: to_closed,
        };
        // Nested resilience layers (rare, but legal) aggregate.
        if let Some(inner) = self.inner.resilience() {
            stats.merge(&inner);
        }
        Some(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{MemoryBackend, StorageBackend};

    fn mem_with(ids: &[SampleId]) -> Arc<dyn DataSource> {
        let m = MemoryBackend::new("mem", 1_000_000);
        for &id in ids {
            m.insert(id, Bytes::from(vec![id as u8; 8])).unwrap();
        }
        Arc::new(m)
    }

    fn fast_retry(attempts: u32) -> RetryPolicy {
        RetryPolicy::new(attempts, Duration::from_micros(10), 0.5, 7)
    }

    /// A source that sleeps a scheduled duration per read, in call
    /// order, then serves from memory — or, made by [`Self::gated`],
    /// whose first read waits until the test opens its gate.
    struct SlowSource {
        inner: Arc<dyn DataSource>,
        delays: Mutex<std::collections::VecDeque<Duration>>,
        gate: Mutex<Option<Arc<std::sync::atomic::AtomicBool>>>,
    }

    impl SlowSource {
        fn new(inner: Arc<dyn DataSource>, delays: &[Duration]) -> Self {
            Self {
                inner,
                delays: Mutex::new(delays.iter().copied().collect()),
                gate: Mutex::new(None),
            }
        }

        fn gated(inner: Arc<dyn DataSource>, open: &Arc<std::sync::atomic::AtomicBool>) -> Self {
            Self {
                gate: Mutex::new(Some(Arc::clone(open))),
                ..Self::new(inner, &[])
            }
        }
    }

    impl DataSource for SlowSource {
        fn name(&self) -> &str {
            "slow"
        }
        fn read(&self, id: SampleId) -> Result<Bytes, SourceError> {
            let gate = self.gate.lock().take();
            while gate
                .as_ref()
                .is_some_and(|open| !open.load(Ordering::SeqCst))
            {
                std::thread::sleep(Duration::from_micros(100));
            }
            let d = self.delays.lock().pop_front().unwrap_or(Duration::ZERO);
            std::thread::sleep(d);
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

    /// A source failing with a fixed error a set number of times, then
    /// serving, counting every attempt.
    #[derive(Debug)]
    struct FailNTimes {
        error: SourceError,
        remaining: AtomicU64,
        attempts: AtomicU64,
    }

    impl FailNTimes {
        fn new(error: SourceError, n: u64) -> Self {
            Self {
                error,
                remaining: AtomicU64::new(n),
                attempts: AtomicU64::new(0),
            }
        }

        fn attempts(&self) -> u64 {
            self.attempts.load(Ordering::Relaxed)
        }
    }

    impl DataSource for FailNTimes {
        fn name(&self) -> &str {
            "fail-n"
        }
        fn read(&self, id: SampleId) -> Result<Bytes, SourceError> {
            self.attempts.fetch_add(1, Ordering::Relaxed);
            if self
                .remaining
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |r| r.checked_sub(1))
                .is_ok()
            {
                Err(self.error.clone())
            } else {
                Ok(Bytes::from(vec![id as u8; 4]))
            }
        }
        fn write(&self, _id: SampleId, _data: Bytes) -> Result<(), SourceError> {
            Ok(())
        }
        fn contains(&self, _id: SampleId) -> bool {
            true
        }
        fn capacity(&self) -> Option<u64> {
            None
        }
        fn used(&self) -> u64 {
            0
        }
        fn evict(&self, _id: SampleId) -> bool {
            false
        }
        fn count(&self) -> usize {
            0
        }
        fn size_of(&self, _id: SampleId) -> Option<u64> {
            None
        }
    }

    fn retry_only(inner: Arc<dyn DataSource>, attempts: u32) -> ResilientSource {
        ResilientSource::new(
            inner,
            ResilienceConfig::retry_only(fast_retry(attempts)),
            TimeScale::realtime(),
        )
    }

    fn read_all(src: &dyn DataSource, ids: &[SampleId]) -> Vec<Result<Bytes, SourceError>> {
        let mut out = Vec::new();
        src.read_each(ids, &mut |r| out.push(r));
        out
    }

    #[test]
    fn exhausted_retries_surface_the_last_transient_error() {
        let down = Arc::new(FailNTimes::new(SourceError::Io("down".into()), u64::MAX));
        let src = retry_only(down.clone(), 4);
        match src.read(3) {
            Err(SourceError::Io(m)) => assert_eq!(m, "down"),
            other => panic!("expected Io, got {other:?}"),
        }
        // Exactly the whole budget was spent: 4 attempts, 3 retries.
        assert_eq!(down.attempts(), 4);
        let stats = src.resilience().unwrap();
        assert_eq!((stats.reads, stats.retries, stats.exhausted), (1, 3, 1));
    }

    #[test]
    fn throttled_and_deadline_errors_are_retried_unavailable_is_not() {
        // Throttled: retried through, honoring retry_after as a floor
        // under a 10 µs client backoff.
        let throttled = Arc::new(FailNTimes::new(
            SourceError::Throttled {
                retry_after: Duration::from_millis(3),
            },
            2,
        ));
        let src = retry_only(throttled, 4);
        let t0 = Instant::now();
        assert_eq!(src.read(7).unwrap()[0], 7);
        assert!(
            t0.elapsed() >= Duration::from_millis(6),
            "retry_after ignored"
        );
        let stats = src.resilience().unwrap();
        assert_eq!((stats.retries, stats.throttled), (2, 2));
        // DeadlineExceeded: also retryable.
        let deadline = Arc::new(FailNTimes::new(
            SourceError::DeadlineExceeded {
                deadline: Duration::from_micros(10),
            },
            1,
        ));
        assert!(retry_only(deadline, 4).read(1).is_ok());
        // Unavailable (open breaker downstream): fail-fast, one attempt.
        let open = Arc::new(FailNTimes::new(
            SourceError::Unavailable("circuit open".into()),
            10,
        ));
        let src = retry_only(open.clone(), 5);
        assert!(matches!(src.read(1), Err(SourceError::Unavailable(_))));
        assert_eq!(open.attempts(), 1);
        assert_eq!(src.resilience().unwrap().retries, 0);
    }

    #[test]
    fn read_each_retries_stragglers_and_keeps_permanent_errors() {
        // Transient injection below the retry budget: every present id
        // comes back clean from one vectored call; the absent id stays
        // NotFound without burning retries. Every id counts one read,
        // and every injected failure one retry.
        for seed in 0..10u64 {
            let faulty = Arc::new(crate::fault::FaultySource::new(
                mem_with(&[0, 1, 2, 3]),
                crate::fault::ErrorInjection::new(0.45, 2, seed),
            ));
            let src = retry_only(faulty.clone(), 4);
            let ids = [0u64, 1, 9, 2, 3];
            for round in 0..30 {
                for (r, &id) in read_all(&src, &ids).iter().zip(&ids) {
                    if id == 9 {
                        assert_eq!(r, &Err(SourceError::NotFound(9)));
                    } else {
                        let data = r
                            .as_ref()
                            .unwrap_or_else(|e| panic!("seed {seed} round {round} id {id}: {e}"));
                        assert_eq!(data[0], id as u8);
                    }
                }
            }
            let stats = src.resilience().unwrap();
            assert_eq!(stats.reads, 30 * ids.len() as u64);
            assert_eq!(stats.retries, faulty.injected());
            assert_eq!(stats.exhausted, 0);
        }
    }

    #[test]
    fn open_breaker_rejects_a_vectored_batch_without_touching_the_source() {
        let counting = Arc::new(FailNTimes::new(SourceError::Io("unused".into()), 0));
        let src = Arc::new(ResilientSource::new(
            counting.clone(),
            ResilienceConfig::retry_only(fast_retry(3)).with_breaker(BreakerConfig::new(1, 1e9, 1)),
            TimeScale::realtime(),
        ));
        src.breaker().unwrap().on_failure(0.0);
        // The batch arrives the way a staged run's origin read does.
        let stack = crate::TierStack::origin_only(src.clone(), &Registry::new());
        let mut results = Vec::new();
        stack.read_tier_many(0, &[0, 1, 2, 3, 4, 5, 6, 7], |r| results.push(r));
        assert_eq!(results.len(), 8);
        assert!(results
            .iter()
            .all(|r| matches!(r, Err(SourceError::Unavailable(_)))));
        assert_eq!(
            counting.attempts(),
            0,
            "the open breaker let a batch through"
        );
        let stats = src.resilience().unwrap();
        assert_eq!(stats.breaker_open_rejections, 1, "one admission per batch");
        assert_eq!(stats.reads, 8);
        // A length-1 call is a plain read: also rejected, also untouched.
        assert!(matches!(
            read_all(src.as_ref(), &[3])[0],
            Err(SourceError::Unavailable(_))
        ));
        assert_eq!(counting.attempts(), 0);
    }

    #[test]
    fn breaker_walks_closed_open_half_open_closed() {
        let b = CircuitBreaker::new(BreakerConfig::new(3, 10.0, 2));
        assert_eq!(b.state(), BreakerState::Closed);
        // Two failures: still closed (threshold 3).
        b.on_failure(1.0);
        b.on_failure(2.0);
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow(2.5));
        // Third trips it open.
        b.on_failure(3.0);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.health(5.0), SourceHealth::Unavailable);
        // While cooling: fail fast.
        assert!(!b.allow(5.0));
        assert!(!b.allow(12.9));
        // Cooldown elapsed: probe due.
        assert_eq!(b.health(13.0), SourceHealth::Degraded);
        assert!(b.allow(13.0), "first probe admitted");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.allow(13.1), "second probe admitted (cap 2)");
        assert!(!b.allow(13.2), "probe cap enforced");
        // Both probes succeed: closed again.
        b.on_success(13.3);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.on_success(13.4);
        assert_eq!(b.state(), BreakerState::Closed);
        let (to_open, to_half_open, to_closed, rejections) = b.transitions();
        assert_eq!((to_open, to_half_open, to_closed), (1, 1, 1));
        assert_eq!(rejections, 3);
    }

    #[test]
    fn failed_half_open_probe_reopens_and_success_resets_the_streak() {
        let b = CircuitBreaker::new(BreakerConfig::new(2, 5.0, 1));
        b.on_failure(0.0);
        b.on_success(0.5); // streak broken
        b.on_failure(1.0);
        assert_eq!(b.state(), BreakerState::Closed, "success reset the count");
        b.on_failure(2.0);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.allow(7.1), "cooldown over, probe admitted");
        b.on_failure(7.2);
        assert_eq!(b.state(), BreakerState::Open, "failed probe re-opens");
        // The re-open restarts the cooldown from the probe failure.
        assert!(!b.allow(11.0));
        assert!(b.allow(12.3));
        b.on_success(12.4);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.transitions().0, 2, "two trips recorded");
    }

    #[test]
    fn open_breaker_fails_fast_with_unavailable() {
        let always_down = Arc::new(crate::fault::FaultySource::new(
            mem_with(&[]),
            crate::fault::ErrorInjection::new(0.0, 1, 0),
        ));
        // Synthetic: trip the breaker directly, then read.
        let src = ResilientSource::new(
            always_down,
            ResilienceConfig::retry_only(fast_retry(2)).with_breaker(BreakerConfig::new(1, 1e9, 1)),
            TimeScale::realtime(),
        );
        src.breaker().unwrap().on_failure(0.0);
        assert_eq!(src.health(), SourceHealth::Unavailable);
        match src.read(5) {
            Err(SourceError::Unavailable(msg)) => assert!(msg.contains("circuit open")),
            other => panic!("expected Unavailable, got {other:?}"),
        }
        let stats = src.resilience().unwrap();
        assert_eq!(stats.breaker_to_open, 1);
        assert!(stats.breaker_open_rejections >= 1);
    }

    #[test]
    fn hedged_reads_return_identical_bytes_and_win_when_primary_stalls() {
        // The first read — the primary's: the hedge starts 100 ms
        // later — stalls until the hedged read has returned; the hedge
        // answers from memory. 100 ms is also the hedge delay of the
        // fast read below, thousands of times what it takes.
        let open = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let slow = Arc::new(SlowSource::gated(mem_with(&[0, 1, 2]), &open));
        let direct = mem_with(&[0, 1, 2]);
        let src = ResilientSource::new(
            slow,
            ResilienceConfig::retry_only(fast_retry(2)).with_hedge(HedgeConfig::new(
                0.5,
                Duration::from_millis(100),
                4,
            )),
            TimeScale::realtime(),
        );
        let hedged = src.read(1).unwrap();
        open.store(true, Ordering::SeqCst);
        assert_eq!(hedged, direct.read(1).unwrap(), "hedge changed bytes");
        let stats = src.resilience().unwrap();
        assert_eq!(stats.hedges_fired, 1);
        assert_eq!(stats.hedges_won, 1);
        // Fast reads do not hedge.
        assert_eq!(src.read(2).unwrap(), direct.read(2).unwrap());
        assert_eq!(src.resilience().unwrap().hedges_fired, 1);
    }

    #[test]
    fn deadline_expiry_surfaces_and_is_retried_to_success() {
        // Attempt 1 outlives the 5 ms deadline; attempt 2 is instant.
        let slow = Arc::new(SlowSource::new(
            mem_with(&[3]),
            &[Duration::from_millis(80), Duration::ZERO],
        ));
        let src = ResilientSource::new(
            slow,
            ResilienceConfig::retry_only(fast_retry(3)).with_deadline(Duration::from_millis(5)),
            TimeScale::realtime(),
        );
        assert_eq!(src.read(3).unwrap()[0], 3);
        let stats = src.resilience().unwrap();
        assert_eq!(stats.deadline_misses, 1);
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.exhausted, 0);
    }

    #[test]
    fn deadline_exhaustion_reports_deadline_exceeded() {
        let slow = Arc::new(SlowSource::new(
            mem_with(&[0]),
            &[Duration::from_millis(80); 8],
        ));
        let src = ResilientSource::new(
            slow,
            ResilienceConfig::retry_only(fast_retry(2)).with_deadline(Duration::from_millis(2)),
            TimeScale::realtime(),
        );
        match src.read(0) {
            Err(SourceError::DeadlineExceeded { deadline }) => {
                assert_eq!(deadline, Duration::from_millis(2));
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let stats = src.resilience().unwrap();
        assert_eq!(stats.deadline_misses, 2);
        assert_eq!(stats.exhausted, 1);
    }

    #[test]
    fn permanent_errors_pass_through_without_tripping_the_breaker() {
        let src = ResilientSource::new(
            mem_with(&[]),
            ResilienceConfig::retry_only(fast_retry(4)).with_breaker(BreakerConfig::new(1, 1e9, 1)),
            TimeScale::realtime(),
        );
        assert_eq!(src.read(9), Err(SourceError::NotFound(9)));
        assert_eq!(src.health(), SourceHealth::Healthy);
        let stats = src.resilience().unwrap();
        assert_eq!(stats.breaker_to_open, 0);
        assert_eq!((stats.retries, stats.exhausted), (0, 0));
        // Without a breaker too: one attempt, returned verbatim.
        let missing = Arc::new(FailNTimes::new(SourceError::NotFound(9), u64::MAX));
        let plain = retry_only(missing.clone(), 5);
        assert_eq!(plain.read(9), Err(SourceError::NotFound(9)));
        assert_eq!(missing.attempts(), 1);
        let stats = plain.resilience().unwrap();
        assert_eq!((stats.retries, stats.exhausted), (0, 0));
    }

    #[test]
    fn transient_bursts_recover_through_retry_and_breaker_stays_closed() {
        // Bounded bursts (max 2) under a 4-attempt budget with a
        // breaker threshold above the burst bound: every read succeeds
        // and the breaker never opens.
        let faulty = Arc::new(crate::fault::FaultySource::new(
            mem_with(&[0, 1, 2, 3]),
            crate::fault::ErrorInjection::new(0.4, 2, 0xC10D),
        ));
        let src = ResilientSource::new(
            faulty,
            ResilienceConfig::retry_only(fast_retry(4))
                .with_breaker(BreakerConfig::new(8, 0.001, 1)),
            TimeScale::realtime(),
        );
        for round in 0..50 {
            for id in 0..4u64 {
                let data = src
                    .read(id)
                    .unwrap_or_else(|e| panic!("round {round} id {id}: {e}"));
                assert_eq!(data[0], id as u8);
            }
        }
        let stats = src.resilience().unwrap();
        assert_eq!(stats.exhausted, 0);
        assert!(stats.retries > 0, "injection never fired");
        assert_eq!(stats.breaker_to_open, 0, "threshold 8 > burst bound 2");
    }

    #[test]
    fn latency_tracker_reports_the_quantile_with_a_floor() {
        let cfg = HedgeConfig::new(0.95, Duration::from_millis(2), 10);
        let mut t = LatencyTracker::new(cfg.window);
        // Unfilled window: the floor.
        t.record(Duration::from_millis(100));
        assert_eq!(t.delay(&cfg), Duration::from_millis(2));
        for ms in 1..=10u64 {
            t.record(Duration::from_millis(ms));
        }
        // p95 of ~1..=10 ms rounds to the top observations.
        let d = t.delay(&cfg);
        assert!(d >= Duration::from_millis(8), "p95 too low: {d:?}");
        // The floor still applies when observations are tiny.
        for _ in 0..10 {
            t.record(Duration::from_micros(1));
        }
        assert_eq!(t.delay(&cfg), Duration::from_millis(2));
    }
}
