//! The resilience layer: retry, hedged requests, and a circuit breaker
//! over any [`DataSource`].
//!
//! Object-store origins fail differently from a PFS: tail latency,
//! throttling, and brownouts dominate, and the cloud-storage
//! characterization literature (arxiv 2108.06322) shows naive loaders
//! degrade unboundedly under them. [`ResilientSource`] composes the
//! standard defenses into one wrapper that slots beneath a
//! [`crate::TierStack`] like every other [`DataSource`]:
//!
//! - **hedged requests** — when the primary read outlives a measured
//!   latency quantile, a duplicate is fired and the first answer wins
//!   (hedging changes *when* bytes arrive, never *which* bytes);
//! - **retry** — retryable failures are re-attempted under the caller's
//!   [`RetryPolicy`] (capped exponential backoff, full jitter). This is
//!   the storage layer's one retry loop:
//!   [`ResilienceConfig::retry_only`] — no hedge or breaker — is the
//!   plain retrying source;
//! - **circuit breaking** — consecutive failures open a [`CircuitBreaker`];
//!   while open, reads fail fast with [`SourceError::Unavailable`] so
//!   the fetch path can degrade gracefully to peers or lower tiers, and
//!   half-open probes re-close the breaker once the backend recovers.
//!
//! Layering, outermost first: breaker → retry → hedge, with no
//! per-attempt deadline. Every decision of that client — admit, hedge
//! delay, what a success or a failure books, and whether to retry —
//! is made by one clock-free [`ResilienceCore`]: [`ResilientSource`]
//! runs it with real reads on the wall clock, and the simulator's
//! cloud model (`nopfs_simulator::cloud`) runs it on modelled costs.
//! Everything observable is counted in [`ResilienceStats`], read
//! through [`ResilientSource::stats`] next to the per-tier
//! [`crate::TierStats`].

use crate::fault::RetryPolicy;
use crate::tier::{DataSource, SourceError, SourceHealth};
use crate::SampleId;
use bytes::Bytes;
use nopfs_obs::{names, ArgValue, Counter, Histogram, Registry, Tracer};
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
    /// A new breaker, initially closed, whose transition counters
    /// register in `registry` as `breaker.*` metrics.
    pub fn new(cfg: BreakerConfig, registry: &Registry) -> Self {
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
    /// The recorded latencies, at most `len` of them.
    window: Vec<Duration>,
    /// The window's length, kept here because `Vec::with_capacity`
    /// only bounds the capacity from below.
    len: usize,
    /// The slot the next latency overwrites once the window is full:
    /// the oldest.
    next: usize,
}

impl LatencyTracker {
    fn new(len: usize) -> Self {
        Self {
            window: Vec::with_capacity(len),
            len,
            next: 0,
        }
    }

    fn record(&mut self, latency: Duration) {
        if self.window.len() < self.len {
            self.window.push(latency);
        } else {
            self.window[self.next] = latency;
        }
        self.next = (self.next + 1) % self.len;
    }

    /// The hedge delay: `min_delay` until the window has filled (no
    /// evidence, no aggression), then the configured quantile of the
    /// window, floored at `min_delay` always.
    fn delay(&self, cfg: &HedgeConfig) -> Duration {
        if self.window.len() < self.len {
            return cfg.min_delay;
        }
        let mut window = self.window.clone();
        let rank = ((window.len() as f64 - 1.0) * cfg.quantile).round() as usize;
        let (_, quantile, _) = window.select_nth_unstable(rank.min(self.len - 1));
        (*quantile).max(cfg.min_delay)
    }
}

/// Everything the client layers over a backend. [`ResilientSource`]
/// reads its `Duration`s as wall time; the simulator's cloud model
/// reads them as model seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceConfig {
    /// Retry schedule for retryable failures.
    pub retry: RetryPolicy,
    /// Hedged-request tuning; `None` disables hedging.
    pub hedge: Option<HedgeConfig>,
    /// Circuit-breaker tuning; `None` disables breaking.
    pub breaker: Option<BreakerConfig>,
}

impl ResilienceConfig {
    /// Retry-only resilience (no hedge or breaker).
    pub fn retry_only(retry: RetryPolicy) -> Self {
        Self {
            retry,
            hedge: None,
            breaker: None,
        }
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
        self.throttled += other.throttled;
        self.breaker_open_rejections += other.breaker_open_rejections;
        self.breaker_to_open += other.breaker_to_open;
        self.breaker_to_half_open += other.breaker_to_half_open;
        self.breaker_to_closed += other.breaker_to_closed;
    }
}

/// The client's decisions, written once and clocked by the caller, like
/// the [`CircuitBreaker`] it holds: every `now` is model seconds on the
/// caller's clock. Besides the breaker it holds the latency window, the
/// jitter draw counter and the `resilience.*` counters, and it is the
/// only place that books a read, retry, hedge, throttle or exhaustion.
/// [`ResilientSource`] runs it with real reads on the wall clock; the
/// simulator's cloud model runs it on modelled costs.
#[derive(Debug)]
pub struct ResilienceCore {
    cfg: ResilienceConfig,
    breaker: Option<CircuitBreaker>,
    tracker: Mutex<LatencyTracker>,
    draws: AtomicU64,
    tracer: Tracer,
    // The `resilience.*` counters, viewed as `ResilienceStats`.
    reads: Counter,
    retries: Counter,
    exhausted: Counter,
    hedges_fired: Counter,
    hedges_won: Counter,
    throttled: Counter,
}

impl ResilienceCore {
    /// The core of `cfg`; its `resilience.*` and `breaker.*` counters
    /// register in `registry`.
    pub fn new(cfg: ResilienceConfig, registry: &Registry) -> Self {
        Self {
            breaker: cfg.breaker.map(|b| CircuitBreaker::new(b, registry)),
            tracker: Mutex::new(LatencyTracker::new(cfg.hedge.map_or(1, |h| h.window))),
            cfg,
            draws: AtomicU64::new(0),
            tracer: Tracer::noop(),
            reads: registry.counter(names::RES_READS),
            retries: registry.counter(names::RES_RETRIES),
            exhausted: registry.counter(names::RES_EXHAUSTED),
            hedges_fired: registry.counter(names::RES_HEDGES_FIRED),
            hedges_won: registry.counter(names::RES_HEDGES_WON),
            throttled: registry.counter(names::RES_THROTTLED),
        }
    }

    /// Attaches a tracer: hedge firings and breaker transitions emit
    /// model-clock instants into it.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.breaker = self.breaker.map(|b| b.with_tracer(tracer.clone()));
        self.tracer = tracer;
        self
    }

    /// The breaker, when configured.
    pub fn breaker(&self) -> Option<&CircuitBreaker> {
        self.breaker.as_ref()
    }

    /// Books `n` reads entering the client.
    pub fn begin(&self, n: u64) {
        self.reads.add(n);
    }

    /// Whether a request is admitted at `now`: always without a
    /// breaker, else the breaker's answer (a refusal counts one
    /// rejection).
    pub fn admit(&self, now: f64) -> bool {
        self.breaker.as_ref().is_none_or(|b| b.allow(now))
    }

    /// How long a request may run before its hedge fires: `None`
    /// without hedging, else the latency window's quantile, floored at
    /// `min_delay`.
    pub fn hedge_delay(&self) -> Option<Duration> {
        let h = self.cfg.hedge.as_ref()?;
        Some(self.tracker.lock().delay(h))
    }

    /// Books a hedge fired at `now`; `args` ride on its trace instant.
    pub fn hedge_fired(&self, now: f64, args: Vec<(&'static str, ArgValue)>) {
        self.hedges_fired.inc();
        self.tracer
            .instant_at(names::EV_HEDGE_FIRED, "resilience", now, args);
    }

    /// Books a success at `now`: `latency` is the answering request's
    /// own, and `hedge_won` whether the hedge gave the answer.
    pub fn on_success(&self, now: f64, latency: Duration, hedge_won: bool) {
        if let Some(b) = &self.breaker {
            b.on_success(now);
        }
        if hedge_won {
            self.hedges_won.inc();
        }
        if self.cfg.hedge.is_some() {
            self.tracker.lock().record(latency);
        }
    }

    /// Books `err`, the failure of attempt number `attempt` (0-based)
    /// at `now`, and decides what follows. `Some(wait)`: retry after
    /// `max(RetryPolicy::backoff, retry_after)`. `None`: give up —
    /// at once, booking nothing, on an error that is not retryable (a
    /// missing sample says nothing about the backend's health), or when
    /// the budget is spent, booked as `exhausted`.
    pub fn on_failure(&self, now: f64, attempt: u32, err: &SourceError) -> Option<Duration> {
        if !err.is_retryable() {
            return None;
        }
        self.count_throttle(err);
        if let Some(b) = &self.breaker {
            b.on_failure(now);
        }
        if attempt + 1 >= self.cfg.retry.attempts {
            self.exhausted.inc();
            return None;
        }
        self.retries.inc();
        let draw = self.draws.fetch_add(1, Ordering::Relaxed);
        let backoff = self.cfg.retry.backoff(attempt, draw);
        Some(match err {
            SourceError::Throttled { retry_after } => backoff.max(*retry_after),
            _ => backoff,
        })
    }

    /// Books one vectored attempt at `now` once: the breaker sees one
    /// failure if any id failed retryably, else one success, and each
    /// retryable straggler counts its throttle and the retry that
    /// re-drives it.
    pub fn on_batch(&self, now: f64, results: &[Result<Bytes, SourceError>]) {
        let mut failed = false;
        for e in results.iter().filter_map(|r| r.as_ref().err()) {
            if e.is_retryable() {
                failed = true;
                self.count_throttle(e);
                self.retries.inc();
            }
        }
        if let Some(b) = &self.breaker {
            if failed {
                b.on_failure(now);
            } else {
                b.on_success(now);
            }
        }
    }

    fn count_throttle(&self, err: &SourceError) {
        if matches!(err, SourceError::Throttled { .. }) {
            self.throttled.inc();
        }
    }

    /// The counters so far, breaker transitions folded in.
    pub fn stats(&self) -> ResilienceStats {
        let (to_open, to_half_open, to_closed, rejections) = self
            .breaker
            .as_ref()
            .map_or((0, 0, 0, 0), CircuitBreaker::transitions);
        ResilienceStats {
            reads: self.reads.get(),
            retries: self.retries.get(),
            exhausted: self.exhausted.get(),
            hedges_fired: self.hedges_fired.get(),
            hedges_won: self.hedges_won.get(),
            throttled: self.throttled.get(),
            breaker_open_rejections: rejections,
            breaker_to_open: to_open,
            breaker_to_half_open: to_half_open,
            breaker_to_closed: to_closed,
        }
    }
}

/// One attempt's answer, the answering request's own latency, and
/// whether the hedge gave it.
type Attempt = (Result<Bytes, SourceError>, Duration, bool);

/// A [`DataSource`] wrapper combining hedging, retry, and circuit
/// breaking — the full failure domain for an object-store (or any
/// flaky) origin. Layering, outermost first: breaker (fail fast while
/// open) → retry loop → hedge. It runs a [`ResilienceCore`] with real
/// reads on the wall clock.
pub struct ResilientSource {
    inner: Arc<dyn DataSource>,
    core: ResilienceCore,
    /// End-to-end read latency (ns), breaker rejections included.
    read_latency: Histogram,
    scale: TimeScale,
    start: Instant,
}

impl std::fmt::Debug for ResilientSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientSource")
            .field("inner", &self.inner.name())
            .field("core", &self.core)
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
        Self {
            inner,
            core: ResilienceCore::new(cfg, registry),
            read_latency: registry.histogram(names::RES_READ_LATENCY),
            scale,
            start: Instant::now(),
        }
    }

    /// Attaches a tracer: hedge firings and breaker state changes emit
    /// model-clock instants into it.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.core = self.core.with_tracer(tracer);
        self
    }

    /// Model time since construction, the core's clock.
    fn now(&self) -> f64 {
        self.scale.to_model(self.start.elapsed())
    }

    /// The breaker, when configured (for tests and telemetry).
    pub fn breaker(&self) -> Option<&CircuitBreaker> {
        self.core.breaker()
    }

    /// The layer's counters so far (retries, hedges, breaker
    /// transitions).
    pub fn stats(&self) -> ResilienceStats {
        self.core.stats()
    }

    /// One attempt: the primary read and, once it has outlived the
    /// hedge delay, a duplicate. The first success wins; when both
    /// fail, the later failure is the answer.
    fn attempt(&self, id: SampleId) -> Attempt {
        // Fast path: nothing to race, read inline (no thread spawn, and
        // no clock: only the hedge's latency window reads the latency).
        let Some(hedge_delay) = self.core.hedge_delay() else {
            return (self.inner.read(id), Duration::ZERO, false);
        };
        let (tx, rx) = mpsc::channel::<Attempt>();
        let spawn = |hedge: bool| {
            let inner = Arc::clone(&self.inner);
            let tx = tx.clone();
            std::thread::spawn(move || {
                let t0 = Instant::now();
                let r = inner.read(id);
                // The loser's result is dropped with the receiver.
                let _ = tx.send((r, t0.elapsed(), hedge));
            });
        };
        spawn(false);
        match rx.recv_timeout(hedge_delay) {
            Ok(done) => return done,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                self.core
                    .hedge_fired(self.now(), vec![("sample", id.into())]);
                spawn(true);
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => unreachable!("senders outlive us"),
        }
        let first = rx.recv().expect("senders outlive us");
        if first.0.is_ok() {
            return first;
        }
        rx.recv().expect("senders outlive us")
    }

    /// One breaker admission: `Err` is the fail-fast answer while the
    /// breaker is open.
    fn admit(&self) -> Result<(), SourceError> {
        if self.core.admit(self.now()) {
            return Ok(());
        }
        Err(SourceError::Unavailable(format!(
            "{}: circuit open",
            self.inner.name()
        )))
    }

    /// **The** retry loop behind every read: breaker → retry → hedge,
    /// each decision the core's. Between attempts it sleeps the wait
    /// the core returns.
    fn retry(&self, id: SampleId) -> Result<Bytes, SourceError> {
        let mut attempt = 0;
        loop {
            self.admit()?;
            let err = match self.attempt(id) {
                (Ok(data), latency, hedge_won) => {
                    self.core.on_success(self.now(), latency, hedge_won);
                    return Ok(data);
                }
                (Err(e), ..) => e,
            };
            match self.core.on_failure(self.now(), attempt, &err) {
                Some(wait) => std::thread::sleep(wait),
                None => return Err(err),
            }
            attempt += 1;
        }
    }
}

impl DataSource for ResilientSource {
    fn read(&self, id: SampleId) -> Result<Bytes, SourceError> {
        // Only pay for the clock when a histogram is listening.
        let t0 = self.read_latency.is_active().then(Instant::now);
        self.core.begin(1);
        let result = self.retry(id);
        if let Some(t0) = t0 {
            self.read_latency.record_duration(t0.elapsed());
        }
        result
    }

    /// A length-1 call is [`Self::read`], hedge included.
    /// A longer batch is admitted through the breaker **once** (an
    /// open breaker answers every id `Unavailable` without touching the
    /// inner source) and goes down as one inner vectored read, so a
    /// coalescing backend keeps its batching; its outcome is booked
    /// once. Each retryable straggler is then re-driven through the
    /// retry loop — after the inner call has returned, so no backoff
    /// sleeps inside the inner source's reader registration. Permanent
    /// errors are returned in place.
    fn read_each(&self, ids: &[SampleId], sink: &mut dyn FnMut(Result<Bytes, SourceError>)) {
        if let &[id] = ids {
            return sink(self.read(id));
        }
        self.core.begin(ids.len() as u64);
        if let Err(e) = self.admit() {
            return ids.iter().for_each(|_| sink(Err(e.clone())));
        }
        let mut results = Vec::with_capacity(ids.len());
        self.inner.read_each(ids, &mut |r| results.push(r));
        self.core.on_batch(self.now(), &results);
        for (r, &id) in results.into_iter().zip(ids) {
            sink(match r {
                Err(e) if e.is_retryable() => self.retry(id),
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
        match self.core.breaker() {
            Some(b) => b.health(self.now()),
            None => self.inner.health(),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::backend::{MemoryBackend, StorageBackend};
    use std::collections::HashMap;

    /// A memory source holding `ids`, each as 8 bytes of `id as u8`.
    pub(crate) fn mem_with(ids: &[SampleId]) -> Arc<dyn DataSource> {
        let m = MemoryBackend::new("mem", 1_000_000);
        for &id in ids {
            m.insert(id, Bytes::from(vec![id as u8; 8])).unwrap();
        }
        Arc::new(m)
    }

    fn fast_retry(attempts: u32) -> RetryPolicy {
        RetryPolicy::new(attempts, Duration::from_micros(10), 0.5, 7)
    }

    /// A memory source whose first read waits until the test opens
    /// its gate.
    struct SlowSource {
        inner: Arc<dyn DataSource>,
        gate: Mutex<Option<Arc<std::sync::atomic::AtomicBool>>>,
    }

    impl SlowSource {
        fn gated(inner: Arc<dyn DataSource>, open: &Arc<std::sync::atomic::AtomicBool>) -> Self {
            Self {
                inner,
                gate: Mutex::new(Some(Arc::clone(open))),
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

    /// A source over `inner` whose reads of each sample fail in bursts:
    /// `n` reads fail with `error`, the next is served by `inner`, and
    /// so on (`u64::MAX` fails every read). It counts every attempt and
    /// every failure; everything but `read` passes through.
    pub(crate) struct FailNTimes {
        inner: Arc<dyn DataSource>,
        error: SourceError,
        n: u64,
        reads: Mutex<HashMap<SampleId, u64>>,
        attempts: AtomicU64,
        failures: AtomicU64,
    }

    impl FailNTimes {
        pub(crate) fn new(inner: Arc<dyn DataSource>, error: SourceError, n: u64) -> Self {
            Self {
                inner,
                error,
                n,
                reads: Mutex::new(HashMap::new()),
                attempts: AtomicU64::new(0),
                failures: AtomicU64::new(0),
            }
        }

        pub(crate) fn attempts(&self) -> u64 {
            self.attempts.load(Ordering::Relaxed)
        }

        pub(crate) fn failures(&self) -> u64 {
            self.failures.load(Ordering::Relaxed)
        }
    }

    impl DataSource for FailNTimes {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn read(&self, id: SampleId) -> Result<Bytes, SourceError> {
            self.attempts.fetch_add(1, Ordering::Relaxed);
            let nth = {
                let mut reads = self.reads.lock();
                let count = reads.entry(id).or_default();
                *count += 1;
                *count - 1
            };
            if nth % self.n.saturating_add(1) < self.n {
                self.failures.fetch_add(1, Ordering::Relaxed);
                return Err(self.error.clone());
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

    pub(crate) fn retry_only(inner: Arc<dyn DataSource>, attempts: u32) -> ResilientSource {
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
        let down = Arc::new(FailNTimes::new(
            mem_with(&[3]),
            SourceError::Io("down".into()),
            u64::MAX,
        ));
        let src = retry_only(down.clone(), 4);
        match src.read(3) {
            Err(SourceError::Io(m)) => assert_eq!(m, "down"),
            other => panic!("expected Io, got {other:?}"),
        }
        // Exactly the whole budget was spent: 4 attempts, 3 retries.
        assert_eq!(down.attempts(), 4);
        let stats = src.stats();
        assert_eq!((stats.reads, stats.retries, stats.exhausted), (1, 3, 1));
    }

    #[test]
    fn throttled_errors_are_retried_unavailable_is_not() {
        // Throttled: retried through, honoring retry_after as a floor
        // under a 10 µs client backoff.
        let throttled = Arc::new(FailNTimes::new(
            mem_with(&[7]),
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
        let stats = src.stats();
        assert_eq!((stats.retries, stats.throttled), (2, 2));
        // Unavailable (open breaker downstream): fail-fast, one attempt.
        let open = Arc::new(FailNTimes::new(
            mem_with(&[1]),
            SourceError::Unavailable("circuit open".into()),
            10,
        ));
        let src = retry_only(open.clone(), 5);
        assert!(matches!(src.read(1), Err(SourceError::Unavailable(_))));
        assert_eq!(open.attempts(), 1);
        assert_eq!(src.stats().retries, 0);
    }

    #[test]
    fn read_each_retries_stragglers_and_keeps_permanent_errors() {
        // Transient bursts below the retry budget: every present id
        // comes back clean from one vectored call; the absent id ends
        // NotFound, which is returned, not retried. Every id counts one
        // read, and every failed attempt one retry.
        for burst in 0..4u64 {
            let faulty = Arc::new(FailNTimes::new(
                mem_with(&[0, 1, 2, 3]),
                SourceError::Io("burst".into()),
                burst,
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
                            .unwrap_or_else(|e| panic!("burst {burst} round {round} id {id}: {e}"));
                        assert_eq!(data[0], id as u8);
                    }
                }
            }
            let stats = src.stats();
            assert_eq!(stats.reads, 30 * ids.len() as u64);
            assert_eq!(stats.retries, faulty.failures());
            assert_eq!(stats.retries, 30 * ids.len() as u64 * burst);
            assert_eq!(stats.exhausted, 0);
        }
    }

    #[test]
    fn open_breaker_rejects_a_vectored_batch_without_touching_the_source() {
        let counting = Arc::new(FailNTimes::new(
            mem_with(&[]),
            SourceError::Io("unused".into()),
            0,
        ));
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
        let stats = src.stats();
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
        let b = CircuitBreaker::new(BreakerConfig::new(3, 10.0, 2), &Registry::new());
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
        let b = CircuitBreaker::new(BreakerConfig::new(2, 5.0, 1), &Registry::new());
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
        let always_down = Arc::new(FailNTimes::new(
            mem_with(&[5]),
            SourceError::Io("down".into()),
            u64::MAX,
        ));
        // Synthetic: trip the breaker directly, then read.
        let src = ResilientSource::new(
            always_down.clone(),
            ResilienceConfig::retry_only(fast_retry(2)).with_breaker(BreakerConfig::new(1, 1e9, 1)),
            TimeScale::realtime(),
        );
        src.breaker().unwrap().on_failure(0.0);
        assert_eq!(src.health(), SourceHealth::Unavailable);
        match src.read(5) {
            Err(SourceError::Unavailable(msg)) => assert!(msg.contains("circuit open")),
            other => panic!("expected Unavailable, got {other:?}"),
        }
        assert_eq!(
            always_down.attempts(),
            0,
            "the open breaker let a read through"
        );
        let stats = src.stats();
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
        let stats = src.stats();
        assert_eq!(stats.hedges_fired, 1);
        assert_eq!(stats.hedges_won, 1);
        // Fast reads do not hedge.
        assert_eq!(src.read(2).unwrap(), direct.read(2).unwrap());
        assert_eq!(src.stats().hedges_fired, 1);
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
        let stats = src.stats();
        assert_eq!(stats.breaker_to_open, 0);
        assert_eq!((stats.retries, stats.exhausted), (0, 0));
        // Without a breaker too: one attempt, returned verbatim.
        let missing = Arc::new(FailNTimes::new(
            mem_with(&[]),
            SourceError::NotFound(9),
            u64::MAX,
        ));
        let plain = retry_only(missing.clone(), 5);
        assert_eq!(plain.read(9), Err(SourceError::NotFound(9)));
        assert_eq!(missing.attempts(), 1);
        let stats = plain.stats();
        assert_eq!((stats.retries, stats.exhausted), (0, 0));
    }

    #[test]
    fn transient_bursts_recover_through_retry_and_breaker_stays_closed() {
        // Bursts of 2 under a 4-attempt budget with a breaker
        // threshold above the burst bound: every read succeeds and the
        // breaker never opens.
        let faulty = Arc::new(FailNTimes::new(
            mem_with(&[0, 1, 2, 3]),
            SourceError::Io("burst".into()),
            2,
        ));
        let src = ResilientSource::new(
            faulty.clone(),
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
        let stats = src.stats();
        assert_eq!(stats.exhausted, 0);
        assert_eq!(stats.retries, faulty.failures());
        assert_eq!(stats.retries, 50 * 4 * 2, "every read met its burst");
        assert_eq!(stats.breaker_to_open, 0, "threshold 8 > burst bound 2");
    }

    #[test]
    fn core_hedge_delay_is_the_floor_until_the_window_fills_then_its_quantile() {
        let (n, floor) = (5u64, Duration::from_millis(2));
        let ms = Duration::from_millis;
        let core = ResilienceCore::new(
            ResilienceConfig::retry_only(fast_retry(1))
                .with_hedge(HedgeConfig::new(0.5, floor, n as usize)),
            &Registry::new(),
        );
        assert_eq!(core.hedge_delay(), Some(floor), "no latency yet");
        for k in 1..n {
            core.on_success(0.0, ms(10 * k), false);
            assert_eq!(core.hedge_delay(), Some(floor), "{k} of {n} latencies");
        }
        // The N-th latency fills the window: 10..=50 ms, median 30 ms.
        core.on_success(0.0, ms(50), false);
        assert_eq!(core.hedge_delay(), Some(ms(30)));
        // Tiny latencies push the quantile below the floor: floored.
        for _ in 0..n {
            core.on_success(0.0, Duration::from_micros(1), false);
            assert!(core.hedge_delay() >= Some(floor));
        }
        assert_eq!(core.hedge_delay(), Some(floor));
        // The window holds exactly N: three slow reads evict three of
        // the five tiny ones, and the median is slow.
        for _ in 0..3 {
            core.on_success(0.0, ms(100), false);
        }
        assert_eq!(core.hedge_delay(), Some(ms(100)));
        // Without a hedge there is no delay to ask for.
        let plain = ResilienceCore::new(
            ResilienceConfig::retry_only(fast_retry(1)),
            &Registry::new(),
        );
        assert_eq!(plain.hedge_delay(), None);
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
