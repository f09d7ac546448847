//! The analytic cloud-origin cost model.
//!
//! When a [`crate::scenario::Scenario`] carries a [`CloudSpec`], the
//! engine replaces every PFS read cost with `CloudModel::read_cost`:
//! an object-store request priced by a per-request latency floor, a
//! parallelism-dependent throughput curve, and the workspace's one
//! cloud failure vocabulary ([`nopfs_policy::CloudFaults`], declared
//! in `nopfs_perfmodel::cloud`), the same type the threaded runtime's
//! `nopfs_storage::ObjectStoreBackend` takes — spikes, bounded
//! throttle bursts, brownout windows. On the client side the model
//! replays a resilience stack in closed form, entirely in model time:
//! capped full-jitter retry backoff, per-attempt deadlines (which only
//! this client has; the runtime's `ResilientSource` sets none), a
//! hedged second request after a fixed delay, and the *same*
//! [`CircuitBreaker`] state machine the runtime uses (it is clocked by
//! an explicit `now`, so the discrete-event loop drives it directly).
//!
//! Disturbances change *when* a read completes, never *which* bytes the
//! policy consumes — the simulator's access streams are untouched, the
//! analogue of the runtime's bit-identical global stream guarantee.

use nopfs_obs::{names, ObsCtx, Tracer};
use nopfs_perfmodel::ThroughputCurve;
use nopfs_policy::CloudFaults;
use nopfs_storage::{BreakerConfig, CircuitBreaker, ResilienceStats, SourceHealth};
use nopfs_util::rng::mix64;

/// Maps a hash to a uniform draw in `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Client-side resilience knobs of the simulated origin, all in model
/// seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct CloudResilience {
    /// Attempts per read (≥ 1) before the model gives up capping and
    /// pays one full un-deadlined read.
    pub attempts: u32,
    /// First retry backoff ceiling.
    pub base_backoff: f64,
    /// Backoff ceiling cap.
    pub max_backoff: f64,
    /// Full-jitter fraction in `[0, 1]` (1 = canonical full jitter).
    pub jitter: f64,
    /// Per-attempt deadline; an attempt exceeding it is abandoned at
    /// the deadline and retried.
    pub deadline: Option<f64>,
    /// Consecutive deadline-capped retries per read before the client
    /// degrades to one patient, un-deadlined attempt. Bounds the waste
    /// under a sustained brownout where *no* attempt can meet the
    /// deadline (retrying forever would only delay the inevitable
    /// slow read).
    pub deadline_retries: u32,
    /// Hedging delay: when an attempt would outlive it, a second
    /// request fires and the attempt completes at the earlier of the
    /// two.
    pub hedge_delay: Option<f64>,
    /// Circuit breaker over consecutive failures.
    pub breaker: Option<BreakerConfig>,
    /// Seed of the backoff jitter.
    pub seed: u64,
}

impl CloudResilience {
    /// The unbounded naive client: retries forever-ish with backoff,
    /// no deadline, no hedge, no breaker — every disturbed request is
    /// waited out in full.
    pub fn naive(base_backoff: f64) -> Self {
        Self {
            attempts: 64,
            base_backoff,
            max_backoff: base_backoff * 1024.0,
            jitter: 1.0,
            deadline: None,
            deadline_retries: 0,
            hedge_delay: None,
            breaker: None,
            seed: 0x0AF5_0A11,
        }
    }

    /// The hardened client, scaled off the store's latency floor: 12
    /// attempts with backoff from a quarter floor up to 64 floors, a
    /// deadline at 16 floors (comfortably above the worst recoverable
    /// hedged read under a moderate brownout, so only genuine tail
    /// events trip it) with at most 2 deadline-capped retries per
    /// read, a hedge after a fixed 3 floors, and a breaker opening
    /// after 4 consecutive failures with a 4-floor cooldown and 2
    /// probes.
    ///
    /// It is the simulator's own client, not a copy of the runtime's
    /// chain: `ElasticJob`'s default cloud origin shares the breaker
    /// settings and full jitter, but takes 8 attempts on a 100 µs
    /// wall-clock backoff, hedges after the measured p95 latency (a
    /// 200 µs floor), and sets no deadline.
    pub fn hardened(latency_floor: f64) -> Self {
        Self {
            attempts: 12,
            base_backoff: latency_floor / 4.0,
            max_backoff: latency_floor * 64.0,
            jitter: 1.0,
            deadline: Some(16.0 * latency_floor),
            deadline_retries: 2,
            hedge_delay: Some(3.0 * latency_floor),
            breaker: Some(BreakerConfig::new(4, 4.0 * latency_floor, 2)),
            seed: 0x0AF5_0A11,
        }
    }
}

/// A scenario's cloud origin: store economics, disturbance clauses,
/// and the client resilience stack.
#[derive(Debug, Clone, PartialEq)]
pub struct CloudSpec {
    /// Per-request latency floor, model seconds.
    pub latency_floor: f64,
    /// Aggregate throughput vs. concurrent requests, model bytes/s.
    pub curve: ThroughputCurve,
    /// Seeded disturbances (shared policy-layer clauses).
    pub faults: CloudFaults,
    /// The client stack.
    pub resilience: CloudResilience,
}

impl CloudSpec {
    /// A new spec.
    ///
    /// # Panics
    /// Panics on a negative latency floor or invalid fault clauses.
    pub fn new(
        latency_floor: f64,
        curve: ThroughputCurve,
        faults: CloudFaults,
        resilience: CloudResilience,
    ) -> Self {
        assert!(
            latency_floor.is_finite() && latency_floor >= 0.0,
            "latency floor must be non-negative"
        );
        faults.validate().expect("valid cloud fault clauses");
        Self {
            latency_floor,
            curve,
            faults,
            resilience,
        }
    }
}

/// Mutable model state for one simulation run.
pub(crate) struct CloudModel {
    spec: CloudSpec,
    breaker: Option<CircuitBreaker>,
    tracer: Tracer,
    /// Per-read draw counter (the deterministic "randomness" stream).
    draws: u64,
    stats: ResilienceStats,
}

impl CloudModel {
    #[cfg(test)]
    pub(crate) fn new(spec: CloudSpec) -> Self {
        Self::with_obs(spec, &ObsCtx::new())
    }

    /// The model of `spec`'s origin. The breaker registers its
    /// transition counters in `obs`, and both the breaker and the hedge
    /// logic emit model-clock trace events through its tracer.
    pub(crate) fn with_obs(spec: CloudSpec, obs: &ObsCtx) -> Self {
        let breaker = spec.resilience.breaker.map(|cfg| {
            CircuitBreaker::new_in_registry(cfg, &obs.registry).with_tracer(obs.tracer.clone())
        });
        Self {
            spec,
            breaker,
            tracer: obs.tracer.clone(),
            draws: 0,
            stats: ResilienceStats::default(),
        }
    }

    /// Whether the origin accepts traffic at model time `now` — false
    /// while the breaker is open and cooling, the signal the engine
    /// feeds into the degraded source selection.
    pub(crate) fn available(&self, now: f64) -> bool {
        self.breaker
            .as_ref()
            .is_none_or(|b| b.health(now) != SourceHealth::Unavailable)
    }

    fn draw(&mut self, salt: u64) -> f64 {
        let h = mix64(self.spec.faults.seed ^ salt, self.draws);
        self.draws += 1;
        unit(h)
    }

    fn backoff(&mut self, retry: u32) -> f64 {
        let r = &self.spec.resilience;
        let ceiling = (r.base_backoff * 2f64.powi(retry.min(1024) as i32)).min(r.max_backoff);
        let u = unit(mix64(r.seed, self.draws));
        self.draws += 1;
        ceiling * ((1.0 - r.jitter) + r.jitter * u)
    }

    /// One disturbed service draw at model time `t`: the latency a
    /// single request issued now would take, ignoring throttling.
    fn service_time(&mut self, t: f64, size: u64, gamma: usize) -> f64 {
        let (bfactor, _) = self.spec.faults.brownout_at(t);
        let mut latency = self.spec.latency_floor * bfactor;
        if self.draw(0x5917_CE00) < self.spec.faults.spike_rate {
            latency *= self.spec.faults.spike_factor;
        }
        let g = gamma.max(1) as f64;
        let per_client = (self.spec.curve.at(g) / g).max(1.0);
        latency + size as f64 * bfactor / per_client
    }

    /// Cost in model seconds of completing one origin read of `size`
    /// bytes starting at model time `now` with `gamma` concurrent
    /// clients. Always terminates with the bytes delivered: after the
    /// attempt budget the final read is paid in full, un-deadlined (the
    /// throttle-burst bound guarantees a clean draw by then).
    pub(crate) fn read_cost(&mut self, now: f64, size: u64, gamma: usize) -> f64 {
        self.stats.reads += 1;
        let res = self.spec.resilience.clone();
        let mut t = now;
        let mut consecutive_throttles = 0u32;
        let mut deadline_retries = 0u32;
        for attempt in 0..res.attempts {
            // Breaker gate: the engine steers eligible fetches away
            // from an unavailable origin; a read that still arrives
            // here has nowhere else to go and waits for the next probe.
            if let Some(b) = &self.breaker {
                if !b.allow(t) {
                    if let Some(reopen) = b.reopen_at() {
                        t = t.max(reopen);
                    }
                    // At the reopen time the breaker admits a probe.
                    if !b.allow(t) {
                        // Half-open probe slots exhausted (cannot occur
                        // in the sequential engine, but stay safe).
                        t += res.base_backoff.max(self.spec.latency_floor);
                        continue;
                    }
                }
            }
            // Throttle draw: bounded burst per request, so a clean
            // service draw is guaranteed by attempt `throttle_burst`.
            let (_, extra) = self.spec.faults.brownout_at(t);
            let p_throttle = (self.spec.faults.throttle_rate + extra).min(0.999);
            if consecutive_throttles < self.spec.faults.throttle_burst
                && self.draw(0x7407_71E5) < p_throttle
            {
                consecutive_throttles += 1;
                self.stats.throttled += 1;
                self.stats.retries += 1;
                if let Some(b) = &self.breaker {
                    b.on_failure(t);
                }
                t += self.spec.faults.retry_after.max(self.backoff(attempt));
                continue;
            }
            let mut latency = self.service_time(t, size, gamma);
            // Hedge: a duplicate request after the fixed delay; the
            // attempt completes at the earlier of the two.
            if let Some(hd) = res.hedge_delay {
                if latency > hd {
                    self.stats.hedges_fired += 1;
                    self.tracer
                        .instant_at(names::EV_HEDGE_FIRED, "cloud", t + hd, vec![]);
                    let hedged = hd + self.service_time(t + hd, size, gamma);
                    if hedged < latency {
                        self.stats.hedges_won += 1;
                        latency = hedged;
                    }
                }
            }
            // Deadline: abandon the attempt at the deadline and retry —
            // but only `deadline_retries` times per read. Under a
            // sustained brownout no attempt can meet the deadline;
            // after the cap the client degrades to one patient read
            // (paying the slow read once beats paying the deadline
            // `attempts` times *and then* the slow read).
            if let Some(dl) = res.deadline {
                if latency > dl && deadline_retries < res.deadline_retries {
                    deadline_retries += 1;
                    self.stats.deadline_misses += 1;
                    self.stats.retries += 1;
                    if let Some(b) = &self.breaker {
                        b.on_failure(t + dl);
                    }
                    t += dl + self.backoff(attempt);
                    continue;
                }
            }
            if let Some(b) = &self.breaker {
                b.on_success(t + latency);
            }
            return t + latency - now;
        }
        // Attempt budget exhausted on throttles/deadlines: one final
        // un-deadlined read completes the request.
        self.stats.exhausted += 1;
        let latency = self.service_time(t, size, gamma);
        if let Some(b) = &self.breaker {
            b.on_success(t + latency);
        }
        t + latency - now
    }

    /// Accumulated resilience counters, breaker transitions folded in.
    pub(crate) fn stats(&self) -> ResilienceStats {
        let mut s = self.stats;
        if let Some(b) = &self.breaker {
            let (to_open, to_half_open, to_closed, rejections) = b.transitions();
            s.breaker_to_open = to_open;
            s.breaker_to_half_open = to_half_open;
            s.breaker_to_closed = to_closed;
            s.breaker_open_rejections = rejections;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nopfs_policy::CloudFaults;

    fn flat_spec(faults: CloudFaults, resilience: CloudResilience) -> CloudSpec {
        CloudSpec::new(
            0.01,
            ThroughputCurve::flat(100_000_000.0),
            faults,
            resilience,
        )
    }

    #[test]
    fn quiet_store_costs_latency_plus_transfer() {
        let mut m = CloudModel::new(flat_spec(
            CloudFaults::none(1),
            CloudResilience::naive(0.001),
        ));
        // 1 MB at 100 MB/s (γ=1) + 10 ms floor = 20 ms.
        let c = m.read_cost(0.0, 1_000_000, 1);
        assert!((c - 0.02).abs() < 1e-9, "cost {c}");
        // Contention shares the curve: γ=4 on a flat curve quarters the
        // per-client rate.
        let c4 = m.read_cost(0.0, 1_000_000, 4);
        assert!((c4 - 0.05).abs() < 1e-9, "cost {c4}");
        assert_eq!(m.stats().reads, 2);
    }

    #[test]
    fn brownout_inflates_inside_the_window_only() {
        let faults = CloudFaults::none(2).brownout(10.0, 5.0, 4.0, 0.0);
        let mut m = CloudModel::new(flat_spec(faults, CloudResilience::naive(0.001)));
        let quiet = m.read_cost(0.0, 1_000_000, 1);
        let browned = m.read_cost(12.0, 1_000_000, 1);
        let after = m.read_cost(20.0, 1_000_000, 1);
        assert!((browned - 4.0 * quiet).abs() < 1e-9, "{browned} vs {quiet}");
        assert!((after - quiet).abs() < 1e-9);
    }

    #[test]
    fn throttle_bursts_are_bounded_and_breaker_opens_under_storm() {
        // A brownout throttle storm deeper than the breaker threshold
        // (burst 6 > threshold 4): reads inside the window trip the
        // breaker; the calm after the window re-closes it.
        let faults = CloudFaults {
            throttle_burst: 6,
            retry_after: 0.005,
            ..CloudFaults::none(3)
        }
        .brownout(0.0, 2.0, 1.0, 0.95);
        let mut m = CloudModel::new(flat_spec(faults, CloudResilience::hardened(0.01)));
        let mut t = 0.0;
        for _ in 0..50 {
            let c = m.read_cost(t, 1_000, 1);
            assert!(c.is_finite() && c > 0.0);
            t += c;
        }
        assert!(t > 2.0, "the sweep must outlive the storm window");
        let s = m.stats();
        assert_eq!(s.reads, 50);
        assert!(s.throttled > 0);
        assert!(s.exhausted == 0, "bounded bursts never exhaust 12 attempts");
        assert!(s.breaker_to_open > 0, "a 95% throttle storm must trip");
        assert!(s.breaker_to_closed > 0, "the calm after must re-close");
    }

    #[test]
    fn hedging_caps_tail_spikes() {
        let faults = CloudFaults {
            spike_rate: 0.3,
            spike_factor: 50.0,
            ..CloudFaults::none(4)
        };
        let mut naive = CloudModel::new(flat_spec(faults.clone(), CloudResilience::naive(0.001)));
        let mut hedged = CloudModel::new(flat_spec(faults, CloudResilience::hardened(0.01)));
        let (mut tn, mut th) = (0.0, 0.0);
        for _ in 0..200 {
            tn += naive.read_cost(tn, 10_000, 1);
            th += hedged.read_cost(th, 10_000, 1);
        }
        assert!(
            th < 0.5 * tn,
            "hedged {th} should far undercut naive {tn} under 50x spikes"
        );
        assert!(hedged.stats().hedges_fired > 0);
        assert!(hedged.stats().hedges_won > 0);
        assert_eq!(naive.stats().hedges_fired, 0);
    }

    #[test]
    fn open_breaker_reports_unavailable_until_cooldown() {
        let faults = CloudFaults {
            throttle_rate: 0.999_999,
            throttle_burst: 100,
            retry_after: 0.001,
            ..CloudFaults::none(5)
        };
        // Enough attempts to cross the 4-failure threshold, few enough
        // that the read gives up while the breaker is still open.
        let mut res = CloudResilience::hardened(0.01);
        res.attempts = 6;
        let mut m = CloudModel::new(flat_spec(faults, res));
        assert!(m.available(0.0));
        let c = m.read_cost(0.0, 1_000, 1);
        assert!(c.is_finite());
        assert!(m.stats().breaker_to_open > 0);
        // Just after the failures: open and cooling.
        let opened = m.breaker.as_ref().unwrap().reopen_at();
        if let Some(reopen) = opened {
            assert!(!m.available(reopen - 0.01));
            assert!(m.available(reopen + 0.01));
        }
    }

    #[test]
    fn identical_seeds_give_identical_cost_sequences() {
        let faults = CloudFaults {
            spike_rate: 0.2,
            spike_factor: 10.0,
            throttle_rate: 0.2,
            throttle_burst: 2,
            retry_after: 0.002,
            ..CloudFaults::none(6)
        };
        let run = |spec: CloudSpec| {
            let mut m = CloudModel::new(spec);
            let mut t = 0.0;
            let mut costs = Vec::new();
            for _ in 0..100 {
                let c = m.read_cost(t, 5_000, 2);
                costs.push(c);
                t += c;
            }
            costs
        };
        let a = run(flat_spec(faults.clone(), CloudResilience::hardened(0.01)));
        let b = run(flat_spec(faults, CloudResilience::hardened(0.01)));
        assert_eq!(a, b);
    }
}
