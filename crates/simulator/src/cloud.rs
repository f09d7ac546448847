//! The analytic cloud-origin cost model.
//!
//! When a [`crate::scenario::Scenario`] carries a [`CloudSpec`], the
//! engine replaces every PFS read cost with `CloudModel::read_cost`:
//! an object-store request priced by a per-request latency floor, a
//! parallelism-dependent throughput curve, and the workspace's one
//! cloud failure vocabulary ([`nopfs_policy::CloudFaults`], declared
//! in `nopfs_perfmodel::cloud`), the same type the threaded runtime's
//! `nopfs_storage::ObjectStoreBackend` takes — spikes, bounded
//! throttle bursts, brownout windows. The client is the runtime's own:
//! a [`ResilienceConfig`] run by the storage crate's
//! [`ResilienceCore`], which takes every admit, retry, backoff and
//! hedge decision and books every counter, here on the model clock
//! (its `Duration`s read as model seconds). The model adds only what a
//! model must: it draws each attempt's outcome from the faults, waits
//! out an open breaker, and prices a hedge as a second draw.
//!
//! Disturbances change *when* a read completes, never *which* bytes the
//! policy consumes — the simulator's access streams are untouched, the
//! analogue of the runtime's bit-identical global stream guarantee.

use nopfs_obs::{Registry, Tracer};
use nopfs_perfmodel::ThroughputCurve;
use nopfs_policy::CloudFaults;
use nopfs_storage::{
    BreakerConfig, CircuitBreaker, HedgeConfig, ResilienceConfig, ResilienceCore, ResilienceStats,
    RetryPolicy, SourceError, SourceHealth,
};
use nopfs_util::rng::mix64;
use std::time::Duration;

/// Maps a hash to a uniform draw in `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// The jitter seed of both preset clients.
const CLIENT_SEED: u64 = 0x0AF5_0A11;

/// The unbounded naive client: 64 attempts on a full-jitter backoff
/// from `base_backoff` model seconds (capped at 1024×), no hedge, no
/// breaker — every disturbed request is waited out in full.
pub fn naive_client(base_backoff: f64) -> ResilienceConfig {
    let base = Duration::from_secs_f64(base_backoff);
    ResilienceConfig::retry_only(RetryPolicy::new(64, base, 1.0, CLIENT_SEED))
}

/// The hardened client, scaled off the store's latency floor (model
/// seconds): 12 attempts with backoff from a quarter floor up to 64
/// floors, a hedge once a request outlives the median of the last 64
/// latencies (3 floors at least), and a breaker opening after 4
/// consecutive failures with a 4-floor cooldown and 2 probes.
pub fn hardened_client(latency_floor: f64) -> ResilienceConfig {
    let floor = Duration::from_secs_f64(latency_floor);
    let retry = RetryPolicy::new(12, floor / 4, 1.0, CLIENT_SEED).with_max_backoff(floor * 64);
    ResilienceConfig::retry_only(retry)
        .with_hedge(HedgeConfig::new(0.5, floor * 3, 64))
        .with_breaker(BreakerConfig::new(4, 4.0 * latency_floor, 2))
}

/// A scenario's cloud origin: store economics, disturbance clauses,
/// and the client.
#[derive(Debug, Clone, PartialEq)]
pub struct CloudSpec {
    /// Per-request latency floor, model seconds.
    pub latency_floor: f64,
    /// Aggregate throughput vs. concurrent requests, model bytes/s.
    pub curve: ThroughputCurve,
    /// Seeded disturbances (shared policy-layer clauses).
    pub faults: CloudFaults,
    /// The client, its `Duration`s read as model seconds.
    pub resilience: ResilienceConfig,
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
        resilience: ResilienceConfig,
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
    core: ResilienceCore,
    /// Per-read draw counter of the faults (the deterministic
    /// "randomness" stream).
    draws: u64,
    /// Scripted attempt outcomes that replace the fault draws.
    #[cfg(test)]
    script: Option<std::collections::VecDeque<Result<f64, SourceError>>>,
}

impl CloudModel {
    #[cfg(test)]
    pub(crate) fn new(spec: CloudSpec) -> Self {
        Self::with_tracer(spec, Tracer::noop())
    }

    /// The model of `spec`'s origin. The client's `resilience.*` and
    /// `breaker.*` counters are the run's own, so that clones of one
    /// scenario count apart; its hedges and breaker transitions emit
    /// model-clock trace events through `tracer`.
    pub(crate) fn with_tracer(spec: CloudSpec, tracer: Tracer) -> Self {
        let core =
            ResilienceCore::new(spec.resilience.clone(), &Registry::new()).with_tracer(tracer);
        Self {
            spec,
            core,
            draws: 0,
            #[cfg(test)]
            script: None,
        }
    }

    /// Whether the origin accepts traffic at model time `now` — false
    /// while the breaker is open and cooling, the signal the engine
    /// feeds into the degraded source selection.
    pub(crate) fn available(&self, now: f64) -> bool {
        self.core
            .breaker()
            .is_none_or(|b| b.health(now) != SourceHealth::Unavailable)
    }

    fn draw(&mut self, salt: u64) -> f64 {
        let h = mix64(self.spec.faults.seed ^ salt, self.draws);
        self.draws += 1;
        unit(h)
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

    /// One attempt's outcome at model time `t`: its service latency, or
    /// a throttle. Bursts are bounded: `throttles` counts the read's
    /// throttles so far, so a clean draw comes by attempt
    /// `throttle_burst`.
    fn outcome(
        &mut self,
        t: f64,
        size: u64,
        gamma: usize,
        throttles: &mut u32,
    ) -> Result<f64, SourceError> {
        #[cfg(test)]
        if let Some(script) = &mut self.script {
            return script.pop_front().expect("the script covers every attempt");
        }
        let (_, extra) = self.spec.faults.brownout_at(t);
        let p_throttle = (self.spec.faults.throttle_rate + extra).min(0.999);
        if *throttles < self.spec.faults.throttle_burst && self.draw(0x7407_71E5) < p_throttle {
            *throttles += 1;
            let retry_after = Duration::from_secs_f64(self.spec.faults.retry_after);
            return Err(SourceError::Throttled { retry_after });
        }
        Ok(self.service_time(t, size, gamma))
    }

    /// Cost in model seconds of completing one origin read of `size`
    /// bytes starting at model time `now` with `gamma` concurrent
    /// clients. Always terminates with the bytes delivered: when the
    /// core gives up, one last full read completes the request, as the
    /// loader's settle loop would.
    pub(crate) fn read_cost(&mut self, now: f64, size: u64, gamma: usize) -> f64 {
        self.core.begin(1);
        let mut t = now;
        let mut throttles = 0;
        for attempt in 0.. {
            // Breaker gate: the engine steers eligible fetches away
            // from an unavailable origin; a read that still arrives
            // here has nowhere else to go and waits for the next probe,
            // which a sequential caller is always admitted as.
            if !self.core.admit(t) {
                let reopen = self.core.breaker().and_then(CircuitBreaker::reopen_at);
                t = t.max(reopen.expect("only an open breaker refuses a sequential caller"));
                let probe = self.core.admit(t);
                debug_assert!(probe, "a due probe is admitted");
            }
            let mut latency = match self.outcome(t, size, gamma, &mut throttles) {
                Ok(latency) => latency,
                Err(e) => match self.core.on_failure(t, attempt, &e) {
                    Some(wait) => {
                        t += wait.as_secs_f64();
                        continue;
                    }
                    None => break,
                },
            };
            // Hedge: a duplicate request once the attempt outlives the
            // core's delay; the attempt completes at the earlier of
            // the two.
            let (mut own, mut hedge_won) = (latency, false);
            if let Some(hd) = self.core.hedge_delay().map(|d| d.as_secs_f64()) {
                if latency > hd {
                    self.core.hedge_fired(t + hd, vec![]);
                    let hedge = self.service_time(t + hd, size, gamma);
                    if hd + hedge < latency {
                        (latency, own, hedge_won) = (hd + hedge, hedge, true);
                    }
                }
            }
            self.core
                .on_success(t + latency, Duration::from_secs_f64(own), hedge_won);
            return t + latency - now;
        }
        let latency = self.service_time(t, size, gamma);
        self.core
            .on_success(t + latency, Duration::from_secs_f64(latency), false);
        t + latency - now
    }

    /// The client's counters, breaker transitions folded in.
    pub(crate) fn stats(&self) -> ResilienceStats {
        self.core.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nopfs_policy::CloudFaults;

    fn flat_spec(faults: CloudFaults, resilience: ResilienceConfig) -> CloudSpec {
        CloudSpec::new(
            0.01,
            ThroughputCurve::flat(100_000_000.0),
            faults,
            resilience,
        )
    }

    #[test]
    fn quiet_store_costs_latency_plus_transfer() {
        let mut m = CloudModel::new(flat_spec(CloudFaults::none(1), naive_client(0.001)));
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
        let mut m = CloudModel::new(flat_spec(faults, naive_client(0.001)));
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
        let mut m = CloudModel::new(flat_spec(faults, hardened_client(0.01)));
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
        let mut naive = CloudModel::new(flat_spec(faults.clone(), naive_client(0.001)));
        let mut hedged = CloudModel::new(flat_spec(faults, hardened_client(0.01)));
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
        let mut res = hardened_client(0.01);
        res.retry.attempts = 6;
        let mut m = CloudModel::new(flat_spec(faults, res));
        assert!(m.available(0.0));
        let c = m.read_cost(0.0, 1_000, 1);
        assert!(c.is_finite());
        assert!(m.stats().breaker_to_open > 0);
        // Just after the failures: open and cooling.
        let opened = m.core.breaker().unwrap().reopen_at();
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
        let a = run(flat_spec(faults.clone(), hardened_client(0.01)));
        let b = run(flat_spec(faults, hardened_client(0.01)));
        assert_eq!(a, b);
    }

    /// A source that answers each read with the next scripted outcome.
    struct Scripted {
        script: std::sync::Mutex<std::collections::VecDeque<Result<(), SourceError>>>,
    }

    impl nopfs_storage::DataSource for Scripted {
        fn name(&self) -> &str {
            "scripted"
        }
        fn read(&self, id: u64) -> Result<bytes::Bytes, SourceError> {
            let next = self.script.lock().unwrap().pop_front();
            next.expect("the script covers every attempt")
                .map(|()| bytes::Bytes::from(vec![id as u8; 8]))
        }
        fn write(&self, _: u64, _: bytes::Bytes) -> Result<(), SourceError> {
            Err(SourceError::Io("read-only".into()))
        }
        fn contains(&self, _: u64) -> bool {
            true
        }
        fn capacity(&self) -> Option<u64> {
            None
        }
        fn used(&self) -> u64 {
            0
        }
        fn evict(&self, _: u64) -> bool {
            false
        }
        fn count(&self) -> usize {
            0
        }
        fn size_of(&self, _: u64) -> Option<u64> {
            Some(8)
        }
    }

    #[test]
    fn runtime_and_model_clients_decide_alike_on_one_script() {
        use nopfs_storage::{BreakerState, DataSource, ResilientSource};
        use nopfs_util::timing::TimeScale;
        use std::time::Instant;

        // Three reads: a transient error, then the bytes; a throttle
        // whose `retry_after` outlasts any first backoff, an error,
        // then the bytes; and four errors in a row, the last of which
        // both opens the breaker (threshold 4) and spends the budget
        // (4 attempts). No hedge, and a cooldown no run outlasts, so
        // wall time decides nothing.
        let io = || Err(SourceError::Io("transient".into()));
        let retry_after = Duration::from_millis(3);
        let throttled = Err(SourceError::Throttled { retry_after });
        let reads: [Vec<Result<(), SourceError>>; 3] = [
            vec![io(), Ok(())],
            vec![throttled, io(), Ok(())],
            vec![io(), io(), io(), io()],
        ];
        let cfg = ResilienceConfig::retry_only(RetryPolicy::new(
            4,
            Duration::from_micros(500),
            1.0,
            0x5C41,
        ))
        .with_breaker(BreakerConfig::new(4, 1e9, 1));
        // The waits both clients must take: the k-th retry of the run
        // draws the k-th jitter, a throttle waits at least its hint.
        let backoff = |retry: u32, draw: u64| cfg.retry.backoff(retry, draw).as_secs_f64();
        let waits = [
            backoff(0, 0),
            backoff(0, 1).max(retry_after.as_secs_f64()) + backoff(1, 2),
            backoff(0, 3) + backoff(1, 4) + backoff(2, 5),
        ];

        let source = std::sync::Arc::new(Scripted {
            script: std::sync::Mutex::new(reads.iter().flatten().cloned().collect()),
        });
        let runtime = ResilientSource::new(source.clone(), cfg.clone(), TimeScale::realtime());
        let (latency, size) = (0.001, 1_000);
        let mut model = CloudModel::new(flat_spec(CloudFaults::none(1), cfg));
        model.script = Some(
            reads
                .iter()
                .flatten()
                .map(|r| r.clone().map(|()| latency))
                .collect(),
        );

        let mut now = 0.0;
        let mut left = reads.iter().map(Vec::len).sum::<usize>();
        for (k, read) in reads.iter().enumerate() {
            let t0 = Instant::now();
            let answer = runtime.read(k as u64);
            let wall = t0.elapsed().as_secs_f64();
            let cost = model.read_cost(now, size, 1);
            now += cost;
            // Both consumed exactly this read's attempts.
            left -= read.len();
            assert_eq!(
                source.script.lock().unwrap().len(),
                left,
                "runtime, read {k}"
            );
            assert_eq!(
                model.script.as_ref().unwrap().len(),
                left,
                "model, read {k}"
            );
            // Both waited the same backoffs: the model exactly, the
            // runtime's sleeps at least.
            let served = if k < 2 {
                assert_eq!(answer.unwrap()[0], k as u8);
                latency
            } else {
                assert_eq!(answer, Err(SourceError::Io("transient".into())));
                // The model's last full read after the core gave up.
                0.01 + size as f64 / 1e8
            };
            assert!((cost - waits[k] - served).abs() < 1e-12, "read {k}: {cost}");
            assert!(wall >= waits[k], "read {k}: slept {wall} < {}", waits[k]);
        }
        let stats = runtime.stats();
        assert_eq!(stats, model.stats());
        assert_eq!(
            stats,
            ResilienceStats {
                reads: 3,
                retries: 6,
                exhausted: 1,
                throttled: 1,
                breaker_to_open: 1,
                ..ResilienceStats::default()
            }
        );
        assert_eq!(runtime.breaker().unwrap().state(), BreakerState::Open);
        assert_eq!(model.core.breaker().unwrap().state(), BreakerState::Open);
    }
}
