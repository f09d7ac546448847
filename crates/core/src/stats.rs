//! Runtime statistics (the numbers behind Fig. 12).
//!
//! Each worker counts where its staging prefetches were served from
//! (local class, remote cache, PFS), how long the trainer stalled
//! waiting for the staging buffer, and how the progress heuristic
//! behaved (remote attempts that came back `NotCached` are the paper's
//! false positives).
//!
//! The collector is a typed view over the `nopfs_obs` metrics registry:
//! each counter is a registered `worker.*` metric (see
//! [`nopfs_obs::names`]), so the same numbers surface in live telemetry
//! snapshots, and [`WorkerStats`] is just the point-in-time read. All
//! updates are relaxed atomics on pre-registered handles — the hot path
//! never locks.

use nopfs_obs::{names, Counter, Histogram, Registry};
use std::sync::Arc;
use std::time::Duration;

/// Shared counters, updated lock-free from the worker's threads; a
/// typed view over `worker.*` metrics in an obs registry.
///
/// The registry is cumulative: re-attaching a collector to names that
/// already exist (an elastic worker relaunched after a crash, a new
/// segment of the same rank) reuses the underlying counters. The
/// collector therefore snapshots a *baseline* at construction and
/// [`Self::snapshot`] reports deltas, so each collector's view covers
/// exactly its own lifetime while telemetry sees the running totals.
#[derive(Debug)]
pub struct StatsCollector {
    local: Counter,
    remote: Counter,
    pfs: Counter,
    prestage: Counter,
    false_positives: Counter,
    heuristic_skips: Counter,
    pfs_errors: Counter,
    stall_nanos: Counter,
    consumed: Counter,
    stall_latency: Histogram,
    /// Registry values at construction, subtracted from every snapshot.
    base: WorkerStats,
}

impl Default for StatsCollector {
    /// A collector over a fresh private registry.
    fn default() -> Self {
        Self::in_registry(&Registry::new())
    }
}

impl StatsCollector {
    /// A fresh collector behind an [`Arc`], backed by its own private
    /// registry (the solo-run shape; scoped runs use
    /// [`Self::in_registry`]).
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// A collector whose counters are registered in `registry` (with
    /// whatever scope labels the handle carries — the cluster runtime
    /// passes a tenant+rank-scoped handle here).
    pub fn in_registry(registry: &Registry) -> Self {
        let mut c = Self {
            local: registry.counter(names::WORKER_FETCH_LOCAL),
            remote: registry.counter(names::WORKER_FETCH_REMOTE),
            pfs: registry.counter(names::WORKER_FETCH_PFS),
            prestage: registry.counter(names::WORKER_FETCH_PRESTAGE),
            false_positives: registry.counter(names::WORKER_FALSE_POSITIVES),
            heuristic_skips: registry.counter(names::WORKER_HEURISTIC_SKIPS),
            pfs_errors: registry.counter(names::WORKER_PFS_ERRORS),
            stall_nanos: registry.counter(names::WORKER_STALL_NANOS),
            consumed: registry.counter(names::WORKER_CONSUMED),
            stall_latency: registry.histogram(names::WORKER_STALL_LATENCY),
            base: WorkerStats::default(),
        };
        c.base = c.totals();
        c
    }

    /// Counts `n` fetches served by a local tier (one sweep's worth)
    /// at once.
    pub fn add_local(&self, n: u64) {
        self.local.add(n);
    }

    /// Counts `n` fetches served by peers (a staged run's) at once.
    pub fn add_remote(&self, n: u64) {
        self.remote.add(n);
    }

    /// Counts `n` fetches served by the origin (a staged run's) at once.
    pub fn add_pfs(&self, n: u64) {
        self.pfs.add(n);
    }

    pub fn count_prestage(&self) {
        self.prestage.inc();
    }

    pub fn count_false_positive(&self) {
        self.false_positives.inc();
    }

    /// Counts `n` remote holders the progress heuristic passed over.
    pub fn add_heuristic_skips(&self, n: u64) {
        self.heuristic_skips.add(n);
    }

    pub fn count_pfs_error(&self) {
        self.pfs_errors.inc();
    }

    pub fn add_stall(&self, d: Duration) {
        let nanos = d.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.stall_nanos.add(nanos);
        self.stall_latency.record(nanos);
    }

    /// Counts `n` delivered samples (a whole batch) at once.
    pub fn add_consumed(&self, n: u64) {
        self.consumed.add(n);
    }

    /// Raw cumulative registry values (no baseline subtraction).
    fn totals(&self) -> WorkerStats {
        WorkerStats {
            local_fetches: self.local.get(),
            remote_fetches: self.remote.get(),
            pfs_fetches: self.pfs.get(),
            prestage_fetches: self.prestage.get(),
            false_positives: self.false_positives.get(),
            heuristic_skips: self.heuristic_skips.get(),
            pfs_errors: self.pfs_errors.get(),
            stall_time: Duration::from_nanos(self.stall_nanos.get()),
            samples_consumed: self.consumed.get(),
        }
    }

    /// A consistent-enough snapshot for reporting: registry values
    /// since this collector was constructed.
    pub fn snapshot(&self) -> WorkerStats {
        let t = self.totals();
        WorkerStats {
            local_fetches: t.local_fetches - self.base.local_fetches,
            remote_fetches: t.remote_fetches - self.base.remote_fetches,
            pfs_fetches: t.pfs_fetches - self.base.pfs_fetches,
            prestage_fetches: t.prestage_fetches - self.base.prestage_fetches,
            false_positives: t.false_positives - self.base.false_positives,
            heuristic_skips: t.heuristic_skips - self.base.heuristic_skips,
            pfs_errors: t.pfs_errors - self.base.pfs_errors,
            stall_time: t.stall_time.saturating_sub(self.base.stall_time),
            samples_consumed: t.samples_consumed - self.base.samples_consumed,
        }
    }
}

/// Statistics of the clairvoyant setup phase (the job-level counterpart
/// of the per-worker runtime counters).
///
/// `shuffle_generations` is the load-bearing number: the single-pass
/// engine generates each epoch's shuffle exactly once, so a correct
/// setup records exactly `E` generations no matter how many workers the
/// job has. Tests assert this; the ledger's `clairvoyance.setup_pass_ms`
/// row times the pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetupStats {
    /// Epoch shuffles generated during setup (always `E` on the
    /// single-pass path).
    pub shuffle_generations: u64,
    /// Wall time of the whole clairvoyant precomputation (engine pass
    /// plus placement).
    pub setup_time: Duration,
}

/// A point-in-time view of one worker's I/O statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Staging fetches served from a local storage class.
    pub local_fetches: u64,
    /// Staging fetches served from a remote worker's cache.
    pub remote_fetches: u64,
    /// Staging fetches served from the PFS.
    pub pfs_fetches: u64,
    /// Samples loaded from the PFS during a non-overlapped prestaging
    /// phase (sharding/preloading policies; excluded from the staging
    /// fetch counts, matching the simulator's accounting).
    pub prestage_fetches: u64,
    /// Remote requests answered `NotCached` (progress-heuristic false
    /// positives; each also produced a PFS fetch).
    pub false_positives: u64,
    /// Remote fetches not attempted because the heuristic said the
    /// holder had not prefetched the sample yet.
    pub heuristic_skips: u64,
    /// PFS read errors that were retried.
    pub pfs_errors: u64,
    /// Total time the consumer stalled waiting on the staging buffer.
    pub stall_time: Duration,
    /// Samples delivered to the consumer.
    pub samples_consumed: u64,
}

impl WorkerStats {
    /// Total staging fetches.
    pub fn total_fetches(&self) -> u64 {
        self.local_fetches + self.remote_fetches + self.pfs_fetches
    }

    /// `(local, remote, pfs)` fetch fractions (zeros when nothing was
    /// fetched).
    pub fn fractions(&self) -> (f64, f64, f64) {
        let t = self.total_fetches();
        if t == 0 {
            return (0.0, 0.0, 0.0);
        }
        (
            self.local_fetches as f64 / t as f64,
            self.remote_fetches as f64 / t as f64,
            self.pfs_fetches as f64 / t as f64,
        )
    }

    /// Merges per-worker stats into cluster totals.
    pub fn merge(&mut self, other: &WorkerStats) {
        self.local_fetches += other.local_fetches;
        self.remote_fetches += other.remote_fetches;
        self.pfs_fetches += other.pfs_fetches;
        self.prestage_fetches += other.prestage_fetches;
        self.false_positives += other.false_positives;
        self.heuristic_skips += other.heuristic_skips;
        self.pfs_errors += other.pfs_errors;
        self.stall_time += other.stall_time;
        self.samples_consumed += other.samples_consumed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let c = StatsCollector::new();
        c.add_local(1);
        c.add_local(1);
        c.add_remote(1);
        c.add_pfs(1);
        c.count_false_positive();
        c.add_heuristic_skips(1);
        c.count_pfs_error();
        c.add_stall(Duration::from_millis(5));
        c.add_consumed(1);
        let s = c.snapshot();
        assert_eq!(s.local_fetches, 2);
        assert_eq!(s.remote_fetches, 1);
        assert_eq!(s.pfs_fetches, 1);
        assert_eq!(s.false_positives, 1);
        assert_eq!(s.heuristic_skips, 1);
        assert_eq!(s.pfs_errors, 1);
        assert_eq!(s.stall_time, Duration::from_millis(5));
        assert_eq!(s.samples_consumed, 1);
        assert_eq!(s.total_fetches(), 4);
    }

    #[test]
    fn fractions_sum_to_one_when_nonempty() {
        let c = StatsCollector::new();
        c.add_local(1);
        c.add_pfs(1);
        let (l, r, p) = c.snapshot().fractions();
        assert!((l + r + p - 1.0).abs() < 1e-12);
        assert_eq!(r, 0.0);
    }

    #[test]
    fn empty_fractions_are_zero() {
        assert_eq!(
            StatsCollector::new().snapshot().fractions(),
            (0.0, 0.0, 0.0)
        );
    }

    #[test]
    fn merge_totals() {
        let a = StatsCollector::new();
        a.add_local(1);
        let b = StatsCollector::new();
        b.add_pfs(1);
        b.add_stall(Duration::from_millis(2));
        let mut total = a.snapshot();
        total.merge(&b.snapshot());
        assert_eq!(total.local_fetches, 1);
        assert_eq!(total.pfs_fetches, 1);
        assert_eq!(total.stall_time, Duration::from_millis(2));
    }

    #[test]
    fn collector_is_a_registry_view() {
        let registry = Registry::new().scoped([("rank", "3".to_string())]);
        let c = StatsCollector::in_registry(&registry);
        c.add_local(1);
        c.add_local(1);
        c.add_stall(Duration::from_micros(10));
        // The same numbers surface through the registry snapshot…
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter(&format!(
                "{}{{rank=3}}",
                nopfs_obs::names::WORKER_FETCH_LOCAL
            )),
            Some(2)
        );
        assert_eq!(
            snap.histogram(&format!(
                "{}{{rank=3}}",
                nopfs_obs::names::WORKER_STALL_LATENCY
            ))
            .unwrap()
            .count,
            1
        );
        // …and through the typed view.
        assert_eq!(c.snapshot().local_fetches, 2);
        assert_eq!(c.snapshot().stall_time, Duration::from_micros(10));
    }

    #[test]
    fn reattached_collector_reports_only_its_own_lifetime() {
        // An elastic worker relaunched after a crash re-registers the
        // same metric names; its view must start from zero while the
        // registry keeps the cumulative total.
        let registry = Registry::new();
        let first = StatsCollector::in_registry(&registry);
        first.add_local(1);
        first.add_local(1);
        let second = StatsCollector::in_registry(&registry);
        second.add_local(1);
        assert_eq!(first.snapshot().local_fetches, 3, "shared counter");
        assert_eq!(second.snapshot().local_fetches, 1, "delta view");
        let snap = registry.snapshot();
        assert_eq!(snap.counter_total(names::WORKER_FETCH_LOCAL), 3);
    }

    #[test]
    fn concurrent_updates_are_not_lost() {
        let c = StatsCollector::new();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.add_pfs(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.snapshot().pfs_fetches, 40_000);
    }
}
