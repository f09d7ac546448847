//! Per-tenant and aggregate statistics of a co-scheduled run.

use nopfs_core::stats::{SetupStats, WorkerStats};
use nopfs_obs::Snapshot;
use nopfs_pfs::PfsStats;
use nopfs_policy::PolicyId;
use nopfs_storage::{ResilienceStats, TierStats};
use nopfs_util::stats::steady_epoch_time;

/// What one tenant measured over its run.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// The tenant's label.
    pub name: String,
    /// The loader policy it ran.
    pub policy: PolicyId,
    /// Its start offset, model seconds.
    pub start_delay: f64,
    /// Bulk-synchronous epoch times (slowest worker per epoch), model
    /// seconds.
    pub epoch_times: Vec<f64>,
    /// Total run time (slowest worker, sum over epochs), model seconds.
    pub total_time: f64,
    /// Consumer stall summed across workers, model seconds.
    pub stall_time: f64,
    /// Per rank, the modelled compute its training loop charged in
    /// each epoch, model seconds (a straggler's epochs charge more).
    pub compute_times: Vec<Vec<f64>>,
    /// Cluster-merged loader statistics.
    pub stats: WorkerStats,
    /// Clairvoyant setup statistics (NoPFS tenants only).
    pub setup: Option<SetupStats>,
    /// Resilience counters of the object-store origin (retries, hedges,
    /// breaker transitions), merged across ranks; `None` unless the
    /// tenant's fault plan carried a cloud clause.
    pub resilience: Option<ResilienceStats>,
    /// Per-tier cache statistics merged across the tenant's surviving
    /// ranks (NoPFS tenants only; baseline loaders manage their caches
    /// internally and leave this empty).
    pub tier_stats: Vec<TierStats>,
    /// Live telemetry: the tenant's JSONL snapshot lines (one per
    /// sampling tick plus a final one), empty unless the spec set
    /// [`crate::ClusterSpec::telemetry_interval`].
    pub telemetry: Vec<String>,
    /// The same tenant's solo steady epoch time, when an interference
    /// report ran it (model seconds).
    pub solo_epoch_time: Option<f64>,
    /// Interference slowdown: co-scheduled ÷ solo steady epoch time.
    pub slowdown: Option<f64>,
}

impl TenantReport {
    /// Steady-state epoch time: the median excluding epoch 0 (warmup),
    /// falling back to epoch 0 for single-epoch runs. Model seconds.
    pub fn steady_epoch_time(&self) -> f64 {
        steady_epoch_time(&self.epoch_times)
    }

    /// PFS reads this tenant issued.
    pub fn pfs_reads(&self) -> u64 {
        self.stats.pfs_fetches
    }

    /// Fraction of fetches served without touching the PFS.
    pub fn cache_fraction(&self) -> f64 {
        let total = self.stats.total_fetches();
        if total == 0 {
            return 0.0;
        }
        (self.stats.local_fetches + self.stats.remote_fetches) as f64 / total as f64
    }
}

/// The whole cluster's outcome.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Per-tenant reports, in [`crate::ClusterSpec`] order.
    pub tenants: Vec<TenantReport>,
    /// Traffic totals of the one shared PFS, across every tenant.
    pub pfs_totals: PfsStats,
    /// Wall-clock time of the whole co-scheduled run, seconds.
    pub wall_time: f64,
    /// The merged end-of-run view of the cluster registry: every
    /// tenant's metrics side by side under their `tenant=<name>`
    /// scopes.
    pub snapshot: Snapshot,
    /// Chrome `trace_event` JSON of the run's structured events,
    /// renderable in `about:tracing` / Perfetto; `None` when the
    /// spec's [`nopfs_obs::ObsCtx`] has tracing off (the default).
    pub chrome_trace: Option<String>,
}

impl ClusterReport {
    /// Loader statistics merged across every tenant.
    pub fn aggregate_stats(&self) -> WorkerStats {
        let mut merged = self.tenants[0].stats.clone();
        for t in &self.tenants[1..] {
            merged.merge(&t.stats);
        }
        merged
    }

    /// The worst interference slowdown across tenants (`None` until an
    /// interference report filled them in).
    pub fn max_slowdown(&self) -> Option<f64> {
        self.tenants
            .iter()
            .filter_map(|t| t.slowdown)
            .fold(None, |acc, s| Some(acc.map_or(s, |a: f64| a.max(s))))
    }

    /// The slowdown of the first tenant running `policy`, if any.
    pub fn slowdown_of(&self, policy: PolicyId) -> Option<f64> {
        self.tenants
            .iter()
            .find(|t| t.policy == policy)
            .and_then(|t| t.slowdown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn stats(pfs: u64, local: u64) -> WorkerStats {
        WorkerStats {
            local_fetches: local,
            remote_fetches: 0,
            pfs_fetches: pfs,
            prestage_fetches: 0,
            false_positives: 0,
            heuristic_skips: 0,
            pfs_errors: 0,
            stall_time: Duration::ZERO,
            samples_consumed: pfs + local,
        }
    }

    fn tenant(name: &str, epochs: Vec<f64>, slowdown: Option<f64>) -> TenantReport {
        TenantReport {
            name: name.into(),
            policy: PolicyId::Naive,
            start_delay: 0.0,
            total_time: epochs.iter().sum(),
            epoch_times: epochs,
            stall_time: 0.0,
            compute_times: Vec::new(),
            stats: stats(10, 5),
            setup: None,
            resilience: None,
            tier_stats: Vec::new(),
            telemetry: Vec::new(),
            solo_epoch_time: None,
            slowdown,
        }
    }

    #[test]
    fn steady_epoch_excludes_warmup() {
        let t = tenant("a", vec![10.0, 2.0, 4.0, 3.0], None);
        assert!((t.steady_epoch_time() - 3.0).abs() < 1e-12);
        let single = tenant("b", vec![7.0], None);
        assert!((single.steady_epoch_time() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn aggregates_and_slowdowns() {
        let report = ClusterReport {
            tenants: vec![
                tenant("a", vec![1.0], Some(1.2)),
                tenant("b", vec![1.0], Some(2.5)),
                tenant("c", vec![1.0], None),
            ],
            pfs_totals: PfsStats::default(),
            wall_time: 0.0,
            snapshot: Snapshot::default(),
            chrome_trace: None,
        };
        assert_eq!(report.max_slowdown(), Some(2.5));
        assert_eq!(report.slowdown_of(PolicyId::Naive), Some(1.2));
        assert_eq!(report.slowdown_of(PolicyId::NoPfs), None);
        let merged = report.aggregate_stats();
        assert_eq!(merged.pfs_fetches, 30);
        assert_eq!(merged.samples_consumed, 45);
    }

    #[test]
    fn cache_fraction_counts_non_pfs_fetches() {
        let t = tenant("a", vec![1.0], None);
        assert!((t.cache_fraction() - 5.0 / 15.0).abs() < 1e-12);
    }
}
