//! Simulation outputs: execution time, stall time, and the per-location
//! time breakdown behind Fig. 8's stacked bars.

use nopfs_perfmodel::Location;
use nopfs_policy::PolicyId;
use nopfs_storage::ResilienceStats;

/// How execution time divides among data sources.
///
/// Each consumed access occupies the interval between the previous and
/// current consumption; the stalled part of that interval is attributed
/// to the location the sample was fetched from, and the non-stalled part
/// to the staging buffer (the trainer was busy computing while the
/// buffer served it). This reproduces the semantics of Fig. 8's stacked
/// bars: an all-`staging` bar means I/O never held training back.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Breakdown {
    /// Time covered by staging-buffer consumption (no stall).
    pub staging: f64,
    /// Stall time attributable to local storage-class fetches.
    pub local: f64,
    /// Stall time attributable to remote workers' caches.
    pub remote: f64,
    /// Stall time attributable to the PFS (includes prestaging phases).
    pub pfs: f64,
}

impl Breakdown {
    /// Adds `stall` seconds to the bucket for `loc` and the remaining
    /// `busy` seconds to the staging bucket.
    pub fn attribute(&mut self, loc: Location, stall: f64, busy: f64) {
        debug_assert!(stall >= 0.0 && busy >= 0.0);
        self.staging += busy;
        match loc {
            Location::Staging => self.staging += stall,
            Location::Local(_) => self.local += stall,
            Location::Remote(_) => self.remote += stall,
            Location::Pfs => self.pfs += stall,
        }
    }

    /// Total attributed time.
    pub fn total(&self) -> f64 {
        self.staging + self.local + self.remote + self.pfs
    }

    /// `(staging, local, remote, pfs)` as fractions of the total
    /// (all zeros for an empty breakdown).
    pub fn fractions(&self) -> (f64, f64, f64, f64) {
        let t = self.total();
        if t <= 0.0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        (
            self.staging / t,
            self.local / t,
            self.remote / t,
            self.pfs / t,
        )
    }

    /// Component-wise sum.
    pub fn merge(&mut self, other: &Breakdown) {
        self.staging += other.staging;
        self.local += other.local;
        self.remote += other.remote;
        self.pfs += other.pfs;
    }
}

/// The outcome of simulating one policy on one scenario.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Which policy ran.
    pub policy: PolicyId,
    /// End-to-end execution time (slowest worker, including prestaging).
    pub execution_time: f64,
    /// Per-worker completion times (including prestaging).
    pub per_worker_time: Vec<f64>,
    /// Duration of the non-overlapped prestaging phase (0 for policies
    /// that start training immediately).
    pub prestage_time: f64,
    /// Per-worker trainer stall time (excludes prestaging).
    pub per_worker_stall: Vec<f64>,
    /// Cluster-wide attribution of time to data sources.
    pub breakdown: Breakdown,
    /// Per-location fetch counts (staging, local, remote, pfs) across
    /// all workers — the Fig. 12 "where did prefetches come from" stats.
    pub fetch_counts: [u64; 4],
    /// Fraction of the dataset each worker can ever access (1.0 for
    /// fully-randomized policies; < 1 for sharding-style policies that
    /// restrict workers to subsets, the paper's "does not access entire
    /// dataset").
    pub coverage: f64,
    /// Explanatory note for coverage/randomization caveats.
    pub note: Option<String>,
    /// Resilience counters of the cloud origin model (retries, hedges,
    /// breaker transitions); `None` unless the scenario routed the
    /// origin through [`crate::cloud`].
    pub resilience: Option<ResilienceStats>,
}

impl SimResult {
    /// Total stall across workers.
    pub fn total_stall(&self) -> f64 {
        self.per_worker_stall.iter().sum()
    }
}

/// Why a simulation could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The policy cannot support the scenario (e.g. the LBANN data store
    /// requires the dataset to fit in aggregate worker memory).
    Unsupported(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Unsupported(why) => write!(f, "policy unsupported: {why}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_routes_stall_by_location() {
        let mut b = Breakdown::default();
        b.attribute(Location::Pfs, 2.0, 1.0);
        b.attribute(Location::Local(0), 0.5, 1.0);
        b.attribute(Location::Remote(1), 0.25, 0.0);
        b.attribute(Location::Staging, 0.25, 0.5);
        assert!((b.pfs - 2.0).abs() < 1e-12);
        assert!((b.local - 0.5).abs() < 1e-12);
        assert!((b.remote - 0.25).abs() < 1e-12);
        assert!((b.staging - (1.0 + 1.0 + 0.5 + 0.25)).abs() < 1e-12);
        assert!((b.total() - 5.5).abs() < 1e-12);
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut b = Breakdown::default();
        b.attribute(Location::Pfs, 3.0, 1.0);
        let (s, l, r, p) = b.fractions();
        assert!((s + l + r + p - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_breakdown_fractions_are_zero() {
        assert_eq!(Breakdown::default().fractions(), (0.0, 0.0, 0.0, 0.0));
    }

    #[test]
    fn merge_adds_componentwise() {
        let mut a = Breakdown {
            staging: 1.0,
            local: 2.0,
            remote: 3.0,
            pfs: 4.0,
        };
        a.merge(&Breakdown {
            staging: 0.5,
            local: 0.5,
            remote: 0.5,
            pfs: 0.5,
        });
        assert_eq!(a.total(), 12.0);
    }
}
