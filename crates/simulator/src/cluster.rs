//! Multi-job simulation: K co-scheduled training jobs contending on one
//! shared PFS.
//!
//! Several jobs — each with its own scenario, policy, and staggered
//! start time — advance through a shared model clock, and every job's
//! reads are priced at `t(γ)` for the **combined** client count across
//! all concurrently active jobs. This is the paper's opening scenario
//! (Sec. 1–2, Fig. 2): aggregate PFS throughput saturates, so
//! co-located jobs interfere — unless a policy stops hitting the PFS
//! once its caches warm up.
//!
//! The scheduler is the single-job engine's own ([`crate::engine`]; a
//! solo [`crate::engine::run`] is a cluster of one): the job whose time
//! front (its slowest worker's consumption clock plus its start offset)
//! is earliest advances by one iteration, with `γ` summed over the jobs
//! that have started and not yet finished. Because jobs are simulated
//! rather than threaded, K can sweep far past what the in-process
//! thread runtime allows.
//!
//! Interconnects are *partitioned*: each job keeps its own modelled
//! cluster network (co-scheduled HPC jobs run on disjoint node sets but
//! share the filesystem), so only the PFS couples tenants.

use crate::engine::run_jobs;
use crate::result::{SimError, SimResult};
use crate::scenario::Scenario;
use nopfs_policy::PolicyId;

/// One co-scheduled job: a scenario, its loader policy, and when it
/// starts relative to the cluster clock (model seconds).
#[derive(Debug, Clone)]
pub struct SimTenant {
    /// The job's own system + dataset + run parameters. Each tenant's
    /// reads are priced on its own `system` — including its `pfs_read`
    /// curve — so to model one shared filesystem, give every tenant
    /// the same curve (as `nopfs_bench::scenarios::fig2` does); the
    /// engine does not cross-check them.
    pub scenario: Scenario,
    /// The data-loading policy this job runs.
    pub policy: PolicyId,
    /// Start offset, model seconds (`0.0` = starts immediately).
    pub start: f64,
}

impl SimTenant {
    /// A tenant starting at t = 0.
    pub fn new(scenario: Scenario, policy: PolicyId) -> Self {
        Self {
            scenario,
            policy,
            start: 0.0,
        }
    }

    /// Sets the start offset.
    pub fn starting_at(self, start: f64) -> Self {
        assert!(start >= 0.0 && start.is_finite());
        Self { start, ..self }
    }
}

/// Simulates `tenants` co-scheduled on one shared PFS.
///
/// Returns one [`SimResult`] per tenant, in input order; each result's
/// `execution_time` excludes the tenant's start offset (it is the
/// job's own wall time, directly comparable to a solo
/// [`crate::engine::run`] of the same scenario — the ratio of the two
/// is the *interference slowdown*).
///
/// # Errors
/// Returns the first policy's [`SimError`] if any tenant's policy
/// cannot run its scenario.
pub fn run_cluster(tenants: &[SimTenant]) -> Result<Vec<SimResult>, SimError> {
    assert!(!tenants.is_empty(), "a cluster needs at least one tenant");
    run_jobs(tenants.iter().map(|t| (&t.scenario, t.policy, t.start)))
}

#[cfg(test)]
use crate::policies;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run as run_solo;
    use nopfs_perfmodel::presets::{fig8_small_cluster, saturating_pfs_curve};
    use nopfs_util::units::MB;

    /// A scenario in which the PFS saturates well below the demand of
    /// several co-scheduled jobs.
    fn tenant_scenario(name: &str, seed: u64) -> Scenario {
        let mut sys = fig8_small_cluster();
        sys.workers = 2;
        sys.pfs_read = saturating_pfs_curve(120.0 * MB, 3.0);
        sys.classes[0].capacity = 40 * 1_000_000;
        sys.classes[1].capacity = 120 * 1_000_000;
        sys.staging.capacity = 8 * 1_000_000;
        Scenario::new(name, sys, vec![100_000u64; 800], 3, 8, seed)
    }

    #[test]
    fn single_tenant_matches_solo_engine() {
        let s = tenant_scenario("solo", 7);
        for policy in [PolicyId::Naive, PolicyId::NoPfs, PolicyId::StagingBuffer] {
            let solo = run_solo(&s, policy).unwrap();
            let multi = run_cluster(&[SimTenant::new(s.clone(), policy)]).unwrap();
            let a = solo.execution_time;
            let b = multi[0].execution_time;
            assert!(
                (a - b).abs() < 1e-9 * a.max(1.0),
                "{policy}: solo {a} vs cluster-of-one {b}"
            );
        }
    }

    #[test]
    fn co_scheduled_naive_jobs_interfere() {
        let s = tenant_scenario("naive", 11);
        let solo = run_solo(&s, PolicyId::Naive).unwrap().execution_time;
        let tenants: Vec<SimTenant> = (0..3)
            .map(|i| SimTenant::new(tenant_scenario("naive", 11 + i), PolicyId::Naive))
            .collect();
        let results = run_cluster(&tenants).unwrap();
        for r in &results {
            let slowdown = r.execution_time / solo;
            assert!(
                slowdown > 1.3,
                "3 naive tenants on a saturated PFS must interfere: {slowdown}x"
            );
        }
    }

    #[test]
    fn nopfs_is_shielded_relative_to_naive() {
        let naive_solo = run_solo(&tenant_scenario("t", 21), PolicyId::Naive)
            .unwrap()
            .execution_time;
        let nopfs_solo = run_solo(&tenant_scenario("t", 21), PolicyId::NoPfs)
            .unwrap()
            .execution_time;
        let tenants: Vec<SimTenant> = (0..3)
            .map(|i| {
                let policy = if i == 0 {
                    PolicyId::NoPfs
                } else {
                    PolicyId::Naive
                };
                SimTenant::new(tenant_scenario("t", 21 + i), policy)
            })
            .collect();
        let results = run_cluster(&tenants).unwrap();
        let nopfs_slowdown = results[0].execution_time / nopfs_solo;
        let naive_slowdown = results[1].execution_time / naive_solo;
        assert!(
            nopfs_slowdown < naive_slowdown,
            "NoPFS ({nopfs_slowdown}x) must degrade less than naive ({naive_slowdown}x)"
        );
    }

    #[test]
    fn a_nopfs_tenants_origin_lanes_share_the_pfs_with_co_tenants() {
        // Caches so small that most of the dataset has no holder: the
        // NoPFS tenant's origin lanes read it every epoch, and they are
        // PFS clients like everybody else's readers. Seven naive
        // co-tenants on a PFS that saturates at three readers slow
        // those reads down; the tenant still finishes ahead of them,
        // because the part it caches never touches the PFS again.
        let small = |seed: u64| {
            let mut s = tenant_scenario("small", seed);
            s.system.classes[0].capacity = 8 * 1_000_000;
            s.system.classes[1].capacity = 8 * 1_000_000;
            s
        };
        let policy = policies::build(PolicyId::NoPfs, &small(51)).unwrap();
        let read_ahead = (0..800).filter(|&k| policy.origin_lanes(k) > 0);
        assert!(read_ahead.count() > 400, "most samples have no holder");
        let nopfs_solo = run_solo(&small(51), PolicyId::NoPfs)
            .unwrap()
            .execution_time;
        let naive_solo = run_solo(&small(52), PolicyId::Naive)
            .unwrap()
            .execution_time;
        let tenants: Vec<SimTenant> = (0..8)
            .map(|i| {
                let policy = if i == 0 {
                    PolicyId::NoPfs
                } else {
                    PolicyId::Naive
                };
                SimTenant::new(small(51 + i), policy)
            })
            .collect();
        let results = run_cluster(&tenants).unwrap();
        let nopfs_slowdown = results[0].execution_time / nopfs_solo;
        assert!(
            nopfs_slowdown > 1.3,
            "uncached reads contend for the PFS: {nopfs_slowdown}x"
        );
        assert!(
            results[1].execution_time / naive_solo > 1.3,
            "and so do the naive tenants' reads"
        );
        assert!(results[0].execution_time < results[1].execution_time);
    }

    #[test]
    fn stagger_defers_contention() {
        // A tenant starting after the others have finished must see
        // (almost) no interference.
        let s = tenant_scenario("lone", 31);
        let solo = run_solo(&s, PolicyId::Naive).unwrap().execution_time;
        let far_future = solo * 100.0;
        let tenants = vec![
            SimTenant::new(tenant_scenario("lone", 31), PolicyId::Naive),
            SimTenant::new(tenant_scenario("late", 32), PolicyId::Naive).starting_at(far_future),
        ];
        let results = run_cluster(&tenants).unwrap();
        let late_slowdown = results[1].execution_time / solo;
        assert!(
            late_slowdown < 1.05,
            "a fully staggered tenant must run near solo speed: {late_slowdown}x"
        );
    }

    #[test]
    fn sweeps_past_thread_scale() {
        // 16 simulated tenants — far more than the thread runtime could
        // co-schedule — and interference grows monotonically enough to
        // rank K=16 above K=2.
        let solo = run_solo(&tenant_scenario("k", 41), PolicyId::Naive)
            .unwrap()
            .execution_time;
        let mut slowdowns = Vec::new();
        for k in [2usize, 16] {
            let tenants: Vec<SimTenant> = (0..k)
                .map(|i| SimTenant::new(tenant_scenario("k", 41 + i as u64), PolicyId::Naive))
                .collect();
            let results = run_cluster(&tenants).unwrap();
            let worst = results
                .iter()
                .map(|r| r.execution_time / solo)
                .fold(0.0, f64::max);
            slowdowns.push(worst);
        }
        assert!(
            slowdowns[1] > slowdowns[0],
            "K=16 ({}) must interfere more than K=2 ({})",
            slowdowns[1],
            slowdowns[0]
        );
    }
}
