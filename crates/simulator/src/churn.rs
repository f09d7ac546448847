//! Elastic simulation: runs a scenario under a [`FaultPlan`] —
//! membership churn between epochs, mid-epoch crash-and-restarts,
//! stragglers, all modelled rather than executed.
//!
//! The delivered streams come out of exactly the same policy objects
//! the steady-state engine uses ([`crate::policies`]), rebuilt per
//! membership with *global* epoch numbers — so epoch `e` of an elastic
//! run draws the same global permutation as epoch `e` of the
//! undisturbed run, merely dealt round-robin to however many ranks
//! exist. That makes [`run_elastic`]'s `global_stream` directly
//! comparable to both the fault-free simulation and the threaded
//! runtime's `Job::run` (the cross-harness agreement tests do both).
//!
//! Timing under churn is modelled in the simulator's usual spirit —
//! relative, not absolute: each membership keeps one engine job state
//! ([`crate::engine`]), whose clocks run on across the epochs it runs,
//! so a fault-free plan is exactly the steady-state run. Stragglers
//! divide their rank's compute throughput from the epoch they start
//! in, and each crash charges a recovery penalty (an uncontended PFS
//! re-read of the restarted rank's in-flight batch — the
//! staged-but-unconsumed samples the runtime throws away and replays).

use crate::engine::{lockstep, JobState};
use crate::result::SimError;
use crate::scenario::Scenario;
use nopfs_clairvoyance::SampleId;
use nopfs_perfmodel::Location;
use nopfs_policy::{FaultPlan, PolicyId};
use std::collections::BTreeMap;

/// The outcome of one elastic (fault-disturbed) simulation.
#[derive(Debug, Clone)]
pub struct ElasticSimResult {
    /// Which policy ran.
    pub policy: PolicyId,
    /// Modelled end-to-end time: per-epoch wall times plus prestaging
    /// (charged once per policy build) plus recovery penalties.
    pub execution_time: f64,
    /// Modelled wall time of each epoch: how far it moved its
    /// membership's slowest rank.
    pub per_epoch_time: Vec<f64>,
    /// Worker count of each epoch.
    pub memberships: Vec<usize>,
    /// Policy rebuilds beyond the initial one (one per membership the
    /// run had not seen before).
    pub replans: usize,
    /// Crash-and-restart events processed.
    pub recoveries: usize,
    /// Total modelled recovery penalty, seconds.
    pub recovery_time: f64,
    /// Per epoch: that epoch's membership and each rank's delivered
    /// sequence — the simulator's half of the agreement tests.
    pub epoch_streams: Vec<(usize, Vec<Vec<SampleId>>)>,
}

impl ElasticSimResult {
    /// The global delivered stream: each epoch's per-rank sequences
    /// re-interleaved round-robin (position `pos` belongs to rank
    /// `pos % n`). For identity-transform policies this must equal the
    /// undisturbed run's stream bit for bit.
    pub fn global_stream(&self) -> Vec<SampleId> {
        let mut out = Vec::new();
        for (n, streams) in &self.epoch_streams {
            let total: usize = streams.iter().map(Vec::len).sum();
            for pos in 0..total {
                out.push(streams[pos % n][pos / n]);
            }
        }
        out
    }
}

/// Simulates `policy` on `scenario` under `plan`. Epoch boundaries,
/// replans and crash recoveries become model-clock trace instants of
/// the scenario's observability context.
///
/// # Errors
/// [`SimError::Unsupported`] when the plan fails validation (e.g.
/// `drop_last` churn that changes the epoch length) or the policy
/// refuses some membership the plan produces.
pub fn run_elastic(
    scenario: &Scenario,
    policy: PolicyId,
    plan: &FaultPlan,
) -> Result<ElasticSimResult, SimError> {
    use nopfs_obs::names;
    let obs = &scenario.obs;
    plan.validate(&scenario.shuffle_spec(), scenario.epochs)
        .map_err(|u| SimError::Unsupported(u.0))?;
    let memberships = plan.memberships(scenario.system.workers, scenario.epochs);
    let scenarios: BTreeMap<usize, Scenario> = memberships
        .iter()
        .map(|&n| {
            let mut s = scenario.clone();
            s.system.workers = n;
            (n, s)
        })
        .collect();

    let mut jobs: BTreeMap<usize, JobState> = BTreeMap::new();
    let mut replans = 0usize;
    let mut recoveries = 0usize;
    let mut recovery_time = 0.0f64;
    let mut execution_time = 0.0f64;
    let mut per_epoch_time = Vec::with_capacity(memberships.len());
    let mut epoch_streams = Vec::with_capacity(memberships.len());

    for (e, &n) in memberships.iter().enumerate() {
        let e = e as u64;
        if !jobs.contains_key(&n) {
            if !jobs.is_empty() {
                replans += 1;
                obs.tracer.instant_at(
                    names::EV_REPLAN,
                    "sim",
                    execution_time,
                    vec![("workers", (n as u64).into())],
                );
            }
            let job = JobState::new(&scenarios[&n], policy)?;
            // Resharding pays its (possibly empty) prestage phase anew:
            // the newcomer-inclusive shard map has to be filled.
            execution_time += job.prestage_seconds();
            jobs.insert(n, job);
        }
        let job = jobs.get_mut(&n).expect("inserted above");

        // One epoch of the lockstep loop at this membership, on clocks
        // that run on from the epochs it ran before; stragglers divide
        // their rank's compute throughput.
        let compute = scenario.system.compute;
        job.set_compute(|w| compute / plan.straggle_factor(e, w));
        let before = job.wall();
        // The job's epoch instant lands on this run's clock.
        job.start = execution_time - before;
        job.schedule(e..e + 1);
        lockstep(std::slice::from_mut(job));
        let epoch_time = job.wall() - before;
        per_epoch_time.push(epoch_time);
        execution_time += epoch_time;

        // Each crash re-synchronizes the job and the restarted rank
        // re-reads its in-flight batch from the PFS, uncontended (the
        // runtime's lost staged samples).
        let crashes = plan.crashes_in(e);
        if !crashes.is_empty() {
            let batch_bytes =
                (scenario.mean_sample_bytes() * scenario.batch_size as f64).ceil() as u64;
            let penalty = scenario.system.read_time(Location::Pfs, batch_bytes, 1);
            for &(step, rank) in &crashes {
                obs.tracer.instant_at(
                    names::EV_CRASH,
                    "sim",
                    execution_time,
                    vec![
                        ("epoch", e.into()),
                        ("step", step.into()),
                        ("rank", (rank as u64).into()),
                    ],
                );
            }
            recoveries += crashes.len();
            recovery_time += penalty * crashes.len() as f64;
        }

        epoch_streams.push((n, job.take_seqs()));
    }

    execution_time += recovery_time;
    Ok(ElasticSimResult {
        policy,
        execution_time,
        per_epoch_time,
        memberships,
        replans,
        recoveries,
        recovery_time,
        epoch_streams,
    })
}

/// One row of a churn sweep: a `(plan, policy)` pair's overhead over
/// the fault-free run and whether its delivered global stream stayed
/// bit-identical (the replay-exactness column of EXPERIMENTS.md).
#[derive(Debug, Clone)]
pub struct ChurnRow {
    /// Label of the fault plan.
    pub plan: String,
    /// Which policy ran.
    pub policy: PolicyId,
    /// Modelled elastic execution time.
    pub execution_time: f64,
    /// `execution_time / fault_free_time` (≥ 1 in practice).
    pub overhead: f64,
    /// Crash-and-restarts processed.
    pub recoveries: usize,
    /// Policy rebuilds for new memberships.
    pub replans: usize,
    /// Whether the disturbed global stream equals the fault-free one.
    pub replay_exact: bool,
}

/// Sweeps `plans` × `policies` on one scenario, comparing each
/// disturbed run to its fault-free baseline. Combinations a policy
/// cannot support (e.g. the LBANN store after enough leaves) are
/// skipped, matching the figure benches' convention.
pub fn churn_sweep(
    scenario: &Scenario,
    policies: &[PolicyId],
    plans: &[(&str, FaultPlan)],
) -> Vec<ChurnRow> {
    let mut rows = Vec::new();
    for &policy in policies {
        let Ok(base) = run_elastic(scenario, policy, &FaultPlan::fault_free()) else {
            continue;
        };
        let base_stream = base.global_stream();
        for (label, plan) in plans {
            let Ok(r) = run_elastic(scenario, policy, plan) else {
                continue;
            };
            rows.push(ChurnRow {
                plan: (*label).to_string(),
                policy,
                execution_time: r.execution_time,
                overhead: r.execution_time / base.execution_time.max(f64::MIN_POSITIVE),
                recoveries: r.recoveries,
                replans: r.replans,
                replay_exact: r.global_stream() == base_stream,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use nopfs_perfmodel::presets::fig8_small_cluster;
    use nopfs_policy::ReadErrors;

    fn scenario() -> Scenario {
        let mut sys = fig8_small_cluster();
        sys.classes[0].capacity = 50_000; // 50 samples of RAM
        sys.classes[1].capacity = 100_000; // 100 of SSD
        Scenario::new("churn", sys, vec![1000u64; 120], 3, 4, 0xC1)
    }

    #[test]
    fn fault_free_elastic_matches_the_engine_streams() {
        let s = scenario();
        for policy in [PolicyId::NoPfs, PolicyId::Naive, PolicyId::StagingBuffer] {
            let r = run_elastic(&s, policy, &FaultPlan::fault_free()).unwrap();
            assert_eq!(r.memberships, vec![4, 4, 4]);
            assert_eq!(r.replans, 0);
            // Stream totals cover every epoch exactly once.
            let spe = s.shuffle_spec().samples_per_epoch();
            for (n, streams) in &r.epoch_streams {
                assert_eq!(*n, 4);
                let total: usize = streams.iter().map(Vec::len).sum();
                assert_eq!(total as u64, spe, "{policy}");
            }
        }
    }

    #[test]
    fn a_fault_free_plan_is_the_solo_engine() {
        let s = scenario();
        let mut ran = 0;
        for policy in PolicyId::ALL {
            let Ok(solo) = crate::engine::run(&s, policy) else {
                continue;
            };
            let elastic = run_elastic(&s, policy, &FaultPlan::fault_free()).unwrap();
            let (a, b) = (solo.execution_time, elastic.execution_time);
            assert!(
                (a - b).abs() <= 1e-9 * a,
                "{policy}: solo {a} vs fault-free elastic {b}"
            );
            ran += 1;
        }
        assert!(ran > PolicyId::ALL.len() / 2, "only {ran} policies ran");
    }

    #[test]
    fn churn_preserves_identity_policy_streams() {
        let s = scenario();
        let plan = FaultPlan::fault_free().leave(1).join(2).crash(0, 3, 2);
        for policy in [PolicyId::NoPfs, PolicyId::Naive, PolicyId::LbannDynamic] {
            let base = run_elastic(&s, policy, &FaultPlan::fault_free()).unwrap();
            let churned = run_elastic(&s, policy, &plan).unwrap();
            assert_eq!(churned.memberships, vec![4, 3, 4]);
            assert_eq!(churned.replans, 1, "3-worker build, 4 reused");
            assert_eq!(churned.recoveries, 1);
            assert!(churned.recovery_time > 0.0);
            assert_eq!(
                churned.global_stream(),
                base.global_stream(),
                "{policy}: global stream changed under churn"
            );
        }
    }

    #[test]
    fn elastic_streams_match_the_policy_layer_canon() {
        let s = scenario();
        let plan = FaultPlan::fault_free().leave(1).join(2).straggle(1, 0, 2.0);
        for policy in [PolicyId::NoPfs, PolicyId::StagingBuffer, PolicyId::Naive] {
            let sim = run_elastic(&s, policy, &plan).unwrap();
            let canon = nopfs_policy::elastic_epoch_streams(
                policy,
                &s.system,
                &s.sizes,
                &s.shuffle_spec(),
                s.epochs,
                &plan,
            )
            .unwrap();
            assert_eq!(sim.epoch_streams, canon, "{policy}");
        }
    }

    #[test]
    fn stragglers_and_crashes_cost_time_but_not_content() {
        let s = scenario();
        let plan = FaultPlan::fault_free()
            .straggle(0, 1, 4.0)
            .crash(1, 2, 0)
            .with_read_errors(ReadErrors {
                rate: 0.05,
                max_burst: 2,
                seed: 9,
            });
        let base = run_elastic(&s, PolicyId::NoPfs, &FaultPlan::fault_free()).unwrap();
        let hit = run_elastic(&s, PolicyId::NoPfs, &plan).unwrap();
        assert!(
            hit.execution_time > base.execution_time,
            "straggler+crash must cost time: {} vs {}",
            hit.execution_time,
            base.execution_time
        );
        assert_eq!(hit.global_stream(), base.global_stream());
    }

    #[test]
    fn sweep_reports_overhead_and_exactness() {
        let s = scenario();
        let plans = [
            ("crash", FaultPlan::fault_free().crash(0, 2, 1)),
            ("churn", FaultPlan::fault_free().leave(1).join(2)),
        ];
        let rows = churn_sweep(&s, &[PolicyId::NoPfs, PolicyId::Naive], &plans);
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert!(row.replay_exact, "{}/{}", row.policy, row.plan);
            assert!(row.overhead >= 1.0 - 1e-9, "{}", row.overhead);
        }
        assert!(rows.iter().any(|r| r.recoveries == 1));
        assert!(rows.iter().any(|r| r.replans == 1));
    }

    #[test]
    fn invalid_plans_are_rejected() {
        let s = scenario();
        let plan = FaultPlan::fault_free().crash(0, 0, 9);
        match run_elastic(&s, PolicyId::NoPfs, &plan) {
            Err(SimError::Unsupported(m)) => assert!(m.contains("outside membership"), "{m}"),
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }
}
