//! Property tests for the fault-injection and elasticity layer: the
//! determinism suite behind the headline guarantee — a job disturbed by
//! *any* valid [`FaultPlan`] (crashes, churn, stragglers, transient
//! read errors, in any combination) delivers bit-for-bit the same
//! global sample stream as the undisturbed run, and every membership
//! change is replanned incrementally (zero epoch-shuffle
//! regenerations) instead of re-running the O(E·F) setup pass.
//!
//! Three random-plan properties cover the threaded runtime
//! ([`Job::run`]) and the discrete-event simulator
//! ([`nopfs::simulator::run_elastic`]) across NoPFS and the identity
//! baselines; a deterministic test pins the incremental-replan
//! cheapness claim at the artifact level.
//!
//! A second section covers the object-store failure domain: random
//! seeded cloud disturbances (spikes, throttle bursts, brownouts) never
//! change the delivered stream on the runtime or the modelled access
//! totals in the simulator, hedged reads never change bytes, and the
//! circuit breaker's transition counters satisfy its state-machine
//! invariants under arbitrary seeded event walks.

use bytes::Bytes;
use nopfs::clairvoyance::SetupPass;
use nopfs::core::{ElasticReport, Job, JobConfig};
use nopfs::obs::{names, Registry};
use nopfs::perfmodel::presets::fig8_small_cluster;
use nopfs::perfmodel::SystemSpec;
use nopfs::perfmodel::ThroughputCurve;
use nopfs::policy::fault::{respec, ShuffleSpec};
use nopfs::policy::{elastic_global_stream, CloudFaults, FaultPlan, PolicyId, ReadErrors};
use nopfs::simulator::{hardened_client, naive_client, run, run_elastic, CloudSpec, Scenario};
use nopfs::storage::{
    BreakerConfig, BreakerState, CircuitBreaker, DataSource, HedgeConfig, ObjectStoreBackend,
    ObjectStoreConfig, ResilienceConfig, ResilientSource, RetryPolicy, SourceHealth,
};
use nopfs::util::timing::TimeScale;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 0xF4;
const SAMPLES: u64 = 60;
const SAMPLE_BYTES: u64 = 1_000;
const WORKERS: usize = 3;
const EPOCHS: u64 = 3;
const BATCH: usize = 4;

/// A 3-worker system small enough that property cases stay cheap, with
/// per-worker RAM large enough to hold the whole dataset so the LBANN
/// store stays feasible even when churn drains the job to one worker.
fn small_system() -> SystemSpec {
    let mut sys = fig8_small_cluster();
    sys.workers = WORKERS;
    sys.staging.capacity = 64 * SAMPLE_BYTES;
    sys.staging.threads = 4;
    sys.classes[0].capacity = 80 * SAMPLE_BYTES;
    sys.classes[1].capacity = 100 * SAMPLE_BYTES;
    sys
}

fn spec() -> ShuffleSpec {
    ShuffleSpec::new(SEED, SAMPLES, WORKERS, BATCH, false)
}

/// [`small_system`] with caches that hold a third of the dataset per
/// worker, so that the placement leaves samples no worker caches and
/// every worker runs its origin look-ahead (lanes, window) beside the
/// staging threads.
fn scarce_system() -> SystemSpec {
    let mut sys = small_system();
    sys.classes[0].capacity = 8 * SAMPLE_BYTES;
    sys.classes[1].capacity = 12 * SAMPLE_BYTES;
    sys
}

/// The undisturbed global stream every disturbed run must reproduce.
fn canon() -> Vec<u64> {
    canon_on(&small_system())
}

fn canon_on(sys: &SystemSpec) -> Vec<u64> {
    elastic_global_stream(
        PolicyId::NoPfs,
        sys,
        &vec![SAMPLE_BYTES; SAMPLES as usize],
        &spec(),
        EPOCHS,
        &FaultPlan::fault_free(),
    )
    .expect("fault-free plan is always valid")
}

/// Runs the threaded elastic runtime under `plan`, and returns its
/// report with the loaders' `worker.pfs_errors`, read after teardown.
fn elastic_run(plan: FaultPlan) -> (ElasticReport, u64) {
    elastic_run_on(small_system(), plan)
}

fn elastic_run_on(sys: SystemSpec, plan: FaultPlan) -> (ElasticReport, u64) {
    let sizes = Arc::new(vec![SAMPLE_BYTES; SAMPLES as usize]);
    let config = JobConfig::new(SEED, EPOCHS, BATCH, sys, TimeScale::new(1e-6));
    let obs = config.obs.clone();
    let job = Job::with_plan(config, Arc::clone(&sizes), plan).expect("clamped plan is valid");
    let pfs = job.make_pfs();
    for (id, &s) in sizes.iter().enumerate() {
        let mut v = vec![0u8; s as usize];
        v[0] = (id % 256) as u8;
        pfs.put(id as u64, Bytes::from(v));
    }
    let report = job.run(&pfs);
    (
        report,
        obs.snapshot().counter_total(names::WORKER_PFS_ERRORS),
    )
}

/// Applies raw churn draws (0 = none, 1 = join, 2 = leave) before
/// epochs 1 and 2.
fn churned(mut plan: FaultPlan, churn1: u8, churn2: u8) -> FaultPlan {
    for (epoch, draw) in [(1u64, churn1), (2u64, churn2)] {
        plan = match draw {
            1 => plan.join(epoch),
            2 => plan.leave(epoch),
            _ => plan,
        };
    }
    plan
}

/// Clamps raw crash draws into the plan's run shape: the rank must
/// exist in the crash epoch's membership and the step must fall inside
/// that epoch — so every generated plan passes `FaultPlan::validate`.
fn with_clamped_crash(plan: FaultPlan, epoch: u64, raw_step: u64, raw_rank: u64) -> FaultPlan {
    let n = plan.memberships(WORKERS, EPOCHS)[epoch as usize];
    let steps = SAMPLES.div_ceil((n * BATCH) as u64);
    plan.crash(epoch, raw_step % steps, (raw_rank % n as u64) as usize)
}

/// Distinct memberships beyond the initial one: the incremental replans
/// a run must perform.
fn expected_replans(plan: &FaultPlan) -> usize {
    plan.memberships(WORKERS, EPOCHS)
        .into_iter()
        .filter(|&n| n != WORKERS)
        .collect::<BTreeSet<_>>()
        .len()
}

/// The origin look-ahead under faults: with caches smaller than the
/// dataset every worker reads the never-cached positions ahead through
/// its lanes, and a crash at a step (lanes torn down mid-read, workers
/// relaunched over warm tiers) or a burst of transient read errors (on
/// lane reads as on any other) still ends with the bit-identical
/// stream.
#[test]
fn origin_look_ahead_keeps_the_stream_under_a_crash_and_under_read_bursts() {
    let sys = scarce_system();
    let placement = nopfs::clairvoyance::GlobalPlacement::compute(
        &spec(),
        EPOCHS,
        &vec![SAMPLE_BYTES; SAMPLES as usize],
        &vec![sys.class_capacities(); WORKERS],
    );
    assert!(sys.origin_lanes(placement.uncached_share()) >= 1);
    let canon = canon_on(&sys);
    assert_eq!(canon, canon_on(&small_system()), "the stream is the seed's");

    let crash = FaultPlan::fault_free().crash(1, 2, 1);
    let (report, _) = elastic_run_on(sys.clone(), crash);
    assert_eq!(report.global_stream, canon);
    assert_eq!(report.recoveries, 1);
    assert_eq!(report.stats.samples_consumed, SAMPLES * EPOCHS);

    let bursts = FaultPlan::fault_free().with_read_errors(ReadErrors {
        rate: 0.2,
        max_burst: 2,
        seed: 0xB0,
    });
    let (report, pfs_errors) = elastic_run_on(sys, bursts);
    assert_eq!(report.global_stream, canon);
    assert!(report.injected_read_errors > 0);
    assert_eq!(pfs_errors, report.injected_read_errors);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The acceptance property: ANY plan with at least one
    /// crash-and-restart — here combined with random churn, a random
    /// straggler, and optional read-error injection — recovers the
    /// exact fault-free global stream, and every membership change is
    /// replanned without regenerating a single epoch shuffle.
    #[test]
    fn any_crash_and_restart_recovers_the_exact_global_stream(
        churn in (0..3u8, 0..3u8),
        crash in (0..3u64, 0..64u64, 0..64u64),
        straggler in (0..3u64, 0..3usize, 1.0f64..3.0),
        errors in (0..2u8, 0.01f64..0.2, 1..3u32, 0..u64::MAX),
    ) {
        let mut plan = churned(FaultPlan::fault_free(), churn.0, churn.1)
            .straggle(straggler.0, straggler.1, straggler.2);
        if errors.0 == 1 {
            plan = plan.with_read_errors(ReadErrors {
                rate: errors.1,
                max_burst: errors.2,
                seed: errors.3,
            });
        }
        let plan = with_clamped_crash(plan, crash.0, crash.1, crash.2);
        prop_assert!(plan.has_crash());

        let (report, pfs_errors) = elastic_run(plan.clone());
        prop_assert_eq!(&report.global_stream, &canon());
        prop_assert!(report.recoveries >= 1);
        prop_assert_eq!(report.stats.samples_consumed, SAMPLES * EPOCHS);
        // Crashes too leave every planted failure met once, retried
        // through by whichever loader met it.
        prop_assert_eq!(pfs_errors, report.injected_read_errors);
        // The cheapness half of the claim: recovery re-splits cached
        // setup streams; the shuffle-generation counter never advances.
        prop_assert_eq!(report.replans as usize, expected_replans(&plan));
        prop_assert_eq!(report.replan_shuffle_generations, 0);
        prop_assert_eq!(report.setup.shuffle_generations, EPOCHS);
    }

    /// Crash-free disturbances — churn, a straggler, and always-on read
    /// errors — leave delivered content untouched, and every planted
    /// error is absorbed by the loaders' origin retry loop.
    #[test]
    fn churn_stragglers_and_read_errors_leave_content_untouched(
        churn in (0..3u8, 0..3u8),
        straggler in (0..3u64, 0..3usize, 1.0f64..4.0),
        errors in (0.01f64..0.25, 1..3u32, 0..u64::MAX),
    ) {
        let plan = churned(FaultPlan::fault_free(), churn.0, churn.1)
            .straggle(straggler.0, straggler.1, straggler.2)
            .with_read_errors(ReadErrors {
                rate: errors.0,
                max_burst: errors.1,
                seed: errors.2,
            });

        let (report, pfs_errors) = elastic_run(plan.clone());
        prop_assert_eq!(&report.global_stream, &canon());
        prop_assert_eq!(report.recoveries, 0);
        prop_assert_eq!(report.replans as usize, expected_replans(&plan));
        prop_assert_eq!(report.replan_shuffle_generations, 0);
        // Every planted failure is met once and retried through.
        prop_assert_eq!(pfs_errors, report.injected_read_errors);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The simulator's elastic path replays exactly too, for NoPFS and
    /// the three identity-transform baselines alike: random churn, an
    /// optional crash, and a straggler never change the modelled
    /// delivered stream.
    #[test]
    fn simulated_policies_replay_exactly_under_random_plans(
        policy_idx in 0..4usize,
        churn in (0..3u8, 0..3u8),
        crash in (0..2u8, 0..3u64, 0..64u64, 0..64u64),
        straggle_factor in 1.0f64..4.0,
    ) {
        let policy = [
            PolicyId::NoPfs,
            PolicyId::Naive,
            PolicyId::StagingBuffer,
            PolicyId::LbannDynamic,
        ][policy_idx];
        let scenario = Scenario::new(
            "fault-props",
            small_system(),
            vec![SAMPLE_BYTES; SAMPLES as usize],
            EPOCHS,
            BATCH,
            SEED,
        );

        let mut plan = churned(FaultPlan::fault_free(), churn.0, churn.1)
            .straggle(1, 0, straggle_factor);
        if crash.0 == 1 {
            plan = with_clamped_crash(plan, crash.1, crash.2, crash.3);
        }

        let base = run_elastic(&scenario, policy, &FaultPlan::fault_free())
            .expect("fault-free plan is always valid");
        let hit = run_elastic(&scenario, policy, &plan).expect("clamped plan is valid");
        prop_assert_eq!(hit.global_stream(), base.global_stream());
        prop_assert_eq!(hit.replans, expected_replans(&plan));
        prop_assert_eq!(hit.recoveries, usize::from(plan.has_crash()));
    }
}

// ---------------------------------------------------------------------
// The object-store failure domain.
// ---------------------------------------------------------------------

const FLOOR: f64 = 0.002;

/// Random ambient cloud disturbances with a burst bound safely below
/// every client's retry budget.
fn cloud_faults(
    seed: u64,
    spike: (f64, f64),
    throttle_rate: f64,
    throttle_burst: u32,
) -> CloudFaults {
    CloudFaults {
        spike_rate: spike.0,
        spike_factor: spike.1,
        throttle_rate,
        throttle_burst,
        retry_after: FLOOR / 10.0,
        brownouts: Vec::new(),
        seed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Cloud disturbances change when bytes arrive, never which bytes:
    /// a random spike/throttle mix under an always-on brownout —
    /// optionally layered over churn and a crash — still delivers the
    /// exact fault-free global stream on the threaded runtime.
    #[test]
    fn cloud_disturbed_runtime_streams_are_bit_identical(
        seed in 0..u64::MAX,
        spike in (0.0f64..0.2, 1.0f64..16.0),
        throttle in (0.0f64..0.2, 1..3u32),
        brownout in (1.0f64..3.0, 0.0f64..0.3),
        churn in (0..3u8, 0..3u8),
        crash in (0..2u8, 0..3u64, 0..64u64, 0..64u64),
    ) {
        let cloud = cloud_faults(seed, spike, throttle.0, throttle.1)
            .brownout(0.0, 1e12, brownout.0, brownout.1);
        let mut plan = churned(FaultPlan::fault_free(), churn.0, churn.1).with_cloud(cloud);
        if crash.0 == 1 {
            plan = with_clamped_crash(plan, crash.1, crash.2, crash.3);
        }

        let (report, _) = elastic_run(plan.clone());
        prop_assert_eq!(&report.global_stream, &canon());
        prop_assert_eq!(report.stats.samples_consumed, SAMPLES * EPOCHS);
        prop_assert_eq!(report.recoveries, u64::from(plan.has_crash()));
        // Every origin read went through the resilience layer, and the
        // per-tier statistics survived the cloud re-route.
        prop_assert!(report.resilience.reads > 0);
        prop_assert!(!report.tier_stats.is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Under a random seeded brownout the simulator's hardened client
    /// keeps the modelled access totals identical to the quiet and
    /// naive runs, its breaker counters satisfy the state-machine
    /// invariants (every half-open entry needs a prior open, every
    /// close a prior half-open; rejections only ever happen once
    /// tripped), and its bounded retry budget never exhausts.
    #[test]
    fn simulated_breaker_invariants_hold_under_random_brownouts(
        seed in 0..u64::MAX,
        spike in (0.0f64..0.1, 1.0f64..30.0),
        throttle in (0.0f64..0.3, 1..4u32),
        storm in (0.0f64..0.3, 0.1f64..0.6, 1.0f64..3.5, 0.0f64..0.4),
    ) {
        let scenario = Scenario::new(
            "cloud-props",
            small_system(),
            vec![SAMPLE_BYTES; SAMPLES as usize],
            EPOCHS,
            BATCH,
            SEED,
        );
        let curve = ThroughputCurve::flat(1e9);
        let with = |faults: CloudFaults, res: ResilienceConfig| {
            scenario
                .clone()
                .with_cloud(CloudSpec::new(FLOOR, curve.clone(), faults, res))
        };
        let ambient = cloud_faults(seed, spike, throttle.0, throttle.1);
        let quiet = run(
            &with(CloudFaults::none(seed), hardened_client(FLOOR)),
            PolicyId::NoPfs,
        )
        .expect("NoPfs supports every scenario");
        let stormy = ambient.brownout(
            storm.0 * quiet.execution_time,
            storm.1 * quiet.execution_time,
            storm.2,
            storm.3,
        );
        let hardened = run(
            &with(stormy.clone(), hardened_client(FLOOR)),
            PolicyId::NoPfs,
        )
        .expect("valid cloud spec");
        let naive = run(
            &with(stormy, naive_client(FLOOR / 4.0)),
            PolicyId::NoPfs,
        )
        .expect("valid cloud spec");

        // Disturbances cost time, never content: identical totals.
        let total = |r: &nopfs::simulator::SimResult| r.fetch_counts.iter().sum::<u64>();
        prop_assert_eq!(total(&quiet), total(&hardened));
        prop_assert_eq!(total(&quiet), total(&naive));

        let hs = hardened.resilience.expect("cloud run reports stats");
        prop_assert!(hs.breaker_to_half_open <= hs.breaker_to_open);
        prop_assert!(hs.breaker_to_closed <= hs.breaker_to_half_open);
        if hs.breaker_open_rejections > 0 {
            prop_assert!(hs.breaker_to_open > 0);
        }
        prop_assert_eq!(hs.exhausted, 0);
        // Only the hardened client owns hedge/breaker machinery.
        let ns = naive.resilience.expect("cloud run reports stats");
        prop_assert_eq!(ns.hedges_fired, 0);
        prop_assert_eq!(ns.breaker_to_open, 0);
    }

    /// Hedging changes *when* bytes arrive, never *which* bytes: under
    /// random seeded tail-latency spikes, every read through a hedging
    /// [`ResilientSource`] returns the backend's canonical payload.
    #[test]
    fn hedged_reads_never_change_bytes(
        seed in 0..u64::MAX,
        spike in (0.05f64..0.5, 2.0f64..10.0),
    ) {
        let payload = |id: u64| bytes::Bytes::from(vec![(id % 251) as u8 + 1; 64]);
        // Wall-clock model (floor 100 us) so hedges genuinely race.
        let cfg = ObjectStoreConfig::new(1e-4, ThroughputCurve::flat(1e12), 4)
            .with_disturbance(CloudFaults {
                spike_rate: spike.0,
                spike_factor: spike.1,
                ..CloudFaults::none(seed)
            });
        let store = ObjectStoreBackend::in_memory(cfg, TimeScale::realtime());
        for id in 0..24u64 {
            store.write(id, payload(id)).expect("store has room");
        }
        let src = ResilientSource::new(
            Arc::new(store),
            ResilienceConfig::retry_only(RetryPolicy::new(
                4,
                Duration::from_micros(10),
                0.5,
                seed,
            ))
            .with_hedge(HedgeConfig::new(0.5, Duration::from_micros(150), 4)),
            TimeScale::realtime(),
        );
        // Two passes: the first fills the latency window, the second
        // hedges off the measured quantile.
        for round in 0..2u64 {
            for id in 0..24u64 {
                let got = src.read(id);
                prop_assert_eq!(
                    got.as_ref().ok(),
                    Some(&payload(id)),
                    "round {} id {}: hedged read diverged: {:?}",
                    round,
                    id,
                    got
                );
            }
        }
        prop_assert_eq!(src.stats().reads, 48);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The breaker state machine under arbitrary seeded event walks:
    /// transition counters stay causally ordered, a denied request
    /// always coincides with an unhealthy backend, `reopen_at` is only
    /// ever reported while open, and an open breaker always admits a
    /// probe once its cooldown elapses.
    #[test]
    fn breaker_transitions_satisfy_state_machine_invariants(
        cfg in (1..4u32, 0.5f64..8.0, 1..3u32),
        events in proptest::collection::vec((0..3u8, 0.0f64..2.0), 1..120),
    ) {
        let cooldown = cfg.1;
        let b = CircuitBreaker::new(BreakerConfig::new(cfg.0, cooldown, cfg.2), &Registry::new());
        let mut now = 0.0f64;
        for &(kind, dt) in &events {
            now += dt;
            match kind {
                0 => {
                    if b.allow(now) {
                        b.on_success(now);
                    }
                }
                1 => {
                    if b.allow(now) {
                        b.on_failure(now);
                    }
                }
                _ => {
                    if !b.allow(now) {
                        prop_assert_ne!(b.health(now), SourceHealth::Healthy);
                    }
                }
            }
            let (to_open, to_half_open, to_closed, rejections) = b.transitions();
            prop_assert!(to_half_open <= to_open, "half-open without a prior open");
            prop_assert!(to_closed <= to_half_open, "close without a prior half-open");
            if rejections > 0 {
                prop_assert!(to_open > 0, "rejection before the first trip");
            }
            match b.reopen_at() {
                Some(t) => {
                    prop_assert_eq!(b.state(), BreakerState::Open);
                    prop_assert!(t <= now + cooldown + 1e-9);
                }
                None => prop_assert_ne!(b.state(), BreakerState::Open),
            }
        }
        if let Some(t) = b.reopen_at() {
            prop_assert!(b.allow(t), "cooldown elapsed but the probe was denied");
            prop_assert_eq!(b.state(), BreakerState::HalfOpen);
        }
    }
}

/// The artifact-level statement of the cheapness claim: an incremental
/// replan re-splits the cached setup streams into artifacts that are
/// bit-identical to a fresh `SetupPass` at the new membership, while
/// its own shuffle-generation counter records zero.
#[test]
fn incremental_replan_is_bit_identical_and_generates_no_shuffles() {
    let base = SetupPass::new(spec(), EPOCHS).run();
    assert_eq!(base.shuffles_generated, EPOCHS);
    for n in [1, 2, 4, 5] {
        let replanned = base.replan(n);
        assert_eq!(replanned.shuffles_generated, 0, "replan to {n} workers");
        let fresh = SetupPass::new(respec(&spec(), n), EPOCHS).run();
        assert_eq!(fresh.shuffles_generated, EPOCHS);
        for w in 0..n {
            assert_eq!(
                replanned.stream(w),
                fresh.stream(w),
                "worker {w} of {n}: replan diverged from a fresh pass"
            );
        }
    }
}
