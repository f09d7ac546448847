//! Elasticity quickstart: replay-exact recovery under a fault plan.
//!
//! A NoPFS job loses a worker mid-epoch (crash-and-restart with a cold
//! cache), shrinks by one worker for an epoch, regains it, drags a 2x
//! straggler along, and absorbs transient PFS read errors — and still
//! delivers bit-for-bit the same global sample stream as the
//! undisturbed run. Recovery is cheap by construction: membership
//! changes re-split the cached clairvoyant streams
//! (`SetupArtifacts::replan`) instead of re-running the O(E·F) setup
//! pass, so the epoch-shuffle counter never advances.
//!
//! The example self-checks both halves of that claim on the threaded
//! runtime, then prints a simulator churn sweep (the EXPERIMENTS.md
//! rows) over the same fault vocabulary.
//!
//! Run with: `cargo run --release --example elastic`

use nopfs::core::{Job, JobConfig};
use nopfs::datasets::DatasetProfile;
use nopfs::obs::{names, ObsCtx};
use nopfs::perfmodel::presets::fig8_small_cluster;
use nopfs::policy::{FaultPlan, PolicyId, ReadErrors};
use nopfs::simulator::{churn_sweep, Scenario};
use nopfs::util::timing::TimeScale;
use std::sync::Arc;

fn main() {
    // A 4-worker slice of the paper's small cluster, capacities scaled
    // to a toy dataset.
    let mut system = fig8_small_cluster();
    system.workers = 4;
    system.staging.capacity = 64 * 2_000;
    system.staging.threads = 4;
    system.classes[0].capacity = 120 * 2_000; // "RAM"
    system.classes[1].capacity = 240 * 2_000; // "SSD"

    let profile = DatasetProfile::new("elastic", 240, 2_000.0, 0.0, 10, 7);
    let sizes = Arc::new(profile.sizes());
    let config = JobConfig::new(0xE1A5, 3, 8, system.clone(), TimeScale::new(1e-3));

    // The disturbance: rank 1 crashes two steps into epoch 0, the
    // highest rank leaves for epoch 1 and rejoins for epoch 2, rank 2
    // computes at half speed throughout, and 5% of the samples get a
    // short burst of failed PFS reads.
    let plan = FaultPlan::fault_free()
        .crash(0, 2, 1)
        .leave(1)
        .join(2)
        .straggle(0, 2, 2.0)
        .with_read_errors(ReadErrors {
            rate: 0.05,
            max_burst: 2,
            seed: 0xBAD5EED,
        });

    // Each run returns its report and the loaders' `worker.pfs_errors`,
    // read from the job's registry once every worker has shut down.
    let run = |plan: FaultPlan| {
        let config = config.clone().with_obs(ObsCtx::new());
        let obs = config.obs.clone();
        let job = Job::with_plan(config, Arc::clone(&sizes), plan).expect("valid plan");
        let pfs = job.make_pfs();
        profile.materialize(&pfs);
        let report = job.run(&pfs);
        (
            report,
            obs.snapshot().counter_total(names::WORKER_PFS_ERRORS),
        )
    };

    println!("fault-free reference run...");
    let (baseline, _) = run(FaultPlan::fault_free());
    println!("disturbed run (crash + churn + straggler + read errors)...");
    let (report, pfs_errors) = run(plan);

    println!();
    println!("memberships per epoch : {:?}", report.memberships);
    println!("recoveries            : {}", report.recoveries);
    println!(
        "recovery wall time    : {:.2} ms",
        report.recovery_time.as_secs_f64() * 1e3
    );
    println!(
        "incremental replans   : {} ({} epoch shuffles regenerated)",
        report.replans, report.replan_shuffle_generations
    );
    println!(
        "read errors planted   : {} (absorbed by {} loader retries)",
        report.injected_read_errors, pfs_errors
    );
    println!(
        "samples delivered     : {} ({} staging fetches, {:.2} ms stalled)",
        report.stats.samples_consumed,
        report.stats.total_fetches(),
        report.stats.stall_time.as_secs_f64() * 1e3
    );

    // Self-check 1: replay exactness. The global stream of the
    // disturbed run is bit-for-bit the undisturbed one.
    assert_eq!(
        report.global_stream, baseline.global_stream,
        "recovery changed the global sample stream"
    );
    // Self-check 2: recovery actually happened and was incremental —
    // the crash recovered, the churn replanned, and not one epoch
    // shuffle was regenerated on top of the initial setup's E.
    assert_eq!(report.memberships, vec![4, 3, 4]);
    assert_eq!(report.recoveries, 1);
    assert_eq!(report.replans, 1);
    assert_eq!(report.replan_shuffle_generations, 0);
    assert_eq!(report.setup.shuffle_generations, 3);
    assert!(report.injected_read_errors > 0);
    assert_eq!(pfs_errors, report.injected_read_errors);
    println!();
    println!("OK: the recovered stream is bit-identical to the fault-free");
    println!("run, and every membership change was replanned without");
    println!("regenerating a single epoch shuffle.");

    // The simulator's half: a churn sweep over the same vocabulary,
    // comparing each disturbed run to its fault-free baseline (the
    // EXPERIMENTS.md churn-sweep rows).
    let scenario = Scenario::new("elastic", system, profile.sizes(), 3, 8, 0xE1A5);
    let plans = [
        ("crash@e0s2", FaultPlan::fault_free().crash(0, 2, 1)),
        ("leave+join", FaultPlan::fault_free().leave(1).join(2)),
        (
            "crash+churn+straggler",
            FaultPlan::fault_free()
                .crash(0, 2, 1)
                .leave(1)
                .join(2)
                .straggle(0, 2, 2.0),
        ),
    ];
    let rows = churn_sweep(
        &scenario,
        &[PolicyId::NoPfs, PolicyId::Naive, PolicyId::StagingBuffer],
        &plans,
    );

    println!();
    println!(
        "{:<22} {:<16} {:>9} {:>11} {:>9} {:>8} {:>7}",
        "plan", "policy", "time(s)", "overhead", "recover", "replans", "exact"
    );
    for row in &rows {
        println!(
            "{:<22} {:<16} {:>9.2} {:>10.2}x {:>9} {:>8} {:>7}",
            row.plan,
            row.policy.to_string(),
            row.execution_time,
            row.overhead,
            row.recoveries,
            row.replans,
            row.replay_exact
        );
        // Self-check 3: the simulator agrees — every policy replays
        // exactly under every plan, at a cost never below fault-free.
        assert!(
            row.replay_exact,
            "{}/{} not replay-exact",
            row.policy, row.plan
        );
        assert!(row.overhead >= 1.0 - 1e-9);
    }
    assert_eq!(rows.len(), 9, "a policy silently dropped out of the sweep");
    println!();
    println!("OK: simulator sweep replay-exact across all plans and policies.");
}
