//! Cloud-origin quickstart: the object-store failure domain.
//!
//! The dataset's origin moves from a PFS to a cloud object store with a
//! per-request latency floor, parallelism-dependent throughput, and
//! seeded disturbances (tail-latency spikes, throttle bursts, a
//! brownout window). Two clients face the identical disturbance seeds:
//! a **hardened** one (capped full-jitter retries, hedged second
//! requests, a circuit breaker that steers fetches to peers and local
//! tiers while the origin is sick) and an
//! unbounded **naive** one. The example self-checks the failure
//! domain's headline on the simulator — bounded degradation, never
//! losing to naive — and then proves on the threaded runtime that a
//! brownout layered over a mid-epoch crash still delivers bit-for-bit
//! the fault-free global sample stream.
//!
//! Run with: `cargo run --release --example cloud`

use nopfs::core::{Job, JobConfig};
use nopfs::datasets::DatasetProfile;
use nopfs::policy::{FaultPlan, PolicyId};
use nopfs::simulator::run;
use nopfs::util::timing::TimeScale;
use nopfs_bench::scenarios::fig_cloud;
use std::sync::Arc;

fn main() {
    // 1. Simulator: one cell of the fig_cloud sweep (4 workers, the
    //    moderate brownout), hardened vs naive on identical seeds.
    let base = fig_cloud::sim_scenario(4, 1.0);
    let quiet = run(
        &fig_cloud::with_cloud(&base, fig_cloud::quiet(), fig_cloud::hardened()),
        PolicyId::NoPfs,
    )
    .expect("NoPfs supports every scenario");
    let (label, latency_factor, extra_throttle) = fig_cloud::SEVERITIES[1];
    let storm = fig_cloud::storm(quiet.execution_time, latency_factor, extra_throttle);
    let hardened = run(
        &fig_cloud::with_cloud(&base, storm.clone(), fig_cloud::hardened()),
        PolicyId::NoPfs,
    )
    .unwrap();
    let naive = run(
        &fig_cloud::with_cloud(&base, storm, fig_cloud::naive()),
        PolicyId::NoPfs,
    )
    .unwrap();

    let h_slow = hardened.execution_time / quiet.execution_time;
    let n_slow = naive.execution_time / quiet.execution_time;
    let hs = hardened.resilience.expect("cloud stats");
    println!("simulator, {label} brownout over the cold epoch (4 workers):");
    println!("  fault-free        {:>7.3} s", quiet.execution_time);
    println!(
        "  hardened client   {:>7.3} s  ({h_slow:.2}x; {} hedges, {} breaker opens, {} throttles)",
        hardened.execution_time, hs.hedges_fired, hs.breaker_to_open, hs.throttled
    );
    println!(
        "  naive client      {:>7.3} s  ({n_slow:.2}x)",
        naive.execution_time
    );

    // Self-check 1: bounded degradation, never losing to naive, same
    // access totals (the disturbances cost time, not content).
    assert!(
        h_slow <= fig_cloud::BOUND,
        "hardened exceeded the {}x bound: {h_slow:.2}x",
        fig_cloud::BOUND
    );
    assert!(hardened.execution_time <= naive.execution_time * 1.02);
    let total = |r: &nopfs::simulator::SimResult| r.fetch_counts.iter().sum::<u64>();
    assert_eq!(total(&quiet), total(&hardened));
    assert_eq!(total(&quiet), total(&naive));
    assert!(hs.throttled > 0 && hs.hedges_fired > 0);
    println!("OK: bounded degradation under the brownout, hedges and breaker exercised.");

    // 2. Threaded runtime: a brownout *plus* a mid-epoch crash, and the
    //    delivered global stream is still bit-identical.
    let mut system = nopfs::perfmodel::presets::fig8_small_cluster();
    system.workers = 4;
    system.staging.capacity = 64 * 2_000;
    system.staging.threads = 4;
    system.classes[0].capacity = 120 * 2_000;
    system.classes[1].capacity = 240 * 2_000;
    let profile = DatasetProfile::new("cloud", 240, 2_000.0, 0.0, 10, 7);
    let sizes = Arc::new(profile.sizes());
    let config = JobConfig::new(0xC10D, 3, 8, system, TimeScale::new(1e-3));
    let run_rt = |plan: FaultPlan| {
        let job = Job::with_plan(config.clone(), Arc::clone(&sizes), plan).expect("valid plan");
        let pfs = job.make_pfs();
        profile.materialize(&pfs);
        job.run(&pfs)
    };
    println!();
    println!("runtime: fault-free reference, then brownout + crash...");
    let baseline = run_rt(FaultPlan::fault_free());
    let disturbed = run_rt(fig_cloud::runtime_plan());
    let rt = &disturbed.resilience;
    println!(
        "  origin reads {}  retries {}  throttled {}  hedges {}  exhausted {}",
        rt.reads, rt.retries, rt.throttled, rt.hedges_fired, rt.exhausted
    );

    // Self-check 2: the stream survives the whole failure domain.
    assert_eq!(
        disturbed.global_stream, baseline.global_stream,
        "origin disturbances changed the delivered stream"
    );
    assert!(rt.reads > 0 && rt.throttled > 0 && rt.retries > 0);
    assert_eq!(rt.exhausted, 0, "the retry budget absorbed every burst");
    assert_eq!(disturbed.recoveries, 1, "the crash recovered");
    println!("OK: brownout + crash, global stream bit-identical to fault-free.");
}
