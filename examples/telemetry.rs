//! Live observability across the workspace: one metrics registry, one
//! event tracer, three harnesses.
//!
//! A two-tenant cluster (an elastic NoPFS job with a flaky cloud origin
//! co-scheduled with a naive loader) runs with tracing on and a
//! per-tenant telemetry sampler; the same scenario then replays through
//! the discrete simulator against the same vocabulary. The example
//! self-checks the observability contract:
//!
//! 1. every tenant streams JSONL telemetry (≥ 2 lines, monotone
//!    sequence numbers, non-decreasing counters),
//! 2. the end-of-run snapshot merges every tenant's scoped metrics and
//!    agrees with the per-tenant reports,
//! 3. the Chrome trace exports, parses, and contains the structured
//!    events the run must have emitted (epochs; breaker/hedge activity
//!    from the cloud origin),
//! 4. the simulator's registry counts match its own fetch accounting.
//!
//! Run with: `cargo run --release --example telemetry`

use nopfs::cluster::{run_cluster, ClusterSpec, TenantSpec};
use nopfs::obs::{names, Json, ObsCtx};
use nopfs::simulator::Scenario;
use nopfs::simulator::{run, PolicyId};
use nopfs_datasets::DatasetProfile;
use nopfs_perfmodel::presets::fig8_small_cluster;
use nopfs_perfmodel::{SystemSpec, ThroughputCurve};
use nopfs_policy::{CloudFaults, FaultPlan};
use nopfs_util::timing::TimeScale;
use std::time::Duration;

fn tenant_system() -> SystemSpec {
    let mut sys = fig8_small_cluster();
    sys.workers = 2;
    sys.staging.capacity = 2_000_000;
    sys.staging.threads = 2;
    sys.classes[0].capacity = 30_000_000;
    sys.classes[1].capacity = 60_000_000;
    sys
}

fn tenant(name: &str, policy: PolicyId, samples: u64, seed: u64) -> TenantSpec {
    TenantSpec::new(
        name,
        policy,
        tenant_system(),
        DatasetProfile::new(name, samples, 20_000.0, 0.0, 4, seed),
        2,
        4,
        seed,
    )
}

/// Extracts the cumulative value of `key` from each JSONL line's
/// counter map, in emission order.
fn counter_series(lines: &[String], key: &str) -> Vec<f64> {
    lines
        .iter()
        .filter_map(|line| {
            Json::parse(line)
                .expect("telemetry line parses")
                .get("snapshot")
                .and_then(|s| s.get("counters"))
                .and_then(|c| c.get(key))
                .and_then(Json::as_num)
        })
        .collect()
}

fn main() {
    // --- 1+2+3: the threaded cluster harness, telemetry on ---------
    // Realtime scale so the ~40 ms run spans several sampling ticks.
    let cloud = CloudFaults {
        spike_rate: 0.05,
        spike_factor: 30.0,
        throttle_rate: 0.1,
        throttle_burst: 2,
        retry_after: 1e-4,
        ..CloudFaults::none(0xC10D)
    };
    let spec = ClusterSpec::new(ThroughputCurve::flat(1e12), TimeScale::new(1.0))
        .tenant(
            tenant("cloudy", PolicyId::NoPfs, 64, 91)
                .with_fault_plan(FaultPlan::fault_free().with_cloud(cloud)),
        )
        .tenant(tenant("steady", PolicyId::Naive, 48, 92))
        .with_obs(ObsCtx::traced())
        .telemetry_every(Duration::from_millis(4));
    let report = run_cluster(&spec);

    println!("cluster: 2 tenants, tracing on, sampling every 4 ms");
    for t in &report.tenants {
        let key = format!("worker.consumed{{tenant={}}}", t.name);
        let consumed: Vec<f64> = {
            // Per-rank keys: sum the ranks per line for the tenant total.
            let r0 = counter_series(
                &t.telemetry,
                &format!("worker.consumed{{tenant={},rank=0}}", t.name),
            );
            let r1 = counter_series(
                &t.telemetry,
                &format!("worker.consumed{{tenant={},rank=1}}", t.name),
            );
            r0.iter()
                .zip(r1.iter().chain(std::iter::repeat(&0.0)))
                .map(|(a, b)| a + b)
                .collect()
        };
        println!(
            "  tenant {:<7} {} telemetry lines, final {} = {}",
            t.name,
            t.telemetry.len(),
            key,
            consumed.last().copied().unwrap_or(0.0),
        );
        assert!(
            t.telemetry.len() >= 2,
            "tenant {} must stream at least two telemetry lines, got {}",
            t.name,
            t.telemetry.len()
        );
        let mut prev_seq = -1.0;
        for line in &t.telemetry {
            let j = Json::parse(line).expect("telemetry line parses");
            let seq = j.get("seq").and_then(Json::as_num).expect("seq field");
            assert!(seq > prev_seq, "sequence numbers must increase");
            prev_seq = seq;
        }
        assert!(
            consumed.windows(2).all(|w| w[0] <= w[1]),
            "cumulative counters must be non-decreasing"
        );
        let total = consumed.last().copied().unwrap_or(0.0) as u64;
        assert_eq!(
            total, t.stats.samples_consumed,
            "tenant {}: telemetry tail must agree with the report",
            t.name
        );
    }

    // The merged end-of-run snapshot holds both tenants side by side.
    for t in &report.tenants {
        let scoped_total: u64 = (0..2)
            .map(|r| {
                report
                    .snapshot
                    .counter(&format!("worker.consumed{{tenant={},rank={r}}}", t.name))
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(
            scoped_total, t.stats.samples_consumed,
            "merged snapshot must carry tenant {}'s scope",
            t.name
        );
    }
    println!(
        "  merged snapshot: {} counters across tenants [OK]",
        report.snapshot.counters.len()
    );

    // The Chrome trace parses and carries the structured events.
    let trace = report.chrome_trace.as_ref().expect("tracing was on");
    let j = Json::parse(trace).expect("chrome trace parses");
    let events = j
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    let count_of = |name: &str| {
        events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some(name))
            .count()
    };
    let epochs = count_of(names::EV_EPOCH);
    let fetches = count_of(names::EV_FETCH);
    assert!(epochs >= 2, "both tenants train 2 epochs, saw {epochs}");
    assert!(fetches > 0, "fetch spans must be traced");
    println!(
        "  chrome trace: {} events ({} epoch instants, {} fetch spans) [OK]",
        events.len(),
        epochs,
        fetches
    );

    // --- 4: the simulator against the same vocabulary ---------------
    let scenario = Scenario::new(
        "telemetry-sim",
        fig8_small_cluster(),
        vec![100_000u64; 1_000],
        3,
        8,
        42,
    );
    let obs = ObsCtx::traced();
    let sim = run(&scenario.clone().with_obs(obs.clone()), PolicyId::NoPfs).expect("sim runs");
    let snap = obs.snapshot();
    let counted = snap.counter_total(names::SIM_FETCH);
    let expected: u64 = sim.fetch_counts.iter().sum();
    assert_eq!(counted, expected, "sim registry must count every fetch");
    let sim_epochs = obs
        .tracer
        .export()
        .iter()
        .filter(|e| e.name == names::EV_EPOCH)
        .count();
    assert_eq!(sim_epochs, scenario.epochs as usize);
    println!(
        "simulator: {} modelled fetches counted, {} model-clock epoch instants [OK]",
        counted, sim_epochs
    );

    println!();
    println!(
        "[PASS] telemetry streams, merged snapshot, chrome trace, and sim registry all check out"
    );
}
