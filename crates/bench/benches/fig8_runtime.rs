//! Fig. 8, runtime edition: all **ten** registry policies as real
//! loader threads on one contended system.
//!
//! The simulation bench (`fig8_simulation`) prices every policy
//! analytically; since the policy-layer refactor the same ten
//! `PolicyId`s also construct working runtime loaders, so this bench
//! runs the head-to-head with real threads, caches, and bytes: median
//! steady epoch time, consumer stall, fetch-source fractions, prestage
//! volume, and the NoPFS clairvoyant-setup cost.
//!
//! Emits `BENCH_fig8_runtime.json` (workspace root) alongside the
//! interference report — the machine-readable perf trajectory of the
//! runtime policy grid.

use nopfs_bench::report::{self, Json};
use nopfs_bench::runtime::{run_policy_id, Experiment};
use nopfs_policy::PolicyId;

fn main() {
    let exp = Experiment::fig8_runtime();
    report::banner(
        "Fig. 8 (runtime)",
        "all ten policies as real loader threads on one contended system",
    );
    report::config_line(&format!(
        "N={} E={} b={} F={} (20 KB/sample)  PFS saturates at 60 MB/s",
        exp.system.workers, exp.epochs, exp.batch, exp.profile.num_samples,
    ));
    println!(
        "{:<20} {:>12} {:>10} {:>7} {:>7} {:>7} {:>9}  notes",
        "Policy", "epoch (s)", "stall (s)", "loc%", "rem%", "pfs%", "prestage"
    );

    let mut rows: Vec<Json> = Vec::new();
    let mut nopfs_epoch = None;
    let mut naive_epoch = None;
    for policy in PolicyId::ALL {
        match run_policy_id(&exp, policy) {
            Ok(run) => {
                let stats = &run.stats;
                let (loc, rem, pfs) = stats.fractions();
                let stall = exp.scale.to_model(stats.stall_time);
                let median = run.median_epoch_time();
                let note = run
                    .setup
                    .as_ref()
                    .map(report::setup_line)
                    .unwrap_or_default();
                println!(
                    "{:<20} {:>12.3} {:>10.3} {:>6.1}% {:>6.1}% {:>6.1}% {:>9}  {note}",
                    policy.name(),
                    median,
                    stall,
                    loc * 100.0,
                    rem * 100.0,
                    pfs * 100.0,
                    stats.prestage_fetches,
                );
                match policy {
                    PolicyId::NoPfs => nopfs_epoch = Some(median),
                    PolicyId::Naive => naive_epoch = Some(median),
                    _ => {}
                }
                rows.push(Json::obj([
                    ("policy", Json::from(policy.name())),
                    ("supported", Json::Bool(true)),
                    ("median_epoch_s", Json::Num(median)),
                    (
                        "epoch_times_s",
                        Json::Arr(run.epoch_times.iter().map(|&t| Json::Num(t)).collect()),
                    ),
                    ("stall_s", Json::Num(stall)),
                    ("local_fetches", Json::from(stats.local_fetches)),
                    ("remote_fetches", Json::from(stats.remote_fetches)),
                    ("pfs_fetches", Json::from(stats.pfs_fetches)),
                    ("prestage_fetches", Json::from(stats.prestage_fetches)),
                    (
                        "setup_ms",
                        run.setup
                            .as_ref()
                            .map_or(Json::Null, |s| Json::Num(s.setup_time.as_secs_f64() * 1e3)),
                    ),
                ]));
            }
            Err(e) => {
                println!("{:<20} {:>12}  {}", policy.name(), "n/a", e.0);
                rows.push(Json::obj([
                    ("policy", Json::from(policy.name())),
                    ("supported", Json::Bool(false)),
                    ("reason", Json::from(e.0)),
                ]));
            }
        }
    }

    if let (Some(np), Some(nv)) = (nopfs_epoch, naive_epoch) {
        println!();
        println!(
            "NoPFS steady epoch {np:.3}s vs Naive {nv:.3}s ({} faster)",
            report::ratio(nv, np)
        );
    }

    let doc = Json::obj([
        ("figure", Json::from("fig8_runtime")),
        ("source", Json::from("crates/bench/benches/fig8_runtime.rs")),
        ("workers", Json::from(exp.system.workers as u64)),
        ("epochs", Json::from(exp.epochs)),
        ("samples", Json::from(exp.profile.num_samples)),
        ("policies", Json::Arr(rows)),
    ]);
    report::write_json("BENCH_fig8_runtime.json", &doc).expect("write JSON report");
}
