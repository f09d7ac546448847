//! Fig. 2: multi-tenant interference on one shared PFS.
//!
//! The paper's opening argument is that aggregate PFS throughput
//! `t(γ)` saturates, so co-scheduled training jobs interfere with each
//! other's I/O. This bench reproduces that scenario twice:
//!
//! 1. **Thread runtime** — four real tenants (NoPFS, two naive
//!    loaders, PyTorch double-buffering) co-scheduled on one shared,
//!    namespaced `Pfs`, each measured solo first; the printed
//!    *interference slowdown* is co-scheduled ÷ solo steady epoch
//!    time.
//! 2. **Simulator** — the same mixed cluster analytically, plus a
//!    uniform-policy sweep to K tenants far past what in-process
//!    threads allow.
//!
//! Also emits `BENCH_fig2_interference.json` (the perf-trajectory
//! artifact; this bench is its one writer).
//! Scale everything with `NOPFS_BENCH_SCALE`.

use nopfs_bench::report;
use nopfs_bench::scenarios::fig2;
use nopfs_bench::{bench_scale, env_u64};
use nopfs_cluster::interference_report;

fn main() {
    let extra = bench_scale();
    report::banner(
        "Fig. 2",
        "co-scheduled jobs contending on one shared PFS (interference slowdowns)",
    );
    let spec = fig2::cluster_spec(extra);
    report::config_line(&format!(
        "K={} tenants x {} workers  F={} samples x {:.0} KB each  E={}  shared t(γ) 40 MB/s knee",
        spec.tenants.len(),
        fig2::WORKERS,
        fig2::samples(extra),
        fig2::SAMPLE_BYTES / 1_000.0,
        fig2::EPOCHS,
    ));

    report::section("thread runtime vs simulator: solo vs co-scheduled (one shared PFS)");
    let cluster = interference_report(&spec);
    let sim_slowdowns = fig2::sim_mixed_slowdowns(&spec);
    println!(
        "{:<10} {:>14} {:>13} {:>16} {:>13} {:>10} {:>8}",
        "tenant",
        "solo epoch(s)",
        "co epoch(s)",
        "runtime slowdown",
        "sim slowdown",
        "PFS reads",
        "cache%"
    );
    for (t, &sim) in cluster.tenants.iter().zip(&sim_slowdowns) {
        println!(
            "{:<10} {:>14.3} {:>13.3} {:>15.2}x {:>12.2}x {:>10} {:>7.1}%",
            t.name,
            t.solo_epoch_time.unwrap_or(0.0),
            t.steady_epoch_time(),
            t.slowdown.unwrap_or(0.0),
            sim,
            t.pfs_reads(),
            t.cache_fraction() * 100.0,
        );
    }

    report::section("simulator: uniform-policy clusters swept past thread scale");
    let max_k = env_u64("NOPFS_FIG2_MAX_K", 16) as usize;
    let ks: Vec<usize> = [2usize, 4, 8, 16]
        .into_iter()
        .filter(|&k| k <= max_k)
        .collect();
    let sweeps = fig2::sim_sweep(extra, &ks);
    println!(
        "{:<16} {:>12} {}",
        "policy",
        "solo (s)",
        ks.iter()
            .map(|k| format!("{:>9}", format!("K={k}")))
            .collect::<String>()
    );
    for s in &sweeps {
        let mut row = format!("{:<16} {:>12.3}", s.policy.name(), s.solo_s);
        for &(_, worst) in &s.per_k {
            row.push_str(&format!(" {worst:>7.2}x"));
        }
        println!("{row}");
    }

    let doc = fig2::json_doc(extra, &cluster, &sim_slowdowns, &sweeps);
    report::write_json("BENCH_fig2_interference.json", &doc).expect("write JSON report");

    println!();
    println!("reading: NoPFS's slowdown stays near 1x because steady-state epochs");
    println!("are cache-served; the all-PFS baselines inherit the full t(γ) collapse.");
}
