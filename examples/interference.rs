//! Multi-tenant interference: co-scheduled training jobs contending on
//! one shared PFS (the paper's Sec. 1–2 / Fig. 2 scenario).
//!
//! Four tenants — NoPFS, two naive loaders, and a PyTorch-style
//! double-buffering loader — are co-scheduled against **one** shared
//! synthetic PFS whose aggregate throughput `t(γ)` saturates just past
//! a single job's demand. Each tenant is first measured solo on a
//! private PFS with the identical curve; the *interference slowdown*
//! (co-scheduled ÷ solo steady epoch time) is then reported per tenant,
//! from the thread runtime (real loader threads, real bytes) and from
//! the discrete simulator (same scenario, analytically) side by side.
//!
//! The point of the figure: NoPFS serves steady-state epochs from its
//! clairvoyantly-placed caches, so its slowdown stays near 1×, while
//! the all-PFS baselines inherit the full `t(γ)` collapse.
//!
//! Run with: `cargo run --release --example interference`

use nopfs_bench::scenarios::fig2;
use nopfs_cluster::interference_report;

fn main() {
    let spec = fig2::cluster_spec(1.0);
    println!(
        "co-scheduling {} tenants x {} workers on ONE shared PFS",
        spec.tenants.len(),
        fig2::WORKERS
    );
    println!(
        "per tenant: {} samples x {:.0} KB, {} epochs; shared t(γ) saturates at 40 MB/s",
        fig2::samples(1.0),
        fig2::SAMPLE_BYTES / 1_000.0,
        fig2::EPOCHS
    );

    // Thread runtime (every tenant solo, then all together) and the
    // simulator's replay of the identical cluster.
    let cluster = interference_report(&spec);
    let sim_slowdowns = fig2::sim_mixed_slowdowns(&spec);

    println!();
    println!(
        "{:<10} {:>14} {:>13} {:>16} {:>13} {:>8}",
        "tenant", "solo epoch(s)", "co epoch(s)", "runtime slowdown", "sim slowdown", "cache%"
    );
    for (t, &sim) in cluster.tenants.iter().zip(&sim_slowdowns) {
        println!(
            "{:<10} {:>14.3} {:>13.3} {:>15.2}x {:>12.2}x {:>7.1}%",
            t.name,
            t.solo_epoch_time.unwrap_or(0.0),
            t.steady_epoch_time(),
            t.slowdown.unwrap_or(0.0),
            sim,
            t.cache_fraction() * 100.0,
        );
    }

    // The headline claim, checked so CI smoke runs catch regressions.
    let nopfs = cluster
        .slowdown_of(nopfs_cluster::PolicyId::NoPfs)
        .expect("NoPFS tenant present");
    let naive = cluster
        .slowdown_of(nopfs_cluster::PolicyId::Naive)
        .expect("naive tenant present");
    println!();
    println!(
        "NoPFS degraded {nopfs:.2}x vs naive {naive:.2}x: clairvoyant caching shields \
         co-scheduled tenants from shared-PFS contention."
    );
    assert!(
        nopfs < naive,
        "interference regression: NoPFS ({nopfs:.2}x) should degrade less than naive ({naive:.2}x)"
    );
}
