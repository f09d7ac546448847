//! Ablations of NoPFS's design choices (DESIGN.md Sec. 8).
//!
//! Each section isolates one mechanism on a contended simulated
//! cluster, comparing NoPFS against the policy that differs in exactly
//! that mechanism:
//!
//! 1. *Placement* — frequency-ranked hierarchical placement (NoPFS) vs
//!    first-touch single-copy (LBANN) vs static shards (parallel
//!    staging).
//! 2. *Clairvoyant prefetch + caching* vs prefetch-only (staging
//!    buffer) vs nothing (naive).
//! 3. *Fill-order dilution* — the short-run artifact where a larger
//!    cache class can transiently hurt because the first-access fill
//!    order dilutes hot samples (quantified; the paper's regime keeps
//!    fills short relative to the run).
//! 4. *Progress heuristic* — runtime false-positive rate of the
//!    remote-availability estimate.

use nopfs_bench::report;
use nopfs_bench::runtime::{run_policy, Experiment, RuntimePolicy};
use nopfs_bench::scenarios::SystemKind;
use nopfs_perfmodel::presets::{fig8_small_cluster, saturating_pfs_curve};
use nopfs_simulator::{run, PolicyId, Scenario};
use nopfs_util::units::MB;

fn contended(ram: u64, ssd: u64, epochs: u64) -> Scenario {
    let mut sys = fig8_small_cluster();
    sys.pfs_read = saturating_pfs_curve(200.0 * MB, 8.0);
    sys.classes[0].capacity = ram;
    sys.classes[1].capacity = ssd;
    sys.staging.capacity = 16 * 1_000_000;
    Scenario::new("ablation", sys, vec![100_000u64; 2_000], epochs, 8, 0xAB1)
}

fn main() {
    report::banner(
        "Ablations",
        "Design-choice isolation on a contended cluster",
    );

    report::section("1. Placement policy (same substrates, same budget)");
    let s = contended(60_000_000, 200_000_000, 4);
    for policy in [
        PolicyId::NoPfs,
        PolicyId::LbannDynamic,
        PolicyId::ParallelStaging,
        PolicyId::LocalityAware,
    ] {
        match run(&s, policy) {
            Ok(r) => println!(
                "{:<20} {:>8.3}s  stall {:>7.3}s  coverage {:>5.1}%",
                policy.name(),
                r.execution_time,
                r.total_stall(),
                r.coverage * 100.0
            ),
            Err(e) => println!("{:<20} {e}", policy.name()),
        }
    }

    report::section("2. Prefetching and caching vs prefetching alone");
    for policy in [
        PolicyId::NoPfs,
        PolicyId::StagingBuffer,
        PolicyId::Naive,
        PolicyId::Perfect,
    ] {
        let r = run(&s, policy).expect("supported");
        println!(
            "{:<20} {:>8.3}s  ({} of lower bound)",
            policy.name(),
            r.execution_time,
            report::ratio(
                r.execution_time,
                run(&s, PolicyId::Perfect).expect("lb").execution_time
            )
        );
    }

    report::section("3. Fill-order dilution (short runs, growing RAM)");
    println!("RAM(MB)  2-epoch time   8-epoch time   (larger cache may hurt short runs)");
    for ram_mb in [20u64, 40, 80] {
        let short = run(&contended(ram_mb * 1_000_000, 0, 2), PolicyId::NoPfs)
            .expect("runs")
            .execution_time;
        let long = run(&contended(ram_mb * 1_000_000, 0, 8), PolicyId::NoPfs)
            .expect("runs")
            .execution_time;
        println!("{ram_mb:>7}  {short:>12.3}s {long:>13.3}s");
    }

    report::section("4. Progress-heuristic quality (runtime, scaled ImageNet)");
    for n in [2usize, 4] {
        let exp = Experiment::imagenet(SystemKind::Lassen, n);
        let run = run_policy(&exp, RuntimePolicy::NoPfs).expect("runs");
        let stats = &run.stats;
        let attempts = stats.remote_fetches + stats.false_positives;
        let rate = if attempts > 0 {
            stats.false_positives as f64 / attempts as f64 * 100.0
        } else {
            0.0
        };
        println!(
            "{n} workers: {} remote fetches, {} false positives ({rate:.2}%), {} heuristic skips",
            stats.remote_fetches, stats.false_positives, stats.heuristic_skips
        );
    }
    println!();
    println!(
        "paper reference: 'we confirmed that, in practice, there are very few false positives.'"
    );
}
