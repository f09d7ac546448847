//! Fig. 12: NoPFS cache statistics for ImageNet-1k on Piz Daint —
//! stall time and the share of staging prefetches served from local
//! storage, remote caches, and the PFS, as the worker count grows.
//!
//! Shapes to reproduce: stall time shrinks at larger scale (more
//! aggregate cache), the PFS share falls, and the remote share rises
//! once reading from peers beats a contended PFS. Also reports the
//! progress-heuristic false positives the paper's discussion says are
//! "very few".

use nopfs_bench::runtime::{run_policy, Experiment, RuntimePolicy};
use nopfs_bench::scenarios::SystemKind;
use nopfs_bench::{env_u64, report};

fn main() {
    let max_workers = env_u64("NOPFS_BENCH_WORKERS", 8) as usize;
    report::banner(
        "Fig. 12",
        "NoPFS cache statistics, ImageNet-1k, Piz Daint (scaled)",
    );
    println!(
        "{:>8} {:>12} {:>8} {:>8} {:>8} {:>10} {:>10}",
        "#workers", "stall (s)", "PFS%", "remote%", "local%", "false-pos", "heur-skip"
    );
    for n in [2usize, 4, 8, 16] {
        if n > max_workers {
            continue;
        }
        let exp = Experiment::imagenet(SystemKind::PizDaint, n);
        let run = run_policy(&exp, RuntimePolicy::NoPfs).expect("NoPFS always runs");
        let stats = &run.stats;
        let (local, remote, pfs) = stats.fractions();
        let stall_model: f64 = run
            .per_worker
            .iter()
            .map(|m| exp.scale.to_model(m.stats.stall_time))
            .sum();
        println!(
            "{n:>8} {stall_model:>12.4} {:>7.1}% {:>7.1}% {:>7.1}% {:>10} {:>10}",
            pfs * 100.0,
            remote * 100.0,
            local * 100.0,
            stats.false_positives,
            stats.heuristic_skips,
        );
        let attempts = stats.remote_fetches + stats.false_positives;
        if attempts > 0 {
            println!(
                "{:>8} false-positive rate among remote attempts: {:.2}%",
                "",
                stats.false_positives as f64 / attempts as f64 * 100.0
            );
        }
    }
    println!();
    println!(
        "paper reference (Piz Daint, 32->256 GPUs): stall 99.6s -> 16.4s; \
         PFS share falls and the remote share grows with scale."
    );
}
