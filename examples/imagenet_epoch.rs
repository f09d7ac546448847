//! ImageNet-style epoch timing: NoPFS versus a PyTorch-like loader.
//!
//! The motivating workload of the paper's introduction: ResNet-50-style
//! training over an ImageNet-like dataset on a cluster whose PFS
//! saturates under concurrent readers. This example runs a scaled
//! ImageNet-1k profile through both loaders on identical substrates and
//! prints per-epoch times — epoch 0 is similar (everyone must touch the
//! PFS once), then NoPFS's caches take over while the PyTorch-like
//! loader pays PFS contention forever.
//!
//! Run with: `cargo run --release --example imagenet_epoch`

use nopfs::baselines::run_policy;
use nopfs::core::JobConfig;
use nopfs::datasets::DatasetProfile;
use nopfs::perfmodel::presets::{lassen_like, thrashing_pfs_curve};
use nopfs::pfs::Pfs;
use nopfs::policy::PolicyId;
use nopfs::train::{run_training_loop, TrainLoopConfig};
use nopfs::util::timing::TimeScale;
use nopfs::util::units::MB;
use std::sync::Arc;

fn main() {
    let workers = 4;
    let scale = TimeScale::new(0.2);
    let mut system = lassen_like();
    system.workers = workers;
    system.staging.threads = 4;
    system.staging.capacity = 2 * 1_000_000;
    system.classes[0].capacity = 8 * 1_000_000; // scaled RAM
    system.classes[1].capacity = 64 * 1_000_000; // scaled SSD
    system.pfs_read = thrashing_pfs_curve(32.0, 272.0 * MB);

    // ~1/4000 of ImageNet-1k: 320 JPEG-sized samples.
    let profile = DatasetProfile::imagenet_1k().scaled(1.0 / 4_000.0, 1.0);
    let sizes = Arc::new(profile.sizes());
    println!(
        "dataset: {} samples, {:.1} MB total; {workers} workers, 4 epochs",
        sizes.len(),
        sizes.iter().sum::<u64>() as f64 / 1e6
    );

    let config = JobConfig::new(7, 4, 8, system.clone(), scale);
    let loop_cfg = TrainLoopConfig {
        compute_rate: 64.0 * MB,
        scale,
        grad_elems: 0,
    };

    let run = |name: &str, epoch_times: Vec<Vec<f64>>| {
        // Bulk-synchronous epoch time: slowest worker.
        let epochs = epoch_times[0].len();
        print!("{name:<14}");
        for e in 0..epochs {
            let t = epoch_times.iter().map(|w| w[e]).fold(0.0, f64::max);
            print!("  epoch{e}: {t:>7.3}s");
        }
        println!();
    };

    // PyTorch-like double buffering.
    let pfs = Pfs::in_memory(system.pfs_read.clone(), scale);
    profile.materialize(&pfs);
    let pt = run_policy(
        PolicyId::StagingBuffer,
        config.clone(),
        Arc::clone(&sizes),
        &pfs,
        |l| run_training_loop(l, &loop_cfg, None).epoch_times,
    )
    .expect("double buffering runs any configuration")
    .per_worker;
    run("PyTorch-like", pt);

    // NoPFS on identical substrates.
    let pfs = Pfs::in_memory(system.pfs_read.clone(), scale);
    profile.materialize(&pfs);
    let np = run_policy(PolicyId::NoPfs, config, Arc::clone(&sizes), &pfs, |l| {
        let metrics = run_training_loop(l, &loop_cfg, None);
        (metrics.epoch_times, l.stats())
    })
    .expect("NoPFS runs any configuration")
    .per_worker;
    let (times, stats): (Vec<_>, Vec<_>) = np.into_iter().unzip();
    run("NoPFS", times);

    let mut merged = stats[0].clone();
    for s in &stats[1..] {
        merged.merge(s);
    }
    let (local, remote, pfs_frac) = merged.fractions();
    println!();
    println!(
        "NoPFS fetch sources: {:.1}% local, {:.1}% remote, {:.1}% PFS \
         ({} false positives)",
        local * 100.0,
        remote * 100.0,
        pfs_frac * 100.0,
        merged.false_positives
    );
}
