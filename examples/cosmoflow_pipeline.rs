//! CosmoFlow-style pipeline: large fixed-size scientific samples on a
//! disk-backed PFS, with the dataset exceeding cluster storage.
//!
//! The paper's second end-to-end workload is CosmoFlow: 3D universes of
//! identical (large) size where batch times go *bimodal* — a batch is
//! fast when its samples came from caches and slow when any came from
//! the PFS. This example runs a scaled CosmoFlow profile through NoPFS
//! with the PFS materialized on real local disk (not memory), prints
//! the per-epoch times, and shows the fetch-source split that produces
//! the bimodality.
//!
//! Run with: `cargo run --release --example cosmoflow_pipeline`

use nopfs::baselines::run_policy;
use nopfs::core::JobConfig;
use nopfs::datasets::DatasetProfile;
use nopfs::perfmodel::presets::{lassen_like, thrashing_pfs_curve};
use nopfs::pfs::Pfs;
use nopfs::policy::PolicyId;
use nopfs::train::{run_training_loop, TrainLoopConfig};
use nopfs::util::stats::Summary;
use nopfs::util::timing::TimeScale;
use nopfs::util::units::MB;

fn main() {
    let workers = 4;
    let scale = TimeScale::new(0.1);
    let mut system = lassen_like();
    system.workers = workers;
    system.staging.threads = 4;
    system.staging.capacity = 4 * 1_000_000;
    // Cluster storage deliberately smaller than the dataset (N*D < S).
    system.classes[0].capacity = 10 * 1_000_000; // RAM
    system.classes[1].capacity = 40 * 1_000_000; // SSD
    system.pfs_read = thrashing_pfs_curve(32.0, 272.0 * MB);

    // 600 fixed-size 0.34 MB "universes" = 204 MB > 4 x 50 MB storage.
    let profile = DatasetProfile::cosmoflow().scaled(1.0 / 437.0, 1.0 / 50.0);
    let sizes = std::sync::Arc::new(profile.sizes());
    let total_mb = sizes.iter().sum::<u64>() as f64 / 1e6;
    println!(
        "dataset: {} samples x {:.2} MB = {total_mb:.0} MB; cluster storage {} MB",
        sizes.len(),
        sizes[0] as f64 / 1e6,
        workers * 50
    );

    // The PFS lives on real disk for this example.
    let dir = std::env::temp_dir().join("nopfs-cosmoflow-example");
    std::fs::remove_dir_all(&dir).ok();
    let pfs = Pfs::on_disk(&dir, system.pfs_read.clone(), scale);
    profile.materialize(&pfs);
    println!(
        "materialized {} objects on disk at {}",
        pfs.len(),
        dir.display()
    );

    let config = JobConfig::new(3, 3, 4, system, scale);
    let loop_cfg = TrainLoopConfig {
        compute_rate: 64.0 * MB,
        scale,
        grad_elems: 0,
    };
    let sizes = std::sync::Arc::clone(&sizes);
    let results = run_policy(PolicyId::NoPfs, config, sizes, &pfs, |l| {
        let m = run_training_loop(l, &loop_cfg, None);
        (m, l.stats())
    })
    .expect("NoPFS runs any configuration")
    .per_worker;

    println!();
    for (rank, (m, stats)) in results.iter().enumerate() {
        let batches = Summary::new(&m.batch_times);
        let (local, remote, pfs_frac) = stats.fractions();
        println!(
            "rank {rank}: epochs {:?} s | batch median {:.4}s max {:.4}s | \
             sources {:.0}%L/{:.0}%R/{:.0}%P",
            m.epoch_times
                .iter()
                .map(|t| (t * 100.0).round() / 100.0)
                .collect::<Vec<_>>(),
            batches.median(),
            batches.max(),
            local * 100.0,
            remote * 100.0,
            pfs_frac * 100.0,
        );
    }
    println!();
    println!(
        "identical sample sizes make batch times cluster by fetch source \
         (the paper's bimodal distribution); the PFS share stays high \
         because the dataset cannot fit in cluster storage."
    );
    std::fs::remove_dir_all(&dir).ok();
}
