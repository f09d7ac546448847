//! Quickstart: the paper's Fig. 7 integration, in Rust.
//!
//! Three steps — describe the system, create a `Job`, iterate samples —
//! replace a framework data loader with NoPFS. This example builds a
//! small synthetic dataset on an in-memory synthetic PFS, runs a
//! 4-worker job for two epochs, and prints the per-worker I/O
//! statistics NoPFS collected along the way.
//!
//! Run with: `cargo run --release --example quickstart`

use nopfs::core::{Job, JobConfig, WorkerHandle};
use nopfs::datasets::DatasetProfile;
use nopfs::perfmodel::presets::fig8_small_cluster;
use nopfs::util::timing::TimeScale;
use std::sync::{Arc, Mutex};

fn main() {
    // 1. Describe the system: workers, staging buffer, storage classes,
    //    interconnect, and the PFS's t(γ) curve. Presets mirror the
    //    paper's clusters.
    let mut system = fig8_small_cluster();
    system.workers = 4;
    // Scale capacities to this toy dataset (a few MB instead of TB).
    system.staging.capacity = 256 * 1_024;
    system.classes[0].capacity = 512 * 1_024; // "RAM"
    system.classes[1].capacity = 2 * 1_024 * 1_024; // "SSD"

    // 2. A reproducible synthetic dataset, materialized on the PFS
    //    ("all runs begin with data at rest on a PFS").
    let profile = DatasetProfile::new("quickstart", 2_000, 1_500.0, 300.0, 10, 42);
    let sizes = Arc::new(profile.sizes());

    // 3. The job: seed + epochs + batch size. Everything clairvoyant —
    //    streams, frequencies, placement — is computed here.
    let config = JobConfig::new(
        0xC0FFEE,
        2,  // epochs
        16, // per-worker batch size
        system,
        TimeScale::new(1e-3), // run the modelled cluster 1000x faster
    );
    let job = Job::new(config, Arc::clone(&sizes));
    let pfs = job.make_pfs();
    profile.materialize(&pfs);

    println!(
        "dataset: {} samples, {} bytes total",
        sizes.len(),
        profile.total_bytes()
    );

    // Iterate batches exactly like a framework data loader: every rank
    // runs this loop on a thread of its own.
    let per_rank = Mutex::new(Vec::new());
    job.run_with(&pfs, |_workers| {
        |worker: &mut WorkerHandle| {
            let mut batches = 0u64;
            let mut bytes = 0u64;
            while let Some(batch) = worker.next_batch() {
                batches += 1;
                for (id, data) in &batch {
                    bytes += data.len() as u64;
                    // Payloads are verifiable end to end.
                    profile.decode(data).unwrap_or_else(|e| {
                        panic!("corrupt sample {id}: {e}");
                    });
                }
            }
            let row = (worker.rank(), batches, bytes, worker.stats());
            per_rank.lock().expect("no rank panicked").push(row);
        }
    });
    let mut stats = per_rank.into_inner().expect("no rank panicked");
    stats.sort_by_key(|row| row.0);

    println!();
    println!(
        "{:<6} {:>8} {:>12} {:>8} {:>8} {:>8} {:>10}",
        "rank", "batches", "bytes", "local", "remote", "PFS", "stall(ms)"
    );
    for (rank, batches, bytes, s) in stats {
        println!(
            "{rank:<6} {batches:>8} {bytes:>12} {:>8} {:>8} {:>8} {:>10.2}",
            s.local_fetches,
            s.remote_fetches,
            s.pfs_fetches,
            s.stall_time.as_secs_f64() * 1e3,
        );
    }
    println!();
    println!("every sample was delivered exactly once per epoch, in the");
    println!("clairvoyantly-predicted order, with epoch >= 1 served mostly");
    println!("from the local and remote caches instead of the PFS.");
}
