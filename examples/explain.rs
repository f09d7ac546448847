//! Where a staging thread's time goes in the paper's regime.
//!
//! The job is the ledger's `paced_contended` workload — two ranks in
//! real time, 4000 samples of 20 ± 5 KB, a PFS of 10 MB/s per stream
//! that saturates at four, caches the size of 0.8 × the dataset — run
//! through the timed training loop. The placement leaves about a
//! quarter of every epoch's bytes without a holder, so those positions
//! can only come from the PFS; each rank's origin lanes read them ahead
//! of its staging thread at the reader count the performance model
//! picks, and the staging thread is left with `write_time`.
//!
//! Prints, per rank and epoch, the staging thread's time by the three
//! `nopfs_obs` counters on its loop (waiting for origin bytes, in
//! `write_time`, blocked on a full reorder stage) — what remains of an
//! epoch is its fetches from local tiers and peers, which no counter
//! books yet — and the PFS bandwidth the job drew; checks that in warm epochs the origin wait is gone and
//! the epoch sits at the performance model's compute bound.
//!
//! Run with: `cargo run --release --example explain` (about 5 s).

use nopfs::baselines::{registry, DataLoader};
use nopfs::core::JobConfig;
use nopfs::datasets::DatasetProfile;
use nopfs::net::{cluster, Endpoint, NetConfig};
use nopfs::obs::{names, ObsCtx};
use nopfs::perfmodel::presets::{fig8_small_cluster, saturating_pfs_curve};
use nopfs::pfs::Pfs;
use nopfs::policy::PolicyId;
use nopfs::util::timing::TimeScale;
use nopfs::util::units::MB;
use std::sync::Arc;
use std::time::Instant;

const RANKS: usize = 2;
const EPOCHS: usize = 6;
const COMPUTE: f64 = 64.0 * MB;

/// One rank's readings at an epoch boundary: seconds since the run
/// started, the staging thread's three counters (seconds), and the
/// bytes the PFS has served to the whole job.
#[derive(Clone, Copy, Default)]
struct Reading {
    at_s: f64,
    parts: [f64; 3],
    pfs_bytes: u64,
}

/// The timed training loop of `nopfs::train`, with a reading taken at
/// every epoch boundary.
fn train(
    loader: &mut dyn DataLoader,
    grads: &Endpoint<Vec<f32>>,
    read: impl Fn(usize) -> Reading,
) -> Vec<Reading> {
    let rank = loader.rank();
    let mut grad = vec![0.0f32; 256];
    let mut readings = vec![read(rank)];
    for _ in 0..EPOCHS {
        let mut got = 0;
        while got < loader.epoch_len() {
            let batch = loader.next_batch().expect("the stream covers every epoch");
            got += batch.len() as u64;
            let bytes: u64 = batch.iter().map(|(_, d)| d.len() as u64).sum();
            TimeScale::realtime().wait(bytes as f64 / COMPUTE);
            grads
                .allreduce_sum(&mut grad)
                .expect("both ranks are alive");
        }
        readings.push(read(rank));
    }
    readings
}

fn main() {
    let mut sys = fig8_small_cluster();
    sys.workers = RANKS;
    sys.staging.capacity = 1_000_000;
    sys.staging.threads = 1;
    sys.classes[0].capacity = 16_000_000;
    sys.classes[1].capacity = 16_000_000;
    sys.pfs_read = saturating_pfs_curve(40.0 * MB, 4.0);
    let sys = sys.with_compute_mbps(COMPUTE / MB, 200.0);
    let scale = TimeScale::realtime();

    let profile = DatasetProfile::new("explain", 4_000, 20_000.0, 5_000.0, 1_000, 7);
    let sizes = Arc::new(profile.sizes());
    let pfs = Pfs::in_memory(sys.pfs_read.clone(), scale);
    profile.materialize(&pfs);

    let obs = ObsCtx::new();
    let config = JobConfig::new(7, EPOCHS as u64, 8, sys.clone(), scale)
        .drop_last(true)
        .with_obs(obs.clone());
    let mut grads: Vec<_> = cluster::<Vec<f32>>(RANKS, NetConfig::new(sys.interconnect, scale))
        .into_iter()
        .map(Some)
        .collect();

    let started = Instant::now();
    let read = |rank: usize| {
        let snap = obs.snapshot();
        let seconds =
            |name: &str| snap.counter(&format!("{name}{{rank={rank}}}")).unwrap_or(0) as f64 / 1e9;
        Reading {
            at_s: started.elapsed().as_secs_f64(),
            parts: [
                seconds(names::WORKER_STAGING_ORIGIN_WAIT_NANOS),
                seconds(names::WORKER_STAGING_WRITE_NANOS),
                seconds(names::STAGING_PUSH_BLOCKED_NANOS),
            ],
            pfs_bytes: pfs.stats().bytes_read,
        }
    };
    let mut loaders = registry::build_loaders(PolicyId::NoPfs, config, Arc::clone(&sizes), &pfs)
        .expect("NoPFS supports every system");
    let readings: Vec<Vec<Reading>> = std::thread::scope(|s| {
        let handles: Vec<_> = loaders
            .iter_mut()
            .zip(grads.iter_mut())
            .map(|(loader, grad)| {
                let grad = grad.take().expect("one endpoint per rank");
                let read = &read;
                s.spawn(move || train(loader, &grad, read))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank panicked"))
            .collect()
    });
    drop(loaders);

    let bound = sizes.iter().sum::<u64>() as f64 / RANKS as f64 / COMPUTE;
    println!("compute bound of one epoch: {bound:.3} s; staging-thread seconds per epoch:");
    println!("rank epoch  wall_s  origin_wait  write_time  push_blocked  tiers+peers  pfs_MB/s");
    let (mut warm_walls, mut steady_origin) = (Vec::new(), 0.0f64);
    for (rank, of_rank) in readings.iter().enumerate() {
        for (epoch, edge) in of_rank.windows(2).enumerate() {
            let wall = edge[1].at_s - edge[0].at_s;
            let parts: Vec<f64> = (0..3)
                .map(|i| edge[1].parts[i] - edge[0].parts[i])
                .collect();
            let gap = wall - parts.iter().sum::<f64>();
            let pfs_mb_s = (edge[1].pfs_bytes - edge[0].pfs_bytes) as f64 / MB / wall;
            println!(
                "{rank:>4} {epoch:>5}  {wall:>6.3}  {:>11.3}  {:>10.3}  {:>12.3}  {gap:>11.3}  {pfs_mb_s:>8.1}",
                parts[0], parts[1], parts[2]
            );
            if epoch >= 2 {
                warm_walls.push(wall);
                steady_origin = steady_origin.max(parts[0]);
            }
        }
    }

    // Look-ahead hides the origin: read in series by the staging thread
    // the never-cached quarter costs it 1.0 s of every epoch, and the
    // epoch is twice the compute bound.
    assert!(
        steady_origin < 0.1 * bound,
        "a staging thread still waits {steady_origin:.3} s per epoch for the origin"
    );
    warm_walls.sort_by(f64::total_cmp);
    let steady_wall = warm_walls[warm_walls.len() / 2];
    assert!(
        steady_wall < 1.6 * bound,
        "median warm epoch {steady_wall:.3} s is not near the {bound:.3} s bound"
    );
    println!(
        "\n[PASS] warm epochs: origin wait hidden behind the lanes, epoch at the compute bound"
    );
}
