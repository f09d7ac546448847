//! `nopfs_pfs`: what one origin read costs in bookkeeping (reader
//! count, regulator, statistics) once pacing is scaled away, how many
//! origin reads a delivered sample costs, and how truly the regulator
//! holds a paced curve. `read_ns`/`read_many` → `samples_per_s` on
//! `cold_fill`; `reads_per_sample` → `cold_fill`, `paced_contended`;
//! `pacing_error` → `bound_gap_us` on `paced_contended`. The on-disk
//! store is informational: no end-to-end workload uses it.

use super::storage::{fs_mb_per_s, FS_OBJECT, FS_OBJECTS};
use super::{replay_ids, Replayer};
use crate::fixture::Fixture;
use crate::report::Metric;
use bytes::Bytes;
use nopfs_perfmodel::presets::saturating_pfs_curve;
use nopfs_pfs::Pfs;
use nopfs_util::timing::TimeScale;
use nopfs_util::units::MB;
use std::time::{Duration, Instant};

/// Ids per `read_many` call, the class prefetchers' chunk size.
const VECTOR: usize = 16;

/// How long the two paced readers run.
const PACED_FOR: Duration = Duration::from_secs(2);

/// `pfs_reads` origin reads were made while the traced pass delivered
/// `delivered` samples.
pub fn replay(view: &Fixture, r: &mut Replayer, pfs_reads: u64, delivered: u64) -> Vec<Metric> {
    let ids = replay_ids(view);
    let read_ns = r.ns_per_item("replay.pfs.read", &ids, |&id| {
        std::hint::black_box(view.pfs.read(id).expect("the dataset is at rest"));
    });
    let chunks: Vec<&[u64]> = ids.chunks_exact(VECTOR).collect();
    let many_ns = r.ns_per_item("replay.pfs.read_many", &chunks, |chunk| {
        std::hint::black_box(view.pfs.read_many(chunk));
    }) / VECTOR as f64;

    let disk = Pfs::on_disk(
        r.scratch.join("pfs"),
        view.workload.system().pfs_read,
        view.workload.scale(),
    );
    let objects: Vec<u64> = (0..FS_OBJECTS).collect();
    for &id in &objects {
        disk.put(id, Bytes::from(vec![id as u8; FS_OBJECT]));
    }
    let disk_ns = r.ns_per_item("replay.pfs.disk_read", &objects, |&id| {
        std::hint::black_box(disk.read(id).expect("the object was just written"));
    });

    let (_, pacing_error) = r.once("replay.pfs.pacing", || pacing_error(view));
    vec![
        Metric::new("pfs.read_ns", "ns", read_ns),
        Metric::new("pfs.read_many_ns_per_id", "ns", many_ns),
        Metric::new(
            "pfs.reads_per_sample",
            "ratio",
            pfs_reads as f64 / delivered as f64,
        ),
        Metric::new("pfs.pacing_error", "ratio", pacing_error),
        Metric::new("pfs.disk_read_mb_s", "MB/s", fs_mb_per_s(disk_ns)),
    ]
}

/// Two reader threads on the `paced_contended` curve in real time:
/// how far achieved bytes/s over `t(2)` lies from one.
fn pacing_error(view: &Fixture) -> f64 {
    let curve = saturating_pfs_curve(40.0 * MB, 4.0);
    let target = curve.at(2.0);
    let pfs = Pfs::in_memory(curve, TimeScale::realtime());
    let ids = replay_ids(view);
    for &id in &ids[..ids.len().min(256)] {
        pfs.put(id, view.payloads[id as usize].clone());
    }
    let before = pfs.stats().bytes_read;
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for reader in 0..2 {
            let (pfs, ids) = (&pfs, &ids[..ids.len().min(256)]);
            s.spawn(move || {
                let mut at = reader;
                while t0.elapsed() < PACED_FOR {
                    pfs.read(ids[at % ids.len()])
                        .expect("the sample was just stored");
                    at += 2;
                }
            });
        }
    });
    let achieved = (pfs.stats().bytes_read - before) as f64 / t0.elapsed().as_secs_f64();
    (achieved / target - 1.0).abs()
}
