//! `nopfs_storage`: the tier stack, the two hand-off queues, the
//! resilience wrapper and the file-system backend.
//!
//! Which end-to-end number each row should move:
//! `tier_read_hit`, `tier_read_many`, `reorder_*` → `samples_per_s` and
//! `cpu_us_per_sample` on `ram_hit`; `tier_read_miss`, `tier_fill` →
//! `samples_per_s` on `cold_fill`; `tier_get_cached` → `peer_remote`
//! (the serving side). `tier_promote_evict`, `staging_push_pop`,
//! `resilient_read` and `fs_read` are guards: the NoPFS route does not
//! take those paths, so they should move nothing end to end.

use super::{replay_ids, Replayer, BATCH};
use crate::fixture::Fixture;
use crate::report::Metric;
use bytes::Bytes;
use nopfs_core::{class_tier_stack, SampleId};
use nopfs_obs::{names, Snapshot};
use nopfs_storage::{
    build_stack, DataSource, FsBackend, ObjectStoreBackend, ObjectStoreConfig, PromotePolicy,
    ReorderStage, ResilienceConfig, ResilientSource, RetryPolicy, StagingBuffer, StorageBackend,
    TierSpec,
};
use std::sync::Arc;
use std::time::Duration;

/// Ids per `read_many` call, the staging path's claim size.
const VECTOR: usize = 8;

/// Object size of the file-system replays.
pub const FS_OBJECT: usize = 256 * 1024;
/// Objects the file-system replays cycle through (16 MiB, so the page
/// cache holds them).
pub const FS_OBJECTS: u64 = 64;

/// MB/s of reading `FS_OBJECT`-byte objects at `ns` each.
pub fn fs_mb_per_s(ns_per_read: f64) -> f64 {
    FS_OBJECT as f64 / 1e6 / (ns_per_read / 1e9)
}

pub fn replay(view: &Fixture, r: &mut Replayer, traced_job: &Snapshot) -> Vec<Metric> {
    let sys = view.workload.system();
    let scale = view.workload.scale();
    let ids = replay_ids(view);
    let origin = || Arc::new(view.pfs.clone()) as Arc<dyn DataSource>;
    let payload = |id: SampleId| view.payloads[id as usize].clone();
    let fresh_stack = || class_tier_stack(&sys, scale, origin());

    // A stack whose RAM tier holds as much of the stream as fits.
    let warm = fresh_stack();
    let cached: Vec<SampleId> = ids
        .iter()
        .copied()
        .take_while(|&id| warm.fill(0, id, payload(id)).is_ok())
        .collect();
    let hit = r.ns_per_item("replay.storage.tier_read_hit", &cached, |&id| {
        std::hint::black_box(warm.read(id).expect("a cached sample reads"));
    });
    let get_cached = r.ns_per_item("replay.storage.tier_get_cached", &cached, |&id| {
        std::hint::black_box(warm.get_cached(id).expect("a cached sample is served"));
    });
    let chunks: Vec<&[SampleId]> = cached.chunks_exact(VECTOR).collect();
    let many = r.ns_per_item("replay.storage.tier_read_many", &chunks, |chunk| {
        std::hint::black_box(warm.read_many(chunk));
    }) / VECTOR as f64;
    let cold = fresh_stack();
    let miss = r.ns_per_item("replay.storage.tier_read_miss", &ids, |&id| {
        std::hint::black_box(cold.read(id).expect("the origin holds every sample"));
    });

    // Pinned fills into an empty RAM tier; evicted again between
    // batches so that the tier never runs full.
    let filling = fresh_stack();
    let fill_ids = &cached[..cached.len().min(BATCH)];
    let fill = r.ns_per_call(
        "replay.storage.tier_fill",
        fill_ids.len(),
        || {
            for &id in fill_ids {
                filling
                    .fill(0, id, payload(id))
                    .expect("an empty tier takes a batch");
            }
        },
        || {
            for &id in fill_ids {
                filling.evict(0, id);
            }
        },
    );

    // The two hand-off queues on one thread: push a sample, pop it.
    let stage = ReorderStage::new(view.workload.staging);
    let mut pos = 0u64;
    let reorder = r.ns_per_item("replay.storage.reorder_push_pop", &ids, |&id| {
        stage.push(pos, id, payload(id));
        std::hint::black_box(stage.pop());
        pos += 1;
    });
    let buffer = StagingBuffer::new(view.workload.staging);
    let staging = r.ns_per_item("replay.storage.staging_push_pop", &ids, |&id| {
        buffer.push(id, payload(id));
        std::hint::black_box(buffer.pop());
    });

    // The whole resilience chain over a fault-free object store.
    let store = ObjectStoreBackend::over(
        origin(),
        ObjectStoreConfig::new(0.0, sys.pfs_read.clone(), 16),
        scale,
    );
    let retry = RetryPolicy::new(3, Duration::from_micros(50), 1.0, view.seed);
    let resilient =
        ResilientSource::new(Arc::new(store), ResilienceConfig::retry_only(retry), scale);
    let resilient_ns = r.ns_per_item("replay.storage.resilient_read", &ids, |&id| {
        std::hint::black_box(resilient.read(id).expect("no fault is injected"));
    });

    let fs = FsBackend::new("fs", r.scratch.join("fs"), u64::MAX);
    let objects: Vec<u64> = (0..FS_OBJECTS).collect();
    for &id in &objects {
        fs.insert(id, Bytes::from(vec![id as u8; FS_OBJECT]))
            .expect("an unbounded backend takes every object");
    }
    let fs_ns = r.ns_per_item("replay.storage.fs_read", &objects, |&id| {
        std::hint::black_box(fs.get(id).expect("the object was just written"));
    });

    // Of all reads the traced job's tiers served, the share that came
    // from a cache tier rather than the origin.
    let hits = |cache: bool| -> u64 {
        traced_job
            .counters
            .iter()
            .filter(|c| c.name == names::TIER_HITS)
            .filter(|c| {
                c.labels
                    .iter()
                    .any(|(k, v)| k == "tier" && (v != "pfs") == cache)
            })
            .map(|c| c.value)
            .sum()
    };
    let (cache_hits, origin_hits) = (hits(true), hits(false));

    vec![
        Metric::new("storage.tier_read_hit_ns", "ns", hit),
        Metric::new("storage.tier_get_cached_ns", "ns", get_cached),
        Metric::new("storage.tier_read_miss_ns", "ns", miss),
        Metric::new("storage.tier_read_many_ns_per_id", "ns", many),
        Metric::new("storage.tier_fill_ns", "ns", fill),
        Metric::new(
            "storage.tier_promote_evict_ns",
            "ns",
            promote_evict(view, r, &ids),
        ),
        Metric::new("storage.reorder_push_pop_ns", "ns", reorder),
        Metric::new(
            "storage.reorder_handoff_ns",
            "ns",
            reorder_handoff(view, r, &ids),
        ),
        Metric::new("storage.staging_push_pop_ns", "ns", staging),
        Metric::new("storage.resilient_read_ns", "ns", resilient_ns),
        Metric::new("storage.fs_read_mb_s", "MB/s", fs_mb_per_s(fs_ns)),
        Metric::new(
            "storage.tier_hit_ratio",
            "ratio",
            cache_hits as f64 / (cache_hits + origin_hits).max(1) as f64,
        ),
    ]
}

/// An `Evicting` stack read at twice its top tier's capacity: every
/// read promotes the sample, evicts the oldest resident and demotes it
/// to the tier below.
fn promote_evict(view: &Fixture, r: &mut Replayer, ids: &[SampleId]) -> f64 {
    let sys = view.workload.system();
    let working_set = &ids[..ids.len().min(512)];
    let bytes = |ids: &[SampleId]| ids.iter().map(|&k| view.sizes[k as usize]).sum::<u64>();
    let ram = &sys.classes[0];
    let specs = [
        TierSpec::new(
            "top",
            bytes(&working_set[..working_set.len() / 2]),
            ram.read.at(1.0),
            ram.write.at(1.0),
        ),
        TierSpec::new(
            "below",
            2 * bytes(working_set),
            ram.read.at(1.0),
            ram.write.at(1.0),
        ),
    ];
    let stack = build_stack(
        &specs,
        view.workload.scale(),
        Arc::new(view.pfs.clone()),
        PromotePolicy::Evicting,
    );
    for &id in working_set {
        stack.read(id).expect("the origin holds every sample");
    }
    r.ns_per_item("replay.storage.tier_promote_evict", working_set, |&id| {
        std::hint::black_box(stack.read(id).expect("a sample of the working set"));
    })
}

/// One producer thread pushing stream positions in order, this thread
/// popping them: nanoseconds per sample handed over.
fn reorder_handoff(view: &Fixture, r: &mut Replayer, ids: &[SampleId]) -> f64 {
    let stage = ReorderStage::new(view.workload.staging);
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut pos = 0u64;
            loop {
                let id = ids[pos as usize % ids.len()];
                if !stage.push(pos, id, view.payloads[id as usize].clone()) {
                    break; // closed: the consumer has what it came for
                }
                pos += 1;
            }
        });
        // (The items are only counted; the producer decides what flows.)
        let ns = r.ns_per_item("replay.storage.reorder_handoff", ids, |_| {
            std::hint::black_box(stage.pop());
        });
        stage.close();
        ns
    })
}
