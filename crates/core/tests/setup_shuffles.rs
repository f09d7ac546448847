//! Proves the O(E) setup guarantee end to end: building AND running a
//! full `Job` generates each epoch's shuffle exactly once, no matter
//! how many workers the job has.
//!
//! This file deliberately holds a single `#[test]` so the whole binary
//! runs it alone: `epoch_shuffles_generated()` is process-global, and
//! any concurrently running test that touches a `ShuffleSpec` would
//! make the exact-delta assertions flaky. Keep it that way.

use bytes::Bytes;
use nopfs_clairvoyance::sampler::epoch_shuffles_generated;
use nopfs_core::{Job, JobConfig};
use nopfs_perfmodel::presets::fig8_small_cluster;
use nopfs_util::timing::TimeScale;
use std::sync::Arc;

#[test]
fn job_setup_and_run_generate_each_epoch_shuffle_exactly_once() {
    // Worker counts spanning 1..8: the generation count must stay E,
    // independent of N (the old path cost O(N·E) per process and
    // O(N²·E) across ranks re-deriving each other's digests).
    for (workers, epochs) in [(1usize, 3u64), (2, 4), (4, 5), (8, 2)] {
        let mut sys = fig8_small_cluster();
        sys.workers = workers;
        sys.staging.capacity = 64 * 1_000;
        sys.staging.threads = 2;
        let sizes = Arc::new(vec![1_000u64; 64]);
        let config = JobConfig::new(41, epochs, 4, sys, TimeScale::new(1e-6));

        let before = epoch_shuffles_generated();
        let job = Job::new(config, Arc::clone(&sizes));
        let after_setup = epoch_shuffles_generated();
        assert_eq!(
            after_setup - before,
            epochs,
            "N={workers}: setup must generate each of the {epochs} epoch \
             shuffles exactly once"
        );
        assert_eq!(job.setup_stats().shuffle_generations, epochs);

        // Running the job (allgather verification, prefetchers, serving,
        // consumption) must not regenerate a single shuffle: workers
        // read the engine's cached digests and streams.
        let pfs = job.make_pfs();
        for (id, &s) in sizes.iter().enumerate() {
            pfs.put(id as u64, Bytes::from(vec![id as u8; s as usize]));
        }
        let consumed = job.run(&pfs).global_stream.len() as u64;
        assert_eq!(consumed, 64 * epochs);
        assert_eq!(
            epoch_shuffles_generated(),
            after_setup,
            "N={workers}: running the job regenerated shuffles"
        );
    }
}
