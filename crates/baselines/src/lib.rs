//! Runtime baseline data loaders (the paper's Sec. 7 comparison points).
//!
//! The evaluation compares NoPFS against PyTorch's built-in
//! `DataLoader` (double buffering with prefetch workers), DALI
//! (double buffering with GPU-offloaded preprocessing), the LBANN data
//! store (first-touch in-memory caching with owner-served remote
//! fetches), and a synthetic-data "No I/O" lower bound. This crate
//! implements each of those loaders **on the same substrates NoPFS
//! uses** — the synthetic PFS, the modelled interconnect, the throttled
//! storage backends — so that runtime comparisons isolate the policy,
//! exactly as the paper's head-to-head experiments do.
//!
//! Every baseline with a shared decision core — the synchronous naive
//! loader, PyTorch's double buffering (`PolicyId::StagingBuffer`), the
//! LBANN store, DeepIO, parallel staging, locality-aware loading — runs
//! on one loader that executes that core, the object the simulator
//! prices. DALI is PyTorch's loader on a system with faster
//! preprocessing. The no-I/O bound is the one other. [`registry`]
//! builds any of them, and NoPFS's workers, from a `PolicyId`.
//!
//! All loaders implement [`DataLoader`], and so does
//! `nopfs_core::WorkerHandle`, so training loops and benches are
//! generic over the policy.

mod noio;
mod plan_loader;
pub mod registry;

use bytes::Bytes;
use nopfs_core::stats::WorkerStats;
use nopfs_core::SampleId;

pub use registry::{build_loader, build_loaders, run_policy, LoaderSet, PolicyOutcome};

/// The common loader interface: iterator-style access to `(id, bytes)`
/// pairs in the loader's delivery order, plus statistics.
pub trait DataLoader: Send {
    /// This worker's rank.
    fn rank(&self) -> usize;

    /// Samples per epoch for this worker.
    fn epoch_len(&self) -> u64;

    /// Total samples the loader will yield.
    fn total_len(&self) -> u64;

    /// Per-worker mini-batch size.
    fn batch_size(&self) -> usize;

    /// Next sample, blocking on I/O; `None` when exhausted.
    fn next_sample(&mut self) -> Option<(SampleId, Bytes)>;

    /// I/O statistics so far.
    fn stats(&self) -> WorkerStats;

    /// Next mini-batch (never crosses an epoch boundary). Epoch
    /// semantics come from the workspace-shared
    /// [`nopfs_core::next_batch_len`] — the same function
    /// `WorkerHandle::next_batch` uses, so batching cannot diverge
    /// between NoPFS and the baselines.
    fn next_batch(&mut self) -> Option<Vec<(SampleId, Bytes)>> {
        let want = nopfs_core::next_batch_len(
            self.stats().samples_consumed,
            self.total_len(),
            self.epoch_len(),
            self.batch_size(),
        );
        if want == 0 {
            return None;
        }
        let mut batch = Vec::with_capacity(want);
        for _ in 0..want {
            match self.next_sample() {
                Some(item) => batch.push(item),
                None => break,
            }
        }
        if batch.is_empty() {
            None
        } else {
            Some(batch)
        }
    }

    /// Releases the loader's resources: stops prefetch threads and
    /// synchronizes with peer loaders of the same run. Idempotent;
    /// default is a no-op for loaders without background threads.
    ///
    /// Loaders of a peer-coupled policy (NoPFS, LBANN, DeepIO, …)
    /// barrier with their siblings here, so a multi-worker set must be
    /// shut down **concurrently** — one thread per loader, as
    /// [`LoaderSet::drive`] and [`LoaderSet`]'s drop do.
    fn shutdown(&mut self) {}
}

impl DataLoader for nopfs_core::WorkerHandle {
    fn rank(&self) -> usize {
        nopfs_core::WorkerHandle::rank(self)
    }

    fn epoch_len(&self) -> u64 {
        nopfs_core::WorkerHandle::epoch_len(self)
    }

    fn total_len(&self) -> u64 {
        self.len()
    }

    fn batch_size(&self) -> usize {
        nopfs_core::WorkerHandle::batch_size(self)
    }

    fn next_sample(&mut self) -> Option<(SampleId, Bytes)> {
        nopfs_core::WorkerHandle::next_sample(self)
    }

    fn stats(&self) -> WorkerStats {
        nopfs_core::WorkerHandle::stats(self)
    }

    fn next_batch(&mut self) -> Option<Vec<(SampleId, Bytes)>> {
        nopfs_core::WorkerHandle::next_batch(self)
    }

    fn shutdown(&mut self) {
        nopfs_core::WorkerHandle::shutdown(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The trait's default `next_batch` respects epoch boundaries.
    struct Fake {
        yielded: u64,
    }

    impl DataLoader for Fake {
        fn rank(&self) -> usize {
            0
        }
        fn epoch_len(&self) -> u64 {
            5
        }
        fn total_len(&self) -> u64 {
            10
        }
        fn batch_size(&self) -> usize {
            3
        }
        fn next_sample(&mut self) -> Option<(SampleId, Bytes)> {
            if self.yielded >= 10 {
                return None;
            }
            self.yielded += 1;
            Some((self.yielded - 1, Bytes::from_static(b"x")))
        }
        fn stats(&self) -> WorkerStats {
            WorkerStats {
                local_fetches: 0,
                remote_fetches: 0,
                pfs_fetches: 0,
                prestage_fetches: 0,
                false_positives: 0,
                heuristic_skips: 0,
                pfs_errors: 0,
                stall_time: std::time::Duration::ZERO,
                samples_consumed: self.yielded,
            }
        }
    }

    #[test]
    fn default_next_batch_respects_epochs() {
        let mut f = Fake { yielded: 0 };
        let sizes: Vec<usize> = std::iter::from_fn(|| f.next_batch().map(|b| b.len())).collect();
        // Epoch of 5 with batch 3: 3+2, twice.
        assert_eq!(sizes, vec![3, 2, 3, 2]);
    }
}

/// PyTorch's double buffering (`PolicyId::StagingBuffer`) end to end
/// through the registry: every fetch goes to the PFS, in stream order.
#[cfg(test)]
mod double_buffer {
    mod tests {
        use crate::run_policy;
        use bytes::Bytes;
        use nopfs_clairvoyance::stream::AccessStream;
        use nopfs_core::JobConfig;
        use nopfs_perfmodel::presets::fig8_small_cluster;
        use nopfs_perfmodel::ThroughputCurve;
        use nopfs_pfs::Pfs;
        use nopfs_policy::PolicyId;
        use nopfs_util::timing::TimeScale;
        use std::sync::Arc;

        fn setup(n_samples: u64) -> (JobConfig, Arc<Vec<u64>>, Pfs) {
            let mut sys = fig8_small_cluster();
            sys.staging.capacity = 8_192;
            let config = JobConfig::new(21, 2, 4, sys, TimeScale::new(1e-6));
            let sizes = Arc::new(vec![512u64; n_samples as usize]);
            let pfs = Pfs::in_memory(ThroughputCurve::flat(1e12), TimeScale::new(1e-6));
            for id in 0..n_samples {
                pfs.put(id, Bytes::from(vec![(id % 256) as u8; 512]));
            }
            (config, sizes, pfs)
        }

        #[test]
        fn delivers_stream_in_order_all_from_pfs() {
            let (config, sizes, pfs) = setup(48);
            let spec = config.shuffle_spec(48);
            let streams = run_policy(PolicyId::StagingBuffer, config, sizes, &pfs, |l| {
                let mut got = vec![];
                while let Some((id, data)) = l.next_sample() {
                    assert_eq!(data[0], (id % 256) as u8);
                    got.push(id);
                }
                (l.rank(), got, l.stats())
            })
            .expect("double buffering runs any configuration")
            .per_worker;
            for (rank, got, stats) in streams {
                let expect = AccessStream::new(spec, rank, 2).materialize();
                assert_eq!(got, expect, "worker {rank} order");
                assert_eq!(stats.pfs_fetches, expect.len() as u64);
                assert_eq!(stats.local_fetches + stats.remote_fetches, 0);
            }
        }

        #[test]
        fn early_stop_is_clean() {
            let (config, sizes, pfs) = setup(400);
            let counts = run_policy(PolicyId::StagingBuffer, config, sizes, &pfs, |l| {
                let mut n = 0;
                for _ in 0..5 {
                    if l.next_sample().is_none() {
                        break;
                    }
                    n += 1;
                }
                n
            })
            .expect("double buffering runs any configuration")
            .per_worker;
            assert!(counts.iter().all(|&c| c == 5));
        }
    }
}

/// The LBANN data store's feasibility rule as a caller that needs the
/// loaders sees it.
#[cfg(test)]
mod lbann {
    mod tests {
        use crate::build_loaders;
        use nopfs_core::JobConfig;
        use nopfs_perfmodel::presets::fig8_small_cluster;
        use nopfs_perfmodel::ThroughputCurve;
        use nopfs_pfs::Pfs;
        use nopfs_policy::PolicyId;
        use nopfs_util::timing::TimeScale;
        use std::sync::Arc;

        #[test]
        #[should_panic(expected = "aggregate worker memory")]
        fn oversized_dataset_rejected() {
            // 64 x 512 B = 32 KB > 4 x 4 KB.
            let mut sys = fig8_small_cluster();
            sys.staging.capacity = 8_192;
            sys.classes[0].capacity = 4_000;
            let config = JobConfig::new(13, 3, 4, sys, TimeScale::new(1e-6));
            let sizes = Arc::new(vec![512u64; 64]);
            let pfs = Pfs::in_memory(ThroughputCurve::flat(1e12), TimeScale::new(1e-6));
            let _ = build_loaders(PolicyId::LbannDynamic, config, sizes, &pfs)
                .expect("an infeasible store is refused");
        }
    }
}
