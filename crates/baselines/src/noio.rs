//! The "No I/O" lower bound (paper Sec. 7, "Synthetic data lower
//! bound"): samples are pregenerated in RAM, so the loader never touches
//! the PFS or the network, and preprocessing (which parallel loader
//! workers fully overlap) never binds — the bound reflects pure
//! training-side consumption.

use crate::DataLoader;
use bytes::Bytes;
use nopfs_clairvoyance::engine::materialize_all_streams;
use nopfs_core::stats::{StatsCollector, WorkerStats};
use nopfs_core::{JobConfig, SampleId};
use nopfs_util::rng::Xoshiro256pp;
use std::sync::Arc;

/// Launches no-I/O loaders, one per worker thread.
pub(crate) struct NoIoRunner {
    config: JobConfig,
    sizes: Arc<Vec<u64>>,
}

impl NoIoRunner {
    /// Creates the runner for a dataset described by `sizes`.
    pub(crate) fn new(config: JobConfig, sizes: Arc<Vec<u64>>) -> Self {
        assert!(!sizes.is_empty(), "dataset must contain samples");
        Self { config, sizes }
    }

    /// Builds every rank's loader (shared with the registry factory).
    pub(crate) fn launch_all(&self) -> Vec<NoIoLoader> {
        let n = self.config.system.workers;
        let spec = self.config.shuffle_spec(self.sizes.len() as u64);
        // One engine pass materializes every rank's stream (O(E) shuffle
        // generations total instead of O(N·E) across the rank threads).
        let streams = materialize_all_streams(&spec, self.config.epochs);
        (0..n)
            .map(|rank| {
                let sizes = Arc::clone(&self.sizes);
                let config = self.config.clone();
                // "We pregenerate random samples in RAM of the
                // appropriate size": one random pool, sliced zero-copy
                // per sample.
                let max = sizes.iter().copied().max().unwrap_or(0) as usize;
                let mut rng = Xoshiro256pp::seed_from_u64(config.seed ^ rank as u64);
                let mut pool = vec![0u8; max.max(1)];
                for b in pool.iter_mut() {
                    *b = (rng.next_u64() & 0xFF) as u8;
                }
                let obs = config.obs.scoped([("rank", rank.to_string())]);
                NoIoLoader {
                    rank,
                    config,
                    sizes,
                    stream: Arc::clone(&streams[rank]),
                    pool: Bytes::from(pool),
                    stats: Arc::new(StatsCollector::in_registry(&obs.registry)),
                    consumed: 0,
                    epoch_len: spec.worker_epoch_len(rank),
                }
            })
            .collect()
    }
}

pub(crate) struct NoIoLoader {
    rank: usize,
    config: JobConfig,
    sizes: Arc<Vec<u64>>,
    stream: Arc<Vec<SampleId>>,
    pool: Bytes,
    stats: Arc<StatsCollector>,
    consumed: u64,
    epoch_len: u64,
}

impl DataLoader for NoIoLoader {
    fn rank(&self) -> usize {
        self.rank
    }

    fn epoch_len(&self) -> u64 {
        self.epoch_len
    }

    fn total_len(&self) -> u64 {
        self.stream.len() as u64
    }

    fn batch_size(&self) -> usize {
        self.config.batch_size
    }

    fn next_sample(&mut self) -> Option<(SampleId, Bytes)> {
        if self.consumed >= self.stream.len() as u64 {
            return None;
        }
        let k = self.stream[self.consumed as usize];
        let size = self.sizes[k as usize] as usize;
        let data = self.pool.slice(0..size);
        // Preprocessing runs on the loader workers and is fully
        // overlapped with compute, exactly as in the prefetching
        // loaders; with data already in RAM it never becomes the
        // bottleneck, so the bound reflects pure consumption.
        self.stats.add_consumed(1);
        self.consumed += 1;
        Some((k, data))
    }

    fn stats(&self) -> WorkerStats {
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_policy;
    use nopfs_perfmodel::presets::fig8_small_cluster;
    use nopfs_pfs::Pfs;
    use nopfs_policy::PolicyId;
    use nopfs_util::timing::TimeScale;

    #[test]
    fn yields_full_stream_without_io() {
        let config = JobConfig::new(3, 2, 4, fig8_small_cluster(), TimeScale::new(1e-6));
        let sizes = Arc::new(vec![512u64; 40]);
        let pfs = Pfs::in_memory(config.system.pfs_read.clone(), config.scale);
        let counts = run_policy(PolicyId::Perfect, config, sizes, &pfs, |loader| {
            let mut n = 0u64;
            while let Some((id, data)) = loader.next_sample() {
                assert!(id < 40);
                assert_eq!(data.len(), 512);
                n += 1;
            }
            let s = loader.stats();
            assert_eq!(s.total_fetches(), 0, "no-I/O must not fetch");
            n
        })
        .expect("supported")
        .per_worker;
        // 40 samples x 2 epochs across 4 workers.
        assert_eq!(counts.iter().sum::<u64>(), 80);
    }

    #[test]
    fn batches_work_through_the_trait() {
        let config = JobConfig::new(3, 1, 4, fig8_small_cluster(), TimeScale::new(1e-6));
        let sizes = Arc::new(vec![100u64; 16]);
        let pfs = Pfs::in_memory(config.system.pfs_read.clone(), config.scale);
        let shapes = run_policy(PolicyId::Perfect, config, sizes, &pfs, |loader| {
            let mut shapes = vec![];
            while let Some(b) = loader.next_batch() {
                shapes.push(b.len());
            }
            shapes
        })
        .expect("supported")
        .per_worker;
        for s in shapes {
            assert_eq!(s, vec![4]); // 4 samples per worker, one batch
        }
    }
}
