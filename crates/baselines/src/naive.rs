//! The naive loader: synchronous PFS reads, no prefetching, no caching
//! (the simulator's `Naive` policy, as a runtime loader).
//!
//! Every `next_sample` blocks for the full PFS fetch plus preprocessing
//! — the worst case the paper's Fig. 8 shows to be 1.7× slower than
//! any buffered policy even on small datasets.

use crate::DataLoader;
use bytes::Bytes;
use nopfs_clairvoyance::engine::materialize_all_streams;
use nopfs_core::stats::{StatsCollector, WorkerStats};
use nopfs_core::tiers::origin_read_retry;
use nopfs_core::{JobConfig, SampleId};
use nopfs_pfs::Pfs;
use nopfs_storage::TierStack;
use std::sync::Arc;
use std::time::Instant;

/// Launches naive loaders, one per worker thread.
pub(crate) struct NaiveRunner {
    config: JobConfig,
    sizes: Arc<Vec<u64>>,
}

impl NaiveRunner {
    /// Creates the runner.
    pub(crate) fn new(config: JobConfig, sizes: Arc<Vec<u64>>) -> Self {
        assert!(!sizes.is_empty(), "dataset must contain samples");
        Self { config, sizes }
    }

    /// Builds every rank's loader (shared with the registry factory).
    pub(crate) fn launch_all(&self, pfs: &Pfs) -> Vec<NaiveLoader> {
        let n = self.config.system.workers;
        let spec = self.config.shuffle_spec(self.sizes.len() as u64);
        // One engine pass materializes every rank's stream (O(E) shuffle
        // generations total instead of O(N·E) across the rank threads).
        let streams = materialize_all_streams(&spec, self.config.epochs);
        (0..n)
            .map(|rank| {
                let obs = self.config.obs.scoped([("rank", rank.to_string())]);
                NaiveLoader {
                    rank,
                    config: self.config.clone(),
                    // The flat loader is a degenerate hierarchy: no cache
                    // tiers, every read straight from the PFS origin.
                    tiers: TierStack::origin_only(Arc::new(pfs.clone()), &obs.registry),
                    stream: Arc::clone(&streams[rank]),
                    stats: Arc::new(StatsCollector::in_registry(&obs.registry)),
                    consumed: 0,
                    epoch_len: spec.worker_epoch_len(rank),
                }
            })
            .collect()
    }
}

pub(crate) struct NaiveLoader {
    rank: usize,
    config: JobConfig,
    tiers: TierStack,
    stream: Arc<Vec<SampleId>>,
    stats: Arc<StatsCollector>,
    consumed: u64,
    epoch_len: u64,
}

impl DataLoader for NaiveLoader {
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
        let t0 = Instant::now();
        let data = origin_read_retry(&self.tiers, k, &self.stats);
        let wt = self.config.system.write_time(data.len() as u64);
        self.config.scale.wait(wt);
        // The whole read is a stall: nothing overlaps it.
        self.stats.add_stall(t0.elapsed());
        self.stats.add_pfs(1);
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
    use nopfs_policy::PolicyId;
    use nopfs_util::timing::TimeScale;

    #[test]
    fn reads_everything_from_the_pfs() {
        let config = JobConfig::new(5, 2, 4, fig8_small_cluster(), TimeScale::new(1e-6));
        let sizes = Arc::new(vec![256u64; 32]);
        let pfs = Pfs::in_memory(
            nopfs_perfmodel::ThroughputCurve::flat(1e12),
            TimeScale::new(1e-6),
        );
        for id in 0..32u64 {
            pfs.put(id, Bytes::from(vec![id as u8; 256]));
        }
        let stats = run_policy(PolicyId::Naive, config, sizes, &pfs, |loader| {
            while let Some((id, data)) = loader.next_sample() {
                assert_eq!(data[0], id as u8);
            }
            loader.stats()
        })
        .expect("supported")
        .per_worker;
        let total_pfs: u64 = stats.iter().map(|s| s.pfs_fetches).sum();
        assert_eq!(total_pfs, 64, "every access is a PFS read");
        assert!(stats.iter().all(|s| s.local_fetches == 0));
        assert!(stats.iter().all(|s| s.stall_time.as_nanos() > 0));
    }

    #[test]
    fn retries_transient_faults() {
        let config = JobConfig::new(5, 1, 2, fig8_small_cluster(), TimeScale::new(1e-6));
        let mut cfg = config;
        cfg.system.workers = 2;
        let sizes = Arc::new(vec![64u64; 8]);
        let pfs = Pfs::in_memory(
            nopfs_perfmodel::ThroughputCurve::flat(1e12),
            TimeScale::new(1e-6),
        );
        for id in 0..8u64 {
            pfs.put(id, Bytes::from(vec![0u8; 64]));
        }
        pfs.inject_fault(3, 2);
        let counts = run_policy(PolicyId::Naive, cfg, sizes, &pfs, |l| {
            std::iter::from_fn(|| l.next_sample()).count()
        })
        .expect("supported")
        .per_worker;
        assert_eq!(counts.iter().sum::<usize>(), 8);
    }
}
