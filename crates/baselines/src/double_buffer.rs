//! The double-buffering loader: PyTorch's `DataLoader` and NVIDIA DALI.
//!
//! PyTorch's built-in loader overlaps fetching the next mini-batches
//! with computation using a pool of prefetch workers with bounded
//! lookahead; every fetch still goes to the PFS, which is exactly why
//! it stops scaling once the PFS saturates (paper Secs. 2.2, 7.1). DALI
//! is the same loading policy with part of the preprocessing offloaded
//! to the GPU, modelled here by a configurable preprocessing speedup
//! (the paper found DALI "a relatively small performance improvement
//! over the default PyTorch DataLoader" on Piz Daint because the
//! baseline's augmentation was already well optimized).

use crate::DataLoader;
use bytes::Bytes;
use nopfs_clairvoyance::engine::materialize_all_streams;
use nopfs_core::stats::{StatsCollector, WorkerStats};
use nopfs_core::tiers::origin_read_retry;
use nopfs_core::{JobConfig, SampleId};
use nopfs_pfs::Pfs;
use nopfs_storage::{ReorderStage, TierStack};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Launches double-buffering loaders, one per worker thread.
pub struct DoubleBufferRunner {
    config: JobConfig,
    sizes: Arc<Vec<u64>>,
    /// Multiplier on preprocessing time: 1.0 models PyTorch, < 1.0
    /// models DALI's GPU offload.
    preprocess_factor: f64,
}

impl DoubleBufferRunner {
    /// A PyTorch-`DataLoader`-like runner (full preprocessing cost).
    pub fn pytorch_like(config: JobConfig, sizes: Arc<Vec<u64>>) -> Self {
        Self::with_preprocess_factor(config, sizes, 1.0)
    }

    /// A DALI-like runner: same loading policy, preprocessing partially
    /// offloaded to the accelerator.
    pub fn dali_like(config: JobConfig, sizes: Arc<Vec<u64>>) -> Self {
        Self::with_preprocess_factor(config, sizes, 0.4)
    }

    /// General constructor.
    ///
    /// # Panics
    /// Panics unless `0.0 < preprocess_factor <= 1.0`.
    pub fn with_preprocess_factor(
        config: JobConfig,
        sizes: Arc<Vec<u64>>,
        preprocess_factor: f64,
    ) -> Self {
        assert!(!sizes.is_empty(), "dataset must contain samples");
        assert!(
            preprocess_factor > 0.0 && preprocess_factor <= 1.0,
            "preprocess factor must be in (0, 1]"
        );
        Self {
            config,
            sizes,
            preprocess_factor,
        }
    }

    /// Launches every rank's loader (shared with the registry factory).
    pub(crate) fn launch_all(&self, pfs: &Pfs) -> Vec<DoubleBufferLoader> {
        let n = self.config.system.workers;
        let spec = self.config.shuffle_spec(self.sizes.len() as u64);
        // One engine pass materializes every rank's stream (O(E) shuffle
        // generations total instead of O(N·E) across the rank threads).
        let streams = materialize_all_streams(&spec, self.config.epochs);
        (0..n)
            .map(|rank| {
                DoubleBufferLoader::launch(
                    rank,
                    self.config.clone(),
                    pfs.clone(),
                    spec,
                    Arc::clone(&streams[rank]),
                    self.preprocess_factor,
                )
            })
            .collect()
    }

    /// Runs `f` once per worker.
    pub fn run<R, F>(&self, pfs: &Pfs, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut dyn DataLoader) -> R + Sync,
    {
        let f = &f;
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .launch_all(pfs)
                .into_iter()
                .map(|mut loader| {
                    s.spawn(move || {
                        let result = f(&mut loader);
                        loader.shutdown();
                        result
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        })
    }
}

pub(crate) struct DoubleBufferLoader {
    rank: usize,
    batch_size: usize,
    stage: ReorderStage,
    stats: Arc<StatsCollector>,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    total: u64,
    consumed: u64,
    epoch_len: u64,
}

impl DoubleBufferLoader {
    fn launch(
        rank: usize,
        config: JobConfig,
        pfs: Pfs,
        spec: nopfs_clairvoyance::sampler::ShuffleSpec,
        stream: Arc<Vec<SampleId>>,
        preprocess_factor: f64,
    ) -> Self {
        // Lookahead bounded by the staging-buffer capacity, the analogue
        // of PyTorch's prefetch_factor x num_workers batches in flight.
        let obs = config.obs.scoped([("rank", rank.to_string())]);
        let stage = ReorderStage::new_in_registry(config.system.staging.capacity, &obs.registry);
        let stats = Arc::new(StatsCollector::in_registry(&obs.registry));
        let stop = Arc::new(AtomicBool::new(false));
        let position = Arc::new(AtomicU64::new(0));
        // A cache-less hierarchy: double buffering prefetches but never
        // caches, so every read bottoms out in the PFS origin.
        let tiers = TierStack::origin_only_in_registry(Arc::new(pfs), &obs.registry);
        let mut threads = Vec::new();
        for _ in 0..config.system.staging.threads.max(1) {
            let stream = Arc::clone(&stream);
            let stage = stage.clone();
            let stats = Arc::clone(&stats);
            let stop = Arc::clone(&stop);
            let position = Arc::clone(&position);
            let tiers = tiers.clone();
            let config = config.clone();
            threads.push(std::thread::spawn(move || loop {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let pos = position.fetch_add(1, Ordering::SeqCst);
                if pos >= stream.len() as u64 {
                    break;
                }
                let k = stream[pos as usize];
                let data = origin_read_retry(&tiers, k, &stats);
                stats.count_pfs();
                let wt = config.system.write_time(data.len() as u64) * preprocess_factor;
                config.scale.wait(wt);
                if !stage.push(pos, k, data) {
                    break;
                }
            }));
        }
        Self {
            rank,
            batch_size: config.batch_size,
            stage,
            stats,
            stop,
            threads,
            total: stream.len() as u64,
            consumed: 0,
            epoch_len: spec.worker_epoch_len(rank),
        }
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.stage.close();
        for t in self.threads.drain(..) {
            t.join().expect("prefetch thread panicked");
        }
    }
}

impl DataLoader for DoubleBufferLoader {
    fn rank(&self) -> usize {
        self.rank
    }

    fn epoch_len(&self) -> u64 {
        self.epoch_len
    }

    fn total_len(&self) -> u64 {
        self.total
    }

    fn batch_size(&self) -> usize {
        self.batch_size
    }

    fn next_sample(&mut self) -> Option<(SampleId, Bytes)> {
        if self.consumed >= self.total {
            return None;
        }
        let t0 = Instant::now();
        let item = self.stage.pop()?;
        self.stats.add_stall(t0.elapsed());
        self.stats.count_consumed();
        self.consumed += 1;
        Some(item)
    }

    fn stats(&self) -> WorkerStats {
        self.stats.snapshot()
    }

    fn shutdown(&mut self) {
        DoubleBufferLoader::shutdown(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nopfs_clairvoyance::stream::AccessStream;
    use nopfs_perfmodel::presets::fig8_small_cluster;
    use nopfs_perfmodel::ThroughputCurve;
    use nopfs_util::timing::TimeScale;

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
        let runner = DoubleBufferRunner::pytorch_like(config, sizes);
        let streams = runner.run(&pfs, |l| {
            let mut got = vec![];
            while let Some((id, data)) = l.next_sample() {
                assert_eq!(data[0], (id % 256) as u8);
                got.push(id);
            }
            (l.rank(), got, l.stats())
        });
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
        let runner = DoubleBufferRunner::pytorch_like(config, sizes);
        let counts = runner.run(&pfs, |l| {
            let mut n = 0;
            for _ in 0..5 {
                if l.next_sample().is_none() {
                    break;
                }
                n += 1;
            }
            n
        });
        assert!(counts.iter().all(|&c| c == 5));
    }

    #[test]
    fn dali_factor_is_validated() {
        let (config, sizes, _) = setup(8);
        let r = DoubleBufferRunner::dali_like(config, sizes);
        assert!(r.preprocess_factor < 1.0);
    }

    #[test]
    #[should_panic(expected = "preprocess factor")]
    fn zero_factor_rejected() {
        let (config, sizes, _) = setup(8);
        DoubleBufferRunner::with_preprocess_factor(config, sizes, 0.0);
    }
}
