//! The timed bulk-synchronous consumption loop.
//!
//! Reproduces the timing structure of distributed SGD: per step, each
//! worker (1) pulls its mini-batch from the loader — stalling if I/O
//! is behind, (2) "computes" for `batch_bytes / c` model seconds (the
//! paper models compute as a throughput, Sec. 4), and (3) allreduces a
//! gradient buffer through the modelled interconnect, which
//! synchronizes the step on the slowest worker — the mechanism that
//! turns I/O noise into a scalability barrier (Sec. 7.1's discussion).

use nopfs_baselines::DataLoader;
use nopfs_core::stats::WorkerStats;
use nopfs_net::Endpoint;
use nopfs_policy::FaultPlan;
use nopfs_util::timing::TimeScale;
use std::time::Instant;

/// Parameters of the timed loop.
#[derive(Debug, Clone, Copy)]
pub struct TrainLoopConfig {
    /// Compute throughput `c`, model bytes/second.
    pub compute_rate: f64,
    /// Model-to-wall time mapping (must match the loader's substrates).
    pub scale: TimeScale,
    /// Elements in the emulated gradient allreduce (0 disables the
    /// synchronization entirely — single-worker or unsynchronized runs).
    pub grad_elems: usize,
}

/// What one worker measured over a run.
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    /// Per-epoch times, model seconds.
    pub epoch_times: Vec<f64>,
    /// Per-batch times across all epochs, model seconds.
    pub batch_times: Vec<f64>,
    /// Batch count per epoch (to slice `batch_times` by epoch).
    pub batches_per_epoch: Vec<usize>,
    /// Per epoch, the modelled compute the loop charged (each batch's
    /// bytes over the epoch's compute rate), model seconds.
    pub compute_times: Vec<f64>,
    /// The I/O statistics of every loader the rank trained on, merged.
    pub stats: WorkerStats,
}

impl RunMetrics {
    /// Batch times of epoch `e`.
    pub fn epoch_batches(&self, e: usize) -> &[f64] {
        let start: usize = self.batches_per_epoch[..e].iter().sum();
        &self.batch_times[start..start + self.batches_per_epoch[e]]
    }

    /// Batch times excluding epoch 0 (the figures' "excl. epoch 0").
    pub fn batches_after_warmup(&self) -> &[f64] {
        if self.batches_per_epoch.is_empty() {
            return &self.batch_times;
        }
        &self.batch_times[self.batches_per_epoch[0]..]
    }
}

/// One rank's training loop. It can be resumed: an elastic job runs it
/// over each segment's loader in turn, so an epoch a crash cuts stays
/// one epoch, on one clock, with one gradient buffer.
pub(crate) struct RankLoop {
    cfg: TrainLoopConfig,
    metrics: RunMetrics,
    /// The epoch in progress: its number, its samples, batches and
    /// charged compute so far, and its start (`None` until a loader
    /// runs in it).
    epoch: u64,
    in_epoch: u64,
    batches: usize,
    compute: f64,
    start: Option<Instant>,
    grad: Vec<f32>,
}

impl RankLoop {
    pub(crate) fn new(cfg: TrainLoopConfig) -> Self {
        Self {
            cfg,
            metrics: RunMetrics::default(),
            epoch: 0,
            in_epoch: 0,
            batches: 0,
            compute: 0.0,
            start: None,
            grad: vec![0.0; cfg.grad_elems],
        }
    }

    /// Trains on `loader` until it is exhausted. Its first sample
    /// belongs to `epoch`; the epochs before it that this rank skipped
    /// (outside an elastic job's membership) took it no time. The
    /// compute rate in epoch `e` is `compute_rate /
    /// plan.straggle_factor(e, rank)`.
    pub(crate) fn run(
        &mut self,
        loader: &mut dyn DataLoader,
        epoch: u64,
        plan: &FaultPlan,
        sync: Option<&Endpoint<Vec<f32>>>,
    ) {
        if self.epoch < epoch {
            self.skip_to(epoch);
            self.start = None;
        }
        let (rank, scale) = (loader.rank(), self.cfg.scale);
        let epoch_len = loader.epoch_len().max(1);
        let mut start = *self.start.get_or_insert_with(Instant::now);
        loop {
            let t0 = Instant::now();
            let Some(batch) = loader.next_batch() else {
                break;
            };
            let bytes: u64 = batch.iter().map(|(_, d)| d.len() as u64).sum();
            // The modelled forward/backward pass.
            let rate = self.cfg.compute_rate / plan.straggle_factor(self.epoch, rank);
            let compute = bytes as f64 / rate;
            scale.wait(compute);
            self.compute += compute;
            // The gradient allreduce: the bulk-synchronous barrier.
            if let Some(ep) = sync {
                if self.cfg.grad_elems > 0 {
                    ep.allreduce_sum(&mut self.grad).expect("allreduce failed");
                }
            }
            self.metrics.batch_times.push(scale.to_model(t0.elapsed()));
            self.batches += 1;
            self.in_epoch += batch.len() as u64;
            if self.in_epoch >= epoch_len {
                self.end_epoch(scale.to_model(start.elapsed()));
                start = *self.start.insert(Instant::now());
            }
        }
        self.metrics.stats.merge(&loader.stats());
    }

    /// Records the epoch in progress as taking `time` and opens the next.
    fn end_epoch(&mut self, time: f64) {
        let m = &mut self.metrics;
        m.epoch_times.push(time);
        m.batches_per_epoch.push(std::mem::take(&mut self.batches));
        m.compute_times.push(std::mem::take(&mut self.compute));
        self.in_epoch = 0;
        self.epoch += 1;
    }

    /// Records empty epochs up to `epoch`.
    fn skip_to(&mut self, epoch: u64) {
        while self.epoch < epoch {
            self.end_epoch(0.0);
        }
    }

    /// The metrics of the whole run: a partial last epoch counts as an
    /// epoch, and the epochs after this rank's last (an elastic job's
    /// departed rank) up to `epochs` are empty.
    pub(crate) fn finish(mut self, epochs: u64) -> RunMetrics {
        if let Some(start) = self.start.filter(|_| self.batches > 0) {
            self.end_epoch(self.cfg.scale.to_model(start.elapsed()));
        }
        self.skip_to(epochs);
        self.metrics
    }
}

/// Runs the timed loop to exhaustion of the loader.
///
/// `sync`: the per-step gradient allreduce endpoint (pass `None` for
/// unsynchronized consumption). All workers of a job must make the
/// same choice **and have identical batch counts** (use `drop_last`
/// when the dataset does not divide evenly), or the collective
/// deadlocks — the same constraint real distributed training has.
pub fn run_training_loop(
    loader: &mut dyn DataLoader,
    cfg: &TrainLoopConfig,
    sync: Option<&Endpoint<Vec<f32>>>,
) -> RunMetrics {
    let mut rank = RankLoop::new(*cfg);
    rank.run(loader, 0, &FaultPlan::fault_free(), sync);
    rank.finish(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use nopfs_baselines::run_policy;
    use nopfs_core::JobConfig;
    use nopfs_perfmodel::presets::fig8_small_cluster;
    use nopfs_pfs::Pfs;
    use nopfs_policy::PolicyId;
    use std::sync::Arc;

    fn config(workers: usize, epochs: u64) -> JobConfig {
        let mut sys = fig8_small_cluster();
        sys.workers = workers;
        JobConfig::new(3, epochs, 4, sys, TimeScale::new(1e-6))
    }

    /// Runs `f` on every rank of `policy`'s loader set. The PFS holds
    /// the dataset for the loaders that read it.
    fn run_loaders<R: Send>(
        policy: PolicyId,
        cfg: &JobConfig,
        sizes: Arc<Vec<u64>>,
        f: impl Fn(&mut dyn DataLoader) -> R + Sync,
    ) -> Vec<R> {
        let pfs = Pfs::in_memory(cfg.system.pfs_read.clone(), cfg.scale);
        if policy != PolicyId::Perfect {
            for (id, &size) in sizes.iter().enumerate() {
                pfs.put(id as u64, Bytes::from(vec![id as u8; size as usize]));
            }
        }
        run_policy(policy, cfg.clone(), sizes, &pfs, f)
            .unwrap_or_else(|e| panic!("{policy}: {e}"))
            .per_worker
    }

    #[test]
    fn counts_epochs_and_batches() {
        for policy in [PolicyId::Perfect, PolicyId::NoPfs, PolicyId::StagingBuffer] {
            let cfg = config(2, 3);
            let sizes = Arc::new(vec![1_000u64; 40]); // 20/worker/epoch
            let loop_cfg = TrainLoopConfig {
                compute_rate: 1e9,
                scale: cfg.scale,
                grad_elems: 0,
            };
            let metrics = run_loaders(policy, &cfg, sizes, |loader| {
                run_training_loop(loader, &loop_cfg, None)
            });
            for m in metrics {
                assert_eq!(m.epoch_times.len(), 3, "{policy}");
                // 20 samples / batch 4 = 5 batches per epoch.
                assert_eq!(m.batches_per_epoch, vec![5, 5, 5], "{policy}");
                assert_eq!(m.batch_times.len(), 15, "{policy}");
                assert_eq!(m.epoch_batches(1).len(), 5, "{policy}");
                assert_eq!(m.batches_after_warmup().len(), 10, "{policy}");
                assert_eq!(m.stats.samples_consumed, 60, "{policy}");
                assert!(m.epoch_times.iter().all(|&t| t > 0.0), "{policy}");
                if policy != PolicyId::Perfect {
                    // Each staged position is fetched once.
                    assert_eq!(
                        m.stats.total_fetches(),
                        m.stats.samples_consumed,
                        "{policy}"
                    );
                }
            }
        }
    }

    #[test]
    fn compute_rate_bounds_no_io_epoch_time_from_below() {
        // With a slow modelled GPU the epoch takes at least bytes/c:
        // a modelled wait never returns early. How much longer it takes
        // is scheduling noise, which no bound on a shared host holds.
        let mut cfg = config(1, 1);
        cfg.scale = TimeScale::new(1e-2);
        let sizes = Arc::new(vec![10_000u64; 16]);
        let loop_cfg = TrainLoopConfig {
            compute_rate: 1e6, // 160 KB at 1 MB/s = 0.16 model seconds
            scale: cfg.scale,
            grad_elems: 0,
        };
        let metrics = run_loaders(PolicyId::Perfect, &cfg, sizes, |l| {
            run_training_loop(l, &loop_cfg, None)
        });
        let t = metrics[0].epoch_times[0];
        assert!(t >= 0.16 - 1e-6, "epoch time {t} beats the model");
        assert_eq!(metrics[0].batch_times.len(), 4);
    }

    #[test]
    fn allreduce_holds_the_fast_worker_to_the_slow_ones_pace() {
        // Rank 1 computes 4x slower. The per-step allreduce lets rank 1
        // get at most one step ahead of rank 0's start, so from its own
        // start rank 0 still waits out rank 1's other three steps:
        // three times what rank 0 computes for, whatever the scheduler
        // does. Without the collective it would take its own 0.08 s.
        let mut cfg = config(2, 1);
        cfg.scale = TimeScale::new(1e-2);
        let sizes = Arc::new(vec![5_000u64; 32]); // 4 steps of 20 KB per rank
        let endpoints = parking_lot::Mutex::new(
            nopfs_net::cluster::<Vec<f32>>(2, nopfs_net::NetConfig::new(1e12, cfg.scale))
                .into_iter()
                .map(Some)
                .collect::<Vec<_>>(),
        );
        let metrics = run_loaders(PolicyId::Perfect, &cfg, sizes, |loader| {
            let rank = loader.rank();
            let ep = endpoints.lock()[rank].take().expect("one take per rank");
            let loop_cfg = TrainLoopConfig {
                compute_rate: if rank == 0 { 1e6 } else { 0.25e6 },
                scale: cfg.scale,
                grad_elems: 64,
            };
            run_training_loop(loader, &loop_cfg, Some(&ep))
        });
        assert_eq!(metrics.len(), 2);
        for m in &metrics {
            assert_eq!(m.batches_per_epoch, vec![4]);
        }
        let (fast, slow) = (metrics[0].epoch_times[0], metrics[1].epoch_times[0]);
        assert!(slow >= 0.32 - 1e-6, "slow rank beats its model: {slow}");
        assert!(
            fast >= 0.24 - 1e-6,
            "fast rank ran ahead of the slow one: {fast}"
        );
    }
}
