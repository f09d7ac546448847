//! The runtime loader factory: one dispatch point from [`PolicyId`] to
//! a working loader set, used by the solo runtime, the benches, and
//! the multi-tenant cluster.
//!
//! Every entry of `PolicyId::ALL` constructs here:
//!
//! | policy                  | runtime implementation                        |
//! |-------------------------|-----------------------------------------------|
//! | `Perfect`               | the no-I/O loader (pregenerated RAM data)     |
//! | `NoPfs`                 | the workers of `nopfs_core::Job::new`         |
//! | every other baseline    | the workers of `nopfs_core::Job::with_core`   |
//!
//! A core-backed job's staging threads walk the core-transformed stream
//! and fetch from the source the core decides, so `StagingBuffer`
//! (PyTorch's double buffering, whose core reads every sample from the
//! PFS) runs on the same worker as NoPFS, the LBANN store and DeepIO,
//! and so does `Naive`, the same core read inline by its consumer.
//!
//! [`build_loaders`] is the one dispatch; [`LoaderSet::drive`] runs a
//! closure on every rank; [`run_policy`] is the two together.

use crate::noio::NoIoRunner;
use crate::DataLoader;
use nopfs_core::stats::SetupStats;
use nopfs_core::{Job, JobConfig};
use nopfs_pfs::Pfs;
use nopfs_policy::{PolicyId, Unsupported};
use std::sync::Arc;

/// What one registry-dispatched run produced.
pub struct PolicyOutcome<R> {
    /// Per-worker results of the harness closure, rank order.
    pub per_worker: Vec<R>,
    /// Clairvoyant setup statistics (NoPFS only).
    pub setup: Option<SetupStats>,
}

/// Runs `policy` on the given configuration: [`build_loaders`], then
/// [`LoaderSet::drive`] — `f` once per rank with that rank's loader —
/// and returns the per-rank results.
///
/// This is the closure-style entry point all harnesses share — the
/// solo runtime benches, the multi-tenant cluster, and the examples.
///
/// # Errors
/// [`Unsupported`] when the policy cannot run the configuration (the
/// LBANN modes with a dataset exceeding aggregate worker memory).
pub fn run_policy<R, F>(
    policy: PolicyId,
    config: JobConfig,
    sizes: Arc<Vec<u64>>,
    pfs: &Pfs,
    f: F,
) -> Result<PolicyOutcome<R>, Unsupported>
where
    R: Send,
    F: Fn(&mut dyn DataLoader) -> R + Sync,
{
    let set = build_loaders(policy, config, sizes, pfs)?;
    let setup = set.setup().cloned();
    Ok(PolicyOutcome {
        per_worker: set.drive(f),
        setup,
    })
}

/// A full worker set of loaders for one policy, rank order.
///
/// Dropping the set shuts every loader down **concurrently** (one
/// thread per loader) — required because peer-coupled loaders barrier
/// with their siblings during shutdown.
pub struct LoaderSet {
    loaders: Vec<Box<dyn DataLoader>>,
    setup: Option<SetupStats>,
}

impl LoaderSet {
    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.loaders.len()
    }

    /// Whether the set holds no loader.
    pub fn is_empty(&self) -> bool {
        self.loaders.is_empty()
    }

    /// Iterates over the loaders in rank order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut dyn DataLoader> {
        self.loaders
            .iter_mut()
            .map(|l| l.as_mut() as &mut dyn DataLoader)
    }

    /// Clairvoyant setup statistics of the job behind the set (NoPFS
    /// only).
    pub fn setup(&self) -> Option<&SetupStats> {
        self.setup.as_ref()
    }

    /// Runs `f` once per rank, each on a thread of its own, and shuts
    /// that rank's loader down on the same thread when `f` returns — so
    /// the shutdowns run concurrently, as peer-coupled loaders require.
    /// Returns the results in rank order.
    ///
    /// # Panics
    /// Panics when `f` panics on any rank.
    pub fn drive<R, F>(mut self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut dyn DataLoader) -> R + Sync,
    {
        let loaders = std::mem::take(&mut self.loaders);
        let f = &f;
        std::thread::scope(|s| {
            let ranks: Vec<_> = loaders
                .into_iter()
                .map(|mut loader| {
                    s.spawn(move || {
                        let result = f(loader.as_mut());
                        loader.shutdown();
                        result
                    })
                })
                .collect();
            ranks
                .into_iter()
                .map(|h| h.join().expect("rank panicked"))
                .collect()
        })
    }
}

impl Drop for LoaderSet {
    fn drop(&mut self) {
        // The loaders not handed to `drive` are shut down by it, with
        // nothing to run first; the set it consumes is then empty.
        if !self.loaders.is_empty() {
            let rest = LoaderSet {
                loaders: std::mem::take(&mut self.loaders),
                setup: None,
            };
            rest.drive(|_| ());
        }
    }
}

/// The object-safe loader factory and the workspace's one `PolicyId`
/// dispatch: builds the complete worker set for `policy` as boxed
/// [`DataLoader`]s — one per rank of `config.system.workers` — ready
/// to be driven from any threads.
///
/// The dataset described by `sizes` must already be materialized in
/// `pfs` (except for `Perfect`, which synthesizes its data).
///
/// # Errors
/// [`Unsupported`] when the policy cannot run the configuration.
pub fn build_loaders(
    policy: PolicyId,
    config: JobConfig,
    sizes: Arc<Vec<u64>>,
    pfs: &Pfs,
) -> Result<LoaderSet, Unsupported> {
    fn boxed<L: DataLoader + 'static>(loaders: Vec<L>) -> Vec<Box<dyn DataLoader>> {
        loaders
            .into_iter()
            .map(|l| Box::new(l) as Box<dyn DataLoader>)
            .collect()
    }
    let mut setup = None;
    let loaders = match policy {
        PolicyId::Perfect => boxed(NoIoRunner::new(config, sizes).launch_all()),
        PolicyId::NoPfs => {
            let job = Job::new(config, sizes);
            setup = Some(job.setup_stats().clone());
            boxed(job.launch_workers(pfs))
        }
        _ => boxed(Job::with_core(policy, config, sizes)?.launch_workers(pfs)),
    };
    Ok(LoaderSet { loaders, setup })
}

/// The single-worker convenience of [`build_loaders`]: one policy, one
/// rank, one `Box<dyn DataLoader>` that cleans up after itself on drop.
///
/// # Errors
/// [`Unsupported`] when the policy cannot run the configuration.
///
/// # Panics
/// Panics unless `config.system.workers == 1` (a lone boxed loader
/// cannot coordinate the concurrent multi-rank shutdown; use
/// [`build_loaders`] for clusters).
pub fn build_loader(
    policy: PolicyId,
    config: JobConfig,
    sizes: Arc<Vec<u64>>,
    pfs: &Pfs,
) -> Result<Box<dyn DataLoader>, Unsupported> {
    assert_eq!(
        config.system.workers, 1,
        "build_loader is the single-worker factory; use build_loaders for clusters"
    );
    let mut set = build_loaders(policy, config, sizes, pfs)?;
    let inner = set.loaders.pop().expect("factory built one loader");
    Ok(Box::new(SoloLoader { inner: Some(inner) }))
}

/// Shutdown-on-drop wrapper for single-worker loaders.
struct SoloLoader {
    inner: Option<Box<dyn DataLoader>>,
}

impl SoloLoader {
    fn get(&self) -> &dyn DataLoader {
        self.inner.as_deref().expect("present until drop")
    }

    fn get_mut(&mut self) -> &mut dyn DataLoader {
        self.inner.as_deref_mut().expect("present until drop")
    }
}

impl DataLoader for SoloLoader {
    fn rank(&self) -> usize {
        self.get().rank()
    }

    fn epoch_len(&self) -> u64 {
        self.get().epoch_len()
    }

    fn total_len(&self) -> u64 {
        self.get().total_len()
    }

    fn batch_size(&self) -> usize {
        self.get().batch_size()
    }

    fn next_sample(&mut self) -> Option<(nopfs_core::SampleId, bytes::Bytes)> {
        self.get_mut().next_sample()
    }

    fn next_batch(&mut self) -> Option<Vec<(nopfs_core::SampleId, bytes::Bytes)>> {
        self.get_mut().next_batch()
    }

    fn stats(&self) -> nopfs_core::stats::WorkerStats {
        self.get().stats()
    }

    fn shutdown(&mut self) {
        self.get_mut().shutdown();
    }
}

impl Drop for SoloLoader {
    fn drop(&mut self) {
        if let Some(mut inner) = self.inner.take() {
            // World size 1: the shutdown barrier is trivially safe.
            inner.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use nopfs_core::stats::WorkerStats;
    use nopfs_core::SampleId;
    use nopfs_perfmodel::presets::fig8_small_cluster;
    use nopfs_perfmodel::{SystemSpec, ThroughputCurve};
    use nopfs_util::timing::TimeScale;

    fn system(workers: usize) -> SystemSpec {
        let mut sys = fig8_small_cluster();
        sys.workers = workers;
        sys.staging.capacity = 64_000;
        sys.staging.threads = 2;
        sys.classes[0].capacity = 40_000;
        sys.classes[1].capacity = 80_000;
        sys
    }

    fn setup(workers: usize, samples: u64) -> (JobConfig, Arc<Vec<u64>>, Pfs) {
        let config = JobConfig::new(23, 2, 4, system(workers), TimeScale::new(1e-6));
        let sizes = Arc::new(vec![500u64; samples as usize]);
        let pfs = Pfs::in_memory(ThroughputCurve::flat(1e12), TimeScale::new(1e-6));
        for id in 0..samples {
            pfs.put(id, Bytes::from(vec![(id % 256) as u8; 500]));
        }
        (config, sizes, pfs)
    }

    #[test]
    fn every_policy_runs_through_the_registry() {
        for policy in PolicyId::ALL {
            let (config, sizes, pfs) = setup(2, 32);
            let outcome = run_policy(policy, config, sizes, &pfs, |l| {
                let mut n = 0u64;
                while l.next_sample().is_some() {
                    n += 1;
                }
                n
            })
            .unwrap_or_else(|e| panic!("{policy}: {e}"));
            let total: u64 = outcome.per_worker.iter().sum();
            assert_eq!(total, 64, "{policy} must deliver F*E samples");
            assert_eq!(outcome.setup.is_some(), policy == PolicyId::NoPfs);
        }
    }

    #[test]
    fn build_loader_constructs_all_ten_policies_solo() {
        for policy in PolicyId::ALL {
            let (config, sizes, pfs) = setup(1, 16);
            let mut loader = build_loader(policy, config, sizes, &pfs)
                .unwrap_or_else(|e| panic!("{policy}: {e}"));
            assert_eq!(loader.rank(), 0);
            assert_eq!(loader.total_len(), 32);
            let mut n = 0u64;
            while loader.next_sample().is_some() {
                n += 1;
            }
            assert_eq!(n, 32, "{policy}");
        }
    }

    #[test]
    fn loader_set_drives_a_multi_worker_cluster() {
        for policy in [
            PolicyId::NoPfs,
            PolicyId::LbannDynamic,
            PolicyId::DeepIoOrdered,
        ] {
            let (config, sizes, pfs) = setup(2, 32);
            let mut set = build_loaders(policy, config, sizes, &pfs).expect("supported");
            assert_eq!(set.len(), 2);
            // Drive both ranks concurrently (as a harness would).
            let counts: Vec<u64> = std::thread::scope(|s| {
                set.iter_mut()
                    .map(|loader| {
                        s.spawn(move || {
                            let mut n = 0u64;
                            while loader.next_sample().is_some() {
                                n += 1;
                            }
                            n
                        })
                    })
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|h| h.join().expect("rank panicked"))
                    .collect()
            });
            assert_eq!(counts.iter().sum::<u64>(), 64, "{policy}");
            drop(set); // concurrent shutdown must not deadlock
        }
    }

    #[test]
    fn unsupported_configurations_are_errors_not_panics() {
        // 64 x 500 B = 32 KB > 2 x 4 KB of aggregate RAM.
        let (mut config, sizes, pfs) = setup(2, 64);
        config.system.classes[0].capacity = 4_000;
        let err = run_policy(PolicyId::LbannDynamic, config, sizes, &pfs, |_| ()).err();
        assert!(err.expect("infeasible").0.contains("aggregate"));
    }

    #[test]
    fn batches_flow_through_boxed_loaders() {
        let (config, sizes, pfs) = setup(1, 16);
        let mut loader = build_loader(PolicyId::StagingBuffer, config, sizes, &pfs).unwrap();
        let mut shapes = vec![];
        while let Some(b) = loader.next_batch() {
            shapes.push(b.len());
        }
        // 16 samples x 2 epochs, epoch len 16, batch 4.
        assert_eq!(shapes, vec![4; 8]);
    }

    fn tiered_system(ram_samples: u64, ssd_samples: u64, sample_bytes: u64) -> SystemSpec {
        let mut sys = fig8_small_cluster();
        sys.staging.capacity = 64 * sample_bytes;
        sys.staging.threads = 2;
        sys.classes[0].capacity = ram_samples * sample_bytes;
        sys.classes[1].capacity = ssd_samples * sample_bytes;
        sys
    }

    fn tiered_setup(
        n_samples: u64,
        sample_bytes: u64,
        sys: SystemSpec,
        epochs: u64,
    ) -> (JobConfig, Arc<Vec<u64>>, Pfs) {
        let config = JobConfig::new(17, epochs, 4, sys, TimeScale::new(1e-6));
        let sizes = Arc::new(vec![sample_bytes; n_samples as usize]);
        let pfs = Pfs::in_memory(ThroughputCurve::flat(1e12), TimeScale::new(1e-6));
        for id in 0..n_samples {
            pfs.put(
                id,
                Bytes::from(vec![(id % 256) as u8; sample_bytes as usize]),
            );
        }
        (config, sizes, pfs)
    }

    /// Drives `policy` through the registry and returns each rank's
    /// result of `f`.
    fn run<R: Send>(
        policy: PolicyId,
        (config, sizes, pfs): (JobConfig, Arc<Vec<u64>>, Pfs),
        f: impl Fn(&mut dyn DataLoader) -> R + Sync,
    ) -> Vec<R> {
        run_policy(policy, config, sizes, &pfs, f)
            .unwrap_or_else(|e| panic!("{policy}: {e}"))
            .per_worker
    }

    /// Consumes the whole stream, checking each payload, and returns
    /// the loader's statistics.
    fn drain(l: &mut dyn DataLoader) -> WorkerStats {
        while let Some((id, data)) = l.next_sample() {
            assert_eq!(data[0], (id % 256) as u8);
        }
        l.stats()
    }

    fn merged(stats: &[WorkerStats]) -> WorkerStats {
        let mut merged = WorkerStats::default();
        for s in stats {
            merged.merge(s);
        }
        merged
    }

    #[test]
    fn deep_io_ordered_serves_shards_and_pfs() {
        // RAM holds 8 samples per worker => 32 of 64 cached.
        let setup = tiered_setup(64, 1_000, tiered_system(8, 0, 1_000), 2);
        let merged = merged(&run(PolicyId::DeepIoOrdered, setup, drain));
        assert_eq!(merged.samples_consumed, 128);
        assert_eq!(merged.prestage_fetches, 32, "shards prestaged once");
        // Cached halves come from caches, uncached from the PFS.
        assert_eq!(merged.local_fetches + merged.remote_fetches, 64);
        assert_eq!(merged.pfs_fetches, 64);
    }

    #[test]
    fn deep_io_opportunistic_never_reads_pfs_after_prestage() {
        let setup = tiered_setup(64, 1_000, tiered_system(8, 0, 1_000), 2);
        let ids = run(PolicyId::DeepIoOpportunistic, setup, |l| {
            let mut got = vec![];
            while let Some((id, _)) = l.next_sample() {
                got.push(id);
            }
            (got, l.stats())
        });
        let (ids, stats): (Vec<_>, Vec<_>) = ids.into_iter().unzip();
        let seen: std::collections::HashSet<SampleId> = ids.into_iter().flatten().collect();
        assert_eq!(
            merged(&stats).pfs_fetches,
            0,
            "opportunistic mode avoids the PFS"
        );
        assert!(
            (seen.len() as u64) < 64,
            "substitution shrinks coverage: {} of 64",
            seen.len()
        );
    }

    #[test]
    fn parallel_staging_full_copy_is_all_local() {
        let setup = tiered_setup(40, 1_000, tiered_system(25, 25, 1_000), 2);
        for s in run(PolicyId::ParallelStaging, setup, drain) {
            assert_eq!(s.pfs_fetches, 0);
            assert_eq!(s.remote_fetches, 0);
            assert_eq!(s.prestage_fetches, 40, "full dataset staged per worker");
        }
    }

    #[test]
    fn lbann_preloading_is_owner_served_from_epoch_zero() {
        let setup = tiered_setup(64, 1_000, tiered_system(40, 0, 1_000), 2);
        let merged = merged(&run(PolicyId::LbannPreloading, setup, drain));
        assert_eq!(merged.prestage_fetches, 64, "store preloaded");
        assert_eq!(merged.pfs_fetches, 0, "epoch 0 already owner-served");
        assert_eq!(merged.local_fetches + merged.remote_fetches, 128);
    }

    #[test]
    fn lbann_dynamic_epoch0_pfs_then_owner_served() {
        // Each worker's RAM holds 78 samples: the store never fills.
        let setup = tiered_setup(64, 512, tiered_system(78, 0, 512), 3);
        let merged = merged(&run(PolicyId::LbannDynamic, setup, drain));
        // Epoch 0: all 64 from the PFS. Epochs 1-2: 128 owner-served.
        assert_eq!(merged.pfs_fetches, 64);
        assert_eq!(merged.local_fetches + merged.remote_fetches, 128);
        // First-touch means ~1/N local: remote must dominate at N=4.
        assert!(merged.remote_fetches > merged.local_fetches);
    }

    #[test]
    fn lbann_dynamic_store_full_falls_back_to_pfs() {
        // Aggregate memory fits exactly, but worker shares are uneven
        // enough that some inserts fail: the loader must still deliver
        // everything via the PFS fallback.
        let mut sys = tiered_system(0, 0, 512);
        sys.classes[0].capacity = 8_320; // 16.25 samples per worker
        let counts = run(PolicyId::LbannDynamic, tiered_setup(64, 512, sys, 2), |l| {
            std::iter::from_fn(|| l.next_sample()).count()
        });
        assert_eq!(counts.iter().sum::<usize>(), 128);
    }

    #[test]
    fn locality_aware_caches_first_touch_then_goes_local() {
        let setup = tiered_setup(64, 1_000, tiered_system(40, 40, 1_000), 3);
        let merged = merged(&run(PolicyId::LocalityAware, setup, drain));
        assert_eq!(merged.samples_consumed, 192);
        // Epoch 0 is all-PFS; afterwards the reassigned batches are
        // dominated by local hits.
        assert!(merged.pfs_fetches >= 64);
        assert!(
            merged.local_fetches > merged.remote_fetches,
            "reassignment should localize consumption: {merged:?}"
        );
    }

    #[test]
    fn early_stop_shuts_down_cleanly() {
        // A prestaging policy and one that starts reading at once.
        for policy in [PolicyId::DeepIoOrdered, PolicyId::StagingBuffer] {
            let setup = tiered_setup(400, 1_000, tiered_system(50, 50, 1_000), 3);
            let counts = run(policy, setup, |l| {
                (0..5).take_while(|_| l.next_sample().is_some()).count()
            });
            assert!(counts.iter().all(|&c| c == 5), "{policy}: {counts:?}");
        }
    }

    #[test]
    fn a_first_touch_fill_that_lands_late_is_still_owner_served() {
        // Two ranks whose RAM holds 78 samples each: every fill fits.
        let mut sys = tiered_system(78, 0, 512);
        sys.workers = 2;
        let (config, sizes, pfs) = tiered_setup(64, 512, sys, 2);
        // A sample rank 0 reads in epoch 1 from its owner, rank 1, whose
        // epoch-0 read of it fails 400 times first: that fill lands late.
        let spec = config.shuffle_spec(64);
        let core = nopfs_policy::core::LbannCore::new(&config.system, &sizes, &spec, false)
            .expect("the dataset fits the store");
        let streams = nopfs_policy::transformed_streams(Some(&core), &spec, 2);
        let k = streams[0][spec.worker_epoch_len(0) as usize..]
            .iter()
            .copied()
            .find(|&k| core.owner_of(k) == 1)
            .expect("rank 0 reads a sample of rank 1 in epoch 1");
        pfs.inject_fault(k, 400);
        let merged = merged(&run(PolicyId::LbannDynamic, (config, sizes, pfs), drain));
        assert_eq!(merged.pfs_fetches, 64, "epoch 0 only: {merged:?}");
        assert_eq!(merged.local_fetches + merged.remote_fetches, 64);
    }

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

    #[test]
    fn lbann_dynamic_asks_each_owner_once_per_run() {
        use nopfs_obs::{names, ObsCtx};
        // Two staging threads and a stage of 128 samples: runs of eight
        // positions, of epochs of 16 per rank. Epoch 1 is owner-served,
        // and a run's samples of one owner go out in one frame.
        let mut sys = tiered_system(78, 0, 512);
        sys.staging.capacity = 128 * 512;
        let (config, sizes, pfs) = tiered_setup(64, 512, sys, 2);
        let obs = ObsCtx::new();
        let config = config.with_obs(obs.clone());
        let merged = merged(&run(PolicyId::LbannDynamic, (config, sizes, pfs), drain));
        let frames = obs.snapshot().counter_total(names::WORKER_PEER_FRAMES);
        assert!(
            frames > 0 && frames < merged.remote_fetches,
            "{frames} frames for {merged:?}"
        );
    }
}
