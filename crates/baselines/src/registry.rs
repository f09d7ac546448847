//! The runtime loader factory: one dispatch point from [`PolicyId`] to
//! a working loader set, used by the solo runtime, the benches, and
//! the multi-tenant cluster.
//!
//! Every entry of `PolicyId::ALL` constructs here:
//!
//! | policy                  | runtime implementation                        |
//! |-------------------------|-----------------------------------------------|
//! | `Perfect`               | the no-I/O loader (pregenerated RAM data)     |
//! | `NoPfs`                 | `nopfs_core::Job`'s workers                   |
//! | every other baseline    | the plan loader over the policy's shared core |
//!
//! The plan loader's staging threads walk the core-transformed stream
//! and fetch from the source the core decides, so `StagingBuffer`
//! (PyTorch's double buffering, whose core reads every sample from the
//! PFS) runs on the same loader as the LBANN store and DeepIO, and so
//! does `Naive`, the same core read inline by `next_sample`.
//!
//! [`build_loaders`] is the one dispatch; [`LoaderSet::drive`] runs a
//! closure on every rank; [`run_policy`] is the two together.

use crate::noio::NoIoRunner;
use crate::plan_loader::PlanRunner;
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
        _ => boxed(PlanRunner::new(policy, config, sizes)?.launch_all(pfs)),
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
}
