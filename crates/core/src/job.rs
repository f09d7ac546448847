//! The `Job`: NoPFS's user-facing entry point (paper Fig. 7).
//!
//! A [`Job`] owns the clairvoyant precomputation — access streams,
//! frequency analysis, hierarchical placement — and spawns one worker
//! per rank of the in-process cluster, each with its own prefetchers,
//! caches, and serving loop. Integration mirrors the paper's three-line
//! change to a PyTorch script:
//!
//! ```
//! use nopfs_core::{Job, JobConfig, WorkerHandle};
//! use nopfs_perfmodel::presets::fig8_small_cluster;
//! use nopfs_util::timing::TimeScale;
//! use std::sync::Arc;
//!
//! let mut system = fig8_small_cluster();
//! system.workers = 2;
//! let config = JobConfig::new(42, 1, 4, system, TimeScale::new(1e-6));
//! let sizes = Arc::new(vec![1_000u64; 64]);
//! let job = Job::new(config, sizes.clone());
//!
//! // Materialize a dataset and train: every rank runs the loop on a
//! // thread of its own.
//! let pfs = job.make_pfs();
//! for id in 0..64u64 {
//!     pfs.put(id, bytes::Bytes::from(vec![id as u8; 1_000]));
//! }
//! let report = job.run_with(&pfs, |_workers| {
//!     |worker: &mut WorkerHandle| {
//!         while let Some((_id, _data)) = worker.next_sample() {
//!             // forward and backward pass
//!         }
//!     }
//! });
//! assert_eq!(report.stats.samples_consumed, 64);
//! ```
//!
//! [`Job::with_plan`] builds the same job under a [`FaultPlan`]:
//! crashes, churn and planted faults (see [`crate::elastic`]), each
//! stretch of the run launched as windows on the planned streams.

use crate::config::JobConfig;
use crate::msg::Msg;
use crate::stats::SetupStats;
use crate::worker::{Shared, WorkerHandle};
use nopfs_clairvoyance::engine::{fold_digest, SetupArtifacts, SetupPass};
use nopfs_clairvoyance::placement::GlobalPlacement;
use nopfs_net::{cluster, NetConfig};
use nopfs_pfs::Pfs;
use nopfs_policy::{FaultPlan, Unsupported};
use nopfs_storage::{DataSource, ObjectStoreConfig, ResilienceConfig, TierStack};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// A NoPFS job: clairvoyant precomputation, the fault plan it runs
/// under, and the worker launcher.
pub struct Job {
    /// The plan of the initial membership.
    pub(crate) shared: Arc<Shared>,
    pub(crate) plan: FaultPlan,
    /// The setup pass's artifacts, kept only when the plan changes the
    /// membership: a replan re-splits their streams.
    pub(crate) artifacts: Option<SetupArtifacts>,
    /// Object-store economics and resilience knobs of the origin chain
    /// when the plan carries a cloud clause, if not the defaults (see
    /// [`Job::with_cloud_origin`]).
    pub(crate) cloud_origin: Option<(ObjectStoreConfig, ResilienceConfig)>,
}

impl Job {
    /// Builds the fault-free job: [`Job::with_plan`] under
    /// [`FaultPlan::fault_free`].
    ///
    /// # Panics
    /// Panics on an empty dataset or inconsistent configuration.
    pub fn new(config: JobConfig, sizes: Arc<Vec<u64>>) -> Self {
        Self::with_plan(config, sizes, FaultPlan::fault_free())
            .expect("a fault-free plan fits every job")
    }

    /// Builds the job under `plan`: one single-pass [`SetupPass`] over
    /// the epoch shuffles derives every worker's access stream, stream
    /// digest, access frequencies, and storage-class assignment from the
    /// seed — the paper's "a few passes over the shuffles" made literal.
    /// Each epoch's shuffle is generated exactly once for the whole job
    /// (O(E·F) setup regardless of worker count); workers later verify
    /// the allgathered digests against these cached values instead of
    /// re-deriving any stream, and a membership change re-splits them
    /// without a second pass.
    ///
    /// `sizes[k]` is the size in bytes of sample `k`; the dataset later
    /// materialized in the PFS must match.
    ///
    /// # Errors
    /// [`Unsupported`] when the plan's churn would change the epoch
    /// length (`drop_last` truncation), schedules impossible crashes,
    /// or carries a malformed clause (see `FaultPlan::validate`).
    ///
    /// # Panics
    /// Panics on an empty dataset or inconsistent configuration.
    pub fn with_plan(
        config: JobConfig,
        sizes: Arc<Vec<u64>>,
        plan: FaultPlan,
    ) -> Result<Self, Unsupported> {
        assert!(!sizes.is_empty(), "dataset must contain samples");
        let spec = config.shuffle_spec(sizes.len() as u64);
        plan.validate(&spec, config.epochs)?;
        let workers = config.system.workers;
        let memberships = plan.memberships(workers, config.epochs);
        let churns = memberships.iter().any(|&n| n != workers);
        let setup_start = Instant::now();
        // All setup artifacts are pure functions of the seed; computed
        // once here and shared — every worker would derive the
        // identical values.
        let artifacts = SetupPass::new(spec, config.epochs).run();
        let mut shared = Shared::plan(config, sizes, &artifacts);
        shared.setup.setup_time = setup_start.elapsed();
        Ok(Self {
            shared: Arc::new(shared),
            plan,
            artifacts: churns.then_some(artifacts),
            cloud_origin: None,
        })
    }

    /// Overrides the cloud-origin economics and resilience knobs (only
    /// meaningful when the plan has a cloud clause; the clause's
    /// disturbances are layered onto `store` per rank).
    #[must_use]
    pub fn with_cloud_origin(mut self, store: ObjectStoreConfig, res: ResilienceConfig) -> Self {
        self.cloud_origin = Some((store, res));
        self
    }

    /// The job's configuration.
    pub fn config(&self) -> &JobConfig {
        &self.shared.config
    }

    /// The computed cluster-wide placement.
    pub fn placement(&self) -> &GlobalPlacement {
        &self.shared.placement
    }

    /// Statistics of the clairvoyant setup phase: how many epoch
    /// shuffles were generated (exactly `E` on the single-pass path)
    /// and how long precomputation took.
    pub fn setup_stats(&self) -> &SetupStats {
        &self.shared.setup
    }

    /// Convenience: an in-memory synthetic PFS matching the job's
    /// system curve and time scale.
    ///
    /// This is the single-tenant convenience only — the launchers
    /// accept **any** injected [`Pfs`] handle, which is how
    /// `nopfs_cluster` co-schedules several jobs on one shared
    /// filesystem (each receiving a [`Pfs::namespaced`] view of it).
    pub fn make_pfs(&self) -> Pfs {
        Pfs::in_memory(
            self.shared.config.system.pfs_read.clone(),
            self.shared.config.scale,
        )
    }

    /// Launches one worker per rank of the initial membership, each on
    /// its whole planned stream, and returns the handles — the entry
    /// point the workspace loader factory (`nopfs_baselines::registry`)
    /// uses to hand NoPFS out as `Box<dyn DataLoader>` objects. The
    /// fault plan is [`Job::run_with`]'s; this launch ignores it.
    ///
    /// The injected `pfs` is the job's *resource boundary*: workers
    /// build everything else (caches, staging buffers, the in-process
    /// interconnect) privately, but all PFS reads pace through this
    /// handle's shared `t(γ)` regulator. Handing co-scheduled jobs
    /// namespaced views of one `Pfs` therefore reproduces cross-job
    /// I/O contention with no other coupling — and the workers' live
    /// source selection (which prices PFS fetches at the *observed*
    /// reader count) automatically accounts for other tenants' traffic.
    ///
    /// Launching blocks until every rank has passed the setup
    /// allgather, so the returned handles are immediately consumable
    /// from any threads (or sequentially). Shut them down concurrently
    /// — one thread per handle, as [`WorkerHandle::shutdown`] documents
    /// — or hand them to a harness that does (the registry's
    /// `LoaderSet`).
    pub fn launch_workers(&self, pfs: &Pfs) -> Vec<WorkerHandle> {
        let whole = self.shared.streams.iter().map(|s| 0..s.len() as u64);
        launch(&self.shared, pfs, whole.collect(), |rank| {
            rank_stack(self.config(), Arc::new(pfs.clone()), rank)
        })
    }
}

/// Rank `rank`'s storage hierarchy over `origin`: the class tiers of
/// `config`'s system, counting into the rank-scoped registry.
pub(crate) fn rank_stack(
    config: &JobConfig,
    origin: Arc<dyn DataSource>,
    rank: usize,
) -> TierStack {
    let obs = config.obs.scoped([("rank", rank.to_string())]);
    crate::tiers::class_tier_stack_in_registry(&config.system, config.scale, origin, &obs.registry)
}

/// Launches one worker per rank of `shared` on its window
/// `windows[rank]` of the planned stream (see [`WorkerHandle::launch`])
/// over the stack `stack(rank)` builds on the rank's launch thread, on a
/// fresh in-process interconnect, and returns once every rank has
/// passed the setup allgather. A window's digest is the setup pass's
/// when it is the whole stream, the engine's fold over its ids
/// otherwise.
pub(crate) fn launch(
    shared: &Arc<Shared>,
    pfs: &Pfs,
    windows: Vec<Range<u64>>,
    stack: impl Fn(usize) -> TierStack + Sync,
) -> Vec<WorkerHandle> {
    let digests: Vec<u64> = windows
        .iter()
        .enumerate()
        .map(|(w, window)| {
            let stream = &shared.streams[w];
            if *window == (0..stream.len() as u64) {
                return shared.digests[w];
            }
            let ids = &stream[window.start as usize..window.end as usize];
            fold_digest(w, ids.iter().copied())
        })
        .collect();
    let endpoints = cluster::<Msg>(
        shared.config.system.workers,
        NetConfig::new(shared.config.system.interconnect, shared.config.scale),
    );
    let (digests, stack) = (&digests, &stack);
    // The launches must overlap: each blocks in the setup allgather
    // until all ranks have joined it.
    std::thread::scope(|s| {
        let threads: Vec<_> = endpoints
            .into_iter()
            .zip(windows)
            .enumerate()
            .map(|(rank, (endpoint, window))| {
                let shared = Arc::clone(shared);
                let pfs = pfs.clone();
                s.spawn(move || {
                    let tiers = stack(rank);
                    WorkerHandle::launch(rank, shared, window, digests, pfs, endpoint, tiers)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("worker launch panicked"))
            .collect()
    })
}

/// One thread per handle that calls `f` with it and shuts the worker
/// down when `f` returns; the per-rank results of `f`, in rank order.
pub(crate) fn run_ranks<R, F>(handles: Vec<WorkerHandle>, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&mut WorkerHandle) -> R + Sync,
{
    let f = &f;
    std::thread::scope(|s| {
        let ranks: Vec<_> = handles
            .into_iter()
            .map(|mut handle| {
                s.spawn(move || {
                    let result = f(&mut handle);
                    handle.shutdown();
                    result
                })
            })
            .collect();
        ranks
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::WorkerStats;
    use bytes::Bytes;
    use nopfs_perfmodel::presets::fig8_small_cluster;
    use nopfs_perfmodel::SystemSpec;
    use nopfs_util::timing::TimeScale;

    /// A small 4-worker system with fast substrates (compressed time).
    fn small_system() -> SystemSpec {
        let mut sys = fig8_small_cluster();
        sys.staging.capacity = 64 * 1_000; // 64 samples of 1 KB
        sys.staging.threads = 4;
        sys.classes[0].capacity = 40 * 1_000;
        sys.classes[1].capacity = 80 * 1_000;
        sys
    }

    /// Sample `id`'s content: `size` bytes that encode the id, for
    /// integrity checking.
    fn payload(id: u64, size: u64) -> Bytes {
        let mut v = vec![0u8; size as usize];
        v[0] = (id % 256) as u8;
        if size >= 2 {
            v[1] = ((id / 256) % 256) as u8;
        }
        Bytes::from(v)
    }

    fn materialize(pfs: &Pfs, sizes: &[u64]) {
        for (id, &s) in (0..).zip(sizes) {
            pfs.put(id, payload(id, s));
        }
    }

    fn run_job(epochs: u64, num_samples: usize) -> (Vec<Vec<u64>>, Vec<WorkerStats>, u64) {
        let sizes = Arc::new(vec![1_000u64; num_samples]);
        let config = JobConfig::new(77, epochs, 8, small_system(), TimeScale::new(1e-6));
        let job = Job::new(config, Arc::clone(&sizes));
        let pfs = job.make_pfs();
        materialize(&pfs, &sizes);
        let out = run_ranks(job.launch_workers(&pfs), |w| {
            let mut ids = Vec::new();
            while let Some((id, data)) = w.next_sample() {
                assert_eq!(data[0], (id % 256) as u8, "corrupt sample {id}");
                assert_eq!(data.len(), 1_000);
                ids.push(id);
            }
            (ids, w.stats())
        });
        let (ids, stats): (Vec<_>, Vec<_>) = out.into_iter().unzip();
        (ids, stats, pfs.stats().reads)
    }

    #[test]
    fn delivers_every_sample_once_per_epoch_in_stream_order() {
        let epochs = 3;
        let f = 100usize;
        let (per_worker, _, _) = run_job(epochs, f);
        // Exact stream-order delivery, verified against clairvoyance.
        let config = JobConfig::new(77, epochs, 8, small_system(), TimeScale::new(1e-6));
        let spec = config.shuffle_spec(f as u64);
        for (w, got) in per_worker.iter().enumerate() {
            let expect =
                nopfs_clairvoyance::stream::AccessStream::new(spec, w, epochs).materialize();
            assert_eq!(got, &expect, "worker {w} deviated from its stream");
        }
        // Exactly-once per epoch across the cluster.
        let mut counts = vec![0u32; f];
        for ids in &per_worker {
            for &id in ids {
                counts[id as usize] += 1;
            }
        }
        assert!(counts.iter().all(|&c| c == epochs as u32));
    }

    #[test]
    fn stats_cover_all_fetches_and_report_cache_use() {
        let (per_worker, stats, pfs_reads) = run_job(4, 120);
        let total_consumed: u64 = per_worker.iter().map(|v| v.len() as u64).sum();
        let mut merged = stats[0].clone();
        for s in &stats[1..] {
            merged.merge(s);
        }
        assert_eq!(merged.samples_consumed, total_consumed);
        assert_eq!(merged.total_fetches(), total_consumed);
        // Multi-epoch run over a cacheable dataset: caches must serve a
        // meaningful share after epoch 0.
        assert!(
            merged.local_fetches + merged.remote_fetches > total_consumed / 4,
            "caches barely used: {merged:?}"
        );
        // The PFS itself must have been read (class prefetchers fill
        // from it even when staging never misses).
        assert!(pfs_reads > 0, "nothing ever read the PFS");
    }

    #[test]
    fn batches_respect_epoch_boundaries() {
        let sizes = Arc::new(vec![500u64; 50]);
        let config = JobConfig::new(9, 2, 8, small_system(), TimeScale::new(1e-6));
        let job = Job::new(config, Arc::clone(&sizes));
        let pfs = job.make_pfs();
        materialize(&pfs, &sizes);
        let batch_shapes = run_ranks(job.launch_workers(&pfs), |w| {
            let mut shapes = Vec::new();
            while let Some(batch) = w.next_batch() {
                shapes.push(batch.len());
            }
            shapes
        });
        for (w, shapes) in batch_shapes.iter().enumerate() {
            // 50 samples / 4 workers: workers 0,1 get 13/epoch, 2,3 get 12.
            let epoch_len = if w < 2 { 13 } else { 12 };
            let per_epoch: Vec<usize> = if epoch_len == 13 {
                vec![8, 5]
            } else {
                vec![8, 4]
            };
            let mut expect = per_epoch.clone();
            expect.extend(per_epoch);
            assert_eq!(shapes, &expect, "worker {w}");
        }
    }

    #[test]
    fn batch_consumer_keeps_the_per_sample_accounting() {
        use nopfs_obs::{names, ObsCtx};
        let (epochs, f) = (3u64, 50usize);
        let sizes = Arc::new(vec![500u64; f]);
        let obs = ObsCtx::traced();
        let config = JobConfig::new(9, epochs, 8, small_system(), TimeScale::new(1e-6))
            .with_obs(obs.clone());
        let job = Job::new(config, Arc::clone(&sizes));
        let pfs = job.make_pfs();
        materialize(&pfs, &sizes);
        let per_rank = run_ranks(job.launch_workers(&pfs), |w| {
            let mut batches = 0usize;
            while w.next_batch().is_some() {
                batches += 1;
            }
            (batches, w.stats())
        });
        let batches: usize = per_rank.iter().map(|(b, _)| b).sum();
        let consumed: u64 = per_rank.iter().map(|(_, s)| s.samples_consumed).sum();
        assert_eq!(consumed, epochs * f as u64, "one count per sample");
        let events = obs.tracer.export();
        let count_of = |name: &str| events.iter().filter(|e| e.name == name).count();
        assert_eq!(
            count_of(names::EV_EPOCH),
            per_rank.len() * epochs as usize,
            "one instant per rank and epoch"
        );
        assert!(
            count_of(names::EV_STALL) <= batches,
            "at most one stall span per batch"
        );
        let waits = obs
            .snapshot()
            .histograms
            .iter()
            .filter(|h| h.name == names::WORKER_STALL_LATENCY)
            .map(|h| h.value.count)
            .sum::<u64>();
        assert_eq!(waits, batches as u64, "one stall observation per batch");
    }

    #[test]
    fn survives_transient_pfs_faults() {
        let sizes = Arc::new(vec![1_000u64; 40]);
        let config = JobConfig::new(5, 1, 4, small_system(), TimeScale::new(1e-6));
        let job = Job::new(config, Arc::clone(&sizes));
        let pfs = job.make_pfs();
        materialize(&pfs, &sizes);
        // Several samples fail twice before succeeding.
        for id in [3u64, 17, 29] {
            pfs.inject_fault(id, 2);
        }
        let counts = run_ranks(job.launch_workers(&pfs), |w| w.by_ref().count());
        assert_eq!(counts.iter().sum::<usize>(), 40);
    }

    #[test]
    fn early_stop_shuts_down_cleanly() {
        let sizes = Arc::new(vec![1_000u64; 200]);
        let config = JobConfig::new(3, 5, 8, small_system(), TimeScale::new(1e-6));
        let job = Job::new(config, Arc::clone(&sizes));
        let pfs = job.make_pfs();
        materialize(&pfs, &sizes);
        // Every worker stops after 10 samples; shutdown must not hang.
        let got = run_ranks(job.launch_workers(&pfs), |w| {
            let mut n = 0;
            for _ in 0..10 {
                if w.next_sample().is_none() {
                    break;
                }
                n += 1;
            }
            n
        });
        assert_eq!(got, vec![10, 10, 10, 10]);
    }

    #[test]
    fn heuristic_false_positives_are_rare() {
        // The paper: "we confirmed that, in practice, there are very
        // few false positives."
        let (_, stats, _) = run_job(4, 120);
        let mut merged = stats[0].clone();
        for s in &stats[1..] {
            merged.merge(s);
        }
        let attempts = merged.remote_fetches + merged.false_positives;
        if attempts > 0 {
            let fp_rate = merged.false_positives as f64 / attempts as f64;
            assert!(
                fp_rate < 0.25,
                "false-positive rate {fp_rate} too high ({merged:?})"
            );
        }
    }

    /// Two workers on an unpaced system whose RAM class holds half of
    /// `sizes` each (and a little slack) and nothing else: what a worker
    /// does not hold, its peer does.
    fn two_halves_system(sizes: &[u64]) -> SystemSpec {
        let total: u64 = sizes.iter().sum();
        let mut sys = fig8_small_cluster();
        sys.workers = 2;
        sys.compute = 1e12;
        sys.staging.capacity = total;
        sys.staging.threads = 1;
        sys.classes[0].capacity = total / 2 + 2 * sizes[0];
        sys.classes[1].capacity = 0;
        sys
    }

    /// Consumes `w` to the end, checking every payload, and returns the
    /// ids delivered — once the class prefetchers of every rank are
    /// through with their fill lists: each rank waits for its own, then
    /// for the others at a barrier. The staging threads, a stage's
    /// worth and a run per thread ahead of the consumer at most, then
    /// find every peer's share cached for the rest of the stream,
    /// however the threads were scheduled before.
    fn drain_checked(w: &mut WorkerHandle, sizes: &[u64]) -> Vec<u64> {
        // Ends when a prefetcher dies, too: `shutdown` then fails.
        while !w.prefetch_done() {
            std::thread::yield_now();
        }
        w.barrier();
        let mut ids = Vec::new();
        while let Some(batch) = w.next_batch() {
            for (id, data) in batch {
                assert_eq!(data, payload(id, sizes[id as usize]), "corrupt sample {id}");
                ids.push(id);
            }
        }
        ids
    }

    fn expected_stream(job: &Job, f: usize, rank: usize) -> Vec<u64> {
        let config = job.config();
        let spec = config.shuffle_spec(f as u64);
        nopfs_clairvoyance::stream::AccessStream::new(spec, rank, config.epochs).materialize()
    }

    /// The stream positions per staging claim of `job`'s rank `rank`.
    fn run_len(job: &Job, rank: usize) -> u64 {
        let epoch_len = job.shared.spec.worker_epoch_len(rank);
        crate::worker::stage_run_len(&job.config().system, &job.shared.sizes, epoch_len)
    }

    #[test]
    fn peer_fetches_go_out_as_one_frame_per_owner_per_run() {
        use nopfs_obs::{names, ObsCtx};
        // N = 2: one possible owner, so at most one frame per run; then
        // N = 4 with two staging threads (two reply channels), where a
        // run asks up to three owners. A stage of a dataset's worth per
        // thread: runs of twelve either way.
        for (workers, threads) in [(2, 1), (4, 2)] {
            let sizes = Arc::new(vec![1_000u64; 96]);
            let mut sys = two_halves_system(&sizes);
            sys.workers = workers;
            sys.staging.threads = threads;
            sys.staging.capacity *= u64::from(threads);
            let obs = ObsCtx::new();
            let config = JobConfig::new(31, 12, 8, sys, TimeScale::new(1e-6)).with_obs(obs.clone());
            let job = Job::new(config, Arc::clone(&sizes));
            let run_len = run_len(&job, 0);
            assert_eq!(run_len, 12);
            let pfs = job.make_pfs();
            materialize(&pfs, &sizes);
            let out = run_ranks(job.launch_workers(&pfs), |w| {
                (w.rank(), drain_checked(w, &sizes), w.stats())
            });
            let mut merged = WorkerStats::default();
            let mut runs = 0;
            for (rank, ids, stats) in &out {
                assert_eq!(ids, &expected_stream(&job, sizes.len(), *rank));
                runs += (ids.len() as u64).div_ceil(run_len);
                merged.merge(stats);
            }
            assert_eq!(merged.total_fetches(), merged.samples_consumed);
            assert!(merged.remote_fetches > 0, "{merged:?}");
            let asked = merged.remote_fetches + merged.false_positives;
            let frames = obs.snapshot().counter_total(names::WORKER_PEER_FRAMES);
            assert!(
                frames >= asked.div_ceil(run_len) && frames <= asked,
                "{frames} frames for {asked} samples"
            );
            assert!(
                frames <= runs * (workers as u64 - 1),
                "{frames} frames in {runs} runs"
            );
        }
    }

    #[test]
    fn a_preset_stage_over_a_small_dataset_splits_each_epoch_between_the_threads() {
        use nopfs_obs::{names, ArgValue, ObsCtx};
        // The preset's own 5 GB stage and eight staging threads, four
        // ranks, 200 samples of 10 KB: an eighth of the stage per thread
        // would be runs of 7 812 positions, more than a rank's whole
        // stream of 150. Runs are an eighth of a 50-sample epoch instead.
        let sizes = Arc::new(vec![10_000u64; 200]);
        let obs = ObsCtx::traced();
        let config = JobConfig::new(51, 3, 8, fig8_small_cluster(), TimeScale::new(1e-6))
            .with_obs(obs.clone());
        let job = Job::new(config, Arc::clone(&sizes));
        let pfs = job.make_pfs();
        materialize(&pfs, &sizes);
        let out = run_ranks(job.launch_workers(&pfs), |w| {
            (w.rank(), drain_checked(w, &sizes))
        });
        let mut bases = Vec::new();
        for (rank, ids) in &out {
            assert_eq!(ids, &expected_stream(&job, sizes.len(), *rank));
            let run_len = run_len(&job, *rank);
            assert_eq!(run_len, 7);
            bases.extend((0..ids.len() as u64).step_by(run_len as usize));
        }
        // One fetch span per run the staging threads claimed.
        let mut spans: Vec<u64> = obs
            .tracer
            .export()
            .iter()
            .filter(|e| e.name == names::EV_FETCH)
            .map(|e| match e.args.iter().find(|(k, _)| *k == "base") {
                Some((_, ArgValue::Num(base))) => *base as u64,
                other => panic!("a fetch span without its base: {other:?}"),
            })
            .collect();
        spans.sort_unstable();
        bases.sort_unstable();
        assert_eq!(spans, bases);
    }

    #[test]
    fn a_run_that_holds_a_remote_sample_twice_gets_it_twice() {
        // Epochs of six samples per worker and a stage of 40 samples:
        // most runs of five straddle an epoch boundary, and whatever a
        // worker reads on both sides of it is in the run twice.
        let sizes = Arc::new(vec![1_000u64; 12]);
        let mut sys = two_halves_system(&sizes);
        sys.staging.capacity = 40 * sizes[0];
        let config = JobConfig::new(32, 120, 4, sys, TimeScale::new(1e-6));
        let job = Job::new(config, Arc::clone(&sizes));
        let run_len = run_len(&job, 0);
        assert_eq!(run_len, 5);
        let placement = job.placement();
        let held_by_the_peer_only = |rank: usize, k: u64| {
            let holders = placement.holders(k);
            !holders.is_empty() && holders.iter().all(|&(o, _)| o != rank)
        };
        let twice_remote = expected_stream(&job, sizes.len(), 0)
            .chunks(run_len as usize)
            .filter(|run| {
                run.iter()
                    .enumerate()
                    .any(|(i, &k)| held_by_the_peer_only(0, k) && run[..i].contains(&k))
            })
            .count();
        assert!(
            twice_remote > 10,
            "the stream has no such run: {twice_remote}"
        );
        let pfs = job.make_pfs();
        materialize(&pfs, &sizes);
        let out = run_ranks(job.launch_workers(&pfs), |w| {
            (w.rank(), drain_checked(w, &sizes), w.stats())
        });
        for (rank, ids, stats) in out {
            assert_eq!(ids, expected_stream(&job, sizes.len(), rank));
            assert_eq!(stats.total_fetches(), stats.samples_consumed);
            assert!(stats.remote_fetches > 0, "{stats:?}");
        }
    }

    #[test]
    fn unanswered_frames_are_booked_as_false_positives_and_read_from_the_origin() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let sizes = Arc::new(vec![1_000u64; 64]);
        let config = JobConfig::new(33, 4, 8, two_halves_system(&sizes), TimeScale::new(1e-6));
        let job = Job::new(config, Arc::clone(&sizes));
        let pfs = job.make_pfs();
        materialize(&pfs, &sizes);
        let mut eps = cluster::<Msg>(2, NetConfig::new(1e12, TimeScale::new(1e-6)));
        let ep1 = eps.pop().expect("rank 1");
        let ep0 = eps.pop().expect("rank 0");
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            // Rank 1 joins the setup, drain and shutdown barriers, but is
            // no worker: every frame that reaches it is dropped unanswered.
            s.spawn(|| {
                ep1.allgather(Msg::Digest(job.shared.digests[1]))
                    .expect("rank 0 is alive");
                ep1.barrier();
                ep1.barrier();
                while !done.load(Ordering::SeqCst) {
                    drop(ep1.recv_timeout(std::time::Duration::from_millis(1)));
                }
                ep1.barrier();
            });
            let whole = 0..job.shared.streams[0].len() as u64;
            let tiers = rank_stack(job.config(), Arc::new(pfs.clone()), 0);
            let digests = &job.shared.digests;
            let shared = Arc::clone(&job.shared);
            let mut w = WorkerHandle::launch(0, shared, whole, digests, pfs.clone(), ep0, tiers);
            let ids = drain_checked(&mut w, &sizes);
            done.store(true, Ordering::SeqCst);
            w.shutdown();
            assert_eq!(ids, expected_stream(&job, sizes.len(), 0));
            let stats = w.stats();
            assert!(stats.false_positives > 0, "{stats:?}");
            assert_eq!(stats.remote_fetches, 0);
            assert!(stats.pfs_fetches >= stats.false_positives);
            assert_eq!(stats.total_fetches(), stats.samples_consumed);
        });
    }

    #[test]
    fn shutdown_with_a_frame_in_flight_joins_cleanly() {
        use nopfs_obs::{names, ObsCtx};
        // Real time and an interconnect that takes 4 ms per frame, in
        // front of a PFS slower still: once the caches are filled the
        // staging threads are in a frame exchange most of the time.
        let sizes = Arc::new(vec![2_000u64; 64]);
        let mut sys = two_halves_system(&sizes);
        sys.interconnect = 4.0e6;
        sys.pfs_read = nopfs_perfmodel::ThroughputCurve::flat(2.0e6);
        let obs = ObsCtx::new();
        let config = JobConfig::new(34, 50, 8, sys, TimeScale::realtime()).with_obs(obs.clone());
        let job = Job::new(config, Arc::clone(&sizes));
        let pfs = job.make_pfs();
        materialize(&pfs, &sizes);
        run_ranks(job.launch_workers(&pfs), |w| {
            // `run_ranks` shuts the worker down as soon as a frame has gone out.
            while obs.snapshot().counter_total(names::WORKER_PEER_FRAMES) == 0 {
                w.next_batch()
                    .expect("a frame goes out before the stream ends");
            }
        });
    }

    /// One worker on an unpaced system whose RAM and SSD classes hold
    /// two fifths and three fifths of `sizes`: every sample is cached
    /// locally, in one tier or the other. A stage of 128 samples: runs
    /// of 16.
    fn ram_and_ssd_system(sizes: &[u64]) -> SystemSpec {
        let total: u64 = sizes.iter().sum();
        let mut sys = fig8_small_cluster();
        sys.workers = 1;
        sys.compute = 1e12;
        sys.staging.capacity = 128 * sizes[0];
        sys.staging.threads = 1;
        sys.classes[0].capacity = total * 2 / 5;
        sys.classes[1].capacity = total - total * 2 / 5;
        sys
    }

    /// The lone rank of `job` launched over a hierarchy that starts
    /// warm — every sample filled into the class the plan assigns it
    /// to, so the prefetchers have nothing to do — except that the
    /// `stale` samples have since left their tier without the catalog
    /// being told: `locate` still names the tier when the staging
    /// thread picks a source. The tiers count into the job's registry.
    fn launch_warm(job: &Job, pfs: &Pfs, stale: &[u64]) -> WorkerHandle {
        let config = job.config();
        let tiers = crate::class_tier_stack_in_registry(
            &config.system,
            config.scale,
            Arc::new(pfs.clone()),
            &config.obs.registry,
        );
        let assignment = job.placement().assignment(0);
        for k in 0..job.shared.sizes.len() as u64 {
            let class = assignment
                .class_of(k)
                .expect("the classes hold the dataset");
            let data = pfs.read(k).expect("materialized");
            tiers.fill(class as usize, k, data).expect("planned to fit");
        }
        for &k in stale {
            let tier = tiers.locate(k).expect("just filled");
            assert!(tiers.source(tier).evict(k));
            assert_eq!(tiers.locate(k), Some(tier));
        }
        let endpoint = cluster::<Msg>(1, NetConfig::new(config.system.interconnect, config.scale))
            .pop()
            .expect("rank 0");
        let whole = 0..job.shared.streams[0].len() as u64;
        let shared = Arc::clone(&job.shared);
        WorkerHandle::launch(
            0,
            shared,
            whole,
            &job.shared.digests,
            pfs.clone(),
            endpoint,
            tiers,
        )
    }

    #[test]
    fn a_run_with_picks_in_two_tiers_is_one_sweep_per_tier() {
        use nopfs_obs::{names, ObsCtx};
        let sizes = Arc::new(vec![1_000u64; 80]);
        // Cold through `run_ranks`, where the class prefetchers fill the tiers
        // while the staging thread reads them; then over a hierarchy
        // filled before the launch.
        for warm in [false, true] {
            let obs = ObsCtx::new();
            let config = JobConfig::new(41, 6, 8, ram_and_ssd_system(&sizes), TimeScale::new(1e-6))
                .with_obs(obs.clone());
            let job = Job::new(config, Arc::clone(&sizes));
            let run_len = run_len(&job, 0);
            assert_eq!(run_len, 16);
            let assignment = job.placement().assignment(0);
            let stream = expected_stream(&job, sizes.len(), 0);
            let runs = stream.chunks(run_len as usize);
            let in_both = runs
                .clone()
                .filter(|run| {
                    [0, 1]
                        .iter()
                        .all(|&c| run.iter().any(|&k| assignment.class_of(k) == Some(c)))
                })
                .count();
            assert!(in_both > runs.len() / 2, "{in_both} of {} runs", runs.len());
            let pfs = job.make_pfs();
            materialize(&pfs, &sizes);
            let (ids, stats, tiers) = if warm {
                let mut w = launch_warm(&job, &pfs, &[]);
                let ids = drain_checked(&mut w, &sizes);
                w.shutdown();
                (ids, w.stats(), w.tier_stats())
            } else {
                let mut out = run_ranks(job.launch_workers(&pfs), |w| {
                    (drain_checked(w, &sizes), w.stats(), w.tier_stats())
                });
                out.pop().expect("one rank")
            };
            assert_eq!(ids, stream);
            assert_eq!(stats.total_fetches(), stats.samples_consumed);
            assert_eq!(stats.remote_fetches, 0);
            assert_eq!(stats.local_fetches, tiers[0].hits + tiers[1].hits);
            let snap = obs.snapshot();
            let fill_waits = snap.counter_total(names::WORKER_STAGING_FILL_WAITS);
            if warm {
                // Every sample is served by the tier that holds it.
                assert_eq!(stats.local_fetches, stats.samples_consumed, "{stats:?}");
                assert_eq!(fill_waits, 0);
            } else {
                // Once the prefetchers have filled the tiers, every
                // sample is served by the tier that holds it.
                assert!(
                    stats.local_fetches > stats.samples_consumed / 2,
                    "{stats:?}"
                );
            }
            // One latency observation per sweep that hit: warm, exactly
            // one per tier and run that holds one of the tier's samples,
            // where a read per sample would leave one per hit. Cold, the
            // runs before the fills read some samples from the origin,
            // and a sample whose fill was in flight is read alone once
            // the fill has landed.
            for (j, tier) in tiers[..2].iter().enumerate() {
                let sweeps: u64 = snap
                    .histograms
                    .iter()
                    .filter(|h| h.name == names::TIER_READ_LATENCY)
                    .filter(|h| h.labels.iter().any(|(k, v)| k == "tier" && *v == tier.name))
                    .map(|h| h.value.count)
                    .sum();
                let in_tier = |k: &u64| assignment.class_of(*k) == Some(j as u8);
                let runs_in_tier =
                    runs.clone().filter(|run| run.iter().any(in_tier)).count() as u64;
                let picks = stream.iter().filter(|k| in_tier(k)).count() as u64;
                let counts = format!(
                    "tier {j}: {sweeps} observations, {} hits; {runs_in_tier} runs, {picks} picks, \
                     {fill_waits} fill waits",
                    tier.hits
                );
                if warm {
                    assert_eq!((sweeps, tier.hits), (runs_in_tier, picks), "{counts}");
                } else {
                    assert!(sweeps > 0 && sweeps < tier.hits, "{counts}");
                    assert!(sweeps <= runs_in_tier + fill_waits, "{counts}");
                    assert!(tier.hits <= picks, "{counts}");
                }
            }
        }
    }

    #[test]
    fn a_sample_gone_from_its_tier_behind_the_catalog_is_read_from_the_origin() {
        let sizes = Arc::new(vec![1_000u64; 80]);
        let config = JobConfig::new(42, 1, 8, ram_and_ssd_system(&sizes), TimeScale::new(1e-6));
        let job = Job::new(config, Arc::clone(&sizes));
        let pfs = job.make_pfs();
        materialize(&pfs, &sizes);
        let gone = [3u64, 4, 40, 77];
        let mut w = launch_warm(&job, &pfs, &gone);
        let mut ids = Vec::new();
        while let Some(batch) = w.next_batch() {
            for (id, data) in batch {
                assert_eq!(data[0], (id % 256) as u8, "corrupt sample {id}");
                ids.push(id);
            }
        }
        w.shutdown();
        // One epoch reads every sample once: the four stale entries are
        // booked as PFS fetches, in runs whose other samples the same
        // sweep served, and the stream is whole.
        assert_eq!(ids, expected_stream(&job, sizes.len(), 0));
        let stats = w.stats();
        assert_eq!(stats.pfs_fetches, gone.len() as u64, "{stats:?}");
        assert_eq!(stats.local_fetches, (sizes.len() - gone.len()) as u64);
        assert_eq!(stats.total_fetches(), stats.samples_consumed);
        let misses: u64 = w.tier_stats()[..2].iter().map(|t| t.misses).sum();
        assert_eq!(misses, gone.len() as u64);
    }

    #[test]
    fn single_worker_runs_without_peers() {
        let mut sys = small_system();
        sys.workers = 1;
        let sizes = Arc::new(vec![800u64; 30]);
        let config = JobConfig::new(2, 2, 4, sys, TimeScale::new(1e-6));
        let job = Job::new(config, Arc::clone(&sizes));
        let pfs = job.make_pfs();
        materialize(&pfs, &sizes);
        let counts = run_ranks(job.launch_workers(&pfs), |w| w.by_ref().count());
        assert_eq!(counts, vec![60]);
    }

    #[test]
    fn two_jobs_share_one_pfs_via_namespaces() {
        // The multi-tenant injection contract: two independent jobs,
        // each handed a namespaced view of ONE shared PFS, both deliver
        // every one of their own samples exactly once per epoch with no
        // cross-tenant bleed.
        let shared = Pfs::in_memory(
            nopfs_perfmodel::ThroughputCurve::flat(1e12),
            TimeScale::new(1e-6),
        );
        let sizes_a = Arc::new(vec![1_000u64; 48]);
        let sizes_b = Arc::new(vec![1_000u64; 32]);
        let pfs_a = shared.namespaced(0);
        let pfs_b = shared.namespaced(48);
        materialize(&pfs_a, &sizes_a);
        materialize(&pfs_b, &sizes_b);
        std::thread::scope(|s| {
            let a = s.spawn(|| {
                let config = JobConfig::new(1, 2, 8, small_system(), TimeScale::new(1e-6));
                let job = Job::new(config, Arc::clone(&sizes_a));
                run_ranks(job.launch_workers(&pfs_a), |w| {
                    let mut n = 0u64;
                    while let Some((id, data)) = w.next_sample() {
                        assert!(id < 48, "tenant A got foreign sample {id}");
                        assert_eq!(data[0], (id % 256) as u8);
                        n += 1;
                    }
                    n
                })
                .iter()
                .sum::<u64>()
            });
            let b = s.spawn(|| {
                let config = JobConfig::new(2, 2, 8, small_system(), TimeScale::new(1e-6));
                let job = Job::new(config, Arc::clone(&sizes_b));
                run_ranks(job.launch_workers(&pfs_b), |w| {
                    let mut n = 0u64;
                    while let Some((id, data)) = w.next_sample() {
                        assert!(id < 32, "tenant B got foreign sample {id}");
                        assert_eq!(data[0], (id % 256) as u8);
                        n += 1;
                    }
                    n
                })
                .iter()
                .sum::<u64>()
            });
            assert_eq!(a.join().unwrap(), 96);
            assert_eq!(b.join().unwrap(), 64);
        });
        // Both tenants' traffic flowed through the one shared store.
        let stats = shared.stats();
        assert_eq!(stats.writes, 80);
        assert!(stats.reads > 0);
    }

    #[test]
    fn placement_is_exposed_and_consistent() {
        let sizes = Arc::new(vec![1_000u64; 64]);
        let config = JobConfig::new(1, 2, 4, small_system(), TimeScale::new(1e-6));
        let job = Job::new(config, Arc::clone(&sizes));
        let p = job.placement();
        for k in 0..64u64 {
            for &(w, c) in p.holders(k) {
                assert_eq!(p.assignment(w).class_of(k), Some(c));
            }
        }
    }

    /// One worker whose two cache classes hold half of `sizes` between
    /// them, on an unpaced system whose model wants every lane the
    /// Lassen curve's knee allows (eight: two prefetcher threads turned
    /// lanes plus six spawned off the launch path).
    fn half_cached_system(sizes: &[u64], staging: u64) -> SystemSpec {
        let total: u64 = sizes.iter().sum();
        let mut sys = fig8_small_cluster();
        sys.workers = 1;
        sys.compute = 1e12;
        sys.staging.capacity = staging;
        sys.staging.threads = 2;
        sys.classes[0].capacity = total / 5;
        sys.classes[1].capacity = total * 3 / 10;
        sys
    }

    /// Checks the origin reads of `job`'s one rank after `run_ranks` has
    /// returned (no prefetcher can still be filling), with `stream` the
    /// positions it delivered out of `of`: every read is the read
    /// behind a fill (a prefetcher's, or a staging thread's self-healing
    /// one) or serves a position nobody caches, and no sample is filled
    /// twice — whichever of prefetcher and staging threads got to it.
    /// A drained stream fills every cached sample and reads every
    /// uncached position once — whichever of lane and staging thread
    /// got to it.
    fn assert_one_origin_read_each(
        job: &Job,
        pfs: &Pfs,
        obs: &nopfs_obs::ObsCtx,
        stream: &[u64],
        of: usize,
    ) {
        let placement = job.placement();
        let cached = (0..job.shared.sizes.len() as u64)
            .filter(|&k| !placement.is_uncached(k))
            .count() as u64;
        let fills = obs.snapshot().counter_total(nopfs_obs::names::TIER_FILLS);
        let reads = pfs.stats().reads;
        assert!(fills <= cached, "{fills} fills of {cached} cached samples");
        if stream.len() == of {
            let uncached = stream.iter().filter(|&&k| placement.is_uncached(k)).count() as u64;
            assert!(uncached > 0 && uncached < of as u64);
            assert_eq!(
                reads,
                fills + uncached,
                "{fills} fills, {uncached} uncached positions"
            );
            assert_eq!(fills, cached, "{reads} reads");
        }
    }

    #[test]
    fn every_origin_read_is_a_fill_or_an_uncached_position_exactly_once() {
        let sizes: Arc<Vec<u64>> = Arc::new((0..240u64).map(|k| 500 + k % 5 * 100).collect());
        // A window (and stage) smaller than one sample, then a roomy one
        // whose runs are eight long.
        for (staging, run_len) in [(1, 1), (2 * 8 * 8 * 700, 8)] {
            let sys = half_cached_system(&sizes, staging);
            let obs = nopfs_obs::ObsCtx::new();
            let config =
                JobConfig::new(21, 3, 8, sys.clone(), TimeScale::new(1e-6)).with_obs(obs.clone());
            let job = Job::new(config, Arc::clone(&sizes));
            assert_eq!(self::run_len(&job, 0), run_len);
            assert_eq!(sys.origin_lanes(job.placement().uncached_share()), 8);
            let pfs = job.make_pfs();
            materialize(&pfs, &sizes);
            let mut out = run_ranks(job.launch_workers(&pfs), |w| {
                let mut ids = Vec::new();
                while let Some(batch) = w.next_batch() {
                    for (id, data) in batch {
                        assert_eq!(data, payload(id, sizes[id as usize]), "corrupt sample {id}");
                        ids.push(id);
                    }
                }
                ids
            });
            let ids = out.pop().expect("one rank");
            let expect = expected_stream(&job, sizes.len(), 0);
            assert_eq!(ids, expect, "staging = {staging}");
            assert_one_origin_read_each(&job, &pfs, &obs, &ids, expect.len());
        }
    }

    #[test]
    fn runs_of_one_and_runs_across_epochs_stage_the_same_bytes() {
        use nopfs_obs::ObsCtx;
        // 61 samples, mean 697 B: epochs of 61 positions. Two staging
        // threads, lanes and the window live.
        let sizes: Arc<Vec<u64>> = Arc::new((0..61u64).map(|k| 500 + k % 5 * 100).collect());
        // A stage of seven mean samples (runs of one), then one that
        // would make runs of an epoch and a half: at most half an epoch
        // per thread, so they start mid-epoch and straddle boundaries.
        for (staging, run_len) in [(7 * 697, 1), (16 * 90 * 697, 31)] {
            let sys = half_cached_system(&sizes, staging);
            let config = JobConfig::new(24, 4, 8, sys.clone(), TimeScale::new(1e-6));
            let job = Job::new(config.clone(), Arc::clone(&sizes));
            assert_eq!(self::run_len(&job, 0), run_len);
            assert!(sys.origin_lanes(job.placement().uncached_share()) > 0);
            let expect = expected_stream(&job, sizes.len(), 0);
            let drain = |w: &mut WorkerHandle, upto: usize| {
                let mut ids = Vec::new();
                while ids.len() < upto {
                    let Some(batch) = w.next_batch() else { break };
                    for (id, data) in batch {
                        assert_eq!(data, payload(id, sizes[id as usize]), "corrupt sample {id}");
                        ids.push(id);
                    }
                }
                ids
            };
            // Drained, then stopped after a batch: `run_ranks` shuts the worker
            // down with lanes and staging threads mid-stream, and must
            // return.
            for upto in [usize::MAX, 1] {
                let obs = ObsCtx::new();
                let job = Job::new(config.clone().with_obs(obs.clone()), Arc::clone(&sizes));
                let pfs = job.make_pfs();
                materialize(&pfs, &sizes);
                let ids = run_ranks(job.launch_workers(&pfs), |w| drain(w, upto))
                    .pop()
                    .expect("one rank");
                let want = if upto == 1 { 8 } else { expect.len() };
                assert_eq!(ids, expect[..want], "runs of {run_len}");
                assert_one_origin_read_each(&job, &pfs, &obs, &ids, expect.len());
            }
        }
    }

    #[test]
    fn shutdown_mid_run_wakes_blocked_lanes_and_staging_threads() {
        // Real time, a PFS slow enough that lanes are always mid-read or
        // asleep on the window budget, a consumer that stops early so the
        // staging threads end up blocked on a full stage.
        let sizes: Arc<Vec<u64>> = Arc::new(vec![4_000u64; 120]);
        let mut sys = half_cached_system(&sizes, 4 * 4_000);
        sys.pfs_read = nopfs_perfmodel::ThroughputCurve::flat(2.0e6);
        let config = JobConfig::new(22, 2, 4, sys, TimeScale::realtime());
        let job = Job::new(config, Arc::clone(&sizes));
        let pfs = job.make_pfs();
        materialize(&pfs, &sizes);
        let got = run_ranks(job.launch_workers(&pfs), |w| {
            let first = w.next_batch().map_or(0, |b| b.len());
            // `run_ranks` shuts the worker down when this returns: it must.
            first
        });
        assert_eq!(got, vec![4]);
    }

    #[test]
    fn staging_thread_time_is_origin_wait_plus_write_plus_push_block() {
        use nopfs_obs::{names, ObsCtx};
        // Nothing is cached (no cache class at all), so every position
        // goes through the window; one staging thread; real time.
        let sizes: Arc<Vec<u64>> = Arc::new(vec![10_000u64; 64]);
        let mut sys = fig8_small_cluster();
        sys.workers = 1;
        sys.classes.clear();
        sys.staging.capacity = 4 * 10_000;
        sys.staging.threads = 1;
        sys.pfs_read = nopfs_perfmodel::ThroughputCurve::flat(4.0e6); // 0.16 s of reads
        sys = sys.with_compute_mbps(1_000.0, 8.0); // 0.08 s of write_time
        let scale = TimeScale::realtime();
        let obs = ObsCtx::new();
        let config = JobConfig::new(23, 1, 4, sys, scale).with_obs(obs.clone());
        let job = Job::new(config, Arc::clone(&sizes));
        assert_eq!(job.placement().uncached_share(), 1.0);
        let pfs = job.make_pfs();
        materialize(&pfs, &sizes);
        let started = Instant::now();
        let mut worker = job.launch_workers(&pfs).pop().expect("one rank");
        // The consumer is late: the stage fills and the staging thread
        // blocks in its push; afterwards the consumer drains as fast as
        // samples arrive, so the loop ends with the consumption.
        scale.wait(0.1);
        let mut n = 0;
        while let Some(batch) = worker.next_batch() {
            n += batch.len();
        }
        let wall = started.elapsed().as_nanos() as f64;
        worker.shutdown();
        assert_eq!(n, 64);
        let snap = obs.snapshot();
        let parts = [
            names::WORKER_STAGING_ORIGIN_WAIT_NANOS,
            names::WORKER_STAGING_WRITE_NANOS,
            names::STAGING_PUSH_BLOCKED_NANOS,
        ]
        .map(|name| snap.counter_total(name) as f64);
        assert!(parts.iter().all(|&p| p > 0.0), "{parts:?}");
        // The three are disjoint stretches of the one staging thread's
        // loop, which starts after `started` and ends before the stream
        // does: never more than the wall. And with nothing else for the
        // thread to do they are all of its loop, which cannot end before
        // the origin has delivered every byte (0.16 s at the model's
        // rate; the last run's write_time comes on top, and is the
        // margin for whatever the counters do not cover).
        let sum: f64 = parts.iter().sum();
        assert!(
            (0.16e9..=wall).contains(&sum),
            "origin wait + write + push block = {parts:?} ns, loop wall {wall} ns"
        );
        assert!(parts[1] >= 0.08e9, "write_time is modelled: {parts:?}");
        assert_eq!(
            obs.registry
                .gauge_with(names::WORKER_WINDOW_BYTES, &[("rank", "0")])
                .get(),
            0
        );
    }
}
