//! The `Job`: NoPFS's user-facing entry point (paper Fig. 7).
//!
//! A [`Job`] owns the clairvoyant precomputation — access streams,
//! frequency analysis, hierarchical placement — and spawns one worker
//! per rank of the in-process cluster, each with its own prefetchers,
//! caches, and serving loop. Integration mirrors the paper's three-line
//! change to a PyTorch script:
//!
//! ```
//! use nopfs_core::{Job, JobConfig};
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
//! // Materialize a dataset and train.
//! let pfs = job.make_pfs();
//! for id in 0..64u64 {
//!     pfs.put(id, bytes::Bytes::from(vec![id as u8; 1_000]));
//! }
//! let consumed = job.run(&pfs, |worker| {
//!     let mut n = 0;
//!     while let Some((_id, _data)) = worker.next_sample() {
//!         n += 1;
//!     }
//!     n
//! });
//! assert_eq!(consumed.iter().sum::<u64>(), 64);
//! ```

use crate::config::JobConfig;
use crate::msg::Msg;
use crate::stats::SetupStats;
use crate::worker::{class_index, Shared, WorkerHandle};
use nopfs_clairvoyance::engine::SetupPass;
use nopfs_clairvoyance::placement::GlobalPlacement;
use nopfs_net::{cluster, NetConfig};
use nopfs_pfs::Pfs;
use std::sync::Arc;
use std::time::Instant;

/// A NoPFS job: clairvoyant precomputation plus the worker launcher.
pub struct Job {
    shared: Arc<Shared>,
}

impl Job {
    /// Builds the job: one single-pass [`SetupPass`] over the epoch
    /// shuffles derives every worker's access stream, stream digest,
    /// access frequencies, and storage-class assignment from the seed —
    /// the paper's "a few passes over the shuffles" made literal. Each
    /// epoch's shuffle is generated exactly once for the whole job
    /// (O(E·F) setup regardless of worker count); workers later verify
    /// the allgathered digests against these cached values instead of
    /// re-deriving any stream.
    ///
    /// `sizes[k]` is the size in bytes of sample `k`; the dataset later
    /// materialized in the PFS must match.
    ///
    /// # Panics
    /// Panics on an empty dataset or inconsistent configuration.
    pub fn new(config: JobConfig, sizes: Arc<Vec<u64>>) -> Self {
        assert!(!sizes.is_empty(), "dataset must contain samples");
        let setup_start = Instant::now();
        let spec = config.shuffle_spec(sizes.len() as u64);
        let capacities: Vec<Vec<u64>> = (0..config.system.workers)
            .map(|_| config.system.class_capacities())
            .collect();
        // All setup artifacts are pure functions of the seed; computed
        // once here and shared — every worker would derive the
        // identical values.
        let artifacts = SetupPass::new(spec, config.epochs).run();
        let placement = Arc::new(artifacts.placement(&sizes, &capacities));
        let class_index = class_index(&placement, config.system.workers, sizes.len());
        let streams = artifacts.streams.expect("setup pass materializes streams");
        let setup = SetupStats {
            shuffle_generations: artifacts.shuffles_generated,
            setup_time: setup_start.elapsed(),
        };
        Self {
            shared: Arc::new(Shared {
                config,
                sizes,
                placement,
                spec,
                class_index,
                digests: artifacts.digests,
                streams,
                setup,
            }),
        }
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
    /// This is the single-tenant convenience only — [`Job::run`]
    /// accepts **any** injected [`Pfs`] handle, which is how
    /// `nopfs_cluster` co-schedules several jobs on one shared
    /// filesystem (each receiving a [`Pfs::namespaced`] view of it).
    pub fn make_pfs(&self) -> Pfs {
        Pfs::in_memory(
            self.shared.config.system.pfs_read.clone(),
            self.shared.config.scale,
        )
    }

    /// Launches one worker thread per rank, hands each a
    /// [`WorkerHandle`], and returns the per-rank results of `f`.
    ///
    /// `f` runs on the worker's thread (the training loop). When it
    /// returns, the worker is shut down cleanly: prefetchers stop, the
    /// cluster synchronizes, serving loops exit. If a worker panics the
    /// whole `run` panics.
    ///
    /// The injected `pfs` is the job's *resource boundary*: workers
    /// build everything else (caches, staging buffers, the in-process
    /// interconnect) privately, but all PFS reads pace through this
    /// handle's shared `t(γ)` regulator. Handing co-scheduled jobs
    /// namespaced views of one `Pfs` therefore reproduces cross-job
    /// I/O contention with no other coupling — and the workers' live
    /// source selection (which prices PFS fetches at the *observed*
    /// reader count) automatically accounts for other tenants' traffic.
    /// Launches one worker per rank and returns the handles themselves
    /// instead of scoping a closure over them — the entry point the
    /// workspace loader factory (`nopfs_baselines::registry`) uses to
    /// hand NoPFS out as `Box<dyn DataLoader>` objects.
    ///
    /// Launching blocks until every rank has passed the setup
    /// allgather, so the returned handles are immediately consumable
    /// from any threads (or sequentially). Shut them down concurrently
    /// — one thread per handle, as [`WorkerHandle::shutdown`] documents
    /// — or hand them to a harness that does (the registry's
    /// `LoaderSet` drop does exactly this).
    pub fn launch_workers(&self, pfs: &Pfs) -> Vec<WorkerHandle> {
        let endpoints = cluster::<Msg>(
            self.shared.config.system.workers,
            NetConfig::new(
                self.shared.config.system.interconnect,
                self.shared.config.scale,
            ),
        );
        // The launches must overlap: each blocks in the setup allgather
        // until all ranks have joined it.
        let threads: Vec<_> = endpoints
            .into_iter()
            .enumerate()
            .map(|(rank, endpoint)| {
                let shared = Arc::clone(&self.shared);
                let pfs = pfs.clone();
                std::thread::spawn(move || WorkerHandle::launch(rank, shared, pfs, endpoint))
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("worker launch panicked"))
            .collect()
    }

    pub fn run<R, F>(&self, pfs: &Pfs, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut WorkerHandle) -> R + Sync,
    {
        let n = self.shared.config.system.workers;
        let endpoints = cluster::<Msg>(
            n,
            NetConfig::new(
                self.shared.config.system.interconnect,
                self.shared.config.scale,
            ),
        );
        let f = &f;
        std::thread::scope(|s| {
            let handles: Vec<_> = endpoints
                .into_iter()
                .enumerate()
                .map(|(rank, endpoint)| {
                    let shared = Arc::clone(&self.shared);
                    let pfs = pfs.clone();
                    s.spawn(move || {
                        let mut handle = WorkerHandle::launch(rank, shared, pfs, endpoint);
                        let result = f(&mut handle);
                        handle.shutdown();
                        result
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked"))
                .collect()
        })
    }
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

    fn materialize(pfs: &Pfs, sizes: &[u64]) {
        for (id, &s) in sizes.iter().enumerate() {
            // Content encodes the id for integrity checking.
            let mut v = vec![0u8; s as usize];
            v[0] = (id % 256) as u8;
            if s >= 2 {
                v[1] = ((id / 256) % 256) as u8;
            }
            pfs.put(id as u64, Bytes::from(v));
        }
    }

    fn run_job(epochs: u64, num_samples: usize) -> (Vec<Vec<u64>>, Vec<WorkerStats>, u64) {
        let sizes = Arc::new(vec![1_000u64; num_samples]);
        let config = JobConfig::new(77, epochs, 8, small_system(), TimeScale::new(1e-6));
        let job = Job::new(config, Arc::clone(&sizes));
        let pfs = job.make_pfs();
        materialize(&pfs, &sizes);
        let out = job.run(&pfs, |w| {
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
        let batch_shapes = job.run(&pfs, |w| {
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
        let per_rank = job.run(&pfs, |w| {
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
        let counts = job.run(&pfs, |w| w.by_ref().count());
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
        let got = job.run(&pfs, |w| {
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
    /// ids delivered — once `w`'s class prefetchers have cached all the
    /// plan assigns to it: the staging threads, a stage's worth ahead
    /// of the consumer at most, then ask peers for the rest of the
    /// stream however the threads were scheduled before.
    fn drain_checked(w: &mut WorkerHandle, job: &Job, sizes: &[u64]) -> Vec<u64> {
        let assignment = job.placement().assignment(w.rank());
        let assigned = (0..sizes.len() as u64)
            .filter(|&k| assignment.class_of(k).is_some())
            .count() as u64;
        while w.tier_stats().iter().map(|t| t.fills).sum::<u64>() < assigned {
            std::thread::yield_now();
        }
        let mut ids = Vec::new();
        while let Some(batch) = w.next_batch() {
            for (id, data) in batch {
                assert_eq!(data.len() as u64, sizes[id as usize]);
                assert_eq!(data[0], (id % 256) as u8, "corrupt sample {id}");
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

    #[test]
    fn peer_fetches_go_out_as_one_frame_per_owner_per_run() {
        use crate::worker::STAGE_BATCH;
        use nopfs_obs::{names, ObsCtx};
        // N = 2: one possible owner, so at most one frame per run; then
        // N = 4 with two staging threads (two reply channels), where a
        // run asks up to three owners.
        for (workers, threads) in [(2, 1), (4, 2)] {
            let sizes = Arc::new(vec![1_000u64; 96]);
            let mut sys = two_halves_system(&sizes);
            sys.workers = workers;
            sys.staging.threads = threads;
            let obs = ObsCtx::new();
            let config = JobConfig::new(31, 6, 8, sys, TimeScale::new(1e-6)).with_obs(obs.clone());
            let job = Job::new(config, Arc::clone(&sizes));
            let pfs = job.make_pfs();
            materialize(&pfs, &sizes);
            let out = job.run(&pfs, |w| {
                (w.rank(), drain_checked(w, &job, &sizes), w.stats())
            });
            let mut merged = WorkerStats::default();
            let mut runs = 0;
            for (rank, ids, stats) in &out {
                assert_eq!(ids, &expected_stream(&job, sizes.len(), *rank));
                runs += (ids.len() as u64).div_ceil(STAGE_BATCH);
                merged.merge(stats);
            }
            assert_eq!(merged.total_fetches(), merged.samples_consumed);
            assert!(merged.remote_fetches > 0, "{merged:?}");
            let asked = merged.remote_fetches + merged.false_positives;
            let frames = obs.snapshot().counter_total(names::WORKER_PEER_FRAMES);
            assert!(
                frames >= asked.div_ceil(STAGE_BATCH) && frames <= asked,
                "{frames} frames for {asked} samples"
            );
            assert!(
                frames <= runs * (workers as u64 - 1),
                "{frames} frames in {runs} runs"
            );
        }
    }

    #[test]
    fn a_run_that_holds_a_remote_sample_twice_gets_it_twice() {
        // Epochs of five samples per worker: every run of eight straddles
        // an epoch boundary, and whatever a worker reads in both epochs
        // is in the run twice.
        let sizes = Arc::new(vec![1_000u64; 10]);
        let config = JobConfig::new(32, 60, 4, two_halves_system(&sizes), TimeScale::new(1e-6));
        let job = Job::new(config, Arc::clone(&sizes));
        let placement = job.placement();
        let held_by_the_peer_only = |rank: usize, k: u64| {
            let holders = placement.holders(k);
            !holders.is_empty() && holders.iter().all(|&(o, _)| o != rank)
        };
        let twice_remote = expected_stream(&job, sizes.len(), 0)
            .chunks(crate::worker::STAGE_BATCH as usize)
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
        let out = job.run(&pfs, |w| {
            (w.rank(), drain_checked(w, &job, &sizes), w.stats())
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
            // Rank 1 joins the setup and the shutdown barrier, but is no
            // worker: every frame that reaches it is dropped unanswered.
            s.spawn(|| {
                ep1.allgather(Msg::Digest(job.shared.digests[1]))
                    .expect("rank 0 is alive");
                ep1.barrier();
                while !done.load(Ordering::SeqCst) {
                    drop(ep1.recv_timeout(std::time::Duration::from_millis(1)));
                }
                ep1.barrier();
            });
            let mut w = WorkerHandle::launch(0, Arc::clone(&job.shared), pfs.clone(), ep0);
            let ids = drain_checked(&mut w, &job, &sizes);
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
        job.run(&pfs, |w| {
            // `run` shuts the worker down as soon as a frame has gone out.
            while obs.snapshot().counter_total(names::WORKER_PEER_FRAMES) == 0 {
                w.next_batch()
                    .expect("a frame goes out before the stream ends");
            }
        });
    }

    /// One worker on an unpaced system whose RAM and SSD classes hold
    /// two fifths and three fifths of `sizes`: every sample is cached
    /// locally, in one tier or the other.
    fn ram_and_ssd_system(sizes: &[u64]) -> SystemSpec {
        let total: u64 = sizes.iter().sum();
        let mut sys = fig8_small_cluster();
        sys.workers = 1;
        sys.compute = 1e12;
        sys.staging.capacity = 16 * sizes[0];
        sys.staging.threads = 1;
        sys.classes[0].capacity = total * 2 / 5;
        sys.classes[1].capacity = total - total * 2 / 5;
        sys
    }

    #[test]
    fn a_run_with_picks_in_two_tiers_is_one_sweep_per_tier() {
        use crate::worker::STAGE_BATCH;
        use nopfs_obs::{names, ObsCtx};
        let sizes = Arc::new(vec![1_000u64; 80]);
        let obs = ObsCtx::new();
        let config = JobConfig::new(41, 6, 8, ram_and_ssd_system(&sizes), TimeScale::new(1e-6))
            .with_obs(obs.clone());
        let job = Job::new(config, Arc::clone(&sizes));
        let assignment = job.placement().assignment(0);
        let stream = expected_stream(&job, sizes.len(), 0);
        let runs = stream.chunks(STAGE_BATCH as usize);
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
        let mut out = job.run(&pfs, |w| {
            (drain_checked(w, &job, &sizes), w.stats(), w.tier_stats())
        });
        let (ids, stats, tiers) = out.pop().expect("one rank");
        assert_eq!(ids, stream);
        assert_eq!(stats.total_fetches(), stats.samples_consumed);
        assert_eq!(stats.remote_fetches, 0);
        // Once the prefetchers have filled the tiers, every sample is
        // served by the tier that holds it.
        assert!(
            stats.local_fetches > stats.samples_consumed / 2,
            "{stats:?}"
        );
        assert_eq!(stats.local_fetches, tiers[0].hits + tiers[1].hits);
        assert!(tiers[0].hits > 0 && tiers[1].hits > 0, "{tiers:?}");
        // One latency observation per sweep that hit: at most one per
        // tier and run, where a read per sample would leave one per hit.
        let snap = obs.snapshot();
        for (j, tier) in tiers[..2].iter().enumerate() {
            let sweeps: u64 = snap
                .histograms
                .iter()
                .filter(|h| h.name == names::TIER_READ_LATENCY)
                .filter(|h| h.labels.iter().any(|(k, v)| k == "tier" && *v == tier.name))
                .map(|h| h.value.count)
                .sum();
            assert!(
                sweeps > 0 && sweeps <= runs.len() as u64 && sweeps < tier.hits,
                "tier {j}: {sweeps} observations, {} hits, {} runs",
                tier.hits,
                runs.len()
            );
        }
    }

    #[test]
    fn a_sample_gone_from_its_tier_behind_the_catalog_is_read_from_the_origin() {
        let sizes = Arc::new(vec![1_000u64; 80]);
        let sys = ram_and_ssd_system(&sizes);
        let scale = TimeScale::new(1e-6);
        let config = JobConfig::new(42, 1, 8, sys.clone(), scale);
        let job = Job::new(config, Arc::clone(&sizes));
        let pfs = job.make_pfs();
        materialize(&pfs, &sizes);
        // The worker gets its hierarchy warm — every sample filled into
        // the class the plan assigns it to, so the prefetchers have
        // nothing to do — except that a few samples have since left
        // their tier without the catalog being told: `locate` still
        // names the tier when the staging thread picks a source.
        let tiers = crate::class_tier_stack(&sys, scale, Arc::new(pfs.clone()));
        let assignment = job.placement().assignment(0);
        for k in 0..sizes.len() as u64 {
            let class = assignment
                .class_of(k)
                .expect("the classes hold the dataset");
            let data = pfs.read(k).expect("materialized");
            tiers.fill(class as usize, k, data).expect("planned to fit");
        }
        let gone = [3u64, 4, 40, 77];
        for k in gone {
            let tier = tiers.locate(k).expect("just filled");
            assert!(tiers.source(tier).evict(k));
            assert_eq!(tiers.locate(k), Some(tier));
        }
        let endpoint = cluster::<Msg>(1, NetConfig::new(sys.interconnect, scale))
            .pop()
            .expect("rank 0");
        let mut w = WorkerHandle::launch_with_tiers(
            0,
            Arc::clone(&job.shared),
            pfs.clone(),
            endpoint,
            Some(tiers),
        );
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
        let counts = job.run(&pfs, |w| w.by_ref().count());
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
                job.run(&pfs_a, |w| {
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
                job.run(&pfs_b, |w| {
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

    #[test]
    fn every_origin_read_is_a_fill_or_an_uncached_position_exactly_once() {
        let sizes: Arc<Vec<u64>> = Arc::new((0..240u64).map(|k| 500 + k % 5 * 100).collect());
        // A window (and stage) smaller than one sample, then a roomy one.
        for staging in [1, 8 * 900] {
            let sys = half_cached_system(&sizes, staging);
            let config = JobConfig::new(21, 3, 8, sys.clone(), TimeScale::new(1e-6));
            let job = Job::new(config, Arc::clone(&sizes));
            let placement = job.placement();
            assert_eq!(sys.origin_lanes(placement.uncached_share()), 8);
            let pfs = job.make_pfs();
            materialize(&pfs, &sizes);
            let mut out = job.run(&pfs, |w| {
                let mut ids = Vec::new();
                while let Some(batch) = w.next_batch() {
                    for (id, data) in batch {
                        assert_eq!(data.len() as u64, sizes[id as usize]);
                        assert_eq!(data[0], (id % 256) as u8, "corrupt sample {id}");
                        ids.push(id);
                    }
                }
                let fills: u64 = w.tier_stats().iter().map(|t| t.fills).sum();
                (ids, fills, w.stats())
            });
            let (ids, fills, stats) = out.pop().expect("one rank");
            let spec = job.config().shuffle_spec(sizes.len() as u64);
            let expect = nopfs_clairvoyance::stream::AccessStream::new(spec, 0, 3).materialize();
            assert_eq!(ids, expect, "staging = {staging}");
            let uncached = expect.iter().filter(|&&k| placement.is_uncached(k)).count() as u64;
            assert!(uncached > 0 && uncached < expect.len() as u64);
            // With one rank every origin read is the read behind a fill
            // (a prefetcher's, or a staging thread's self-healing one)
            // or serves a position nobody caches — once each, whichever
            // of lane and staging thread got to the position.
            assert_eq!(pfs.stats().reads, fills + uncached, "staging = {staging}");
            assert!(stats.pfs_fetches >= uncached);
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
        let got = job.run(&pfs, |w| {
            let first = w.next_batch().map_or(0, |b| b.len());
            // `run` shuts the worker down when this returns: it must.
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
