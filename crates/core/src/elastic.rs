//! Elastic execution: membership churn, crash recovery, and fault
//! injection for the threaded NoPFS runtime.
//!
//! [`ElasticJob`] runs a job under a declarative [`FaultPlan`]: workers
//! crash at step boundaries and restart with cold caches, workers join
//! or leave between epochs, and transient read errors are planted in
//! the PFS, beneath every rank's origin retry loop. A straggler is slow
//! compute, not slow I/O, so the consumer charges it: the training loop
//! (`nopfs_train`) that [`ElasticJob::run_with`] drives divides its
//! rank's compute rate from the straggler's epoch on. The headline
//! guarantee — proven by the determinism test suite — is that none of
//! it changes delivered *content*: the global sample stream is
//! bit-for-bit the stream of the undisturbed run.
//!
//! Two properties make that possible:
//!
//! 1. **Membership-invariant global order.** The sampler's epoch seed
//!    mixes only `(seed, epoch)`, never the worker count, so epoch
//!    `e`'s global consumption order is one fixed permutation for any
//!    membership; churn merely re-deals it round-robin to a different
//!    number of ranks.
//! 2. **Incremental replanning.** On every membership change the
//!    clairvoyant artifacts for the survivors come from
//!    [`SetupArtifacts::replan`] — a re-split of the cached setup
//!    streams that regenerates **zero** epoch shuffles (the report's
//!    `replan_shuffle_generations` stays 0) instead of re-running the
//!    O(E·F) [`SetupPass`].
//!
//! Execution is split into *segments*: the longest stretches of
//! (epoch, step) with one membership and no crash inside them. Each
//! segment is one launch of the `Job` runtime over every rank's slice
//! of its membership's streams, so a fault-free plan is a single launch
//! whose prefetchers run ahead across every epoch boundary. Workers are
//! torn down only where a segment ends: at a membership change, or at a
//! crash step, where all ranks stop (the recovery barrier — with a
//! per-step allreduce no rank can proceed past a dead peer anyway).
//! Samples that were staged but not yet consumed at the barrier are
//! lost with their worker's threads and *replayed*: the next segment's
//! streams begin exactly at the global step boundary. Survivors keep
//! their warm [`TierStack`]s across the barrier (the stacks are shared
//! handles); the crashed rank restarts with a cold, freshly built
//! stack.

use crate::config::JobConfig;
use crate::job;
use crate::stats::{SetupStats, WorkerStats};
use crate::worker::{Shared, WorkerHandle};
use crate::SampleId;
use nopfs_clairvoyance::engine::{SetupArtifacts, SetupPass};
use nopfs_obs::names;
use nopfs_pfs::Pfs;
use nopfs_policy::fault::{CloudFaults, FaultPlan};
use nopfs_policy::Unsupported;
use nopfs_storage::{
    BreakerConfig, DataSource, HedgeConfig, ObjectStoreBackend, ObjectStoreConfig,
    ResilienceConfig, ResilienceStats, ResilientSource, RetryPolicy, TierStack, TierStats,
};
use nopfs_util::rng::mix64;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Initial accumulator of a segment-slice digest (the elastic analogue
/// of the engine's stream digests, folded over the slice only).
const SLICE_DIGEST_SEED: u64 = 0xE1A5_71C0;

/// One rank's drained epochs: the ids it delivered in each, and when it
/// finished it.
type Drained = Vec<(Vec<SampleId>, Option<Instant>)>;

/// What an elastic run observed and delivered.
#[derive(Debug, Clone)]
pub struct ElasticReport {
    /// The global delivered stream: each epoch's per-rank streams
    /// re-interleaved round-robin. The replay-exactness claim is about
    /// this vector.
    pub global_stream: Vec<SampleId>,
    /// Per epoch: the membership and each rank's delivered sequence.
    pub per_epoch: Vec<(usize, Vec<Vec<SampleId>>)>,
    /// Worker count of each epoch.
    pub memberships: Vec<usize>,
    /// Incremental replans performed (one per distinct non-initial
    /// membership).
    pub replans: u64,
    /// Epoch shuffles generated by those replans — **always 0**; the
    /// cheapness guarantee the property suite asserts.
    pub replan_shuffle_generations: u64,
    /// Crash-and-restart recoveries performed.
    pub recoveries: u64,
    /// Wall time spent in recovery barriers, from the crashed segment's
    /// teardown until every rank of the next one has passed its setup
    /// allgather: the recovery overhead an undisturbed run never pays.
    pub recovery_time: Duration,
    /// Transient read errors the plan's `ReadErrors` clause planted in
    /// the PFS: the sum of its bursts, the same on every run. Without a
    /// cloud clause each is one failed origin read that the loaders'
    /// retry loop absorbs and counts in `worker.pfs_errors`.
    pub injected_read_errors: u64,
    /// Resilience counters merged across every rank's cloud origin
    /// chain (retries, hedges, breaker transitions). All-zero unless the
    /// plan has a [`CloudFaults`] clause, the only one that puts a
    /// [`ResilientSource`] beneath the tier stacks; then `retries`
    /// includes the retries that absorbed the planted read errors.
    pub resilience: ResilienceStats,
    /// Per-tier statistics merged across the ranks still alive at run
    /// end (crashed/departed ranks take their caches — and counters —
    /// with them, as on a real machine).
    pub tier_stats: Vec<TierStats>,
    /// Wall time of each epoch as [`ElasticJob::run`]'s drain sees it:
    /// from the moment the last rank finished the epoch before (for
    /// epoch 0, the end of setup) to the moment the last rank
    /// consumed its final sample of this one — recovery barriers and
    /// relaunches inside the epoch included. The drain charges no
    /// compute, so a straggler does not show here; the training loop's
    /// epoch times, which charge it, are `nopfs_train`'s.
    pub epoch_times: Vec<Duration>,
    /// Worker I/O statistics merged across every rank and segment.
    pub stats: WorkerStats,
    /// Clairvoyant setup statistics of the initial [`SetupPass`] (the
    /// replans add zero shuffle generations on top).
    pub setup: SetupStats,
    /// Wall time of the whole run.
    pub elapsed: Duration,
}

/// A NoPFS job that survives churn: [`crate::job::Job`]'s elastic
/// sibling, driven by a [`FaultPlan`].
pub struct ElasticJob {
    config: JobConfig,
    sizes: Arc<Vec<u64>>,
    plan: FaultPlan,
    /// Object-store economics and resilience knobs used for the origin
    /// chain when the plan carries a [`CloudFaults`] clause. Populated
    /// with defaults by [`Self::new`]; override via
    /// [`Self::with_cloud_origin`]. The per-rank disturbance seeds come
    /// from the plan, not from here.
    cloud_origin: Option<(ObjectStoreConfig, ResilienceConfig)>,
}

impl ElasticJob {
    /// Builds the elastic job, validating the plan against the run
    /// shape (see `FaultPlan::validate`).
    ///
    /// # Errors
    /// [`Unsupported`] when the plan's churn would change the epoch
    /// length (`drop_last` truncation) or schedules impossible crashes.
    pub fn new(
        config: JobConfig,
        sizes: Arc<Vec<u64>>,
        plan: FaultPlan,
    ) -> Result<Self, Unsupported> {
        assert!(!sizes.is_empty(), "dataset must contain samples");
        let spec = config.shuffle_spec(sizes.len() as u64);
        plan.validate(&spec, config.epochs)?;
        let cloud_origin = plan
            .cloud
            .as_ref()
            .map(|_| Self::default_cloud_origin(&config));
        Ok(Self {
            config,
            sizes,
            plan,
            cloud_origin,
        })
    }

    /// Default object-store economics and resilience for a cloud-origin
    /// run: an S3-like 2 ms request floor over the system's PFS
    /// throughput curve, coalescing up to 8 adjacent samples, and a
    /// full failure domain — capped full-jitter retry, p95 hedging,
    /// and a breaker that opens after 4 consecutive failures and probes
    /// again after four latency floors of cooldown.
    fn default_cloud_origin(config: &JobConfig) -> (ObjectStoreConfig, ResilienceConfig) {
        let latency_floor = 2e-3;
        let store = ObjectStoreConfig::new(latency_floor, config.system.pfs_read.clone(), 8);
        let res = ResilienceConfig::retry_only(RetryPolicy::new(
            8,
            Duration::from_micros(100),
            1.0,
            0xC10D_0A11,
        ))
        .with_hedge(HedgeConfig::new(0.95, Duration::from_micros(200), 64))
        .with_breaker(BreakerConfig::new(4, 4.0 * latency_floor, 2));
        (store, res)
    }

    /// Overrides the cloud-origin economics and resilience knobs (only
    /// meaningful when the plan has a [`CloudFaults`] clause; the
    /// clause's disturbances are layered onto `store` per rank).
    #[must_use]
    pub fn with_cloud_origin(mut self, store: ObjectStoreConfig, res: ResilienceConfig) -> Self {
        self.cloud_origin = Some((store, res));
        self
    }

    /// Convenience: an in-memory synthetic PFS matching the job's
    /// system curve and time scale.
    pub fn make_pfs(&self) -> Pfs {
        Pfs::in_memory(self.config.system.pfs_read.clone(), self.config.scale)
    }

    /// The planned job state for membership `n`: the base artifacts for
    /// the initial worker count, an incremental replan otherwise.
    fn plan_for(
        &self,
        cache: &mut HashMap<usize, Arc<Shared>>,
        base: &SetupArtifacts,
        n: usize,
        replans: &mut u64,
        replan_shuffles: &mut u64,
    ) -> Arc<Shared> {
        let plan = |arts: &SetupArtifacts| {
            Arc::new(Shared::plan(
                self.config.clone(),
                Arc::clone(&self.sizes),
                arts,
            ))
        };
        let shared = cache.entry(n).or_insert_with(|| {
            if n == base.num_workers() {
                return plan(base);
            }
            // The incremental path: re-split cached streams, zero
            // shuffle generations.
            let replanned = base.replan(n);
            *replans += 1;
            *replan_shuffles += replanned.shuffles_generated;
            self.config.obs.tracer.instant(
                names::EV_REPLAN,
                "elastic",
                vec![("workers", n.into())],
            );
            plan(&replanned)
        });
        Arc::clone(shared)
    }

    /// Runs the job under its fault plan against `pfs`, draining every
    /// rank's stream, and returns the delivered streams plus recovery
    /// accounting: [`Self::run_with`] with a drain as the consumer,
    /// which files each id under its epoch and stamps the moment the
    /// rank finishes each epoch.
    ///
    /// # Panics
    /// Panics if a worker thread panics (as `Job::run` does).
    pub fn run(&self, pfs: &Pfs) -> ElasticReport {
        let epochs = self.config.epochs as usize;
        let memberships = self
            .plan
            .memberships(self.config.system.workers, epochs as u64);
        let ranks = memberships.iter().copied().max().unwrap_or(1);
        let drained: Vec<Mutex<Drained>> = (0..ranks)
            .map(|_| Mutex::new(vec![(Vec::new(), None); epochs]))
            .collect();
        let drained_ref = &drained;
        let mut setup_done = None;
        let mut report = self.run_with(pfs, |_| {
            setup_done.get_or_insert_with(Instant::now);
            move |handle: &mut WorkerHandle| {
                let mut mine = drained_ref[handle.rank()].lock();
                loop {
                    let epoch = handle.current_epoch() as usize;
                    let Some((id, data)) = handle.next_sample() else {
                        break;
                    };
                    debug_assert_eq!(data.len() as u64, self.sizes[id as usize]);
                    mine[epoch].0.push(id);
                    if handle.current_epoch() as usize > epoch {
                        mine[epoch].1 = Some(Instant::now());
                    }
                }
            }
        });

        let mut drained: Vec<_> = drained.into_iter().map(Mutex::into_inner).collect();
        let mut epoch_start = setup_done.expect("every run has a segment");
        report.epoch_times = (0..epochs)
            .map(|e| {
                let ends = drained.iter().filter_map(|d| d[e].1);
                let end = ends.max().unwrap_or(epoch_start).max(epoch_start);
                let took = end - epoch_start;
                epoch_start = end;
                took
            })
            .collect();
        report.per_epoch = memberships
            .iter()
            .enumerate()
            .map(|(e, &n)| {
                (
                    n,
                    drained[..n]
                        .iter_mut()
                        .map(|d| std::mem::take(&mut d[e].0))
                        .collect(),
                )
            })
            .collect();
        // The global stream: round-robin re-interleave of each epoch.
        report.global_stream = report
            .per_epoch
            .iter()
            .flat_map(|(n, streams)| {
                let total = streams.iter().map(Vec::len).sum();
                (0..total).map(move |pos| streams[pos % n][pos / n])
            })
            .collect();
        report
    }

    /// Runs the job under its fault plan against `pfs`: plants the
    /// plan's read errors in `pfs`, then launches the plan's segments
    /// one after another. Before each launch it calls `segment` with
    /// the segment's membership for the consumer every rank of the
    /// segment then runs, on a thread of its own, with its
    /// [`WorkerHandle`]; the handle's epochs count over the whole run.
    /// The report leaves what only a consumer sees to its caller:
    /// `global_stream`, `per_epoch` and `epoch_times` are empty.
    ///
    /// # Panics
    /// Panics if a worker thread or a consumer panics.
    pub fn run_with<F, C>(&self, pfs: &Pfs, mut segment: F) -> ElasticReport
    where
        F: FnMut(usize) -> C,
        C: Fn(&mut WorkerHandle) + Sync,
    {
        let t_run = Instant::now();
        let clause = self.plan.read_errors.iter();
        let bursts = clause.flat_map(|errors| errors.bursts(self.sizes.len() as u64));
        let injected_read_errors = bursts
            .map(|(id, failures)| {
                pfs.inject_fault(id, failures);
                u64::from(failures)
            })
            .sum();
        let epochs = self.config.epochs;
        let spec0 = self.config.shuffle_spec(self.sizes.len() as u64);
        let memberships = self.plan.memberships(spec0.num_workers, epochs);
        let mut cache: HashMap<usize, Arc<Shared>> = HashMap::new();
        let mut replans = 0u64;
        let mut replan_shuffles = 0u64;
        // Setup is the pass and the initial membership's plan, as
        // `Job::new` times it.
        let t_setup = Instant::now();
        let base = SetupPass::new(spec0, epochs).run();
        self.plan_for(
            &mut cache,
            &base,
            memberships[0],
            &mut replans,
            &mut replan_shuffles,
        );
        let setup = SetupStats {
            shuffle_generations: base.shuffles_generated,
            setup_time: t_setup.elapsed(),
        };
        let mut recoveries = 0u64;
        let mut recovery_time = Duration::ZERO;
        let mut recovering: Option<Instant> = None;

        // Per-rank cloud origin chains (persist across segments so
        // breaker state and retry statistics accumulate) and warm tier
        // stacks (persist across recovery barriers for survivors).
        let max_n = memberships.iter().copied().max().unwrap_or(1);
        let mut resilient: Vec<Option<Arc<ResilientSource>>> = vec![None; max_n];
        let mut warm: HashMap<usize, TierStack> = HashMap::new();
        let mut stats = WorkerStats::default();

        // Segment ends, as (epoch, step): every membership change, every
        // crash step, and the end of the run.
        let mut cuts: Vec<(u64, u64)> = (1..epochs)
            .filter(|&e| memberships[e as usize] != memberships[e as usize - 1])
            .map(|e| (e, 0))
            .chain((0..epochs).flat_map(|e| {
                self.plan
                    .crashes_in(e)
                    .into_iter()
                    .map(move |(s, _)| (e, s))
            }))
            .collect();
        cuts.push((epochs, 0));
        cuts.sort_unstable();
        cuts.dedup();

        let mut from = (0u64, 0u64);
        for to in cuts {
            if to > from {
                let n = memberships[from.0 as usize];
                let consume = segment(n);
                let plan = self.plan_for(&mut cache, &base, n, &mut replans, &mut replan_shuffles);
                // Tier stacks: warm handoff where one survives, cold otherwise.
                let tiers = (0..n)
                    .map(|rank| {
                        let stack = warm.entry(rank).or_insert_with(|| {
                            let origin = self.origin_for(pfs, rank, &mut resilient);
                            let obs = self.config.obs.scoped([("rank", rank.to_string())]);
                            crate::tiers::class_tier_stack_in_registry(
                                &self.config.system,
                                self.config.scale,
                                origin,
                                &obs.registry,
                            )
                        });
                        Some(stack.clone())
                    })
                    .collect();
                let handles = self.launch_segment(pfs, &plan, (from, to), tiers);
                // Recovery ends when every rank is launched and consuming.
                if let Some(t0) = recovering.take() {
                    recovery_time += t0.elapsed();
                    self.config.obs.tracer.complete(
                        names::EV_RECOVERY_BARRIER,
                        "elastic",
                        t0,
                        vec![("workers", n.into())],
                    );
                }
                let out = job::run_ranks(handles, |handle| {
                    consume(handle);
                    handle.stats()
                });
                for seg_stats in &out {
                    stats.merge(seg_stats);
                }
            }
            // Ranks crashing at this boundary lose their caches: the
            // next segment rebuilds them cold.
            for (step, rank) in self.plan.crashes_in(to.0) {
                if step != to.1 {
                    continue;
                }
                self.config.obs.tracer.instant(
                    names::EV_CRASH,
                    "elastic",
                    vec![
                        ("epoch", to.0.into()),
                        ("step", step.into()),
                        ("rank", rank.into()),
                    ],
                );
                warm.remove(&rank);
                recoveries += 1;
                recovering.get_or_insert_with(Instant::now);
            }
            // Departed ranks' caches go with them.
            if let Some(&n) = memberships.get(to.0 as usize) {
                warm.retain(|&rank, _| rank < n);
            }
            from = to;
        }

        ElasticReport {
            global_stream: Vec::new(),
            per_epoch: Vec::new(),
            memberships,
            replans,
            replan_shuffle_generations: replan_shuffles,
            recoveries,
            recovery_time,
            injected_read_errors,
            resilience: {
                let mut acc = ResilienceStats::default();
                for r in resilient.iter().flatten() {
                    acc.merge(&r.stats());
                }
                acc
            },
            tier_stats: {
                // Sum-merge is commutative, so the map's iteration
                // order cannot leak into the result.
                let mut acc: Vec<TierStats> = Vec::new();
                for stack in warm.values() {
                    for (i, s) in stack.all_stats().into_iter().enumerate() {
                        match acc.get_mut(i) {
                            Some(a) => a.merge(&s),
                            None => acc.push(s),
                        }
                    }
                }
                acc
            },
            epoch_times: Vec::new(),
            stats,
            setup,
            elapsed: t_run.elapsed(),
        }
    }

    /// Launches every rank of `plan` over `tiers` on its slice of the
    /// plan's streams from `from` to `to` (both (epoch, step) points),
    /// starting each handle's epoch count at its slice's first
    /// position, and returns the handles once every rank has passed the
    /// setup allgather.
    fn launch_segment(
        &self,
        pfs: &Pfs,
        plan: &Shared,
        (from, to): ((u64, u64), (u64, u64)),
        tiers: Vec<Option<TierStack>>,
    ) -> Vec<WorkerHandle> {
        let b = self.config.batch_size as u64;
        let at = |w: usize, (e, s): (u64, u64)| {
            let len = plan.spec.worker_epoch_len(w);
            e * len + (s * b).min(len)
        };
        let n = plan.streams.len();
        let starts: Vec<u64> = (0..n).map(|w| at(w, from)).collect();
        let streams: Vec<Arc<Vec<SampleId>>> = (0..n)
            .map(|w| Arc::new(plan.streams[w][starts[w] as usize..at(w, to) as usize].to_vec()))
            .collect();
        // Slice digests: the recovery allgather check, folded over
        // exactly the samples this segment will deliver.
        let digests = streams
            .iter()
            .enumerate()
            .map(|(w, s)| {
                s.iter()
                    .fold(SLICE_DIGEST_SEED ^ w as u64, |acc, &id| mix64(acc, id))
            })
            .collect();
        let segment = Arc::new(Shared {
            digests,
            streams,
            starts,
            ..plan.clone()
        });
        job::launch(&segment, pfs, tiers)
    }

    /// The origin `rank`'s tier stack bottoms out in: the bare PFS, or
    /// for a plan with a [`CloudFaults`] clause the cloud chain — an
    /// [`ObjectStoreBackend`] over the PFS under one [`ResilientSource`]
    /// with the cloud-origin knobs. A chain persists per rank, so its
    /// breaker state and statistics span segments and recovery
    /// barriers.
    fn origin_for(
        &self,
        pfs: &Pfs,
        rank: usize,
        resilient: &mut [Option<Arc<ResilientSource>>],
    ) -> Arc<dyn DataSource> {
        let Some(cloud) = &self.plan.cloud else {
            return Arc::new(pfs.clone());
        };
        let r = resilient[rank].get_or_insert_with(|| {
            let (store, mut res) = self
                .cloud_origin
                .clone()
                .expect("cloud plan implies cloud_origin");
            let store = store.with_disturbance(CloudFaults {
                seed: mix64(cloud.seed, rank as u64),
                ..cloud.clone()
            });
            let origin = ObjectStoreBackend::over(Arc::new(pfs.clone()), store, self.config.scale);
            res.retry.seed = mix64(res.retry.seed, rank as u64);
            let obs = self.config.obs.scoped([("rank", rank.to_string())]);
            Arc::new(
                ResilientSource::new_in_registry(
                    Arc::new(origin),
                    res,
                    self.config.scale,
                    &obs.registry,
                )
                .with_tracer(obs.tracer),
            )
        });
        Arc::clone(r) as Arc<dyn DataSource>
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Job;
    use bytes::Bytes;
    use nopfs_perfmodel::presets::fig8_small_cluster;
    use nopfs_perfmodel::SystemSpec;
    use nopfs_policy::fault::ReadErrors;
    use nopfs_util::timing::TimeScale;

    fn small_system() -> SystemSpec {
        let mut sys = fig8_small_cluster();
        sys.staging.capacity = 64 * 1_000;
        sys.staging.threads = 4;
        sys.classes[0].capacity = 40 * 1_000;
        sys.classes[1].capacity = 80 * 1_000;
        sys
    }

    fn materialize(pfs: &Pfs, sizes: &[u64]) {
        for (id, &s) in sizes.iter().enumerate() {
            let mut v = vec![0u8; s as usize];
            v[0] = (id % 256) as u8;
            pfs.put(id as u64, Bytes::from(v));
        }
    }

    fn elastic_job(plan: FaultPlan) -> ElasticJob {
        let sizes = Arc::new(vec![1_000u64; 80]);
        let config = JobConfig::new(0xEC, 3, 4, small_system(), TimeScale::new(1e-6));
        ElasticJob::new(config, sizes, plan).expect("valid plan")
    }

    fn run(job: &ElasticJob) -> ElasticReport {
        let pfs = job.make_pfs();
        materialize(&pfs, &job.sizes);
        job.run(&pfs)
    }

    fn elastic_run(plan: FaultPlan) -> ElasticReport {
        run(&elastic_job(plan))
    }

    #[test]
    fn undisturbed_elastic_run_matches_plain_job() {
        let job = elastic_job(FaultPlan::fault_free());
        let report = run(&job);
        assert_eq!(report.recoveries, 0);
        assert_eq!(report.replans, 0);
        assert_eq!(report.stats.samples_consumed, 80 * 3);
        assert_eq!(report.epoch_times.len(), 3);
        assert!(report.epoch_times.iter().sum::<Duration>() <= report.elapsed);
        assert_eq!(report.setup.shuffle_generations, 3);
        // One segment: each of the four ranks is launched once for all
        // three epochs, as a `Job` launches them.
        let launches = job
            .config
            .obs
            .snapshot()
            .counter_total(names::WORKER_LAUNCHES);
        assert_eq!(launches, 4);
        // Content check: per-epoch delivery is exactly-once.
        assert_eq!(report.global_stream.len(), 80 * 3);
        for (e, (_, streams)) in report.per_epoch.iter().enumerate() {
            let mut epoch: Vec<u64> = streams.iter().flatten().copied().collect();
            epoch.sort_unstable();
            let all: Vec<u64> = (0..80).collect();
            assert_eq!(epoch, all, "epoch {e} not exactly-once");
        }

        // Each rank's stream is the plain job's, and on one rank whose
        // RAM holds part of the dataset (and nothing else caches) so are
        // the origin reads: one per cached sample, one per uncached
        // position, however the threads interleave.
        let [plain, elastic] = plain_and_elastic(small_system());
        assert_eq!(elastic.0, plain.0);
        let mut one_rank = small_system();
        one_rank.workers = 1;
        one_rank.classes[1].capacity = 0;
        let [plain, elastic] = plain_and_elastic(one_rank);
        assert_eq!(elastic, plain);
    }

    /// Per-rank streams and origin reads of `Job::run` and of a
    /// fault-free `ElasticJob::run` on `sys`, each over its own PFS.
    fn plain_and_elastic(sys: SystemSpec) -> [(Vec<Vec<u64>>, u64); 2] {
        let sizes = Arc::new(vec![1_000u64; 80]);
        let config = JobConfig::new(0xEC, 3, 4, sys, TimeScale::new(1e-6));
        let plain = Job::new(config.clone(), Arc::clone(&sizes));
        let pfs = plain.make_pfs();
        materialize(&pfs, &sizes);
        let streams = plain.run(&pfs, |w| w.by_ref().map(|(id, _)| id).collect());
        let job = ElasticJob::new(config, sizes, FaultPlan::fault_free()).expect("valid plan");
        let elastic_pfs = job.make_pfs();
        materialize(&elastic_pfs, &job.sizes);
        let report = job.run(&elastic_pfs);
        let ranks = (0..report.memberships[0]).map(|w| {
            let epochs = report.per_epoch.iter();
            epochs.flat_map(|(_, s)| s[w].iter().copied()).collect()
        });
        [
            (streams, pfs.stats().reads),
            (ranks.collect(), elastic_pfs.stats().reads),
        ]
    }

    #[test]
    fn crash_and_rejoin_replays_the_exact_stream() {
        let baseline = elastic_run(FaultPlan::fault_free());
        // Worker 1 crashes mid-epoch-0 and mid-epoch-2; worker 2
        // straggles 3x throughout.
        let plan = FaultPlan::fault_free()
            .crash(0, 2, 1)
            .crash(2, 1, 1)
            .straggle(0, 2, 3.0);
        let report = elastic_run(plan);
        assert_eq!(report.recoveries, 2);
        assert!(report.recovery_time > Duration::ZERO);
        assert_eq!(
            report.global_stream, baseline.global_stream,
            "crash recovery changed the global stream"
        );
        // Same membership throughout: no replan needed for a crash.
        assert_eq!(report.replans, 0);
    }

    #[test]
    fn churn_resplits_but_preserves_the_global_stream() {
        let baseline = elastic_run(FaultPlan::fault_free());
        let plan = FaultPlan::fault_free().leave(1).join(2).join(2);
        let report = elastic_run(plan);
        assert_eq!(report.memberships, vec![4, 3, 5]);
        // Two distinct non-initial memberships -> two incremental
        // replans, zero shuffle regenerations (the cheapness claim).
        assert_eq!(report.replans, 2);
        assert_eq!(report.replan_shuffle_generations, 0);
        assert_eq!(
            report.global_stream, baseline.global_stream,
            "membership churn changed the global stream"
        );
        // The re-split epochs really ran at their memberships.
        assert_eq!(report.per_epoch[1].1.len(), 3);
        assert_eq!(report.per_epoch[2].1.len(), 5);

        // A crash at step 0 of the epoch a membership change starts:
        // one boundary, one recovery, and the three survivors run the
        // last two epochs as one segment (4 + 3 launches).
        let job = elastic_job(FaultPlan::fault_free().leave(1).crash(1, 0, 0));
        let report = run(&job);
        assert_eq!(report.memberships, vec![4, 3, 3]);
        assert_eq!(report.recoveries, 1);
        assert_eq!(report.replans, 1);
        assert_eq!(report.global_stream, baseline.global_stream);
        let launches = job
            .config
            .obs
            .snapshot()
            .counter_total(names::WORKER_LAUNCHES);
        assert_eq!(launches, 7);
    }

    #[test]
    fn segments_count_real_epochs_after_a_leave_and_a_mid_epoch_crash() {
        // 80 samples over four epochs: four ranks of 20 in epoch 0, then
        // three of 27, 27 and 26, none of them a multiple of the batch
        // of 4. The crash cuts epoch 2 at step 3, so the last segment
        // starts mid-epoch and runs on into epoch 3.
        let sizes = Arc::new(vec![1_000u64; 80]);
        let obs = nopfs_obs::ObsCtx::traced();
        let config =
            JobConfig::new(0xEC, 4, 4, small_system(), TimeScale::new(1e-6)).with_obs(obs.clone());
        let plan = FaultPlan::fault_free().leave(1).crash(2, 3, 1);
        let spec = config.shuffle_spec(80);
        let canon = nopfs_policy::fault::elastic_epoch_streams(
            nopfs_policy::PolicyId::NoPfs,
            &config.system,
            &sizes,
            &spec,
            4,
            &plan,
        )
        .expect("valid plan");
        let job = ElasticJob::new(config, Arc::clone(&sizes), plan).expect("valid plan");
        let pfs = job.make_pfs();
        materialize(&pfs, &sizes);

        // Each batch is filed under the epoch the handle reports before
        // it: a batch that crossed an epoch boundary would carry the
        // next epoch's first ids into this one.
        let got: Vec<Mutex<Vec<Vec<SampleId>>>> =
            (0..4).map(|_| Mutex::new(vec![Vec::new(); 4])).collect();
        let got_ref = &got;
        let report = job.run_with(&pfs, |_| {
            move |handle: &mut WorkerHandle| {
                let mut mine = got_ref[handle.rank()].lock();
                loop {
                    let epoch = handle.current_epoch() as usize;
                    let Some(batch) = handle.next_batch() else {
                        break;
                    };
                    assert!(batch.len() <= 4);
                    mine[epoch].extend(batch.iter().map(|(id, _)| *id));
                }
            }
        });
        assert_eq!(report.memberships, vec![4, 3, 3, 3]);
        assert_eq!(report.recoveries, 1);
        let got: Vec<_> = got.into_iter().map(Mutex::into_inner).collect();
        for (e, (n, streams)) in canon.iter().enumerate() {
            for (w, rank) in got.iter().enumerate() {
                let want = streams.get(w).map_or(&[][..], Vec::as_slice);
                assert_eq!(rank[e], want, "rank {w}, epoch {e} (membership {n})");
            }
        }

        // One epoch instant per rank and epoch it is a member of.
        let mut labels: Vec<(f64, f64)> = obs
            .tracer
            .export()
            .iter()
            .filter(|ev| ev.name == names::EV_EPOCH)
            .map(|ev| {
                let arg = |key| match ev.args.iter().find(|(k, _)| *k == key) {
                    Some((_, nopfs_obs::ArgValue::Num(v))) => *v,
                    other => panic!("{key}: {other:?}"),
                };
                (arg("rank"), arg("epoch"))
            })
            .collect();
        labels.sort_by(|a, b| a.partial_cmp(b).expect("finite labels"));
        let members = (0..4).flat_map(|w| {
            (0..4)
                .filter(move |&e| w < 3 || e == 0)
                .map(move |e| (w, e))
        });
        let members: Vec<(f64, f64)> = members.map(|(w, e)| (f64::from(w), f64::from(e))).collect();
        assert_eq!(labels, members);
    }

    /// The loaders' `worker.pfs_errors` across every rank and segment
    /// of `job`'s runs, read after teardown.
    fn pfs_errors(job: &ElasticJob) -> u64 {
        let snapshot = job.config.obs.snapshot();
        snapshot.counter_total(names::WORKER_PFS_ERRORS)
    }

    fn read_errors() -> ReadErrors {
        ReadErrors {
            rate: 0.1,
            max_burst: 2,
            seed: 0xD15EA5E,
        }
    }

    #[test]
    fn injected_read_errors_are_absorbed_by_retries() {
        let baseline = elastic_run(FaultPlan::fault_free());
        let plan = FaultPlan::fault_free()
            .crash(1, 3, 0)
            .with_read_errors(read_errors());
        // Without a cloud clause the planted failures meet the loaders'
        // origin retry loop, which counts each one, and no resilient
        // source is built.
        let job = elastic_job(plan.clone());
        let report = run(&job);
        assert!(
            report.injected_read_errors > 0,
            "rate 0.1 must plant over 80 samples"
        );
        assert_eq!(pfs_errors(&job), report.injected_read_errors);
        assert_eq!(report.resilience, ResilienceStats::default());
        assert_eq!(
            report.global_stream, baseline.global_stream,
            "transient read errors changed the global stream"
        );
        // Beneath a (quiet) cloud origin the chain's resilient source
        // retries them instead. A hedge races a duplicate read to the
        // PFS and may win over a planted failure without a retry, so
        // the retries bound the plants only without one: the default
        // cloud knobs minus the hedge.
        let cloudy = elastic_job(plan.with_cloud(CloudFaults::none(0xC10D)));
        let (store, mut res) = ElasticJob::default_cloud_origin(&cloudy.config);
        res.hedge = None;
        let report = run(&cloudy.with_cloud_origin(store, res));
        assert!(report.injected_read_errors > 0);
        assert!(report.resilience.retries >= report.injected_read_errors);
        assert_eq!(report.resilience.exhausted, 0);
        assert_eq!(
            report.global_stream, baseline.global_stream,
            "transient read errors changed the global stream"
        );
    }

    #[test]
    fn read_errors_plant_the_same_faults_on_every_run() {
        // The faults are drawn per sample from the clause, not per read,
        // so thread interleaving cannot change how many there are.
        let plan = FaultPlan::fault_free().with_read_errors(read_errors());
        let planted: u64 = read_errors().bursts(80).map(|(_, b)| u64::from(b)).sum();
        for _ in 0..2 {
            let job = elastic_job(plan.clone());
            let report = run(&job);
            assert_eq!(report.injected_read_errors, planted);
            assert_eq!(pfs_errors(&job), planted);
        }
    }

    #[test]
    fn cloud_origin_disturbances_preserve_the_global_stream() {
        let baseline = elastic_run(FaultPlan::fault_free());
        // A cloud origin under sustained pressure: spikes, throttle
        // bursts, and a brownout covering the whole (compressed) run —
        // with a crash on top. Timing is disturbed; content must not be.
        let plan = FaultPlan::fault_free().crash(1, 2, 1).with_cloud(
            CloudFaults {
                spike_rate: 0.05,
                spike_factor: 6.0,
                throttle_rate: 0.08,
                throttle_burst: 2,
                retry_after: 1e-4,
                ..CloudFaults::none(0xC10D)
            }
            .brownout(0.0, 1e12, 3.0, 0.2),
        );
        let report = elastic_run(plan);
        assert!(report.resilience.reads > 0, "origin must be exercised");
        assert!(
            report.resilience.throttled > 0,
            "throttle rate 0.08 + brownout 0.2 must throttle over hundreds of reads"
        );
        assert!(report.resilience.retries > 0);
        assert_eq!(
            report.resilience.exhausted, 0,
            "retry budget must absorb bursts"
        );
        assert_eq!(
            report.global_stream, baseline.global_stream,
            "cloud disturbances changed the global stream"
        );
    }

    #[test]
    fn rejects_plans_the_shape_cannot_satisfy() {
        let sizes = Arc::new(vec![1_000u64; 80]);
        let config = JobConfig::new(0xEC, 2, 4, small_system(), TimeScale::new(1e-6));
        // Crash rank 7 in a 4-worker job.
        let err = ElasticJob::new(
            config.clone(),
            Arc::clone(&sizes),
            FaultPlan::fault_free().crash(0, 0, 7),
        )
        .map(|_| ())
        .expect_err("rank 7 does not exist");
        assert!(err.0.contains("outside membership"), "{err}");
        // A malformed read-error clause is refused up front too.
        let burstless = ReadErrors {
            max_burst: 0,
            ..read_errors()
        };
        let err = ElasticJob::new(
            config,
            sizes,
            FaultPlan::fault_free().with_read_errors(burstless),
        )
        .map(|_| ())
        .expect_err("bursts hold at least one failure");
        assert!(err.0.contains("max_burst"), "{err}");
    }
}
