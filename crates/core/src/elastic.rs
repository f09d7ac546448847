//! Elastic execution: membership churn, crash recovery, and fault
//! injection for the threaded NoPFS runtime.
//!
//! [`ElasticJob`] runs a job under a declarative [`FaultPlan`]: workers crash at step
//! boundaries and restart with cold caches, workers join or leave
//! between epochs, stragglers slow down, and transient PFS read errors
//! appear beneath the tier stacks. The headline guarantee — proven by
//! the determinism test suite — is that none of it changes delivered
//! *content*: the global sample stream is bit-for-bit the stream of the
//! undisturbed run.
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
//! Execution is bulk-synchronous, split into *segments*: an epoch runs
//! whole unless a crash is scheduled, in which case all ranks stop at
//! the crash step (the recovery barrier — with a per-step allreduce no
//! rank can proceed past a dead peer anyway), the worker set is torn
//! down, and the remainder of the epoch relaunches. Samples that were
//! staged but not yet consumed at the barrier are lost with their
//! worker's threads and *replayed*: the next segment's streams begin
//! exactly at the global step boundary. Survivors keep their warm
//! [`TierStack`]s across the barrier (the stacks are shared handles);
//! the crashed rank restarts with a cold, freshly built stack.

use crate::config::JobConfig;
use crate::msg::Msg;
use crate::stats::{SetupStats, WorkerStats};
use crate::worker::{class_index, Shared, WorkerHandle};
use crate::SampleId;
use nopfs_clairvoyance::engine::{SetupArtifacts, SetupPass};
use nopfs_clairvoyance::placement::GlobalPlacement;
use nopfs_clairvoyance::sampler::ShuffleSpec;
use nopfs_net::{cluster, NetConfig};
use nopfs_obs::names;
use nopfs_pfs::Pfs;
use nopfs_policy::fault::{CloudFaults, FaultPlan};
use nopfs_policy::Unsupported;
use nopfs_storage::{
    BreakerConfig, BrownoutWindow, DataSource, Disturbance, ErrorInjection, FaultySource,
    HedgeConfig, ObjectStoreBackend, ObjectStoreConfig, ResilienceConfig, ResilienceStats,
    ResilientSource, RetryPolicy, TierStack, TierStats,
};
use nopfs_util::rng::mix64;
use std::collections::HashMap;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// Initial accumulator of a segment-slice digest (the elastic analogue
/// of the engine's stream digests, folded over the slice only).
const SLICE_DIGEST_SEED: u64 = 0xE1A5_71C0;

/// Translates the plan's declarative [`CloudFaults`] clause into the
/// storage layer's [`Disturbance`], seeded per rank (the policy ↔
/// storage mirror, as with `ReadErrors` ↔ `ErrorInjection`).
fn disturbance_for(cloud: &CloudFaults, rank: usize) -> Disturbance {
    Disturbance {
        spike_rate: cloud.spike_rate,
        spike_factor: cloud.spike_factor,
        throttle_rate: cloud.throttle_rate,
        throttle_burst: cloud.throttle_burst,
        retry_after: cloud.retry_after,
        brownouts: cloud
            .brownouts
            .iter()
            .map(|b| BrownoutWindow {
                start: b.start,
                duration: b.duration,
                latency_factor: b.latency_factor,
                throttle_rate: b.throttle_rate,
            })
            .collect(),
        seed: mix64(cloud.seed, rank as u64),
    }
}

/// Everything one membership needs to run: replanned artifacts plus the
/// placement state `Job::new` would have computed for that worker count.
struct MembershipPlan {
    sys_workers: usize,
    spec: ShuffleSpec,
    arts: SetupArtifacts,
    placement: Arc<GlobalPlacement>,
    class_index: Vec<Arc<Vec<u32>>>,
}

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
    /// Wall time spent in recovery barriers (teardown through
    /// relaunch), the recovery overhead an undisturbed run never pays.
    pub recovery_time: Duration,
    /// Transient read errors injected beneath the tier stacks.
    pub injected_read_errors: u64,
    /// Resilience counters merged across every rank's origin chain
    /// (retries, hedges, breaker transitions) — `retries` counts the
    /// retries that absorbed the injected read errors. All-zero unless
    /// the plan injects read errors or has a [`CloudFaults`] clause,
    /// either of which puts a [`ResilientSource`] beneath the tier
    /// stacks.
    pub resilience: ResilienceStats,
    /// Per-tier statistics merged across the ranks still alive at run
    /// end (crashed/departed ranks take their caches — and counters —
    /// with them, as on a real machine).
    pub tier_stats: Vec<TierStats>,
    /// Wall time of each epoch (every segment plus its recovery
    /// barriers).
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

    /// The plan state for membership `n`: the base artifacts for the
    /// initial worker count, an incremental replan otherwise.
    fn plan_for<'a>(
        &self,
        cache: &'a mut HashMap<usize, MembershipPlan>,
        base: &SetupArtifacts,
        n: usize,
        replans: &mut u64,
        replan_shuffles: &mut u64,
    ) -> &'a MembershipPlan {
        let initial = self.config.system.workers;
        cache.entry(n).or_insert_with(|| {
            let arts = if n == initial {
                base.clone()
            } else {
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
                replanned
            };
            let spec = *arts.spec();
            let capacities: Vec<Vec<u64>> = (0..n)
                .map(|_| self.config.system.class_capacities())
                .collect();
            let placement = Arc::new(arts.placement(&self.sizes, &capacities));
            let class_index = class_index(&placement, n, self.sizes.len());
            MembershipPlan {
                sys_workers: n,
                spec,
                arts,
                placement,
                class_index,
            }
        })
    }

    /// Runs the job under its fault plan against `pfs` and returns the
    /// delivered streams plus recovery accounting.
    ///
    /// # Panics
    /// Panics if a worker thread panics (as `Job::run` does).
    pub fn run(&self, pfs: &Pfs) -> ElasticReport {
        let t_run = Instant::now();
        let epochs = self.config.epochs;
        let spec0 = self.config.shuffle_spec(self.sizes.len() as u64);
        let memberships = self.plan.memberships(spec0.num_workers, epochs);
        let t_setup = Instant::now();
        let base = SetupPass::new(spec0, epochs).run();
        let setup = SetupStats {
            shuffle_generations: base.shuffles_generated,
            setup_time: t_setup.elapsed(),
        };

        let mut cache: HashMap<usize, MembershipPlan> = HashMap::new();
        let mut replans = 0u64;
        let mut replan_shuffles = 0u64;
        let mut recoveries = 0u64;
        let mut recovery_time = Duration::ZERO;

        // Per-rank fault-wrapped origins (persist across segments so
        // injection state and retry statistics accumulate) and warm
        // tier stacks (persist across recovery barriers for survivors).
        let max_n = memberships.iter().copied().max().unwrap_or(1);
        let mut faulty: Vec<Option<Arc<FaultySource>>> = vec![None; max_n];
        let mut resilient: Vec<Option<Arc<ResilientSource>>> = vec![None; max_n];
        let mut warm: HashMap<usize, TierStack> = HashMap::new();

        let mut per_epoch: Vec<(usize, Vec<Vec<SampleId>>)> = Vec::with_capacity(epochs as usize);
        let mut epoch_times = Vec::with_capacity(epochs as usize);
        let mut stats = WorkerStats::default();

        for (e, &n) in memberships.iter().enumerate() {
            let e = e as u64;
            let t_epoch = Instant::now();
            let mp = self.plan_for(&mut cache, &base, n, &mut replans, &mut replan_shuffles);
            let spec_n = mp.spec;
            let spe = spec_n.samples_per_epoch();
            let global_batch = (n * self.config.batch_size) as u64;
            let steps = spe.div_ceil(global_batch);

            // Epoch-e sequence of each rank under this membership.
            let epoch_seqs: Vec<&[SampleId]> = (0..n)
                .map(|w| {
                    let len = spec_n.worker_epoch_len(w) as usize;
                    &mp.arts.stream(w)[e as usize * len..(e as usize + 1) * len]
                })
                .collect();

            // Segment boundaries: every scheduled crash step.
            let crashes = self.plan.crashes_in(e);
            let mut boundaries: Vec<u64> = crashes.iter().map(|&(s, _)| s).collect();
            boundaries.dedup();
            boundaries.push(steps);

            let mut delivered: Vec<Vec<SampleId>> = vec![Vec::new(); n];
            let mut s0 = 0u64;
            let mut recovering = false;
            for &s1 in &boundaries {
                if s1 > s0 {
                    let t_rec = Instant::now();
                    let slices: Vec<Vec<SampleId>> = (0..n)
                        .map(|w| {
                            let len = epoch_seqs[w].len() as u64;
                            let j0 = (s0 * self.config.batch_size as u64).min(len) as usize;
                            let j1 = (s1 * self.config.batch_size as u64).min(len) as usize;
                            epoch_seqs[w][j0..j1].to_vec()
                        })
                        .collect();
                    let (got, seg_stats) = self.run_segment(
                        pfs,
                        mp,
                        e,
                        slices,
                        &mut faulty,
                        &mut resilient,
                        &mut warm,
                        recovering.then_some(t_rec),
                        &mut recovery_time,
                    );
                    for (w, ids) in got.into_iter().enumerate() {
                        delivered[w].extend(ids);
                    }
                    stats.merge(&seg_stats);
                    recovering = false;
                }
                // Ranks crashing at this boundary lose their caches:
                // the next segment rebuilds them cold.
                for &(step, rank) in crashes.iter().filter(|&&(s, _)| s == s1) {
                    debug_assert_eq!(step, s1);
                    self.config.obs.tracer.instant(
                        names::EV_CRASH,
                        "elastic",
                        vec![
                            ("epoch", e.into()),
                            ("step", step.into()),
                            ("rank", rank.into()),
                        ],
                    );
                    warm.remove(&rank);
                    recoveries += 1;
                    recovering = true;
                }
                s0 = s1;
            }
            epoch_times.push(t_epoch.elapsed());
            per_epoch.push((n, delivered));

            // Membership shrinks next epoch: departed ranks' caches go
            // with them.
            if let Some(&n_next) = memberships.get(e as usize + 1) {
                for rank in n_next..n {
                    warm.remove(&rank);
                }
            }
        }

        // The global stream: round-robin re-interleave of each epoch.
        let spe = spec0.samples_per_epoch() as usize;
        let mut global_stream = Vec::with_capacity(spe * epochs as usize);
        for (n, streams) in &per_epoch {
            for pos in 0..spe {
                global_stream.push(streams[pos % n][pos / n]);
            }
        }

        ElasticReport {
            global_stream,
            per_epoch,
            memberships,
            replans,
            replan_shuffle_generations: replan_shuffles,
            recoveries,
            recovery_time,
            injected_read_errors: faulty.iter().flatten().map(|f| f.injected()).sum(),
            resilience: {
                let mut acc = ResilienceStats::default();
                for r in resilient.iter().flatten() {
                    if let Some(s) = DataSource::resilience(r.as_ref()) {
                        acc.merge(&s);
                    }
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
            epoch_times,
            stats,
            setup,
            elapsed: t_run.elapsed(),
        }
    }

    /// The origin `rank`'s tier stack bottoms out in: the bare PFS for a
    /// plan that disturbs no read, otherwise one chain — the PFS, a
    /// [`FaultySource`] when the plan injects read errors, an
    /// [`ObjectStoreBackend`] when it has a [`CloudFaults`] clause, and
    /// one [`ResilientSource`] on top: the cloud-origin knobs with a
    /// cloud clause, a plain retry whose budget exceeds the burst bound
    /// (reads stay transient by construction) without one. Persisted
    /// per rank so burst state, breaker state, and statistics span
    /// segments and recovery barriers.
    fn origin_for(
        &self,
        pfs: &Pfs,
        rank: usize,
        faulty: &mut [Option<Arc<FaultySource>>],
        resilient: &mut [Option<Arc<ResilientSource>>],
    ) -> Arc<dyn DataSource> {
        if self.plan.cloud.is_none() && self.plan.read_errors.is_none() {
            return Arc::new(pfs.clone());
        }
        let r = resilient[rank].get_or_insert_with(|| {
            let mut origin: Arc<dyn DataSource> = Arc::new(pfs.clone());
            if let Some(errors) = self.plan.read_errors {
                let inject = Arc::new(FaultySource::new(
                    origin,
                    ErrorInjection::new(
                        errors.rate,
                        errors.max_burst,
                        mix64(errors.seed, rank as u64),
                    ),
                ));
                faulty[rank] = Some(Arc::clone(&inject));
                origin = inject;
            }
            let res = match (&self.plan.cloud, self.plan.read_errors) {
                (Some(cloud), _) => {
                    let (store, mut res) = self
                        .cloud_origin
                        .clone()
                        .expect("cloud plan implies cloud_origin");
                    let store = store.with_disturbance(disturbance_for(cloud, rank));
                    origin = Arc::new(ObjectStoreBackend::over(origin, store, self.config.scale));
                    res.retry.seed = mix64(res.retry.seed, rank as u64);
                    res
                }
                (None, Some(errors)) => ResilienceConfig::retry_only(RetryPolicy::new(
                    errors.max_burst + 2,
                    Duration::from_micros(20),
                    0.3,
                    mix64(errors.seed ^ 0x5E7B, rank as u64),
                )),
                (None, None) => unreachable!("an undisturbed plan reads the bare PFS"),
            };
            let obs = self.config.obs.scoped([("rank", rank.to_string())]);
            Arc::new(
                ResilientSource::new_in_registry(origin, res, self.config.scale, &obs.registry)
                    .with_tracer(obs.tracer),
            )
        });
        Arc::clone(r) as Arc<dyn DataSource>
    }

    /// Launches one bulk-synchronous segment — every rank consumes its
    /// slice to the end — and returns the delivered ids per rank.
    /// Survivors receive their warm tier stacks; ranks without one
    /// (cold restarts, joiners, epoch 0) build fresh stacks.
    #[allow(clippy::too_many_arguments)]
    fn run_segment(
        &self,
        pfs: &Pfs,
        mp: &MembershipPlan,
        epoch: u64,
        slices: Vec<Vec<SampleId>>,
        faulty: &mut [Option<Arc<FaultySource>>],
        resilient: &mut [Option<Arc<ResilientSource>>],
        warm: &mut HashMap<usize, TierStack>,
        recovery_started: Option<Instant>,
        recovery_time: &mut Duration,
    ) -> (Vec<Vec<SampleId>>, WorkerStats) {
        let n = mp.sys_workers;
        let mut config = self.config.clone();
        config.system.workers = n;
        let scale = config.scale;
        let sys = config.system.clone();

        // Slice digests: the recovery allgather check, folded over
        // exactly the samples this segment will deliver.
        let digests: Vec<u64> = slices
            .iter()
            .enumerate()
            .map(|(w, s)| {
                let mut acc = SLICE_DIGEST_SEED ^ w as u64;
                for &id in s {
                    acc = mix64(acc, id);
                }
                acc
            })
            .collect();
        let shared = Arc::new(Shared {
            config,
            sizes: Arc::clone(&self.sizes),
            placement: Arc::clone(&mp.placement),
            spec: mp.spec,
            class_index: mp.class_index.clone(),
            digests,
            streams: slices.into_iter().map(Arc::new).collect(),
            setup: SetupStats {
                shuffle_generations: mp.arts.shuffles_generated,
                setup_time: Duration::ZERO,
            },
        });

        // Tier stacks: warm handoff where one survives, cold otherwise.
        let tiers: Vec<TierStack> = (0..n)
            .map(|rank| {
                warm.entry(rank)
                    .or_insert_with(|| {
                        let origin = self.origin_for(pfs, rank, faulty, resilient);
                        let obs = self.config.obs.scoped([("rank", rank.to_string())]);
                        crate::tiers::class_tier_stack_in_registry(
                            &sys,
                            scale,
                            origin,
                            &obs.registry,
                        )
                    })
                    .clone()
            })
            .collect();

        let endpoints = cluster::<Msg>(n, NetConfig::new(sys.interconnect, scale));
        let sys = &sys;
        let launched = Arc::new(Barrier::new(n + 1));
        let delivered: Vec<Mutex<Vec<SampleId>>> = (0..n).map(|_| Mutex::new(Vec::new())).collect();
        let seg_stats = Mutex::new(WorkerStats::default());
        std::thread::scope(|s| {
            for (rank, endpoint) in endpoints.into_iter().enumerate() {
                let shared = Arc::clone(&shared);
                let pfs = pfs.clone();
                let tiers = tiers[rank].clone();
                let launched = Arc::clone(&launched);
                let out = &delivered[rank];
                let straggle = self.plan.straggle_factor(epoch, rank);
                let sizes = &self.sizes;
                let seg_stats = &seg_stats;
                s.spawn(move || {
                    let mut handle =
                        WorkerHandle::launch_with_tiers(rank, shared, pfs, endpoint, Some(tiers));
                    launched.wait();
                    let mut ids = Vec::with_capacity(handle.len() as usize);
                    while let Some((id, data)) = handle.next_sample() {
                        debug_assert_eq!(data.len() as u64, sizes[id as usize]);
                        if straggle > 1.0 {
                            // The straggler pays extra compute time per
                            // sample; content is untouched.
                            scale.wait((straggle - 1.0) * sys.write_time(data.len() as u64));
                        }
                        ids.push(id);
                    }
                    *out.lock().expect("delivered lock") = ids;
                    seg_stats.lock().expect("stats lock").merge(&handle.stats());
                    handle.shutdown();
                });
            }
            // Recovery ends when every rank is launched and consuming.
            launched.wait();
            if let Some(t0) = recovery_started {
                *recovery_time += t0.elapsed();
                self.config.obs.tracer.complete(
                    names::EV_RECOVERY_BARRIER,
                    "elastic",
                    t0,
                    vec![("workers", n.into())],
                );
            }
        });
        (
            delivered
                .into_iter()
                .map(|m| m.into_inner().expect("delivered lock"))
                .collect(),
            seg_stats.into_inner().expect("stats lock"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let report = elastic_run(FaultPlan::fault_free());
        assert_eq!(report.recoveries, 0);
        assert_eq!(report.replans, 0);
        assert_eq!(report.stats.samples_consumed, 80 * 3);
        assert_eq!(report.epoch_times.len(), 3);
        assert_eq!(report.setup.shuffle_generations, 3);
        // Content check: per-epoch delivery is exactly-once.
        assert_eq!(report.global_stream.len(), 80 * 3);
        for (e, (_, streams)) in report.per_epoch.iter().enumerate() {
            let mut epoch: Vec<u64> = streams.iter().flatten().copied().collect();
            epoch.sort_unstable();
            let all: Vec<u64> = (0..80).collect();
            assert_eq!(epoch, all, "epoch {e} not exactly-once");
        }
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
    }

    #[test]
    fn injected_read_errors_are_absorbed_by_retries() {
        let baseline = elastic_run(FaultPlan::fault_free());
        let errors = ReadErrors {
            rate: 0.1,
            max_burst: 2,
            seed: 0xD15EA5E,
        };
        let plan = FaultPlan::fault_free()
            .crash(1, 3, 0)
            .with_read_errors(errors);
        // Beneath a (quiet) cloud origin too. A hedge races a duplicate
        // read through the injector and may win over an injected failure
        // without a retry, so the retries bound the injections only
        // without one: the default cloud knobs minus the hedge.
        let cloudy = elastic_job(plan.clone().with_cloud(CloudFaults::none(0xC10D)));
        let (store, mut res) = ElasticJob::default_cloud_origin(&cloudy.config);
        res.hedge = None;
        // Either way one resilient source per rank retries every
        // injected error.
        for job in [elastic_job(plan), cloudy.with_cloud_origin(store, res)] {
            let report = run(&job);
            assert!(
                report.injected_read_errors > 0,
                "rate 0.1 must inject over hundreds of reads"
            );
            assert!(report.resilience.retries >= report.injected_read_errors);
            assert_eq!(report.resilience.exhausted, 0);
            assert_eq!(
                report.global_stream, baseline.global_stream,
                "transient read errors changed the global stream"
            );
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
            config,
            Arc::clone(&sizes),
            FaultPlan::fault_free().crash(0, 0, 7),
        )
        .map(|_| ())
        .expect_err("rank 7 does not exist");
        assert!(err.0.contains("outside membership"), "{err}");
    }
}
