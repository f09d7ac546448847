//! One function per job: every tenant of `nopfs_cluster` and every
//! runtime bench run trains through [`run_job`], whatever its policy or
//! fault plan (DESIGN §6 draws it).

use crate::loop_runner::{RankLoop, RunMetrics, TrainLoopConfig};
use nopfs_baselines::{registry, DataLoader};
use nopfs_core::stats::{SetupStats, WorkerStats};
use nopfs_core::{plant_read_errors, ElasticReport, Job, JobConfig, WorkerHandle};
use nopfs_net::{cluster, Endpoint, NetConfig};
use nopfs_pfs::Pfs;
use nopfs_policy::{FaultPlan, PolicyId, Unsupported};
use nopfs_util::stats::{steady_epoch_time, Summary};
use parking_lot::Mutex;
use std::sync::Arc;

/// One launch's gradient endpoints, each taken once by its rank.
type Endpoints = Mutex<Vec<Option<Endpoint<Vec<f32>>>>>;

/// What one job's training run measured.
#[derive(Debug, Clone)]
pub struct JobRun {
    /// Each rank's loop metrics, in rank order, with one entry per
    /// epoch (empty for an epoch the rank was not a member of).
    pub per_worker: Vec<RunMetrics>,
    /// Bulk-synchronous epoch times (slowest rank), model seconds.
    pub epoch_times: Vec<f64>,
    /// Loader statistics merged across ranks and launches.
    pub stats: WorkerStats,
    /// Clairvoyant setup statistics (NoPFS only).
    pub setup: Option<SetupStats>,
    /// The NoPFS runtime's report (recoveries, resilience, tier stats;
    /// its streams and epoch times are empty). `None` for baselines.
    pub elastic: Option<ElasticReport>,
}

impl JobRun {
    /// Median epoch time excluding epoch 0 (the figures' convention).
    pub fn median_epoch_time(&self) -> f64 {
        steady_epoch_time(&self.epoch_times)
    }

    /// Pooled batch times across ranks, optionally excluding epoch 0.
    pub fn batch_summary(&self, skip_first_epoch: bool) -> Summary {
        self.pooled(|m| match skip_first_epoch {
            true => m.batches_after_warmup(),
            false => &m.batch_times,
        })
    }

    /// Batch times of epoch 0 only (Fig. 11).
    pub fn first_epoch_batches(&self) -> Summary {
        self.pooled(|m| match m.batches_per_epoch.is_empty() {
            true => &[],
            false => m.epoch_batches(0),
        })
    }

    /// The summary of `times` pooled across ranks (of one 0 if empty).
    fn pooled<'a>(&'a self, times: impl Fn(&'a RunMetrics) -> &'a [f64]) -> Summary {
        let mut all: Vec<f64> = self.per_worker.iter().flat_map(times).copied().collect();
        if all.is_empty() {
            all.push(0.0);
        }
        Summary::new(&all)
    }
}

/// Trains `policy` on the dataset of `sizes` in `pfs` under `plan`: one
/// [`run_training_loop`](crate::run_training_loop)-style loop per rank,
/// each step computing and then allreducing `loop_cfg.grad_elems`
/// gradient elements with the other ranks of its launch.
///
/// A NoPFS job runs through [`Job::run_with`], which realizes every
/// event of the plan; the baselines run through
/// [`registry::run_policy`] and realize its stragglers and read errors
/// only.
///
/// The job runs on the config [`admit`] returns.
///
/// # Errors
/// [`Unsupported`] when [`admit`] refuses the job, or the policy
/// cannot run the configuration.
pub fn run_job(
    policy: PolicyId,
    config: JobConfig,
    sizes: Arc<Vec<u64>>,
    pfs: &Pfs,
    plan: &FaultPlan,
    loop_cfg: &TrainLoopConfig,
) -> Result<JobRun, Unsupported> {
    let config = admit(policy, config, &sizes, plan, loop_cfg.grad_elems)?;
    let (epochs, workers) = (config.epochs, config.system.workers);
    let memberships = plan.memberships(workers, epochs);
    let ranks = memberships.iter().copied().max().unwrap_or(1);
    let loops: Vec<Mutex<RankLoop>> = (0..ranks)
        .map(|_| Mutex::new(RankLoop::new(*loop_cfg)))
        .collect();
    // The job's private gradient network, one endpoint per rank of a
    // launch.
    let net = NetConfig::new(config.system.interconnect, config.scale);
    let endpoints =
        |n: usize| -> Endpoints { Mutex::new(cluster(n, net).into_iter().map(Some).collect()) };
    let train = |loader: &mut dyn DataLoader, epoch: u64, eps: &Endpoints| {
        let rank = loader.rank();
        let ep = eps.lock()[rank]
            .take()
            .expect("each rank takes its endpoint once per launch");
        loops[rank].lock().run(loader, epoch, plan, Some(&ep));
    };
    let train = &train;

    let (setup, elastic) = if policy == PolicyId::NoPfs {
        let job = Job::with_plan(config, sizes, plan.clone())?;
        let report = job.run_with(pfs, |n| {
            let eps = endpoints(n);
            move |handle: &mut WorkerHandle| {
                let epoch = handle.current_epoch();
                train(handle, epoch, &eps);
            }
        });
        (Some(report.setup.clone()), Some(report))
    } else {
        // Read errors live in the job's namespace of the PFS.
        plant_read_errors(plan, pfs, sizes.len() as u64);
        let eps = endpoints(workers);
        let outcome =
            registry::run_policy(policy, config, sizes, pfs, |loader| train(loader, 0, &eps))?;
        (outcome.setup, None)
    };

    let per_worker: Vec<RunMetrics> = loops
        .into_iter()
        .map(|l| l.into_inner().finish(epochs))
        .collect();
    let slowest = |e| {
        per_worker
            .iter()
            .map(|m| m.epoch_times[e])
            .fold(0.0, f64::max)
    };
    let mut stats = WorkerStats::default();
    for m in &per_worker {
        stats.merge(&m.stats);
    }
    Ok(JobRun {
        epoch_times: (0..epochs as usize).map(slowest).collect(),
        stats,
        per_worker,
        setup,
        elastic,
    })
}

/// The one admission check of a [`run_job`] of `policy` on `config`
/// over a dataset of `sizes` under `plan`, with `grad_elems` gradient
/// elements allreduced per step. Returns the config the job runs on:
/// `drop_last` on, so that every rank takes the same steps, unless the
/// plan needs elastic handling, whose churn must keep the epoch length.
///
/// # Errors
/// [`Unsupported`] when the LBANN store cannot hold the dataset, a
/// baseline is given a crash, churn or cloud plan, the plan does not fit
/// the run shape, or a gradient allreduce would meet ragged steps.
pub fn admit(
    policy: PolicyId,
    config: JobConfig,
    sizes: &[u64],
    plan: &FaultPlan,
    grad_elems: usize,
) -> Result<JobConfig, Unsupported> {
    let (epochs, workers) = (config.epochs, config.system.workers);
    if matches!(policy, PolicyId::LbannDynamic | PolicyId::LbannPreloading) {
        nopfs_policy::core::lbann_feasible(&config.system, sizes.iter().sum())?;
    }
    let elastic = plan.needs_elastic(workers, epochs);
    if elastic && policy != PolicyId::NoPfs {
        return Err(Unsupported(format!(
            "{policy} realizes stragglers and read errors only; crash, churn and cloud \
             plans need the elastic NoPFS runtime"
        )));
    }
    let config = config.drop_last(!elastic);
    let spec = config.shuffle_spec(sizes.len() as u64);
    plan.validate(&spec, epochs)?;
    if grad_elems > 0 {
        plan.equal_steps(&spec, epochs)?;
    }
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use nopfs_perfmodel::presets::fig8_small_cluster;
    use nopfs_util::timing::TimeScale;

    /// A 2-rank `policy` job over `samples` samples of 1 KB, run under
    /// `plan` with a per-step allreduce.
    fn run(policy: PolicyId, samples: u64, plan: &FaultPlan) -> Result<JobRun, Unsupported> {
        let mut sys = fig8_small_cluster();
        sys.workers = 2;
        let scale = TimeScale::new(1e-6);
        let config = JobConfig::new(5, 3, 4, sys.clone(), scale);
        let pfs = Pfs::in_memory(sys.pfs_read.clone(), scale);
        for id in 0..samples {
            pfs.put(id, Bytes::from(vec![id as u8; 1_000]));
        }
        let sizes = Arc::new(vec![1_000u64; samples as usize]);
        let loop_cfg = TrainLoopConfig {
            compute_rate: 1e9,
            scale,
            grad_elems: 16,
        };
        run_job(policy, config, sizes, &pfs, plan, &loop_cfg)
    }

    #[test]
    fn the_loop_runs_on_across_segments_and_departed_epochs_are_empty() {
        // A crash cuts epoch 0, a join adds rank 2 for epoch 1 and a
        // leave removes it again before epoch 2: the allreduce of every
        // launch meets equal steps (36 samples: 18 each, then 12 each),
        // and the cut epoch is still one epoch.
        let plan = FaultPlan::fault_free().crash(0, 2, 1).join(1).leave(2);
        let run = run(PolicyId::NoPfs, 36, &plan).expect("equal steps");
        assert_eq!(run.stats.samples_consumed, 3 * 36);
        assert_eq!(run.elastic.as_ref().map(|r| r.recoveries), Some(1));
        let batches: Vec<_> = run
            .per_worker
            .iter()
            .map(|m| m.batches_per_epoch.clone())
            .collect();
        assert_eq!(batches, vec![vec![5, 3, 5], vec![5, 3, 5], vec![0, 3, 0]]);
        assert_eq!(run.epoch_times.len(), 3);
        assert_eq!(run.per_worker[2].epoch_times[0], 0.0);
    }

    #[test]
    fn ragged_steps_are_refused_not_deadlocked() {
        // 37 samples: 19 and 18 on two ranks (five batches of 4 each),
        // then 13, 12 and 12 on three (four batches or three).
        let err = run(PolicyId::NoPfs, 37, &FaultPlan::fault_free().join(1))
            .map(|_| ())
            .expect_err("ragged steps");
        assert!(err.0.contains("equal steps"), "{err}");
        assert!(run(PolicyId::NoPfs, 37, &FaultPlan::fault_free()).is_ok());
    }

    #[test]
    fn baselines_refuse_plans_only_nopfs_realizes() {
        let crash = FaultPlan::fault_free().crash(0, 1, 0);
        let err = run(PolicyId::Naive, 16, &crash)
            .map(|_| ())
            .expect_err("a naive loader cannot replay a crash");
        assert!(err.0.contains("stragglers and read errors only"), "{err}");
    }
}
