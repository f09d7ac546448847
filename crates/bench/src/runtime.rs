//! The runtime experiment runner: drives real loaders (NoPFS and the
//! baselines) through the timed training loop on the synthetic
//! substrates, and aggregates the numbers the Sec. 7 figures report.

use nopfs_core::JobConfig;
use nopfs_datasets::DatasetProfile;
use nopfs_perfmodel::SystemSpec;
use nopfs_pfs::Pfs;
use nopfs_policy::{FaultPlan, PolicyId, Unsupported};
use nopfs_train::{run_job, JobRun, TrainLoopConfig};
use nopfs_util::timing::TimeScale;
use std::sync::Arc;

/// The loader policies the runtime experiments compare (the paper's
/// Sec. 7 frameworks), by figure label. Each runs as a registry
/// [`PolicyId`] ([`run_policy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimePolicy {
    /// Synthetic in-RAM data: the "No I/O" lower bound.
    NoIo,
    /// PyTorch's built-in double-buffering `DataLoader`.
    PyTorch,
    /// DALI: double buffering with GPU-offloaded preprocessing.
    Dali,
    /// The LBANN data store (dynamic mode).
    Lbann,
    /// NoPFS.
    NoPfs,
}

impl RuntimePolicy {
    /// Figure label.
    pub fn name(&self) -> &'static str {
        match self {
            RuntimePolicy::NoIo => "No I/O",
            RuntimePolicy::PyTorch => "PyTorch",
            RuntimePolicy::Dali => "PyTorch+DALI",
            RuntimePolicy::Lbann => "LBANN",
            RuntimePolicy::NoPfs => "NoPFS",
        }
    }

    /// The registry policy behind the label. PyTorch's double buffering
    /// and DALI are both `StagingBuffer`; DALI runs it on a system with
    /// faster preprocessing.
    fn policy_id(&self) -> PolicyId {
        match self {
            RuntimePolicy::NoIo => PolicyId::Perfect,
            RuntimePolicy::PyTorch | RuntimePolicy::Dali => PolicyId::StagingBuffer,
            RuntimePolicy::Lbann => PolicyId::LbannDynamic,
            RuntimePolicy::NoPfs => PolicyId::NoPfs,
        }
    }
}

/// DALI's GPU-offloaded preprocessing: `sys` with the preprocessing
/// rate `β` and the staging write curve `w₀` both 2.5× faster, so
/// `write_time(s) = max(s/β, s/(w₀(p₀)/p₀))` is 0.4× on either branch
/// of its `max` (the paper found DALI "a relatively small performance
/// improvement over the default PyTorch DataLoader").
fn dali(sys: &SystemSpec) -> SystemSpec {
    const SPEEDUP: f64 = 2.5;
    let mut sys = sys.clone();
    sys.preprocess *= SPEEDUP;
    sys.staging.write = sys.staging.write.scaled(SPEEDUP);
    sys
}

/// One runtime experiment configuration.
#[derive(Clone)]
pub struct Experiment {
    /// The modelled system (includes worker count).
    pub system: SystemSpec,
    /// The dataset (already scaled).
    pub profile: DatasetProfile,
    /// Training epochs.
    pub epochs: u64,
    /// Per-worker batch size.
    pub batch: usize,
    /// Shuffle seed.
    pub seed: u64,
    /// Model-to-wall mapping.
    pub scale: TimeScale,
    /// Compute throughput `c`, model bytes/s.
    pub compute: f64,
    /// Emulated gradient elements per allreduce.
    pub grad_elems: usize,
}

impl Experiment {
    /// The scaled ImageNet-1k runtime experiment behind Figs. 10–13:
    /// dataset and capacities scaled together so the paper's caching
    /// regimes survive, PFS saturating at 256 MB/s so contention sets
    /// in around four workers.
    pub fn imagenet(kind: crate::scenarios::SystemKind, workers: usize) -> Self {
        use crate::scenarios::{runtime_system, SystemKind};
        let cap_scale = match kind {
            SystemKind::PizDaint => 1.0 / 2_000.0,
            SystemKind::Lassen => 1.0 / 500.0,
        };
        Self {
            system: runtime_system(kind, workers, cap_scale, 192.0),
            profile: DatasetProfile::imagenet_1k().scaled(1.0 / 2_000.0, 1.0),
            epochs: 4,
            batch: 8,
            seed: 0xF1_6A,
            scale: TimeScale::new(1.0),
            compute: 64.0e6,
            grad_elems: 256,
        }
    }

    /// The scaled ImageNet-22k experiment (Fig. 14): many more samples
    /// relative to RAM, so the SSD tier carries the caching.
    pub fn imagenet_22k(workers: usize) -> Self {
        use crate::scenarios::{runtime_system, SystemKind};
        Self {
            system: runtime_system(SystemKind::Lassen, workers, 1.0 / 10_000.0, 192.0),
            profile: DatasetProfile::imagenet_22k().scaled(1.0 / 20_000.0, 1.0),
            epochs: 3,
            batch: 8,
            seed: 0xF1_6B,
            scale: TimeScale::new(1.0),
            compute: 64.0e6,
            grad_elems: 256,
        }
    }

    /// The scaled CosmoFlow experiment (Fig. 15): few large fixed-size
    /// samples; the dataset exceeds cluster storage at small worker
    /// counts.
    pub fn cosmoflow(workers: usize) -> Self {
        use crate::scenarios::{runtime_system, SystemKind};
        Self {
            system: runtime_system(SystemKind::Lassen, workers, 1.0 / 2_000.0, 192.0),
            profile: DatasetProfile::cosmoflow().scaled(1.0 / 200.0, 1.0 / 50.0),
            epochs: 3,
            batch: 4,
            seed: 0xF1_6C,
            scale: TimeScale::new(0.25),
            compute: 64.0e6,
            grad_elems: 256,
        }
    }

    /// Returns a copy with a different per-worker batch size (Fig. 13).
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// The `fig8_runtime` experiment: one small contended system on
    /// which **all ten** registry policies run as real loader threads —
    /// the runtime counterpart of the Fig. 8 simulation sweep. Sized so
    /// every policy is feasible (the dataset fits aggregate RAM for the
    /// LBANN modes and one worker's storage for sharding) while the
    /// saturating PFS still separates PFS-bound policies from
    /// cache-based ones.
    pub fn fig8_runtime() -> Self {
        use nopfs_perfmodel::presets::{fig8_small_cluster, saturating_pfs_curve};
        use nopfs_util::units::MB;
        let mut system = fig8_small_cluster().with_compute_mbps(64.0, 200.0);
        system.workers = 4;
        system.staging.capacity = 200_000;
        system.staging.threads = 2;
        system.classes[0].capacity = 2_000_000; // RAM: half the dataset
        system.classes[1].capacity = 4_000_000; // SSD: the rest
        system.pfs_read = saturating_pfs_curve(60.0 * MB, 8.0);
        Self {
            system,
            profile: DatasetProfile::new("fig8-runtime", 240, 20_000.0, 0.0, 4, 0xF8_57),
            epochs: 3,
            batch: 4,
            seed: 0xF8_58,
            scale: TimeScale::new(0.05),
            compute: 64.0e6,
            grad_elems: 256,
        }
    }
}

/// Runs any of the ten registry policies on one experiment through the
/// workspace's one job function ([`run_job`]) — the entry point of the
/// `fig8_runtime` sweep, and the body of [`run_policy`].
///
/// # Errors
/// [`Unsupported`] when the policy cannot run the configuration.
pub fn run_policy_id(exp: &Experiment, policy: PolicyId) -> Result<JobRun, Unsupported> {
    let config = JobConfig::new(
        exp.seed,
        exp.epochs,
        exp.batch,
        exp.system.clone(),
        exp.scale,
    );
    let loop_cfg = TrainLoopConfig {
        compute_rate: exp.compute,
        scale: exp.scale,
        grad_elems: exp.grad_elems,
    };
    let pfs = Pfs::in_memory(exp.system.pfs_read.clone(), exp.scale);
    if policy != PolicyId::Perfect {
        exp.profile.materialize(&pfs);
    }
    let sizes = Arc::new(exp.profile.sizes());
    run_job(
        policy,
        config,
        sizes,
        &pfs,
        &FaultPlan::fault_free(),
        &loop_cfg,
    )
}

/// Runs one figure-labelled policy on one experiment: its registry
/// policy through [`run_policy_id`] — `Perfect` for No I/O,
/// `StagingBuffer` for PyTorch and DALI, `LbannDynamic` for LBANN —
/// on DALI's faster-preprocessing system for [`RuntimePolicy::Dali`].
/// Returns `None` when the registry refuses the configuration (LBANN
/// with an over-sized dataset).
pub fn run_policy(exp: &Experiment, policy: RuntimePolicy) -> Option<JobRun> {
    let system = match policy {
        RuntimePolicy::Dali => dali(&exp.system),
        _ => exp.system.clone(),
    };
    let exp = Experiment {
        system,
        ..exp.clone()
    };
    run_policy_id(&exp, policy.policy_id()).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nopfs_perfmodel::presets::fig8_small_cluster;

    /// DALI's transform makes `write_time` exactly 0.4× on both
    /// branches of its `max`, and touches nothing else.
    #[test]
    fn dali_write_time_is_four_tenths_on_either_branch() {
        let preprocess_bound = fig8_small_cluster();
        let mut staging_bound = fig8_small_cluster();
        staging_bound.preprocess = staging_bound.staging.write_per_thread() * 10.0;
        for (sys, preprocess_wins) in [(preprocess_bound, true), (staging_bound, false)] {
            let size = 123_457;
            let s = size as f64;
            assert_eq!(
                s / sys.preprocess > s / sys.staging.write_per_thread(),
                preprocess_wins,
                "the case is on the branch it names"
            );
            let fast = dali(&sys);
            let want = 0.4 * sys.write_time(size);
            let rel = (fast.write_time(size) - want).abs() / want;
            assert!(rel < 1e-12, "relative error {rel}");
            let mut back = fast.clone();
            back.preprocess = sys.preprocess;
            back.staging.write = sys.staging.write.clone();
            assert_eq!(back, sys, "only β and w₀ change");
        }
    }
}
