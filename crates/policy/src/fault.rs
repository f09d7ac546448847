//! Fault plans: declarative schedules of crashes, membership churn,
//! stragglers, and transient read errors, shared by every harness.
//!
//! A [`FaultPlan`] is the single vocabulary the threaded runtime, the
//! discrete-event simulator, and the multi-tenant cluster all inject
//! from, so the cross-harness agreement tests can subject both
//! executions to *the same* disturbance and compare streams. The plan
//! is purely declarative — each harness realizes the events with its
//! own mechanisms (real thread teardown and warm-cache handoff in the
//! runtime, modelled recovery penalties in the simulator), except read
//! errors: the runtime and the cluster both plant
//! [`ReadErrors::bursts`] in the PFS they read.
//!
//! The replay-exactness this module's consumers prove rests on one
//! property of the sampler: the epoch seed mixes only `(seed, epoch)` —
//! never the worker count — so the global consumption order of an epoch
//! is one fixed permutation for *any* membership, merely dealt
//! round-robin to however many ranks exist. Crashes and stragglers
//! never change delivered content at all; joins and leaves only change
//! how the same global order is split. [`FaultPlan::validate`] enforces
//! the one precondition (`drop_last` must not let the global batch
//! change the epoch length), and [`elastic_epoch_streams`] /
//! [`elastic_global_stream`] are the canonical expected results every
//! harness is compared against.

use crate::core::{build_core, transformed_streams, PolicyCore};
use crate::id::PolicyId;
use crate::Unsupported;
// Re-exported so harnesses that consume fault plans can build the spec
// `FaultPlan::validate` wants without a clairvoyance dependency.
pub use nopfs_clairvoyance::sampler::ShuffleSpec;
use nopfs_clairvoyance::SampleId;
use nopfs_perfmodel::SystemSpec;
use nopfs_util::rng::mix64;

/// Transient PFS read errors: one burst of failures per unlucky
/// sample, planted in the PFS's fault table before the run
/// (`nopfs_pfs::Pfs::inject_fault`), where every loader's origin retry
/// loop meets and absorbs them. Each harness plants [`Self::bursts`],
/// so a plan fails the same reads whichever harness runs it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadErrors {
    /// Probability that a sample gets a failure burst, in `[0, 1)`.
    pub rate: f64,
    /// Maximum consecutive failures per burst (≥ 1).
    pub max_burst: u32,
    /// Seed of the failure pattern.
    pub seed: u64,
}

impl ReadErrors {
    /// The bursts this clause plants in a dataset of `num_samples`
    /// samples, as `(id, failures)`: sample `id` gets one if the draw
    /// `mix64(seed, id)` falls below `rate`, of `1..=max_burst`
    /// failures from the same draw. The one place the fault pattern is
    /// drawn; a pure function of the clause, so every run of a plan
    /// plants the same faults.
    pub fn bursts(&self, num_samples: u64) -> impl Iterator<Item = (SampleId, u32)> {
        let errors = *self;
        (0..num_samples).filter_map(move |id| {
            let h = mix64(errors.seed, id);
            if ((h >> 11) as f64 / (1u64 << 53) as f64) >= errors.rate {
                return None;
            }
            Some((id, 1 + ((h >> 32) as u32) % errors.max_burst))
        })
    }

    /// Checks the rate and the burst bound.
    ///
    /// # Errors
    /// [`Unsupported`] naming the invalid field.
    pub fn validate(&self) -> Result<(), Unsupported> {
        if !(0.0..1.0).contains(&self.rate) {
            return Err(Unsupported(format!(
                "read_errors rate {} outside [0, 1)",
                self.rate
            )));
        }
        if self.max_burst == 0 {
            return Err(Unsupported("read_errors max_burst must be ≥ 1".into()));
        }
        Ok(())
    }
}

/// One scheduled brownout of the cloud origin: a window of degraded
/// service, in model-seconds from the start of the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Brownout {
    /// Window start, model seconds.
    pub start: f64,
    /// Window length, model seconds.
    pub duration: f64,
    /// Latency multiplier (and throughput divisor) inside the window
    /// (≥ 1).
    pub latency_factor: f64,
    /// Additional probability that a request inside the window is
    /// throttled.
    pub throttle_rate: f64,
}

/// Cloud-origin disturbances: the object-store failure vocabulary
/// (tail-latency spikes, throttling, brownout windows), declared once
/// and realized by each harness — the threaded runtime builds a
/// disturbed `nopfs_storage::ObjectStoreBackend` beneath a resilient
/// origin chain, the simulator prices the same windows analytically.
///
/// Like [`ReadErrors`], the disturbances are *bounded by construction*:
/// throttle bursts never exceed `throttle_burst` consecutive failures
/// per sample, so a retry budget above the bound (plus breaker settings
/// that out-wait the longest brownout) keeps every read eventually
/// successful and the global sample stream bit-identical to the
/// fault-free run.
#[derive(Debug, Clone, PartialEq)]
pub struct CloudFaults {
    /// Probability a request draws a tail-latency spike.
    pub spike_rate: f64,
    /// Latency multiplier of a spiked request (≥ 1).
    pub spike_factor: f64,
    /// Baseline probability a fresh request opens a throttle burst.
    pub throttle_rate: f64,
    /// Maximum consecutive throttle responses per sample (≥ 1); keep
    /// below the retry budget.
    pub throttle_burst: u32,
    /// Server `retry_after` hint on throttles, model seconds.
    pub retry_after: f64,
    /// Scheduled brownout windows.
    pub brownouts: Vec<Brownout>,
    /// Seed of the spike/throttle pattern.
    pub seed: u64,
}

impl CloudFaults {
    /// A quiet cloud origin: no spikes, throttles, or brownouts.
    pub fn none(seed: u64) -> Self {
        Self {
            spike_rate: 0.0,
            spike_factor: 1.0,
            throttle_rate: 0.0,
            throttle_burst: 1,
            retry_after: 0.0,
            brownouts: Vec::new(),
            seed,
        }
    }

    /// Adds a brownout window (builder style).
    #[must_use]
    pub fn brownout(
        mut self,
        start: f64,
        duration: f64,
        latency_factor: f64,
        throttle_rate: f64,
    ) -> Self {
        self.brownouts.push(Brownout {
            start,
            duration,
            latency_factor,
            throttle_rate,
        });
        self
    }

    /// Latency factor and extra throttle probability at model time
    /// `now` (the strongest active brownout wins).
    pub fn brownout_at(&self, now: f64) -> (f64, f64) {
        let mut factor = 1.0f64;
        let mut throttle = 0.0f64;
        for w in &self.brownouts {
            if now >= w.start && now < w.start + w.duration {
                factor = factor.max(w.latency_factor);
                throttle = throttle.max(w.throttle_rate);
            }
        }
        (factor, throttle)
    }

    /// Checks rates, factors, and windows.
    ///
    /// # Errors
    /// [`Unsupported`] naming the first invalid field.
    pub fn validate(&self) -> Result<(), Unsupported> {
        let rate = |name: &str, r: f64| {
            if (0.0..1.0).contains(&r) {
                Ok(())
            } else {
                Err(Unsupported(format!("cloud {name} {r} outside [0, 1)")))
            }
        };
        rate("spike_rate", self.spike_rate)?;
        rate("throttle_rate", self.throttle_rate)?;
        if self.spike_factor < 1.0 {
            return Err(Unsupported(format!(
                "cloud spike_factor {} below 1",
                self.spike_factor
            )));
        }
        if self.throttle_burst < 1 {
            return Err(Unsupported("cloud throttle_burst must be ≥ 1".into()));
        }
        if self.retry_after < 0.0 {
            return Err(Unsupported(format!(
                "cloud retry_after {} negative",
                self.retry_after
            )));
        }
        for (i, w) in self.brownouts.iter().enumerate() {
            if w.start < 0.0 || w.duration < 0.0 {
                return Err(Unsupported(format!(
                    "brownout {i} has a negative start or duration"
                )));
            }
            if w.latency_factor < 1.0 {
                return Err(Unsupported(format!("brownout {i} latency_factor below 1")));
            }
            rate(&format!("brownout {i} throttle_rate"), w.throttle_rate)?;
        }
        Ok(())
    }
}

/// One scheduled fault event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// `rank` crashes after consuming `step` global batches of `epoch`
    /// and restarts with a cold cache. The job re-synchronizes at a
    /// recovery barrier: staged-but-unconsumed samples are lost and
    /// replayed, survivors keep their warm caches.
    Crash {
        /// Epoch of the crash.
        epoch: u64,
        /// Global batches consumed before the crash.
        step: u64,
        /// The crashing rank.
        rank: usize,
    },
    /// One worker joins before `epoch` begins (membership grows by
    /// one; ranks stay dense, the newcomer takes the highest).
    Join {
        /// First epoch the newcomer participates in.
        epoch: u64,
    },
    /// The highest rank leaves before `epoch` begins (membership
    /// shrinks by one).
    Leave {
        /// First epoch without the departed rank.
        epoch: u64,
    },
    /// `rank`'s compute slows by `factor` (≥ 1) from `epoch` onward —
    /// a straggler. Changes timing only, never delivered content.
    Straggle {
        /// First slowed epoch.
        epoch: u64,
        /// The straggling rank.
        rank: usize,
        /// Compute-time multiplier (≥ 1).
        factor: f64,
    },
}

/// A declarative fault schedule for one job.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Scheduled events, in no particular order.
    pub events: Vec<FaultEvent>,
    /// Transient read errors planted in the PFS for the whole run, if
    /// any.
    pub read_errors: Option<ReadErrors>,
    /// Cloud-origin disturbances (spikes, throttles, brownouts), if the
    /// run's origin is an object store.
    pub cloud: Option<CloudFaults>,
}

impl FaultPlan {
    /// The empty plan: an undisturbed run.
    pub fn fault_free() -> Self {
        Self::default()
    }

    /// Adds a crash-and-restart (builder style).
    #[must_use]
    pub fn crash(mut self, epoch: u64, step: u64, rank: usize) -> Self {
        self.events.push(FaultEvent::Crash { epoch, step, rank });
        self
    }

    /// Adds a join before `epoch` (builder style).
    #[must_use]
    pub fn join(mut self, epoch: u64) -> Self {
        self.events.push(FaultEvent::Join { epoch });
        self
    }

    /// Adds a leave before `epoch` (builder style).
    #[must_use]
    pub fn leave(mut self, epoch: u64) -> Self {
        self.events.push(FaultEvent::Leave { epoch });
        self
    }

    /// Adds a straggler (builder style).
    #[must_use]
    pub fn straggle(mut self, epoch: u64, rank: usize, factor: f64) -> Self {
        assert!(factor >= 1.0, "a straggler is slower, not faster");
        self.events.push(FaultEvent::Straggle {
            epoch,
            rank,
            factor,
        });
        self
    }

    /// Sets transient read-error injection (builder style).
    #[must_use]
    pub fn with_read_errors(mut self, errors: ReadErrors) -> Self {
        self.read_errors = Some(errors);
        self
    }

    /// Sets cloud-origin disturbances (builder style).
    #[must_use]
    pub fn with_cloud(mut self, cloud: CloudFaults) -> Self {
        self.cloud = Some(cloud);
        self
    }

    /// Whether the plan contains at least one crash-and-restart.
    pub fn has_crash(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e, FaultEvent::Crash { .. }))
    }

    /// Whether the plan has events only an elastic runtime realizes on
    /// a run of `workers` ranks and `epochs` epochs: a crash tears the
    /// worker set down mid-epoch, churn changes the membership, and a
    /// cloud clause re-routes the origin through the object-store
    /// backend and its resilience stack.
    pub fn needs_elastic(&self, workers: usize, epochs: u64) -> bool {
        self.has_crash()
            || self.cloud.is_some()
            || self
                .memberships(workers, epochs)
                .iter()
                .any(|&m| m != workers)
    }

    /// Per-epoch worker counts for a run of `epochs` epochs starting at
    /// `initial` workers: joins and leaves apply before their epoch and
    /// persist. Membership never drops below one.
    pub fn memberships(&self, initial: usize, epochs: u64) -> Vec<usize> {
        let mut n = initial;
        (0..epochs)
            .map(|e| {
                for ev in &self.events {
                    match *ev {
                        FaultEvent::Join { epoch } if epoch == e => n += 1,
                        FaultEvent::Leave { epoch } if epoch == e && n > 1 => n -= 1,
                        _ => {}
                    }
                }
                n
            })
            .collect()
    }

    /// Crashes scheduled in `epoch`, as `(step, rank)` sorted by step.
    pub fn crashes_in(&self, epoch: u64) -> Vec<(u64, usize)> {
        let mut out: Vec<(u64, usize)> = self
            .events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::Crash {
                    epoch: ce,
                    step,
                    rank,
                } if ce == epoch => Some((step, rank)),
                _ => None,
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// The compute-slowdown factor of `rank` during `epoch` (1.0 when
    /// not straggling; concurrent straggles multiply).
    pub fn straggle_factor(&self, epoch: u64, rank: usize) -> f64 {
        self.events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::Straggle {
                    epoch: se,
                    rank: sr,
                    factor,
                } if se <= epoch && sr == rank => Some(factor),
                _ => None,
            })
            .product()
    }

    /// Checks the plan against a run shape: every membership the plan
    /// produces must keep the epoch length unchanged (the replay-exact
    /// precondition — with `drop_last` the truncation depends on the
    /// global batch `N·b`), crash ranks must exist in their epoch's
    /// membership, and crash steps must fall inside the epoch. The
    /// read-error and cloud clauses must be well formed.
    ///
    /// # Errors
    /// [`Unsupported`] with the violated condition.
    pub fn validate(&self, spec: &ShuffleSpec, epochs: u64) -> Result<(), Unsupported> {
        if let Some(errors) = &self.read_errors {
            errors.validate()?;
        }
        if let Some(cloud) = &self.cloud {
            cloud.validate()?;
        }
        let memberships = self.memberships(spec.num_workers, epochs);
        let spe = spec.samples_per_epoch();
        for (e, &n) in memberships.iter().enumerate() {
            let spec_e = ShuffleSpec::new(
                spec.seed,
                spec.num_samples,
                n,
                spec.batch_size,
                spec.drop_last,
            );
            if spec_e.samples_per_epoch() != spe {
                return Err(Unsupported(format!(
                    "membership {n} at epoch {e} changes the epoch length \
                     ({} vs {spe} samples) under drop_last; elastic runs \
                     need an unchanged global order",
                    spec_e.samples_per_epoch()
                )));
            }
            let steps = spe.div_ceil((n * spec.batch_size) as u64);
            for (step, rank) in self.crashes_in(e as u64) {
                if rank >= n {
                    return Err(Unsupported(format!(
                        "crash rank {rank} outside membership {n} at epoch {e}"
                    )));
                }
                if step >= steps {
                    return Err(Unsupported(format!(
                        "crash step {step} beyond the {steps} steps of epoch {e}"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Checks that every membership the plan produces deals each epoch
    /// to its ranks in the same number of mini-batches: a job that
    /// allreduces every step needs it, or the collective deadlocks.
    /// Ranks hold `⌊F/n⌋` or `⌈F/n⌉` samples of an epoch, so the step
    /// counts differ exactly when the two round up to different batch
    /// counts (`drop_last` never lets them).
    ///
    /// # Errors
    /// [`Unsupported`] naming the first membership with ragged steps.
    pub fn equal_steps(&self, spec: &ShuffleSpec, epochs: u64) -> Result<(), Unsupported> {
        let b = spec.batch_size as u64;
        for (e, n) in self
            .memberships(spec.num_workers, epochs)
            .into_iter()
            .enumerate()
        {
            let spec_e = respec(spec, n);
            let (most, least) = (spec_e.worker_epoch_len(0), spec_e.worker_epoch_len(n - 1));
            if most.div_ceil(b) != least.div_ceil(b) {
                return Err(Unsupported(format!(
                    "membership {n} at epoch {e} gives its ranks {} or {} steps; \
                     a per-step allreduce needs equal steps",
                    least.div_ceil(b),
                    most.div_ceil(b)
                )));
            }
        }
        Ok(())
    }
}

/// The spec for the same job re-split across `new_workers` ranks.
pub fn respec(spec: &ShuffleSpec, new_workers: usize) -> ShuffleSpec {
    ShuffleSpec::new(
        spec.seed,
        spec.num_samples,
        new_workers,
        spec.batch_size,
        spec.drop_last,
    )
}

/// Rebuilds a policy's decision core for a changed membership: the
/// replan entry point every one of the ten [`PolicyId`]s flows through
/// (`NoPfs`/`Perfect` return `None` as always — their replan lives in
/// the clairvoyance artifacts, `SetupArtifacts::replan`). The system
/// spec's worker count is adjusted to match so per-worker capacity math
/// sees the surviving membership.
///
/// # Errors
/// [`Unsupported`] when the policy cannot run the new membership (e.g.
/// the LBANN store no longer fits in the survivors' aggregate memory —
/// a job can lose feasibility by losing workers).
pub fn replan_core(
    policy: PolicyId,
    sys: &SystemSpec,
    sizes: &[u64],
    spec: &ShuffleSpec,
    new_workers: usize,
) -> Result<Option<Box<dyn PolicyCore>>, Unsupported> {
    let mut sys = sys.clone();
    sys.workers = new_workers;
    build_core(policy, &sys, sizes, &respec(spec, new_workers))
}

/// The canonical per-epoch delivered streams of an elastic run: for
/// each epoch, that epoch's membership and each rank's delivered
/// sequence (the policy's transformed sequence for that membership).
/// Every harness's elastic execution is compared against this.
///
/// # Errors
/// [`Unsupported`] if the plan fails [`FaultPlan::validate`] or the
/// policy refuses some membership.
#[allow(clippy::type_complexity)]
pub fn elastic_epoch_streams(
    policy: PolicyId,
    sys: &SystemSpec,
    sizes: &[u64],
    spec: &ShuffleSpec,
    epochs: u64,
    plan: &FaultPlan,
) -> Result<Vec<(usize, Vec<Vec<SampleId>>)>, Unsupported> {
    plan.validate(spec, epochs)?;
    let memberships = plan.memberships(spec.num_workers, epochs);
    let mut out = Vec::with_capacity(epochs as usize);
    for (e, &n) in memberships.iter().enumerate() {
        let spec_e = respec(spec, n);
        let core = replan_core(policy, sys, sizes, spec, n)?;
        // One-epoch window of the policy's transformed streams at this
        // membership: epoch `e` of the run is epoch `e` of the spec —
        // global epoch numbers, so the permutation matches the
        // undisturbed run's.
        let full = transformed_streams(core.as_deref(), &spec_e, e as u64 + 1);
        let epoch_streams: Vec<Vec<SampleId>> = (0..n)
            .map(|w| {
                let len = spec_e.worker_epoch_len(w) as usize;
                full[w][full[w].len() - len..].to_vec()
            })
            .collect();
        out.push((n, epoch_streams));
    }
    Ok(out)
}

/// The canonical *global* delivered stream of an elastic run: each
/// epoch's per-rank sequences re-interleaved round-robin (position
/// `pos` belongs to rank `pos % n`). For identity-transform policies
/// this is membership-invariant — the headline replay-exactness
/// guarantee.
///
/// # Errors
/// As [`elastic_epoch_streams`].
pub fn elastic_global_stream(
    policy: PolicyId,
    sys: &SystemSpec,
    sizes: &[u64],
    spec: &ShuffleSpec,
    epochs: u64,
    plan: &FaultPlan,
) -> Result<Vec<SampleId>, Unsupported> {
    let per_epoch = elastic_epoch_streams(policy, sys, sizes, spec, epochs, plan)?;
    let mut global = Vec::with_capacity((spec.samples_per_epoch() * epochs) as usize);
    for (n, streams) in &per_epoch {
        for pos in 0..spec.samples_per_epoch() as usize {
            global.push(streams[pos % n][pos / n]);
        }
    }
    Ok(global)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nopfs_perfmodel::presets::fig8_small_cluster;

    fn spec(n: usize) -> ShuffleSpec {
        ShuffleSpec::new(0xFA11, 60, n, 4, false)
    }

    fn sys(n: usize) -> SystemSpec {
        let mut s = fig8_small_cluster();
        s.workers = n;
        s
    }

    #[test]
    fn memberships_apply_churn_before_their_epoch() {
        let plan = FaultPlan::fault_free().leave(1).join(3).join(3);
        assert_eq!(plan.memberships(4, 5), vec![4, 3, 3, 5, 5]);
        // Membership never drops below one.
        let drain = FaultPlan::fault_free().leave(1).leave(2).leave(3);
        assert_eq!(drain.memberships(2, 4), vec![2, 1, 1, 1]);
    }

    #[test]
    fn crashes_and_stragglers_are_queryable() {
        let plan = FaultPlan::fault_free()
            .crash(1, 3, 0)
            .crash(1, 1, 2)
            .straggle(2, 1, 3.0)
            .straggle(3, 1, 2.0);
        assert_eq!(plan.crashes_in(1), vec![(1, 2), (3, 0)]);
        assert!(plan.crashes_in(0).is_empty());
        assert!(plan.has_crash());
        assert_eq!(plan.straggle_factor(1, 1), 1.0);
        assert_eq!(plan.straggle_factor(2, 1), 3.0);
        assert_eq!(plan.straggle_factor(3, 1), 6.0); // compounds
        assert_eq!(plan.straggle_factor(3, 0), 1.0);
    }

    #[test]
    fn validate_rejects_bad_plans() {
        let sp = spec(4);
        // Fine: churn without drop_last.
        FaultPlan::fault_free()
            .leave(1)
            .join(2)
            .validate(&sp, 3)
            .unwrap();
        // Crash rank outside membership after a leave.
        let err = FaultPlan::fault_free()
            .leave(1)
            .crash(1, 0, 3)
            .validate(&sp, 2)
            .unwrap_err();
        assert!(err.0.contains("outside membership"), "{err}");
        // Crash step beyond the epoch.
        let err = FaultPlan::fault_free()
            .crash(0, 99, 0)
            .validate(&sp, 1)
            .unwrap_err();
        assert!(err.0.contains("beyond"), "{err}");
        // drop_last + churn that changes the epoch length.
        let dl = ShuffleSpec::new(9, 103, 4, 8, true);
        let err = FaultPlan::fault_free()
            .join(1)
            .validate(&dl, 2)
            .unwrap_err();
        assert!(err.0.contains("epoch length"), "{err}");
    }

    #[test]
    fn read_errors_validate_rate_and_burst_bound() {
        let sp = spec(4);
        let errors = |rate, max_burst| {
            FaultPlan::fault_free().with_read_errors(ReadErrors {
                rate,
                max_burst,
                seed: 1,
            })
        };
        errors(0.0, 1).validate(&sp, 1).unwrap();
        errors(0.3, 2).validate(&sp, 1).unwrap();
        for rate in [1.0, -0.1, f64::NAN] {
            let err = errors(rate, 2).validate(&sp, 1).unwrap_err();
            assert!(err.0.contains("rate"), "{err}");
        }
        let err = errors(0.3, 0).validate(&sp, 1).unwrap_err();
        assert!(err.0.contains("max_burst"), "{err}");
    }

    #[test]
    fn injected_bursts_are_bounded_and_deterministic() {
        let errors = ReadErrors {
            rate: 0.3,
            max_burst: 3,
            seed: 0xFA,
        };
        let bursts: Vec<(SampleId, u32)> = errors.bursts(400).collect();
        assert_eq!(bursts, errors.bursts(400).collect::<Vec<_>>());
        // About a third of the samples, each once, ascending, each
        // burst within its bound, every length drawn.
        assert!((90..150).contains(&bursts.len()), "{}", bursts.len());
        assert!(bursts.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(bursts
            .iter()
            .all(|&(id, b)| id < 400 && (1..=3).contains(&b)));
        for len in 1..=3 {
            assert!(bursts.iter().any(|&(_, b)| b == len), "no burst of {len}");
        }
        // A prefix of the dataset gets the same bursts; another seed
        // other ones; rate 0 none.
        let head: Vec<_> = errors.bursts(100).collect();
        assert_eq!(head, bursts[..head.len()]);
        let reseeded = ReadErrors {
            seed: 0xFB,
            ..errors
        };
        assert_ne!(reseeded.bursts(400).collect::<Vec<_>>(), bursts);
        let quiet = ReadErrors {
            rate: 0.0,
            ..errors
        };
        assert_eq!(quiet.bursts(400).count(), 0);
    }

    #[test]
    fn cloud_faults_validate_rates_windows_and_bursts() {
        let sp = spec(4);
        // A full, sane cloud clause passes.
        FaultPlan::fault_free()
            .with_cloud(CloudFaults {
                spike_rate: 0.05,
                spike_factor: 8.0,
                throttle_rate: 0.1,
                throttle_burst: 2,
                retry_after: 0.002,
                ..CloudFaults::none(7)
            })
            .validate(&sp, 2)
            .unwrap();
        // Brownout accessors: the strongest active window wins.
        let c = CloudFaults::none(0)
            .brownout(1.0, 2.0, 4.0, 0.2)
            .brownout(2.0, 2.0, 8.0, 0.1);
        assert_eq!(c.brownout_at(0.5), (1.0, 0.0));
        assert_eq!(c.brownout_at(1.5), (4.0, 0.2));
        assert_eq!(c.brownout_at(2.5), (8.0, 0.2));
        assert_eq!(c.brownout_at(4.5), (1.0, 0.0));
        // Invalid clauses are rejected through FaultPlan::validate.
        let bad_rate = FaultPlan::fault_free().with_cloud(CloudFaults {
            spike_rate: 1.5,
            ..CloudFaults::none(0)
        });
        assert!(bad_rate.validate(&sp, 1).unwrap_err().0.contains("spike"));
        let bad_window =
            FaultPlan::fault_free().with_cloud(CloudFaults::none(0).brownout(-1.0, 1.0, 2.0, 0.0));
        assert!(bad_window
            .validate(&sp, 1)
            .unwrap_err()
            .0
            .contains("brownout"));
        let bad_factor =
            FaultPlan::fault_free().with_cloud(CloudFaults::none(0).brownout(0.0, 1.0, 0.5, 0.0));
        assert!(bad_factor
            .validate(&sp, 1)
            .unwrap_err()
            .0
            .contains("latency_factor"));
    }

    #[test]
    fn identity_policies_keep_the_global_stream_under_churn() {
        let sp = spec(4);
        let plan = FaultPlan::fault_free().leave(1).join(2).crash(0, 2, 1);
        for policy in [
            PolicyId::NoPfs,
            PolicyId::Naive,
            PolicyId::StagingBuffer,
            PolicyId::LbannDynamic,
        ] {
            let disturbed =
                elastic_global_stream(policy, &sys(4), &[1000; 60], &sp, 3, &plan).unwrap();
            let undisturbed = elastic_global_stream(
                policy,
                &sys(4),
                &[1000; 60],
                &sp,
                3,
                &FaultPlan::fault_free(),
            )
            .unwrap();
            assert_eq!(disturbed, undisturbed, "{policy}: global stream changed");
        }
    }

    #[test]
    fn epoch_streams_match_memberships() {
        let sp = spec(4);
        let plan = FaultPlan::fault_free().leave(1);
        let per_epoch =
            elastic_epoch_streams(PolicyId::Naive, &sys(4), &[1000; 60], &sp, 2, &plan).unwrap();
        assert_eq!(per_epoch[0].0, 4);
        assert_eq!(per_epoch[1].0, 3);
        assert_eq!(per_epoch[0].1.len(), 4);
        assert_eq!(per_epoch[1].1.len(), 3);
        // Epoch totals: every rank's share sums to samples/epoch.
        for (_, streams) in &per_epoch {
            let total: usize = streams.iter().map(Vec::len).sum();
            assert_eq!(total as u64, sp.samples_per_epoch());
        }
    }

    #[test]
    fn replan_can_lose_feasibility() {
        // LBANN preloading fits at 4 workers but not at 1: a job can
        // lose feasibility by losing workers, and the replan says so.
        let sp = spec(4);
        let mut s = sys(4);
        s.classes[0].capacity = 20 * 1_000; // 20 samples/worker, F=60
        assert!(replan_core(PolicyId::LbannPreloading, &s, &[1000; 60], &sp, 4).is_ok());
        let err = match replan_core(PolicyId::LbannPreloading, &s, &[1000; 60], &sp, 1) {
            Err(e) => e,
            Ok(_) => panic!("one worker cannot hold the data store"),
        };
        assert!(err.0.contains("data store"), "{err}");
    }
}
