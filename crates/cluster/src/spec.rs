//! The tenancy configuration layer: who runs what, where, and when.

use nopfs_datasets::DatasetProfile;
use nopfs_obs::ObsCtx;
use nopfs_perfmodel::{SystemSpec, ThroughputCurve};
use nopfs_policy::fault::ShuffleSpec;
use nopfs_policy::{FaultPlan, PolicyId};
use nopfs_util::timing::TimeScale;

/// One co-scheduled training job.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Report label ("job-a", "imagenet-run", …).
    pub name: String,
    /// The loader policy this tenant trains with — any entry of
    /// [`PolicyId::ALL`]. (`Perfect` runs on synthetic in-RAM data and
    /// therefore neither causes nor suffers PFS interference.)
    pub policy: PolicyId,
    /// The tenant's modelled system: worker count, staging buffer,
    /// storage classes, and interconnect. The `pfs_read` curve inside
    /// it is **ignored** — the shared curve lives on [`ClusterSpec`].
    pub system: SystemSpec,
    /// The tenant's dataset (its slice of the shared filesystem).
    pub profile: DatasetProfile,
    /// Training epochs.
    pub epochs: u64,
    /// Per-worker mini-batch size.
    pub batch: usize,
    /// Shuffle seed.
    pub seed: u64,
    /// Start offset relative to the cluster clock, model seconds.
    pub start_delay: f64,
    /// Compute throughput `c`, model bytes/s.
    pub compute: f64,
    /// Gradient elements per allreduce (0 disables synchronization).
    pub grad_elems: usize,
    /// This tenant's fault schedule (default: fault-free). Transient
    /// read errors and stragglers are realized for every policy;
    /// crashes, membership churn and cloud clauses only by the NoPFS
    /// runtime, and therefore require [`PolicyId::NoPfs`].
    pub fault_plan: FaultPlan,
}

impl TenantSpec {
    /// A tenant with default compute (64 MB/s), a small gradient, and
    /// no start delay.
    ///
    /// # Panics
    /// Panics on zero epochs or batch size.
    pub fn new(
        name: impl Into<String>,
        policy: PolicyId,
        system: SystemSpec,
        profile: DatasetProfile,
        epochs: u64,
        batch: usize,
        seed: u64,
    ) -> Self {
        assert!(epochs > 0, "at least one epoch");
        assert!(batch > 0, "batch size must be positive");
        system.validate();
        Self {
            name: name.into(),
            policy,
            system,
            profile,
            epochs,
            batch,
            seed,
            start_delay: 0.0,
            compute: 64.0e6,
            grad_elems: 256,
            fault_plan: FaultPlan::fault_free(),
        }
    }

    /// Sets the start offset (model seconds).
    pub fn starting_at(mut self, delay: f64) -> Self {
        assert!(delay >= 0.0 && delay.is_finite());
        self.start_delay = delay;
        self
    }

    /// Sets the modelled compute throughput (model bytes/s).
    pub fn with_compute(mut self, compute: f64) -> Self {
        assert!(compute > 0.0 && compute.is_finite());
        self.compute = compute;
        self
    }

    /// Sets the gradient allreduce size (0 = unsynchronized).
    pub fn with_grad_elems(mut self, elems: usize) -> Self {
        self.grad_elems = elems;
        self
    }

    /// Schedules a fault plan for this tenant (builder style).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Whether the plan has events only the elastic NoPFS runtime
    /// realizes ([`FaultPlan::needs_elastic`]).
    pub fn needs_elastic(&self) -> bool {
        self.fault_plan
            .needs_elastic(self.system.workers, self.epochs)
    }
}

/// The whole co-scheduling configuration: K tenants plus the substrate
/// they share.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// The co-scheduled jobs.
    pub tenants: Vec<TenantSpec>,
    /// The **shared** PFS `t(γ)` curve spanning all tenants.
    pub pfs_read: ThroughputCurve,
    /// Model-to-wall time mapping for every substrate of every tenant.
    pub scale: TimeScale,
    /// When set, a machine-wide interconnect budget (model bytes/s)
    /// split across tenants proportionally to worker count; when
    /// `None`, every tenant keeps its own system's `interconnect` at
    /// face value (disjoint node partitions with full NICs).
    pub interconnect_total: Option<f64>,
    /// The cluster's observability context. Every tenant's runtime
    /// registers its metrics under a `tenant=<name>` scope of this
    /// registry, so one snapshot is the whole cluster's merged view.
    /// Default: active metrics, tracing off ([`ObsCtx::new`]); swap in
    /// [`ObsCtx::traced`] (via [`Self::with_obs`]) for event rings and
    /// Chrome-trace export.
    pub obs: ObsCtx,
    /// When set, each tenant gets a background [`nopfs_obs::Sampler`]
    /// snapshotting its scope of the registry every interval (wall
    /// seconds) into the tenant's JSONL telemetry stream
    /// ([`crate::TenantReport::telemetry`]).
    pub telemetry_interval: Option<std::time::Duration>,
}

impl ClusterSpec {
    /// An empty cluster sharing the given PFS curve.
    pub fn new(pfs_read: ThroughputCurve, scale: TimeScale) -> Self {
        Self {
            tenants: Vec::new(),
            pfs_read,
            scale,
            interconnect_total: None,
            obs: ObsCtx::new(),
            telemetry_interval: None,
        }
    }

    /// Replaces the observability context (e.g. [`ObsCtx::traced`] to
    /// capture breaker/hedge/replan events for Chrome-trace export).
    pub fn with_obs(mut self, obs: ObsCtx) -> Self {
        self.obs = obs;
        self
    }

    /// Enables live telemetry: one background sampler per tenant emits
    /// a JSONL snapshot line every `interval` of wall time.
    pub fn telemetry_every(mut self, interval: std::time::Duration) -> Self {
        assert!(
            interval > std::time::Duration::ZERO,
            "interval must be positive"
        );
        self.telemetry_interval = Some(interval);
        self
    }

    /// Adds a tenant (builder style).
    pub fn tenant(mut self, tenant: TenantSpec) -> Self {
        self.tenants.push(tenant);
        self
    }

    /// Splits a machine-wide interconnect budget across tenants by
    /// worker share instead of giving each partition full NICs.
    pub fn partitioned_interconnect(mut self, total: f64) -> Self {
        assert!(total > 0.0 && total.is_finite());
        self.interconnect_total = Some(total);
        self
    }

    /// Total workers across all tenants.
    pub fn total_workers(&self) -> usize {
        self.tenants.iter().map(|t| t.system.workers).sum()
    }

    /// Checks the configuration.
    ///
    /// # Panics
    /// Panics on an empty cluster or an infeasible tenant: an LBANN
    /// tenant whose dataset exceeds its aggregate worker memory (the
    /// data store's documented requirement, checked by the shared
    /// policy layer), a fault plan its run shape cannot satisfy, a
    /// crash/churn plan on a baseline tenant (only the elastic NoPFS
    /// runtime re-splits memberships and replays crashes), or a plan
    /// that would give a synchronized tenant's ranks ragged step counts
    /// (its per-step allreduce would deadlock).
    pub fn validate(&self) {
        assert!(!self.tenants.is_empty(), "a cluster needs tenants");
        for t in &self.tenants {
            t.system.validate();
            if matches!(t.policy, PolicyId::LbannDynamic | PolicyId::LbannPreloading) {
                if let Err(e) =
                    nopfs_policy::core::lbann_feasible(&t.system, t.profile.total_bytes())
                {
                    panic!("tenant '{}': {}", t.name, e.0);
                }
            }
            let elastic = t.needs_elastic();
            assert!(
                !elastic || t.policy == PolicyId::NoPfs,
                "tenant '{}': crash/churn/cloud fault plans need the \
                 elastic NoPFS runtime; {} tenants support stragglers \
                 and read errors only",
                t.name,
                t.policy
            );
            // `nopfs_train::run_job`'s drop_last rule.
            let spec = ShuffleSpec::new(
                t.seed,
                t.profile.num_samples,
                t.system.workers,
                t.batch,
                !elastic,
            );
            let plan = &t.fault_plan;
            let steps = || match t.grad_elems {
                0 => Ok(()),
                _ => plan.equal_steps(&spec, t.epochs),
            };
            if let Err(e) = plan.validate(&spec, t.epochs).and_then(|()| steps()) {
                panic!("tenant '{}': {}", t.name, e.0);
            }
        }
    }

    /// Each tenant's namespace offset on the shared PFS: tenant `i`'s
    /// sample ids `0..F_i` live at `base_i..base_i + F_i`, with bases
    /// the prefix sums of dataset sizes (no gaps, no collisions).
    pub fn namespace_bases(&self) -> Vec<u64> {
        let mut bases = Vec::with_capacity(self.tenants.len());
        let mut next = 0u64;
        for t in &self.tenants {
            bases.push(next);
            next = next
                .checked_add(t.profile.num_samples)
                .expect("combined datasets overflow the object id space");
        }
        bases
    }

    /// Tenant `i`'s effective system: its own spec, with the
    /// interconnect budget applied when partitioning is enabled.
    pub fn tenant_system(&self, i: usize) -> SystemSpec {
        let mut system = self.tenants[i].system.clone();
        if let Some(total) = self.interconnect_total {
            let share = system.workers as f64 / self.total_workers() as f64;
            system.interconnect = (total * share).max(1.0);
        }
        // The shared curve is authoritative; keep each tenant's copy in
        // sync so anything reading `system.pfs_read` (e.g. perf-model
        // source selection) prices PFS fetches on the real curve.
        system.pfs_read = self.pfs_read.clone();
        system
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nopfs_perfmodel::presets::fig8_small_cluster;

    fn profile(n: u64) -> DatasetProfile {
        DatasetProfile::new("t", n, 1_000.0, 0.0, 4, 7)
    }

    fn tenant(name: &str, workers: usize, samples: u64) -> TenantSpec {
        let mut sys = fig8_small_cluster();
        sys.workers = workers;
        TenantSpec::new(name, PolicyId::Naive, sys, profile(samples), 2, 4, 1)
    }

    fn spec() -> ClusterSpec {
        ClusterSpec::new(ThroughputCurve::flat(1e9), TimeScale::new(1e-6))
    }

    #[test]
    fn namespace_bases_are_prefix_sums() {
        let s = spec()
            .tenant(tenant("a", 2, 100))
            .tenant(tenant("b", 2, 250))
            .tenant(tenant("c", 4, 30));
        assert_eq!(s.namespace_bases(), vec![0, 100, 350]);
        assert_eq!(s.total_workers(), 8);
    }

    #[test]
    fn interconnect_partition_follows_worker_share() {
        let s = spec()
            .tenant(tenant("a", 2, 10))
            .tenant(tenant("b", 6, 10))
            .partitioned_interconnect(8.0e9);
        assert!((s.tenant_system(0).interconnect - 2.0e9).abs() < 1.0);
        assert!((s.tenant_system(1).interconnect - 6.0e9).abs() < 1.0);
        // Without partitioning, face value survives.
        let s2 = spec().tenant(tenant("a", 2, 10));
        assert_eq!(
            s2.tenant_system(0).interconnect,
            s2.tenants[0].system.interconnect
        );
    }

    #[test]
    fn tenant_system_carries_the_shared_curve() {
        let s = spec().tenant(tenant("a", 2, 10));
        assert_eq!(s.tenant_system(0).pfs_read.at(1.0), 1e9);
    }

    #[test]
    #[should_panic(expected = "needs tenants")]
    fn empty_cluster_rejected() {
        spec().validate();
    }

    #[test]
    #[should_panic(expected = "needs equal steps")]
    fn synchronized_tenants_refuse_ragged_steps() {
        use nopfs_policy::FaultPlan;
        // 37 samples: two ranks hold 19 and 18 of an epoch, five
        // batches of 4 each; after the join three hold 13, 12 and 12,
        // four batches or three. The per-step allreduce would deadlock.
        let mut t = tenant("ragged", 2, 37).with_fault_plan(FaultPlan::fault_free().join(1));
        t.policy = PolicyId::NoPfs;
        // Unsynchronized, the plan runs.
        spec().tenant(t.clone().with_grad_elems(0)).validate();
        spec().tenant(t).validate();
    }

    #[test]
    #[should_panic(expected = "aggregate worker memory")]
    fn infeasible_lbann_tenant_rejected() {
        let mut t = tenant("lbann", 2, 1_000_000);
        t.policy = PolicyId::LbannDynamic;
        t.system.classes[0].capacity = 1_000;
        spec().tenant(t).validate();
    }
}
