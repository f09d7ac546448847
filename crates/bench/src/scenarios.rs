//! Scaled reproductions of the paper's simulation scenarios (Fig. 8,
//! Fig. 9) and the runtime systems for the Sec. 7 experiments.
//!
//! Two calibration substitutions, both recorded in EXPERIMENTS.md:
//!
//! 1. **Saturating PFS curves.** The paper lists near-linear Lassen
//!    benchmark points for `t(γ)`; under those numbers alone the
//!    staging-buffer policy would never stall at N=4, yet the paper's
//!    own Fig. 8 shows it 25–30% over the lower bound. We therefore use
//!    PFS curves that saturate (the behaviour Sec. 5.1 describes:
//!    "t(γ)/γ is often constant or decreasing with many readers"),
//!    with the saturation level calibrated per scenario so the
//!    staging-buffer baseline lands at the paper's ≈1.3× — every other
//!    policy's placement is then *predicted*, not fitted.
//! 2. **Epoch counts / compute rates.** The paper omits `E` for Fig. 8;
//!    we choose the `(E, c)` pairs that reproduce the published lower
//!    bounds from the published dataset sizes.

use nopfs_datasets::DatasetProfile;
use nopfs_perfmodel::curve::ThroughputCurve;
use nopfs_perfmodel::presets::{fig8_small_cluster, saturating_pfs_curve, thrashing_pfs_curve};
use nopfs_perfmodel::SystemSpec;
use nopfs_simulator::Scenario;
use nopfs_util::units::MB;

/// One Fig. 8 subplot: a dataset, its calibrated run parameters, and
/// the paper's published lower bound for comparison.
pub struct Fig8Scenario {
    /// Subplot tag ("a".."f").
    pub tag: &'static str,
    /// Regime label as printed in the paper.
    pub regime: &'static str,
    /// The dataset profile (unscaled).
    pub profile: DatasetProfile,
    /// Epochs `E` (calibrated; see module docs).
    pub epochs: u64,
    /// Compute throughput `c`, MB/s (calibrated for e/f).
    pub compute_mbps: f64,
    /// Per-worker batch size.
    pub batch: usize,
    /// Workers `N`.
    pub workers: usize,
    /// PFS thrashing point: `(clients, aggregate MB/s)` at collapse.
    pub pfs_collapse: (f64, f64),
    /// Default count-scale factor for bench runs.
    pub default_scale: f64,
    /// The paper's published execution time for the lower bound, hours
    /// (seconds for MNIST — see `lower_bound_unit`).
    pub paper_lower_bound: f64,
    /// The paper's published NoPFS time, same unit.
    pub paper_nopfs: f64,
    /// The paper's published Naive time, same unit.
    pub paper_naive: f64,
    /// `"s"` or `"hrs"`.
    pub unit: &'static str,
}

/// The six Fig. 8 subplots with the paper's published reference values.
pub fn fig8_scenarios() -> Vec<Fig8Scenario> {
    vec![
        Fig8Scenario {
            tag: "a",
            regime: "S < d1",
            profile: DatasetProfile::mnist(),
            epochs: 5,
            compute_mbps: 64.0,
            batch: 32,
            workers: 4,
            pfs_collapse: (32.0, 272.0),
            default_scale: 1.0,
            paper_lower_bound: 0.73,
            paper_nopfs: 0.73,
            paper_naive: 1.24,
            unit: "s",
        },
        Fig8Scenario {
            tag: "b",
            regime: "d1 < S < D",
            profile: DatasetProfile::imagenet_1k(),
            epochs: 5,
            compute_mbps: 64.0,
            batch: 32,
            workers: 4,
            pfs_collapse: (32.0, 272.0),
            default_scale: 0.01,
            paper_lower_bound: 0.75,
            paper_nopfs: 0.79,
            paper_naive: 1.27,
            unit: "hrs",
        },
        Fig8Scenario {
            tag: "c",
            regime: "d1 < S < N*D",
            profile: DatasetProfile::openimages(),
            epochs: 5,
            compute_mbps: 64.0,
            batch: 32,
            workers: 4,
            pfs_collapse: (32.0, 272.0),
            default_scale: 0.01,
            paper_lower_bound: 2.78,
            paper_nopfs: 2.91,
            paper_naive: 4.72,
            unit: "hrs",
        },
        Fig8Scenario {
            tag: "d",
            regime: "D < S < N*D",
            profile: DatasetProfile::imagenet_22k(),
            // E=4: the 64-byte clipping of the sigma=0.2 size normal
            // inflates the mean sample size ~35% over the paper's mu,
            // so four epochs reproduce the published lower bound.
            epochs: 4,
            compute_mbps: 64.0,
            batch: 32,
            workers: 4,
            pfs_collapse: (32.0, 272.0),
            default_scale: 0.002,
            paper_lower_bound: 8.29,
            paper_nopfs: 8.71,
            paper_naive: 14.09,
            unit: "hrs",
        },
        Fig8Scenario {
            tag: "e",
            regime: "N*D < S",
            profile: DatasetProfile::cosmoflow(),
            epochs: 3,
            compute_mbps: 81.6,
            batch: 16,
            workers: 4,
            pfs_collapse: (32.0, 272.0),
            default_scale: 0.02,
            paper_lower_bound: 11.38,
            paper_nopfs: 11.95,
            paper_naive: 19.33,
            unit: "hrs",
        },
        Fig8Scenario {
            tag: "f",
            regime: "N*D < S (N=8)",
            profile: DatasetProfile::cosmoflow_512(),
            epochs: 2,
            compute_mbps: 200.0,
            batch: 1,
            workers: 8,
            pfs_collapse: (64.0, 1_363.0),
            default_scale: 0.2,
            paper_lower_bound: 3.48,
            paper_nopfs: 3.65,
            paper_naive: 7.30,
            unit: "hrs",
        },
    ]
}

impl Fig8Scenario {
    /// Builds the scaled simulator scenario. `extra_scale` multiplies
    /// the scenario's default count scale (the `NOPFS_BENCH_SCALE`
    /// hook); both sample counts and capacities shrink together, so the
    /// storage regime is preserved.
    ///
    /// Returns the scenario plus the count factor actually applied.
    pub fn build(&self, extra_scale: f64) -> (Scenario, f64) {
        let factor = (self.default_scale * extra_scale).min(1.0);
        let profile = self.profile.scaled(factor, 1.0);
        let mut system = fig8_small_cluster()
            .with_compute_mbps(self.compute_mbps, 200.0)
            .with_workers(self.workers);
        scale_capacities(&mut system, factor);
        system.pfs_read = thrashing_pfs_curve(self.pfs_collapse.0, self.pfs_collapse.1 * MB);
        let sizes = profile.sizes();
        let scenario = Scenario::new(
            profile.name.clone(),
            system,
            sizes,
            self.epochs,
            self.batch,
            0xF18_0000 + self.tag.as_bytes()[0] as u64,
        );
        (scenario, factor)
    }

    /// Converts a simulated (scaled) execution time back to the paper's
    /// unit for side-by-side reporting: times scale linearly with the
    /// count factor.
    pub fn to_paper_units(&self, sim_seconds: f64, factor: f64) -> f64 {
        let full = sim_seconds / factor;
        match self.unit {
            "hrs" => full / 3_600.0,
            _ => full,
        }
    }
}

/// Scales every capacity of a system (staging + classes) by `factor`.
pub fn scale_capacities(system: &mut SystemSpec, factor: f64) {
    system.staging.capacity = ((system.staging.capacity as f64 * factor) as u64).max(4_096);
    for class in &mut system.classes {
        class.capacity = ((class.capacity as f64 * factor) as u64).max(1);
    }
}

/// The Fig. 9 base scenario: ImageNet-22k with 5× compute and
/// preprocessing throughput ("representative of future machine learning
/// accelerators").
pub fn fig9_base(extra_scale: f64) -> (Scenario, f64) {
    let factor = (0.002 * extra_scale).min(1.0);
    let profile = DatasetProfile::imagenet_22k().scaled(factor, 1.0);
    let mut system = fig8_small_cluster().with_compute_mbps(5.0 * 64.0, 5.0 * 200.0);
    scale_capacities(&mut system, factor);
    system.pfs_read = thrashing_pfs_curve(32.0, 846.0 * MB);
    let sizes = profile.sizes();
    let scenario = Scenario::new(profile.name.clone(), system, sizes, 3, 32, 0xF19_0001);
    (scenario, factor)
}

/// Which runtime system a Sec. 7 experiment models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// Piz-Daint-like: RAM only, no local SSD.
    PizDaint,
    /// Lassen-like: RAM + SSD per rank.
    Lassen,
}

impl SystemKind {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            SystemKind::PizDaint => "Piz Daint",
            SystemKind::Lassen => "Lassen",
        }
    }
}

/// Builds a scaled runtime system: capacities shrink by `cap_scale`
/// while rates stay at face value, and the PFS saturates at
/// `pfs_sat_mbps` so contention sets in as workers are added — the
/// effect behind the paper's Figs. 10–15 scaling curves.
pub fn runtime_system(
    kind: SystemKind,
    workers: usize,
    cap_scale: f64,
    pfs_sat_mbps: f64,
) -> SystemSpec {
    let mut system = match kind {
        SystemKind::PizDaint => nopfs_perfmodel::presets::piz_daint_like(),
        SystemKind::Lassen => nopfs_perfmodel::presets::lassen_like(),
    };
    system.workers = workers;
    scale_capacities(&mut system, cap_scale);
    system.pfs_read = saturating_pfs_curve(pfs_sat_mbps * MB, 8.0);
    // Runtime experiments use fewer staging threads than the paper's
    // HPC ranks so thread counts stay sane at 8-16 in-process workers.
    system.staging.threads = 4;
    system.validate();
    system
}

/// The Fig. 2 interference experiment: co-scheduled tenants sharing one
/// PFS whose `t(γ)` saturates around two clients, so any second job's
/// readers push every job past the knee. One definition feeds both the
/// thread runtime (`nopfs_cluster`) and the simulator counterpart
/// (`nopfs_simulator::cluster`), keeping the two reproductions of the
/// scenario directly comparable.
pub mod fig2 {
    use super::*;
    use nopfs_cluster::{ClusterSpec, TenantSpec};
    use nopfs_policy::PolicyId;
    use nopfs_simulator::SimTenant;
    use nopfs_util::timing::TimeScale;

    /// Mean bytes per sample.
    pub const SAMPLE_BYTES: f64 = 20_000.0;
    /// Workers per tenant.
    pub const WORKERS: usize = 2;
    /// Per-worker batch size.
    pub const BATCH: usize = 4;
    /// Training epochs per tenant.
    pub const EPOCHS: u64 = 3;

    /// The shared `t(γ)` curve: 40 MB/s aggregate from two clients on,
    /// so a solo two-worker job sits exactly at the knee and any
    /// co-tenant pushes everyone past it.
    pub fn curve() -> ThroughputCurve {
        ThroughputCurve::from_points(&[(1.0, 30.0 * MB), (2.0, 40.0 * MB), (16.0, 41.0 * MB)])
    }

    /// Samples per tenant at `extra_scale` (kept divisible by the
    /// global batch so `drop_last` trims nothing).
    pub fn samples(extra_scale: f64) -> u64 {
        let global_batch = (WORKERS * BATCH) as u64;
        (((296.0 * extra_scale) as u64) / global_batch).max(1) * global_batch
    }

    /// A tenant's system: 2 workers, caches ample for its dataset, a
    /// modest staging buffer.
    pub fn tenant_system() -> SystemSpec {
        let mut sys = fig8_small_cluster().with_compute_mbps(64.0, 200.0);
        sys.workers = WORKERS;
        sys.staging.capacity = 2_000_000;
        sys.staging.threads = 2;
        sys.classes[0].capacity = 30_000_000;
        sys.classes[1].capacity = 60_000_000;
        sys
    }

    /// The tenant line-up: NoPFS plus the PFS-bound baselines the
    /// paper's Fig. 2 argument is about (two naive tenants, so the
    /// co-scheduled reader count lands well past the curve's knee;
    /// `StagingBuffer` is the PyTorch-double-buffering policy).
    pub fn policies() -> Vec<(&'static str, PolicyId)> {
        vec![
            ("nopfs", PolicyId::NoPfs),
            ("naive-1", PolicyId::Naive),
            ("naive-2", PolicyId::Naive),
            ("pytorch", PolicyId::StagingBuffer),
        ]
    }

    /// The thread-runtime cluster: the [`policies`] tenants co-scheduled
    /// on one shared PFS. The time scale keeps every paced wait above the
    /// sleep threshold so CPU sharing on small machines does not
    /// pollute the PFS-contention measurement.
    pub fn cluster_spec(extra_scale: f64) -> ClusterSpec {
        let mut spec = ClusterSpec::new(curve(), TimeScale::new(0.5));
        for (i, (name, policy)) in policies().into_iter().enumerate() {
            let profile = nopfs_datasets::DatasetProfile::new(
                name,
                samples(extra_scale),
                SAMPLE_BYTES,
                0.0,
                4,
                0xF12_0000 + i as u64,
            );
            spec = spec.tenant(TenantSpec::new(
                name,
                policy,
                tenant_system(),
                profile,
                EPOCHS,
                BATCH,
                0xF12_1000 + i as u64,
            ));
        }
        spec
    }

    /// One simulator tenant mirroring the runtime tenants' shape.
    pub fn sim_scenario(name: &str, seed: u64, extra_scale: f64) -> nopfs_simulator::Scenario {
        let mut sys = tenant_system();
        sys.pfs_read = curve();
        nopfs_simulator::Scenario::new(
            name,
            sys,
            vec![SAMPLE_BYTES as u64; samples(extra_scale) as usize],
            EPOCHS,
            BATCH,
            seed,
        )
    }

    /// A simulated cluster of `k` tenants all running `policy`.
    pub fn sim_uniform_cluster(policy: PolicyId, k: usize, extra_scale: f64) -> Vec<SimTenant> {
        (0..k)
            .map(|i| {
                SimTenant::new(
                    sim_scenario(&format!("tenant-{i}"), 0xF12_2000 + i as u64, extra_scale),
                    policy,
                )
            })
            .collect()
    }

    /// Per-tenant simulator slowdowns for the mixed cluster the thread
    /// runtime co-schedules: each tenant's simulated co-run execution
    /// time over its simulated solo time. The simulation is built from
    /// the spec itself — each tenant's own dataset, effective system
    /// (shared PFS curve applied), epochs, batch, seed, policy, and
    /// stagger — so it holds for any `ClusterSpec`, not just
    /// [`cluster_spec`]'s.
    pub fn sim_mixed_slowdowns(spec: &ClusterSpec) -> Vec<f64> {
        let tenants: Vec<SimTenant> = spec
            .tenants
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let scenario = nopfs_simulator::Scenario::new(
                    t.name.clone(),
                    spec.tenant_system(i),
                    t.profile.sizes(),
                    t.epochs,
                    t.batch,
                    t.seed,
                );
                // One `PolicyId` names the policy in both harnesses —
                // no mapping table since the policy-layer refactor.
                SimTenant::new(scenario, t.policy).starting_at(t.start_delay)
            })
            .collect();
        let results = nopfs_simulator::run_cluster(&tenants).expect("simulated cluster");
        tenants
            .iter()
            .zip(&results)
            .map(|(t, r)| {
                let solo = nopfs_simulator::run(&t.scenario, t.policy)
                    .expect("solo simulation")
                    .execution_time;
                r.execution_time / solo
            })
            .collect()
    }

    /// One row of the uniform-policy K-sweep.
    pub struct SimSweep {
        /// The policy every tenant of the swept cluster runs.
        pub policy: PolicyId,
        /// Solo execution time, model seconds.
        pub solo_s: f64,
        /// `(K, worst per-tenant slowdown)` per swept tenant count.
        pub per_k: Vec<(usize, f64)>,
    }

    /// Sweeps uniform-policy clusters over `ks` tenant counts for the
    /// three Fig. 2 policies.
    pub fn sim_sweep(extra_scale: f64, ks: &[usize]) -> Vec<SimSweep> {
        [PolicyId::NoPfs, PolicyId::Naive, PolicyId::StagingBuffer]
            .into_iter()
            .map(|policy| {
                let solo =
                    nopfs_simulator::run(&sim_scenario("solo", 0xF12_2000, extra_scale), policy)
                        .expect("solo simulation")
                        .execution_time;
                let per_k = ks
                    .iter()
                    .map(|&k| {
                        let results = nopfs_simulator::run_cluster(&sim_uniform_cluster(
                            policy,
                            k,
                            extra_scale,
                        ))
                        .expect("cluster simulation");
                        let worst = results
                            .iter()
                            .map(|r| r.execution_time / solo)
                            .fold(0.0, f64::max);
                        (k, worst)
                    })
                    .collect();
                SimSweep {
                    policy,
                    solo_s: solo,
                    per_k,
                }
            })
            .collect()
    }

    /// The `BENCH_fig2_interference.json` document the
    /// `fig2_interference` bench writes.
    pub fn json_doc(
        extra_scale: f64,
        cluster: &nopfs_cluster::ClusterReport,
        sim_slowdowns: &[f64],
        sweeps: &[SimSweep],
    ) -> crate::report::Json {
        use crate::report::Json;
        let tenant_rows: Vec<Json> = cluster
            .tenants
            .iter()
            .zip(sim_slowdowns)
            .map(|(t, &sim)| {
                Json::obj([
                    ("name", Json::from(t.name.clone())),
                    ("policy", Json::from(t.policy.name())),
                    ("solo_epoch_s", Json::Num(t.solo_epoch_time.unwrap_or(0.0))),
                    ("co_epoch_s", Json::Num(t.steady_epoch_time())),
                    ("runtime_slowdown", Json::Num(t.slowdown.unwrap_or(0.0))),
                    ("sim_slowdown", Json::Num(sim)),
                    ("pfs_reads", Json::from(t.pfs_reads())),
                    ("cache_fraction", Json::Num(t.cache_fraction())),
                    ("stall_s", Json::Num(t.stall_time)),
                ])
            })
            .collect();
        let sweep_rows: Vec<Json> = sweeps
            .iter()
            .map(|s| {
                Json::obj([
                    ("policy", Json::from(s.policy.name())),
                    ("solo_s", Json::Num(s.solo_s)),
                    (
                        "slowdowns",
                        Json::Arr(
                            s.per_k
                                .iter()
                                .map(|&(k, worst)| {
                                    Json::obj([
                                        ("k", Json::from(k as u64)),
                                        ("worst_slowdown", Json::Num(worst)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("figure", Json::from("fig2_interference")),
            ("source", Json::from("benches/fig2_interference.rs")),
            ("bench_scale", Json::Num(extra_scale)),
            ("samples_per_tenant", Json::from(samples(extra_scale))),
            ("runtime_tenants", Json::Arr(tenant_rows)),
            ("sim_sweep", Json::Arr(sweep_rows)),
        ])
    }
}

/// The cloud-origin failure-domain experiment (`fig_cloud`): one
/// scenario family shared by the bench and `examples/cloud.rs`, so the
/// committed artifact and the CI smoke run exercise the same economics.
///
/// Three reproductions of the same claim:
/// 1. **Simulator sweep** — request parallelism × brownout severity,
///    hardened (retry + hedge + breaker) vs unbounded naive origin
///    clients on identical disturbance seeds.
/// 2. **Thread runtime** — a [`nopfs_core::Job`] with a
///    [`nopfs_policy::CloudFaults`] clause, proving the disturbed global stream is
///    bit-identical to the fault-free run.
/// 3. **Cluster** — a cloud tenant co-scheduled with a steady one,
///    surfacing per-tenant `ResilienceStats`/`TierStats`.
pub mod fig_cloud {
    use super::*;
    use nopfs_cluster::{ClusterSpec, TenantSpec};
    use nopfs_policy::{CloudFaults, FaultPlan, PolicyId};
    use nopfs_simulator::{hardened_client, naive_client, CloudSpec, Scenario};
    use nopfs_storage::ResilienceConfig;
    use nopfs_util::timing::TimeScale;

    /// Object-store per-request latency floor, model seconds.
    pub const FLOOR: f64 = 0.002;
    /// The headline bound: the hardened client's execution time under a
    /// brownout stays within this factor of its fault-free run.
    pub const BOUND: f64 = 1.5;
    /// Per-worker batch size.
    pub const BATCH: usize = 8;
    /// Training epochs.
    pub const EPOCHS: u64 = 3;
    /// Base sample payload, bytes.
    pub const SAMPLE_BYTES: u64 = 100_000;

    /// Brownout severities swept by the bench: label, latency factor,
    /// and extra throttle probability inside the window.
    pub const SEVERITIES: [(&str, f64, f64); 3] = [
        ("mild", 1.5, 0.2),
        ("moderate", 2.0, 0.3),
        ("severe", 3.0, 0.4),
    ];

    /// Samples at `extra_scale` (kept divisible by the largest swept
    /// global batch so every parallelism sees identical epochs).
    pub fn samples(extra_scale: f64) -> u64 {
        let global = (8 * BATCH) as u64;
        (((2_000.0 * extra_scale) as u64) / global).max(1) * global
    }

    /// The simulator scenario at a given request parallelism: the
    /// object store's aggregate throughput grows with request
    /// parallelism up to a 16-client knee at 400 MB/s — below the
    /// largest swept fleet's aggregate demand, so parallelism is
    /// priced without collapsing the fault-free baseline into a
    /// congestion regime where jittered retries would *help*.
    /// Per-worker caches hold the dataset after the cold epoch.
    pub fn sim_scenario(workers: usize, extra_scale: f64) -> Scenario {
        let mut sys = fig8_small_cluster();
        sys.workers = workers;
        sys.pfs_read = saturating_pfs_curve(400.0 * MB, 16.0);
        let cap = extra_scale.max(1.0);
        sys.classes[0].capacity = (60_000_000.0 * cap) as u64;
        sys.classes[1].capacity = (200_000_000.0 * cap) as u64;
        sys.staging.capacity = (16_000_000.0 * cap) as u64;
        let sizes = vec![SAMPLE_BYTES; samples(extra_scale) as usize];
        Scenario::new(
            format!("cloud-n{workers}"),
            sys,
            sizes,
            EPOCHS,
            BATCH,
            0xC10D_0001,
        )
    }

    /// The fault-free reference: same seed, nothing ever fires.
    pub fn quiet() -> CloudFaults {
        CloudFaults::none(0xC10D_5EED)
    }

    /// The ambient disturbance outside brownout windows: 4% of
    /// requests draw a 30x tail-latency spike (the hedged client's
    /// structural advantage — a second request almost always dodges
    /// the tail), throttle bursts run up to 6 deep with a
    /// `retry_after` hint of one latency floor.
    pub fn ambient() -> CloudFaults {
        CloudFaults {
            spike_rate: 0.04,
            spike_factor: 30.0,
            throttle_burst: 6,
            retry_after: FLOOR,
            ..CloudFaults::none(0xC10D_5EED)
        }
    }

    /// [`ambient`] plus a brownout window over the first 30% of
    /// `quiet_time` — the cold-cache epoch, when origin traffic peaks
    /// and a degraded origin hurts the most.
    pub fn storm(quiet_time: f64, latency_factor: f64, extra_throttle: f64) -> CloudFaults {
        ambient().brownout(0.0, 0.3 * quiet_time, latency_factor, extra_throttle)
    }

    /// Routes `scenario`'s origin through the analytic object store
    /// with the given faults and client resilience.
    pub fn with_cloud(scenario: &Scenario, faults: CloudFaults, res: ResilienceConfig) -> Scenario {
        let curve = scenario.system.pfs_read.clone();
        scenario
            .clone()
            .with_cloud(CloudSpec::new(FLOOR, curve, faults, res))
    }

    /// The hardened client under test.
    pub fn hardened() -> ResilienceConfig {
        hardened_client(FLOOR)
    }

    /// The unbounded naive client: retries forever on a bare backoff,
    /// no hedge, no breaker.
    pub fn naive() -> ResilienceConfig {
        naive_client(FLOOR / 4.0)
    }

    /// The runtime fault plan for the elastic stream-identity proof:
    /// cloud disturbances layered over a mid-epoch crash, so the claim
    /// covers recovery *and* origin degradation at once.
    pub fn runtime_plan() -> FaultPlan {
        let cloud = CloudFaults {
            spike_rate: 0.05,
            spike_factor: 6.0,
            throttle_rate: 0.08,
            throttle_burst: 2,
            retry_after: 1e-4,
            ..CloudFaults::none(0xC10D_0B10)
        }
        .brownout(0.0, 1e12, 3.0, 0.2);
        FaultPlan::fault_free().crash(0, 2, 1).with_cloud(cloud)
    }

    /// The co-scheduled cluster: a cloud-origin NoPFS tenant next to a
    /// steady naive tenant on one shared (fast) PFS, small enough for
    /// CI but large enough to exercise every resilience counter.
    pub fn cluster_spec() -> ClusterSpec {
        let mut sys = fig8_small_cluster();
        sys.workers = 2;
        sys.staging.capacity = 2_000_000;
        sys.staging.threads = 2;
        sys.classes[0].capacity = 30_000_000;
        sys.classes[1].capacity = 60_000_000;
        let profile = |name: &str, seed: u64| {
            nopfs_datasets::DatasetProfile::new(name, 60, 20_000.0, 0.0, 4, seed)
        };
        let cloud = CloudFaults {
            spike_rate: 0.05,
            spike_factor: 4.0,
            throttle_rate: 0.1,
            throttle_burst: 2,
            retry_after: 1e-4,
            ..CloudFaults::none(0xC10D_C105)
        };
        ClusterSpec::new(ThroughputCurve::flat(1e12), TimeScale::new(1e-6))
            .tenant(
                TenantSpec::new(
                    "cloudy",
                    PolicyId::NoPfs,
                    sys.clone(),
                    profile("cloudy", 0xC1),
                    2,
                    4,
                    0xC2,
                )
                .with_fault_plan(FaultPlan::fault_free().with_cloud(cloud)),
            )
            .tenant(TenantSpec::new(
                "steady",
                PolicyId::Naive,
                sys,
                profile("steady", 0xC3),
                2,
                4,
                0xC4,
            ))
    }
}
