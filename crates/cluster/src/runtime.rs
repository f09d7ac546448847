//! The co-scheduling runtime: launches every tenant's real loader
//! threads against one shared, namespaced [`Pfs`].
//!
//! Ownership/injection contract: the cluster owns the one shared `Pfs`
//! and hands each tenant a namespaced handle; each tenant trains
//! through the workspace's one job function ([`nopfs_train::run_job`]), which
//! *accepts* that handle instead of constructing its own and builds
//! everything else — caches, staging buffers, its partitioned
//! interconnect, the gradient-allreduce network — privately. Only the
//! PFS regulator couples tenants, exactly as on a real machine where
//! co-scheduled jobs share the filesystem and nothing else.

use crate::report::{ClusterReport, TenantReport};
use crate::spec::{ClusterSpec, TenantSpec};
use nopfs_core::JobConfig;
use nopfs_obs::{JsonlEmitter, ObsCtx, Sampler};
use nopfs_perfmodel::SystemSpec;
use nopfs_pfs::Pfs;
use nopfs_train::{run_job, TrainLoopConfig};
use nopfs_util::timing::TimeScale;
use std::sync::Arc;
use std::time::Instant;

/// Runs one tenant to completion on an injected PFS handle, through
/// the workspace's one job function ([`run_job`]): every rank trains in
/// the timed loop, compute and allreduce included, whatever the
/// tenant's policy and fault plan.
///
/// `system` is the tenant's effective system (interconnect partition
/// applied); the PFS curve it carries is only used for source-selection
/// pricing — pacing happens in the injected `pfs`.
fn run_tenant(
    tenant: &TenantSpec,
    system: SystemSpec,
    scale: TimeScale,
    pfs: &Pfs,
    obs: ObsCtx,
) -> TenantReport {
    let sizes = Arc::new(tenant.profile.sizes());
    let config = JobConfig::new(
        tenant.seed,
        tenant.epochs,
        tenant.batch,
        system.clone(),
        scale,
    )
    .with_obs(obs);
    let loop_cfg = TrainLoopConfig {
        compute_rate: tenant.compute,
        scale,
        grad_elems: tenant.grad_elems,
    };
    // An infeasible configuration — validated earlier by
    // `ClusterSpec::validate` — is a panic.
    let run = run_job(
        tenant.policy,
        config,
        sizes,
        pfs,
        &tenant.fault_plan,
        &loop_cfg,
    )
    .unwrap_or_else(|e| panic!("tenant '{}': {}", tenant.name, e.0));
    let cloud = tenant.fault_plan.cloud.is_some();
    TenantReport {
        name: tenant.name.clone(),
        policy: tenant.policy,
        start_delay: tenant.start_delay,
        total_time: run.epoch_times.iter().sum(),
        stall_time: scale.to_model(run.stats.stall_time),
        compute_times: run
            .per_worker
            .iter()
            .map(|m| m.compute_times.clone())
            .collect(),
        epoch_times: run.epoch_times,
        stats: run.stats,
        setup: run.setup,
        resilience: run.elastic.as_ref().map(|r| r.resilience).filter(|_| cloud),
        tier_stats: run.elastic.map(|r| r.tier_stats).unwrap_or_default(),
        telemetry: Vec::new(),
        solo_epoch_time: None,
        slowdown: None,
    }
}

/// Co-schedules every tenant of `spec` on one shared PFS and returns
/// per-tenant plus aggregate statistics.
///
/// Every tenant's dataset is materialized into its namespace first
/// (runs start "with data at rest on a PFS"); then one launcher thread
/// per tenant waits out the tenant's start delay and drives its real
/// loader stack. Worker threads, prefetchers, and serving loops all
/// belong to their tenant; the only shared object is the PFS, whose
/// `t(γ)` regulator sees the combined live reader count.
///
/// # Panics
/// Panics on an invalid [`ClusterSpec`] or if any tenant's run panics.
pub fn run_cluster(spec: &ClusterSpec) -> ClusterReport {
    spec.validate();
    let pfs = Pfs::in_memory(spec.pfs_read.clone(), spec.scale);
    let bases = spec.namespace_bases();
    for (tenant, &base) in spec.tenants.iter().zip(&bases) {
        tenant.profile.materialize(&pfs.namespaced(base));
    }
    let t0 = Instant::now();
    // One obs scope per tenant; with telemetry on, a background sampler
    // per tenant turns that scope into a live JSONL time series.
    let scopes: Vec<ObsCtx> = spec
        .tenants
        .iter()
        .map(|t| spec.obs.scoped([("tenant", t.name.clone())]))
        .collect();
    let streams: Vec<Option<(Arc<JsonlEmitter>, Sampler)>> = scopes
        .iter()
        .map(|obs| {
            spec.telemetry_interval.map(|interval| {
                let emitter = JsonlEmitter::memory();
                let sampler = Sampler::spawn(
                    obs.registry.clone(),
                    Arc::clone(&emitter),
                    interval,
                    spec.scale.factor(),
                );
                (emitter, sampler)
            })
        })
        .collect();
    let mut tenants: Vec<TenantReport> = std::thread::scope(|s| {
        let handles: Vec<_> = spec
            .tenants
            .iter()
            .enumerate()
            .map(|(i, tenant)| {
                let tenant_pfs = pfs.namespaced(bases[i]);
                let system = spec.tenant_system(i);
                let scale = spec.scale;
                let obs = scopes[i].clone();
                s.spawn(move || {
                    if tenant.start_delay > 0.0 {
                        scale.wait(tenant.start_delay);
                    }
                    run_tenant(tenant, system, scale, &tenant_pfs, obs)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tenant panicked"))
            .collect()
    });
    for (report, stream) in tenants.iter_mut().zip(streams) {
        if let Some((emitter, sampler)) = stream {
            // Stopping emits one final snapshot, so even a run shorter
            // than the interval yields a complete series.
            sampler.stop();
            report.telemetry = emitter.lines();
        }
    }
    ClusterReport {
        tenants,
        pfs_totals: pfs.stats(),
        wall_time: t0.elapsed().as_secs_f64(),
        snapshot: spec.obs.snapshot(),
        chrome_trace: spec
            .obs
            .tracer
            .is_active()
            .then(|| spec.obs.tracer.chrome_trace("cluster").render_compact()),
    }
}

/// Runs tenant `index` of `spec` **alone** on a private PFS with the
/// identical curve — the baseline for interference slowdowns. The
/// tenant's start delay is ignored (it has nobody to stagger against).
pub fn run_solo(spec: &ClusterSpec, index: usize) -> TenantReport {
    let tenant = &spec.tenants[index];
    let pfs = Pfs::in_memory(spec.pfs_read.clone(), spec.scale);
    tenant.profile.materialize(&pfs);
    // A `run=solo` scope keeps the baseline's metrics apart from the
    // co-scheduled run's in the shared registry.
    let obs = spec
        .obs
        .scoped([("tenant", tenant.name.clone()), ("run", "solo".to_string())]);
    run_tenant(tenant, spec.tenant_system(index), spec.scale, &pfs, obs)
}

/// The full interference experiment: every tenant solo, then all
/// co-scheduled, with each [`TenantReport::slowdown`] set to
/// co-scheduled ÷ solo steady epoch time.
pub fn interference_report(spec: &ClusterSpec) -> ClusterReport {
    let solos: Vec<TenantReport> = (0..spec.tenants.len()).map(|i| run_solo(spec, i)).collect();
    let mut report = run_cluster(spec);
    for (tenant, solo) in report.tenants.iter_mut().zip(&solos) {
        let solo_epoch = solo.steady_epoch_time();
        tenant.solo_epoch_time = Some(solo_epoch);
        tenant.slowdown = (solo_epoch > 0.0).then(|| tenant.steady_epoch_time() / solo_epoch);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use nopfs_datasets::DatasetProfile;
    use nopfs_obs::names;
    use nopfs_perfmodel::presets::fig8_small_cluster;
    use nopfs_perfmodel::ThroughputCurve;
    use nopfs_policy::PolicyId;
    use nopfs_util::units::MB;

    /// A tenant system small enough for tests: 2 workers, caches that
    /// hold the whole dataset, a modest staging buffer.
    fn tenant_system() -> SystemSpec {
        let mut sys = fig8_small_cluster();
        sys.workers = 2;
        sys.staging.capacity = 2_000_000;
        sys.staging.threads = 2;
        sys.classes[0].capacity = 30_000_000;
        sys.classes[1].capacity = 60_000_000;
        sys
    }

    fn profile(name: &str, samples: u64, seed: u64) -> DatasetProfile {
        DatasetProfile::new(name, samples, 20_000.0, 0.0, 4, seed)
    }

    fn tenant(name: &str, policy: PolicyId, samples: u64, seed: u64) -> TenantSpec {
        TenantSpec::new(
            name,
            policy,
            tenant_system(),
            profile(name, samples, seed),
            2,
            4,
            seed,
        )
    }

    /// Fast, uncontended spec for correctness tests.
    fn fast_spec() -> ClusterSpec {
        ClusterSpec::new(ThroughputCurve::flat(1e12), TimeScale::new(1e-6))
    }

    #[test]
    fn tenants_get_their_own_samples_exactly_once_per_epoch() {
        // Sample counts divisible by the global batch (2 workers x 4),
        // so drop_last trims nothing and counts are exact.
        let spec = fast_spec()
            .tenant(tenant("a", PolicyId::NoPfs, 64, 3))
            .tenant(tenant("b", PolicyId::Naive, 40, 4))
            .tenant(tenant("c", PolicyId::StagingBuffer, 48, 5));
        let report = run_cluster(&spec);
        assert_eq!(report.tenants.len(), 3);
        for (t, spec_t) in report.tenants.iter().zip(&spec.tenants) {
            // Exactly once per epoch: 2 epochs x F samples.
            assert_eq!(
                t.stats.samples_consumed,
                2 * spec_t.profile.num_samples,
                "tenant {}",
                t.name
            );
            assert_eq!(t.epoch_times.len(), 2);
            assert!(t.total_time > 0.0);
        }
        // NoPFS tenants report setup stats; baselines don't.
        assert!(report.tenants[0].setup.is_some());
        assert!(report.tenants[1].setup.is_none());
        // The shared store holds all three datasets side by side.
        assert_eq!(
            report.pfs_totals.writes,
            64 + 40 + 48,
            "writes = materialized"
        );
    }

    #[test]
    fn payloads_do_not_bleed_across_namespaces() {
        // Every delivered payload must decode against its own tenant's
        // profile (ids and seeded patterns are tenant-specific, so any
        // cross-tenant mixup fails the decode).
        let spec = fast_spec()
            .tenant(tenant("a", PolicyId::Naive, 30, 11))
            .tenant(tenant("b", PolicyId::Naive, 30, 12));
        let pfs = Pfs::in_memory(spec.pfs_read.clone(), spec.scale);
        let bases = spec.namespace_bases();
        for (t, &base) in spec.tenants.iter().zip(&bases) {
            t.profile.materialize(&pfs.namespaced(base));
        }
        for (t, &base) in spec.tenants.iter().zip(&bases) {
            let ns = pfs.namespaced(base);
            for id in 0..t.profile.num_samples {
                let data = ns.read(id).expect("materialized");
                let (decoded, _) = t.profile.decode(&data).expect("clean payload");
                assert_eq!(decoded, id);
            }
        }
    }

    /// The simulator's twin of `spec`: each tenant's execution time
    /// co-scheduled on one model-clock PFS, over its time run alone.
    /// Deterministic, so it compares exactly.
    fn sim_slowdowns(spec: &ClusterSpec) -> Vec<f64> {
        use nopfs_simulator::{run, Scenario, SimTenant};
        let tenants: Vec<SimTenant> = spec
            .tenants
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let mut system = spec.tenant_system(i);
                system.compute = t.compute;
                let sizes = t.profile.sizes();
                let scenario = Scenario::new(&t.name, system, sizes, t.epochs, t.batch, t.seed);
                SimTenant::new(scenario, t.policy)
            })
            .collect();
        let co = nopfs_simulator::run_cluster(&tenants).expect("simulated cluster");
        tenants
            .iter()
            .zip(&co)
            .map(|(t, r)| {
                let solo = run(&t.scenario, t.policy).expect("solo simulation");
                r.execution_time / solo.execution_time
            })
            .collect()
    }

    #[test]
    fn interference_slowdowns_favor_the_clairvoyant_tenant() {
        // A PFS that saturates at ~2 clients: co-scheduling multiplies
        // the live reader count, so the all-PFS naive tenants slow down
        // while NoPFS (cache-served after epoch 0) is shielded. The
        // slowdowns are asserted on the simulator's model clock, where
        // the same spec's tenants contend on one `t(γ)`; the runtime's
        // wall-clock ratios move with how busy the host is, so they are
        // printed, not asserted.
        let scale = TimeScale::new(0.5);
        let curve =
            ThroughputCurve::from_points(&[(1.0, 30.0 * MB), (2.0, 40.0 * MB), (16.0, 41.0 * MB)]);
        let mut spec = ClusterSpec::new(curve, scale)
            .tenant(tenant("nopfs", PolicyId::NoPfs, 296, 21))
            .tenant(tenant("naive-1", PolicyId::Naive, 296, 22))
            .tenant(tenant("naive-2", PolicyId::Naive, 296, 23));
        for t in &mut spec.tenants {
            t.epochs = 3;
        }
        let slowdowns = sim_slowdowns(&spec);
        println!("model-clock slowdowns: {slowdowns:?}");
        let (nopfs, naive) = (slowdowns[0], slowdowns[1]);
        assert!(
            naive > 1.15,
            "co-scheduled naive tenants must interfere: {naive}x"
        );
        assert!(
            nopfs < naive,
            "NoPFS ({nopfs}x) must degrade less than naive ({naive}x)"
        );
        let report = interference_report(&spec);
        println!(
            "wall-clock slowdowns: NoPFS {:.3}x, naive {:.3}x",
            report.slowdown_of(PolicyId::NoPfs).expect("filled in"),
            report.slowdown_of(PolicyId::Naive).expect("filled in"),
        );
        // And the shield comes from the caches, not luck: NoPFS's
        // steady-state fetches are mostly cache-served.
        assert!(report.tenants[0].cache_fraction() > 0.3);
    }

    #[test]
    fn staggered_tenant_starts_late() {
        let scale = TimeScale::new(1e-3);
        let spec = ClusterSpec::new(ThroughputCurve::flat(1e12), scale)
            .tenant(tenant("early", PolicyId::Naive, 32, 31))
            .tenant(tenant("late", PolicyId::Naive, 32, 32).starting_at(5.0));
        let t0 = Instant::now();
        let report = run_cluster(&spec);
        // 5 model seconds at 1e-3 = 5 ms of wall stagger, measurable in
        // the cluster wall time.
        assert!(t0.elapsed().as_secs_f64() >= 0.005);
        assert!(report.wall_time >= 0.005);
        assert_eq!(report.tenants[1].start_delay, 5.0);
        // Both still delivered everything.
        for t in &report.tenants {
            assert_eq!(t.stats.samples_consumed, 64);
        }
    }

    #[test]
    fn straggler_plans_slow_a_tenant_without_changing_content() {
        use nopfs_policy::FaultPlan;
        // Two identical tenants; one has a rank slowed 8x. Stragglers
        // cost time, never content.
        // Per-sample compute waits of 0.1 model s at this scale are
        // 500 µs sleeps, long beside a timer overshoot, so the
        // comparison survives a CPU-contended (parallel test) machine.
        let scale = TimeScale::new(5e-3);
        // Compute-bound tenants (0.1 model s per sample), so the 8x
        // compute straggle is the dominant term by construction.
        let spec = ClusterSpec::new(ThroughputCurve::flat(1e12), scale)
            .tenant(tenant("steady", PolicyId::Naive, 64, 51).with_compute(2.0e5))
            .tenant(
                tenant("straggling", PolicyId::Naive, 64, 51)
                    .with_compute(2.0e5)
                    .with_fault_plan(FaultPlan::fault_free().straggle(0, 0, 8.0)),
            );
        let report = run_cluster(&spec);
        let steady = &report.tenants[0];
        let slow = &report.tenants[1];
        assert_eq!(slow.stats.samples_consumed, steady.stats.samples_consumed);
        assert!(
            slow.total_time > 1.5 * steady.total_time,
            "8x straggler must dominate: {} vs {}",
            slow.total_time,
            steady.total_time
        );
    }

    #[test]
    fn a_straggler_slows_its_rank_from_its_own_epoch_on() {
        use nopfs_policy::FaultPlan;
        use nopfs_simulator::{run_elastic, Scenario};
        // Rank 1 computes 4x slower from epoch 1 on. The compute each
        // loop charged is modelled, not measured, so it compares
        // exactly, whatever the wall clock does.
        let straggle = FaultPlan::fault_free().straggle(1, 1, 4.0);
        let charged = |policy, plan: FaultPlan| {
            let spec = fast_spec().tenant(tenant("t", policy, 64, 9).with_fault_plan(plan));
            run_cluster(&spec).tenants.remove(0).compute_times
        };
        let runs = [
            (PolicyId::Naive, straggle.clone()),
            (PolicyId::NoPfs, straggle.clone()),
            // The same plan plus a crash cutting epoch 0: the elastic
            // path, on two launches.
            (PolicyId::NoPfs, straggle.clone().crash(0, 2, 0)),
        ];
        for (policy, plan) in runs {
            let free = charged(policy, FaultPlan::fault_free());
            let got = charged(policy, plan.clone());
            assert_eq!(got.len(), 2, "{policy} {plan:?}");
            for rank in 0..2 {
                assert!(free[rank][0] > 0.0);
                assert_eq!(got[rank][0], free[rank][0], "epoch 0 untouched");
            }
            assert_eq!(got[0][1], free[0][1], "rank 0 never straggles");
            assert_eq!(got[1][1], 4.0 * free[1][1], "{policy} {plan:?}");
        }
        // The simulator divides the same rank's compute rate from the
        // same epoch on.
        let t = tenant("t", PolicyId::NoPfs, 64, 9);
        let mut system = t.system.clone();
        system.compute = t.compute;
        let scenario = Scenario::new("t", system, t.profile.sizes(), t.epochs, t.batch, t.seed);
        let sim = |plan| run_elastic(&scenario, PolicyId::NoPfs, plan).expect("valid plan");
        let (free, slow) = (sim(&FaultPlan::fault_free()), sim(&straggle));
        assert_eq!(slow.per_epoch_time[0], free.per_epoch_time[0]);
        assert!(slow.per_epoch_time[1] > free.per_epoch_time[1]);
    }

    #[test]
    fn read_error_plans_are_retried_through() {
        use nopfs_policy::{FaultPlan, ReadErrors};
        let errors = ReadErrors {
            rate: 0.3,
            max_burst: 2,
            seed: 0xBAD,
        };
        // Every sample is read from the PFS at least once, so every
        // planted failure is met — and counted once, by the one
        // origin retry loop every loader shares. The count is read from
        // the registry after the run: a NoPFS class prefetcher may
        // still be reading when its rank's stats are snapshotted.
        let planted: u64 = errors.bursts(40).map(|(_, b)| u64::from(b)).sum();
        assert!(planted > 0, "rate 0.3 over 40 ids must fire");
        let flaky = FaultPlan::fault_free().with_read_errors(errors);
        for policy in PolicyId::ALL {
            if policy == PolicyId::Perfect {
                continue; // never reads the PFS
            }
            let spec =
                fast_spec().tenant(tenant("flaky", policy, 40, 61).with_fault_plan(flaky.clone()));
            let report = run_cluster(&spec);
            let counted = report.snapshot.counter_total(names::WORKER_PFS_ERRORS);
            assert_eq!(counted, planted, "{policy}");
            assert_eq!(
                report.tenants[0].stats.samples_consumed, 80,
                "{policy}: retries absorb every burst"
            );
        }
        // A NoPFS tenant whose plan also crashes runs elastically, and
        // meets the same planted faults in the same retry loop.
        let crashing = flaky.crash(0, 2, 1);
        let spec =
            fast_spec().tenant(tenant("flaky", PolicyId::NoPfs, 40, 61).with_fault_plan(crashing));
        assert!(spec.tenants[0].needs_elastic());
        let report = run_cluster(&spec);
        let counted = report.snapshot.counter_total(names::WORKER_PFS_ERRORS);
        assert_eq!(counted, planted, "elastic tenant");
        assert_eq!(report.tenants[0].stats.samples_consumed, 80);
    }

    #[test]
    fn cloud_origin_tenants_report_resilience() {
        use nopfs_policy::{CloudFaults, FaultPlan};
        let cloud = CloudFaults {
            spike_rate: 0.05,
            spike_factor: 4.0,
            throttle_rate: 0.1,
            throttle_burst: 2,
            retry_after: 1e-4,
            ..CloudFaults::none(0xC10D)
        };
        let spec = fast_spec()
            .tenant(
                tenant("cloudy", PolicyId::NoPfs, 60, 91)
                    .with_fault_plan(FaultPlan::fault_free().with_cloud(cloud)),
            )
            .tenant(tenant("steady", PolicyId::Naive, 40, 92));
        let report = run_cluster(&spec);
        let c = &report.tenants[0];
        // The origin detour costs time, never content.
        assert_eq!(c.stats.samples_consumed, 2 * 60);
        let res = c.resilience.as_ref().expect("cloud tenants report stats");
        assert!(res.reads > 0, "origin must be exercised");
        assert!(res.throttled > 0, "rate 0.1 over 60 ids must fire");
        assert_eq!(res.exhausted, 0, "retry budget absorbs every burst");
        // Elastic tenants also surface their merged cache-tier view.
        assert!(!c.tier_stats.is_empty(), "tier stats ride along");
        assert!(c.tier_stats.iter().any(|t| t.hits > 0));
        // Tenants without a cloud clause don't.
        assert!(report.tenants[1].resilience.is_none());
        assert!(report.tenants[1].tier_stats.is_empty());
    }

    #[test]
    fn crash_and_churn_tenants_run_elastically() {
        use nopfs_policy::FaultPlan;
        let plan = FaultPlan::fault_free().crash(0, 2, 1).join(1);
        let spec = fast_spec()
            .tenant(tenant("elastic", PolicyId::NoPfs, 60, 71).with_fault_plan(plan))
            .tenant(tenant("steady", PolicyId::Naive, 40, 72));
        let report = run_cluster(&spec);
        let e = &report.tenants[0];
        // Elastic path: no drop_last, so exactly F samples per epoch
        // despite the crash replay and the joined worker.
        assert_eq!(e.stats.samples_consumed, 2 * 60);
        assert_eq!(e.epoch_times.len(), 2);
        assert!(e.setup.is_some(), "elastic tenants report setup stats");
        // The co-scheduled steady tenant is untouched.
        assert_eq!(report.tenants[1].stats.samples_consumed, 2 * 40);
    }

    #[test]
    #[should_panic(expected = "elastic")]
    fn baseline_tenants_reject_crash_plans() {
        use nopfs_policy::FaultPlan;
        let spec = fast_spec().tenant(
            tenant("naive-crash", PolicyId::Naive, 40, 81)
                .with_fault_plan(FaultPlan::fault_free().crash(0, 1, 0)),
        );
        spec.validate();
    }

    #[test]
    fn telemetry_streams_snapshot_and_trace_ride_the_report() {
        use nopfs_obs::{Json, ObsCtx};
        use std::time::Duration;
        let spec = fast_spec()
            .tenant(tenant("a", PolicyId::NoPfs, 64, 3))
            .tenant(tenant("b", PolicyId::Naive, 40, 4))
            .with_obs(ObsCtx::traced())
            .telemetry_every(Duration::from_millis(5));
        let report = run_cluster(&spec);
        for t in &report.tenants {
            // At least the final stop-time snapshot, parseable JSONL
            // with monotone sequence numbers and counters.
            assert!(!t.telemetry.is_empty(), "tenant {} has no lines", t.name);
            let mut prev_seq = -1.0;
            for line in &t.telemetry {
                let j = Json::parse(line).expect("telemetry line parses");
                let seq = j.get("seq").and_then(Json::as_num).expect("seq");
                assert!(seq > prev_seq, "seq must increase");
                prev_seq = seq;
            }
        }
        // The merged end-of-run snapshot sees both tenants' scopes.
        for name in ["a", "b"] {
            let key = format!("worker.consumed{{tenant={name},rank=0}}");
            assert!(
                report.snapshot.counter(&key).is_some_and(|v| v > 0),
                "snapshot missing {key}"
            );
        }
        // Tracing was on, so the chrome trace exports and parses.
        let trace = report.chrome_trace.as_ref().expect("tracing was on");
        let j = Json::parse(trace).expect("chrome trace parses");
        let events = j
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        assert!(!events.is_empty(), "the run must emit events");
    }

    #[test]
    fn lbann_tenant_coexists_on_the_shared_pfs() {
        let spec = fast_spec()
            .tenant(tenant("lbann", PolicyId::LbannDynamic, 40, 41))
            .tenant(tenant("naive", PolicyId::Naive, 40, 42));
        let report = run_cluster(&spec);
        let lbann = &report.tenants[0];
        assert_eq!(lbann.stats.samples_consumed, 80);
        // Epoch 0 from the PFS, epoch 1 owner-served.
        assert_eq!(lbann.stats.pfs_fetches, 40);
        assert!(lbann.stats.local_fetches + lbann.stats.remote_fetches >= 40);
    }
}
