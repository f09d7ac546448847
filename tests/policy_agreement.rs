//! Cross-harness agreement: for every `PolicyId`, the threaded
//! runtime's *observable behavior* must match the discrete-event
//! simulator's, because both execute the same shared decision core
//! (`nopfs_policy`).
//!
//! Checked per policy, on an ample-storage and a scarce-storage
//! configuration:
//!
//! - **supportedness parity** — a configuration the simulator refuses
//!   (LBANN with an over-sized dataset) is refused by the runtime too,
//!   with the same reason;
//! - **order/content agreement** — each rank's delivered sample
//!   sequence equals the core-transformed access stream the simulator
//!   replays (exact, element for element);
//! - **prestage presence** — the runtime performs a prestaging phase
//!   exactly when the simulator prices one;
//! - **fetch-source parity** — every core-backed policy reads as many
//!   samples locally, from peers and from the PFS as the simulator
//!   prices;
//! - **Table 1 spot checks** — fully-randomizing policies deliver every
//!   sample exactly once per epoch; DeepIO's opportunistic mode loses
//!   dataset coverage in both harnesses when caches shrink.

use bytes::Bytes;
use nopfs::baselines::run_policy;
use nopfs::core::{Job, JobConfig, WorkerStats};
use nopfs::perfmodel::presets::fig8_small_cluster;
use nopfs::perfmodel::{SystemSpec, ThroughputCurve};
use nopfs::pfs::Pfs;
use nopfs::policy::{
    build_core, elastic_epoch_streams, transformed_streams, FaultPlan, PolicyId, ReadErrors,
};
use nopfs::simulator::{run_elastic, Scenario, SimError};
use nopfs::util::timing::TimeScale;
use std::collections::HashSet;
use std::sync::Arc;

const SAMPLE_BYTES: u64 = 1_000;
const EPOCHS: u64 = 2;
const BATCH: usize = 4;
const WORKERS: usize = 4;
const SEED: u64 = 0xA9;

struct Config {
    name: &'static str,
    samples: u64,
    ram_samples: u64,
    ssd_samples: u64,
    /// Capacity of a third, slowest cache tier (0 = the classic
    /// two-class hierarchy).
    hdd_samples: u64,
}

/// Ample: everything fits everywhere — all ten policies feasible with
/// full coverage. Scarce: RAM holds 24 samples/worker (aggregate 96 <
/// 200), so the LBANN store is infeasible and DeepIO's cache covers
/// only part of the dataset. Three-tier: a RAM → SSD → HDD hierarchy
/// above the PFS, where no single tier holds the dataset but the three
/// together do — every policy must run unchanged through the deeper
/// `TierStack`.
const CONFIGS: [Config; 3] = [
    Config {
        name: "ample",
        samples: 64,
        ram_samples: 64,
        ssd_samples: 64,
        hdd_samples: 0,
    },
    Config {
        name: "scarce",
        samples: 200,
        ram_samples: 24,
        ssd_samples: 30,
        hdd_samples: 0,
    },
    Config {
        name: "three-tier",
        samples: 120,
        ram_samples: 40,
        ssd_samples: 30,
        hdd_samples: 50,
    },
];

fn system(cfg: &Config) -> SystemSpec {
    let mut sys = fig8_small_cluster();
    sys.workers = WORKERS;
    sys.staging.capacity = 16 * SAMPLE_BYTES;
    sys.staging.threads = 2;
    sys.classes[0].capacity = cfg.ram_samples * SAMPLE_BYTES;
    sys.classes[1].capacity = cfg.ssd_samples * SAMPLE_BYTES;
    if cfg.hdd_samples > 0 {
        // A third, slowest cache tier below the SSD: same shape, a
        // quarter of the throughput, one prefetch thread.
        let mut hdd = sys.classes[1].clone();
        hdd.name = "hdd".to_string();
        hdd.capacity = cfg.hdd_samples * SAMPLE_BYTES;
        hdd.prefetch_threads = 1;
        hdd.read = hdd.read.scaled(0.25);
        hdd.write = hdd.write.scaled(0.25);
        sys.classes.push(hdd);
    }
    sys
}

/// An unpaced PFS holding `cfg`'s dataset.
fn materialized_pfs(cfg: &Config) -> Pfs {
    let pfs = Pfs::in_memory(ThroughputCurve::flat(1e12), TimeScale::new(1e-6));
    for id in 0..cfg.samples {
        pfs.put(
            id,
            Bytes::from(vec![(id % 256) as u8; SAMPLE_BYTES as usize]),
        );
    }
    pfs
}

/// Runs the runtime leg, returning each rank's delivered ids (in
/// delivery order) and its stats, or the refusal message.
#[allow(clippy::type_complexity)]
fn runtime_leg(policy: PolicyId, cfg: &Config) -> Result<Vec<(Vec<u64>, WorkerStats)>, String> {
    let config = JobConfig::new(SEED, EPOCHS, BATCH, system(cfg), TimeScale::new(1e-6));
    let sizes = Arc::new(vec![SAMPLE_BYTES; cfg.samples as usize]);
    let pfs = materialized_pfs(cfg);
    let outcome = run_policy(policy, config, sizes, &pfs, |l| {
        let mut got = Vec::new();
        while let Some((id, _)) = l.next_sample() {
            got.push(id);
        }
        (l.rank(), got, l.stats())
    })
    .map_err(|e| e.0)?;
    let mut sorted = outcome.per_worker;
    sorted.sort_by_key(|(rank, _, _)| *rank);
    Ok(sorted
        .into_iter()
        .map(|(_, got, stats)| (got, stats))
        .collect())
}

fn sim_leg(policy: PolicyId, cfg: &Config) -> Result<nopfs::simulator::SimResult, String> {
    let scenario = Scenario::new(
        cfg.name,
        system(cfg),
        vec![SAMPLE_BYTES; cfg.samples as usize],
        EPOCHS,
        BATCH,
        SEED,
    );
    nopfs::simulator::run(&scenario, policy).map_err(|SimError::Unsupported(m)| m)
}

/// The streams both harnesses replay: the shared core's transformed
/// access streams (identity for the core-less NoPFS / lower bound).
fn expected_streams(policy: PolicyId, cfg: &Config) -> Vec<Vec<u64>> {
    let sys = system(cfg);
    let sizes = vec![SAMPLE_BYTES; cfg.samples as usize];
    let spec =
        nopfs::clairvoyance::sampler::ShuffleSpec::new(SEED, cfg.samples, WORKERS, BATCH, false);
    let core = build_core(policy, &sys, &sizes, &spec).expect("feasibility checked by caller");
    transformed_streams(core.as_deref(), &spec, EPOCHS)
}

#[test]
fn every_policy_agrees_across_harnesses() {
    for cfg in &CONFIGS {
        for policy in PolicyId::ALL {
            let sim = sim_leg(policy, cfg);
            let runtime = runtime_leg(policy, cfg);
            // Supportedness parity, with the same reason.
            match (&sim, &runtime) {
                (Ok(_), Ok(_)) => {}
                (Err(s), Err(r)) => {
                    assert_eq!(s, r, "{policy}/{}: refusal reasons diverged", cfg.name);
                    continue;
                }
                (sim, runtime) => panic!(
                    "{policy}/{}: harnesses disagree on feasibility \
                     (sim supported: {}, runtime supported: {})",
                    cfg.name,
                    sim.is_ok(),
                    runtime.is_ok()
                ),
            }
            let sim = sim.unwrap();
            let runtime = runtime.unwrap();

            // Order/content agreement: the runtime delivered exactly the
            // core-transformed streams the simulator replays.
            let expected = expected_streams(policy, cfg);
            assert_eq!(runtime.len(), WORKERS);
            for (w, (got, _)) in runtime.iter().enumerate() {
                assert_eq!(
                    got, &expected[w],
                    "{policy}/{}: worker {w} deviated from the shared core's stream",
                    cfg.name
                );
            }

            // Prestage presence parity.
            let prestaged: u64 = runtime.iter().map(|(_, s)| s.prestage_fetches).sum();
            assert_eq!(
                prestaged > 0,
                sim.prestage_time > 0.0,
                "{policy}/{}: prestage presence diverged \
                 (runtime {prestaged} fetches, sim {}s)",
                cfg.name,
                sim.prestage_time
            );

            // Fetch-source parity for every core-backed policy: the
            // runtime read as many samples from its own caches, its
            // peers and the PFS as the simulator priced, exactly.
            if !matches!(policy, PolicyId::NoPfs | PolicyId::Perfect) {
                let mut merged = WorkerStats::default();
                for (_, s) in &runtime {
                    merged.merge(s);
                }
                assert_eq!(
                    [
                        merged.local_fetches,
                        merged.remote_fetches,
                        merged.pfs_fetches
                    ],
                    sim.fetch_counts[1..=3],
                    "{policy}/{}: fetch sources diverged (runtime local/remote/pfs, sim)",
                    cfg.name
                );
            }

            // For the PFS-only cores: every sample a rank delivered was
            // read from the PFS, none from a cache, a peer or a prestage.
            if matches!(policy, PolicyId::Naive | PolicyId::StagingBuffer) {
                for (w, (got, s)) in runtime.iter().enumerate() {
                    assert_eq!(
                        s.pfs_fetches,
                        got.len() as u64,
                        "{policy}/{}: worker {w} delivered a sample not read from the PFS",
                        cfg.name
                    );
                    assert_eq!(
                        s.local_fetches + s.remote_fetches + s.prestage_fetches,
                        0,
                        "{policy}/{}: worker {w} fetched from a cache",
                        cfg.name
                    );
                }
            }

            // Table 1, full randomization: every sample exactly once per
            // epoch, in both harnesses' shared streams.
            if policy.capabilities().full_randomization {
                for epoch in 0..EPOCHS {
                    let mut per_epoch: Vec<u64> = Vec::new();
                    for (w, (got, _)) in runtime.iter().enumerate() {
                        let len = expected[w].len() / EPOCHS as usize;
                        per_epoch.extend(&got[epoch as usize * len..(epoch as usize + 1) * len]);
                    }
                    per_epoch.sort_unstable();
                    let all: Vec<u64> = (0..cfg.samples).collect();
                    assert_eq!(
                        per_epoch, all,
                        "{policy}/{}: epoch {epoch} not exactly-once",
                        cfg.name
                    );
                }
            }

            // Table 1, coverage: DeepIO's opportunistic mode shrinks
            // dataset coverage exactly when the simulator reports it.
            if policy == PolicyId::DeepIoOpportunistic {
                let distinct: HashSet<u64> = runtime
                    .iter()
                    .flat_map(|(got, _)| got.iter().copied())
                    .collect();
                assert_eq!(
                    (distinct.len() as u64) < cfg.samples,
                    sim.coverage < 1.0,
                    "{policy}/{}: coverage observation diverged",
                    cfg.name
                );
                if sim.coverage < 1.0 {
                    assert!(sim.note.is_some(), "coverage note expected");
                }
            }
        }
    }
}

/// Elastic agreement: under the SAME fault plan — a mid-epoch crash,
/// a leave, a straggler, and transient read errors — the threaded
/// runtime's recovery streams ([`Job::run`]) and the simulator's
/// modelled ones ([`run_elastic`]) are identical per epoch and per
/// rank, and both equal the policy layer's canonical expected streams.
#[test]
fn runtime_and_simulator_recover_identical_streams_under_one_fault_plan() {
    let cfg = &CONFIGS[0]; // ample: every source path reachable
    let plan = FaultPlan::fault_free()
        .crash(0, 2, 1)
        .leave(1)
        .straggle(0, 2, 2.0)
        .with_read_errors(ReadErrors {
            rate: 0.1,
            max_burst: 2,
            seed: 0xFA11,
        });

    // Runtime leg: real threads, warm-cache handoff, actual retries.
    let config = JobConfig::new(SEED, EPOCHS, BATCH, system(cfg), TimeScale::new(1e-6));
    let sizes = Arc::new(vec![SAMPLE_BYTES; cfg.samples as usize]);
    let job = Job::with_plan(config, Arc::clone(&sizes), plan.clone()).expect("valid plan");
    let pfs = job.make_pfs();
    for id in 0..cfg.samples {
        pfs.put(
            id,
            Bytes::from(vec![(id % 256) as u8; SAMPLE_BYTES as usize]),
        );
    }
    let report = job.run(&pfs);

    // Simulator leg: the same plan, modelled.
    let scenario = Scenario::new(
        cfg.name,
        system(cfg),
        vec![SAMPLE_BYTES; cfg.samples as usize],
        EPOCHS,
        BATCH,
        SEED,
    );
    let sim = run_elastic(&scenario, PolicyId::NoPfs, &plan).expect("valid plan");

    // Both harnesses saw the same memberships and replanned once.
    assert_eq!(report.memberships, vec![WORKERS, WORKERS - 1]);
    assert_eq!(sim.memberships, report.memberships);
    assert_eq!(report.replans, 1);
    assert_eq!(sim.replans, 1);
    assert_eq!(report.recoveries, 1);
    assert_eq!(sim.recoveries, 1);
    assert_eq!(report.replan_shuffle_generations, 0);

    // Per-epoch, per-rank stream identity across harnesses, and both
    // match the canonical policy-layer expectation.
    assert_eq!(report.per_epoch, sim.epoch_streams);
    let canon = elastic_epoch_streams(
        PolicyId::NoPfs,
        &system(cfg),
        &vec![SAMPLE_BYTES; cfg.samples as usize],
        &nopfs::clairvoyance::sampler::ShuffleSpec::new(SEED, cfg.samples, WORKERS, BATCH, false),
        EPOCHS,
        &plan,
    )
    .expect("valid plan");
    assert_eq!(report.per_epoch, canon);
}

/// The NoPFS selection rule is one function (`decision::select_source`)
/// called by both the runtime's staging fetches and the simulator's
/// NoPFS policy; with warm caches, both harnesses must therefore agree
/// that steady-state fetches stop hitting the PFS.
#[test]
fn nopfs_source_selection_agrees_when_caches_warm() {
    // Ample (everything cacheable), and long enough that what the
    // runtime's staging threads can fetch before its caches are warm
    // is well under the share asserted below.
    const WARM_EPOCHS: u64 = 4 * EPOCHS;
    let cfg = &CONFIGS[0];
    let scenario = Scenario::new(
        cfg.name,
        system(cfg),
        vec![SAMPLE_BYTES; cfg.samples as usize],
        WARM_EPOCHS,
        BATCH,
        SEED,
    );
    let sim = nopfs::simulator::run(&scenario, PolicyId::NoPfs).expect("supported");
    // Simulator: cached fetches dominate (fetch_counts = [staging,
    // local, remote, pfs]) — only epoch 0, an eighth of the stream,
    // can go to the PFS.
    let total: u64 = sim.fetch_counts.iter().sum();
    assert!(sim.fetch_counts[1] + sim.fetch_counts[2] > 0);
    assert!(sim.fetch_counts[3] <= total / 2);

    // Runtime: same shape from the same selection rule. "Warm" is
    // made to hold instead of raced for: a rank is consumed only once
    // every rank's class prefetchers are through with their fill lists
    // (each assigned sample filled, by them or by a staging thread's
    // self-healing fill). Until then the staging threads get a stage's
    // worth and one run each in flight ahead of the consumer; a 16-
    // sample stage split between two threads makes runs of one sample
    // (an eighth of it per thread, rounded down), so that is 18 of a
    // rank's 128 positions — under a seventh of the stream at the very
    // worst, and the bound leaves more than three times as much.
    // Everything else is read from a cache.
    let config = JobConfig::new(SEED, WARM_EPOCHS, BATCH, system(cfg), TimeScale::new(1e-6));
    let sizes = Arc::new(vec![SAMPLE_BYTES; cfg.samples as usize]);
    let job = Job::new(config, sizes);
    let pfs = materialized_pfs(cfg);
    let mut merged = WorkerStats::default();
    std::thread::scope(|s| {
        let ranks: Vec<_> = job
            .launch_workers(&pfs)
            .into_iter()
            .map(|mut w| {
                let job = &job;
                s.spawn(move || {
                    let assignment = job.placement().assignment(w.rank());
                    let assigned = (0..cfg.samples)
                        .filter(|&k| assignment.class_of(k).is_some())
                        .count() as u64;
                    // Ends when a prefetcher dies, too: the count
                    // below or `shutdown` then fails the test.
                    while !w.prefetch_done() {
                        std::thread::yield_now();
                    }
                    let fills: u64 = w.tier_stats().iter().map(|t| t.fills).sum();
                    w.barrier();
                    while w.next_sample().is_some() {}
                    let stats = w.stats();
                    w.shutdown();
                    assert!(fills >= assigned, "{fills} fills of {assigned} assigned");
                    stats
                })
            })
            .collect();
        for rank in ranks {
            merged.merge(&rank.join().expect("rank panicked"));
        }
    });
    assert_eq!(merged.total_fetches(), WARM_EPOCHS * cfg.samples);
    assert!(merged.local_fetches + merged.remote_fetches > 0);
    assert!(merged.pfs_fetches <= merged.total_fetches() / 2);
}
