//! Workspace wiring smoke test: compile-time usage of every `nopfs::*`
//! re-exported module, so a broken manifest or renamed crate fails this
//! suite immediately rather than only breaking downstream consumers.
//!
//! Each statement touches a real item through the umbrella path — `use`
//! alone would not catch a module that exists but lost its contents.

use std::sync::Arc;

#[test]
fn every_umbrella_reexport_resolves() {
    // util — deterministic PRNG and units.
    let mut rng = nopfs::util::rng::Xoshiro256pp::seed_from_u64(1);
    assert!(rng.next_below(10) < 10);
    assert_eq!(nopfs::util::units::MB, 1_000_000.0);

    // clairvoyance — shuffle specs and access streams.
    let spec = nopfs::clairvoyance::sampler::ShuffleSpec::new(1, 16, 2, 4, false);
    let stream = nopfs::clairvoyance::stream::AccessStream::new(spec, 0, 1);
    assert_eq!(stream.materialize().len() as u64, spec.worker_epoch_len(0));

    // perfmodel — system presets.
    let sys = nopfs::perfmodel::presets::fig8_small_cluster();
    assert!(sys.workers > 0);

    // policy — the workspace registry and shared decision core.
    assert_eq!(nopfs::policy::PolicyId::ALL.len(), 10);
    assert!(nopfs::policy::PolicyId::NoPfs.capabilities().ease_of_use);

    // simulator — policies over a tiny scenario (dispatched on the
    // workspace registry's `PolicyId`).
    let scenario =
        nopfs::simulator::Scenario::new("smoke", sys.clone(), vec![1_000u64; 32], 1, 2, 7);
    let result =
        nopfs::simulator::run(&scenario, nopfs::simulator::PolicyId::NoPfs).expect("supported");
    assert!(result.execution_time > 0.0);

    // pfs + datasets — materialize a synthetic dataset into a PFS.
    let scale = nopfs::util::timing::TimeScale::new(1e-6);
    let pfs = nopfs::pfs::Pfs::in_memory(sys.pfs_read.clone(), scale);
    let profile = nopfs::datasets::DatasetProfile::new("smoke", 8, 500.0, 0.0, 2, 3);
    profile.materialize(&pfs);
    assert!(pfs.read(0).is_ok());

    // storage — the staging reorder buffer and the tiered hierarchy
    // (the PFS is a DataSource, so it slots in as a TierStack origin).
    let stage = nopfs::storage::ReorderStage::new(1_000);
    stage.push(0, 0, bytes::Bytes::from_static(b"x"));
    assert_eq!(stage.pop().map(|(id, _)| id), Some(0));
    let stack = nopfs::storage::TierStack::new(
        vec![
            Arc::new(nopfs::storage::MemoryBackend::new("ram", 10_000)),
            Arc::new(pfs.clone()),
        ],
        nopfs::storage::PromotePolicy::IfFits,
        &nopfs::obs::Registry::new(),
    );
    assert!(stack.read(0).is_ok());
    assert_eq!(stack.stats(0).promotions, 1);

    // net — a loopback cluster.
    let eps = nopfs::net::cluster::<u64>(1, nopfs::net::NetConfig::new(1e9, scale));
    eps[0].send(0, 7).expect("loopback");
    assert_eq!(eps[0].recv().expect("delivered").msg, 7);

    // core — a full (tiny) NoPFS job.
    let sizes = Arc::new(profile.sizes());
    let config = nopfs::core::JobConfig::new(
        2,
        1,
        4,
        {
            let mut s = sys.clone();
            s.workers = 2;
            s
        },
        scale,
    );
    let job = nopfs::core::Job::new(config, Arc::clone(&sizes));
    let consumed = job.run(&pfs).global_stream.len();
    assert_eq!(consumed, 8);

    // baselines — the no-I/O loader on the same job shape, through the
    // registry.
    let config = nopfs::core::JobConfig::new(
        2,
        1,
        4,
        {
            let mut s = sys.clone();
            s.workers = 2;
            s
        },
        scale,
    );
    let noio = nopfs::baselines::run_policy(
        nopfs::policy::PolicyId::Perfect,
        config,
        Arc::clone(&sizes),
        &pfs,
        |l| {
            let mut n = 0;
            while l.next_sample().is_some() {
                n += 1;
            }
            n
        },
    )
    .expect("the lower bound runs anything");
    assert_eq!(noio.per_worker.iter().sum::<i32>(), 8);

    // train — the tiny real model exists and initializes.
    let task = nopfs::train::model::SyntheticTask::new(4, 0.5, 0.0, 5);
    let model = nopfs::train::model::LogisticModel::new(4);
    let x = task.features(0, 0);
    assert!(model.predict(&x).is_finite());
}
