//! Cross-crate integration tests: full NoPFS jobs on real substrates,
//! baselines on identical substrates, clairvoyance invariants end to
//! end, and failure injection.

use nopfs::baselines::run_policy;
use nopfs::clairvoyance::stream::AccessStream;
use nopfs::core::{Job, JobConfig, WorkerHandle};
use nopfs::datasets::DatasetProfile;
use nopfs::perfmodel::presets::fig8_small_cluster;
use nopfs::perfmodel::SystemSpec;
use nopfs::pfs::Pfs;
use nopfs::policy::PolicyId;
use nopfs::util::timing::TimeScale;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

fn small_system(workers: usize) -> SystemSpec {
    let mut sys = fig8_small_cluster();
    sys.workers = workers;
    sys.staging.capacity = 128 * 1_024;
    sys.staging.threads = 4;
    sys.classes[0].capacity = 256 * 1_024;
    sys.classes[1].capacity = 1_024 * 1_024;
    sys
}

fn profile(samples: u64) -> DatasetProfile {
    DatasetProfile::new("itest", samples, 1_200.0, 200.0, 7, 0x17E5)
}

/// The headline correctness property: a full NoPFS job on a real
/// (disk-backed) PFS delivers every sample exactly once per epoch, with
/// verifiable contents, in exactly the order clairvoyance predicted.
#[test]
fn nopfs_job_on_disk_pfs_delivers_exact_streams() {
    let workers = 4;
    let epochs = 3u64;
    let p = profile(120);
    let sizes = Arc::new(p.sizes());
    let config = JobConfig::new(
        0xE2E,
        epochs,
        8,
        small_system(workers),
        TimeScale::new(1e-5),
    );
    let job = Job::new(config.clone(), Arc::clone(&sizes));

    let dir = std::env::temp_dir().join(format!("nopfs-e2e-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let pfs = Pfs::on_disk(&dir, config.system.pfs_read.clone(), config.scale);
    p.materialize(&pfs);

    let delivered: Vec<Mutex<Vec<u64>>> = (0..workers).map(|_| Mutex::default()).collect();
    job.run_with(&pfs, |_| {
        |w: &mut WorkerHandle| {
            let mut ids = delivered[w.rank()].lock().expect("one consumer per rank");
            while let Some((id, data)) = w.next_sample() {
                let (decoded, _) = p
                    .decode(&data)
                    .expect("payload integrity after caching hops");
                assert_eq!(decoded, id);
                ids.push(id);
            }
        }
    });
    std::fs::remove_dir_all(&dir).ok();

    let spec = config.shuffle_spec(sizes.len() as u64);
    let mut counts: HashMap<u64, u32> = HashMap::new();
    for (rank, ids) in delivered.into_iter().enumerate() {
        let ids = ids.into_inner().expect("one consumer per rank");
        let expect = AccessStream::new(spec, rank, epochs).materialize();
        assert_eq!(ids, expect, "worker {rank} deviated from clairvoyant order");
        for id in ids {
            *counts.entry(id).or_default() += 1;
        }
    }
    assert_eq!(counts.len(), 120);
    assert!(counts.values().all(|&c| c == epochs as u32));
}

/// NoPFS and every baseline deliver the same multiset of samples per
/// epoch — policies differ in *where* bytes come from, never in *what*
/// the trainer sees.
#[test]
fn all_loaders_deliver_equivalent_data() {
    let workers = 2;
    let epochs = 2u64;
    let p = profile(60);
    let sizes = Arc::new(p.sizes());
    let mut sys = small_system(workers);
    // Plenty of RAM so the LBANN store is supported.
    sys.classes[0].capacity = 200_000;
    let config = JobConfig::new(0xE2F, epochs, 4, sys, TimeScale::new(1e-5));
    let pfs = Pfs::in_memory(config.system.pfs_read.clone(), config.scale);
    p.materialize(&pfs);
    // Every id each policy delivered, over all ranks, sorted.
    let delivered = |policy: PolicyId| {
        let ids = run_policy(policy, config.clone(), Arc::clone(&sizes), &pfs, |l| {
            std::iter::from_fn(|| l.next_sample().map(|(id, _)| id)).collect::<Vec<u64>>()
        })
        .unwrap_or_else(|e| panic!("{policy}: {e}"))
        .per_worker;
        let mut all: Vec<u64> = ids.into_iter().flatten().collect();
        all.sort_unstable();
        all
    };

    let nopfs = delivered(PolicyId::NoPfs);
    for policy in [
        PolicyId::StagingBuffer,
        PolicyId::LbannDynamic,
        PolicyId::Perfect,
    ] {
        assert_eq!(nopfs, delivered(policy), "{policy}");
    }
}

/// Transient PFS faults during a full job are retried transparently
/// everywhere (class prefetchers, staging fetches, remote fallbacks).
#[test]
fn faults_during_full_job_are_survived() {
    let p = profile(80);
    let sizes = Arc::new(p.sizes());
    let config = JobConfig::new(0xFA17, 2, 8, small_system(4), TimeScale::new(1e-5));
    let job = Job::new(config.clone(), Arc::clone(&sizes));
    let pfs = job.make_pfs();
    p.materialize(&pfs);
    for id in (0..80).step_by(7) {
        pfs.inject_fault(id, 2);
    }
    let consumed = job.run(&pfs).global_stream.len();
    assert_eq!(consumed, 160);
}

/// Two independent processes (jobs) given the same seed compute
/// identical placements and streams — the zero-metadata-traffic
/// property that clairvoyance buys.
#[test]
fn independent_jobs_agree_on_everything() {
    let p = profile(90);
    let sizes = Arc::new(p.sizes());
    let mk = || {
        Job::new(
            JobConfig::new(0xA9EE, 2, 8, small_system(3), TimeScale::new(1e-5)),
            Arc::clone(&sizes),
        )
    };
    let (a, b) = (mk(), mk());
    for w in 0..3 {
        assert_eq!(
            a.placement().assignment(w).class_map(),
            b.placement().assignment(w).class_map()
        );
    }
    for k in 0..90u64 {
        assert_eq!(a.placement().holders(k), b.placement().holders(k));
    }
}

/// Epoch boundaries and batch shapes survive the whole pipeline.
#[test]
fn batch_shapes_are_stable_across_policies() {
    let p = profile(48);
    let sizes = Arc::new(p.sizes());
    let config = JobConfig::new(5, 2, 5, small_system(2), TimeScale::new(1e-5));
    let pfs = Pfs::in_memory(config.system.pfs_read.clone(), config.scale);
    p.materialize(&pfs);
    // 24 samples per worker per epoch with batch 5: 5,5,5,5,4.
    let expect = vec![5usize, 5, 5, 5, 4, 5, 5, 5, 5, 4];
    for policy in [PolicyId::StagingBuffer, PolicyId::NoPfs] {
        let shapes = run_policy(policy, config.clone(), Arc::clone(&sizes), &pfs, |l| {
            std::iter::from_fn(|| l.next_batch().map(|b| b.len())).collect::<Vec<_>>()
        })
        .expect("supported")
        .per_worker;
        for s in shapes {
            assert_eq!(s, expect, "{policy}");
        }
    }
}
