//! The tiered storage hierarchy, end to end: one `DataSource` API from
//! worker RAM to the PFS.
//!
//! Three legs, each self-checking (this example is a CI smoke):
//!
//! 1. **`TierStack` directly** — a RAM → SSD → PFS stack serves reads
//!    byte-identically to the bare PFS while the per-tier statistics
//!    show promotions absorbing the traffic.
//! 2. **Simulator** — an SSD-equipped NoPFS run beats the PFS-only
//!    naive policy on a contended `t(γ)` curve, and a deeper hierarchy
//!    never loses to a flat one.
//! 3. **Thread runtime** — a real NoPFS `Job` on the tiered system
//!    delivers exactly its clairvoyant access streams (stream equality
//!    vs the flat-PFS baseline's untransformed order) and outruns the
//!    naive loader on the same contended filesystem.
//!
//! Run with: `cargo run --release --example tiers`

use bytes::Bytes;
use nopfs_baselines::run_policy;
use nopfs_bench::report;
use nopfs_clairvoyance::stream::AccessStream;
use nopfs_core::{Job, JobConfig, WorkerHandle};
use nopfs_obs::Registry;
use nopfs_perfmodel::presets::{fig8_small_cluster, saturating_pfs_curve};
use nopfs_perfmodel::{SystemSpec, ThroughputCurve};
use nopfs_pfs::Pfs;
use nopfs_policy::PolicyId;
use nopfs_storage::{MemoryBackend, PromotePolicy, TierStack};
use nopfs_util::timing::TimeScale;
use nopfs_util::units::MB;
use std::sync::{Arc, Mutex};
use std::time::Instant;

const SAMPLES: u64 = 296;
const SAMPLE_BYTES: u64 = 20_000;
const EPOCHS: u64 = 3;
const BATCH: usize = 4;
const SEED: u64 = 0x71E5;

fn materialize(pfs: &Pfs) {
    for id in 0..SAMPLES {
        pfs.put(
            id,
            Bytes::from(vec![(id % 251) as u8; SAMPLE_BYTES as usize]),
        );
    }
}

/// Leg 1: the stack itself — transparent bytes, visible tier traffic.
fn stack_leg() {
    report::section("TierStack: RAM -> SSD -> PFS, one read entry point");
    let pfs = Pfs::in_memory(ThroughputCurve::flat(1e12), TimeScale::new(1e-6));
    materialize(&pfs);
    let stack = TierStack::new(
        vec![
            Arc::new(MemoryBackend::new("ram", 40 * SAMPLE_BYTES)),
            Arc::new(MemoryBackend::new("ssd", 120 * SAMPLE_BYTES)),
            Arc::new(pfs.clone()),
        ],
        PromotePolicy::Evicting,
        &Registry::new(),
    );
    // A cold full scan fills the tiers (RAM spill demotes into the
    // SSD), then a working set that fits RAM+SSD is re-read twice —
    // almost entirely cache-served. Bytes must match the bare PFS
    // exactly throughout.
    let working_set = 150u64; // < 40 (RAM) + 120 (SSD)
    for id in 0..SAMPLES {
        let via = stack.read(id).expect("origin holds the dataset");
        assert_eq!(via, pfs.read(id).expect("present"), "sample {id} corrupted");
    }
    let origin_after_scan = stack.stats(2).hits;
    for _pass in 0..2 {
        for id in 0..working_set {
            let via = stack.read(id).expect("origin holds the dataset");
            assert_eq!(via, pfs.read(id).expect("present"), "sample {id} corrupted");
        }
    }
    println!(
        "{:<8} {:>8} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "tier", "hits", "misses", "promoted", "demoted", "evicted", "hit rate"
    );
    for s in stack.all_stats() {
        println!(
            "{:<8} {:>8} {:>8} {:>10} {:>10} {:>10} {:>9.1}%",
            s.name,
            s.hits,
            s.misses,
            s.promotions,
            s.demotions,
            s.evictions,
            s.hit_rate() * 100.0
        );
    }
    let refetched = stack.stats(2).hits - origin_after_scan;
    assert!(
        refetched < working_set,
        "working-set re-reads should be mostly cache-served \
         ({refetched} of {} went back to the PFS)",
        2 * working_set
    );
    assert!(
        stack.stats(1).demotions > 0,
        "RAM spill should demote into the SSD tier"
    );
}

/// The contended tiered system the sim and runtime legs share: the PFS
/// saturates below cluster demand, caches hold ~80% of the dataset.
fn tiered_system() -> SystemSpec {
    let mut sys = fig8_small_cluster();
    sys.pfs_read = saturating_pfs_curve(30.0 * MB, 8.0);
    sys.staging.capacity = 16 * SAMPLE_BYTES;
    sys.staging.threads = 2;
    sys.classes[0].capacity = 20 * SAMPLE_BYTES; // RAM
    sys.classes[1].capacity = 40 * SAMPLE_BYTES; // SSD
    sys
}

/// Leg 2: simulator — SSD tier vs PFS-only, all policies unchanged.
fn simulator_leg() {
    report::section("simulator: SSD-equipped NoPFS vs the PFS-only naive policy");
    let sys = tiered_system();
    let scenario = nopfs_simulator::Scenario::new(
        "tiers",
        sys,
        vec![SAMPLE_BYTES; SAMPLES as usize],
        EPOCHS,
        BATCH,
        SEED,
    );
    let naive = nopfs_simulator::run(&scenario, nopfs_simulator::PolicyId::Naive)
        .expect("naive runs")
        .execution_time;
    let nopfs_ssd = nopfs_simulator::run(&scenario, nopfs_simulator::PolicyId::NoPfs)
        .expect("NoPFS runs")
        .execution_time;
    let mut flat = scenario.clone();
    flat.system.classes[0].capacity = 0;
    flat.system.classes[1].capacity = 0;
    let nopfs_flat = nopfs_simulator::run(&flat, nopfs_simulator::PolicyId::NoPfs)
        .expect("flat NoPFS runs")
        .execution_time;
    println!("naive (PFS only)     : {naive:>8.3} s");
    println!("NoPFS, no cache tiers: {nopfs_flat:>8.3} s");
    println!("NoPFS, RAM+SSD tiers : {nopfs_ssd:>8.3} s");
    assert!(
        nopfs_ssd < naive,
        "SSD-tier NoPFS ({nopfs_ssd}) must beat PFS-only naive ({naive})"
    );
    assert!(
        nopfs_ssd <= nopfs_flat * 1.02,
        "a deeper hierarchy must never lose to a flat one \
         ({nopfs_ssd} vs {nopfs_flat})"
    );
}

/// Leg 3: thread runtime — real bytes through the tiered fetch path.
fn runtime_leg() {
    report::section("thread runtime: tiered NoPFS job vs naive loader, wall clock");
    // Every paced wait stays above the sleep threshold at this scale,
    // so small CI machines measure PFS pacing, not CPU contention.
    let scale = TimeScale::new(0.5);
    let sys = tiered_system();
    let sizes = Arc::new(vec![SAMPLE_BYTES; SAMPLES as usize]);

    // NoPFS on the tiered hierarchy.
    let config = JobConfig::new(SEED, EPOCHS, BATCH, sys.clone(), scale);
    let job = Job::new(config.clone(), Arc::clone(&sizes));
    let pfs = Pfs::in_memory(sys.pfs_read.clone(), scale);
    materialize(&pfs);
    let t0 = Instant::now();
    let streams = Mutex::new(Vec::new());
    job.run_with(&pfs, |_| {
        |w: &mut WorkerHandle| {
            let mut got = Vec::new();
            while let Some((id, data)) = w.next_sample() {
                assert_eq!(data.len() as u64, SAMPLE_BYTES);
                got.push(id);
            }
            let row = (w.rank(), got, w.tier_stats());
            streams.lock().expect("no rank panicked").push(row);
        }
    });
    let nopfs_wall = t0.elapsed().as_secs_f64();
    let mut streams = streams.into_inner().expect("no rank panicked");
    streams.sort_by_key(|(rank, _, _)| *rank);

    // Stream equality: the tiered run delivered exactly the clairvoyant
    // access streams — the flat-PFS baseline's untransformed order.
    let spec = config.shuffle_spec(SAMPLES);
    for (rank, got, _) in &streams {
        let expect = AccessStream::new(spec, *rank, EPOCHS).materialize();
        assert_eq!(
            got, &expect,
            "rank {rank}: tiered delivery deviated from the clairvoyant stream"
        );
    }

    // The naive loader on an identical, private filesystem.
    let naive_pfs = Pfs::in_memory(sys.pfs_read.clone(), scale);
    materialize(&naive_pfs);
    let t0 = Instant::now();
    let counts = run_policy(
        PolicyId::Naive,
        config,
        Arc::clone(&sizes),
        &naive_pfs,
        |l| {
            let mut n = 0u64;
            while l.next_sample().is_some() {
                n += 1;
            }
            n
        },
    )
    .expect("naive runs")
    .per_worker;
    let naive_wall = t0.elapsed().as_secs_f64();
    assert_eq!(counts.iter().sum::<u64>(), SAMPLES * EPOCHS);

    println!("naive wall  : {naive_wall:>7.2} s");
    println!("NoPFS wall  : {nopfs_wall:>7.2} s  (RAM+SSD tiers over the same t(γ))");
    let (_, _, tiers) = &streams[0];
    for s in tiers {
        println!(
            "  rank 0 {:<6} hits {:>5}  fills {:>5}  used {:>9} B",
            s.name, s.hits, s.fills, s.used
        );
    }
    assert!(
        nopfs_wall < naive_wall,
        "tiered NoPFS ({nopfs_wall:.2}s) must beat PFS-only naive ({naive_wall:.2}s)"
    );
}

fn main() {
    report::banner(
        "Tiers",
        "one DataSource API from worker RAM to the PFS (self-checking smoke)",
    );
    println!(
        "dataset: {} samples x {:.0} KB, {} epochs, batch {}",
        SAMPLES,
        SAMPLE_BYTES as f64 / 1e3,
        EPOCHS,
        BATCH
    );
    stack_leg();
    simulator_leg();
    runtime_leg();
    println!();
    println!("all tier checks passed: byte-transparent hierarchy, SSD tier beats");
    println!("PFS-only naive, and stream equality holds vs the flat baseline.");
}
