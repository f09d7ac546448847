//! Integration-level properties of the simulator: the qualitative
//! orderings the paper's Fig. 8 rests on, plus property-based checks of
//! the clairvoyance invariants feeding it.

use nopfs::clairvoyance::frequency::FrequencyTable;
use nopfs::clairvoyance::sampler::ShuffleSpec;
use nopfs::perfmodel::presets::{fig8_small_cluster, thrashing_pfs_curve};
use nopfs::simulator::{run, PolicyId, Scenario, StorageRegime};
use nopfs::util::units::MB;
use proptest::prelude::*;

fn paper_like_scenario(f: usize, epochs: u64) -> Scenario {
    let mut sys = fig8_small_cluster();
    sys.pfs_read = thrashing_pfs_curve(32.0, 272.0 * MB);
    sys.classes[0].capacity = (f as u64) * 100_000 / 8; // RAM: 1/8 of S
    sys.classes[1].capacity = (f as u64) * 100_000 / 2; // SSD: 1/2 of S
    sys.staging.capacity = 2_000_000;
    Scenario::new("prop", sys, vec![100_000u64; f], epochs, 16, 0x51AB)
}

/// The paper's headline simulation ordering, on a D < S < N*D scenario.
#[test]
fn fig8_qualitative_ordering_holds() {
    let s = paper_like_scenario(4_000, 4);
    assert_eq!(s.regime(), StorageRegime::FitsInCluster);
    let time = |p: PolicyId| run(&s, p).expect("supported").execution_time;
    let lb = time(PolicyId::Perfect);
    let nopfs = time(PolicyId::NoPfs);
    let staging = time(PolicyId::StagingBuffer);
    let naive = time(PolicyId::Naive);
    let locality = time(PolicyId::LocalityAware);
    // Lower bound <= NoPFS <= every real competitor <= Naive.
    assert!(lb <= nopfs * 1.0001);
    // Both run at the compute rate here and differ only in their first
    // milliseconds: an origin lane's first fetch is charged its whole
    // latency, which the p_0 pipeline model amortises over its threads
    // from the first sample on.
    assert!(
        nopfs <= staging * 1.002,
        "NoPFS {nopfs} vs StagingBuffer {staging}"
    );
    assert!(
        nopfs <= locality * 1.01,
        "NoPFS {nopfs} vs LocalityAware {locality}"
    );
    assert!(staging < naive, "StagingBuffer {staging} vs Naive {naive}");
    // And NoPFS lands near the bound, the paper's central claim.
    assert!(
        nopfs < lb * 1.25,
        "NoPFS {nopfs} too far from lower bound {lb}"
    );
}

/// LBANN's documented limitation, surfaced exactly at the boundary.
#[test]
fn lbann_supported_iff_dataset_fits_memory() {
    let mut s = paper_like_scenario(1_000, 2);
    // Aggregate RAM: 4 workers x 12.5 MB = 50 MB; dataset 100 MB.
    assert!(run(&s, PolicyId::LbannDynamic).is_err());
    s.system.classes[0].capacity = 26_000_000; // aggregate 104 MB
    assert!(run(&s, PolicyId::LbannDynamic).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every epoch of every policy-transformed run still consumes the
    /// advertised number of samples (no policy silently drops work),
    /// and execution time grows with epochs.
    #[test]
    fn sim_fetch_counts_and_monotonicity(
        f in 200usize..800,
        epochs in 1u64..4,
        seed in 0u64..u64::MAX,
    ) {
        let mut s = paper_like_scenario(f, epochs);
        s.seed = seed;
        for policy in [PolicyId::NoPfs, PolicyId::StagingBuffer, PolicyId::LocalityAware] {
            let r = run(&s, policy).expect("supported");
            let expected: u64 = (0..4)
                .map(|w| s.shuffle_spec().worker_epoch_len(w) * epochs)
                .sum();
            prop_assert_eq!(r.fetch_counts.iter().sum::<u64>(), expected);
            prop_assert!(r.execution_time > 0.0);
        }
    }

    /// Clairvoyance invariant at integration level: per-epoch access is
    /// exactly-once across workers for any (seed, F, N, B).
    #[test]
    fn exactly_once_per_epoch(
        seed in 0u64..u64::MAX,
        f in 1u64..500,
        n in 1usize..6,
        b in 1usize..9,
    ) {
        let spec = ShuffleSpec::new(seed, f, n, b, false);
        let table = FrequencyTable::build(&spec, 3);
        for k in 0..f {
            prop_assert_eq!(table.total_frequency(k), 3);
        }
    }

    /// Lemma 1 at integration level: for every sample the min/max
    /// worker frequencies bracket the mean.
    #[test]
    fn access_imbalance_brackets_mean(
        seed in 0u64..u64::MAX,
        f in 50u64..300,
    ) {
        let n = 4usize;
        let epochs = 8u64;
        let spec = ShuffleSpec::new(seed, f, n, 4, false);
        let table = FrequencyTable::build(&spec, epochs);
        let mean = epochs as f64 / n as f64;
        for k in 0..f {
            let counts: Vec<u16> = (0..n).map(|w| table.frequency(w, k)).collect();
            let min = *counts.iter().min().expect("non-empty") as f64;
            let max = *counts.iter().max().expect("non-empty") as f64;
            prop_assert!(min <= mean + 1e-9);
            prop_assert!(max >= mean - 1e-9);
        }
    }
}
