//! The per-run rate card against its definition: whatever the system,
//! the candidates, the sample size, the contention and the origin's
//! health, [`RateCard::select`] picks what
//! [`select_source_degraded`] picks.

use nopfs_perfmodel::presets::{fig8_small_cluster, lassen_pfs_curve, saturating_pfs_curve};
use nopfs_perfmodel::{Location, SystemSpec, ThroughputCurve};
use nopfs_policy::{select_source_degraded, RateCard};
use proptest::prelude::*;

/// Few distinct rates, so that candidates tie often: a peer's class
/// behind a faster interconnect runs at the local class's rate, a flat
/// PFS read alone at a class's.
const RATES: [f64; 4] = [1e6, 1e7, 1e8, 1e9];

/// A system of `classes` (rate index, threads) cache classes.
fn system(classes: &[(usize, u32)], interconnect: usize, pfs: (usize, usize)) -> SystemSpec {
    let mut sys = fig8_small_cluster();
    let template = sys.classes[0].clone();
    sys.classes = classes
        .iter()
        .map(|&(rate, threads)| {
            let mut class = template.clone();
            class.prefetch_threads = threads;
            class.read = ThroughputCurve::flat(RATES[rate]);
            class
        })
        .collect();
    sys.interconnect = RATES[interconnect];
    sys.pfs_read = match pfs {
        (0, rate) => ThroughputCurve::flat(RATES[rate]),
        (1, rate) => saturating_pfs_curve(RATES[rate], 4.0),
        _ => lassen_pfs_curve(),
    };
    sys.validate();
    sys
}

proptest! {
    #[test]
    fn the_card_picks_what_select_source_degraded_picks(
        classes in prop::collection::vec((0usize..4, 1u32..5), 1..4),
        interconnect in 0usize..4,
        pfs in (0usize..3, 0usize..4),
        sizes in prop::collection::vec(1u64..1_000_000_001, 1..6),
        gammas in prop::collection::vec(1usize..65, 1..4),
    ) {
        let sys = system(&classes, interconnect, pfs);
        let mut card = RateCard::new(&sys);
        let held: Vec<Option<u8>> = std::iter::once(None)
            .chain((0..classes.len() as u8).map(Some))
            .collect();
        for &gamma in &gammas {
            for origin_available in [true, false] {
                card.refresh(&sys, gamma, origin_available);
                for &local in &held {
                    for &remote in &held {
                        for &size in &sizes {
                            prop_assert_eq!(
                                card.select(local, remote, size),
                                select_source_degraded(
                                    &sys, local, remote, size, gamma, origin_available
                                ),
                                "local={:?} remote={:?} {}B γ={} origin_available={}",
                                local, remote, size, gamma, origin_available
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn a_tie_on_the_card_goes_to_the_earlier_candidate() {
    // One class at 1e8 B/s per thread, an interconnect that does not
    // slow it and a flat PFS of the same rate: at γ = 1 all three
    // candidates cost the same.
    let sys = system(&[(2, 1)], 3, (0, 2));
    let mut card = RateCard::new(&sys);
    card.refresh(&sys, 1, true);
    assert_eq!(card.select(Some(0), Some(0), 4_096), Location::Local(0));
    assert_eq!(card.select(None, Some(0), 4_096), Location::Remote(0));
    assert_eq!(card.select(None, None, 4_096), Location::Pfs);
}
