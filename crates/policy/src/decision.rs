//! Harness-independent decision rules.
//!
//! [`select_source`] is *the* NoPFS source-selection code path: both
//! the threaded runtime (`nopfs_core::worker`'s staging fetches) and
//! the discrete-event simulator's NoPFS policy call this one function,
//! so the paper's Fig. 5 "argmin fetch" can never diverge between
//! harnesses. Each harness only differs in how it discovers the
//! *candidates* (live metadata + progress heuristic vs. modelled ready
//! times); what is done with them is shared.

use nopfs_perfmodel::{Location, SystemSpec};

/// NoPFS source selection over an **ordered tier list** (paper Fig. 5,
/// generalized): given every tier believed to hold the sample — local
/// classes, remote holders' classes, the PFS origin — pick the cheapest
/// by modelled fetch time at the observed PFS contention `gamma`.
///
/// Candidates must be ordered fastest-first (the hierarchy's tier
/// order); ties favour the earlier candidate, so a tie between a local
/// tier and the origin resolves toward the faster tier. The origin
/// ([`Location::Pfs`]) always holds everything, so callers append it as
/// the final candidate.
///
/// # Panics
/// Panics on an empty candidate list (no origin = nothing to fall back
/// to — a broken tier stack, not a policy decision).
pub fn select_source_tiered(
    sys: &SystemSpec,
    candidates: &[Location],
    size: u64,
    gamma: usize,
) -> Location {
    sys.fastest_source(candidates, size, gamma)
        .expect("tier candidate list must include the origin")
}

/// Per-candidate fetch-cost estimates (model seconds), in candidate
/// order — the numbers [`select_source_tiered`] takes the argmin of,
/// exposed for reporting and the simulator's cost model.
pub fn tier_costs(
    sys: &SystemSpec,
    candidates: &[Location],
    size: u64,
    gamma: usize,
) -> Vec<(Location, f64)> {
    candidates
        .iter()
        .map(|&loc| (loc, sys.fetch_time(loc, size, gamma)))
        .collect()
}

/// The two-candidate convenience wrapper over
/// [`select_source_tiered`]: the fastest *local* tier holding the
/// sample (if cached) and the fastest remote holder's tier (if any
/// peer is believed to hold it), with the PFS origin appended.
pub fn select_source(
    sys: &SystemSpec,
    local: Option<u8>,
    remote: Option<u8>,
    size: u64,
    gamma: usize,
) -> Location {
    select_source_degraded(sys, local, remote, size, gamma, true)
}

/// Graceful degradation under an unhealthy origin: like
/// [`select_source`], but when `origin_available` is false (an open
/// circuit breaker is failing origin reads fast) the origin is dropped
/// from the candidate list and the fetch steers to peers or local
/// tiers instead of stalling the step loop. With no alternative
/// candidate the origin is still returned — the caller must then wait
/// out the breaker (there is nowhere else the bytes can come from).
pub fn select_source_degraded(
    sys: &SystemSpec,
    local: Option<u8>,
    remote: Option<u8>,
    size: u64,
    gamma: usize,
    origin_available: bool,
) -> Location {
    // At most three candidates, kept on the stack: the runtime makes
    // this call once per staged sample.
    let mut candidates = [Location::Pfs; 3];
    let mut n = 0;
    for loc in [local.map(Location::Local), remote.map(Location::Remote)]
        .into_iter()
        .flatten()
    {
        candidates[n] = loc;
        n += 1;
    }
    if origin_available || n == 0 {
        n += 1; // the slot already holds `Location::Pfs`
    }
    select_source_tiered(sys, &candidates[..n], size, gamma)
}

/// Per-worker PFS share (bytes/s) during bulk staging phases: all `N`
/// workers stream concurrently, so each gets `t(N)/N`. Used to price
/// prestaging phases identically in every harness.
pub fn staging_share(sys: &SystemSpec) -> f64 {
    let n = sys.workers as f64;
    sys.pfs_read.at(n) / n
}

#[cfg(test)]
mod tests {
    use super::*;
    use nopfs_perfmodel::presets::fig8_small_cluster;

    #[test]
    fn prefers_local_ram_when_cached() {
        let sys = fig8_small_cluster();
        let got = select_source(&sys, Some(0), Some(0), 10_000_000, 4);
        assert_eq!(got, Location::Local(0));
    }

    #[test]
    fn prefers_remote_ram_over_local_ssd() {
        // The paper's counterintuitive observation: with a fast network,
        // a peer's RAM beats the local SSD.
        let sys = fig8_small_cluster();
        let got = select_source(&sys, Some(1), Some(0), 10_000_000, 4);
        assert_eq!(got, Location::Remote(0));
    }

    #[test]
    fn falls_back_to_pfs_without_candidates() {
        let sys = fig8_small_cluster();
        assert_eq!(select_source(&sys, None, None, 1_000, 1), Location::Pfs);
    }

    #[test]
    fn is_argmin_of_modelled_fetch_times() {
        // The selection must equal a brute-force argmin over the same
        // candidate set — the contract both harnesses rely on.
        let sys = fig8_small_cluster();
        for local in [None, Some(0u8), Some(1u8)] {
            for remote in [None, Some(0u8), Some(1u8)] {
                for size in [1_000u64, 1_000_000, 100_000_000] {
                    for gamma in [1usize, 4, 32] {
                        let got = select_source(&sys, local, remote, size, gamma);
                        let mut best = (Location::Pfs, sys.fetch_pfs(size, gamma));
                        if let Some(c) = remote {
                            let t = sys.fetch_remote(c, size);
                            if t <= best.1 {
                                best = (Location::Remote(c), t);
                            }
                        }
                        if let Some(c) = local {
                            let t = sys.fetch_local(c, size);
                            if t <= best.1 {
                                best = (Location::Local(c), t);
                            }
                        }
                        assert_eq!(
                            got, best.0,
                            "local={local:?} remote={remote:?} {size}B γ={gamma}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tiered_selection_equals_wrapped_selection() {
        // The generalized entry point and the {local, remote, PFS}
        // wrapper must agree wherever both apply.
        let sys = fig8_small_cluster();
        for local in [None, Some(0u8), Some(1u8)] {
            for remote in [None, Some(0u8), Some(1u8)] {
                for size in [1_000u64, 10_000_000] {
                    for gamma in [1usize, 8] {
                        let mut cands = Vec::new();
                        if let Some(c) = local {
                            cands.push(Location::Local(c));
                        }
                        if let Some(c) = remote {
                            cands.push(Location::Remote(c));
                        }
                        cands.push(Location::Pfs);
                        assert_eq!(
                            select_source_tiered(&sys, &cands, size, gamma),
                            select_source(&sys, local, remote, size, gamma),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tier_costs_match_the_argmin() {
        let sys = fig8_small_cluster();
        let cands = [
            Location::Local(0),
            Location::Local(1),
            Location::Remote(0),
            Location::Pfs,
        ];
        let costs = tier_costs(&sys, &cands, 5_000_000, 4);
        assert_eq!(costs.len(), 4);
        let best = costs
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(best, select_source_tiered(&sys, &cands, 5_000_000, 4));
        // Costs are the model's fetch times, in candidate order.
        for (loc, t) in costs {
            assert!((t - sys.fetch_time(loc, 5_000_000, 4)).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "origin")]
    fn empty_candidate_list_is_rejected() {
        select_source_tiered(&fig8_small_cluster(), &[], 1, 1);
    }

    #[test]
    fn degraded_selection_steers_around_an_unavailable_origin() {
        let sys = fig8_small_cluster();
        // Healthy origin: identical to the plain selection.
        for local in [None, Some(0u8)] {
            for remote in [None, Some(0u8)] {
                assert_eq!(
                    select_source_degraded(&sys, local, remote, 1_000, 4, true),
                    select_source(&sys, local, remote, 1_000, 4),
                );
            }
        }
        // Unavailable origin with alternatives: the origin never wins,
        // even for a huge sample at heavy contention where it would.
        let got = select_source_degraded(&sys, Some(1), None, 100_000_000, 64, false);
        assert_eq!(got, Location::Local(1));
        let got = select_source_degraded(&sys, None, Some(1), 100_000_000, 64, false);
        assert_eq!(got, Location::Remote(1));
        // Unavailable origin, no alternatives: nowhere else to go.
        assert_eq!(
            select_source_degraded(&sys, None, None, 1_000, 4, false),
            Location::Pfs
        );
    }

    #[test]
    fn staging_share_splits_aggregate_by_workers() {
        let sys = fig8_small_cluster();
        let share = staging_share(&sys);
        assert!((share - sys.pfs_read.at(4.0) / 4.0).abs() < 1e-9);
    }
}
