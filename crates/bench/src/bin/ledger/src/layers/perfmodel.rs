//! `nopfs_perfmodel`: the lower bound every epoch time is measured
//! against.

use crate::fixture::Fixture;
use nopfs_core::SampleId;
use nopfs_perfmodel::equations::ConsumeAccumulator;
use nopfs_perfmodel::SystemSpec;

/// The model's no-stall time of one rank's epoch, model seconds: the
/// consumption recurrence with every read free, which leaves
/// `Σ size/c`.
pub fn bound_s(sys: &SystemSpec, sizes: &[u64], ids: &[SampleId]) -> f64 {
    let mut acc = ConsumeAccumulator::new(sys.compute, sys.staging.threads);
    for &id in ids {
        acc.push(0.0, sizes[id as usize]);
    }
    acc.finish()
}

/// The bound of every epoch of a round, **wall** seconds: the slowest
/// rank's `bound_s`, mapped through the workload's time scale.
pub fn epoch_bounds(fixture: &Fixture) -> Vec<f64> {
    let sys = fixture.workload.system();
    let epoch_len = fixture.epoch_len() as usize;
    (0..fixture.workload.epochs as usize)
        .map(|epoch| {
            let model_s = (0..fixture.workload.ranks)
                .map(|rank| fixture.expected_stream(rank))
                .map(|s| {
                    bound_s(
                        &sys,
                        &fixture.sizes,
                        &s[epoch * epoch_len..(epoch + 1) * epoch_len],
                    )
                })
                .fold(0.0, f64::max);
            model_s * fixture.workload.scale().factor()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::tests::tiny;

    #[test]
    fn the_bound_is_bytes_over_compute() {
        let mut sys = tiny(1).system();
        sys.compute = 1_000.0;
        // 300 + 200 + 500 bytes at 1000 B/s.
        assert_eq!(bound_s(&sys, &[100, 200, 300, 500], &[2, 1, 3]), 1.0);
        assert_eq!(bound_s(&sys, &[100], &[]), 0.0);
    }

    #[test]
    fn epoch_bounds_take_the_slowest_rank_in_wall_time() {
        let f = Fixture::new(&tiny(2), 11);
        let bounds = epoch_bounds(&f);
        assert_eq!(bounds.len(), 3);
        let sys = f.workload.system();
        let by_hand = (0..2)
            .map(|rank| {
                let ids = &f.expected_stream(rank)[..f.epoch_len() as usize];
                ids.iter().map(|&k| f.sizes[k as usize] as f64).sum::<f64>() / sys.compute
            })
            .fold(0.0, f64::max)
            * 1e-6;
        assert!(
            (bounds[0] - by_hand).abs() <= by_hand * 1e-9 + 1e-15,
            "{} vs {by_hand}",
            bounds[0]
        );
    }
}
