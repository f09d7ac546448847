//! `nopfs_clairvoyance`: the single setup pass and the placement it
//! feeds. Should move `setup_s` (on `ram_hit` and `cold_fill`, whose
//! E·F is large enough to see); nothing else.

use super::Replayer;
use crate::fixture::Fixture;
use crate::report::Metric;
use crate::stats::median;
use nopfs_clairvoyance::engine::SetupPass;
use nopfs_clairvoyance::sampler::epoch_shuffles_generated;

/// Repetitions of the two whole-dataset calls (each is one "batch").
const REPS: usize = 3;

pub fn replay(view: &Fixture, r: &mut Replayer) -> Vec<Metric> {
    let w = &view.workload;
    let config = view.job_config(None);
    let spec = config.shuffle_spec(w.samples);
    let accesses = (w.epochs * spec.samples_per_epoch()) as f64;
    let capacities: Vec<Vec<u64>> = (0..w.ranks)
        .map(|_| config.system.class_capacities())
        .collect();

    let shuffles_before = epoch_shuffles_generated();
    let mut pass_s = Vec::new();
    let mut placement_s = Vec::new();
    for _ in 0..REPS {
        let (s, artifacts) = r.once("replay.clairvoyance.setup_pass", || {
            SetupPass::new(spec, w.epochs).run()
        });
        pass_s.push(s);
        let (s, placement) = r.once("replay.clairvoyance.placement", || {
            artifacts.placement(&view.sizes, &capacities)
        });
        placement_s.push(s);
        std::hint::black_box(placement);
    }
    let shuffles = (epoch_shuffles_generated() - shuffles_before) as f64 / REPS as f64;

    vec![
        Metric::new("clairvoyance.setup_pass_ms", "ms", median(&pass_s) * 1e3),
        Metric::new(
            "clairvoyance.setup_ns_per_access",
            "ns",
            median(&pass_s) * 1e9 / accesses,
        ),
        Metric::new(
            "clairvoyance.placement_ms",
            "ms",
            median(&placement_s) * 1e3,
        ),
        Metric::new("clairvoyance.shuffle_generations", "count", shuffles),
    ]
}
