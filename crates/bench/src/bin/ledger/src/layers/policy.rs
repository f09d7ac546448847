//! `nopfs_policy`: the argmin source selection every staging fetch
//! makes. Should move `samples_per_s` on `peer_remote`, the one
//! workload with a live remote candidate.

use super::{replay_ids, Replayer};
use crate::fixture::Fixture;
use crate::report::Metric;
use nopfs_clairvoyance::engine::SetupPass;
use nopfs_perfmodel::Location;
use nopfs_policy::decision::select_source_tiered;

pub fn replay(view: &Fixture, r: &mut Replayer) -> Vec<Metric> {
    let w = &view.workload;
    let config = view.job_config(None);
    let sys = &config.system;
    let capacities: Vec<Vec<u64>> = (0..w.ranks).map(|_| sys.class_capacities()).collect();
    let placement = SetupPass::new(config.shuffle_spec(w.samples), w.epochs)
        .run()
        .placement(&view.sizes, &capacities);

    // The candidate list rank 0 would weigh for each sample of its
    // stream: its own class, the fastest peer class, the origin.
    let candidates: Vec<(Vec<Location>, u64)> = replay_ids(view)
        .into_iter()
        .map(|k| {
            let mut c = Vec::with_capacity(3);
            c.extend(placement.assignment(0).class_of(k).map(Location::Local));
            let remote = placement
                .holders(k)
                .iter()
                .filter(|(o, _)| *o != 0)
                .map(|&(_, c)| c)
                .min();
            c.extend(remote.map(Location::Remote));
            c.push(Location::Pfs);
            (c, view.sizes[k as usize])
        })
        .collect();

    let ns = r.ns_per_item("replay.policy.select_source", &candidates, |(c, size)| {
        std::hint::black_box(select_source_tiered(sys, c, *size, 1));
    });
    vec![Metric::new("policy.select_source_ns", "ns", ns)]
}
