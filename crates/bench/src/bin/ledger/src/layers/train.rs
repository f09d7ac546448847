//! `nopfs_train`: the floor under `bound_gap_us`. The ledger's consumer
//! loop — `TrainLoopConfig`'s compute wait and gradient allreduce, the
//! oracle — run over the `Perfect` policy, whose loader hands out
//! pregenerated samples and does no I/O: what is left is what the loop
//! itself costs per sample on the unpaced workloads.

use super::Replayer;
use crate::drive::{Pass, Round};
use crate::fixture::Fixture;
use crate::oracle::Verdict;
use crate::report::Metric;
use crate::EndToEnd;
use nopfs_policy::PolicyId;

pub fn replay(view: &Fixture, r: &mut Replayer) -> (Verdict, Vec<Metric>) {
    let round = Round {
        policy: PolicyId::Perfect,
        // `Perfect` synthesises random payloads of the right length;
        // order and length are still checked.
        check_payload: false,
        ..Round::nopfs(view)
    };
    let (_, pass) = r.once("replay.train.loop_floor", || Pass::run(&round, 0.0, None));
    let floor = EndToEnd::of(view, &pass);
    (
        pass.verdict,
        vec![Metric::new(
            "train.loop_floor_us",
            "us/sample",
            floor.bound_gap_us,
        )],
    )
}
