//! `nopfs_baselines`: a guard for the runner merge of ROADMAP item 2.
//! `PolicyId::LbannDynamic` goes through `PlanRunner`, the core-driven
//! loader all baselines share; its throughput on three epochs of this
//! workload's dataset should not move when NoPFS's path is optimised,
//! and should hold when the runners are merged.

use super::Replayer;
use crate::drive::{Pass, Round};
use crate::fixture::Fixture;
use crate::oracle::Verdict;
use crate::report::Metric;
use crate::workloads::Workload;
use crate::EndToEnd;
use nopfs_policy::PolicyId;

pub fn replay(view: &Fixture, r: &mut Replayer) -> (Verdict, Vec<Metric>) {
    // The LBANN store needs the dataset to fit aggregate worker RAM.
    let dataset: u64 = view.sizes.iter().sum();
    let roomy = view.variant(Workload {
        ram: dataset,
        epochs: 3,
        timed: 1..3,
        paused: 0..0,
        skip_rounds: 0,
        ..view.workload.clone()
    });
    let round = Round {
        policy: PolicyId::LbannDynamic,
        ..Round::nopfs(&roomy)
    };
    let (_, pass) = r.once("replay.baselines.plan_runner", || {
        Pass::run(&round, 0.0, None)
    });
    let summary = EndToEnd::of(&roomy, &pass);
    (
        pass.verdict,
        vec![Metric::new(
            "baselines.plan_runner_samples_per_s",
            "1/s",
            summary.samples_per_s,
        )],
    )
}
