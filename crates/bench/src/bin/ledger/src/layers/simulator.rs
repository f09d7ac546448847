//! `nopfs_simulator`: how fast the simulator walks this workload's
//! scenario, and how far its steady epoch lies from the runtime's — the
//! calibration gap of ROADMAP item 4 as one number. On the unpaced
//! workloads the simulator models none of the software cost that sets
//! their epoch time, so the error there is close to 1 by construction;
//! `paced_contended` is the workload it is meant for.

use super::Replayer;
use crate::fixture::Fixture;
use crate::report::Metric;
use crate::EndToEnd;
use nopfs_policy::PolicyId;
use nopfs_simulator::Scenario;

/// `runtime` summarises the traced pass of this run.
pub fn replay(fixture: &Fixture, r: &mut Replayer, runtime: &EndToEnd) -> Vec<Metric> {
    let w = &fixture.workload;
    let config = fixture.job_config(None);
    let scenario = |epochs: u64| {
        let mut s = Scenario::new(
            w.name,
            config.system.clone(),
            fixture.sizes.to_vec(),
            epochs,
            w.batch,
            fixture.seed,
        );
        s.drop_last = true;
        s
    };
    let simulate = |epochs: u64| {
        nopfs_simulator::run(&scenario(epochs), PolicyId::NoPfs)
            .expect("the simulator supports NoPFS on every scenario")
            .execution_time
    };
    // One epoch, then the round's epochs: the difference is the steady
    // part, free of the cold first epoch.
    let (wall_s, (cold, whole)) =
        r.once("replay.simulator.run", || (simulate(1), simulate(w.epochs)));
    let accesses = (1 + w.epochs) * scenario(1).shuffle_spec().samples_per_epoch();
    let sim_epoch = if w.timed.start == 0 {
        cold // the workload times its first epoch
    } else {
        (whole - cold) / (w.epochs - 1) as f64
    };
    let runtime_epoch = w
        .scale()
        .to_model(std::time::Duration::from_secs_f64(runtime.steady_epoch_s));
    vec![
        Metric::new("simulator.accesses_per_s", "1/s", accesses as f64 / wall_s),
        Metric::new(
            "simulator.epoch_error",
            "ratio",
            (sim_epoch - runtime_epoch).abs() / runtime_epoch,
        ),
    ]
}
