//! `nopfs_core`: what building a job costs, and — from the two passes —
//! which layer did the work and where the consumer waited.
//! `job_new_ms`, `launch_ms` → `setup_s`; `stall_share` → `bound_gap_us`
//! on `paced_contended`; `allocs_per_sample`, `ctx_switches_per_sample`
//! → `cpu_us_per_sample` on `ram_hit` and `peer_remote`. The shares say
//! whether a workload loads the layer it was built for.

use super::Replayer;
use crate::drive::Pass;
use crate::fixture::Fixture;
use crate::report::Metric;
use crate::stats::{beyond_one_in, describe, median};
use crate::EndToEnd;
use nopfs_core::Job;

/// Job constructions timed.
const REPS: usize = 3;

/// `reference` is the untraced pass's summary, `traced` the traced pass.
pub fn replay(
    view: &Fixture,
    r: &mut Replayer,
    reference: &EndToEnd,
    traced: &Pass,
) -> Vec<Metric> {
    let mut new_s = Vec::new();
    let mut launch_s = Vec::new();
    for _ in 0..REPS {
        let (s, job) = r.once("replay.core.job_new", || {
            Job::new(view.job_config(None), view.sizes.clone())
        });
        new_s.push(s);
        let (s, workers) = r.once("replay.core.launch", || job.launch_workers(&view.pfs));
        launch_s.push(s);
        // Peer-coupled workers barrier in shutdown: one thread each.
        std::thread::scope(|s| {
            for mut worker in workers {
                s.spawn(move || worker.shutdown());
            }
        });
    }

    let fetches = traced.fetches();
    let share = |n: u64| n as f64 / fetches.total().max(1) as f64;
    let calls_us: Vec<f64> = traced.call_ns().iter().map(|ns| ns / 1e3).collect();
    println!("# core.next_batch: {}", describe(&calls_us, "us"));
    vec![
        Metric::new("core.job_new_ms", "ms", median(&new_s) * 1e3),
        Metric::new("core.launch_ms", "ms", median(&launch_s) * 1e3),
        Metric::new("core.first_epoch_s", "s", median(&traced.first_epoch_s())),
        Metric::new("core.local_share", "ratio", share(fetches.local)),
        Metric::new("core.remote_share", "ratio", share(fetches.remote)),
        Metric::new("core.pfs_share", "ratio", share(fetches.pfs)),
        Metric::new(
            "core.remote_useful_ratio",
            "ratio",
            fetches.remote as f64 / (fetches.remote + fetches.false_positives).max(1) as f64,
        ),
        Metric::new(
            "core.stall_share",
            "ratio",
            fetches.stall_s / fetches.consumer_wall_s,
        ),
        Metric::new("core.next_batch_p50_us", "us", median(&calls_us)),
        Metric::new(
            "core.next_batch_p99_us",
            "us",
            beyond_one_in(&calls_us, 100),
        ),
        Metric::new(
            "core.allocs_per_sample",
            "count",
            reference.allocs_per_sample,
        ),
        Metric::new(
            "core.ctx_switches_per_sample",
            "count",
            reference.ctx_switches_per_sample,
        ),
    ]
}
