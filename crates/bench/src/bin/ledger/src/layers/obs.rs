//! `nopfs_obs`: what the handles on the fetch path cost, and what
//! tracing costs end to end. → `cpu_us_per_sample` on `ram_hit`.

use super::{Replayer, BATCH};
use crate::report::Metric;
use crate::EndToEnd;
use nopfs_obs::{Registry, Tracer};
use std::time::Instant;

/// Counter updates on the path of one locally served sample (fetch
/// counter, tier hit and bytes, staging push and pop, consumed, stall),
/// for `ledger.explained_share`.
pub const HANDLES_PER_SAMPLE: f64 = 7.0;

/// `reference` and `with_tracing` summarise the untraced and the traced
/// pass of this run.
pub fn replay(r: &mut Replayer, reference: &EndToEnd, with_tracing: &EndToEnd) -> Vec<Metric> {
    let registry = Registry::new();
    let counter = registry.counter("ledger.replay.counter");
    let counter_ns = r.ns_per_call(
        "replay.obs.counter_inc",
        BATCH,
        || {
            for _ in 0..BATCH {
                counter.inc();
            }
        },
        || {},
    );
    let histogram = registry.histogram("ledger.replay.histogram");
    let mut value = 1u64;
    let histogram_ns = r.ns_per_call(
        "replay.obs.histogram_record",
        BATCH,
        || {
            for _ in 0..BATCH {
                histogram.record(value);
                value = value
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1)
                    >> 40;
            }
        },
        || {},
    );
    std::hint::black_box((counter.get(), histogram.snapshot()));

    // The ring is bounded, so a long replay overwrites old spans; that
    // is the steady state of a traced job too.
    let tracer = Tracer::new();
    let span_ns = r.ns_per_call(
        "replay.obs.span",
        BATCH,
        || {
            for _ in 0..BATCH {
                tracer.complete("fetch", "ledger", Instant::now(), Vec::new());
            }
        },
        || {},
    );

    vec![
        Metric::new("obs.counter_inc_ns", "ns", counter_ns),
        Metric::new("obs.histogram_record_ns", "ns", histogram_ns),
        Metric::new("obs.span_ns", "ns", span_ns),
        Metric::new(
            "obs.tracing_overhead_share",
            "ratio",
            1.0 - with_tracing.samples_per_s / reference.samples_per_s,
        ),
    ]
}
