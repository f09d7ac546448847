//! Building the worker-local storage hierarchy as a [`TierStack`].
//!
//! Every runtime worker — NoPFS's and the core-backed baselines' —
//! materializes the same hierarchy from a [`SystemSpec`]: one
//! rate-throttled in-memory tier per storage class (Table 2's
//! `d_j`/`r_j(p)`/`w_j(p)` rows, fastest first) bottoming out in the
//! injected PFS handle as the origin. Tier index therefore equals
//! storage-class index everywhere, and the origin is always
//! [`TierStack::origin_index`].
//!
//! Promotion is [`PromotePolicy::Never`]: the clairvoyant runtime plans
//! every fill itself (frequency-ranked placement, first-touch cores),
//! so the stack's read-path promotion machinery stays off and fills go
//! through [`TierStack::fill_many`] as pinned residents: a loader fills
//! a chunk of samples with one call per class, which charges the
//! class's write bucket once for the chunk.
//!
//! Every loader also reads its origin the same way: through
//! [`origin_read_retry`] and its vectored twin [`origin_read_many_retry`],
//! the loader layer's one retry loop, over the stack's one tier sweep
//! ([`TierStack::read_tier_many`] at [`TierStack::origin_index`]). A
//! vectored origin read is one batch at the PFS: one reader
//! registration and one `t(γ)` charge.

use crate::stats::StatsCollector;
use crate::SampleId;
use bytes::Bytes;
use nopfs_obs::Registry;
use nopfs_perfmodel::SystemSpec;
use nopfs_storage::{DataSource, PromotePolicy, SourceError, TierSpec, TierStack};
use nopfs_util::timing::TimeScale;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Builds the per-worker hierarchy: one throttled tier per storage
/// class of `sys` (fastest first) over `origin` (the injected PFS).
/// Each class maps to a [`TierSpec`] rated at its configured thread
/// count (`r_j(p_j)`/`w_j(p_j)`).
pub fn class_tier_stack(
    sys: &SystemSpec,
    scale: TimeScale,
    origin: Arc<dyn DataSource>,
) -> TierStack {
    class_tier_stack_in_registry(sys, scale, origin, &Registry::new())
}

/// [`class_tier_stack`] with the `tier.*` counters registered in
/// `registry` (with its scope labels) — the runtime passes each
/// worker's rank-scoped registry here so per-tier hit/miss/latency
/// metrics surface in live telemetry.
pub fn class_tier_stack_in_registry(
    sys: &SystemSpec,
    scale: TimeScale,
    origin: Arc<dyn DataSource>,
    registry: &Registry,
) -> TierStack {
    let mut sources: Vec<Arc<dyn DataSource>> = sys
        .classes
        .iter()
        .map(|class| {
            let p = f64::from(class.prefetch_threads.max(1));
            TierSpec::new(
                class.name.clone(),
                class.capacity,
                class.read.at(p),
                class.write.at(p),
            )
            .build(scale)
        })
        .collect();
    sources.push(origin);
    TierStack::new(sources, PromotePolicy::Never, registry)
}

/// Reads `id` from the hierarchy's origin (a length-1 sweep of
/// [`TierStack::read_tier_many`] at [`TierStack::origin_index`]) with
/// patient, bounded retries.
///
/// The origin may be a resilient cloud chain whose circuit breaker
/// fails reads fast with [`SourceError::Unavailable`] while a brownout
/// lasts; those windows *pass*, so this loop waits them out with a
/// small capped backoff instead of escalating. The wall-clock budget
/// keeps liveness: a loader that cannot make progress for a minute is
/// broken, not browned out. Every failed attempt counts one
/// `pfs_errors` in `stats`.
///
/// # Panics
/// Panics when the object is missing ([`SourceError::NotFound`] — the
/// dataset itself is broken, which no loader policy can paper over) or
/// when reads are still failing after the wall-clock budget.
pub fn origin_read_retry(tiers: &TierStack, id: SampleId, stats: &StatsCollector) -> Bytes {
    settle(tiers, id, tiers.read_tier(tiers.origin_index(), id), stats)
}

/// Vectored [`origin_read_retry`]: the whole group goes down to the
/// origin as **one** [`TierStack::read_tier_many`] sweep (so a
/// coalescing origin merges adjacent ids into fewer requests and the
/// PFS counts the batch as one reader stream), then, once the sweep has
/// returned, any id that failed transiently falls back to the patient
/// single-read retry loop. Returns the bytes in input order.
///
/// # Panics
/// Panics when an object is missing or still failing after the retry
/// budget, exactly like [`origin_read_retry`].
pub fn origin_read_many_retry(
    tiers: &TierStack,
    ids: &[SampleId],
    stats: &StatsCollector,
) -> Vec<Bytes> {
    let mut first = Vec::with_capacity(ids.len());
    tiers.read_tier_many(tiers.origin_index(), ids, |r| first.push(r));
    first
        .into_iter()
        .zip(ids)
        .map(|(r, &id)| settle(tiers, id, r, stats))
        .collect()
}

/// The retry loop behind both: `first` is the outcome of the attempt
/// already made.
fn settle(
    tiers: &TierStack,
    id: SampleId,
    first: Result<Bytes, SourceError>,
    stats: &StatsCollector,
) -> Bytes {
    const BUDGET: Duration = Duration::from_secs(60);
    let start = Instant::now();
    let mut attempt = 0u32;
    let mut result = first;
    loop {
        match result {
            Ok(data) => return data,
            Err(SourceError::NotFound(_)) => {
                panic!("sample {id} missing from the PFS: dataset not materialized?")
            }
            Err(e) => {
                stats.count_pfs_error();
                if start.elapsed() >= BUDGET {
                    panic!("origin read of sample {id} still failing after {BUDGET:?}: {e}");
                }
                attempt += 1;
                // Escalate 100µs → 2ms, then hold: long enough to drain
                // transient bursts, short enough that breaker reopening
                // after a brownout is observed almost immediately.
                let us = (50u64 << attempt.min(10)).min(2_000);
                std::thread::sleep(Duration::from_micros(us));
            }
        }
        result = tiers.read_tier(tiers.origin_index(), id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use nopfs_perfmodel::presets::fig8_small_cluster;
    use nopfs_pfs::Pfs;

    #[test]
    fn stack_mirrors_the_class_hierarchy() {
        let sys = fig8_small_cluster();
        let pfs = Pfs::in_memory(sys.pfs_read.clone(), TimeScale::new(1e-6));
        pfs.put(3, Bytes::from_static(b"sample"));
        let stack = class_tier_stack(&sys, TimeScale::new(1e-6), Arc::new(pfs.clone()));
        assert_eq!(stack.num_tiers(), sys.classes.len() + 1);
        for (j, class) in sys.classes.iter().enumerate() {
            assert_eq!(stack.tier_name(j), class.name);
            assert_eq!(stack.source(j).capacity(), Some(class.capacity));
        }
        assert_eq!(stack.tier_name(stack.origin_index()), "pfs");
        // Reads bottom out in the injected PFS...
        assert_eq!(stack.read(3).unwrap(), Bytes::from_static(b"sample"));
        assert_eq!(pfs.stats().reads, 1);
        // ...and promotion stays off: fills are planned externally.
        assert_eq!(stack.locate(3), None);
        stack.fill(0, 3, Bytes::from_static(b"sample")).unwrap();
        assert_eq!(stack.locate(3), Some(0));
        let before = pfs.stats().reads;
        stack.read(3).unwrap();
        assert_eq!(pfs.stats().reads, before, "cached read skips the PFS");
    }
}
