//! NoPFS: the Near-optimal PreFetching System (paper Sec. 5).
//!
//! This crate is the runtime middleware — the paper's primary
//! contribution. Given the PRNG seed that generates the SGD access
//! stream, every worker knows exactly which process will access which
//! sample when, arbitrarily far into the future. NoPFS turns that
//! clairvoyance into an integrated prefetching and caching system:
//!
//! 1. **Staging prefetch in access order** (Rule 1): `p_0` threads fill
//!    a position-ordered staging buffer strictly along the worker's
//!    stream `R`; consumed samples are dropped immediately
//!    (approximating Rules 2–4, since a consumed sample's next use is
//!    at least an epoch away).
//! 2. **Frequency-ranked hierarchical placement**: each worker caches
//!    the samples *it* will access most often in its fastest storage
//!    class, then slower ones — and computes every other worker's
//!    placement locally, with zero metadata traffic.
//! 3. **Performance-model source selection**: each staging fetch goes
//!    to the fastest of {local class, remote worker's cache, PFS} by
//!    the model of `nopfs-perfmodel`, with live PFS contention (γ)
//!    observed from the synthetic PFS.
//! 4. **Progress-heuristic remote fetches**: a remote cache is only
//!    asked for a sample if this worker's own prefetch progress
//!    suggests the remote has cached it; misses fall back to the PFS
//!    and are counted (the paper's false-positive discussion).
//!
//! The user-facing API mirrors the paper's Fig. 7: build a [`Job`] from
//! a [`JobConfig`] and a dataset, then iterate samples per worker
//! through [`WorkerHandle`] — a drop-in replacement for a framework
//! data loader. One job type covers the fault-free run ([`Job::new`])
//! and a run under a fault plan ([`Job::with_plan`]: crashes, churn,
//! planted read errors, a cloud origin); every launch, of either, runs
//! each rank on a window of its planned stream.

mod card;
pub mod config;
pub mod elastic;
pub mod job;
pub mod msg;
pub mod peer;
pub mod stats;
pub mod tiers;
mod window;
pub mod worker;

pub use config::JobConfig;
pub use elastic::{plant_read_errors, ElasticReport};
pub use job::Job;
pub use stats::WorkerStats;
pub use tiers::{class_tier_stack, class_tier_stack_in_registry};
pub use worker::WorkerHandle;

/// Sample identifier (dense index into the dataset).
pub type SampleId = u64;

/// How many samples the next mini-batch should contain, given how many
/// samples were already consumed: up to `batch_size`, never crossing an
/// epoch boundary, zero once `total` is exhausted.
///
/// This is *the* epoch-boundary semantics of the workspace: both
/// [`WorkerHandle::next_batch`] and the `DataLoader` trait's default
/// `next_batch` (in `nopfs_baselines`) delegate here, so batching can
/// never diverge between NoPFS and the baseline loaders.
pub fn next_batch_len(consumed: u64, total: u64, epoch_len: u64, batch_size: usize) -> usize {
    if consumed >= total || epoch_len == 0 {
        return 0;
    }
    let into_epoch = consumed % epoch_len;
    let left_in_epoch = epoch_len - into_epoch;
    (batch_size as u64).min(left_in_epoch).min(total - consumed) as usize
}

#[cfg(test)]
mod batch_tests {
    use super::next_batch_len;

    #[test]
    fn batches_never_cross_epoch_boundaries() {
        // Epoch of 5 with batch 3: 3 + 2 per epoch.
        assert_eq!(next_batch_len(0, 10, 5, 3), 3);
        assert_eq!(next_batch_len(3, 10, 5, 3), 2);
        assert_eq!(next_batch_len(5, 10, 5, 3), 3);
        assert_eq!(next_batch_len(8, 10, 5, 3), 2);
        assert_eq!(next_batch_len(10, 10, 5, 3), 0);
    }

    #[test]
    fn exhaustion_and_degenerate_cases() {
        assert_eq!(next_batch_len(7, 7, 7, 4), 0, "exhausted");
        assert_eq!(next_batch_len(0, 7, 0, 4), 0, "zero epoch length");
        // Total shorter than the epoch claims: cap at what's left.
        assert_eq!(next_batch_len(6, 7, 10, 4), 1);
    }
}
