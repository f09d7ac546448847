//! Storage substrates for the NoPFS runtime (paper Sec. 5.2.2).
//!
//! The C++ NoPFS core is built from a staging buffer ("filled in a
//! circular manner", shared with the framework via a producer/consumer
//! queue), generic storage backends ("filesystem- and memory-based …
//! sufficient to support most storage classes"), and a metadata store
//! ("a catalog of locally cached samples"). This crate reproduces each:
//!
//! - [`staging::StagingBuffer`] — a byte-capacity-bounded FIFO of
//!   samples with blocking produce/consume, the boundary between
//!   prefetcher threads and the training loop.
//! - [`backend`] — the [`backend::StorageBackend`] trait with memory
//!   and filesystem implementations, plus throughput throttles that
//!   make a RAM-backed store behave like the `r_j(p)`/`w_j(p)` curves
//!   of whatever device it models.
//! - [`metadata::MetadataStore`] — the thread-safe local cache catalog.
//! - [`tier`] — the tiered data-source hierarchy: the [`tier::DataSource`]
//!   trait unifying every storage level (these backends, the synthetic
//!   PFS, anything colder) and [`tier::TierStack`], the single fetch
//!   entry point with per-tier statistics and promotion-on-miss.
//! - [`fault`] — the retry schedule: [`fault::RetryPolicy`] is the
//!   seeded, capped, full-jitter exponential backoff the resilience
//!   layer retries transient errors with. The runtime's injected read
//!   errors live in the PFS, not here (`nopfs_policy::ReadErrors`).
//! - [`objectstore`] — the cloud origin tier:
//!   [`objectstore::ObjectStoreBackend`] charges S3-like request
//!   economics (latency floor, parallelism-dependent throughput,
//!   coalescing) under the workspace's one cloud failure vocabulary,
//!   `nopfs_perfmodel::CloudFaults` (seeded spikes, throttles,
//!   brownouts).
//! - [`shard`] — [`shard::ShardedMap`], the sharded dense slot table
//!   behind every structure the fetch hot path touches: readers of
//!   different samples never contend on one lock word, and a hit is a
//!   page-directory probe plus one slot load.
//! - [`resilience`] — the full failure domain over any source:
//!   [`resilience::ResilientSource`] composes a circuit breaker,
//!   taxonomy-aware retry and hedged requests, counting
//!   [`resilience::ResilienceStats`] next to the per-tier
//!   [`tier::TierStats`]. It is the workspace's one retrying source:
//!   [`resilience::ResilienceConfig::retry_only`] is the plain retry.
//!   Its decisions are [`resilience::ResilienceCore`]'s, which the
//!   simulator's cloud model runs too.

pub mod backend;
pub mod fault;
pub mod metadata;
pub mod objectstore;
pub mod reorder;
pub mod resilience;
pub mod shard;
pub mod staging;
pub mod tier;

pub use backend::{FsBackend, MemoryBackend, StorageBackend, ThrottledBackend};
pub use fault::RetryPolicy;
pub use metadata::MetadataStore;
pub use objectstore::{ObjectStoreBackend, ObjectStoreConfig, ObjectStoreStats};
pub use reorder::ReorderStage;
pub use resilience::{
    BreakerConfig, BreakerState, CircuitBreaker, HedgeConfig, ResilienceConfig, ResilienceCore,
    ResilienceStats, ResilientSource,
};
pub use shard::{ShardedMap, SHARDS};
pub use staging::{ProducerGuard, ProducerLost, StagingBuffer, StagingStats};
pub use tier::{
    build_stack, DataSource, ErrorClass, PromotePolicy, SourceError, SourceHealth, TierSpec,
    TierStack, TierStats,
};

/// Sample identifier (dense index into the dataset).
pub type SampleId = u64;
