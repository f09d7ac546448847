//! The shared metric and trace-event vocabulary.
//!
//! Every harness (threaded runtime, simulator, cluster) reports through
//! these names, so a dashboard or trace viewer sees one schema no
//! matter which produced the data. The stats structs are views over the
//! metric names; DESIGN.md §14 tabulates the event names.

// --- Worker fetch accounting (`WorkerStats` view, Fig. 12) ---

/// Staging fetches served from a local storage class.
pub const WORKER_FETCH_LOCAL: &str = "worker.fetch.local";
/// Staging fetches served from a remote worker's cache.
pub const WORKER_FETCH_REMOTE: &str = "worker.fetch.remote";
/// Staging fetches served from the PFS (or cloud origin).
pub const WORKER_FETCH_PFS: &str = "worker.fetch.pfs";
/// Samples loaded during a non-overlapped prestaging phase.
pub const WORKER_FETCH_PRESTAGE: &str = "worker.fetch.prestage";
/// Remote requests answered `NotCached` (heuristic false positives).
pub const WORKER_FALSE_POSITIVES: &str = "worker.false_positives";
/// Remote fetches skipped by the progress heuristic.
pub const WORKER_HEURISTIC_SKIPS: &str = "worker.heuristic_skips";
/// Origin read errors that were retried.
pub const WORKER_PFS_ERRORS: &str = "worker.pfs_errors";
/// Total nanoseconds the consumer stalled on the staging buffer.
pub const WORKER_STALL_NANOS: &str = "worker.stall_nanos";
/// Samples delivered to the consumer.
pub const WORKER_CONSUMED: &str = "worker.consumed";
/// Per-stall latency distribution (ns).
pub const WORKER_STALL_LATENCY: &str = "worker.stall_latency_ns";

// --- Staging-thread time accounting ---
// Where a worker's staging threads spend their loop: these three and
// `staging.push_blocked_nanos` leave of its wall time only the fetches
// from local tiers (and the CPU work per sample).

/// Nanoseconds staging threads waited for origin bytes: blocked on the
/// look-ahead window for a lane's read, reading the origin themselves,
/// or waiting for another thread's origin read to land in its fill.
pub const WORKER_STAGING_ORIGIN_WAIT_NANOS: &str = "worker.staging.origin_wait_nanos";
/// Samples a staging thread wanted while another thread was reading
/// them from the origin for their fill: each is read from its tier once
/// that fill has landed, not from the origin a second time.
pub const WORKER_STAGING_FILL_WAITS: &str = "worker.staging.fill_waits";
/// Nanoseconds staging threads spent in the modelled `write_time`.
pub const WORKER_STAGING_WRITE_NANOS: &str = "worker.staging.write_nanos";
/// Nanoseconds staging threads waited for peers to answer their fetch
/// frames.
pub const WORKER_STAGING_PEER_WAIT_NANOS: &str = "worker.staging.peer_wait_nanos";
/// Fetch frames sent to peers: one per owner per staged run that takes
/// samples from that owner.
pub const WORKER_PEER_FRAMES: &str = "worker.peer.frames";
/// Worker launches: one per rank each time its threads are started
/// (a `Job` launches each rank once; an `ElasticJob` once per segment).
pub const WORKER_LAUNCHES: &str = "worker.launches";
/// Bytes parked in (or being read into) the origin look-ahead window
/// (gauge).
pub const WORKER_WINDOW_BYTES: &str = "worker.window.bytes";

// --- Tier counters (`TierStats` view, labelled `tier=<name>`) ---

/// Tier read hits.
pub const TIER_HITS: &str = "tier.hits";
/// Tier read misses.
pub const TIER_MISSES: &str = "tier.misses";
/// Bytes served by hits.
pub const TIER_BYTES_READ: &str = "tier.bytes_read";
/// Explicit (pinned) fills.
pub const TIER_FILLS: &str = "tier.fills";
/// Bytes written by fills.
pub const TIER_BYTES_FILLED: &str = "tier.bytes_filled";
/// Read-path promotions into this tier.
pub const TIER_PROMOTIONS: &str = "tier.promotions";
/// Spills demoted into this tier from above.
pub const TIER_DEMOTIONS: &str = "tier.demotions";
/// Entries evicted from this tier.
pub const TIER_EVICTIONS: &str = "tier.evictions";
/// Bytes evicted from this tier.
pub const TIER_BYTES_EVICTED: &str = "tier.bytes_evicted";
/// Read service latency distribution (ns) — one observation per
/// vectored read: mean ns per hit (a single read is a vector of one;
/// a read that hit nothing observes nothing).
pub const TIER_READ_LATENCY: &str = "tier.read_latency_ns";

// --- Resilience counters (`ResilienceStats` view) ---

/// Reads attempted through the resilient source.
pub const RES_READS: &str = "resilience.reads";
/// Retried attempts.
pub const RES_RETRIES: &str = "resilience.retries";
/// Reads that exhausted their retry budget.
pub const RES_EXHAUSTED: &str = "resilience.exhausted";
/// Hedged requests fired.
pub const RES_HEDGES_FIRED: &str = "resilience.hedges_fired";
/// Hedged requests that won the race.
pub const RES_HEDGES_WON: &str = "resilience.hedges_won";
/// Attempts rejected by origin throttling.
pub const RES_THROTTLED: &str = "resilience.throttled";
/// Reads rejected while the breaker was open.
pub const BREAKER_REJECTIONS: &str = "breaker.rejections";
/// Breaker transitions to open.
pub const BREAKER_TO_OPEN: &str = "breaker.to_open";
/// Breaker transitions to half-open.
pub const BREAKER_TO_HALF_OPEN: &str = "breaker.to_half_open";
/// Breaker transitions to closed.
pub const BREAKER_TO_CLOSED: &str = "breaker.to_closed";
/// End-to-end resilient read latency distribution (ns).
pub const RES_READ_LATENCY: &str = "resilience.read_latency_ns";

// --- PFS counters (`PfsStats` view) ---

/// PFS sample reads.
pub const PFS_READS: &str = "pfs.reads";
/// PFS bytes read.
pub const PFS_BYTES_READ: &str = "pfs.bytes_read";
/// PFS sample writes.
pub const PFS_WRITES: &str = "pfs.writes";
/// PFS bytes written.
pub const PFS_BYTES_WRITTEN: &str = "pfs.bytes_written";

// --- Staging counters (`StagingStats` view) ---

/// Samples pushed into the staging buffer.
pub const STAGING_PUSHED: &str = "staging.pushed";
/// Samples popped from the staging buffer.
pub const STAGING_POPPED: &str = "staging.popped";
/// Bytes currently buffered (gauge).
pub const STAGING_USED_BYTES: &str = "staging.used_bytes";
/// Nanoseconds producers slept in a push because the stage was full.
pub const STAGING_PUSH_BLOCKED_NANOS: &str = "staging.push_blocked_nanos";

// --- Simulator (`sim.*`) ---
// Labelled `loc=<staging|local|remote|pfs>`: the fetch source the
// policy selected, priced on the model clock.

/// Modelled fetches by source.
pub const SIM_FETCH: &str = "sim.fetch";

// --- Trace event names (categories: worker/tier/resilience/elastic/sim) ---

/// Span: one staged run of consecutive stream positions, from claim to
/// fetched; args `base` (first position) and `local`/`remote`/`pfs`
/// (how many of the run's samples each source served).
pub const EV_FETCH: &str = "fetch";
/// Span: the consumer stalled waiting on the staging buffer.
pub const EV_STALL: &str = "staging_stall";
/// Instant: circuit breaker opened.
pub const EV_BREAKER_OPEN: &str = "breaker_open";
/// Instant: circuit breaker probing (half-open).
pub const EV_BREAKER_HALF_OPEN: &str = "breaker_half_open";
/// Instant: circuit breaker closed.
pub const EV_BREAKER_CLOSED: &str = "breaker_closed";
/// Instant: a hedged request was fired.
pub const EV_HEDGE_FIRED: &str = "hedge_fired";
/// Instant: membership change triggered an incremental replan.
pub const EV_REPLAN: &str = "replan";
/// Instant: a crash fault tore the worker set down.
pub const EV_CRASH: &str = "crash";
/// Span: the recovery barrier (relaunch to all-ranks-ready).
pub const EV_RECOVERY_BARRIER: &str = "recovery_barrier";
/// Instant: an epoch boundary (simulator and runtime).
pub const EV_EPOCH: &str = "epoch";
