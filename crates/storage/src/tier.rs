//! The tiered data-source hierarchy: one read/write interface from
//! worker RAM down to the shared parallel filesystem.
//!
//! The paper's placement reasons about a *multi-level* storage
//! hierarchy — staging buffer, RAM, node-local SSD, the PFS — yet the
//! original fetch path only knew two concrete types. [`DataSource`] is
//! the unifying interface: every level of the hierarchy (the
//! [`crate::backend`] implementations here, the synthetic PFS in
//! `nopfs_pfs`, or any future cold object store) exposes the same
//! capacity-aware read/write/evict surface, and [`TierStack`] composes
//! an ordered list of them — fastest first, the *origin* (authoritative
//! store holding the whole dataset) last — into a single fetch entry
//! point, [`TierStack::read`].
//!
//! Every read records per-tier hit/miss/byte statistics
//! ([`TierStats`]); on a miss in the upper tiers the stack *promotes*
//! the sample upward according to its [`PromotePolicy`]. Placement-
//! driven fills ([`TierStack::fill_many`], NoPFS's clairvoyant assignments)
//! are pinned; only read-path promotions are eligible for read-path
//! eviction, so a generic caching stack and the clairvoyant runtime
//! coexist on one type.

use crate::backend::{BackendError, MemoryBackend, StorageBackend, ThrottledBackend};
use crate::metadata::MetadataStore;
use crate::shard::ShardedMap;
use crate::SampleId;
use bytes::Bytes;
use nopfs_obs::{names, Counter, Histogram, Registry};
use nopfs_util::timing::TimeScale;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::num::NonZeroU64;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Errors a [`DataSource`] read or write can produce.
///
/// Every variant carries a retryability class ([`SourceError::class`]):
/// resilience layers decide *whether* and *how* to retry from the
/// class, never from string matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceError {
    /// The source does not hold this sample (permanent).
    NotFound(SampleId),
    /// The sample would exceed the source's capacity (permanent).
    Full {
        /// Bytes the write needed.
        needed: u64,
        /// Bytes still free.
        available: u64,
    },
    /// Underlying (or injected) I/O failure (transient).
    Io(String),
    /// The backend shed this request under load; retry no sooner than
    /// `retry_after` (throttled — retryable, but on the server's
    /// schedule, not the client's backoff curve).
    Throttled {
        /// Server-suggested minimum wait before the next attempt.
        retry_after: std::time::Duration,
    },
    /// The read did not complete within the caller's deadline
    /// (retryable: the next attempt races a fresh deadline).
    DeadlineExceeded {
        /// The deadline that expired.
        deadline: std::time::Duration,
    },
    /// The backend is out of service — a circuit breaker is open or the
    /// source is administratively down. Fail-fast: callers should
    /// degrade to another source rather than retry in place.
    Unavailable(String),
}

/// Retryability classes of a [`SourceError`], the contract between
/// error producers (backends, injectors) and the resilience layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// Worth retrying after client-side backoff ([`SourceError::Io`]).
    Transient,
    /// Worth retrying after the server-suggested wait
    /// ([`SourceError::Throttled`]).
    Throttled,
    /// Worth retrying against a fresh deadline
    /// ([`SourceError::DeadlineExceeded`]).
    DeadlineExceeded,
    /// Never worth retrying in place ([`SourceError::NotFound`],
    /// [`SourceError::Full`], [`SourceError::Unavailable`]).
    Permanent,
}

impl SourceError {
    /// This error's retryability class.
    pub fn class(&self) -> ErrorClass {
        match self {
            SourceError::Io(_) => ErrorClass::Transient,
            SourceError::Throttled { .. } => ErrorClass::Throttled,
            SourceError::DeadlineExceeded { .. } => ErrorClass::DeadlineExceeded,
            SourceError::NotFound(_) | SourceError::Full { .. } | SourceError::Unavailable(_) => {
                ErrorClass::Permanent
            }
        }
    }

    /// Whether retrying the same source can ever help.
    pub fn is_retryable(&self) -> bool {
        self.class() != ErrorClass::Permanent
    }
}

impl std::fmt::Display for SourceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SourceError::NotFound(id) => write!(f, "sample {id} not found"),
            SourceError::Full { needed, available } => {
                write!(f, "source full: need {needed} bytes, {available} free")
            }
            SourceError::Io(msg) => write!(f, "I/O error: {msg}"),
            SourceError::Throttled { retry_after } => {
                write!(f, "throttled: retry after {retry_after:?}")
            }
            SourceError::DeadlineExceeded { deadline } => {
                write!(f, "deadline of {deadline:?} exceeded")
            }
            SourceError::Unavailable(msg) => write!(f, "source unavailable: {msg}"),
        }
    }
}

impl std::error::Error for SourceError {}

/// Coarse liveness of a [`DataSource`], surfaced so fetch paths can
/// steer around a failing backend *before* paying a read into it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SourceHealth {
    /// Serving normally.
    #[default]
    Healthy,
    /// Serving, but a resilience layer is probing it (half-open
    /// breaker) or absorbing elevated failures.
    Degraded,
    /// Not serving: an open circuit breaker is failing reads fast.
    Unavailable,
}

impl From<BackendError> for SourceError {
    fn from(e: BackendError) -> Self {
        match e {
            BackendError::Full { needed, available } => SourceError::Full { needed, available },
            BackendError::Io(msg) => SourceError::Io(msg),
        }
    }
}

/// One level of the storage hierarchy: a keyed byte store with optional
/// capacity. Implemented by the local backends here, by `nopfs_pfs::Pfs`
/// (the shared filesystem with its `t(γ)` regulator), and by anything
/// else that wants to slot into a [`TierStack`].
pub trait DataSource: Send + Sync {
    /// Human-readable tier name ("ram", "ssd", "pfs", …).
    fn name(&self) -> &str;

    /// Reads a sample, paying the source's modelled cost.
    ///
    /// # Errors
    /// [`SourceError::NotFound`] when absent, [`SourceError::Io`] on
    /// (possibly injected) failures.
    fn read(&self, id: SampleId) -> Result<Bytes, SourceError>;

    /// Stores a sample, paying the source's modelled write cost.
    ///
    /// # Errors
    /// [`SourceError::Full`] when it does not fit.
    fn write(&self, id: SampleId, data: Bytes) -> Result<(), SourceError>;

    /// Whether the sample is present (metadata only; free).
    fn contains(&self, id: SampleId) -> bool;

    /// Capacity in bytes; `None` for unbounded stores (origins).
    fn capacity(&self) -> Option<u64>;

    /// Bytes currently stored.
    fn used(&self) -> u64;

    /// Removes a sample, returning whether it was present.
    fn evict(&self, id: SampleId) -> bool;

    /// Number of stored samples.
    fn count(&self) -> usize;

    /// Size in bytes of a stored sample (metadata only; free).
    fn size_of(&self, id: SampleId) -> Option<u64>;

    /// The one vectored read: one result per id, in order, handed to
    /// the caller's `sink`, nothing allocated. The default loops over
    /// [`DataSource::read`]. The overrides batch where batching pays:
    /// the backends' blanket impl forwards to
    /// [`StorageBackend::get_many`], so a throttled cache tier settles
    /// its read cost once per sweep and a memory tier takes each shard
    /// lock once (so `sink` must not call into it); the PFS registers
    /// one reader for the batch and charges its `t(γ)` regulator once;
    /// object stores *coalesce* adjacent ids into fewer requests; the
    /// resilience layer admits the batch through its breaker once.
    /// Every tier read of a [`TierStack`], the origin's included, goes
    /// through this, in [`TierStack::read_tier_many`].
    fn read_each(&self, ids: &[SampleId], sink: &mut dyn FnMut(Result<Bytes, SourceError>)) {
        for &id in ids {
            sink(self.read(id));
        }
    }

    /// The one vectored write: moves every item out of `items` (left
    /// empty, its allocation kept for the caller's next batch) and
    /// hands `sink` each id with its outcome — the bytes stored, or
    /// the error — in order. The default loops over
    /// [`DataSource::write`]; the backends' blanket impl forwards to
    /// [`StorageBackend::insert_many`], so a throttled cache tier
    /// settles its write cost once per batch. Every fill of a cache
    /// tier ([`TierStack::fill_many`]) goes through this.
    fn write_each(
        &self,
        items: &mut Vec<(SampleId, Bytes)>,
        sink: &mut dyn FnMut(SampleId, Result<u64, SourceError>),
    ) {
        for (id, data) in items.drain(..) {
            let size = data.len() as u64;
            sink(id, self.write(id, data).map(|()| size));
        }
    }

    /// Coarse liveness, for callers that want to steer around a
    /// failing source. Plain stores are always [`SourceHealth::Healthy`];
    /// resilience wrappers report their circuit-breaker state.
    fn health(&self) -> SourceHealth {
        SourceHealth::Healthy
    }

    /// Resilience counters (retries, hedges, breaker transitions), when
    /// a resilience layer wraps this source; `None` for plain stores.
    fn resilience(&self) -> Option<crate::resilience::ResilienceStats> {
        None
    }
}

/// Every [`StorageBackend`] is a [`DataSource`]: the method sets
/// coincide except that reads/writes surface `Result`s and capacity is
/// always bounded. (Non-backend sources — the PFS, cold object stores
/// — implement [`DataSource`] directly.)
impl<B: StorageBackend> DataSource for B {
    fn name(&self) -> &str {
        StorageBackend::name(self)
    }

    fn read(&self, id: SampleId) -> Result<Bytes, SourceError> {
        StorageBackend::get(self, id).ok_or(SourceError::NotFound(id))
    }

    fn read_each(&self, ids: &[SampleId], sink: &mut dyn FnMut(Result<Bytes, SourceError>)) {
        StorageBackend::get_many(self, ids, &mut |id, data| {
            sink(data.ok_or(SourceError::NotFound(id)))
        });
    }

    fn write(&self, id: SampleId, data: Bytes) -> Result<(), SourceError> {
        StorageBackend::insert(self, id, data).map_err(SourceError::from)
    }

    fn write_each(
        &self,
        items: &mut Vec<(SampleId, Bytes)>,
        sink: &mut dyn FnMut(SampleId, Result<u64, SourceError>),
    ) {
        StorageBackend::insert_many(self, items, &mut |id, r| {
            sink(id, r.map_err(SourceError::from))
        });
    }

    fn contains(&self, id: SampleId) -> bool {
        StorageBackend::contains(self, id)
    }

    fn capacity(&self) -> Option<u64> {
        Some(StorageBackend::capacity(self))
    }

    fn used(&self) -> u64 {
        StorageBackend::used(self)
    }

    fn evict(&self, id: SampleId) -> bool {
        StorageBackend::evict(self, id)
    }

    fn count(&self) -> usize {
        StorageBackend::count(self)
    }

    fn size_of(&self, id: SampleId) -> Option<u64> {
        StorageBackend::size_of(self, id)
    }
}

/// Cumulative per-tier statistics, snapshotted by [`TierStack::stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Tier name (from the source).
    pub name: String,
    /// Reads served by this tier.
    pub hits: u64,
    /// Reads that had to look further down the stack.
    pub misses: u64,
    /// Bytes served by this tier.
    pub bytes_read: u64,
    /// Samples written into this tier (fills + promotions).
    pub fills: u64,
    /// Bytes written into this tier.
    pub bytes_filled: u64,
    /// Fills that came from read-path promotion.
    pub promotions: u64,
    /// Fills that came from a faster tier demoting its eviction victim
    /// here (spill absorption).
    pub demotions: u64,
    /// Samples evicted from this tier (read-path eviction plus explicit
    /// [`TierStack::evict`] calls).
    pub evictions: u64,
    /// Bytes evicted from this tier.
    pub bytes_evicted: u64,
    /// Tier capacity (`None` = unbounded origin).
    pub capacity: Option<u64>,
    /// Bytes resident when the snapshot was taken.
    pub used: u64,
}

impl TierStats {
    /// Hit fraction of all reads that consulted this tier.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Accumulates `other` into `self` (for aggregating the same tier
    /// across ranks). Counters, capacities, and residency add, so the
    /// merged row reads as the aggregate tier across the cluster; an
    /// unbounded origin (`capacity: None`) keeps the merge unbounded.
    pub fn merge(&mut self, other: &TierStats) {
        debug_assert_eq!(self.name, other.name, "merge is per-tier");
        self.hits += other.hits;
        self.misses += other.misses;
        self.bytes_read += other.bytes_read;
        self.fills += other.fills;
        self.bytes_filled += other.bytes_filled;
        self.promotions += other.promotions;
        self.demotions += other.demotions;
        self.evictions += other.evictions;
        self.bytes_evicted += other.bytes_evicted;
        self.capacity = match (self.capacity, other.capacity) {
            (Some(a), Some(b)) => Some(a + b),
            _ => None,
        };
        self.used += other.used;
    }
}

/// Per-tier counters, registered as `tier.*` metrics (labelled
/// `tier=<name>`) in the stack's obs registry — [`TierStats`] is the
/// typed view over them.
///
/// The registry is cumulative: a stack rebuilt against the same
/// registry (an elastic worker restarting cold after a crash) reuses
/// the existing counters. Each `Counters` therefore snapshots a
/// baseline at construction and the stats view reports deltas, so a
/// stack's [`TierStats`] covers exactly its own lifetime while
/// telemetry sees running totals.
#[derive(Debug)]
struct Counters {
    hits: Counter,
    misses: Counter,
    bytes_read: Counter,
    fills: Counter,
    bytes_filled: Counter,
    promotions: Counter,
    demotions: Counter,
    evictions: Counter,
    bytes_evicted: Counter,
    /// Service latency (ns): one observation per
    /// [`TierStack::read_tier_many`] sweep that hit, the mean per hit —
    /// on the origin as on every cache tier.
    read_latency: Histogram,
    /// Registry values at construction, subtracted from stats views.
    base: [u64; 9],
}

impl Counters {
    fn new(registry: &Registry, tier_name: &str) -> Self {
        let labels = [("tier", tier_name)];
        let mut c = Self {
            hits: registry.counter_with(names::TIER_HITS, &labels),
            misses: registry.counter_with(names::TIER_MISSES, &labels),
            bytes_read: registry.counter_with(names::TIER_BYTES_READ, &labels),
            fills: registry.counter_with(names::TIER_FILLS, &labels),
            bytes_filled: registry.counter_with(names::TIER_BYTES_FILLED, &labels),
            promotions: registry.counter_with(names::TIER_PROMOTIONS, &labels),
            demotions: registry.counter_with(names::TIER_DEMOTIONS, &labels),
            evictions: registry.counter_with(names::TIER_EVICTIONS, &labels),
            bytes_evicted: registry.counter_with(names::TIER_BYTES_EVICTED, &labels),
            read_latency: registry.histogram_with(names::TIER_READ_LATENCY, &labels),
            base: [0; 9],
        };
        c.base = c.totals();
        c
    }

    /// Raw cumulative registry values, in [`Self::base`] field order.
    fn totals(&self) -> [u64; 9] {
        [
            self.hits.get(),
            self.misses.get(),
            self.bytes_read.get(),
            self.fills.get(),
            self.bytes_filled.get(),
            self.promotions.get(),
            self.demotions.get(),
            self.evictions.get(),
            self.bytes_evicted.get(),
        ]
    }

    /// Values since this stack was built (registry minus baseline).
    fn since_build(&self) -> [u64; 9] {
        let mut t = self.totals();
        for (v, b) in t.iter_mut().zip(&self.base) {
            *v -= b;
        }
        t
    }
}

/// What [`TierStack::read`] does when a sample is found below the top
/// tier (or only at the origin).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PromotePolicy {
    /// Never promote: placement is managed externally (the clairvoyant
    /// runtime plans every fill itself via [`TierStack::fill`]).
    Never,
    /// Promote into the topmost tier with free space; skip tiers that
    /// are full.
    #[default]
    IfFits,
    /// Promote into the topmost tier, evicting earlier read-path
    /// promotions (FIFO) to make room; victims *demote* into the next
    /// tier down with free space (spill absorption) rather than being
    /// dropped. Pinned fills are never evicted.
    Evicting,
}

/// Read-path promotions resident in a tier, FIFO by promotion order —
/// the only entries [`PromotePolicy::Evicting`] may remove.
///
/// The old representation — one `Mutex<VecDeque>` scanned with
/// `retain`/`contains` — made every eviction and every promotion an
/// O(n) walk under a global lock, on the hot path. This one is
/// epoch-stamped and sharded:
///
/// - **Membership** is a [`ShardedMap`] `id → (epoch, size)` — O(1)
///   `contains`/`remove` with no queue scan, under only the id's shard
///   lock.
/// - **FIFO order** lives in per-shard queues of `(id, epoch)`. A
///   removal (or re-promotion, which bumps the epoch) does not touch
///   the queue; the stale entry is lazily skipped when it surfaces at a
///   queue head, because its epoch no longer matches the membership
///   map. [`Self::pop_oldest`] pops the minimum-epoch head across
///   shards, so global FIFO order is exact, not approximate.
/// - **Evictable bytes** is a running atomic, replacing the O(n)
///   size-sum `make_room` used to do under the queue lock.
#[derive(Debug, Default)]
struct PromotedSet {
    /// `id → (epoch, size)`: present iff the id is an evictable
    /// read-path resident; the epoch names its live queue entry.
    members: ShardedMap<(u64, u64)>,
    /// Per-shard FIFO of `(id, epoch)`; entries whose epoch no longer
    /// matches `members` are stale and skipped at pop.
    queues: Vec<Mutex<VecDeque<(SampleId, u64)>>>,
    /// Monotonic stamp source; higher epoch = promoted later.
    epoch: AtomicU64,
    /// Total bytes of live members.
    bytes: AtomicU64,
}

impl PromotedSet {
    fn new() -> Self {
        let members = ShardedMap::new();
        let queues = (0..members.shard_count())
            .map(|_| Mutex::new(VecDeque::new()))
            .collect();
        Self {
            members,
            queues,
            epoch: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// Whether `id` is a live evictable resident. O(1).
    fn contains(&self, id: SampleId) -> bool {
        self.members.contains(id)
    }

    /// Total bytes of live members (the budget read-path eviction can
    /// ever free). O(1).
    fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Marks `id` as an evictable resident of `size` bytes, last in
    /// FIFO order. Re-pushing bumps the epoch, which invalidates the
    /// previous queue entry in place. O(1).
    fn push(&self, id: SampleId, size: u64) {
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some((_, old_size)) = self.members.insert(id, (epoch, size)) {
            self.bytes.fetch_sub(old_size, Ordering::Relaxed);
        }
        self.bytes.fetch_add(size, Ordering::Relaxed);
        let mut q = self.queues[self.members.index_of(id)].lock();
        // Opportunistically reap stale heads so a policy that never
        // pops (IfFits) cannot grow the queue without bound.
        while let Some(&(hid, hepoch)) = q.front() {
            if self.live(hid, hepoch) {
                break;
            }
            q.pop_front();
        }
        q.push_back((id, epoch));
    }

    /// Unmarks `id` (evicted or moved away). The queue entry is left
    /// behind as stale — no scan. O(1).
    fn remove(&self, id: SampleId) {
        if let Some((_, size)) = self.members.remove(id) {
            self.bytes.fetch_sub(size, Ordering::Relaxed);
        }
    }

    fn live(&self, id: SampleId, epoch: u64) -> bool {
        self.members.with(id, |&(e, _)| e == epoch).unwrap_or(false)
    }

    /// Claims and returns the oldest live member (exact global FIFO:
    /// the minimum epoch across shard heads). `None` when no live
    /// member remains.
    fn pop_oldest(&self) -> Option<SampleId> {
        loop {
            // Pass 1: drop stale heads, note each shard's live head.
            let mut best: Option<(usize, SampleId, u64)> = None;
            for (qi, queue) in self.queues.iter().enumerate() {
                let mut q = queue.lock();
                while let Some(&(id, epoch)) = q.front() {
                    if self.live(id, epoch) {
                        if best.is_none_or(|(_, _, be)| epoch < be) {
                            best = Some((qi, id, epoch));
                        }
                        break;
                    }
                    q.pop_front();
                }
            }
            let (qi, id, epoch) = best?;
            // Pass 2: re-take the winning shard's lock; a racing pop may
            // have claimed the head in between, so verify before popping.
            {
                let mut q = self.queues[qi].lock();
                match q.front() {
                    Some(&(hid, hepoch)) if hid == id && hepoch == epoch => {
                        q.pop_front();
                    }
                    _ => continue,
                }
            }
            // Claim membership under the id's shard lock: only the
            // matching epoch counts (a concurrent remove or re-push
            // makes this pop stale, in which case rescan).
            let mut shard = self.members.shard(id).write();
            if let Some(&(e, size)) = shard.get(&id) {
                if e == epoch {
                    shard.remove(&id);
                    drop(shard);
                    self.bytes.fetch_sub(size, Ordering::Relaxed);
                    return Some(id);
                }
            }
        }
    }
}

struct TierSlot {
    source: Arc<dyn DataSource>,
    counters: Counters,
    /// Read-path promotions resident in this tier, promotion order —
    /// the only entries [`PromotePolicy::Evicting`] may remove.
    promoted: PromotedSet,
}

struct StackInner {
    tiers: Vec<TierSlot>,
    /// Catalog of which cache tier holds each sample (the origin is
    /// authoritative and not cataloged).
    catalog: MetadataStore,
    /// Sizes of cataloged samples, for eviction byte accounting.
    sizes: ShardedMap<u64>,
    promote: PromotePolicy,
}

/// An ordered storage hierarchy with one fetch entry point.
///
/// Tiers are fastest first; the **last** source is the *origin* — the
/// authoritative store (typically the PFS) expected to hold every
/// sample. Clone to share between threads; all clones see one set of
/// tiers, one catalog, and one statistics block.
///
/// Each operation has one body: [`Self::read`] and [`Self::read_many`]
/// share one fetch, every tier read (the origin's included) is a
/// [`Self::read_tier_many`] sweep, read-path promotion and spill
/// demotion share one placement, and explicit eviction, read-path
/// eviction and the retirement of a displaced copy share one removal.
#[derive(Clone)]
pub struct TierStack {
    inner: Arc<StackInner>,
}

impl TierStack {
    /// Builds a stack from `sources` (fastest first, origin last) with
    /// the given promotion policy. The per-tier counters are registered
    /// in `registry`, with whatever scope labels it carries: the path by
    /// which a tenant's tier statistics surface in the cluster's live
    /// telemetry (`&Registry::new()` keeps them private).
    ///
    /// # Panics
    /// Panics on an empty source list or more than 254 cache tiers
    /// (the catalog stores tier indices as `u8`).
    pub fn new(
        sources: Vec<Arc<dyn DataSource>>,
        promote: PromotePolicy,
        registry: &Registry,
    ) -> Self {
        assert!(!sources.is_empty(), "a tier stack needs an origin");
        assert!(
            sources.len() - 1 < usize::from(u8::MAX),
            "too many cache tiers"
        );
        Self {
            inner: Arc::new(StackInner {
                tiers: sources
                    .into_iter()
                    .map(|source| {
                        let counters = Counters::new(registry, source.name());
                        TierSlot {
                            source,
                            counters,
                            promoted: PromotedSet::new(),
                        }
                    })
                    .collect(),
                catalog: MetadataStore::new(),
                sizes: ShardedMap::new(),
                promote,
            }),
        }
    }

    /// A degenerate stack with no cache tiers: every read goes straight
    /// to the origin (how flat, PFS-only loaders join the tiered API).
    pub fn origin_only(origin: Arc<dyn DataSource>, registry: &Registry) -> Self {
        Self::new(vec![origin], PromotePolicy::Never, registry)
    }

    /// Number of tiers including the origin.
    pub fn num_tiers(&self) -> usize {
        self.inner.tiers.len()
    }

    /// Index of the origin (always the last tier).
    pub fn origin_index(&self) -> usize {
        self.inner.tiers.len() - 1
    }

    /// Number of cache tiers (everything above the origin).
    pub fn cache_tiers(&self) -> usize {
        self.origin_index()
    }

    /// The source behind tier `tier`.
    pub fn source(&self, tier: usize) -> &Arc<dyn DataSource> {
        &self.inner.tiers[tier].source
    }

    /// Name of tier `tier`.
    pub fn tier_name(&self, tier: usize) -> &str {
        self.inner.tiers[tier].source.name()
    }

    /// The cache tier currently holding `id`, if any.
    pub fn locate(&self, id: SampleId) -> Option<usize> {
        self.inner.catalog.lookup(id).map(usize::from)
    }

    /// [`Self::locate`] of each id, in order, with each catalog shard
    /// locked once for the call: `sink` must not call into the stack.
    pub fn locate_each(&self, ids: &[SampleId], mut sink: impl FnMut(Option<usize>)) {
        self.inner
            .catalog
            .lookup_each(ids, |class| sink(class.map(usize::from)));
    }

    /// Whether any tier (cache or origin) holds `id`.
    pub fn contains(&self, id: SampleId) -> bool {
        self.locate(id).is_some() || self.inner.tiers[self.origin_index()].source.contains(id)
    }

    /// Samples currently cataloged across the cache tiers.
    pub fn cached_count(&self) -> usize {
        self.inner.catalog.cached_count()
    }

    /// **The** fetch entry point: serves `id` from the fastest tier
    /// holding it, records per-tier hits/misses/bytes, and promotes on
    /// miss per the stack's [`PromotePolicy`]. The length-1
    /// [`Self::read_many`]; a cache hit allocates nothing.
    ///
    /// # Errors
    /// Whatever the origin read produced when no tier holds the sample
    /// ([`SourceError::NotFound`] for a missing object, `Io` for an
    /// injected or real fault).
    pub fn read(&self, id: SampleId) -> Result<Bytes, SourceError> {
        let mut got = None;
        self.fetch_each(&[id], |_, r| got = Some(r));
        got.expect("one result per id")
    }

    /// Vectored fetch: serves each id from the fastest tier holding it,
    /// each cache hit read alone, and reads the ids no cache tier holds
    /// from the origin in **one** sweep, sorted by id so that origins
    /// with per-request overhead (object stores) coalesce adjacent
    /// ranges into fewer requests. Results come back one per input id,
    /// in input order.
    ///
    /// Statistics, promotion, and stale-catalog repair are per id,
    /// identical to `ids.iter().map(|&id| self.read(id))` — only the
    /// origin round-trips differ.
    pub fn read_many(&self, ids: &[SampleId]) -> Vec<Result<Bytes, SourceError>> {
        let mut out = vec![None; ids.len()];
        self.fetch_each(ids, |pos, r| out[pos] = Some(r));
        out.into_iter()
            .map(|r| r.expect("every id resolved"))
            .collect()
    }

    /// The one fetch body: hands `sink` each id's result with its input
    /// position. A cataloged id is read from its tier, counts a miss in
    /// every faster tier and moves up per the policy. The ids no cache
    /// tier served (uncataloged, or a stale entry, which its tier read
    /// repaired and counted as that tier's miss) go to the origin as
    /// one sweep sorted by id. Their promotions wait until that sweep
    /// has returned, so no tier write runs inside the origin's read
    /// (the PFS holds its reader registration for the whole batch).
    fn fetch_each(
        &self,
        ids: &[SampleId],
        mut sink: impl FnMut(usize, Result<Bytes, SourceError>),
    ) {
        // (id, input position, the tier whose stale entry counted its miss)
        let mut misses: Vec<(SampleId, usize, Option<usize>)> = Vec::new();
        for (pos, &id) in ids.iter().enumerate() {
            let Some(tier) = self.locate(id) else {
                misses.push((id, pos, None));
                continue;
            };
            match self.read_tier(tier, id) {
                Ok(data) => {
                    self.count_misses_above(tier, None);
                    self.promote(tier, id, &data);
                    sink(pos, Ok(data));
                }
                Err(SourceError::NotFound(_)) => misses.push((id, pos, Some(tier))),
                Err(e) => sink(pos, Err(e)),
            }
        }
        if misses.is_empty() {
            return;
        }
        misses.sort_by_key(|&(id, ..)| id);
        let batch: Vec<SampleId> = misses.iter().map(|&(id, ..)| id).collect();
        let origin = self.origin_index();
        let mut results = Vec::with_capacity(batch.len());
        self.read_tier_many(origin, &batch, |r| results.push(r));
        for ((id, pos, stale), r) in misses.into_iter().zip(results) {
            if let Ok(data) = &r {
                self.count_misses_above(origin, stale);
                self.promote(origin, id, data);
            }
            sink(pos, r);
        }
    }

    /// Vectored read of `ids` directly from tier `tier` (no promotion,
    /// no fallback): `sink` gets one result per id, in order. **The**
    /// tier sweep — every tier read of the stack, the origin's
    /// included, is a call of this, [`Self::read_tier`] and
    /// [`Self::get_cached`] its length-1 case.
    ///
    /// The call reads the clock once, not once per id: a clock read is
    /// a fence, and between two of them a sample's dependent cache
    /// misses (slot, then payload header) cannot overlap its
    /// neighbours'. So the sweep books `hits`, `bytes_read` and
    /// `misses` once, and — when anything hit — **one** observation of
    /// `tier.read_latency_ns`: the mean per hit. An id the tier turns
    /// out not to hold ([`SourceError::NotFound`]: a stale catalog
    /// entry, a raced eviction) counts a miss, and its entry is
    /// repaired once the sweep has returned; any other error is that
    /// source's transient trouble, reads as a failed fetch and leaves
    /// the entry — the bytes are still there. `sink` must not call into
    /// the stack: it may run under the source's locks.
    pub fn read_tier_many(
        &self,
        tier: usize,
        ids: &[SampleId],
        mut sink: impl FnMut(Result<Bytes, SourceError>),
    ) {
        let slot = &self.inner.tiers[tier];
        let (mut hits, mut bytes) = (0u64, 0u64);
        // Repaired once `read_each` has returned: no catalog or tier
        // call runs inside a source's read.
        let mut stale: Vec<SampleId> = Vec::new();
        let mut at = ids.iter();
        // Only pay for the clock when a histogram is listening.
        let t0 = slot.counters.read_latency.is_active().then(Instant::now);
        slot.source.read_each(ids, &mut |r| {
            let id = *at.next().expect("one result per id");
            match &r {
                Ok(data) => {
                    hits += 1;
                    bytes += data.len() as u64;
                }
                Err(SourceError::NotFound(_)) => stale.push(id),
                Err(_) => {}
            }
            sink(r);
        });
        let elapsed = t0.map(|t0| t0.elapsed());
        if !stale.is_empty() {
            slot.counters.misses.add(stale.len() as u64);
            for id in stale {
                self.repair(tier, id);
            }
        }
        let Some(hits) = NonZeroU64::new(hits) else {
            return;
        };
        if let Some(elapsed) = elapsed {
            let nanos = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
            slot.counters.read_latency.record(nanos / hits);
        }
        slot.counters.hits.add(hits.get());
        slot.counters.bytes_read.add(bytes);
    }

    /// Reads `id` directly from tier `tier`, recording only that tier's
    /// hit or miss (no promotion, no fallback).
    ///
    /// # Errors
    /// [`SourceError::NotFound`] when the tier does not hold the sample.
    pub fn read_tier(&self, tier: usize, id: SampleId) -> Result<Bytes, SourceError> {
        let mut got = None;
        self.read_tier_many(tier, &[id], |r| got = Some(r));
        got.expect("one result per id")
    }

    /// Liveness of the origin source, as reported by its resilience
    /// layer (always [`SourceHealth::Healthy`] for unwrapped origins).
    pub fn origin_health(&self) -> SourceHealth {
        self.inner.tiers[self.origin_index()].source.health()
    }

    /// Resilience counters of the origin source, when wrapped.
    pub fn origin_resilience(&self) -> Option<crate::resilience::ResilienceStats> {
        self.inner.tiers[self.origin_index()].source.resilience()
    }

    /// Serves `id` from its cache tier if cataloged: the serving-loop
    /// lookup (`None` when uncached — callers do *not* fall through to
    /// the origin here). A stale catalog entry is repaired; a tier that
    /// fails the read for any other reason also yields `None`, but
    /// keeps its entry: the resident bytes are served again once the
    /// source recovers.
    pub fn get_cached(&self, id: SampleId) -> Option<Bytes> {
        self.read_tier(self.locate(id)?, id).ok()
    }

    /// A planned (pinned) fill: stores `id` into cache tier `tier` and
    /// catalogs it. The length-1 [`Self::fill_many`].
    ///
    /// # Errors
    /// [`SourceError::Full`] when the tier cannot take the sample.
    pub fn fill(&self, tier: usize, id: SampleId, data: Bytes) -> Result<(), SourceError> {
        let mut got = None;
        self.fill_many(tier, &mut vec![(id, data)], |_, r| got = Some(r));
        got.expect("one result per item")
    }

    /// **The** fill path: stores every item of `items` into cache tier
    /// `tier` through one [`DataSource::write_each`] — so a throttled
    /// tier is charged once for the batch — and catalogs each one that
    /// landed. `items` is moved out (left empty, its allocation kept
    /// for the caller's next batch); `sink` gets one result per item,
    /// in order, once that item is cataloged. Pinned fills are never
    /// displaced by read-path eviction — this is how clairvoyant
    /// placement claims capacity.
    ///
    /// Catalog marks, sizes and the retirement of a superseded copy are
    /// per item; `fills` and `bytes_filled` are booked once per call.
    /// An item the tier cannot take gets its error
    /// ([`SourceError::Full`] when it does not fit) and is not
    /// cataloged.
    pub fn fill_many(
        &self,
        tier: usize,
        items: &mut Vec<(SampleId, Bytes)>,
        mut sink: impl FnMut(SampleId, Result<(), SourceError>),
    ) {
        debug_assert!(tier < self.origin_index(), "fills target cache tiers");
        let slot = &self.inner.tiers[tier];
        let (mut fills, mut bytes) = (0u64, 0u64);
        slot.source.write_each(items, &mut |id, r| {
            let r = r.map(|size| {
                fills += 1;
                bytes += size;
                // A pinned fill always wins the catalog (the clairvoyant
                // plan overrides read-path placement).
                let prev = self.inner.catalog.mark_cached(id, tier as u8);
                self.record_claim(tier, id, size, prev);
            });
            sink(id, r);
        });
        if fills > 0 {
            slot.counters.fills.add(fills);
            slot.counters.bytes_filled.add(bytes);
        }
    }

    /// Evicts `id` from cache tier `tier`, updating catalog and
    /// statistics. Returns whether the sample was present.
    pub fn evict(&self, tier: usize, id: SampleId) -> bool {
        let size = self.size_in(tier, id);
        self.uncatalog_from(id, tier);
        self.remove(tier, id, size)
    }

    /// Statistics snapshot for tier `tier`.
    pub fn stats(&self, tier: usize) -> TierStats {
        let slot = &self.inner.tiers[tier];
        let [hits, misses, bytes_read, fills, bytes_filled, promotions, demotions, evictions, bytes_evicted] =
            slot.counters.since_build();
        TierStats {
            name: slot.source.name().to_string(),
            hits,
            misses,
            bytes_read,
            fills,
            bytes_filled,
            promotions,
            demotions,
            evictions,
            bytes_evicted,
            capacity: slot.source.capacity(),
            used: slot.source.used(),
        }
    }

    /// Statistics for every tier, fastest first (origin last).
    pub fn all_stats(&self) -> Vec<TierStats> {
        (0..self.num_tiers()).map(|j| self.stats(j)).collect()
    }

    /// Counts a miss in every tier faster than `tier` but `skip`, whose
    /// stale entry already counted its own.
    fn count_misses_above(&self, tier: usize, skip: Option<usize>) {
        for (j, slot) in self.inner.tiers[..tier].iter().enumerate() {
            if skip != Some(j) {
                slot.counters.misses.inc();
            }
        }
    }

    /// Bytes of `id`: the tier's own record, else the stack's size
    /// table (for sources that keep none).
    fn size_in(&self, tier: usize, id: SampleId) -> u64 {
        self.inner.tiers[tier]
            .source
            .size_of(id)
            .or_else(|| self.inner.sizes.get(id))
            .unwrap_or(0)
    }

    /// The one removal body: takes `id` out of `tier`'s promoted set
    /// and its bytes out of the source, counting an eviction of `size`
    /// bytes when they were there. Returns whether they were. The
    /// catalog is the caller's: an eviction uncatalogs *before* it
    /// calls this, so a read racing it finds no entry and claims one
    /// for the copy it places (the other order lets the late uncatalog
    /// strand that copy), and a displaced copy's entry already names
    /// the copy that displaced it.
    fn remove(&self, tier: usize, id: SampleId, size: u64) -> bool {
        let slot = &self.inner.tiers[tier];
        slot.promoted.remove(id);
        let removed = slot.source.evict(id);
        if removed {
            slot.counters.evictions.inc();
            slot.counters.bytes_evicted.add(size);
        }
        removed
    }

    /// Removes the catalog entry only if it still points at `tier` —
    /// a concurrent placement may have re-cataloged the sample at
    /// another tier, and blindly removing would orphan that resident
    /// copy (capacity spent, never served). Returns whether it did.
    fn uncatalog_from(&self, id: SampleId, tier: usize) -> bool {
        let removed = self.inner.catalog.remove_if(id, tier as u8);
        if removed {
            self.inner.sizes.remove(id);
        }
        removed
    }

    /// Repairs the entry that sent a read to `tier` for a sample the
    /// tier did not hold. The entry goes if it still names `tier`. If
    /// the tier holds the sample again by then, a placement raced the
    /// failed read and the entry just removed was that copy's: the copy
    /// claims it back, exactly as its placement did. No source call
    /// runs under a catalog lock.
    fn repair(&self, tier: usize, id: SampleId) {
        let size = self.size_in(tier, id);
        if !self.uncatalog_from(id, tier) || !self.inner.tiers[tier].source.contains(id) {
            return;
        }
        match self.inner.catalog.claim_fastest(id, tier as u8) {
            Ok(prev) => self.record_claim(tier, id, size, prev),
            // A faster copy was claimed in between; this one goes.
            Err(_) => {
                self.remove(tier, id, size);
            }
        }
    }

    /// Books an entry just won at `tier` over `prev`: the sample's
    /// size, and the displaced copy removed, so that capacity is not
    /// spent twice.
    fn record_claim(&self, tier: usize, id: SampleId, size: u64, prev: Option<u8>) {
        self.inner.sizes.insert(id, size);
        if let Some(p) = prev.map(usize::from).filter(|&p| p != tier) {
            self.remove(p, id, size);
        }
    }

    /// Promotes `id` (just served from `from`) into the topmost cache
    /// tier the policy can place it in. A successful promotion out of a
    /// *cache* tier removes the lower copy (a move); promotion from the
    /// origin copies (the origin stays authoritative). The moved copy
    /// keeps its status: a pinned fill stays pinned in its new tier, a
    /// read-path resident stays evictable.
    fn promote(&self, from: usize, id: SampleId, data: &Bytes) {
        if from == 0 || self.inner.promote == PromotePolicy::Never {
            return;
        }
        // Pinned fills never sit in a promoted queue; anything arriving
        // from the origin is by definition a read-path resident.
        let evictable = from == self.origin_index() || self.inner.tiers[from].promoted.contains(id);
        self.place(0..from, id, data, evictable, true);
    }

    /// The one placement body, for read-path promotion and for the
    /// demotion of an eviction victim: writes `data` into the first
    /// tier of `tiers` it fits in (a promotion under
    /// [`PromotePolicy::Evicting`] makes room first; a demotion does
    /// not cascade, and a full lower hierarchy drops the victim, which
    /// the origin still holds) and claims the catalog entry there.
    ///
    /// The catalog is the placement arbiter: racing placements of one
    /// sample may land copies in different tiers, and only the claim
    /// winner keeps its copy — it books the fill and removes the
    /// displaced slower copy; the loser withdraws its write — so no
    /// resident bytes outlive their catalog entry. An `evictable` copy
    /// joins the tier's promoted set.
    fn place(
        &self,
        tiers: Range<usize>,
        id: SampleId,
        data: &Bytes,
        evictable: bool,
        promoting: bool,
    ) {
        let size = data.len() as u64;
        for tier in tiers {
            let slot = &self.inner.tiers[tier];
            if promoting && self.inner.promote == PromotePolicy::Evicting {
                self.make_room(tier, size);
            }
            if !fits(slot.source.as_ref(), size) || slot.source.write(id, data.clone()).is_err() {
                continue;
            }
            match self.inner.catalog.claim_fastest(id, tier as u8) {
                Ok(prev) => {
                    slot.counters.fills.inc();
                    slot.counters.bytes_filled.add(size);
                    if promoting {
                        slot.counters.promotions.inc();
                    } else {
                        slot.counters.demotions.inc();
                    }
                    if evictable {
                        slot.promoted.push(id, size);
                    }
                    self.record_claim(tier, id, size, prev);
                }
                // A strictly faster copy won the race; this write never
                // becomes visible — take it back.
                Err(_) => {
                    slot.source.evict(id);
                }
            }
            return;
        }
    }

    /// Read-path eviction: frees space in `tier` by evicting its oldest
    /// read-path promotions (pinned fills stay) until `size` bytes fit
    /// or no evictable entry remains. Victims demote into the next tier
    /// down with free space instead of being dropped.
    fn make_room(&self, tier: usize, size: u64) {
        let slot = &self.inner.tiers[tier];
        let Some(cap) = slot.source.capacity() else {
            return;
        };
        if size > cap {
            return; // could never fit; evicting everything would not help
        }
        // If the pinned residents alone exceed the space the sample
        // needs, no amount of read-path eviction can make it fit —
        // bail out instead of flushing the tier's whole working set.
        // (`bytes()` is a running atomic, not an O(n) queue scan.)
        let evictable = slot.promoted.bytes();
        if slot.source.used().saturating_sub(evictable) + size > cap {
            return;
        }
        loop {
            if slot.source.used() + size <= cap {
                return;
            }
            let Some(victim) = slot.promoted.pop_oldest() else {
                return;
            };
            let vsize = self.size_in(tier, victim);
            // Spill absorption: keep the victim's bytes for demotion
            // (the read pays the tier's modelled read rate, as a real
            // tier-manager's demotion traffic would).
            let vdata = slot.source.read(victim).ok();
            self.uncatalog_from(victim, tier);
            if self.remove(tier, victim, vsize) {
                if let Some(data) = vdata {
                    self.place(tier + 1..self.origin_index(), victim, &data, true, false);
                }
            }
        }
    }
}

fn fits(source: &dyn DataSource, size: u64) -> bool {
    match source.capacity() {
        None => true,
        Some(cap) => source.used().saturating_add(size) <= cap,
    }
}

/// Declarative description of one cache tier, for scenario configs:
/// name, byte capacity, and aggregate read/write rates (model bytes/s).
/// [`TierSpec::build`] realizes it as a rate-throttled memory store —
/// how the runtime models SSD/HDD tiers without the hardware.
#[derive(Debug, Clone, PartialEq)]
pub struct TierSpec {
    /// Tier name ("ram", "ssd", …).
    pub name: String,
    /// Capacity in bytes; `None` = unbounded.
    pub capacity: Option<u64>,
    /// Aggregate read throughput, model bytes/s.
    pub read_rate: f64,
    /// Aggregate write throughput, model bytes/s.
    pub write_rate: f64,
}

impl TierSpec {
    /// A bounded tier.
    pub fn new(name: impl Into<String>, capacity: u64, read_rate: f64, write_rate: f64) -> Self {
        Self {
            name: name.into(),
            capacity: Some(capacity),
            read_rate,
            write_rate,
        }
    }

    /// Realizes the spec as a throttled in-memory source under `scale`.
    pub fn build(&self, scale: TimeScale) -> Arc<dyn DataSource> {
        Arc::new(ThrottledBackend::new(
            MemoryBackend::new(self.name.clone(), self.capacity.unwrap_or(u64::MAX)),
            self.read_rate,
            self.write_rate,
            scale,
        ))
    }
}

/// Builds a [`TierStack`] from cache-tier specs (fastest first) over an
/// `origin` source, its counters in a private registry.
pub fn build_stack(
    specs: &[TierSpec],
    scale: TimeScale,
    origin: Arc<dyn DataSource>,
    promote: PromotePolicy,
) -> TierStack {
    let mut sources: Vec<Arc<dyn DataSource>> = specs.iter().map(|s| s.build(scale)).collect();
    sources.push(origin);
    TierStack::new(sources, promote, &Registry::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn mem(name: &str, cap: u64) -> Arc<dyn DataSource> {
        Arc::new(MemoryBackend::new(name, cap))
    }

    /// An origin preloaded with `n` distinct samples of `size` bytes.
    fn origin_with(n: u64, size: usize) -> Arc<dyn DataSource> {
        let o = MemoryBackend::new("origin", u64::MAX);
        for id in 0..n {
            StorageBackend::insert(&o, id, Bytes::from(vec![(id % 251) as u8; size])).unwrap();
        }
        Arc::new(o)
    }

    #[test]
    fn read_falls_through_to_origin_and_promotes() {
        let stack = TierStack::new(
            vec![mem("ram", 100), origin_with(4, 10)],
            PromotePolicy::IfFits,
            &Registry::new(),
        );
        let data = stack.read(2).unwrap();
        assert_eq!(data, Bytes::from(vec![2u8; 10]));
        // First read: ram missed, origin hit, sample promoted to ram.
        let ram = stack.stats(0);
        assert_eq!((ram.hits, ram.misses, ram.promotions), (0, 1, 1));
        assert_eq!(stack.locate(2), Some(0));
        // Second read: ram hit, origin untouched.
        stack.read(2).unwrap();
        let ram = stack.stats(0);
        let origin = stack.stats(1);
        assert_eq!((ram.hits, ram.misses), (1, 1));
        assert_eq!(origin.hits, 1);
        assert_eq!(origin.capacity, Some(u64::MAX));
    }

    #[test]
    fn middle_tier_hit_promotes_and_moves_upward() {
        let stack = TierStack::new(
            vec![mem("ram", 100), mem("ssd", 100), origin_with(4, 10)],
            PromotePolicy::IfFits,
            &Registry::new(),
        );
        stack.fill(1, 3, Bytes::from(vec![3u8; 10])).unwrap();
        assert_eq!(stack.locate(3), Some(1));
        let data = stack.read(3).unwrap();
        assert_eq!(data[0], 3);
        // Hit at ssd, then moved up into ram (ssd copy dropped).
        assert_eq!(stack.locate(3), Some(0));
        assert_eq!(stack.stats(1).evictions, 1);
        assert_eq!(stack.source(1).count(), 0);
        assert_eq!(stack.source(0).count(), 1);
        // Origin never consulted.
        assert_eq!(stack.stats(2).hits, 0);
    }

    #[test]
    fn full_tier_is_skipped_by_if_fits() {
        let stack = TierStack::new(
            vec![mem("ram", 15), mem("ssd", 100), origin_with(4, 10)],
            PromotePolicy::IfFits,
            &Registry::new(),
        );
        stack.read(0).unwrap(); // promoted into ram (10 of 15 used)
        stack.read(1).unwrap(); // ram full -> promoted into ssd
        assert_eq!(stack.locate(0), Some(0));
        assert_eq!(stack.locate(1), Some(1));
        assert_eq!(stack.stats(0).promotions, 1);
        assert_eq!(stack.stats(1).promotions, 1);
    }

    #[test]
    fn evicting_policy_displaces_oldest_promotion_only() {
        let stack = TierStack::new(
            vec![mem("ram", 25), origin_with(6, 10)],
            PromotePolicy::Evicting,
            &Registry::new(),
        );
        // A pinned fill takes 10 of the 25 bytes.
        stack.fill(0, 5, Bytes::from(vec![5u8; 10])).unwrap();
        stack.read(0).unwrap(); // promotes 0 (20/25 used)
        stack.read(1).unwrap(); // must evict 0 to fit 1
        assert_eq!(stack.locate(0), None, "oldest promotion evicted");
        assert_eq!(stack.locate(1), Some(0));
        assert_eq!(stack.locate(5), Some(0), "pinned fill survives");
        let ram = stack.stats(0);
        assert_eq!(ram.evictions, 1);
        assert_eq!(ram.bytes_evicted, 10);
        assert!(ram.used <= 25);
    }

    #[test]
    fn eviction_victims_demote_to_the_next_tier() {
        // RAM holds 2 samples, SSD holds 4: scanning 6 samples spills
        // RAM's victims into the SSD instead of dropping them.
        let stack = TierStack::new(
            vec![mem("ram", 20), mem("ssd", 40), origin_with(6, 10)],
            PromotePolicy::Evicting,
            &Registry::new(),
        );
        for id in 0..6 {
            stack.read(id).unwrap();
        }
        let ssd = stack.stats(1);
        assert!(ssd.demotions > 0, "no spill absorbed: {ssd:?}");
        assert_eq!(ssd.demotions, ssd.fills);
        // Every demoted sample is still cache-served (and cataloged).
        let cached = (0..6).filter(|&id| stack.locate(id).is_some()).count();
        assert_eq!(cached, 6, "RAM(2) + SSD(4) hold the whole scan");
        let origin_before = stack.stats(2).hits;
        for id in 0..6 {
            stack.read(id).unwrap();
        }
        // Promotion churn may drop an early victim while the SSD is
        // momentarily full, but the re-scan must be almost entirely
        // cache-served — without demotion every RAM spill would be
        // lost and the origin would see most of the scan again.
        assert!(
            stack.stats(2).hits - origin_before <= 2,
            "re-scan mostly cache-served: {} extra origin hits",
            stack.stats(2).hits - origin_before
        );
    }

    #[test]
    fn never_policy_leaves_tiers_untouched() {
        let stack = TierStack::new(
            vec![mem("ram", 100), origin_with(4, 10)],
            PromotePolicy::Never,
            &Registry::new(),
        );
        stack.read(1).unwrap();
        stack.read(1).unwrap();
        assert_eq!(stack.stats(0).fills, 0);
        assert_eq!(stack.stats(1).hits, 2);
        assert_eq!(stack.locate(1), None);
    }

    #[test]
    fn origin_only_stack_serves_everything_from_origin() {
        let stack = TierStack::origin_only(origin_with(3, 8), &Registry::new());
        assert_eq!(stack.num_tiers(), 1);
        assert_eq!(stack.cache_tiers(), 0);
        for id in 0..3 {
            assert_eq!(stack.read(id).unwrap().len(), 8);
        }
        assert_eq!(stack.stats(0).hits, 3);
    }

    #[test]
    fn missing_sample_is_not_found() {
        let stack = TierStack::new(
            vec![mem("ram", 100), origin_with(2, 4)],
            PromotePolicy::IfFits,
            &Registry::new(),
        );
        assert_eq!(stack.read(99), Err(SourceError::NotFound(99)));
        assert!(!stack.contains(99));
        assert!(stack.contains(0));
    }

    #[test]
    fn get_cached_serves_only_cataloged_samples() {
        let stack = TierStack::new(
            vec![mem("ram", 100), origin_with(4, 10)],
            PromotePolicy::Never,
            &Registry::new(),
        );
        assert!(stack.get_cached(1).is_none());
        stack.fill(0, 1, Bytes::from(vec![1u8; 10])).unwrap();
        assert_eq!(stack.get_cached(1).unwrap().len(), 10);
        // A raced eviction behind the stack's back repairs the catalog.
        assert!(stack.source(0).evict(1));
        assert!(stack.get_cached(1).is_none());
        assert_eq!(stack.locate(1), None);
    }

    #[test]
    fn locate_each_matches_locate() {
        let stack = TierStack::new(
            vec![mem("ram", 100), mem("ssd", 100), origin_with(40, 1)],
            PromotePolicy::Never,
            &Registry::new(),
        );
        for id in 0..40 {
            if id % 3 != 2 {
                stack
                    .fill((id % 3) as usize, id, Bytes::from(vec![1u8]))
                    .unwrap();
            }
        }
        let ids: Vec<SampleId> = (0..40).rev().chain([7, 7, 1 << 40]).collect();
        let mut each = Vec::new();
        stack.locate_each(&ids, |t| each.push(t));
        let one_by_one: Vec<_> = ids.iter().map(|&id| stack.locate(id)).collect();
        assert_eq!(each, one_by_one);
    }

    #[test]
    fn a_tiers_transient_error_fails_the_fetch_and_keeps_the_entry() {
        use crate::fault::{ErrorInjection, FaultySource};
        // A cache tier that fails every other read of a sample: one
        // injected failure, then one clean read.
        let ram = Arc::new(FaultySource::new(
            mem("ram", 100),
            ErrorInjection::new(0.999, 1, 7),
        ));
        let stack = TierStack::new(
            vec![ram.clone(), origin_with(4, 10)],
            PromotePolicy::Never,
            &Registry::new(),
        );
        stack.fill(0, 1, Bytes::from(vec![1u8; 10])).unwrap();
        assert!(stack.get_cached(1).is_none());
        assert_eq!(ram.injected(), 1, "the read failed in the tier");
        // The bytes are still resident, so the entry must be too:
        // dropping it would orphan them (capacity spent, never served).
        assert_eq!(stack.locate(1), Some(0));
        assert_eq!(stack.source(0).used(), 10);
        let ram_stats = stack.stats(0);
        assert_eq!((ram_stats.hits, ram_stats.misses), (0, 0));
        // The burst over, the tier serves the sample again.
        assert_eq!(stack.get_cached(1), Some(Bytes::from(vec![1u8; 10])));
        assert_eq!(stack.stats(0).hits, 1);
    }

    #[test]
    fn explicit_evict_updates_catalog_and_stats() {
        let stack = TierStack::new(
            vec![mem("ram", 100), origin_with(4, 10)],
            PromotePolicy::IfFits,
            &Registry::new(),
        );
        stack.read(2).unwrap();
        assert!(stack.evict(0, 2));
        assert!(!stack.evict(0, 2));
        let ram = stack.stats(0);
        assert_eq!(ram.evictions, 1);
        assert_eq!(ram.bytes_evicted, 10);
        assert_eq!(stack.cached_count(), 0);
        // The sample is still readable (origin authoritative).
        assert!(stack.read(2).is_ok());
    }

    #[test]
    fn pinned_fill_stays_pinned_across_promotion() {
        // A pinned ssd fill promoted into ram must NOT become a
        // read-path resident there: later capacity pressure may never
        // evict the clairvoyantly planned placement.
        let stack = TierStack::new(
            vec![mem("ram", 20), mem("ssd", 100), origin_with(6, 10)],
            PromotePolicy::Evicting,
            &Registry::new(),
        );
        stack.fill(1, 5, Bytes::from(vec![5u8; 10])).unwrap();
        stack.read(5).unwrap(); // moved ssd -> ram, still pinned
        assert_eq!(stack.locate(5), Some(0));
        // Scan everything else: ram is full (pin + one resident slot),
        // churning read-path promotions around the pin.
        for _ in 0..2 {
            for id in 0..5 {
                stack.read(id).unwrap();
            }
        }
        assert_eq!(
            stack.locate(5),
            Some(0),
            "promoted pinned fill was evicted by read-path pressure"
        );
    }

    #[test]
    fn stale_catalog_read_counts_one_miss_per_tier() {
        let stack = TierStack::new(
            vec![mem("ram", 100), origin_with(4, 10)],
            PromotePolicy::Never,
            &Registry::new(),
        );
        stack.fill(0, 1, Bytes::from(vec![1u8; 10])).unwrap();
        // Evict behind the stack's back: the next read finds a stale
        // catalog entry, repairs it, and falls through to the origin —
        // recording exactly ONE miss for the stale tier.
        assert!(stack.source(0).evict(1));
        assert_eq!(stack.read(1).unwrap().len(), 10);
        let ram = stack.stats(0);
        assert_eq!((ram.hits, ram.misses), (0, 1));
        assert_eq!(stack.stats(1).hits, 1);
        assert_eq!(stack.locate(1), None, "stale entry repaired");
    }

    #[test]
    fn make_room_spares_working_set_when_pinned_fills_block_fit() {
        // Pinned fills hold 20 of 25 bytes; an 8-byte promotion can
        // never fit, so the resident 5-byte promotion must survive.
        let o = MemoryBackend::new("origin", u64::MAX);
        StorageBackend::insert(&o, 0, Bytes::from(vec![0u8; 5])).unwrap();
        StorageBackend::insert(&o, 1, Bytes::from(vec![1u8; 8])).unwrap();
        let stack = TierStack::new(
            vec![mem("ram", 25), Arc::new(o)],
            PromotePolicy::Evicting,
            &Registry::new(),
        );
        stack.fill(0, 9, Bytes::from(vec![9u8; 20])).unwrap();
        stack.read(0).unwrap(); // 5-byte promotion fits (25/25 used)
        assert_eq!(stack.locate(0), Some(0));
        stack.read(1).unwrap(); // 8 bytes can never fit next to the pin
        assert_eq!(
            stack.locate(0),
            Some(0),
            "hopeless promotion must not flush the working set"
        );
        assert_eq!(stack.stats(0).evictions, 0);
    }

    #[test]
    fn zero_capacity_tier_degrades_to_flat() {
        let stack = TierStack::new(
            vec![mem("ram", 0), origin_with(4, 10)],
            PromotePolicy::Evicting,
            &Registry::new(),
        );
        for id in 0..4 {
            assert_eq!(stack.read(id).unwrap().len(), 10);
        }
        let ram = stack.stats(0);
        assert_eq!(ram.fills, 0);
        assert_eq!(ram.used, 0);
        assert_eq!(stack.stats(1).hits, 4);
    }

    #[test]
    fn tier_spec_builds_throttled_sources() {
        let spec = TierSpec::new("ssd", 1_000, 1e12, 1e12);
        let src = spec.build(TimeScale::realtime());
        assert_eq!(src.name(), "ssd");
        assert_eq!(src.capacity(), Some(1_000));
        let stack = build_stack(
            &[spec],
            TimeScale::realtime(),
            origin_with(2, 10),
            PromotePolicy::IfFits,
        );
        assert_eq!(stack.num_tiers(), 2);
        assert_eq!(stack.read(0).unwrap().len(), 10);
        assert_eq!(stack.locate(0), Some(0));
    }

    #[test]
    fn hit_rate_reports_fraction() {
        let stack = TierStack::new(
            vec![mem("ram", 100), origin_with(2, 10)],
            PromotePolicy::IfFits,
            &Registry::new(),
        );
        stack.read(0).unwrap(); // miss
        stack.read(0).unwrap(); // hit
        stack.read(0).unwrap(); // hit
        let s = stack.stats(0);
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(TierStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn promoted_set_is_exact_fifo_with_o1_removal() {
        let p = PromotedSet::new();
        for id in 0..8u64 {
            p.push(id, 10);
        }
        assert_eq!(p.bytes(), 80);
        assert!(p.contains(3));
        // O(1) removal leaves a stale queue entry behind…
        p.remove(0);
        p.remove(2);
        assert_eq!(p.bytes(), 60);
        assert!(!p.contains(0));
        // …which pop skips: global FIFO over the live members.
        assert_eq!(p.pop_oldest(), Some(1));
        // Re-pushing moves an id to the back of the FIFO.
        p.push(3, 10);
        assert_eq!(p.pop_oldest(), Some(4));
        assert_eq!(p.pop_oldest(), Some(5));
        assert_eq!(p.pop_oldest(), Some(6));
        assert_eq!(p.pop_oldest(), Some(7));
        assert_eq!(p.pop_oldest(), Some(3), "re-push lands last");
        assert_eq!(p.pop_oldest(), None);
        assert_eq!(p.bytes(), 0);
    }

    #[test]
    fn read_many_matches_sequential_reads() {
        // Two identical stacks; one read sample-by-sample, one vectored.
        // Bytes, catalog placement, and every per-tier counter agree.
        let build = || {
            let stack = TierStack::new(
                vec![mem("ram", 40), origin_with(8, 10)],
                PromotePolicy::Evicting,
                &Registry::new(),
            );
            stack.fill(0, 7, Bytes::from(vec![7u8; 10])).unwrap();
            stack
        };
        let seq = build();
        let vec_ = build();
        let ids = [7, 0, 1, 7, 5, 3];
        let a: Vec<_> = ids.iter().map(|&id| seq.read(id)).collect();
        let b = vec_.read_many(&ids);
        assert_eq!(a, b);
        assert_eq!(seq.all_stats(), vec_.all_stats());
        for id in 0..8 {
            assert_eq!(seq.locate(id), vec_.locate(id), "placement of {id}");
        }
    }

    #[test]
    fn read_many_reports_missing_ids_in_position() {
        let stack = TierStack::new(
            vec![mem("ram", 100), origin_with(4, 10)],
            PromotePolicy::IfFits,
            &Registry::new(),
        );
        let res = stack.read_many(&[2, 99, 0]);
        assert_eq!(res[0].as_ref().unwrap()[0], 2);
        assert_eq!(res[1], Err(SourceError::NotFound(99)));
        assert_eq!(res[2].as_ref().unwrap().len(), 10);
        // Found ids were promoted; the missing one counted an origin miss.
        assert_eq!(stack.locate(2), Some(0));
        assert_eq!(stack.stats(1).misses, 1);
    }

    #[test]
    fn read_many_repairs_stale_entries_with_one_miss() {
        let stack = TierStack::new(
            vec![mem("ram", 100), origin_with(4, 10)],
            PromotePolicy::Never,
            &Registry::new(),
        );
        stack.fill(0, 1, Bytes::from(vec![1u8; 10])).unwrap();
        assert!(stack.source(0).evict(1));
        let res = stack.read_many(&[1, 2]);
        assert!(res.iter().all(|r| r.is_ok()));
        let ram = stack.stats(0);
        // id 1: one stale miss; id 2: one ordinary miss.
        assert_eq!((ram.hits, ram.misses), (0, 2));
        assert_eq!(stack.stats(1).hits, 2);
        assert_eq!(stack.locate(1), None, "stale entry repaired");
    }

    #[test]
    fn concurrent_reads_keep_capacity_consistent() {
        let stack = TierStack::new(
            vec![mem("ram", 55), origin_with(64, 10)],
            PromotePolicy::Evicting,
            &Registry::new(),
        );
        std::thread::scope(|s| {
            for t in 0..4 {
                let stack = stack.clone();
                s.spawn(move || {
                    for i in 0..64u64 {
                        stack.read((i + t * 16) % 64).unwrap();
                    }
                });
            }
        });
        let ram = stack.stats(0);
        assert!(ram.used <= 55, "capacity exceeded: {}", ram.used);
        assert_eq!(ram.used, stack.source(0).used());
    }

    /// Which call of a [`Gated`] source parks.
    #[derive(Clone, Copy, PartialEq)]
    enum Park {
        Read,
        Evict,
    }

    /// A memory tier whose first `park` call after [`Gated::arm`] does
    /// its work, reports that it has, and then waits for the test to
    /// let it return: a deterministic schedule for a race.
    struct Gated {
        inner: MemoryBackend,
        park: Park,
        gate: Mutex<Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>>,
    }

    impl Gated {
        fn new(inner: MemoryBackend, park: Park) -> Self {
            Self {
                inner,
                park,
                gate: Mutex::new(None),
            }
        }

        /// Arms the gate: returns the receiver that hears the parked
        /// call and the sender that lets it return.
        fn arm(&self) -> (mpsc::Receiver<()>, mpsc::Sender<()>) {
            let (parked, on_park) = mpsc::channel();
            let (resume, on_resume) = mpsc::channel();
            *self.gate.lock() = Some((parked, on_resume));
            (on_park, resume)
        }

        fn pass(&self, call: Park) {
            if call != self.park {
                return;
            }
            let gate = self.gate.lock().take();
            if let Some((parked, resume)) = gate {
                parked.send(()).expect("the test awaits the parked call");
                resume.recv().expect("the test resumes the parked call");
            }
        }
    }

    impl DataSource for Gated {
        fn name(&self) -> &str {
            StorageBackend::name(&self.inner)
        }
        fn read(&self, id: SampleId) -> Result<Bytes, SourceError> {
            let r = DataSource::read(&self.inner, id);
            self.pass(Park::Read);
            r
        }
        fn write(&self, id: SampleId, data: Bytes) -> Result<(), SourceError> {
            DataSource::write(&self.inner, id, data)
        }
        fn contains(&self, id: SampleId) -> bool {
            StorageBackend::contains(&self.inner, id)
        }
        fn capacity(&self) -> Option<u64> {
            Some(StorageBackend::capacity(&self.inner))
        }
        fn used(&self) -> u64 {
            StorageBackend::used(&self.inner)
        }
        fn evict(&self, id: SampleId) -> bool {
            let removed = StorageBackend::evict(&self.inner, id);
            self.pass(Park::Evict);
            removed
        }
        fn count(&self) -> usize {
            StorageBackend::count(&self.inner)
        }
        fn size_of(&self, id: SampleId) -> Option<u64> {
            StorageBackend::size_of(&self.inner, id)
        }
    }

    /// A stack over a gated RAM tier and an origin of four 7-byte
    /// samples, with sample 1 promoted into RAM.
    fn gated_stack(park: Park) -> (TierStack, Arc<Gated>) {
        let ram = Arc::new(Gated::new(MemoryBackend::new("ram", 100), park));
        let stack = TierStack::new(
            vec![ram.clone(), origin_with(4, 7)],
            PromotePolicy::IfFits,
            &Registry::new(),
        );
        stack.read(1).unwrap();
        assert_eq!(stack.locate(1), Some(0));
        (stack, ram)
    }

    /// No resident bytes outlive their catalog entry.
    fn assert_cataloged(stack: &TierStack, ids: std::ops::Range<SampleId>) {
        for tier in 0..stack.cache_tiers() {
            let source = stack.source(tier);
            for id in ids.clone() {
                if let Some(size) = source.size_of(id) {
                    assert_eq!(
                        stack.locate(id),
                        Some(tier),
                        "{} holds {size} B but the catalog says {:?}",
                        source.name(),
                        stack.locate(id)
                    );
                }
            }
        }
    }

    #[test]
    fn a_read_racing_an_eviction_keeps_its_copy_cataloged() {
        let (stack, ram) = gated_stack(Park::Evict);
        let (parked, resume) = ram.arm();
        std::thread::scope(|s| {
            let evicting = s.spawn(|| stack.evict(0, 1));
            // The eviction has taken the bytes and not yet returned.
            parked.recv().unwrap();
            assert_eq!(stack.read(1).unwrap(), Bytes::from(vec![1u8; 7]));
            resume.send(()).unwrap();
            assert!(evicting.join().unwrap());
        });
        assert_cataloged(&stack, 0..4);
        assert_eq!(stack.get_cached(1), Some(Bytes::from(vec![1u8; 7])));
    }

    #[test]
    fn a_read_racing_a_stale_repair_keeps_its_copy_cataloged() {
        let (stack, ram) = gated_stack(Park::Read);
        // Behind the stack's back: the entry goes stale.
        assert!(stack.source(0).evict(1));
        let (parked, resume) = ram.arm();
        std::thread::scope(|s| {
            let serving = s.spawn(|| stack.get_cached(1));
            // The serving read has seen `NotFound`, not yet repaired.
            parked.recv().unwrap();
            // Repairs the entry, reads the origin and promotes again.
            assert_eq!(stack.read(1).unwrap(), Bytes::from(vec![1u8; 7]));
            resume.send(()).unwrap();
            assert_eq!(serving.join().unwrap(), None);
        });
        assert_cataloged(&stack, 0..4);
        assert_eq!(stack.get_cached(1), Some(Bytes::from(vec![1u8; 7])));
    }
}
