//! A synthetic parallel filesystem (PFS) for runtime experiments.
//!
//! The paper's experiments start with data at rest on GPFS or Lustre and
//! revolve around one property of such systems: aggregate random-read
//! throughput is a function `t(γ)` of the number of concurrent clients —
//! near-linear at first, then saturating, so that per-client bandwidth
//! collapses as training jobs scale out. No real PFS is available here,
//! so this crate substitutes one: objects live in memory or in a local
//! directory, and every read is paced through a shared regulator whose
//! aggregate rate tracks a configurable `t(γ)` curve of the *live reader
//! count*. Real bytes move through the same code paths a real PFS client
//! would exercise (lookup, read, checksum-able contents), and the
//! contention behaviour — the thing the paper's results hinge on — is
//! reproduced faithfully.
//!
//! A fault table makes chosen reads fail transiently: a fault plan's
//! read errors are planted there (`nopfs_policy::ReadErrors`), and
//! failure-path tests plant their own.

use bytes::Bytes;
use nopfs_obs::{names, Counter, Registry};
use nopfs_perfmodel::ThroughputCurve;
use nopfs_storage::ShardedMap;
use nopfs_util::rate::TokenBucket;
use nopfs_util::timing::TimeScale;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Object key: the dense sample id used across the workspace.
pub type ObjectId = u64;

/// PFS errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PfsError {
    /// No object with this id exists.
    NotFound(ObjectId),
    /// An injected or real I/O failure.
    Io(String),
}

impl std::fmt::Display for PfsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PfsError::NotFound(id) => write!(f, "object {id} not found"),
            PfsError::Io(msg) => write!(f, "I/O error: {msg}"),
        }
    }
}

impl std::error::Error for PfsError {}

/// Where object payloads live. Both variants keep their id-keyed maps
/// sharded ([`ShardedMap`]) so concurrent readers of different objects
/// never contend on one lock word — the PFS regulator models the
/// *device's* `t(γ)` contention; the client data structures should add
/// none of their own.
enum Store {
    Memory(ShardedMap<Bytes>),
    Disk {
        dir: PathBuf,
        /// Sizes are kept in memory so metadata queries don't touch disk.
        sizes: ShardedMap<u64>,
    },
}

/// Cumulative traffic counters, `pfs.*` metrics in the PFS's own
/// registry; [`PfsStats`] is the typed view over them.
#[derive(Debug)]
struct Stats {
    reads: Counter,
    bytes_read: Counter,
    writes: Counter,
    bytes_written: Counter,
}

impl Stats {
    fn new() -> Self {
        let registry = Registry::new();
        Self {
            reads: registry.counter(names::PFS_READS),
            bytes_read: registry.counter(names::PFS_BYTES_READ),
            writes: registry.counter(names::PFS_WRITES),
            bytes_written: registry.counter(names::PFS_BYTES_WRITTEN),
        }
    }
}

/// Cumulative PFS traffic statistics, snapshotted by [`Pfs::stats`].
/// Shared across every namespace of one filesystem.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PfsStats {
    /// Objects read.
    pub reads: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Objects written.
    pub writes: u64,
    /// Bytes written.
    pub bytes_written: u64,
}

impl From<PfsStats> for nopfs_storage::TierStats {
    /// The PFS viewed as the origin tier of a hierarchy: every read is
    /// a hit (the origin is authoritative), writes are fills.
    fn from(s: PfsStats) -> Self {
        nopfs_storage::TierStats {
            name: "pfs".to_string(),
            hits: s.reads,
            bytes_read: s.bytes_read,
            fills: s.writes,
            bytes_filled: s.bytes_written,
            ..Default::default()
        }
    }
}

/// The synthetic parallel filesystem. Cloneable handle (`Arc` inside);
/// every clone shares the same regulator — that is the contention.
///
/// A handle carries an id-namespace `base` (see [`Pfs::namespaced`]):
/// object ids are offset by it on every operation, so several
/// independent jobs — each addressing its own dense `0..F` sample id
/// space — can store their datasets side by side on **one** filesystem.
/// Namespaced handles share the store, the `t(γ)` regulator, the live
/// reader count, and the cumulative statistics; only the id mapping
/// differs. That sharing is the whole point: a reader from any tenant
/// raises `γ` for every tenant, which is the cross-job contention the
/// paper's Fig. 2 argues from.
#[derive(Clone)]
pub struct Pfs {
    inner: Arc<PfsInner>,
    /// Added to every object id before it reaches the store.
    base: ObjectId,
}

struct PfsInner {
    store: Store,
    curve: ThroughputCurve,
    scale: TimeScale,
    regulator: TokenBucket,
    readers: AtomicUsize,
    stats: Stats,
    /// Bytes at rest across every namespace (occupancy, not traffic).
    stored_bytes: AtomicU64,
    /// Injected faults: id → remaining failures to serve.
    faults: Mutex<HashMap<ObjectId, u32>>,
    /// Fast path: whether any fault was ever injected. Production reads
    /// check this relaxed flag and skip the `faults` mutex entirely —
    /// otherwise every read on every thread would serialize on it.
    has_faults: AtomicBool,
}

impl Pfs {
    /// An in-memory PFS paced by `curve` (model bytes/s as a function of
    /// reader count) under `scale`.
    pub fn in_memory(curve: ThroughputCurve, scale: TimeScale) -> Self {
        Self::build(Store::Memory(ShardedMap::new()), curve, scale)
    }

    /// A disk-backed PFS storing objects as files under `dir`
    /// (created if missing).
    ///
    /// # Panics
    /// Panics if the directory cannot be created.
    pub fn on_disk(dir: impl Into<PathBuf>, curve: ThroughputCurve, scale: TimeScale) -> Self {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).expect("failed to create PFS directory");
        Self::build(
            Store::Disk {
                dir,
                sizes: ShardedMap::new(),
            },
            curve,
            scale,
        )
    }

    fn build(store: Store, curve: ThroughputCurve, scale: TimeScale) -> Self {
        let initial = scale.rate_to_wall(curve.at(1.0));
        Self {
            inner: Arc::new(PfsInner {
                store,
                curve,
                scale,
                regulator: TokenBucket::with_burst_window(initial, 0.01),
                readers: AtomicUsize::new(0),
                stats: Stats::new(),
                stored_bytes: AtomicU64::new(0),
                faults: Mutex::new(HashMap::new()),
                has_faults: AtomicBool::new(false),
            }),
            base: 0,
        }
    }

    /// A handle onto the **same** filesystem whose object ids are offset
    /// by `base`: id `k` through the returned handle addresses object
    /// `base + k` in the shared store. Namespaces compose — calling
    /// `namespaced` on an already-namespaced handle offsets further.
    ///
    /// This is the multi-tenant injection point: give each co-scheduled
    /// job a namespace wide enough for its dataset and every job keeps
    /// its dense `0..F` sample ids while all of them contend on the one
    /// shared `t(γ)` regulator.
    ///
    /// # Panics
    /// Panics if the combined offset overflows the id space.
    pub fn namespaced(&self, base: ObjectId) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
            base: self
                .base
                .checked_add(base)
                .expect("namespace offset overflows the object id space"),
        }
    }

    /// The id offset this handle applies (0 for the root namespace).
    pub fn namespace_base(&self) -> ObjectId {
        self.base
    }

    /// Maps a namespace-local id onto the shared store's id space.
    fn global_id(&self, id: ObjectId) -> ObjectId {
        self.base
            .checked_add(id)
            .expect("object id overflows its namespace")
    }

    fn object_path(dir: &std::path::Path, id: ObjectId) -> PathBuf {
        // Two-level fan-out keeps directories small for large datasets.
        dir.join(format!("{:03}", id % 997))
            .join(format!("{id}.bin"))
    }

    /// Stores an object (dataset materialization; not paced — the paper's
    /// runs start "with data at rest on a PFS").
    pub fn put(&self, id: ObjectId, data: Bytes) {
        let id = self.global_id(id);
        let size = data.len() as u64;
        self.inner.stats.writes.inc();
        self.inner.stats.bytes_written.add(size);
        let replaced = match &self.inner.store {
            Store::Memory(map) => map.insert(id, data).map_or(0, |old| old.len() as u64),
            Store::Disk { dir, sizes } => {
                let path = Self::object_path(dir, id);
                std::fs::create_dir_all(path.parent().expect("object path has a parent"))
                    .expect("failed to create PFS fan-out directory");
                std::fs::write(&path, &data).expect("failed to write PFS object");
                sizes.insert(id, size).unwrap_or(0)
            }
        };
        self.inner.stored_bytes.fetch_add(size, Ordering::Relaxed);
        self.inner
            .stored_bytes
            .fetch_sub(replaced, Ordering::Relaxed);
    }

    /// Deletes an object, returning whether it existed. Not paced —
    /// deletions are metadata operations on real parallel filesystems.
    pub fn remove(&self, id: ObjectId) -> bool {
        let id = self.global_id(id);
        let removed = match &self.inner.store {
            Store::Memory(map) => map.remove(id).map(|b| b.len() as u64),
            Store::Disk { dir, sizes } => {
                let size = sizes.remove(id);
                if size.is_some() {
                    std::fs::remove_file(Self::object_path(dir, id)).ok();
                }
                size
            }
        };
        match removed {
            Some(size) => {
                self.inner.stored_bytes.fetch_sub(size, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    /// Bytes at rest across every namespace (occupancy, not traffic).
    pub fn total_bytes(&self) -> u64 {
        self.inner.stored_bytes.load(Ordering::Relaxed)
    }

    /// Size of an object without reading it (metadata operation, free).
    pub fn size_of(&self, id: ObjectId) -> Option<u64> {
        let id = self.global_id(id);
        match &self.inner.store {
            Store::Memory(map) => map.with(id, |b| b.len() as u64),
            Store::Disk { sizes, .. } => sizes.get(id),
        }
    }

    /// Whether an object exists.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.size_of(id).is_some()
    }

    /// Number of stored objects, across every namespace.
    pub fn len(&self) -> usize {
        match &self.inner.store {
            Store::Memory(map) => map.len(),
            Store::Disk { sizes, .. } => sizes.len(),
        }
    }

    /// Whether the PFS is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Injected-fault check for one read attempt. Fires before any
    /// pacing, like a failed RPC. The relaxed `has_faults` flag keeps
    /// fault-free production reads off the fault table's mutex.
    fn check_fault(&self, id: ObjectId) -> Result<(), PfsError> {
        if !self.inner.has_faults.load(Ordering::Relaxed) {
            return Ok(());
        }
        let gid = self.global_id(id);
        if let Some(remaining) = self.inner.faults.lock().get_mut(&gid) {
            if *remaining > 0 {
                *remaining -= 1;
                return Err(PfsError::Io(format!("injected fault for object {id}")));
            }
        }
        Ok(())
    }

    /// Fetches an object's bytes from the store, unpaced. Errors carry
    /// the caller's (namespace-local) id; the store is addressed by the
    /// offset global id.
    fn load(&self, id: ObjectId) -> Result<Bytes, PfsError> {
        let gid = self.global_id(id);
        match &self.inner.store {
            Store::Memory(map) => map.get(gid).ok_or(PfsError::NotFound(id)),
            Store::Disk { dir, .. } => {
                let path = Self::object_path(dir, gid);
                match std::fs::read(&path) {
                    Ok(v) => Ok(Bytes::from(v)),
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                        Err(PfsError::NotFound(id))
                    }
                    Err(e) => Err(PfsError::Io(e.to_string())),
                }
            }
        }
    }

    /// Reads an object, paying the contention-modelled cost: the caller
    /// joins the reader set, the shared regulator's aggregate rate is
    /// set to `t(γ)` for the live reader count `γ`, and the read is
    /// paced through it. The length-1 case of [`Self::read_many`]'s
    /// batch, which is the PFS's one read path.
    pub fn read(&self, id: ObjectId) -> Result<Bytes, PfsError> {
        let mut got = None;
        self.read_batch(&[id], |r| got = Some(r));
        got.expect("one result per id")
    }

    /// Vectored read: one result per id, in order, with **one** reader
    /// registration and **one** regulator charge for the whole batch.
    /// The collecting form of the loop behind [`Self::read`] and the
    /// PFS's [`DataSource::read_each`](nopfs_storage::DataSource::read_each).
    ///
    /// A real PFS client contributes one stream to `t(γ)` no matter how
    /// many objects it drains down it, so the batch registers one
    /// reader. It is also paced as one transfer: once every id is
    /// loaded, the regulator is charged the bytes found in one
    /// `acquire` while the registration is still held, and the traffic
    /// counters are booked once. The regulator is debt-based, so one
    /// caller's `acquire(a); acquire(b)` waits as long as
    /// `acquire(a + b)` — the batch takes the time its objects would
    /// take one by one, and pays the regulator's lock and clock once
    /// instead of once per object. Fault checks stay per object; an id
    /// that is missing or faulted charges nothing.
    pub fn read_many(&self, ids: &[ObjectId]) -> Vec<Result<Bytes, PfsError>> {
        let mut results = Vec::with_capacity(ids.len());
        self.read_batch(ids, |r| results.push(r));
        results
    }

    /// The PFS's one read path, behind [`Self::read`],
    /// [`Self::read_many`] and the
    /// [`DataSource::read_each`](nopfs_storage::DataSource::read_each)
    /// override, batched as [`Self::read_many`] says: `sink` gets one
    /// result per id, in order, as it is loaded; the call returns once
    /// the batch is paid for.
    fn read_batch(&self, ids: &[ObjectId], mut sink: impl FnMut(Result<Bytes, PfsError>)) {
        let guard = ReaderGuard::enter(&self.inner);
        let (mut reads, mut bytes) = (0u64, 0u64);
        for &id in ids {
            let r = self.check_fault(id).and_then(|()| self.load(id));
            if let Ok(data) = &r {
                reads += 1;
                bytes += data.len() as u64;
            }
            sink(r);
        }
        if reads == 0 {
            return;
        }
        self.inner.regulator.acquire(bytes);
        drop(guard);
        self.inner.stats.reads.add(reads);
        self.inner.stats.bytes_read.add(bytes);
    }

    /// Current number of in-flight readers (`γ`).
    pub fn reader_count(&self) -> usize {
        self.inner.readers.load(Ordering::Relaxed)
    }

    /// The modelled aggregate read rate at `gamma` clients, model bytes/s.
    pub fn rate_at(&self, gamma: usize) -> f64 {
        self.inner.curve.at(gamma.max(1) as f64)
    }

    /// Makes the next `times` reads of `id` fail with an I/O error,
    /// replacing any faults of `id` still pending. Every harness plants
    /// a fault plan's `ReadErrors` bursts here, beneath the loaders'
    /// origin retry loop; failure-path tests call it directly.
    pub fn inject_fault(&self, id: ObjectId, times: u32) {
        self.inner.faults.lock().insert(self.global_id(id), times);
        self.inner.has_faults.store(true, Ordering::Relaxed);
    }

    /// Cumulative traffic statistics (shared across every namespace).
    pub fn stats(&self) -> PfsStats {
        PfsStats {
            reads: self.inner.stats.reads.get(),
            bytes_read: self.inner.stats.bytes_read.get(),
            writes: self.inner.stats.writes.get(),
            bytes_written: self.inner.stats.bytes_written.get(),
        }
    }
}

/// The PFS as one tier of the storage hierarchy: the unbounded,
/// authoritative origin every [`nopfs_storage::TierStack`] bottoms out
/// in. Reads pace through the shared `t(γ)` regulator like any other
/// PFS read, so tier traffic and direct traffic contend identically.
impl From<PfsError> for nopfs_storage::SourceError {
    fn from(e: PfsError) -> Self {
        match e {
            PfsError::NotFound(id) => nopfs_storage::SourceError::NotFound(id),
            PfsError::Io(msg) => nopfs_storage::SourceError::Io(msg),
        }
    }
}

impl nopfs_storage::DataSource for Pfs {
    fn name(&self) -> &str {
        "pfs"
    }

    fn read(&self, id: ObjectId) -> Result<Bytes, nopfs_storage::SourceError> {
        Pfs::read(self, id).map_err(Into::into)
    }

    fn read_each(
        &self,
        ids: &[ObjectId],
        sink: &mut dyn FnMut(Result<Bytes, nopfs_storage::SourceError>),
    ) {
        self.read_batch(ids, |r| sink(r.map_err(Into::into)));
    }

    fn write(&self, id: ObjectId, data: Bytes) -> Result<(), nopfs_storage::SourceError> {
        self.put(id, data);
        Ok(())
    }

    fn contains(&self, id: ObjectId) -> bool {
        Pfs::contains(self, id)
    }

    fn capacity(&self) -> Option<u64> {
        None
    }

    fn used(&self) -> u64 {
        self.total_bytes()
    }

    fn evict(&self, id: ObjectId) -> bool {
        self.remove(id)
    }

    fn count(&self) -> usize {
        self.len()
    }

    fn size_of(&self, id: ObjectId) -> Option<u64> {
        Pfs::size_of(self, id)
    }
}

/// RAII reader registration: adjusts γ and retunes the shared regulator
/// on entry and exit.
struct ReaderGuard<'a> {
    inner: &'a PfsInner,
}

impl<'a> ReaderGuard<'a> {
    fn enter(inner: &'a PfsInner) -> Self {
        let gamma = inner.readers.fetch_add(1, Ordering::SeqCst) + 1;
        inner.regulator.set_rate(
            inner
                .scale
                .rate_to_wall(inner.curve.at(gamma as f64))
                .max(1.0),
        );
        Self { inner }
    }
}

impl Drop for ReaderGuard<'_> {
    fn drop(&mut self) {
        let prev = self.inner.readers.fetch_sub(1, Ordering::SeqCst);
        let gamma = prev.saturating_sub(1).max(1);
        self.inner.regulator.set_rate(
            self.inner
                .scale
                .rate_to_wall(self.inner.curve.at(gamma as f64))
                .max(1.0),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn fast_curve() -> ThroughputCurve {
        ThroughputCurve::flat(1.0e9)
    }

    #[test]
    fn put_and_read_round_trip() {
        let pfs = Pfs::in_memory(fast_curve(), TimeScale::realtime());
        pfs.put(7, Bytes::from(vec![1, 2, 3]));
        assert_eq!(pfs.read(7).unwrap(), Bytes::from(vec![1, 2, 3]));
        assert_eq!(pfs.size_of(7), Some(3));
        assert!(pfs.contains(7));
        assert_eq!(pfs.len(), 1);
    }

    #[test]
    fn missing_object_is_not_found() {
        let pfs = Pfs::in_memory(fast_curve(), TimeScale::realtime());
        assert_eq!(pfs.read(1), Err(PfsError::NotFound(1)));
        assert_eq!(pfs.size_of(1), None);
    }

    #[test]
    fn disk_backed_round_trip() {
        let dir = std::env::temp_dir().join(format!("nopfs-pfs-test-{}", std::process::id()));
        let pfs = Pfs::on_disk(&dir, fast_curve(), TimeScale::realtime());
        let payload = Bytes::from((0..=255u8).collect::<Vec<_>>());
        pfs.put(123, payload.clone());
        assert_eq!(pfs.read(123).unwrap(), payload);
        assert_eq!(pfs.size_of(123), Some(256));
        assert_eq!(pfs.read(99), Err(PfsError::NotFound(99)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reads_are_paced_by_the_curve() {
        // 1 MB/s model rate, realtime: 100 KB should take ~100 ms.
        let pfs = Pfs::in_memory(ThroughputCurve::flat(1.0e6), TimeScale::realtime());
        pfs.put(1, Bytes::from(vec![0u8; 100_000]));
        pfs.read(1).unwrap(); // drain the small burst allowance
        let t0 = Instant::now();
        pfs.read(1).unwrap();
        let dt = t0.elapsed().as_secs_f64();
        assert!(dt > 0.06, "read unrealistically fast: {dt}s");
        assert!(dt < 0.5, "read unrealistically slow: {dt}s");
    }

    #[test]
    fn time_scale_compresses_read_time() {
        // Same data, 100x compressed time: ~1 ms instead of ~100 ms.
        let pfs = Pfs::in_memory(ThroughputCurve::flat(1.0e6), TimeScale::new(0.01));
        pfs.put(1, Bytes::from(vec![0u8; 100_000]));
        pfs.read(1).unwrap();
        let t0 = Instant::now();
        pfs.read(1).unwrap();
        assert!(t0.elapsed().as_secs_f64() < 0.05);
    }

    #[test]
    fn contention_throttles_aggregate_rate() {
        // Saturating curve: t(1) = 4 MB/s, flat at 4 MB/s for more
        // readers. Two concurrent readers should each see ~half.
        let curve = ThroughputCurve::from_points(&[(1.0, 4.0e6), (8.0, 4.1e6)]);
        let pfs = Pfs::in_memory(curve, TimeScale::realtime());
        let size = 200_000; // 50 ms alone, ~100 ms with contention
        pfs.put(1, Bytes::from(vec![0u8; size]));
        pfs.put(2, Bytes::from(vec![0u8; size]));
        pfs.read(1).unwrap(); // drain burst
        let t0 = Instant::now();
        let p2 = pfs.clone();
        let h = std::thread::spawn(move || p2.read(2).unwrap());
        pfs.read(1).unwrap();
        h.join().unwrap();
        let both = t0.elapsed().as_secs_f64();
        // 400 KB total at 4 MB/s aggregate = 100 ms, not 50.
        assert!(both > 0.08, "contention not applied: {both}s");
    }

    #[test]
    fn reader_count_tracks_inflight_reads() {
        let pfs = Pfs::in_memory(ThroughputCurve::flat(2.0e6), TimeScale::realtime());
        pfs.put(1, Bytes::from(vec![0u8; 300_000]));
        assert_eq!(pfs.reader_count(), 0);
        let p2 = pfs.clone();
        let h = std::thread::spawn(move || p2.read(1).unwrap());
        // Poll while the read is in flight.
        let mut saw_reader = false;
        for _ in 0..200 {
            if pfs.reader_count() > 0 {
                saw_reader = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        h.join().unwrap();
        assert!(saw_reader, "reader never observed in flight");
        assert_eq!(pfs.reader_count(), 0);
    }

    #[test]
    fn fault_injection_fails_then_recovers() {
        let pfs = Pfs::in_memory(fast_curve(), TimeScale::realtime());
        pfs.put(5, Bytes::from(vec![9u8; 10]));
        pfs.inject_fault(5, 2);
        assert!(matches!(pfs.read(5), Err(PfsError::Io(_))));
        assert!(matches!(pfs.read(5), Err(PfsError::Io(_))));
        assert_eq!(pfs.read(5).unwrap().len(), 10);
    }

    #[test]
    fn read_many_matches_per_object_reads() {
        let pfs = Pfs::in_memory(fast_curve(), TimeScale::realtime());
        for id in 0..6u64 {
            pfs.put(id, Bytes::from(vec![id as u8; 10 + id as usize]));
        }
        pfs.inject_fault(4, 1);
        let res = pfs.read_many(&[0, 3, 99, 4, 5]);
        assert_eq!(res[0].as_ref().unwrap(), &Bytes::from(vec![0u8; 10]));
        assert_eq!(res[1].as_ref().unwrap().len(), 13);
        assert_eq!(res[2], Err(PfsError::NotFound(99)));
        assert!(matches!(res[3], Err(PfsError::Io(_))), "fault honored");
        assert!(res[4].is_ok());
        // Per-object statistics: 3 successes counted, like single reads.
        assert_eq!(pfs.stats().reads, 3);
        assert_eq!(pfs.stats().bytes_read, 10 + 13 + 15);
        // The injected fault was consumed by the batch.
        assert!(pfs.read(4).is_ok());
        assert_eq!(pfs.reader_count(), 0, "batch guard released");
    }

    #[test]
    fn a_batch_charges_the_regulator_its_found_bytes_once() {
        // A regulator that refills at 1 byte/s (the floor `t(γ)` is
        // clamped to): what is left of its 1 MB burst says what has
        // been charged, give or take the bytes a slow host refills —
        // far fewer than the 10 000 of the smallest object.
        const BURST: u64 = 1_000_000;
        let mut pfs = Pfs::in_memory(ThroughputCurve::flat(1e-6), TimeScale::realtime());
        Arc::get_mut(&mut pfs.inner).expect("sole handle").regulator =
            TokenBucket::new(1.0, BURST as f64);
        for id in 0..4u64 {
            pfs.put(
                id,
                Bytes::from(vec![id as u8; 10_000 + 1_000 * id as usize]),
            );
        }
        pfs.inject_fault(2, 1);
        // Found, missing, faulted and repeated ids: only the found ones
        // charge, 10 000 + 11 000 + 13 000 + 10 000 bytes.
        let res = pfs.read_many(&[0, 1, 9, 2, 3, 0]);
        let lens: Vec<_> = res.iter().map(|r| r.clone().map(|d| d.len())).collect();
        assert_eq!(
            lens[..3],
            [Ok(10_000), Ok(11_000), Err(PfsError::NotFound(9))]
        );
        assert!(matches!(lens[3], Err(PfsError::Io(_))), "fault honored");
        assert_eq!(lens[4..], [Ok(13_000), Ok(10_000)]);
        assert_eq!(pfs.reader_count(), 0, "batch guard released");
        // A batch that finds nothing charges nothing.
        assert!(pfs.read_many(&[7, 8]).iter().all(Result::is_err));
        let charged = 44_000;
        assert!(!pfs.inner.regulator.try_acquire(BURST - charged + 1_000));
        assert!(pfs.inner.regulator.try_acquire(BURST - charged));
        assert_eq!(pfs.stats().reads, 4);
        assert_eq!(pfs.stats().bytes_read, charged);
    }

    #[test]
    fn read_many_registers_one_reader_for_the_batch() {
        // A slow batch holds γ = 1 for its whole duration — the batch
        // is one client stream, not one per object.
        let pfs = Pfs::in_memory(ThroughputCurve::flat(2.0e6), TimeScale::realtime());
        for id in 0..4u64 {
            pfs.put(id, Bytes::from(vec![0u8; 100_000]));
        }
        let p2 = pfs.clone();
        let h = std::thread::spawn(move || p2.read_many(&[0, 1, 2, 3]));
        let mut max_gamma = 0;
        for _ in 0..200 {
            max_gamma = max_gamma.max(pfs.reader_count());
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let res = h.join().unwrap();
        assert!(res.iter().all(|r| r.is_ok()));
        assert_eq!(max_gamma, 1, "batch counted as one reader, saw {max_gamma}");
    }

    #[test]
    fn stats_accumulate() {
        let pfs = Pfs::in_memory(fast_curve(), TimeScale::realtime());
        pfs.put(1, Bytes::from(vec![0u8; 100]));
        pfs.put(2, Bytes::from(vec![0u8; 50]));
        pfs.read(1).unwrap();
        pfs.read(1).unwrap();
        let stats = pfs.stats();
        assert_eq!(
            stats,
            PfsStats {
                reads: 2,
                bytes_read: 200,
                writes: 2,
                bytes_written: 150,
            }
        );
        // The origin-tier view of the same statistics.
        let tier: nopfs_storage::TierStats = stats.into();
        assert_eq!(tier.name, "pfs");
        assert_eq!((tier.hits, tier.bytes_read), (2, 200));
        assert_eq!((tier.fills, tier.bytes_filled), (2, 150));
    }

    #[test]
    fn occupancy_tracks_puts_and_removes() {
        let pfs = Pfs::in_memory(fast_curve(), TimeScale::realtime());
        pfs.put(1, Bytes::from(vec![0u8; 100]));
        pfs.put(2, Bytes::from(vec![0u8; 50]));
        assert_eq!(pfs.total_bytes(), 150);
        pfs.put(1, Bytes::from(vec![0u8; 30])); // replace
        assert_eq!(pfs.total_bytes(), 80);
        assert!(pfs.remove(2));
        assert!(!pfs.remove(2));
        assert_eq!(pfs.total_bytes(), 30);
        assert_eq!(pfs.len(), 1);
    }

    #[test]
    fn pfs_is_a_data_source() {
        use nopfs_storage::{DataSource, SourceError};
        let pfs = Pfs::in_memory(fast_curve(), TimeScale::realtime());
        let src: &dyn DataSource = &pfs;
        assert_eq!(src.name(), "pfs");
        assert_eq!(src.capacity(), None);
        src.write(7, Bytes::from_static(b"origin")).unwrap();
        assert_eq!(src.read(7).unwrap(), Bytes::from_static(b"origin"));
        assert_eq!(src.read(8), Err(SourceError::NotFound(8)));
        assert_eq!(src.size_of(7), Some(6));
        assert_eq!(src.used(), 6);
        assert_eq!(src.count(), 1);
        pfs.inject_fault(7, 1);
        assert!(matches!(src.read(7), Err(SourceError::Io(_))));
        assert!(src.evict(7));
        assert!(!src.contains(7));
    }

    #[test]
    fn pfs_serves_as_tier_stack_origin() {
        use nopfs_storage::{MemoryBackend, PromotePolicy, TierStack};
        let pfs = Pfs::in_memory(fast_curve(), TimeScale::realtime());
        for id in 0..8u64 {
            pfs.put(id, Bytes::from(vec![id as u8; 16]));
        }
        let stack = TierStack::new(
            vec![
                Arc::new(MemoryBackend::new("ram", 64)),
                Arc::new(pfs.clone()),
            ],
            PromotePolicy::IfFits,
            &Registry::new(),
        );
        for id in 0..8u64 {
            // Byte-identical to a direct PFS read.
            assert_eq!(stack.read(id).unwrap(), pfs.read(id).unwrap());
        }
        // 4 of 8 promoted into RAM (64 B / 16 B); re-reads hit the cache.
        assert_eq!(stack.stats(0).promotions, 4);
        let before = pfs.stats().reads;
        stack.read(0).unwrap();
        assert_eq!(pfs.stats().reads, before, "cached read skips the PFS");
    }

    #[test]
    fn namespaces_isolate_ids_but_share_the_store() {
        let pfs = Pfs::in_memory(fast_curve(), TimeScale::realtime());
        let a = pfs.namespaced(0);
        let b = pfs.namespaced(1_000);
        a.put(3, Bytes::from_static(b"tenant-a"));
        b.put(3, Bytes::from_static(b"tenant-b"));
        // Same local id, different objects.
        assert_eq!(a.read(3).unwrap(), Bytes::from_static(b"tenant-a"));
        assert_eq!(b.read(3).unwrap(), Bytes::from_static(b"tenant-b"));
        // The root namespace sees both at their global ids.
        assert_eq!(pfs.read(3).unwrap(), Bytes::from_static(b"tenant-a"));
        assert_eq!(pfs.read(1_003).unwrap(), Bytes::from_static(b"tenant-b"));
        assert_eq!(pfs.len(), 2);
        // Errors report the caller's local id.
        assert_eq!(b.read(7), Err(PfsError::NotFound(7)));
        // Namespaces compose.
        let b2 = b.namespaced(10);
        assert_eq!(b2.namespace_base(), 1_010);
        b2.put(0, Bytes::from_static(b"deep"));
        assert_eq!(pfs.read(1_010).unwrap(), Bytes::from_static(b"deep"));
    }

    #[test]
    fn namespaced_faults_stay_in_their_namespace() {
        let pfs = Pfs::in_memory(fast_curve(), TimeScale::realtime());
        let a = pfs.namespaced(0);
        let b = pfs.namespaced(100);
        a.put(1, Bytes::from_static(b"a"));
        b.put(1, Bytes::from_static(b"b"));
        b.inject_fault(1, 1);
        assert!(a.read(1).is_ok(), "fault must not leak across namespaces");
        assert!(matches!(b.read(1), Err(PfsError::Io(_))));
        assert!(b.read(1).is_ok());
    }

    #[test]
    fn namespaced_readers_share_the_regulator() {
        // Two namespaces on a saturating curve: concurrent reads from
        // different tenants must split the aggregate rate exactly like
        // two readers of one tenant would.
        let curve = ThroughputCurve::from_points(&[(1.0, 4.0e6), (8.0, 4.1e6)]);
        let pfs = Pfs::in_memory(curve, TimeScale::realtime());
        let a = pfs.namespaced(0);
        let b = pfs.namespaced(10);
        let size = 200_000;
        a.put(1, Bytes::from(vec![0u8; size]));
        b.put(1, Bytes::from(vec![0u8; size]));
        a.read(1).unwrap(); // drain burst
        let t0 = Instant::now();
        let h = std::thread::spawn(move || b.read(1).unwrap());
        a.read(1).unwrap();
        h.join().unwrap();
        let both = t0.elapsed().as_secs_f64();
        // 400 KB total at 4 MB/s aggregate = 100 ms, not 50.
        assert!(both > 0.08, "cross-tenant contention not applied: {both}s");
    }

    #[test]
    fn rate_at_follows_curve() {
        let curve = ThroughputCurve::from_points(&[(1.0, 330.0e6), (8.0, 2_870.0e6)]);
        let pfs = Pfs::in_memory(curve, TimeScale::realtime());
        assert!((pfs.rate_at(1) - 330.0e6).abs() < 1.0);
        assert!((pfs.rate_at(8) - 2_870.0e6).abs() < 1.0);
        assert_eq!(pfs.rate_at(0), pfs.rate_at(1));
    }
}
