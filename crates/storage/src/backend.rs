//! Storage backends (paper Sec. 5.2.2).
//!
//! "Storage backends need only implement a generic interface, and NoPFS
//! currently supports filesystem- and memory-based storage backends,
//! which are sufficient to support most storage classes (including RAM,
//! SSDs, and HDDs)." The same split exists here: [`StorageBackend`] is
//! the generic interface, [`MemoryBackend`] and [`FsBackend`] are the
//! two implementations, and [`ThrottledBackend`] wraps either with
//! aggregate read/write token buckets so that a RAM-backed store can
//! stand in for any device with `r_j(p)`/`w_j(p)` curves — how the
//! runtime experiments model SSD tiers without SSD hardware.

use crate::shard::ShardedMap;
use crate::SampleId;
use bytes::Bytes;
use nopfs_util::rate::TokenBucket;
use nopfs_util::timing::TimeScale;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Reserves `size - existing` bytes of `capacity` in `used` with a CAS
/// loop. Callers hold the id's shard write lock, which pins `existing`
/// (same-id writers need the same shard lock); other shards' traffic
/// just makes the CAS retry. Returns the free-space count on failure.
fn reserve_bytes(used: &AtomicU64, capacity: u64, existing: u64, size: u64) -> Result<(), u64> {
    used.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |u| {
        let new_used = u - existing + size;
        (new_used <= capacity).then_some(new_used)
    })
    .map(|_| ())
    .map_err(|u| capacity.saturating_sub(u - existing))
}

/// Backend errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// The sample would exceed the backend's capacity.
    Full {
        /// Bytes the insert needed.
        needed: u64,
        /// Bytes still free.
        available: u64,
    },
    /// Underlying I/O failed.
    Io(String),
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::Full { needed, available } => {
                write!(f, "backend full: need {needed} bytes, {available} free")
            }
            BackendError::Io(msg) => write!(f, "backend I/O error: {msg}"),
        }
    }
}

impl std::error::Error for BackendError {}

/// The generic storage-backend interface: a capacity-bounded map from
/// sample id to bytes. All methods are thread-safe.
pub trait StorageBackend: Send + Sync {
    /// Human-readable name ("memory", "fs", "ram", "ssd", …).
    fn name(&self) -> &str;

    /// Capacity in bytes.
    fn capacity(&self) -> u64;

    /// Bytes currently stored.
    fn used(&self) -> u64;

    /// Stores a sample. Fails with [`BackendError::Full`] when it does
    /// not fit (NoPFS placement never overfills, so this signals a
    /// policy bug or a raced insert).
    fn insert(&self, id: SampleId, data: Bytes) -> Result<(), BackendError>;

    /// Vectored [`Self::insert`]: moves every item out of `items` (which
    /// is left empty, its allocation kept for reuse) and hands `sink`
    /// each id with what `insert` made of it — the bytes stored, or the
    /// error — in order. A backend whose write cost is settled per call
    /// overrides it to settle once for the whole batch.
    fn insert_many(
        &self,
        items: &mut Vec<(SampleId, Bytes)>,
        sink: &mut dyn FnMut(SampleId, Result<u64, BackendError>),
    ) {
        for (id, data) in items.drain(..) {
            let size = data.len() as u64;
            sink(id, self.insert(id, data).map(|()| size));
        }
    }

    /// Retrieves a sample, paying the backend's read cost.
    fn get(&self, id: SampleId) -> Option<Bytes>;

    /// Vectored [`Self::get`]: hands `sink` each id with what `get`
    /// finds for it, in order. A backend whose read cost is settled
    /// per call overrides it to settle once for the whole sweep. `sink`
    /// may run under the backend's locks: it must take none of its own.
    fn get_many(&self, ids: &[SampleId], sink: &mut dyn FnMut(SampleId, Option<Bytes>)) {
        for &id in ids {
            sink(id, self.get(id));
        }
    }

    /// Whether the sample is present (metadata only; free).
    fn contains(&self, id: SampleId) -> bool;

    /// Removes a sample, returning whether it was present.
    fn evict(&self, id: SampleId) -> bool;

    /// Number of stored samples.
    fn count(&self) -> usize;

    /// Size in bytes of a stored sample (metadata only; free).
    fn size_of(&self, id: SampleId) -> Option<u64>;
}

/// An in-memory backend (models RAM classes).
///
/// The id→bytes store is an N-way [`ShardedMap`], so concurrent readers
/// of different samples take different locks, and capacity accounting
/// is a CAS on a relaxed atomic rather than a global critical section —
/// the fetch hot path never serializes on one lock word.
pub struct MemoryBackend {
    name: String,
    capacity: u64,
    used: AtomicU64,
    map: ShardedMap<Bytes>,
}

impl MemoryBackend {
    /// Creates a memory backend with the given byte capacity.
    pub fn new(name: impl Into<String>, capacity: u64) -> Self {
        Self {
            name: name.into(),
            capacity,
            used: AtomicU64::new(0),
            map: ShardedMap::new(),
        }
    }
}

impl StorageBackend for MemoryBackend {
    fn name(&self) -> &str {
        &self.name
    }

    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    fn insert(&self, id: SampleId, data: Bytes) -> Result<(), BackendError> {
        let size = data.len() as u64;
        let mut shard = self.map.shard(id).write();
        let existing = shard.get(&id).map_or(0, |b| b.len() as u64);
        reserve_bytes(&self.used, self.capacity, existing, size).map_err(|available| {
            BackendError::Full {
                needed: size,
                available,
            }
        })?;
        shard.insert(id, data);
        Ok(())
    }

    fn get(&self, id: SampleId) -> Option<Bytes> {
        self.map.get(id)
    }

    fn get_many(&self, ids: &[SampleId], sink: &mut dyn FnMut(SampleId, Option<Bytes>)) {
        self.map.get_each(ids, |id, data| sink(id, data.cloned()));
    }

    fn contains(&self, id: SampleId) -> bool {
        self.map.contains(id)
    }

    fn evict(&self, id: SampleId) -> bool {
        let mut shard = self.map.shard(id).write();
        if let Some(b) = shard.remove(&id) {
            self.used.fetch_sub(b.len() as u64, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    fn count(&self) -> usize {
        self.map.len()
    }

    fn size_of(&self, id: SampleId) -> Option<u64> {
        self.map.with(id, |b| b.len() as u64)
    }
}

/// A filesystem backend storing one file per sample (models node-local
/// SSD/HDD classes; the paper's implementation uses `mmap`, ours uses
/// plain reads — the throttle wrapper supplies realistic timing either
/// way).
pub struct FsBackend {
    name: String,
    capacity: u64,
    dir: PathBuf,
    used: AtomicU64,
    /// Present ids and sizes (avoids stat calls), sharded so lookups on
    /// different samples never contend.
    index: ShardedMap<u64>,
}

impl FsBackend {
    /// Creates a filesystem backend rooted at `dir` (created if absent).
    ///
    /// # Panics
    /// Panics if the directory cannot be created.
    pub fn new(name: impl Into<String>, dir: impl Into<PathBuf>, capacity: u64) -> Self {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).expect("failed to create backend directory");
        Self {
            name: name.into(),
            capacity,
            dir,
            used: AtomicU64::new(0),
            index: ShardedMap::new(),
        }
    }

    fn path(&self, id: SampleId) -> PathBuf {
        self.dir.join(format!("{id}.smp"))
    }
}

impl StorageBackend for FsBackend {
    fn name(&self) -> &str {
        &self.name
    }

    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    fn insert(&self, id: SampleId, data: Bytes) -> Result<(), BackendError> {
        let size = data.len() as u64;
        let mut shard = self.index.shard(id).write();
        let existing = shard.get(&id).copied().unwrap_or(0);
        reserve_bytes(&self.used, self.capacity, existing, size).map_err(|available| {
            BackendError::Full {
                needed: size,
                available,
            }
        })?;
        if let Err(e) = std::fs::write(self.path(id), &data) {
            // Roll back the reservation: the file never landed. An
            // overwrite by a smaller sample shrank `used`, so the
            // rollback direction depends on the delta's sign.
            if size >= existing {
                self.used.fetch_sub(size - existing, Ordering::Relaxed);
            } else {
                self.used.fetch_add(existing - size, Ordering::Relaxed);
            }
            return Err(BackendError::Io(e.to_string()));
        }
        shard.insert(id, size);
        Ok(())
    }

    fn get(&self, id: SampleId) -> Option<Bytes> {
        if !self.index.contains(id) {
            return None;
        }
        std::fs::read(self.path(id)).ok().map(Bytes::from)
    }

    fn contains(&self, id: SampleId) -> bool {
        self.index.contains(id)
    }

    fn evict(&self, id: SampleId) -> bool {
        let mut shard = self.index.shard(id).write();
        if let Some(size) = shard.remove(&id) {
            self.used.fetch_sub(size, Ordering::Relaxed);
            std::fs::remove_file(self.path(id)).ok();
            true
        } else {
            false
        }
    }

    fn count(&self) -> usize {
        self.index.len()
    }

    fn size_of(&self, id: SampleId) -> Option<u64> {
        self.index.get(id)
    }
}

/// Wraps a backend with aggregate read/write token buckets so its
/// timing follows modelled `r_j(p)`/`w_j(p)` device curves.
pub struct ThrottledBackend<B: StorageBackend> {
    inner: B,
    read_bucket: Arc<TokenBucket>,
    write_bucket: Arc<TokenBucket>,
}

impl<B: StorageBackend> ThrottledBackend<B> {
    /// Creates a throttle with aggregate `read_rate`/`write_rate` in
    /// model bytes/second under `scale`.
    pub fn new(inner: B, read_rate: f64, write_rate: f64, scale: TimeScale) -> Self {
        Self {
            inner,
            read_bucket: Arc::new(TokenBucket::with_burst_window(
                scale.rate_to_wall(read_rate),
                0.005,
            )),
            write_bucket: Arc::new(TokenBucket::with_burst_window(
                scale.rate_to_wall(write_rate),
                0.005,
            )),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }
}

impl<B: StorageBackend> StorageBackend for ThrottledBackend<B> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }

    fn used(&self) -> u64 {
        self.inner.used()
    }

    fn insert(&self, id: SampleId, data: Bytes) -> Result<(), BackendError> {
        self.write_bucket.acquire(data.len() as u64);
        self.inner.insert(id, data)
    }

    /// **One** charge for the whole batch, up front as in
    /// [`Self::insert`] (an item that will not fit is charged too), then
    /// the inner batch: the same debt-based argument as
    /// [`Self::get_many`].
    fn insert_many(
        &self,
        items: &mut Vec<(SampleId, Bytes)>,
        sink: &mut dyn FnMut(SampleId, Result<u64, BackendError>),
    ) {
        let bytes: u64 = items.iter().map(|(_, d)| d.len() as u64).sum();
        if bytes > 0 {
            self.write_bucket.acquire(bytes);
        }
        self.inner.insert_many(items, sink);
    }

    fn get(&self, id: SampleId) -> Option<Bytes> {
        let data = self.inner.get(id)?;
        self.read_bucket.acquire(data.len() as u64);
        Some(data)
    }

    /// The inner sweep first, then **one** charge for the bytes found:
    /// the bucket's pacing is debt-based, so one caller's
    /// `acquire(a); acquire(b)` and `acquire(a + b)` wait the same,
    /// and the sweep reads the clock once instead of once per sample.
    fn get_many(&self, ids: &[SampleId], sink: &mut dyn FnMut(SampleId, Option<Bytes>)) {
        let mut found = 0u64;
        self.inner.get_many(ids, &mut |id, data| {
            found += data.as_ref().map_or(0, |d| d.len() as u64);
            sink(id, data);
        });
        if found > 0 {
            self.read_bucket.acquire(found);
        }
    }

    fn contains(&self, id: SampleId) -> bool {
        self.inner.contains(id)
    }

    fn evict(&self, id: SampleId) -> bool {
        self.inner.evict(id)
    }

    fn count(&self) -> usize {
        self.inner.count()
    }

    fn size_of(&self, id: SampleId) -> Option<u64> {
        self.inner.size_of(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("nopfs-backend-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    fn backend_contract(b: &dyn StorageBackend) {
        assert_eq!(b.used(), 0);
        assert_eq!(b.count(), 0);
        b.insert(1, Bytes::from(vec![1u8; 40])).unwrap();
        b.insert(2, Bytes::from(vec![2u8; 40])).unwrap();
        assert_eq!(b.used(), 80);
        assert_eq!(b.count(), 2);
        assert!(b.contains(1));
        assert_eq!(b.get(1).unwrap(), Bytes::from(vec![1u8; 40]));
        // Third insert exceeds the 100-byte capacity.
        match b.insert(3, Bytes::from(vec![3u8; 40])) {
            Err(BackendError::Full { needed, available }) => {
                assert_eq!(needed, 40);
                assert_eq!(available, 20);
            }
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(b.size_of(1), Some(40));
        assert_eq!(b.size_of(3), None);
        // Replacing an existing sample reuses its space.
        b.insert(1, Bytes::from(vec![9u8; 50])).unwrap();
        assert_eq!(b.used(), 90);
        assert_eq!(b.get(1).unwrap()[0], 9);
        assert!(b.evict(2));
        assert!(!b.evict(2));
        assert_eq!(b.used(), 50);
        assert!(b.get(2).is_none());
        assert!(!b.contains(2));
    }

    #[test]
    fn memory_backend_contract() {
        backend_contract(&MemoryBackend::new("memory", 100));
    }

    #[test]
    fn fs_backend_contract() {
        let dir = tmp_dir("contract");
        backend_contract(&FsBackend::new("fs", &dir, 100));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fs_backend_persists_real_files() {
        let dir = tmp_dir("files");
        let b = FsBackend::new("fs", &dir, 1_000);
        b.insert(42, Bytes::from_static(b"payload")).unwrap();
        let on_disk = std::fs::read(dir.join("42.smp")).unwrap();
        assert_eq!(on_disk, b"payload");
        b.evict(42);
        assert!(!dir.join("42.smp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn throttled_reads_follow_rate() {
        // 10 MB/s read rate: reading 1 MB takes ~100 ms.
        let b = ThrottledBackend::new(
            MemoryBackend::new("ssd", 10_000_000),
            10.0e6,
            1.0e9,
            TimeScale::realtime(),
        );
        b.insert(1, Bytes::from(vec![0u8; 1_000_000])).unwrap();
        b.get(1).unwrap(); // drain burst
        let t0 = Instant::now();
        b.get(1).unwrap();
        let dt = t0.elapsed().as_secs_f64();
        assert!(dt > 0.07, "read too fast: {dt}");
        assert!(dt < 0.5, "read too slow: {dt}");
    }

    #[test]
    fn throttled_writes_follow_rate() {
        let b = ThrottledBackend::new(
            MemoryBackend::new("ssd", 10_000_000),
            1.0e9,
            10.0e6,
            TimeScale::realtime(),
        );
        b.insert(1, Bytes::from(vec![0u8; 200_000])).unwrap();
        let t0 = Instant::now();
        b.insert(2, Bytes::from(vec![0u8; 1_000_000])).unwrap();
        let dt = t0.elapsed().as_secs_f64();
        assert!(dt > 0.07, "write too fast: {dt}");
    }

    fn sweep(b: &dyn StorageBackend, ids: &[SampleId]) -> Vec<(SampleId, Option<Bytes>)> {
        let mut got = Vec::new();
        b.get_many(ids, &mut |id, data| got.push((id, data)));
        got
    }

    #[test]
    fn throttled_sweep_is_charged_its_found_bytes_once() {
        // A bucket that all but never refills: what is left of its
        // 1000-byte burst says what has been charged.
        let b = ThrottledBackend {
            inner: MemoryBackend::new("ssd", 1_000),
            read_bucket: Arc::new(TokenBucket::new(1e-6, 1_000.0)),
            write_bucket: Arc::new(TokenBucket::new(1e9, 1e9)),
        };
        b.insert(1, Bytes::from(vec![1u8; 100])).unwrap();
        b.insert(2, Bytes::from(vec![2u8; 50])).unwrap();
        // Found, absent and repeated ids: one entry each, in order,
        // and 100 + 50 + 100 bytes charged.
        let got = sweep(&b, &[1, 9, 2, 1]);
        let lens: Vec<_> = got
            .iter()
            .map(|(id, d)| (*id, d.as_ref().map(Bytes::len)))
            .collect();
        assert_eq!(
            lens,
            [(1, Some(100)), (9, None), (2, Some(50)), (1, Some(100))]
        );
        assert!(!b.read_bucket.try_acquire(751));
        // A sweep that finds nothing charges nothing.
        assert_eq!(sweep(&b, &[7, 8]), [(7, None), (8, None)]);
        assert!(b.read_bucket.try_acquire(750));
    }

    #[test]
    fn throttled_insert_batch_is_charged_once() {
        // A write bucket that all but never refills: what is left of its
        // 1000-byte burst says what has been charged.
        let b = ThrottledBackend {
            inner: MemoryBackend::new("ssd", 200),
            read_bucket: Arc::new(TokenBucket::new(1e9, 1e9)),
            write_bucket: Arc::new(TokenBucket::new(1e-6, 1_000.0)),
        };
        // Three that fit, one that does not (150 + 100 > 200): every
        // item gets its outcome in order, and all 300 bytes are charged
        // up front, as single inserts would be.
        let mut items = vec![
            (1, Bytes::from(vec![1u8; 100])),
            (2, Bytes::from(vec![2u8; 50])),
            (3, Bytes::from(vec![3u8; 100])),
            (4, Bytes::from(vec![4u8; 50])),
        ];
        let mut got = Vec::new();
        b.insert_many(&mut items, &mut |id, r| got.push((id, r)));
        assert!(items.is_empty(), "the batch is moved out");
        assert_eq!(
            got,
            [
                (1, Ok(100)),
                (2, Ok(50)),
                (
                    3,
                    Err(BackendError::Full {
                        needed: 100,
                        available: 50
                    })
                ),
                (4, Ok(50)),
            ]
        );
        assert_eq!(b.used(), 200);
        assert!(!b.write_bucket.try_acquire(701));
        // An empty batch charges nothing.
        b.insert_many(&mut items, &mut |_, _| panic!("no items"));
        assert!(b.write_bucket.try_acquire(700));
    }

    #[test]
    fn throttled_sweep_follows_rate_like_single_gets() {
        // 10 MB/s: a sweep of 50 × 10 KB is 50 ms of reading.
        let b = ThrottledBackend::new(
            MemoryBackend::new("ssd", 10_000_000),
            10.0e6,
            1.0e9,
            TimeScale::realtime(),
        );
        let ids: Vec<SampleId> = (0..50).collect();
        for &id in &ids {
            b.insert(id, Bytes::from(vec![0u8; 10_000])).unwrap();
        }
        sweep(&b, &ids); // drain burst
        let t0 = Instant::now();
        let got = sweep(&b, &ids);
        let dt = t0.elapsed().as_secs_f64();
        assert!(got.iter().all(|(_, d)| d.is_some()));
        assert!(dt >= 0.7 * 0.05, "sweep too fast: {dt}");
    }

    #[test]
    fn throttle_preserves_contract() {
        let b = ThrottledBackend::new(
            MemoryBackend::new("memory", 100),
            1.0e12,
            1.0e12,
            TimeScale::realtime(),
        );
        backend_contract(&b);
        assert_eq!(b.name(), "memory");
        assert_eq!(b.inner().name(), "memory");
    }

    #[test]
    fn concurrent_inserts_respect_capacity() {
        let b = Arc::new(MemoryBackend::new("memory", 1_000));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    let mut ok = 0;
                    for i in 0..50u64 {
                        if b.insert(t * 100 + i, Bytes::from(vec![0u8; 10])).is_ok() {
                            ok += 1;
                        }
                    }
                    ok
                })
            })
            .collect();
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 100, "exactly capacity/size inserts succeed");
        assert_eq!(b.used(), 1_000);
    }
}
