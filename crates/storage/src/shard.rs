//! Sharded dense slot tables for the fetch hot path.
//!
//! The paper's premise is that I/O, not compute, bounds training — yet
//! a fetch path that funnels every sample through one global lock
//! serializes readers on exactly the path NoPFS optimizes. At
//! production worker counts the binding constraint is per-core read
//! throughput (arxiv 2108.06322), so every map a read touches — the
//! backend's id→bytes store, the catalog, the size table — is sharded
//! here: sample ids spread over [`SHARDS`] independently locked shards,
//! concurrent readers of different samples take different locks, and
//! the shared cache line a single lock word would bounce between cores
//! disappears. Capacity accounting moves to relaxed atomics with a CAS
//! reservation loop run while holding only the entry's shard lock, so
//! not even the byte budget is a global section.
//!
//! Sample ids are *dense* (`0..F`), so a shard is not a hash table but a
//! paged slot table: fixed-size pages of `Option<V>` found through a
//! small sorted page directory. A hit is one directory probe (a few
//! hundred bytes per shard for a 100k-sample dataset — it stays in
//! L1/L2) plus one slot load, where a `HashMap` paid a SipHash and two
//! dependent cache misses. Pages are allocated when first written, so
//! memory follows the pages touched and sparse ids (a far namespace
//! base, `u64::MAX`) cost one page each, not a table.
//!
//! An id splits into `local = id >> 4` and a shard picked from its low
//! four bits XOR a Fibonacci mix of `local`: consecutive ids land in
//! sixteen different shards, strided ids are spread by the mix, and
//! `(shard, local)` still names the id uniquely, so each shard indexes
//! its pages by `local` and stays dense.
//!
//! A sweep ([`ShardedMap::get_each`]) holds several read guards at
//! once, and a reader queues behind a waiting writer. Two rules keep
//! that deadlock-free: a sweep locks its shards in ascending order and
//! its `sink` takes no shard lock (of any map); no code holds a write
//! guard while it takes another shard's lock. A writer then waits only
//! on sweeps, and a sweep only on higher shards of its own map.

use parking_lot::RwLock;

/// Number of shards: 16 keep worst-case lock convoys to 1/16th of a
/// global lock at negligible memory cost. A power of two, so the
/// id→shard map is a multiply and a mask, not a division.
pub const SHARDS: usize = 16;

const SHARD_BITS: u32 = SHARDS.trailing_zeros();

/// Slots per page: 256 keep a page of payload handles at 8 KiB and the
/// directory of a 131k-sample shard at 32 entries.
const PAGE_SLOTS: usize = 256;

const PAGE_BITS: u32 = PAGE_SLOTS.trailing_zeros();

/// `PAGE_SLOTS` slots.
type Page<V> = Box<[Option<V>]>;

/// Four well-mixed bits of `local` (Fibonacci multiplicative hashing:
/// the high bits of the golden-ratio product), so strided ids do not
/// resonate with one shard.
#[inline]
fn mix(local: u64) -> u64 {
    local.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - SHARD_BITS)
}

/// Splits an id into its shard index and its index within the shard.
#[inline]
fn split(id: u64) -> (usize, u64) {
    let local = id >> SHARD_BITS;
    (((id ^ mix(local)) & (SHARDS as u64 - 1)) as usize, local)
}

/// Inverse of [`split`].
#[inline]
fn join(shard: usize, local: u64) -> u64 {
    (local << SHARD_BITS) | ((shard as u64 ^ mix(local)) & (SHARDS as u64 - 1))
}

/// One shard of a [`ShardedMap`]: the slot table behind a shard lock,
/// exposed through [`ShardedMap::shard`] for compound operations that
/// must hold the entry's lock across a check-then-act sequence.
#[derive(Debug)]
pub struct Shard<V> {
    index: usize,
    /// `(page number, page)`, sorted by page number.
    dir: Vec<(u64, Page<V>)>,
    len: usize,
}

impl<V> Shard<V> {
    /// Position of page `page_no` in the directory, or where it would
    /// be inserted. Dense ids from zero put page `i` at index `i`, so
    /// that slot is tried before the binary search.
    #[inline]
    fn find_page(&self, page_no: u64) -> Result<usize, usize> {
        let dense = usize::try_from(page_no).unwrap_or(usize::MAX);
        if self.dir.get(dense).is_some_and(|&(no, _)| no == page_no) {
            return Ok(dense);
        }
        self.dir.binary_search_by_key(&page_no, |&(no, _)| no)
    }

    #[inline]
    fn get_local(&self, local: u64) -> Option<&V> {
        let i = self.find_page(local >> PAGE_BITS).ok()?;
        self.dir[i].1[local as usize % PAGE_SLOTS].as_ref()
    }

    fn insert_local(&mut self, local: u64, value: V) -> Option<V> {
        let page_no = local >> PAGE_BITS;
        let i = self.find_page(page_no).unwrap_or_else(|i| {
            let page = (0..PAGE_SLOTS).map(|_| None).collect();
            self.dir.insert(i, (page_no, page));
            i
        });
        let old = self.dir[i].1[local as usize % PAGE_SLOTS].replace(value);
        self.len += usize::from(old.is_none());
        old
    }

    fn remove_local(&mut self, local: u64) -> Option<V> {
        let i = self.find_page(local >> PAGE_BITS).ok()?;
        let old = self.dir[i].1[local as usize % PAGE_SLOTS].take();
        self.len -= usize::from(old.is_some());
        old
    }

    /// The index of `id` within this shard.
    ///
    /// # Panics
    /// Panics if `id` belongs to another shard: its slot here is some
    /// other id's.
    #[inline]
    fn local_of(&self, id: u64) -> u64 {
        let (shard, local) = split(id);
        assert_eq!(shard, self.index, "id {id} belongs to another shard");
        local
    }

    /// The value for `id`.
    ///
    /// # Panics
    /// Panics if `id` belongs to another shard.
    #[inline]
    pub fn get(&self, id: &u64) -> Option<&V> {
        self.get_local(self.local_of(*id))
    }

    /// Inserts, returning the displaced value.
    ///
    /// # Panics
    /// Panics if `id` belongs to another shard.
    pub fn insert(&mut self, id: u64, value: V) -> Option<V> {
        self.insert_local(self.local_of(id), value)
    }

    /// Removes, returning the value if present.
    ///
    /// # Panics
    /// Panics if `id` belongs to another shard.
    pub fn remove(&mut self, id: &u64) -> Option<V> {
        self.remove_local(self.local_of(*id))
    }
}

/// A concurrent `u64 → V` map for dense sample ids: the table behind
/// every structure on the fetch hot path (backend stores, the cache
/// catalog, size tables, promotion membership).
///
/// Reads and writes of different shards never contend; reads of the
/// same shard share a `RwLock` read guard. All methods take `&self`.
#[derive(Debug)]
pub struct ShardedMap<V> {
    shards: Vec<RwLock<Shard<V>>>,
}

impl<V> Default for ShardedMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> ShardedMap<V> {
    /// An empty map (no page is allocated until the first insert).
    pub fn new() -> Self {
        Self {
            shards: (0..SHARDS)
                .map(|index| {
                    RwLock::new(Shard {
                        index,
                        dir: Vec::new(),
                        len: 0,
                    })
                })
                .collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard lock holding `id`, for compound operations that must
    /// hold the entry's lock across a check-then-act sequence (e.g.
    /// capacity reservation: lock the shard, read the displaced entry's
    /// size, CAS the byte budget, then insert).
    #[inline]
    pub fn shard(&self, id: u64) -> &RwLock<Shard<V>> {
        &self.shards[split(id).0]
    }

    /// Index of the shard holding `id` (in `0..shard_count()`), for
    /// callers maintaining parallel per-shard structures (e.g. the
    /// per-shard FIFO promotion queues beside a membership map).
    #[inline]
    pub fn index_of(&self, id: u64) -> usize {
        split(id).0
    }

    /// Inserts, returning the displaced value.
    pub fn insert(&self, id: u64, value: V) -> Option<V> {
        let (shard, local) = split(id);
        self.shards[shard].write().insert_local(local, value)
    }

    /// Removes, returning the value if present.
    pub fn remove(&self, id: u64) -> Option<V> {
        let (shard, local) = split(id);
        self.shards[shard].write().remove_local(local)
    }

    /// Whether `id` is present.
    pub fn contains(&self, id: u64) -> bool {
        self.with(id, |_| ()).is_some()
    }

    /// Total entries across all shards (takes each shard's read lock in
    /// turn — a consistent-enough count for statistics, not a snapshot).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len).sum()
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().len == 0)
    }

    /// Applies `f` to the value under the entry's shard read lock.
    #[inline]
    pub fn with<R>(&self, id: u64, f: impl FnOnce(&V) -> R) -> Option<R> {
        let (shard, local) = split(id);
        self.shards[shard].read().get_local(local).map(f)
    }

    /// Hands `sink` each id with its value, in input order, with each
    /// shard read-locked once per call: the shards the ids touch are
    /// locked up front, in ascending order, until the last id is served.
    /// `sink` runs under those guards, so it must take no shard lock
    /// (see the module's lock rules). Nothing is allocated.
    pub fn get_each(&self, ids: &[u64], mut sink: impl FnMut(u64, Option<&V>)) {
        if let &[id] = ids {
            let (shard, local) = split(id);
            return sink(id, self.shards[shard].read().get_local(local));
        }
        let mut touched = [false; SHARDS];
        for &id in ids {
            touched[split(id).0] = true;
        }
        // `from_fn` walks forward: ascending shard order.
        let guards: [_; SHARDS] =
            std::array::from_fn(|i| touched[i].then(|| self.shards[i].read()));
        for &id in ids {
            let (shard, local) = split(id);
            let guard = guards[shard].as_ref().expect("every touched shard is held");
            sink(id, guard.get_local(local));
        }
    }

    /// Folds `f` over every entry, shard by shard (each shard's read
    /// lock is held only for its own pass).
    pub fn fold<A>(&self, init: A, mut f: impl FnMut(A, u64, &V) -> A) -> A {
        let mut acc = init;
        for (index, shard) in self.shards.iter().enumerate() {
            for (page_no, page) in &shard.read().dir {
                for (slot, value) in page.iter().enumerate() {
                    if let Some(v) = value {
                        let local = (page_no << PAGE_BITS) | slot as u64;
                        acc = f(acc, join(index, local), v);
                    }
                }
            }
        }
        acc
    }
}

impl<V: Clone> ShardedMap<V> {
    /// Clones the value for `id` out of its shard.
    #[inline]
    pub fn get(&self, id: u64) -> Option<V> {
        self.with(id, V::clone)
    }
}

impl<V: PartialEq> ShardedMap<V> {
    /// Removes `id` only if its value equals `expected` (atomic
    /// compare-and-remove under the shard lock). Returns whether the
    /// entry was removed.
    pub fn remove_if(&self, id: u64, expected: &V) -> bool {
        let (shard, local) = split(id);
        let mut shard = self.shards[shard].write();
        if shard.get_local(local) == Some(expected) {
            shard.remove_local(local);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nopfs_util::rng::Xoshiro256pp;
    use std::collections::HashMap;
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::sync::Arc;
    use std::time::Duration;

    fn pages<V>(m: &ShardedMap<V>) -> usize {
        m.shards.iter().map(|s| s.read().dir.len()).sum()
    }

    #[test]
    fn basic_map_operations() {
        let m = ShardedMap::new();
        assert_eq!(m.shard_count(), SHARDS);
        assert!(m.is_empty());
        assert_eq!(m.insert(1, "a"), None);
        assert_eq!(m.insert(1, "b"), Some("a"));
        m.insert(1_000_000, "far");
        assert_eq!(m.get(1), Some("b"));
        assert!(m.contains(1_000_000));
        assert_eq!(m.len(), 2);
        assert_eq!(m.with(1, |v| v.len()), Some(1));
        assert_eq!(m.remove(1), Some("b"));
        assert_eq!(m.remove(1), None);
        assert!(!m.contains(1));
    }

    #[test]
    fn remove_if_requires_matching_value() {
        let m = ShardedMap::new();
        m.insert(7, 3u8);
        assert!(!m.remove_if(7, &4));
        assert!(m.contains(7));
        assert!(m.remove_if(7, &3));
        assert!(!m.remove_if(7, &3));
    }

    #[test]
    fn sequential_and_strided_ids_spread_across_shards() {
        for stride in [1u64, 16, 64, 4096] {
            let mut hit = [false; SHARDS];
            for j in 0..64u64 {
                hit[split(j * stride).0] = true;
            }
            let used = hit.iter().filter(|&&h| h).count();
            assert!(
                used >= SHARDS / 2,
                "stride {stride} clumped into {used} of {SHARDS} shards"
            );
        }
    }

    #[test]
    fn split_and_join_are_inverse() {
        let far = (0..64u64).flat_map(|k| [(1 << 40) + k, u64::MAX - k]);
        for id in (0..10_000u64).chain(far) {
            let (shard, local) = split(id);
            assert_eq!(join(shard, local), id);
        }
    }

    #[test]
    fn shard_guard_operates_on_its_own_ids() {
        let m = ShardedMap::new();
        let mut shard = m.shard(42).write();
        assert_eq!(shard.insert(42, 1u8), None);
        assert_eq!(shard.get(&42), Some(&1));
        assert_eq!(shard.remove(&42), Some(1));
        assert_eq!(shard.get(&42), None);
    }

    #[test]
    #[should_panic(expected = "belongs to another shard")]
    fn shard_guard_rejects_a_foreign_id() {
        let m = ShardedMap::<u8>::new();
        let foreign = (0..).find(|&id| m.index_of(id) != m.index_of(0)).unwrap();
        m.shard(0).read().get(&foreign);
    }

    #[test]
    fn a_far_id_costs_one_page() {
        let m = ShardedMap::new();
        assert_eq!(pages(&m), 0);
        m.insert(1 << 40, 1u8);
        assert_eq!(pages(&m), 1);
        m.insert(u64::MAX, 2);
        assert_eq!(pages(&m), 2);
        assert_eq!(m.get(1 << 40), Some(1));
        assert_eq!(m.get(u64::MAX), Some(2));
        // A dense run fills pages before it opens new ones.
        let dense = ShardedMap::new();
        for id in 0..(SHARDS * PAGE_SLOTS) as u64 {
            dense.insert(id, id);
        }
        assert_eq!(pages(&dense), SHARDS);
    }

    #[test]
    fn fold_visits_every_entry() {
        let m = ShardedMap::new();
        for id in 0..100u64 {
            m.insert(id, id * 2);
        }
        let sum = m.fold(0u64, |acc, _, v| acc + v);
        assert_eq!(sum, (0..100u64).map(|i| i * 2).sum());
        assert_eq!(m.fold(0usize, |acc, _, _| acc + 1), 100);
    }

    /// Random operation sequences agree with a `HashMap` oracle, over
    /// ids that mix dense runs, strides, a far base and the id-space
    /// edge.
    #[test]
    fn agrees_with_a_hashmap_model() {
        for seed in 0..8u64 {
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            let m = ShardedMap::<u64>::new();
            let mut model = HashMap::<u64, u64>::new();
            for step in 0..4_000u64 {
                let k = rng.next_u64() % 600;
                let id = match rng.next_u64() % 6 {
                    0 | 1 => k,
                    2 => k * 16,
                    3 => k * 64,
                    4 => (1 << 40) + k,
                    _ => u64::MAX - k % 4,
                };
                match rng.next_u64() % 6 {
                    0 | 1 => assert_eq!(m.insert(id, step), model.insert(id, step)),
                    2 => assert_eq!(m.remove(id), model.remove(&id)),
                    3 => {
                        let expected = rng.next_u64() % (step + 1);
                        let hit = model.get(&id) == Some(&expected);
                        if hit {
                            model.remove(&id);
                        }
                        assert_eq!(m.remove_if(id, &expected), hit);
                    }
                    4 => assert_eq!(m.with(id, |v| v + 1), model.get(&id).map(|v| v + 1)),
                    _ => {
                        assert_eq!(m.get(id), model.get(&id).copied());
                        assert_eq!(m.contains(id), model.contains_key(&id));
                    }
                }
                assert_eq!(m.len(), model.len());
                assert_eq!(m.is_empty(), model.is_empty());
            }
            let mut entries = m.fold(Vec::new(), |mut acc, id, &v| {
                acc.push((id, v));
                acc
            });
            entries.sort_unstable();
            let mut expected: Vec<(u64, u64)> = model.into_iter().collect();
            expected.sort_unstable();
            assert_eq!(entries, expected, "seed {seed}");
        }
    }

    /// `get_each` equals per-id `get`, in input order, over ids that
    /// mix present, missing, repeated and far (`u64::MAX`-adjacent) ids,
    /// of every length from empty to several per shard.
    #[test]
    fn get_each_equals_per_id_get() {
        for seed in 0..16u64 {
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            let pick = |rng: &mut Xoshiro256pp| {
                let k = rng.next_u64() % 300;
                match rng.next_u64() % 4 {
                    0 | 1 => k,
                    2 => (1 << 40) + k,
                    _ => u64::MAX - k % 8,
                }
            };
            let m = ShardedMap::new();
            for _ in 0..400 {
                let id = pick(&mut rng);
                m.insert(id, id.wrapping_mul(3));
            }
            for len in 0..80 {
                let mut ids: Vec<u64> = (0..len).map(|_| pick(&mut rng)).collect();
                if len > 1 {
                    // At least one duplicate.
                    ids[len - 1] = ids[rng.next_u64() as usize % (len - 1)];
                }
                let mut got = Vec::new();
                m.get_each(&ids, |id, v| got.push((id, v.copied())));
                let expected: Vec<_> = ids.iter().map(|&id| (id, m.get(id))).collect();
                assert_eq!(got, expected, "seed {seed}, len {len}");
            }
        }
    }

    /// Sweeps in opposite shard orders race writers that insert into the
    /// shards they hold: every sweep ends (a watchdog fails the test
    /// instead of hanging it), and every value a sweep reads is whole
    /// and the same for each repeat of an id within one sweep.
    #[test]
    fn get_each_racing_writers_neither_deadlocks_nor_tears() {
        const IDS: u64 = 4 * SHARDS as u64;
        let m = Arc::new(ShardedMap::new());
        for id in 0..IDS {
            m.insert(id, [id; 4]);
        }
        let (done, finished) = mpsc::channel();
        let workers: Vec<_> = (0..4u64)
            .map(|t| {
                let (m, done) = (Arc::clone(&m), done.clone());
                std::thread::spawn(move || {
                    let mut ids: Vec<u64> = (0..IDS).chain(0..IDS).collect();
                    if t % 2 == 1 {
                        ids.reverse();
                    }
                    for round in 1..=2_000u64 {
                        if t >= 2 {
                            // A writer: every id, each value one word
                            // repeated.
                            for id in 0..IDS {
                                m.insert(id, [id + round * IDS; 4]);
                            }
                            continue;
                        }
                        let mut seen = [None; IDS as usize];
                        m.get_each(&ids, |id, v| {
                            let v = *v.expect("no id is ever removed");
                            assert!(v.iter().all(|&w| w == v[0]), "torn value {v:?}");
                            assert_eq!(v[0] % IDS, id);
                            let first = *seen[id as usize].get_or_insert(v);
                            assert_eq!(first, v, "one sweep saw two values of {id}");
                        });
                    }
                    done.send(()).expect("the test awaits every thread");
                })
            })
            .collect();
        // A panicked thread drops its sender; the join below reports it.
        drop(done);
        for _ in &workers {
            if let Err(RecvTimeoutError::Timeout) = finished.recv_timeout(Duration::from_secs(120))
            {
                panic!("a sweep or a writer deadlocked");
            }
        }
        for w in workers {
            w.join().expect("no thread panicked");
        }
    }

    #[test]
    fn concurrent_writers_land_all_entries() {
        let m = Arc::new(ShardedMap::new());
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    for i in 0..500u64 {
                        m.insert(t * 500 + i, t);
                    }
                });
            }
        });
        assert_eq!(m.len(), 4_000);
        for t in 0..8u64 {
            assert_eq!(m.get(t * 500), Some(t));
        }
    }
}
