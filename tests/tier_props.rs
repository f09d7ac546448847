//! Property tests for the tiered storage hierarchy: a [`TierStack`]
//! must be a *transparent* cache over its origin — byte-identical
//! reads under any tier configuration, capacity accounting that never
//! goes negative across promote/evict cycles, and graceful degradation
//! to the paper's two-tier (RAM + PFS) setup when a middle tier has no
//! capacity.

use bytes::Bytes;
use nopfs::obs::{names, Registry, Snapshot};
use nopfs::pfs::Pfs;
use nopfs::storage::backend::BackendError;
use nopfs::storage::{
    DataSource, MemoryBackend, PromotePolicy, StorageBackend, ThrottledBackend, TierStack,
};
use nopfs::util::rng::Xoshiro256pp;
use nopfs::util::timing::TimeScale;
use proptest::prelude::*;
use std::sync::Arc;

/// A PFS origin holding `n` samples of seeded sizes/contents.
fn materialized_pfs(seed: u64, n: u64) -> (Pfs, Vec<Bytes>) {
    let pfs = Pfs::in_memory(
        nopfs::perfmodel::ThroughputCurve::flat(1e12),
        TimeScale::new(1e-6),
    );
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let payloads: Vec<Bytes> = (0..n)
        .map(|id| {
            let size = 1 + rng.next_below(64) as usize;
            let fill = (id % 251) as u8 ^ (seed % 256) as u8;
            let data = Bytes::from(vec![fill; size]);
            pfs.put(id, data.clone());
            data
        })
        .collect();
    (pfs, payloads)
}

fn stack_over(pfs: &Pfs, caps: &[u64], promote: PromotePolicy) -> TierStack {
    stack_in_registry(pfs, caps, promote, &Registry::new())
}

fn stack_in_registry(
    pfs: &Pfs,
    caps: &[u64],
    promote: PromotePolicy,
    registry: &Registry,
) -> TierStack {
    let mut sources: Vec<Arc<dyn DataSource>> = caps
        .iter()
        .enumerate()
        .map(|(j, &cap)| {
            Arc::new(MemoryBackend::new(format!("tier{j}"), cap)) as Arc<dyn DataSource>
        })
        .collect();
    sources.push(Arc::new(pfs.clone()));
    TierStack::new(sources, promote, registry)
}

/// A memory store that reports no sample sizes, so that an eviction
/// through the stack books the bytes of the stack's own size table.
struct SizeBlind(MemoryBackend);

impl StorageBackend for SizeBlind {
    fn name(&self) -> &str {
        StorageBackend::name(&self.0)
    }

    fn capacity(&self) -> u64 {
        StorageBackend::capacity(&self.0)
    }

    fn used(&self) -> u64 {
        StorageBackend::used(&self.0)
    }

    fn insert(&self, id: u64, data: Bytes) -> Result<(), BackendError> {
        self.0.insert(id, data)
    }

    fn get(&self, id: u64) -> Option<Bytes> {
        self.0.get(id)
    }

    fn contains(&self, id: u64) -> bool {
        StorageBackend::contains(&self.0, id)
    }

    fn evict(&self, id: u64) -> bool {
        StorageBackend::evict(&self.0, id)
    }

    fn count(&self) -> usize {
        StorageBackend::count(&self.0)
    }

    fn size_of(&self, _: u64) -> Option<u64> {
        None
    }
}

/// A stack of throttled [`SizeBlind`] cache tiers — the class tiers'
/// write path, with rates that never make anyone wait — over `pfs`.
fn size_blind_stack(pfs: &Pfs, caps: &[u64]) -> TierStack {
    let mut sources: Vec<Arc<dyn DataSource>> = caps
        .iter()
        .enumerate()
        .map(|(j, &cap)| {
            Arc::new(ThrottledBackend::new(
                SizeBlind(MemoryBackend::new(format!("tier{j}"), cap)),
                1e15,
                1e15,
                TimeScale::realtime(),
            )) as Arc<dyn DataSource>
        })
        .collect();
    sources.push(Arc::new(pfs.clone()));
    TierStack::new(sources, PromotePolicy::Never, &Registry::new())
}

/// The ids in `0..n` a cache tier's source holds but the catalog does
/// not place at that tier, as (tier, id, catalog entry): empty when no
/// resident bytes outlive their catalog entry.
fn uncataloged_residents(stack: &TierStack, n: u64) -> Vec<(usize, u64, Option<usize>)> {
    (0..stack.cache_tiers())
        .flat_map(|tier| (0..n).map(move |id| (tier, id)))
        .filter(|&(tier, id)| stack.source(tier).contains(id) && stack.locate(id) != Some(tier))
        .map(|(tier, id)| (tier, id, stack.locate(id)))
        .collect()
}

/// Observations in `registry`'s `tier.read_latency_ns` histograms.
fn latency_observations(registry: &Registry) -> u64 {
    Snapshot::capture(registry)
        .histograms
        .iter()
        .filter(|h| h.name == names::TIER_READ_LATENCY)
        .map(|h| h.value.count)
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under random tier counts, capacities, promotion policies, and
    /// access sequences, every `TierStack::read` is byte-identical to a
    /// direct `Pfs::read`.
    #[test]
    fn tiered_reads_equal_direct_pfs_reads(
        seed in any::<u64>(),
        caps in prop::collection::vec(0u64..200, 0..4),
        accesses in prop::collection::vec(0u64..32, 1..120),
        evicting in any::<bool>(),
    ) {
        let (pfs, payloads) = materialized_pfs(seed, 32);
        let promote = if evicting { PromotePolicy::Evicting } else { PromotePolicy::IfFits };
        let stack = stack_over(&pfs, &caps, promote);
        for &id in &accesses {
            let via_stack = stack.read(id).expect("origin holds every sample");
            let direct = pfs.read(id).expect("origin holds every sample");
            prop_assert_eq!(&via_stack, &direct, "sample {} corrupted by the hierarchy", id);
            prop_assert_eq!(&via_stack, &payloads[id as usize]);
        }
        // Reads were fully accounted: every access hit exactly one tier.
        let total_hits: u64 = stack.all_stats().iter().map(|s| s.hits).sum();
        prop_assert_eq!(total_hits, accesses.len() as u64);
    }

    /// Capacity accounting never goes negative (or over capacity) and
    /// stays consistent with the backing sources across arbitrary
    /// promote/evict cycles, including explicit evictions.
    #[test]
    fn capacity_accounting_survives_promote_evict_cycles(
        seed in any::<u64>(),
        caps in prop::collection::vec(0u64..150, 1..4),
        ops in prop::collection::vec((0u64..24, any::<bool>()), 1..150),
    ) {
        let (pfs, _) = materialized_pfs(seed, 24);
        let stack = stack_over(&pfs, &caps, PromotePolicy::Evicting);
        for &(id, evict) in &ops {
            if evict {
                if let Some(tier) = stack.locate(id) {
                    stack.evict(tier, id);
                }
            } else {
                stack.read(id).expect("origin holds every sample");
            }
            for (j, &cap) in caps.iter().enumerate() {
                let s = stack.stats(j);
                // `used` is u64 (can't be negative); the invariants are
                // no over-capacity and fill/evict bookkeeping balance.
                prop_assert!(s.used <= cap, "tier {} used {} > cap {}", j, s.used, cap);
                prop_assert!(s.bytes_evicted <= s.bytes_filled);
                prop_assert!(s.evictions <= s.fills);
                prop_assert_eq!(s.used, stack.source(j).used());
            }
        }
        // After evicting everything, every tier drains to exactly zero.
        for id in 0..24 {
            if let Some(tier) = stack.locate(id) {
                stack.evict(tier, id);
            }
        }
        for j in 0..caps.len() {
            prop_assert_eq!(stack.stats(j).used, 0);
            prop_assert_eq!(stack.source(j).count(), 0);
        }
    }

    /// Concurrent readers under random tier shapes and promotion
    /// policies see exactly the bytes a sequential oracle sees: every
    /// read (single or vectored) from any thread is byte-identical to
    /// the origin's payload, while read-path promotions, FIFO
    /// evictions, and spill demotions race freely underneath.
    #[test]
    fn concurrent_mixed_ops_preserve_byte_identity(
        seed in any::<u64>(),
        caps in prop::collection::vec(0u64..200, 1..4),
        evicting in any::<bool>(),
    ) {
        let (pfs, payloads) = materialized_pfs(seed, 32);
        let promote = if evicting { PromotePolicy::Evicting } else { PromotePolicy::IfFits };
        let stack = stack_over(&pfs, &caps, promote);
        let stack = &stack;
        let payloads = &payloads;
        std::thread::scope(|s| {
            for t in 0..4u64 {
                s.spawn(move || {
                    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ (t + 1));
                    for _ in 0..40 {
                        match rng.next_below(4) {
                            // Single reads: byte-identity under racing
                            // promotions/evictions.
                            0 | 1 => {
                                let id = rng.next_below(32);
                                let data = stack.read(id).expect("origin holds every sample");
                                assert_eq!(data, payloads[id as usize], "sample {id} corrupted");
                            }
                            // Vectored reads: same contract, batched.
                            2 => {
                                let ids: Vec<u64> =
                                    (0..4).map(|_| rng.next_below(32)).collect();
                                for (r, &id) in stack.read_many(&ids).iter().zip(&ids) {
                                    let data = r.as_ref().expect("origin holds every sample");
                                    assert_eq!(data, &payloads[id as usize], "sample {id} corrupted");
                                }
                            }
                            // Explicit evictions racing the readers.
                            _ => {
                                let id = rng.next_below(32);
                                if let Some(tier) = stack.locate(id) {
                                    stack.evict(tier, id);
                                }
                            }
                        }
                    }
                });
            }
        });
        // Quiesced: the catalog and the backing sources agree exactly.
        let stranded = uncataloged_residents(stack, 32);
        prop_assert!(stranded.is_empty(), "(tier, id, catalog entry): {:?}", stranded);
        for (j, &cap) in caps.iter().enumerate() {
            let s = stack.stats(j);
            prop_assert!(s.used <= cap, "tier {} used {} > cap {}", j, s.used, cap);
            prop_assert_eq!(s.used, stack.source(j).used());
        }
    }

    /// Exact capacity accounting under concurrency: after racing
    /// readers (promotions, FIFO evictions, spills) and evictors
    /// quiesce, each tier's `used` equals its backend's accounting,
    /// never exceeded its capacity mid-run, and draining every resident
    /// sample returns it to exactly zero — no leaked or double-counted
    /// bytes.
    #[test]
    fn concurrent_capacity_accounting_is_exact(
        seed in any::<u64>(),
        caps in prop::collection::vec(1u64..120, 1..3),
    ) {
        let (pfs, _) = materialized_pfs(seed, 24);
        let stack = stack_over(&pfs, &caps, PromotePolicy::Evicting);
        let stack = &stack;
        let caps_ref = &caps;
        std::thread::scope(|s| {
            // Readers drive promotion/eviction/demotion churn.
            for t in 0..3u64 {
                s.spawn(move || {
                    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ (0xA0 + t));
                    for _ in 0..50 {
                        let id = rng.next_below(24);
                        stack.read(id).expect("origin holds every sample");
                    }
                });
            }
            // One evictor racing them, also spot-checking that used can
            // never exceed capacity while the churn runs.
            s.spawn(move || {
                let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0xE0);
                for _ in 0..50 {
                    let id = rng.next_below(24);
                    if let Some(tier) = stack.locate(id) {
                        stack.evict(tier, id);
                    }
                    for (j, &cap) in caps_ref.iter().enumerate() {
                        let used = stack.stats(j).used;
                        assert!(used <= cap, "tier {j} used {used} > cap {cap} mid-run");
                    }
                }
            });
        });
        let stranded = uncataloged_residents(stack, 24);
        prop_assert!(stranded.is_empty(), "(tier, id, catalog entry): {:?}", stranded);
        // Drain everything; exact zero proves no byte was leaked by a
        // racing reservation or double-freed by a racing eviction.
        for id in 0..24 {
            if let Some(tier) = stack.locate(id) {
                stack.evict(tier, id);
            }
        }
        for j in 0..caps.len() {
            prop_assert_eq!(stack.stats(j).used, 0, "tier {} leaked bytes", j);
            prop_assert_eq!(stack.source(j).count(), 0);
        }
    }

    /// `read_tier_many` is the sequence of single `read_tier` calls it
    /// replaces: on two- and three-tier stacks, over ids cached in the
    /// tier read, cached elsewhere, cached nowhere, repeated within a
    /// call and evicted behind the catalog's back, it returns the same
    /// bytes and leaves the same hits, misses, bytes read, residency
    /// and catalog — and one latency observation per call that hit,
    /// where the single reads leave one per hit.
    #[test]
    fn vectored_tier_reads_equal_the_single_reads_they_replace(
        seed in any::<u64>(),
        three_tiers in any::<bool>(),
        cached in prop::collection::vec(0u64..32, 0..32),
        stale in prop::collection::vec(0u64..32, 0..8),
        calls in prop::collection::vec(
            (0usize..2, prop::collection::vec(0u64..32, 0..12)),
            1..10,
        ),
    ) {
        let (pfs, payloads) = materialized_pfs(seed, 32);
        let cache_tiers = if three_tiers { 2 } else { 1 };
        let caps = vec![64 * 32; cache_tiers];
        let (single_reg, vectored_reg) = (Registry::new(), Registry::new());
        let single = stack_in_registry(&pfs, &caps, PromotePolicy::Never, &single_reg);
        let vectored = stack_in_registry(&pfs, &caps, PromotePolicy::Never, &vectored_reg);
        for stack in [&single, &vectored] {
            for &id in &cached {
                let tier = (id ^ seed) as usize % cache_tiers;
                stack.fill(tier, id, payloads[id as usize].clone()).expect("roomy tiers");
            }
            for &id in &stale {
                if let Some(tier) = stack.locate(id) {
                    stack.source(tier).evict(id);
                    prop_assert_eq!(stack.locate(id), Some(tier), "the catalog was not told");
                }
            }
        }
        for (tier, ids) in &calls {
            let tier = tier % cache_tiers;
            let (seen_single, seen_vectored) =
                (latency_observations(&single_reg), latency_observations(&vectored_reg));
            let one_by_one: Vec<Option<Bytes>> =
                ids.iter().map(|&id| single.read_tier(tier, id).ok()).collect();
            let mut swept = Vec::new();
            vectored.read_tier_many(tier, ids, |r| swept.push(r.ok()));
            prop_assert_eq!(&swept, &one_by_one);
            for (data, &id) in swept.iter().zip(ids) {
                if let Some(data) = data {
                    prop_assert_eq!(data, &payloads[id as usize]);
                }
            }
            for j in 0..cache_tiers {
                let (a, b) = (single.stats(j), vectored.stats(j));
                prop_assert_eq!(
                    (a.hits, a.misses, a.bytes_read, a.used),
                    (b.hits, b.misses, b.bytes_read, b.used),
                    "tier {}", j
                );
            }
            for id in 0..32 {
                prop_assert_eq!(single.locate(id), vectored.locate(id), "catalog entry of {}", id);
            }
            let hits = swept.iter().flatten().count() as u64;
            prop_assert_eq!(latency_observations(&single_reg) - seen_single, hits);
            prop_assert_eq!(
                latency_observations(&vectored_reg) - seen_vectored,
                u64::from(hits > 0)
            );
        }
    }

    /// `fill_many` is the loop of single `fill` calls it replaces: over
    /// batches with repeated ids, ids already cataloged in the other
    /// tier (whose copy is retired) and items that do not fit, it gives
    /// the same result per item, in order, and leaves the same catalog,
    /// the same residency and every `TierStats` counter the same after
    /// each batch. Draining both stacks at the end books the same
    /// evicted bytes, which the size-blind tiers take from the stack's
    /// own size table.
    #[test]
    fn vectored_fills_equal_the_single_fills_they_replace(
        seed in any::<u64>(),
        caps in prop::collection::vec(0u64..600, 2..3),
        calls in prop::collection::vec(
            (0usize..2, prop::collection::vec(0u64..32, 0..12)),
            1..12,
        ),
    ) {
        let (pfs, payloads) = materialized_pfs(seed, 32);
        let single = size_blind_stack(&pfs, &caps);
        let vectored = size_blind_stack(&pfs, &caps);
        let mut items = Vec::new();
        for (tier, ids) in &calls {
            let one_by_one: Vec<_> = ids
                .iter()
                .map(|&id| (id, single.fill(*tier, id, payloads[id as usize].clone())))
                .collect();
            items.extend(ids.iter().map(|&id| (id, payloads[id as usize].clone())));
            let mut batched = Vec::new();
            vectored.fill_many(*tier, &mut items, |id, r| batched.push((id, r)));
            prop_assert!(items.is_empty(), "the batch is moved out");
            prop_assert_eq!(&batched, &one_by_one);
            prop_assert_eq!(single.all_stats(), vectored.all_stats());
            for id in 0..32 {
                prop_assert_eq!(single.locate(id), vectored.locate(id), "catalog entry of {}", id);
            }
        }
        for stack in [&single, &vectored] {
            for id in 0..32 {
                if let Some(tier) = stack.locate(id) {
                    prop_assert!(stack.evict(tier, id));
                }
            }
        }
        prop_assert_eq!(single.all_stats(), vectored.all_stats());
        for j in 0..caps.len() {
            prop_assert_eq!(vectored.stats(j).used, 0, "tier {} drained", j);
        }
    }

    /// A zero-capacity middle tier degrades the three-tier hierarchy to
    /// the paper's two-tier setup: identical bytes, identical top-tier
    /// and origin traffic, nothing ever resident in the dead tier.
    #[test]
    fn zero_capacity_middle_tier_degrades_to_two_tiers(
        seed in any::<u64>(),
        ram_cap in 1u64..200,
        accesses in prop::collection::vec(0u64..24, 1..100),
    ) {
        let (pfs, _) = materialized_pfs(seed, 24);
        let three = stack_over(&pfs, &[ram_cap, 0], PromotePolicy::IfFits);
        let two = stack_over(&pfs, &[ram_cap], PromotePolicy::IfFits);
        for &id in &accesses {
            prop_assert_eq!(three.read(id).expect("ok"), two.read(id).expect("ok"));
        }
        let (t3, t2) = (three.all_stats(), two.all_stats());
        // Top tier behaves identically...
        prop_assert_eq!(t3[0].hits, t2[0].hits);
        prop_assert_eq!(t3[0].fills, t2[0].fills);
        prop_assert_eq!(t3[0].used, t2[0].used);
        // ...the dead middle tier never holds anything...
        prop_assert_eq!(t3[1].fills, 0);
        prop_assert_eq!(t3[1].used, 0);
        // ...and the origin sees the same traffic in both setups.
        prop_assert_eq!(t3[2].hits, t2[1].hits);
        prop_assert_eq!(t3[2].bytes_read, t2[1].bytes_read);
    }
}
