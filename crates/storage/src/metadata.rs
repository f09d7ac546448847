//! The metadata store: "a catalog of locally cached samples"
//! (paper Sec. 5.2.2).
//!
//! Tracks which storage class currently holds each locally cached
//! sample. Because NoPFS placement is clairvoyant, the catalog needs no
//! distributed synchronization — every worker maintains only its own —
//! but it is updated concurrently by that worker's class prefetchers
//! and queried by its staging prefetchers and the remote-serving
//! thread, so it must be thread-safe.

use crate::shard::ShardedMap;
use crate::SampleId;

/// Thread-safe catalog of locally cached samples.
///
/// Backed by a [`ShardedMap`] so catalog lookups on the fetch hot path
/// (every `TierStack::read` starts with one) don't contend on a single
/// lock word across reader threads.
#[derive(Debug, Default)]
pub struct MetadataStore {
    map: ShardedMap<u8>,
}

impl MetadataStore {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `id` is cached in storage class `class`, returning
    /// the class a previous entry pointed at (so the caller can retire
    /// the superseded resident copy instead of orphaning it).
    pub fn mark_cached(&self, id: SampleId, class: u8) -> Option<u8> {
        self.map.insert(id, class)
    }

    /// Claims the catalog entry for `id` at `class` unless a *faster*
    /// class already holds it (atomic check-and-set under the entry's
    /// shard lock — the placement arbiter for racing promotions).
    ///
    /// Returns `Ok(prev)` when the claim won (`prev` is the displaced
    /// slower entry, which the caller must retire) and `Err(faster)`
    /// when a strictly faster copy is already cataloged (the caller
    /// must withdraw its own copy).
    ///
    /// # Errors
    /// `Err(existing)` when `existing < class`.
    pub fn claim_fastest(&self, id: SampleId, class: u8) -> Result<Option<u8>, u8> {
        let mut shard = self.map.shard(id).write();
        match shard.get(&id) {
            Some(&existing) if existing < class => Err(existing),
            _ => Ok(shard.insert(id, class)),
        }
    }

    /// The class caching `id`, if any.
    pub fn lookup(&self, id: SampleId) -> Option<u8> {
        self.map.get(id)
    }

    /// [`Self::lookup`] of each id, in order, through one
    /// [`ShardedMap::get_each`] (whose lock rules `sink` keeps).
    pub fn lookup_each(&self, ids: &[SampleId], mut sink: impl FnMut(Option<u8>)) {
        self.map.get_each(ids, |_, class| sink(class.copied()));
    }

    /// Removes `id` only if it is currently cataloged in `class`
    /// (atomic compare-and-remove, for callers repairing a stale entry
    /// that may have been re-cataloged concurrently). Returns whether
    /// the entry was removed.
    pub fn remove_if(&self, id: SampleId, class: u8) -> bool {
        self.map.remove_if(id, &class)
    }

    /// Number of cached samples.
    pub fn cached_count(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mark_lookup_remove() {
        let m = MetadataStore::new();
        assert_eq!(m.lookup(1), None);
        m.mark_cached(1, 0);
        m.mark_cached(2, 1);
        assert_eq!(m.lookup(1), Some(0));
        assert_eq!(m.lookup(2), Some(1));
        assert_eq!(m.cached_count(), 2);
        let mut each = Vec::new();
        m.lookup_each(&[2, 3, 1, 2], |c| each.push(c));
        assert_eq!(each, [Some(1), None, Some(0), Some(1)]);
        assert!(m.remove_if(1, 0));
        assert!(!m.remove_if(1, 0));
        assert_eq!(m.lookup(1), None);
        assert_eq!(m.cached_count(), 1);
        // Guarded removal only fires on a matching class.
        assert!(!m.remove_if(2, 0));
        assert_eq!(m.lookup(2), Some(1));
        assert!(m.remove_if(2, 1));
        assert!(!m.remove_if(2, 1));
        assert_eq!(m.cached_count(), 0);
    }

    #[test]
    fn reclassification_overwrites() {
        let m = MetadataStore::new();
        m.mark_cached(5, 1);
        m.mark_cached(5, 0); // promoted to a faster class
        assert_eq!(m.lookup(5), Some(0));
        assert_eq!(m.cached_count(), 1);
    }

    #[test]
    fn concurrent_marking_is_consistent() {
        let m = Arc::new(MetadataStore::new());
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for i in 0..250u64 {
                        m.mark_cached(t * 250 + i, (t % 2) as u8);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.cached_count(), 1_000);
        for id in 0..1_000u64 {
            assert_eq!(m.lookup(id), Some((id / 250 % 2) as u8));
        }
    }
}
