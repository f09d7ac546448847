//! Frequency-ranked assignment of samples to storage classes
//! (paper Sec. 5.1, "the last step is to define the fetch order").
//!
//! From the performance-model analysis the paper concludes: cache the
//! samples a worker accesses most frequently in its *fastest* storage
//! class, continue into slower classes, and stop when the dataset is
//! exhausted or local storage is full. Because access frequencies are a
//! pure function of the seed, **every worker computes every other
//! worker's assignment locally** — the distributed placement map needs no
//! metadata traffic at all.
//!
//! Within a class, samples are prefetched in order of their first access
//! in the worker's stream `R` (Rule 1 applied per class), so that data
//! needed early is cached early and no prestaging phase is required.

use crate::engine::{SetupArtifacts, SetupOptions, SetupPass};
use crate::sampler::ShuffleSpec;
use crate::{SampleId, WorkerId};

/// Sentinel: sample not assigned to any local storage class.
pub const UNASSIGNED: u8 = u8::MAX;

/// One worker's mapping of samples to its local storage classes.
///
/// Class indices are local-storage classes ordered fastest-first
/// (class 0 here is the fastest *cache* class, e.g. RAM — the staging
/// buffer is managed separately and never holds long-term assignments).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheAssignment {
    /// `class_of[k]` = storage class caching sample `k`, or [`UNASSIGNED`].
    class_of: Vec<u8>,
    /// Per class: assigned samples in prefetch order (ascending first
    /// access in `R`; never-accessed samples last, by id).
    prefetch_order: Vec<Vec<SampleId>>,
    /// Bytes assigned per class.
    used_bytes: Vec<u64>,
}

impl CacheAssignment {
    /// Computes the assignment for one worker.
    ///
    /// * `frequencies` — `r_k` for this worker (from
    ///   [`crate::frequency::FrequencyTable`]).
    /// * `first_access` — first position of each sample in this worker's
    ///   `R` (`u64::MAX` if never accessed), from
    ///   [`crate::stream::AccessStream::first_access_positions`].
    /// * `sizes` — per-sample sizes in bytes.
    /// * `capacities` — capacity in bytes of each local storage class,
    ///   fastest first (`d_j` in Table 2).
    ///
    /// Ranking is by frequency descending with sample id as the
    /// deterministic tie-break; classes are filled greedily in rank
    /// order, skipping samples that no longer fit (first-fit by rank).
    ///
    /// # Panics
    /// Panics if the per-sample slices disagree in length or more than
    /// 254 storage classes are given (class 255 is the
    /// [`UNASSIGNED`] sentinel).
    pub fn compute(
        frequencies: &[u16],
        first_access: &[u64],
        sizes: &[u64],
        capacities: &[u64],
    ) -> Self {
        let f = frequencies.len();
        assert_eq!(f, first_access.len(), "first_access length mismatch");
        assert_eq!(f, sizes.len(), "sizes length mismatch");
        assert!(capacities.len() < usize::from(u8::MAX), "too many classes");

        // Rank: frequency desc, id asc. Sorting indices avoids moving the
        // payload vectors.
        let mut rank: Vec<u32> = (0..f as u32).collect();
        rank.sort_unstable_by(|&a, &b| {
            frequencies[b as usize]
                .cmp(&frequencies[a as usize])
                .then(a.cmp(&b))
        });

        let mut class_of = vec![UNASSIGNED; f];
        let mut used_bytes = vec![0u64; capacities.len()];
        let mut per_class: Vec<Vec<SampleId>> = vec![Vec::new(); capacities.len()];
        let mut cursor = 0usize;
        for (j, &cap) in capacities.iter().enumerate() {
            let mut used = 0u64;
            // Samples skipped for this class (too big for the remaining
            // space) are reconsidered for the next class, so we walk the
            // rank list once per class starting from the first
            // still-unassigned entry.
            let mut next_cursor = None;
            for (idx, &ranked) in rank.iter().enumerate().skip(cursor) {
                let k = ranked as usize;
                if class_of[k] != UNASSIGNED {
                    continue;
                }
                let s = sizes[k];
                if used + s <= cap {
                    class_of[k] = j as u8;
                    used += s;
                    per_class[j].push(k as SampleId);
                } else if next_cursor.is_none() {
                    next_cursor = Some(idx);
                }
            }
            used_bytes[j] = used;
            cursor = next_cursor.unwrap_or(f);
            if cursor >= f {
                break;
            }
        }

        // Prefetch order within each class: ascending first access,
        // never-accessed (u64::MAX) last, id as the tie-break.
        for list in &mut per_class {
            list.sort_unstable_by_key(|&k| (first_access[k as usize], k));
        }

        Self {
            class_of,
            prefetch_order: per_class,
            used_bytes,
        }
    }

    /// Storage class holding `sample`, if assigned locally.
    pub fn class_of(&self, sample: SampleId) -> Option<u8> {
        match self.class_of[sample as usize] {
            UNASSIGNED => None,
            c => Some(c),
        }
    }

    /// Dense class map (`UNASSIGNED` marks unassigned samples).
    pub fn class_map(&self) -> &[u8] {
        &self.class_of
    }

    /// Samples assigned to class `j` in prefetch order.
    pub fn prefetch_order(&self, class: usize) -> &[SampleId] {
        &self.prefetch_order[class]
    }

    /// Number of storage classes.
    pub fn num_classes(&self) -> usize {
        self.prefetch_order.len()
    }

    /// Bytes assigned to class `j`.
    pub fn used_bytes(&self, class: usize) -> u64 {
        self.used_bytes[class]
    }

    /// Total samples assigned to any local class.
    pub fn assigned_count(&self) -> u64 {
        self.prefetch_order.iter().map(|v| v.len() as u64).sum()
    }
}

/// The cluster-wide placement map: which workers cache which sample in
/// which class. Computed independently (and identically) by every worker
/// from the shared seed.
#[derive(Debug, Clone)]
pub struct GlobalPlacement {
    assignments: Vec<CacheAssignment>,
    /// The (worker, class) pairs caching each sample, all samples' lists
    /// back to back in one array (sample `k`'s is
    /// `holders[holder_offsets[k]..holder_offsets[k + 1]]`, workers
    /// ascending): one allocation instead of one per sample, and no
    /// pointer chase in a probe.
    holders: Vec<(WorkerId, u8)>,
    holder_offsets: Vec<usize>,
    /// Bytes of the samples no worker caches, as a share of the
    /// dataset's.
    uncached_share: f64,
}

impl GlobalPlacement {
    /// Computes placement for all workers of a job.
    ///
    /// `capacities[w]` lists worker `w`'s storage-class capacities,
    /// fastest first. Workers may have heterogeneous hierarchies.
    ///
    /// Runs a dedicated [`SetupPass`] (no stream materialization) to
    /// obtain the frequency and first-access inputs in O(E·F); setup
    /// paths that already hold [`SetupArtifacts`] should call
    /// [`GlobalPlacement::from_artifacts`] instead of paying a second
    /// pass.
    ///
    /// # Panics
    /// Panics if `capacities` does not cover every worker or `sizes`
    /// does not cover every sample.
    pub fn compute(
        spec: &ShuffleSpec,
        epochs: u64,
        sizes: &[u64],
        capacities: &[Vec<u64>],
    ) -> Self {
        let artifacts = SetupPass::with_options(
            *spec,
            epochs,
            SetupOptions {
                materialize_streams: false,
            },
        )
        .run();
        Self::from_artifacts(&artifacts, sizes, capacities)
    }

    /// Computes placement from precomputed [`SetupArtifacts`] without
    /// regenerating any shuffle.
    ///
    /// # Panics
    /// Panics if `capacities` does not cover every worker or `sizes`
    /// does not cover every sample.
    pub fn from_artifacts(
        artifacts: &SetupArtifacts,
        sizes: &[u64],
        capacities: &[Vec<u64>],
    ) -> Self {
        let spec = artifacts.spec();
        assert_eq!(
            capacities.len(),
            spec.num_workers,
            "capacities must cover every worker"
        );
        assert_eq!(
            sizes.len() as u64,
            spec.num_samples,
            "sizes must cover every sample"
        );
        let assignments: Vec<CacheAssignment> = (0..spec.num_workers)
            .map(|w| {
                CacheAssignment::compute(
                    artifacts.table.counts(w),
                    &artifacts.first_access[w],
                    sizes,
                    &capacities[w],
                )
            })
            .collect();

        let f = spec.num_samples as usize;
        let mut holder_offsets = Vec::with_capacity(f + 1);
        let mut holders = Vec::with_capacity(
            assignments
                .iter()
                .map(|a| a.assigned_count() as usize)
                .sum(),
        );
        let (mut uncached_bytes, mut total_bytes) = (0u64, 0u64);
        for k in 0..f {
            holder_offsets.push(holders.len());
            for (w, a) in assignments.iter().enumerate() {
                let c = a.class_map()[k];
                if c != UNASSIGNED {
                    holders.push((w, c));
                }
            }
            total_bytes += sizes[k];
            if holder_offsets[k] == holders.len() {
                uncached_bytes += sizes[k];
            }
        }
        holder_offsets.push(holders.len());
        Self {
            assignments,
            holders,
            holder_offsets,
            uncached_share: uncached_bytes as f64 / total_bytes.max(1) as f64,
        }
    }

    /// Worker `w`'s assignment.
    pub fn assignment(&self, worker: WorkerId) -> &CacheAssignment {
        &self.assignments[worker]
    }

    /// All `(worker, class)` pairs that cache `sample`.
    pub fn holders(&self, sample: SampleId) -> &[(WorkerId, u8)] {
        let k = sample as usize;
        &self.holders[self.holder_offsets[k]..self.holder_offsets[k + 1]]
    }

    /// Whether no worker caches `sample`: every access to it, on any
    /// worker and in any epoch, is an origin read. The plan settles
    /// this before the first fetch.
    pub fn is_uncached(&self, sample: SampleId) -> bool {
        let k = sample as usize;
        self.holder_offsets[k] == self.holder_offsets[k + 1]
    }

    /// The bytes of the samples no worker caches as a share of the
    /// dataset's — and of every worker's access stream, since each
    /// epoch visits each sample once. Zero exactly when every sample
    /// has a holder.
    pub fn uncached_share(&self) -> f64 {
        self.uncached_share
    }

    /// Number of workers.
    pub fn num_workers(&self) -> usize {
        self.assignments.len()
    }

    /// Fraction of the dataset cached by at least one worker — DeepIO
    /// and sharding baselines use this to report dataset coverage.
    pub fn coverage(&self) -> f64 {
        let covered = self
            .holder_offsets
            .windows(2)
            .filter(|w| w[0] < w[1])
            .count();
        covered as f64 / (self.holder_offsets.len() - 1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_frequency_goes_to_fastest_class() {
        let freq = [5u16, 1, 3, 9, 0];
        let first = [0u64, 10, 5, 2, u64::MAX];
        let sizes = [10u64; 5];
        // Class 0 fits two samples, class 1 fits two more.
        let a = CacheAssignment::compute(&freq, &first, &sizes, &[20, 20]);
        // Rank: 3(9), 0(5), 2(3), 1(1), 4(0).
        assert_eq!(a.class_of(3), Some(0));
        assert_eq!(a.class_of(0), Some(0));
        assert_eq!(a.class_of(2), Some(1));
        assert_eq!(a.class_of(1), Some(1));
        assert_eq!(a.class_of(4), None);
        assert_eq!(a.used_bytes(0), 20);
        assert_eq!(a.used_bytes(1), 20);
    }

    #[test]
    fn prefetch_order_follows_first_access() {
        let freq = [5u16, 5, 5, 5];
        let first = [30u64, 10, 20, 0];
        let sizes = [1u64; 4];
        let a = CacheAssignment::compute(&freq, &first, &sizes, &[4]);
        assert_eq!(a.prefetch_order(0), &[3, 1, 2, 0]);
    }

    #[test]
    fn capacity_is_respected_with_skip() {
        let freq = [9u16, 8, 7];
        let first = [0u64, 1, 2];
        let sizes = [10u64, 100, 10];
        // Sample 1 (freq 8) does not fit class 0; sample 2 does.
        let a = CacheAssignment::compute(&freq, &first, &sizes, &[25, 150]);
        assert_eq!(a.class_of(0), Some(0));
        assert_eq!(a.class_of(2), Some(0));
        assert_eq!(a.class_of(1), Some(1));
        assert!(a.used_bytes(0) <= 25);
    }

    #[test]
    fn zero_capacity_class_gets_nothing() {
        let freq = [1u16, 2];
        let first = [0u64, 1];
        let sizes = [5u64, 5];
        let a = CacheAssignment::compute(&freq, &first, &sizes, &[0, 10]);
        assert_eq!(a.prefetch_order(0), &[] as &[SampleId]);
        assert_eq!(a.assigned_count(), 2);
    }

    #[test]
    fn deterministic_tie_break_by_id() {
        let freq = [3u16, 3, 3];
        let first = [0u64, 1, 2];
        let sizes = [1u64; 3];
        let a = CacheAssignment::compute(&freq, &first, &sizes, &[2]);
        // Equal frequencies: ids 0 and 1 win.
        assert_eq!(a.class_of(0), Some(0));
        assert_eq!(a.class_of(1), Some(0));
        assert_eq!(a.class_of(2), None);
    }

    #[test]
    fn no_local_storage_assigns_nothing() {
        let freq = [1u16; 3];
        let first = [0u64, 1, 2];
        let sizes = [1u64; 3];
        let a = CacheAssignment::compute(&freq, &first, &sizes, &[]);
        assert_eq!(a.assigned_count(), 0);
        assert_eq!(a.class_of(0), None);
        assert_eq!(a.num_classes(), 0);
    }

    fn small_placement() -> (ShuffleSpec, GlobalPlacement) {
        let spec = ShuffleSpec::new(11, 100, 4, 4, false);
        let sizes = vec![10u64; 100];
        let caps = vec![vec![120u64, 200u64]; 4]; // 12 + 20 samples/worker
        let p = GlobalPlacement::compute(&spec, 10, &sizes, &caps);
        (spec, p)
    }

    #[test]
    fn global_placement_is_consistent() {
        let (_, p) = small_placement();
        // holders() must agree with per-worker class maps.
        for k in 0..100u64 {
            for &(w, c) in p.holders(k) {
                assert_eq!(p.assignment(w).class_of(k), Some(c));
            }
        }
        for w in 0..4 {
            for k in 0..100u64 {
                if let Some(c) = p.assignment(w).class_of(k) {
                    assert!(p.holders(k).contains(&(w, c)));
                }
            }
        }
    }

    #[test]
    fn from_artifacts_matches_compute() {
        let spec = ShuffleSpec::new(11, 100, 4, 4, false);
        let sizes = vec![10u64; 100];
        let caps = vec![vec![120u64, 200u64]; 4];
        let direct = GlobalPlacement::compute(&spec, 10, &sizes, &caps);
        let arts = SetupPass::new(spec, 10).run();
        let via_arts = GlobalPlacement::from_artifacts(&arts, &sizes, &caps);
        for w in 0..4 {
            assert_eq!(direct.assignment(w), via_arts.assignment(w));
        }
    }

    #[test]
    fn every_worker_computes_identical_placement() {
        // Clairvoyance: placement is a pure function of the spec.
        let (spec, p1) = small_placement();
        let sizes = vec![10u64; 100];
        let caps = vec![vec![120u64, 200u64]; 4];
        let p2 = GlobalPlacement::compute(&spec, 10, &sizes, &caps);
        for w in 0..4 {
            assert_eq!(p1.assignment(w), p2.assignment(w));
        }
    }

    #[test]
    fn coverage_full_when_each_worker_holds_dataset() {
        // "until either it has cached the entire dataset or filled its
        // local storage": ample capacity means every worker caches all.
        let spec = ShuffleSpec::new(11, 100, 4, 4, false);
        let sizes = vec![10u64; 100];
        let caps = vec![vec![2_000u64]; 4];
        let p = GlobalPlacement::compute(&spec, 10, &sizes, &caps);
        assert_eq!(p.coverage(), 1.0);
        for w in 0..4 {
            assert_eq!(p.assignment(w).assigned_count(), 100);
        }
    }

    #[test]
    fn coverage_high_but_partial_with_moderate_storage() {
        // Each worker caches its own hottest samples; globally-cold
        // samples can be missed even when aggregate capacity exceeds the
        // dataset (the policy optimizes fetch time, not coverage).
        let (_, p) = small_placement();
        assert!(p.coverage() > 0.5 && p.coverage() <= 1.0);
    }

    #[test]
    fn coverage_partial_when_storage_scarce() {
        let spec = ShuffleSpec::new(11, 100, 2, 4, false);
        let sizes = vec![10u64; 100];
        let caps = vec![vec![100u64]; 2]; // 10 samples each, 100 total
        let p = GlobalPlacement::compute(&spec, 4, &sizes, &caps);
        assert!(p.coverage() <= 0.2 + 1e-9);
        assert!(p.coverage() > 0.0);
    }

    #[test]
    fn uncached_share_weighs_the_holderless_samples_by_size() {
        let spec = ShuffleSpec::new(11, 100, 2, 4, false);
        let sizes: Vec<u64> = (0..100).map(|k| 10 + k % 7).collect();
        let p = GlobalPlacement::compute(&spec, 4, &sizes, &[vec![150], vec![150]]);
        let uncached: u64 = (0..100u64)
            .filter(|&k| p.holders(k).is_empty())
            .map(|k| sizes[k as usize])
            .sum();
        assert!(uncached > 0);
        for k in 0..100u64 {
            assert_eq!(p.is_uncached(k), p.holders(k).is_empty(), "sample {k}");
        }
        let total: u64 = sizes.iter().sum();
        assert_eq!(p.uncached_share(), uncached as f64 / total as f64);
        // Every sample held somewhere: exactly zero, not merely small.
        let full = GlobalPlacement::compute(&spec, 4, &sizes, &[vec![2_000], vec![0]]);
        assert_eq!(full.uncached_share(), 0.0);
    }

    #[test]
    #[should_panic(expected = "cover every worker")]
    fn rejects_wrong_capacity_count() {
        let spec = ShuffleSpec::new(1, 10, 2, 2, false);
        GlobalPlacement::compute(&spec, 1, &[1; 10], &[vec![10]]);
    }
}
