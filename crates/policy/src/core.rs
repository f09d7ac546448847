//! The shared decision core: per-policy decision logic executed by
//! **both** the threaded runtime and the discrete-event simulator.
//!
//! Each baseline policy answers the same questions in either harness —
//! *where does this sample come from?* (ownership / sharding maps),
//! *which samples may this worker ever see?* (epoch transforms,
//! coverage), *what is prestaged?* — so those answers are computed
//! once, here, from the seed and the system description. The simulator
//! wraps a [`PolicyCore`] in its event-loop adapter; the runtime
//! drives real prefetch threads, caches, and a serving loop off the
//! identical object. Any future policy added here is automatically
//! visible to every harness.
//!
//! `NoPfs` and `Perfect` have no core: NoPFS's decisions are
//! *dynamic* (live cache metadata in the runtime, modelled ready times
//! in the simulator — both funneling into
//! [`crate::decision::select_source_degraded`]), and the lower bound is
//! definitionally harness-specific.

use crate::decision::staging_share;
use crate::id::PolicyId;
use crate::Unsupported;
use nopfs_clairvoyance::sampler::{EpochShuffle, ShuffleSpec};
use nopfs_clairvoyance::SampleId;
use nopfs_perfmodel::SystemSpec;
use nopfs_util::rng::{mix64, Xoshiro256pp};
use nopfs_util::units::format_bytes;

/// Sentinel: sample not assigned to any local storage class (mirrors
/// `nopfs_clairvoyance::placement::UNASSIGNED`).
const UNASSIGNED: u8 = u8::MAX;

/// Where one access is served from, as decided by the shared core.
///
/// Unlike `nopfs_perfmodel::Location`, a remote decision names the
/// *owner* so the runtime knows which peer to ask; the simulator only
/// prices the class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// This worker's own storage class.
    Local(u8),
    /// A peer's cache: who to ask and which class it sits in.
    Remote {
        /// Rank of the holding worker.
        owner: u16,
        /// The holder's storage class (for fetch-time pricing).
        class: u8,
    },
    /// The parallel filesystem.
    Pfs,
}

/// The decision logic of one baseline policy, shared by every harness.
///
/// All methods take `&self`: decisions are pure functions of the seed
/// and configuration (the clairvoyance property), so the runtime can
/// consult one core from many threads.
pub trait PolicyCore: Send + Sync {
    /// Whether reads overlap with compute through prefetch threads
    /// (false only for the synchronous Naive policy, whose runtime
    /// loader reads each access inline when the consumer asks for it).
    fn overlapped(&self) -> bool {
        true
    }

    /// Samples worker `w` loads into its storage classes during the
    /// non-overlapped prestaging phase, as `(sample, class)` pairs in
    /// load order. Empty for policies that start training immediately.
    fn prestage_list(&self, _worker: usize) -> Vec<(SampleId, u8)> {
        Vec::new()
    }

    /// Bytes of the largest per-worker prestage load (0 = no prestage).
    fn max_prestage_bytes(&self) -> u64 {
        0
    }

    /// Modelled seconds of non-overlapped prestaging: the slowest
    /// worker's load at the bulk-staging PFS share.
    fn prestage_seconds(&self, sys: &SystemSpec) -> f64 {
        self.max_prestage_bytes() as f64 / staging_share(sys)
    }

    /// May reorder or replace the per-worker epoch sequences (the
    /// randomization compromise the paper criticizes sharding-style
    /// policies for). Must preserve each worker's sequence length.
    fn transform_epoch(
        &self,
        _epoch: u64,
        seqs: Vec<Vec<SampleId>>,
        _global: &EpochShuffle,
    ) -> Vec<Vec<SampleId>> {
        seqs
    }

    /// Picks the fetch source for one access of the (already
    /// transformed) epoch sequence.
    fn source(&self, worker: usize, sample: SampleId, epoch: u64) -> Source;

    /// The class a non-local fetch should be cached into afterwards
    /// (first-touch policies), or `None` to not cache.
    ///
    /// The contract the runtime's fill gate relies on: a core plans
    /// fills only in its [`prestage_list`](Self::prestage_list) or in
    /// epoch 0 — `cache_class` is `None` from epoch 1 on — and an
    /// epoch-0 access that it caches reads the PFS
    /// ([`source`](Self::source) is [`Source::Pfs`]). So once every
    /// rank's epoch 0 has been fetched, every planned fill has landed
    /// or failed for good.
    fn cache_class(&self, _worker: usize, _sample: SampleId, _epoch: u64) -> Option<u8> {
        None
    }

    /// Fraction of the dataset a worker can ever access.
    fn coverage(&self) -> f64 {
        1.0
    }

    /// Caveat note (the paper's "Does not access entire dataset").
    fn note(&self) -> Option<String> {
        None
    }
}

/// Builds the shared core for `policy`, or `None` for the two policies
/// whose decisions are harness-specific (`NoPfs`, `Perfect`).
///
/// # Errors
/// [`Unsupported`] when the policy cannot run the configuration (the
/// LBANN data store with a dataset exceeding aggregate worker memory).
pub fn build_core(
    policy: PolicyId,
    sys: &SystemSpec,
    sizes: &[u64],
    spec: &ShuffleSpec,
) -> Result<Option<Box<dyn PolicyCore>>, Unsupported> {
    Ok(match policy {
        PolicyId::Perfect | PolicyId::NoPfs => None,
        PolicyId::Naive => Some(Box::new(PfsOnlyCore { overlapped: false })),
        PolicyId::StagingBuffer => Some(Box::new(PfsOnlyCore { overlapped: true })),
        PolicyId::DeepIoOrdered => Some(Box::new(DeepIoCore::new(sys, sizes, true))),
        PolicyId::DeepIoOpportunistic => Some(Box::new(DeepIoCore::new(sys, sizes, false))),
        PolicyId::ParallelStaging => Some(Box::new(ShardingCore::new(sys, sizes, spec))),
        PolicyId::LbannDynamic => Some(Box::new(LbannCore::new(sys, sizes, spec, false)?)),
        PolicyId::LbannPreloading => Some(Box::new(LbannCore::new(sys, sizes, spec, true)?)),
        PolicyId::LocalityAware => Some(Box::new(LocalityCore::new(sys, sizes, spec))),
    })
}

/// Materializes each worker's full (transformed) access stream for a
/// run of `epochs` epochs: the concatenation of the per-epoch
/// sequences after the core's transform. With `core = None` this is
/// the standard untransformed stream.
///
/// Every harness that replays a policy's accesses derives them through
/// this one function, which is what makes the cross-harness agreement
/// tests exact.
pub fn transformed_streams(
    core: Option<&dyn PolicyCore>,
    spec: &ShuffleSpec,
    epochs: u64,
) -> Vec<Vec<SampleId>> {
    let n = spec.num_workers;
    let mut streams: Vec<Vec<SampleId>> = vec![Vec::new(); n];
    for e in 0..epochs {
        let shuffle = spec.epoch_shuffle(e);
        let mut seqs: Vec<Vec<SampleId>> = (0..n).map(|w| shuffle.worker_sequence(w)).collect();
        if let Some(core) = core {
            seqs = core.transform_epoch(e, seqs, &shuffle);
        }
        for (w, seq) in seqs.into_iter().enumerate() {
            streams[w].extend(seq);
        }
    }
    streams
}

/// Checks the LBANN data store's documented requirement: the dataset
/// must fit in aggregate worker memory (class 0 across all workers).
pub fn lbann_feasible(sys: &SystemSpec, total_bytes: u64) -> Result<(), Unsupported> {
    let ram = sys.classes.first().map_or(0, |c| c.capacity);
    let aggregate = ram.saturating_mul(sys.workers as u64);
    if total_bytes > aggregate {
        return Err(Unsupported(format!(
            "LBANN data store requires the dataset ({}) to fit in aggregate worker memory ({})",
            format_bytes(total_bytes as f64),
            format_bytes(aggregate as f64),
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Trivial PFS-bound policies
// ---------------------------------------------------------------------

/// Naive (synchronous) and StagingBuffer (PyTorch double-buffering /
/// `tf.data`): every fetch goes to the PFS; the only difference is
/// whether prefetch threads overlap it with compute.
struct PfsOnlyCore {
    overlapped: bool,
}

impl PolicyCore for PfsOnlyCore {
    fn overlapped(&self) -> bool {
        self.overlapped
    }

    fn source(&self, _w: usize, _k: SampleId, _epoch: u64) -> Source {
        Source::Pfs
    }
}

// ---------------------------------------------------------------------
// DeepIO
// ---------------------------------------------------------------------

/// DeepIO: a sharded in-memory (RAM-only) cache. Each worker holds the
/// round-robin shard `id ≡ rank (mod N)` up to its RAM capacity,
/// preloaded before training. Ordered mode preserves the requested
/// order, reading uncached samples from the PFS; opportunistic mode
/// substitutes cached samples for uncached ones, never touching the PFS
/// again but shrinking effective dataset coverage.
pub struct DeepIoCore {
    ordered: bool,
    /// Caching worker per sample, or -1.
    owner_of: Vec<i32>,
    /// Each worker's cached sample ids (shard + substitution pool).
    shards: Vec<Vec<SampleId>>,
    max_shard_bytes: u64,
    cached_samples: u64,
    num_samples: u64,
}

impl DeepIoCore {
    /// Computes the round-robin shard plan for `sys`'s RAM class.
    pub fn new(sys: &SystemSpec, sizes: &[u64], ordered: bool) -> Self {
        let n = sys.workers;
        let f = sizes.len();
        let ram_cap = sys.classes.first().map_or(0, |c| c.capacity);
        let mut owner_of = vec![-1i32; f];
        let mut shards: Vec<Vec<SampleId>> = vec![Vec::new(); n];
        let mut max_shard_bytes = 0u64;
        for (w, shard) in shards.iter_mut().enumerate() {
            let mut used = 0u64;
            let mut id = w;
            while id < f {
                let s = sizes[id];
                if used + s > ram_cap {
                    break;
                }
                used += s;
                owner_of[id] = w as i32;
                shard.push(id as SampleId);
                id += n;
            }
            max_shard_bytes = max_shard_bytes.max(used);
        }
        let cached_samples = owner_of.iter().filter(|&&o| o >= 0).count() as u64;
        Self {
            ordered,
            owner_of,
            shards,
            max_shard_bytes,
            cached_samples,
            num_samples: f as u64,
        }
    }

    /// The shard (cached sample ids) of worker `w`.
    pub fn shard(&self, w: usize) -> &[SampleId] {
        &self.shards[w]
    }

    /// Samples cached anywhere in the cluster.
    pub fn cached_samples(&self) -> u64 {
        self.cached_samples
    }
}

impl PolicyCore for DeepIoCore {
    fn prestage_list(&self, worker: usize) -> Vec<(SampleId, u8)> {
        self.shards[worker].iter().map(|&k| (k, 0)).collect()
    }

    fn max_prestage_bytes(&self) -> u64 {
        self.max_shard_bytes
    }

    fn transform_epoch(
        &self,
        epoch: u64,
        mut seqs: Vec<Vec<SampleId>>,
        _global: &EpochShuffle,
    ) -> Vec<Vec<SampleId>> {
        if self.ordered {
            return seqs;
        }
        // Opportunistic mode: swap uncached accesses for cached samples,
        // preferring the worker's own shard. The substitution cursor is
        // a pure function of (epoch, worker), so both harnesses derive
        // the identical replacement sequence.
        for (w, seq) in seqs.iter_mut().enumerate() {
            let mut cursor = epoch as usize;
            for slot in seq.iter_mut() {
                if self.owner_of[*slot as usize] >= 0 {
                    continue;
                }
                let shard = &self.shards[w];
                if !shard.is_empty() {
                    *slot = shard[cursor % shard.len()];
                    cursor = cursor.wrapping_add(1);
                } else if let Some(other) = self.shards.iter().find(|s| !s.is_empty()) {
                    *slot = other[cursor % other.len()];
                    cursor = cursor.wrapping_add(1);
                }
                // No cache anywhere: leave the access as-is (PFS).
            }
        }
        seqs
    }

    fn source(&self, w: usize, k: SampleId, _epoch: u64) -> Source {
        match self.owner_of[k as usize] {
            o if o == w as i32 => Source::Local(0),
            o if o >= 0 => Source::Remote {
                owner: o as u16,
                class: 0,
            },
            _ => Source::Pfs,
        }
    }

    fn coverage(&self) -> f64 {
        if self.ordered {
            1.0
        } else {
            self.cached_samples as f64 / self.num_samples as f64
        }
    }

    fn note(&self) -> Option<String> {
        if !self.ordered && self.cached_samples < self.num_samples {
            Some("Does not access entire dataset".to_string())
        } else {
            None
        }
    }
}

// ---------------------------------------------------------------------
// Parallel staging (data sharding)
// ---------------------------------------------------------------------

/// Data sharding with a prestaging phase. When the dataset fits in one
/// worker's storage (`S ≤ D`, the paper's "shards may share samples"),
/// every worker stages the whole dataset and randomization is preserved.
/// Otherwise each worker stages a disjoint round-robin shard capped at
/// its capacity and trains only on that shard — the access-order change
/// the paper flags.
pub struct ShardingCore {
    /// Every worker holds the full dataset.
    full_copy: bool,
    owner_of: Vec<i32>,
    /// Storage class per cached sample (fill order across classes).
    class_of: Vec<u8>,
    shards: Vec<Vec<SampleId>>,
    epoch_lens: Vec<u64>,
    max_shard_bytes: u64,
    total_bytes: u64,
    seed: u64,
}

impl ShardingCore {
    /// Computes the staging plan for `sys`'s class hierarchy.
    pub fn new(sys: &SystemSpec, sizes: &[u64], spec: &ShuffleSpec) -> Self {
        let n = sys.workers;
        let f = sizes.len();
        let caps = sys.class_capacities();
        let d: u64 = caps.iter().sum();
        let s_total: u64 = sizes.iter().sum();
        let epoch_lens: Vec<u64> = (0..n).map(|w| spec.worker_epoch_len(w)).collect();
        let full_copy = s_total <= d;

        let mut owner_of = vec![-1i32; f];
        let mut class_of = vec![UNASSIGNED; f];
        let mut shards: Vec<Vec<SampleId>> = vec![Vec::new(); n];
        let mut shard_bytes = vec![0u64; n];

        if full_copy {
            // Identical layout on every worker: fill classes in id order.
            let mut class = 0usize;
            let mut used = 0u64;
            for (id, slot) in class_of.iter_mut().enumerate() {
                let sz = sizes[id];
                while class < caps.len() && used + sz > caps[class] {
                    class += 1;
                    used = 0;
                }
                // `S <= D` guarantees everything fits across classes for
                // same-size-dominated datasets; any residual overflow
                // lands in the slowest class.
                let c = class.min(caps.len().saturating_sub(1));
                *slot = c as u8;
                used += sz;
            }
            for (w, sb) in shard_bytes.iter_mut().enumerate() {
                *sb = s_total;
                shards[w] = (0..f as SampleId).collect();
            }
        } else {
            for w in 0..n {
                let mut used_in_class = vec![0u64; caps.len()];
                let mut id = w;
                'fill: while id < f {
                    let sz = sizes[id];
                    for (j, cap) in caps.iter().enumerate() {
                        if used_in_class[j] + sz <= *cap {
                            used_in_class[j] += sz;
                            owner_of[id] = w as i32;
                            class_of[id] = j as u8;
                            shards[w].push(id as SampleId);
                            shard_bytes[w] += sz;
                            id += n;
                            continue 'fill;
                        }
                    }
                    break; // storage full
                }
            }
        }
        let max_shard_bytes = shard_bytes.iter().copied().max().unwrap_or(0);
        Self {
            full_copy,
            owner_of,
            class_of,
            shards,
            epoch_lens,
            max_shard_bytes,
            total_bytes: s_total,
            seed: spec.seed,
        }
    }

    /// Whether every worker stages the whole dataset.
    pub fn full_copy(&self) -> bool {
        self.full_copy
    }

    /// The staging class of sample `k`, or `None` when unstaged.
    pub fn class_of(&self, k: SampleId) -> Option<u8> {
        let c = self.class_of[k as usize];
        (c != UNASSIGNED).then_some(c)
    }

    /// The owning worker of sample `k` in sharded mode.
    pub fn owner_of(&self, k: SampleId) -> Option<usize> {
        let o = self.owner_of[k as usize];
        (o >= 0).then_some(o as usize)
    }
}

impl PolicyCore for ShardingCore {
    fn prestage_list(&self, worker: usize) -> Vec<(SampleId, u8)> {
        self.shards[worker]
            .iter()
            .map(|&k| (k, self.class_of[k as usize]))
            .collect()
    }

    fn max_prestage_bytes(&self) -> u64 {
        self.max_shard_bytes
    }

    fn transform_epoch(
        &self,
        epoch: u64,
        seqs: Vec<Vec<SampleId>>,
        _global: &EpochShuffle,
    ) -> Vec<Vec<SampleId>> {
        if self.full_copy {
            // Whole dataset everywhere: the standard fully-randomized
            // sequence is served entirely from local storage.
            return seqs;
        }
        // Shard-restricted: each worker draws its epoch from its own
        // shard (reshuffled per epoch; cycled if the shard is smaller
        // than the epoch length).
        (0..seqs.len())
            .map(|w| {
                let shard = &self.shards[w];
                let want = self.epoch_lens[w] as usize;
                if shard.is_empty() {
                    // No local storage at all: fall back to the standard
                    // sequence (every access will be a PFS read).
                    return seqs[w].clone();
                }
                let mut rng =
                    Xoshiro256pp::seed_from_u64(mix64(self.seed ^ 0x5A5A, epoch * 1024 + w as u64));
                let mut out = Vec::with_capacity(want);
                while out.len() < want {
                    let mut perm = shard.clone();
                    rng.shuffle(&mut perm);
                    let take = (want - out.len()).min(perm.len());
                    out.extend_from_slice(&perm[..take]);
                }
                out
            })
            .collect()
    }

    fn source(&self, w: usize, k: SampleId, _epoch: u64) -> Source {
        if self.full_copy {
            return Source::Local(self.class_of[k as usize]);
        }
        match self.owner_of[k as usize] {
            o if o == w as i32 => Source::Local(self.class_of[k as usize]),
            o if o >= 0 => Source::Remote {
                owner: o as u16,
                class: self.class_of[k as usize],
            },
            _ => Source::Pfs,
        }
    }

    fn coverage(&self) -> f64 {
        if self.full_copy {
            return 1.0;
        }
        // A worker only ever sees its own shard.
        self.max_shard_bytes as f64 / self.total_bytes as f64
    }

    fn note(&self) -> Option<String> {
        if self.full_copy {
            None
        } else {
            Some("Does not access entire dataset".to_string())
        }
    }
}

// ---------------------------------------------------------------------
// LBANN data store
// ---------------------------------------------------------------------

/// The LBANN data store: an in-memory, owner-served sample cache.
/// Dynamic mode populates it first-touch during epoch 0 (epoch 0 reads
/// the PFS); preloading mode pays an explicit prestaging phase instead.
/// Either way the store requires the dataset to fit in aggregate worker
/// memory — the dataset-scalability limitation of Table 1.
pub struct LbannCore {
    preloading: bool,
    /// Owner of each sample: its epoch-0 reader.
    owner_of: Vec<u16>,
    prestage_bytes: u64,
}

impl LbannCore {
    /// Computes the first-touch ownership plan.
    ///
    /// # Errors
    /// [`Unsupported`] when the dataset exceeds aggregate worker memory.
    pub fn new(
        sys: &SystemSpec,
        sizes: &[u64],
        spec: &ShuffleSpec,
        preloading: bool,
    ) -> Result<Self, Unsupported> {
        let n = sys.workers;
        let s_total: u64 = sizes.iter().sum();
        lbann_feasible(sys, s_total)?;
        // Epoch-0 first-touch ownership is clairvoyantly computable.
        let shuffle = spec.epoch_shuffle(0);
        let mut owner_of = vec![0u16; sizes.len()];
        let mut owned_bytes = vec![0u64; n];
        for (pos, &id) in shuffle.global_order().iter().enumerate() {
            let w = pos % n;
            owner_of[id as usize] = w as u16;
            owned_bytes[w] += sizes[id as usize];
        }
        // The slowest preloader defines the prestage phase: first-touch
        // shards are unequal for size-skewed datasets, so this is the
        // *largest* per-owner load, not the mean.
        let prestage_bytes = if preloading {
            owned_bytes.iter().copied().max().unwrap_or(0)
        } else {
            0
        };
        Ok(Self {
            preloading,
            owner_of,
            prestage_bytes,
        })
    }

    /// The first-touch owner of sample `k`.
    pub fn owner_of(&self, k: SampleId) -> usize {
        self.owner_of[k as usize] as usize
    }
}

impl PolicyCore for LbannCore {
    fn prestage_list(&self, worker: usize) -> Vec<(SampleId, u8)> {
        if !self.preloading {
            return Vec::new();
        }
        self.owner_of
            .iter()
            .enumerate()
            .filter(|&(_, &o)| o as usize == worker)
            .map(|(k, _)| (k as SampleId, 0))
            .collect()
    }

    fn max_prestage_bytes(&self) -> u64 {
        self.prestage_bytes
    }

    fn source(&self, w: usize, k: SampleId, epoch: u64) -> Source {
        if !self.preloading && epoch == 0 {
            // Dynamic mode: epoch 0 populates the store from the PFS.
            return Source::Pfs;
        }
        let owner = self.owner_of[k as usize];
        if owner as usize == w {
            Source::Local(0)
        } else {
            Source::Remote { owner, class: 0 }
        }
    }

    fn cache_class(&self, w: usize, k: SampleId, epoch: u64) -> Option<u8> {
        // Dynamic first-touch: the epoch-0 reader keeps what it read.
        (!self.preloading && epoch == 0 && self.owner_of[k as usize] as usize == w).then_some(0)
    }
}

// ---------------------------------------------------------------------
// Locality-aware loading (Yang & Cong)
// ---------------------------------------------------------------------

/// Locality-aware loading: first-touch caching in epoch 0 (RAM, then
/// further classes), then per-iteration batch reassignment so cached
/// samples are consumed by the worker holding them. Preserves full
/// coverage (uncached samples still come from the PFS) but changes which
/// worker sees which sample — the "reorder batches" logic the paper
/// simulates.
pub struct LocalityCore {
    owner_of: Vec<i32>,
    class_of: Vec<u8>,
    workers: usize,
    batch: usize,
}

impl LocalityCore {
    /// Computes the clairvoyant first-touch placement plan.
    pub fn new(sys: &SystemSpec, sizes: &[u64], spec: &ShuffleSpec) -> Self {
        let n = sys.workers;
        let caps = sys.class_capacities();
        let shuffle = spec.epoch_shuffle(0);
        let f = sizes.len();
        let mut owner_of = vec![-1i32; f];
        let mut class_of = vec![UNASSIGNED; f];
        let mut used = vec![vec![0u64; caps.len()]; n];
        for (pos, &id) in shuffle.global_order().iter().enumerate() {
            let w = pos % n;
            let sz = sizes[id as usize];
            for (j, cap) in caps.iter().enumerate() {
                if used[w][j] + sz <= *cap {
                    used[w][j] += sz;
                    owner_of[id as usize] = w as i32;
                    class_of[id as usize] = j as u8;
                    break;
                }
            }
        }
        Self {
            owner_of,
            class_of,
            workers: n,
            batch: spec.batch_size,
        }
    }

    /// The caching owner of sample `k`, when it fit anywhere.
    pub fn owner_of(&self, k: SampleId) -> Option<usize> {
        let o = self.owner_of[k as usize];
        (o >= 0).then_some(o as usize)
    }
}

impl PolicyCore for LocalityCore {
    fn transform_epoch(
        &self,
        epoch: u64,
        seqs: Vec<Vec<SampleId>>,
        global: &EpochShuffle,
    ) -> Vec<Vec<SampleId>> {
        if epoch == 0 {
            return seqs;
        }
        // Reassign each global iteration window so cache owners consume
        // their own samples where quota allows.
        let n = self.workers;
        let order = global.global_order();
        let window = n * self.batch;
        let mut out: Vec<Vec<SampleId>> = vec![Vec::new(); n];
        for chunk in order.chunks(window) {
            let mut quota = vec![0usize; n];
            let base = chunk.len() / n;
            let extra = chunk.len() % n;
            for (w, q) in quota.iter_mut().enumerate() {
                *q = base + usize::from(w < extra);
            }
            let mut leftovers: Vec<SampleId> = Vec::new();
            for &id in chunk {
                match self.owner_of[id as usize] {
                    o if o >= 0 && quota[o as usize] > 0 => {
                        quota[o as usize] -= 1;
                        out[o as usize].push(id);
                    }
                    _ => leftovers.push(id),
                }
            }
            let mut w = 0usize;
            for id in leftovers {
                while quota[w] == 0 {
                    w = (w + 1) % n;
                }
                quota[w] -= 1;
                out[w].push(id);
            }
        }
        out
    }

    fn source(&self, w: usize, k: SampleId, epoch: u64) -> Source {
        if epoch == 0 {
            return Source::Pfs;
        }
        match self.owner_of[k as usize] {
            o if o == w as i32 => Source::Local(self.class_of[k as usize]),
            o if o >= 0 => Source::Remote {
                owner: o as u16,
                class: self.class_of[k as usize],
            },
            _ => Source::Pfs,
        }
    }

    fn cache_class(&self, w: usize, k: SampleId, epoch: u64) -> Option<u8> {
        // Epoch-0 first-touch fill into the clairvoyantly planned class.
        (epoch == 0 && self.owner_of[k as usize] == w as i32)
            .then(|| self.class_of[k as usize])
            .filter(|&c| c != UNASSIGNED)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nopfs_perfmodel::presets::fig8_small_cluster;

    fn tiny_system(sample_bytes: u64) -> SystemSpec {
        let mut sys = fig8_small_cluster();
        sys.classes[0].capacity = 50 * sample_bytes;
        sys.classes[1].capacity = 100 * sample_bytes;
        sys
    }

    fn tiny_spec(total_samples: u64) -> ShuffleSpec {
        ShuffleSpec::new(11, total_samples, 4, 4, false)
    }

    #[test]
    fn deep_io_shards_are_round_robin_and_capped() {
        let sys = tiny_system(1_000_000);
        let sizes = vec![1_000_000u64; 1000];
        let d = DeepIoCore::new(&sys, &sizes, true);
        // RAM holds 50 samples per worker.
        for w in 0..4 {
            assert_eq!(d.shard(w).len(), 50);
            assert!(d.shard(w).iter().all(|&id| id as usize % 4 == w));
        }
        assert_eq!(d.cached_samples(), 200);
        assert!(d.max_prestage_bytes() > 0);
        assert!(d.prestage_seconds(&sys) > 0.0);
    }

    #[test]
    fn deep_io_opportunistic_substitutes_uncached() {
        let sys = tiny_system(1_000_000);
        let sizes = vec![1_000_000u64; 1000];
        let d = DeepIoCore::new(&sys, &sizes, false);
        let spec = tiny_spec(1000);
        let shuffle = spec.epoch_shuffle(0);
        let seqs: Vec<Vec<SampleId>> = (0..4).map(|w| shuffle.worker_sequence(w)).collect();
        let out = d.transform_epoch(0, seqs, &shuffle);
        for (w, seq) in out.iter().enumerate() {
            assert_eq!(seq.len() as u64, spec.worker_epoch_len(w));
            for &k in seq {
                assert!(
                    !matches!(d.source(w, k, 0), Source::Pfs),
                    "uncached sample {k} survived"
                );
            }
        }
        assert!(d.coverage() < 1.0);
        assert!(d.note().is_some());
    }

    #[test]
    fn deep_io_substitution_is_deterministic() {
        let sys = tiny_system(1_000_000);
        let sizes = vec![1_000_000u64; 400];
        let d = DeepIoCore::new(&sys, &sizes, false);
        let spec = tiny_spec(400);
        let a = transformed_streams(Some(&d), &spec, 2);
        let b = transformed_streams(Some(&d), &spec, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_staging_full_copy_when_fits() {
        let sys = tiny_system(1_000_000);
        let sizes = vec![1_000_000u64; 100]; // S=100 MB < D=150 MB
        let p = ShardingCore::new(&sys, &sizes, &tiny_spec(100));
        assert!(p.full_copy());
        assert_eq!(p.coverage(), 1.0);
        // RAM then SSD fill order: first 50 in class 0, rest class 1.
        assert_eq!(p.class_of(0), Some(0));
        assert_eq!(p.class_of(99), Some(1));
        // Full copy prestages the whole dataset on every worker.
        assert_eq!(p.prestage_list(0).len(), 100);
    }

    #[test]
    fn parallel_staging_shards_when_too_big() {
        let sys = tiny_system(1_000_000);
        let sizes = vec![1_000_000u64; 1000]; // S=1000 > D=150
        let spec = tiny_spec(1000);
        let p = ShardingCore::new(&sys, &sizes, &spec);
        assert!(!p.full_copy());
        assert!(p.coverage() < 1.0);
        assert!(p.note().is_some());
        // Each worker's epoch sequence draws only from its shard.
        let shuffle = spec.epoch_shuffle(1);
        let seqs: Vec<Vec<SampleId>> = (0..4).map(|w| shuffle.worker_sequence(w)).collect();
        let lens: Vec<usize> = seqs.iter().map(Vec::len).collect();
        let out = p.transform_epoch(1, seqs, &shuffle);
        for (w, seq) in out.iter().enumerate() {
            assert_eq!(seq.len(), lens[w], "epoch length preserved");
            assert!(seq.iter().all(|&k| p.owner_of(k) == Some(w)));
        }
    }

    #[test]
    fn lbann_owner_partition_covers_dataset() {
        let sys = tiny_system(1_000_000);
        let sizes = vec![1_000_000u64; 150]; // fits in 4*50 MB RAM
        let l = LbannCore::new(&sys, &sizes, &tiny_spec(150), false).unwrap();
        assert!((0..150).all(|k| l.owner_of(k) < 4));
        // Dynamic mode has no prestage; epoch 0 is all-PFS first touch.
        assert!(l.prestage_list(0).is_empty());
        assert_eq!(l.source(0, 0, 0), Source::Pfs);
        assert_eq!(l.cache_class(l.owner_of(7), 7, 0), Some(0));
        assert_eq!(l.cache_class(l.owner_of(7) ^ 1, 7, 0), None);
    }

    #[test]
    fn lbann_preloading_prestages_owned_shard() {
        let sys = tiny_system(1_000_000);
        let sizes = vec![1_000_000u64; 150];
        let l = LbannCore::new(&sys, &sizes, &tiny_spec(150), true).unwrap();
        let total: usize = (0..4).map(|w| l.prestage_list(w).len()).sum();
        assert_eq!(total, 150, "every sample prestaged exactly once");
        assert!(l.prestage_seconds(&sys) > 0.0);
        // Epoch 0 is already owner-served.
        let k = 3;
        assert!(!matches!(l.source(l.owner_of(k), k, 0), Source::Pfs));
    }

    #[test]
    fn lbann_rejects_oversized_dataset() {
        let sys = tiny_system(1_000_000);
        let sizes = vec![1_000_000u64; 1000]; // 1000 MB > 200 MB RAM
        match LbannCore::new(&sys, &sizes, &tiny_spec(1000), true) {
            Err(Unsupported(m)) => assert!(m.contains("aggregate")),
            _ => panic!("expected unsupported"),
        }
    }

    #[test]
    fn locality_aware_reassigns_to_owners() {
        let sys = tiny_system(1_000_000);
        let sizes = vec![1_000_000u64; 400];
        let spec = tiny_spec(400);
        let la = LocalityCore::new(&sys, &sizes, &spec);
        let shuffle = spec.epoch_shuffle(1);
        let seqs: Vec<Vec<SampleId>> = (0..4).map(|w| shuffle.worker_sequence(w)).collect();
        let local_count = |seqs: &[Vec<SampleId>]| -> usize {
            seqs.iter()
                .enumerate()
                .map(|(w, s)| s.iter().filter(|&&k| la.owner_of(k) == Some(w)).count())
                .sum()
        };
        let before = local_count(&seqs);
        let out = la.transform_epoch(1, seqs, &shuffle);
        let after = local_count(&out);
        assert!(
            after > before,
            "reassignment should increase locality: {before} -> {after}"
        );
        // The transformed epoch is still a permutation of the original.
        let mut all: Vec<SampleId> = out.into_iter().flatten().collect();
        all.sort_unstable();
        let mut expect: Vec<SampleId> = shuffle.global_order().to_vec();
        expect.sort_unstable();
        assert_eq!(all, expect);
    }

    #[test]
    fn locality_transform_preserves_worker_epoch_lens() {
        let sys = tiny_system(1_000_000);
        // Deliberately not divisible by the global batch.
        let sizes = vec![1_000_000u64; 203];
        let spec = tiny_spec(203);
        let la = LocalityCore::new(&sys, &sizes, &spec);
        let shuffle = spec.epoch_shuffle(2);
        let seqs: Vec<Vec<SampleId>> = (0..4).map(|w| shuffle.worker_sequence(w)).collect();
        let out = la.transform_epoch(2, seqs, &shuffle);
        for (w, seq) in out.iter().enumerate() {
            assert_eq!(seq.len() as u64, spec.worker_epoch_len(w), "worker {w}");
        }
    }

    #[test]
    fn build_core_covers_every_policy() {
        let sys = tiny_system(1_000);
        let sizes = vec![1_000u64; 64];
        let spec = ShuffleSpec::new(3, 64, 4, 4, false);
        for p in PolicyId::ALL {
            let core = build_core(p, &sys, &sizes, &spec).expect("feasible config");
            let expect_core = !matches!(p, PolicyId::NoPfs | PolicyId::Perfect);
            assert_eq!(core.is_some(), expect_core, "{p}");
            if let Some(core) = core {
                // Every core decides a source for every sample.
                let _ = core.source(0, 0, 0);
                assert!(core.coverage() > 0.0);
                // The fill contract: first-touch fills only in epoch 0,
                // and only of accesses that read the PFS.
                for w in 0..sys.workers {
                    for k in 0..64 {
                        for epoch in 0..3 {
                            match core.cache_class(w, k, epoch) {
                                None => {}
                                Some(_) if epoch == 0 => {
                                    assert_eq!(core.source(w, k, 0), Source::Pfs, "{p}");
                                }
                                Some(_) => panic!("{p}: fill planned in epoch {epoch}"),
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn transformed_streams_match_identity_without_core() {
        let spec = ShuffleSpec::new(9, 40, 2, 4, false);
        let streams = transformed_streams(None, &spec, 2);
        for (w, stream) in streams.iter().enumerate() {
            let expect: Vec<SampleId> = (0..2)
                .flat_map(|e| spec.epoch_shuffle(e).worker_sequence(w))
                .collect();
            assert_eq!(stream, &expect);
        }
    }
}
