//! The single-pass clairvoyance engine.
//!
//! The paper claims the clairvoyant precomputation "is fast — a few
//! passes over the shuffles". The naive composition of this crate's
//! building blocks is *not* that: computing every worker's digest,
//! stream, frequency table, and placement inputs independently
//! regenerates the epoch shuffles once per (consumer, epoch) — an
//! O(N·E·F) setup per process, and O(N²·E·F) across a cluster where
//! every rank rederives every rank's artifacts.
//!
//! [`SetupPass`] restores the paper's cost: **one** streaming pass over
//! epochs `0..E` that generates each epoch shuffle exactly once, into a
//! reused buffer, and derives every setup artifact from that single
//! scan:
//!
//! - all `N` per-worker stream digests (the setup-allgather values),
//! - the full [`FrequencyTable`],
//! - each worker's first-access positions (the placement inputs),
//! - optionally the materialized per-worker streams.
//!
//! Total cost: `O(E·F)` time and one `O(F)` scratch buffer, regardless
//! of the worker count. For runs too long to materialize, skip the
//! streams (`materialize_streams = false`) and iterate epoch-windowed
//! via [`crate::stream::AccessStream::iter`], which reuses its buffers.
//!
//! Every artifact is bit-identical to what the per-consumer paths
//! produce (`FrequencyTable::build`, `AccessStream::materialize`,
//! `AccessStream::first_access_positions`, a [`stream_digest`] fold) —
//! property-tested in `tests/engine_equivalence.rs`.

use crate::frequency::FrequencyTable;
use crate::placement::GlobalPlacement;
use crate::sampler::ShuffleSpec;
use crate::stream::AccessStream;
use crate::{SampleId, WorkerId};
use nopfs_util::rng::mix64;
use std::sync::Arc;

/// Initial accumulator of a worker's stream digest.
const DIGEST_SEED: u64 = 0xC1A1_5C0D;

/// Digest of one worker's entire access stream, derived lazily from
/// the spec (the reference implementation the engine's cached digests
/// are checked against). Runtime setup should use
/// [`SetupArtifacts::digests`] instead of calling this per rank —
/// that is exactly the O(N²·E·F) path the engine exists to kill.
pub fn stream_digest(spec: &ShuffleSpec, worker: WorkerId, epochs: u64) -> u64 {
    fold_digest(worker, AccessStream::new(*spec, worker, epochs).iter())
}

/// The digest fold of [`stream_digest`] and the setup pass over any
/// run of `worker`'s ids: over its whole stream it is the worker's
/// stream digest, over a window of it the digest of that window.
pub fn fold_digest(worker: WorkerId, ids: impl IntoIterator<Item = SampleId>) -> u64 {
    ids.into_iter().fold(DIGEST_SEED ^ worker as u64, mix64)
}

/// The one epoch loop every engine entry point shares: generates each
/// epoch shuffle exactly once into a reused buffer and visits every
/// position as `(owning worker, sample id)`, in global consumption
/// order. Keeping this loop in one place is what makes the engine's
/// bit-identity guarantees reviewable: every artifact is a fold over
/// this exact visitation order.
fn scan_epochs(spec: &ShuffleSpec, epochs: u64, mut visit: impl FnMut(usize, SampleId)) {
    assert!(epochs > 0, "a training run has at least one epoch");
    let n = spec.num_workers;
    let mut perm: Vec<SampleId> = Vec::new();
    for e in 0..epochs {
        spec.epoch_shuffle_into(e, &mut perm);
        for (pos, &id) in perm.iter().enumerate() {
            visit(pos % n, id);
        }
    }
}

/// Materializes every worker's access stream in one pass — E epoch
/// generations total, each into a reused buffer — without the
/// frequency/first-access/digest bookkeeping of a full [`SetupPass`].
/// Each returned stream equals [`AccessStream::materialize`] for that
/// rank. For loaders (e.g. baselines) that need only the streams.
///
/// # Panics
/// Panics if `epochs == 0`.
pub fn materialize_all_streams(spec: &ShuffleSpec, epochs: u64) -> Vec<Arc<Vec<SampleId>>> {
    let mut streams: Vec<Vec<SampleId>> = (0..spec.num_workers)
        .map(|w| Vec::with_capacity((spec.worker_epoch_len(w) * epochs) as usize))
        .collect();
    scan_epochs(spec, epochs, |w, id| streams[w].push(id));
    streams.into_iter().map(Arc::new).collect()
}

/// Configuration of a [`SetupPass`].
#[derive(Debug, Clone, Copy)]
pub struct SetupOptions {
    /// Materialize every worker's access stream (`8·E·F` bytes total
    /// across workers). Disable for long runs that iterate lazily.
    pub materialize_streams: bool,
}

impl Default for SetupOptions {
    fn default() -> Self {
        Self {
            materialize_streams: true,
        }
    }
}

/// The single streaming pass; see the module docs.
pub struct SetupPass {
    spec: ShuffleSpec,
    epochs: u64,
    options: SetupOptions,
}

/// Everything job setup needs, derived from one pass over the shuffles.
#[derive(Debug, Clone)]
pub struct SetupArtifacts {
    spec: ShuffleSpec,
    epochs: u64,
    /// Per-worker access-stream digests (the setup-allgather values);
    /// equal to [`stream_digest`] for every rank.
    pub digests: Vec<u64>,
    /// The full per-worker frequency table.
    pub table: FrequencyTable,
    /// `first_access[w][k]` = first position of sample `k` in worker
    /// `w`'s stream (`u64::MAX` if never accessed); equal to
    /// [`AccessStream::first_access_positions`].
    pub first_access: Vec<Vec<u64>>,
    /// Materialized per-worker streams (when requested); each equal to
    /// [`AccessStream::materialize`]. Behind `Arc` so workers can share
    /// them without copying.
    pub streams: Option<Vec<Arc<Vec<SampleId>>>>,
    /// Epoch shuffles generated by this pass — always exactly `E`, the
    /// counter behind the O(E) setup guarantee.
    pub shuffles_generated: u64,
}

impl SetupPass {
    /// A pass over `epochs` epochs of `spec` with default options
    /// (streams materialized).
    ///
    /// # Panics
    /// Panics if `epochs == 0`.
    pub fn new(spec: ShuffleSpec, epochs: u64) -> Self {
        Self::with_options(spec, epochs, SetupOptions::default())
    }

    /// A pass with explicit [`SetupOptions`].
    pub fn with_options(spec: ShuffleSpec, epochs: u64, options: SetupOptions) -> Self {
        assert!(epochs > 0, "a training run has at least one epoch");
        Self {
            spec,
            epochs,
            options,
        }
    }

    /// Runs the pass and returns every artifact.
    pub fn run(&self) -> SetupArtifacts {
        let spec = &self.spec;
        let n = spec.num_workers;
        let f = spec.num_samples as usize;

        let mut digests: Vec<u64> = (0..n).map(|w| DIGEST_SEED ^ w as u64).collect();
        let mut counts = vec![vec![0u16; f]; n];
        let mut first_access = vec![vec![u64::MAX; f]; n];
        // Position of each worker's next sample within its own stream.
        let mut stream_pos = vec![0u64; n];
        let mut streams: Option<Vec<Vec<SampleId>>> = self.options.materialize_streams.then(|| {
            (0..n)
                .map(|w| Vec::with_capacity((spec.worker_epoch_len(w) * self.epochs) as usize))
                .collect()
        });

        // The scan visits each worker's samples in exactly its stream
        // order, so the digest fold, first-access bookkeeping, and
        // stream append all see the same order the per-worker paths
        // would produce.
        scan_epochs(spec, self.epochs, |w, id| {
            let k = id as usize;
            digests[w] = mix64(digests[w], id);
            counts[w][k] += 1;
            if first_access[w][k] == u64::MAX {
                first_access[w][k] = stream_pos[w];
            }
            stream_pos[w] += 1;
            if let Some(streams) = &mut streams {
                streams[w].push(id);
            }
        });

        SetupArtifacts {
            spec: *spec,
            epochs: self.epochs,
            digests,
            table: FrequencyTable::from_counts(counts, self.epochs),
            first_access,
            streams: streams.map(|s| s.into_iter().map(Arc::new).collect()),
            shuffles_generated: self.epochs,
        }
    }
}

impl SetupArtifacts {
    /// The generating spec.
    pub fn spec(&self) -> &ShuffleSpec {
        &self.spec
    }

    /// Number of epochs covered.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Number of workers covered.
    pub fn num_workers(&self) -> usize {
        self.digests.len()
    }

    /// Worker `w`'s materialized stream.
    ///
    /// # Panics
    /// Panics if the pass ran with `materialize_streams = false`.
    pub fn stream(&self, worker: WorkerId) -> &Arc<Vec<SampleId>> {
        &self
            .streams
            .as_ref()
            .expect("pass ran without stream materialization")[worker]
    }

    /// Computes the cluster-wide placement from the artifacts without
    /// regenerating any shuffle (see
    /// [`GlobalPlacement::from_artifacts`]).
    pub fn placement(&self, sizes: &[u64], capacities: &[Vec<u64>]) -> GlobalPlacement {
        GlobalPlacement::from_artifacts(self, sizes, capacities)
    }

    /// Incrementally replans for a changed membership: rebuilds every
    /// setup artifact for `new_workers` ranks by re-splitting the
    /// cached streams, **without regenerating a single epoch shuffle**
    /// (`shuffles_generated` of the result is 0, and the global
    /// [`crate::sampler::epoch_shuffles_generated`] counter does not
    /// advance).
    ///
    /// This is what makes elastic recovery cheap and replay-exact: the
    /// epoch seed involves only `(seed, epoch)` — never the worker
    /// count — so the global consumption order at epoch `e` is the same
    /// permutation for any membership, merely dealt round-robin to a
    /// different number of ranks. The global order is reconstructed
    /// from the cached per-worker streams (position `pos` of epoch `e`
    /// lives at index `e·len(w) + pos/n` of worker `pos % n`'s stream)
    /// and folded into fresh digests, frequency table, first-access
    /// positions, and streams for the new membership. The result is
    /// bit-identical to a full [`SetupPass`] at `new_workers` — at the
    /// cost of a re-split instead of `E` Fisher–Yates generations.
    ///
    /// # Panics
    /// Panics if `new_workers == 0`, if this pass skipped stream
    /// materialization, or if the membership change would alter the
    /// epoch length (only possible with `drop_last`, whose truncation
    /// depends on the global batch `N·b` — elastic runs require
    /// `drop_last = false` or an unchanged `samples_per_epoch`).
    pub fn replan(&self, new_workers: usize) -> SetupArtifacts {
        assert!(new_workers > 0, "a job keeps at least one worker");
        let old = &self.spec;
        let cached = self
            .streams
            .as_ref()
            .expect("replan needs materialized streams (pass ran without them)");
        let new_spec = ShuffleSpec::new(
            old.seed,
            old.num_samples,
            new_workers,
            old.batch_size,
            old.drop_last,
        );
        assert_eq!(
            old.samples_per_epoch(),
            new_spec.samples_per_epoch(),
            "membership change alters the epoch length under drop_last; \
             replay-exact recovery requires an unchanged global order"
        );

        let n_old = old.num_workers;
        let f = old.num_samples as usize;
        let spe = old.samples_per_epoch();
        let old_lens: Vec<u64> = (0..n_old).map(|w| old.worker_epoch_len(w)).collect();

        // The same artifact fold as `SetupPass::run`, fed by stream
        // re-splitting instead of `scan_epochs`.
        let mut digests: Vec<u64> = (0..new_workers).map(|w| DIGEST_SEED ^ w as u64).collect();
        let mut counts = vec![vec![0u16; f]; new_workers];
        let mut first_access = vec![vec![u64::MAX; f]; new_workers];
        let mut stream_pos = vec![0u64; new_workers];
        let mut streams: Vec<Vec<SampleId>> = (0..new_workers)
            .map(|w| Vec::with_capacity((new_spec.worker_epoch_len(w) * self.epochs) as usize))
            .collect();

        for e in 0..self.epochs {
            for pos in 0..spe {
                let owner = (pos as usize) % n_old;
                let idx = (e * old_lens[owner] + pos / n_old as u64) as usize;
                let id = cached[owner][idx];
                let w = (pos as usize) % new_workers;
                let k = id as usize;
                digests[w] = mix64(digests[w], id);
                counts[w][k] += 1;
                if first_access[w][k] == u64::MAX {
                    first_access[w][k] = stream_pos[w];
                }
                stream_pos[w] += 1;
                streams[w].push(id);
            }
        }

        SetupArtifacts {
            spec: new_spec,
            epochs: self.epochs,
            digests,
            table: FrequencyTable::from_counts(counts, self.epochs),
            first_access,
            streams: Some(streams.into_iter().map(Arc::new).collect()),
            shuffles_generated: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::epoch_shuffles_generated;

    fn spec(f: u64, n: usize) -> ShuffleSpec {
        ShuffleSpec::new(0xE27, f, n, 4, false)
    }

    #[test]
    fn digests_match_reference_fold() {
        let sp = spec(121, 4);
        let arts = SetupPass::new(sp, 6).run();
        for w in 0..4 {
            assert_eq!(arts.digests[w], stream_digest(&sp, w, 6), "worker {w}");
        }
    }

    #[test]
    fn streams_match_per_worker_materialization() {
        let sp = spec(77, 3);
        let arts = SetupPass::new(sp, 4).run();
        for w in 0..3 {
            assert_eq!(
                arts.stream(w).as_slice(),
                AccessStream::new(sp, w, 4).materialize().as_slice(),
                "worker {w}"
            );
        }
    }

    #[test]
    fn table_and_first_access_match_old_paths() {
        let sp = spec(150, 5);
        let arts = SetupPass::new(sp, 7).run();
        assert_eq!(arts.table, FrequencyTable::build(&sp, 7));
        for w in 0..5 {
            assert_eq!(
                arts.first_access[w],
                AccessStream::new(sp, w, 7).first_access_positions(),
                "worker {w}"
            );
        }
    }

    #[test]
    fn materialize_all_streams_matches_per_worker() {
        let sp = spec(91, 4);
        let streams = materialize_all_streams(&sp, 3);
        for (w, s) in streams.iter().enumerate() {
            assert_eq!(
                s.as_slice(),
                AccessStream::new(sp, w, 3).materialize().as_slice(),
                "worker {w}"
            );
        }
    }

    #[test]
    fn drop_last_truncation_flows_through() {
        let sp = ShuffleSpec::new(9, 103, 4, 8, true); // 103 -> 96/epoch
        let arts = SetupPass::new(sp, 3).run();
        for w in 0..4 {
            assert_eq!(arts.stream(w).len(), 24 * 3);
            assert_eq!(arts.digests[w], stream_digest(&sp, w, 3));
        }
    }

    #[test]
    fn pass_generates_each_epoch_shuffle_once() {
        let sp = spec(200, 8);
        let before = epoch_shuffles_generated();
        let arts = SetupPass::new(sp, 9).run();
        let delta = epoch_shuffles_generated() - before;
        assert_eq!(arts.shuffles_generated, 9);
        // Parallel tests may also generate shuffles, so the global
        // counter only lower-bounds here; the exact-count assertion
        // lives in the single-test binary `nopfs_core/tests`.
        assert!(delta >= 9);
    }

    #[test]
    fn streams_can_be_skipped() {
        let sp = spec(50, 2);
        let arts = SetupPass::with_options(
            sp,
            2,
            SetupOptions {
                materialize_streams: false,
            },
        )
        .run();
        assert!(arts.streams.is_none());
        assert_eq!(arts.table, FrequencyTable::build(&sp, 2));
    }

    #[test]
    #[should_panic(expected = "without stream materialization")]
    fn stream_accessor_guards_unmaterialized() {
        let sp = spec(10, 2);
        let arts = SetupPass::with_options(
            sp,
            1,
            SetupOptions {
                materialize_streams: false,
            },
        )
        .run();
        let _ = arts.stream(0);
    }

    #[test]
    #[should_panic(expected = "at least one epoch")]
    fn rejects_zero_epochs() {
        SetupPass::new(spec(10, 2), 0);
    }

    #[test]
    fn replan_matches_fresh_pass_bit_for_bit() {
        let sp = spec(121, 4);
        let arts = SetupPass::new(sp, 5).run();
        // Shrink (crash), grow (join), and identity memberships.
        for n_new in [1usize, 3, 4, 5, 7] {
            let replanned = arts.replan(n_new);
            let fresh = SetupPass::new(spec(121, n_new), 5).run();
            assert_eq!(replanned.digests, fresh.digests, "n={n_new} digests");
            assert_eq!(replanned.table, fresh.table, "n={n_new} table");
            assert_eq!(
                replanned.first_access, fresh.first_access,
                "n={n_new} first access"
            );
            for w in 0..n_new {
                assert_eq!(
                    replanned.stream(w).as_slice(),
                    fresh.stream(w).as_slice(),
                    "n={n_new} worker {w} stream"
                );
            }
            // The whole point: a replan regenerates nothing.
            assert_eq!(replanned.shuffles_generated, 0);
            assert_eq!(replanned.spec().num_workers, n_new);
            assert_eq!(replanned.epochs(), 5);
        }
    }

    #[test]
    fn replan_composes_with_placement() {
        // A replanned artifact set must feed placement exactly like a
        // fresh pass would — ownership plans for the survivors.
        let sp = spec(60, 4);
        let arts = SetupPass::new(sp, 3).run();
        let sizes = vec![100u64; 60];
        let capacities: Vec<Vec<u64>> = (0..3).map(|_| vec![2_000u64, 1_000]).collect();
        let via_replan = arts.replan(3).placement(&sizes, &capacities);
        let fresh = SetupPass::new(spec(60, 3), 3).run();
        let via_fresh = fresh.placement(&sizes, &capacities);
        for w in 0..3 {
            assert_eq!(
                via_replan.assignment(w).class_map(),
                via_fresh.assignment(w).class_map(),
                "worker {w} placement"
            );
        }
    }

    #[test]
    #[should_panic(expected = "alters the epoch length")]
    fn replan_rejects_epoch_length_changes() {
        // drop_last truncates to the global batch N·b, so changing N
        // can change the epoch length — not replay-exact, must refuse.
        // 103 samples, b=8: N=4 keeps 96/epoch, N=5 would keep 80.
        let sp = ShuffleSpec::new(9, 103, 4, 8, true);
        SetupPass::new(sp, 2).run().replan(5);
    }

    #[test]
    #[should_panic(expected = "materialized streams")]
    fn replan_needs_streams() {
        let arts = SetupPass::with_options(
            spec(10, 2),
            1,
            SetupOptions {
                materialize_streams: false,
            },
        )
        .run();
        let _ = arts.replan(3);
    }
}
