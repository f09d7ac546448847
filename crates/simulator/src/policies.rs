//! The simulated data-loading policies (Sec. 6), as adapters over the
//! workspace decision core.
//!
//! Every baseline policy's *decision* logic — ownership maps, epoch
//! transforms, prestage plans, coverage — lives in
//! [`nopfs_policy::core`], where the threaded runtime executes the
//! identical objects; the `CoreAdapter` here merely translates a
//! [`PolicyCore`]'s answers into the event loop's `Location`s. Only two
//! policies are simulator-specific: `Perfect` (definitionally a bound)
//! and `NoPfs`, whose candidates come from modelled prefetch ready
//! times — though its final pick still goes through the shared
//! [`nopfs_policy::decision::select_source`] code path, exactly like
//! the runtime's staging fetches.

use crate::result::SimError;
use crate::scenario::Scenario;
use nopfs_clairvoyance::engine::{SetupOptions, SetupPass};
use nopfs_clairvoyance::placement::GlobalPlacement;
use nopfs_clairvoyance::sampler::EpochShuffle;
use nopfs_clairvoyance::SampleId;
use nopfs_perfmodel::{Location, SystemSpec};
use nopfs_policy::decision::{select_source, select_source_degraded, staging_share};
use nopfs_policy::PolicyId;
use nopfs_policy::{build_core, PolicyCore, Source};
use std::collections::HashSet;

/// The behaviour a simulated policy plugs into the engine.
pub(crate) trait PolicyImpl {
    /// Whether reads overlap with compute through prefetch threads
    /// (false only for the synchronous Naive policy).
    fn overlapped(&self) -> bool {
        true
    }

    /// Seconds of non-overlapped prestaging before training starts.
    fn prestage_seconds(&self) -> f64 {
        0.0
    }

    /// Called at the start of each epoch.
    fn on_epoch_start(&mut self, _epoch: u64) {}

    /// May reorder or replace the per-worker epoch sequences.
    fn transform_epoch(
        &mut self,
        _epoch: u64,
        seqs: Vec<Vec<SampleId>>,
        _global: &EpochShuffle,
    ) -> Vec<Vec<SampleId>> {
        seqs
    }

    /// Picks the fetch source for one access.
    fn source(
        &mut self,
        worker: usize,
        sample: SampleId,
        size: u64,
        now: f64,
        gamma: usize,
    ) -> Location;

    /// Like [`Self::source`], but told whether the origin is accepting
    /// traffic (`origin_ok` is false while a cloud origin's circuit
    /// breaker is open and cooling). Policies that pick sources by cost
    /// should steer away from an unavailable origin; the default
    /// ignores the hint — baseline policies have fixed source rules and
    /// simply wait the origin out, which is exactly their weakness.
    fn source_degraded(
        &mut self,
        worker: usize,
        sample: SampleId,
        size: u64,
        now: f64,
        gamma: usize,
        _origin_ok: bool,
    ) -> Location {
        self.source(worker, sample, size, now, gamma)
    }

    /// How many origin lanes per worker read `sample` ahead of the
    /// staging pipeline whenever it is fetched from the PFS; 0 (the
    /// default) when the `p_0` staging threads fetch it themselves.
    fn origin_lanes(&self, _sample: SampleId) -> usize {
        0
    }

    /// Called after the access is consumed at time `now`.
    fn on_consumed(&mut self, _worker: usize, _sample: SampleId, _now: f64) {}

    /// Fraction of the dataset a worker can ever access.
    fn coverage(&self) -> f64 {
        1.0
    }

    /// Caveat note (the paper's "Does not access entire dataset").
    fn note(&self) -> Option<String> {
        None
    }
}

/// Builds the implementation for `policy`, or reports why the scenario
/// is unsupported.
pub(crate) fn build(
    policy: PolicyId,
    scenario: &Scenario,
) -> Result<Box<dyn PolicyImpl>, SimError> {
    Ok(match policy {
        PolicyId::Perfect => Box::new(Perfect),
        PolicyId::NoPfs => Box::new(NoPfs::new(scenario)),
        _ => {
            let core = build_core(
                policy,
                &scenario.system,
                &scenario.sizes,
                &scenario.shuffle_spec(),
            )
            .map_err(|u| SimError::Unsupported(u.0))?
            .expect("every baseline policy has a shared core");
            Box::new(CoreAdapter::new(core, &scenario.system))
        }
    })
}

// ---------------------------------------------------------------------
// The shared-core adapter
// ---------------------------------------------------------------------

/// Runs a [`PolicyCore`]'s decisions inside the event loop: sources map
/// to `Location`s, the prestage plan to a non-overlapped phase, epoch
/// transforms pass straight through.
struct CoreAdapter {
    core: Box<dyn PolicyCore>,
    prestage: f64,
    epoch: u64,
}

impl CoreAdapter {
    fn new(core: Box<dyn PolicyCore>, sys: &SystemSpec) -> Self {
        let prestage = core.prestage_seconds(sys);
        Self {
            core,
            prestage,
            epoch: 0,
        }
    }
}

impl PolicyImpl for CoreAdapter {
    fn overlapped(&self) -> bool {
        self.core.overlapped()
    }

    fn prestage_seconds(&self) -> f64 {
        self.prestage
    }

    fn on_epoch_start(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    fn transform_epoch(
        &mut self,
        epoch: u64,
        seqs: Vec<Vec<SampleId>>,
        global: &EpochShuffle,
    ) -> Vec<Vec<SampleId>> {
        self.core.transform_epoch(epoch, seqs, global)
    }

    fn source(&mut self, w: usize, k: SampleId, _s: u64, _now: f64, _g: usize) -> Location {
        match self.core.source(w, k, self.epoch) {
            Source::Local(c) => Location::Local(c),
            Source::Remote { class, .. } => Location::Remote(class),
            Source::Pfs => Location::Pfs,
        }
    }

    fn coverage(&self) -> f64 {
        self.core.coverage()
    }

    fn note(&self) -> Option<String> {
        self.core.note()
    }
}

// ---------------------------------------------------------------------
// Simulator-specific policies
// ---------------------------------------------------------------------

/// The no-stall lower bound: every sample is always already staged.
struct Perfect;

impl PolicyImpl for Perfect {
    fn source(&mut self, _w: usize, _k: SampleId, _s: u64, _now: f64, _g: usize) -> Location {
        Location::Staging
    }
}

/// NoPFS's clairvoyant policy (Sec. 5): frequency-ranked placement into
/// the storage hierarchy, class prefetchers filling in first-access
/// order concurrently with training, and per-access source selection by
/// modelled fetch time over {local class, remote holder, PFS} — the
/// final pick made by the shared [`select_source`], the same code path
/// the threaded runtime's staging fetches go through.
///
/// Prefetch progress is modelled by per-sample *ready times*: each class
/// prefetcher drains its assignment list at the smaller of the class's
/// write bandwidth and its share of this worker's PFS bandwidth (shares
/// split proportionally to prefetch thread counts). A sample consumed
/// before its prefetcher reached it becomes cached at consumption time —
/// the paper's "that prefetcher will retrieve and cache the sample
/// itself" self-healing.
///
/// Samples the placement leaves without any holder are read ahead by
/// origin lanes, as in the runtime's `core::worker`: the lane count is
/// the same [`SystemSpec::origin_lanes`] of the same uncached share.
struct NoPfs {
    sys: SystemSpec,
    /// Who caches what, in which class.
    placement: GlobalPlacement,
    /// Origin lanes per worker for the samples nobody caches.
    lanes: usize,
    /// Per worker: modelled time at which each sample is cached locally.
    ready: Vec<Vec<f32>>,
    /// Per worker: samples cached early by self-healing.
    overrides: Vec<HashSet<SampleId>>,
}

impl NoPfs {
    fn new(scenario: &Scenario) -> Self {
        let sys = scenario.system.clone();
        let n = sys.workers;
        let spec = scenario.shuffle_spec();
        // One engine pass derives frequencies and first-access inputs
        // for every worker (the per-worker recomputation here used to
        // cost O(N·E·F) shuffle generations).
        let artifacts = SetupPass::with_options(
            spec,
            scenario.epochs,
            SetupOptions {
                materialize_streams: false,
            },
        )
        .run();
        let share = staging_share(&sys);
        let total_threads: u32 = sys
            .classes
            .iter()
            .map(|c| c.prefetch_threads.max(1))
            .sum::<u32>()
            .max(1);

        let placement = artifacts.placement(&scenario.sizes, &vec![sys.class_capacities(); n]);
        let mut ready = Vec::with_capacity(n);
        for w in 0..n {
            let assignment = placement.assignment(w);
            let mut ready_w = vec![f32::INFINITY; scenario.sizes.len()];
            for (j, class) in sys.classes.iter().enumerate() {
                let write_bw = class.write.at(f64::from(class.prefetch_threads.max(1)));
                let pfs_part =
                    share * f64::from(class.prefetch_threads.max(1)) / f64::from(total_threads);
                let fill_rate = write_bw.min(pfs_part).max(1.0);
                let mut cum = 0u64;
                for &k in assignment.prefetch_order(j) {
                    cum += scenario.sizes[k as usize];
                    ready_w[k as usize] = (cum as f64 / fill_rate) as f32;
                }
            }
            ready.push(ready_w);
        }
        Self {
            lanes: sys.origin_lanes(placement.uncached_share()),
            sys,
            placement,
            ready,
            overrides: vec![HashSet::new(); n],
        }
    }

    fn locally_ready(&self, w: usize, k: SampleId, now: f64) -> bool {
        f64::from(self.ready[w][k as usize]) <= now || self.overrides[w].contains(&k)
    }

    /// The `{local class, fastest remote holder}` candidate pair at
    /// model time `now` — the inputs to the shared selection rule.
    fn candidates(&self, w: usize, k: SampleId, now: f64) -> (Option<u8>, Option<u8>) {
        let local = self
            .placement
            .assignment(w)
            .class_of(k)
            .filter(|_| self.locally_ready(w, k, now));
        // Fastest remote holder whose prefetcher (per the progress
        // estimate) already cached the sample. Remote self-heal state is
        // deliberately not consulted — the runtime heuristic can't see
        // it either.
        let remote = self
            .placement
            .holders(k)
            .iter()
            .filter(|&&(o, _)| o != w && f64::from(self.ready[o][k as usize]) <= now)
            .map(|&(_, c)| c)
            .min();
        (local, remote)
    }
}

impl PolicyImpl for NoPfs {
    fn source(&mut self, w: usize, k: SampleId, size: u64, now: f64, gamma: usize) -> Location {
        // The same shared code path the runtime's staging fetches go
        // through: the {local, remote, origin} wrapper over the
        // ordered-tier-list argmin (`select_source_tiered`).
        let (local, remote) = self.candidates(w, k, now);
        select_source(&self.sys, local, remote, size, gamma)
    }

    fn source_degraded(
        &mut self,
        w: usize,
        k: SampleId,
        size: u64,
        now: f64,
        gamma: usize,
        origin_ok: bool,
    ) -> Location {
        // Graceful degradation, same shared rule as the runtime: an
        // unavailable origin is dropped from the candidate list when
        // any peer or local tier can serve the sample.
        let (local, remote) = self.candidates(w, k, now);
        select_source_degraded(&self.sys, local, remote, size, gamma, origin_ok)
    }

    fn origin_lanes(&self, k: SampleId) -> usize {
        if self.placement.is_uncached(k) {
            self.lanes
        } else {
            0
        }
    }

    fn on_consumed(&mut self, w: usize, k: SampleId, now: f64) {
        // Self-healing: consuming a sample that its class prefetcher had
        // not reached caches it immediately (the staging fetch doubles
        // as the class fill).
        let assigned = self.placement.assignment(w).class_of(k).is_some();
        if assigned && f64::from(self.ready[w][k as usize]) > now {
            self.overrides[w].insert(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nopfs_perfmodel::presets::fig8_small_cluster;

    fn tiny_scenario(total_samples: usize, sample_bytes: u64) -> Scenario {
        let mut sys = fig8_small_cluster();
        sys.classes[0].capacity = 50 * sample_bytes;
        sys.classes[1].capacity = 100 * sample_bytes;
        Scenario::new("tiny", sys, vec![sample_bytes; total_samples], 2, 4, 11)
    }

    #[test]
    fn nopfs_self_heals_on_early_consumption() {
        let s = tiny_scenario(200, 1_000_000);
        let mut np = NoPfs::new(&s);
        // Find a sample assigned to worker 0 whose prefetcher reaches it
        // late, then consume it before that.
        let k = (0..200u64)
            .find(|&k| {
                np.placement.assignment(0).class_of(k).is_some() && np.ready[0][k as usize] > 0.1
            })
            .expect("some sample is assigned with a late ready time");
        assert!(!np.locally_ready(0, k, 0.05));
        np.on_consumed(0, k, 0.05);
        assert!(np.locally_ready(0, k, 0.05));
    }

    #[test]
    fn nopfs_prefers_local_when_ready() {
        let s = tiny_scenario(200, 1_000_000);
        let mut np = NoPfs::new(&s);
        let k = (0..200u64)
            .find(|&k| np.placement.assignment(0).class_of(k) == Some(0))
            .expect("worker 0 caches something in RAM");
        // Far in the future everything is prefetched.
        let loc = np.source(0, k, 1_000_000, 1e12, 4);
        assert_eq!(loc, Location::Local(0));
    }

    #[test]
    fn nopfs_falls_back_to_pfs_initially() {
        let s = tiny_scenario(200, 1_000_000);
        let mut np = NoPfs::new(&s);
        // At time zero nothing is prefetched anywhere.
        let loc = np.source(0, 7, 1_000_000, 0.0, 4);
        assert_eq!(loc, Location::Pfs);
    }

    #[test]
    fn core_adapter_prices_prestage_and_tracks_epochs() {
        let s = tiny_scenario(1000, 1_000_000);
        let mut p = build(PolicyId::DeepIoOrdered, &s).expect("supported");
        assert!(p.prestage_seconds() > 0.0);
        assert!(p.overlapped());
        // DeepIO ordered: a worker's own shard is local, a peer's is
        // remote, uncached samples hit the PFS.
        let core = build_core(
            PolicyId::DeepIoOrdered,
            &s.system,
            &s.sizes,
            &s.shuffle_spec(),
        )
        .unwrap()
        .unwrap();
        for k in 0..1000u64 {
            let loc = p.source(0, k, 1_000_000, 0.0, 1);
            let expect = match core.source(0, k, 0) {
                Source::Local(c) => Location::Local(c),
                Source::Remote { class, .. } => Location::Remote(class),
                Source::Pfs => Location::Pfs,
            };
            assert_eq!(loc, expect, "sample {k}");
        }
    }

    #[test]
    fn naive_core_is_synchronous() {
        let s = tiny_scenario(32, 1_000);
        let p = build(PolicyId::Naive, &s).expect("supported");
        assert!(!p.overlapped());
        let p = build(PolicyId::StagingBuffer, &s).expect("supported");
        assert!(p.overlapped());
    }

    #[test]
    fn unsupported_core_surfaces_as_sim_error() {
        let s = tiny_scenario(1000, 1_000_000); // 1000 MB > 200 MB RAM
        match build(PolicyId::LbannDynamic, &s) {
            Err(SimError::Unsupported(m)) => assert!(m.contains("aggregate")),
            _ => panic!("expected unsupported"),
        }
    }
}
