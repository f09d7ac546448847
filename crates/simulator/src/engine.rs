//! The lockstep simulation engine.
//!
//! Workers advance iteration by iteration (global mini-batch by global
//! mini-batch, the bulk-synchronous structure of data-parallel SGD). For
//! every access the active policy picks a fetch source; the engine turns
//! that into a `read_i` time via the performance model, feeds the
//! `t_{i,f}` recurrence, and attributes the resulting stall to the
//! source (see [`crate::result::Breakdown`]).
//!
//! PFS contention is tracked dynamically: `γ` is the number of PFS
//! *clients* (reader threads) observed in the previous iteration —
//! `p_0` per prefetching worker, one for synchronous readers — so
//! policies that stop hitting the PFS (because caches warmed up) see
//! the per-client share `t(γ)/γ` improve as the run progresses, while
//! policies that hammer the PFS see it collapse as workers are added.
//! This is the feedback loop behind the paper's scaling results.
//!
//! One per-job state (`JobState`) and one scheduler (`lockstep`)
//! serve every entry point: [`run`] is a cluster of one job,
//! [`crate::cluster::run_cluster`] the same scheduler over many, and
//! [`crate::churn::run_elastic`] one job state per membership, each
//! run an epoch at a time.

use crate::cloud::CloudModel;
use crate::policies::{self, PolicyImpl};
use crate::result::{Breakdown, SimError, SimResult};
use crate::scenario::Scenario;
use nopfs_clairvoyance::SampleId;
use nopfs_obs::{names, Counter, ObsCtx, Tracer};
use nopfs_perfmodel::equations::ConsumeAccumulator;
use nopfs_perfmodel::{Location, SystemSpec};
use nopfs_policy::PolicyId;
use std::ops::Range;

/// Per-worker consumption state: either the pipelined `t_{i,f}`
/// recurrence (policies with prefetch threads) or fully serialized
/// consumption (the Naive policy, which reads synchronously).
enum Acc {
    Overlapped(ConsumeAccumulator),
    Serial {
        compute: f64,
        t: f64,
        prev_size: u64,
        stall: f64,
    },
}

impl Acc {
    fn new(compute: f64, p0: u32, overlapped: bool) -> Self {
        if overlapped {
            Acc::Overlapped(ConsumeAccumulator::new(compute, p0))
        } else {
            Acc::Serial {
                compute,
                t: 0.0,
                prev_size: 0,
                stall: 0.0,
            }
        }
    }

    /// Records an access; returns `(consumed_at, stall)`.
    fn push(&mut self, read: f64, size: u64) -> (f64, f64) {
        match self {
            Acc::Overlapped(a) => {
                let timing = a.push(read, size);
                (timing.consumed, timing.stall)
            }
            Acc::Serial {
                compute,
                t,
                prev_size,
                stall,
            } => {
                // No overlap: the trainer finishes computing, then waits
                // out the entire read.
                let ready = *t + *prev_size as f64 / *compute;
                let consumed = ready + read;
                *t = consumed;
                *prev_size = size;
                *stall += read;
                (consumed, read)
            }
        }
    }

    /// Records an access read ahead by `lanes` origin lanes (see
    /// [`ConsumeAccumulator::push_ahead`]); returns
    /// `(consumed_at, stall)`. A synchronous reader has no lanes and
    /// pays both parts in series.
    fn push_ahead(&mut self, fetch: f64, lanes: usize, write: f64, size: u64) -> (f64, f64) {
        match self {
            Acc::Overlapped(a) => {
                let timing = a.push_ahead(fetch, lanes, write, size);
                (timing.consumed, timing.stall)
            }
            Acc::Serial { .. } => self.push(fetch + write, size),
        }
    }

    /// Sets the trainer's compute throughput from the next sample on.
    fn set_compute(&mut self, rate: f64) {
        match self {
            Acc::Overlapped(a) => a.set_compute(rate),
            Acc::Serial { compute, .. } => *compute = rate,
        }
    }

    fn last(&self) -> f64 {
        match self {
            Acc::Overlapped(a) => a.last_consumed(),
            Acc::Serial { t, .. } => *t,
        }
    }

    fn total_stall(&self) -> f64 {
        match self {
            Acc::Overlapped(a) => a.total_stall(),
            Acc::Serial { stall, .. } => *stall,
        }
    }

    fn finish(&self) -> f64 {
        match self {
            Acc::Overlapped(a) => a.finish(),
            Acc::Serial {
                compute,
                t,
                prev_size,
                ..
            } => *t + *prev_size as f64 / *compute,
        }
    }
}

/// Prices one access of `size` bytes from `loc` by the performance
/// model (the cloud model for origin reads, when the scenario has one)
/// at `gamma` PFS clients — the staging readers and origin lanes of
/// every tenant, this job's included — and feeds it to the worker's
/// recurrence. `lanes > 0`: the policy reads this sample ahead with
/// that many origin lanes per worker, so its fetch is charged to the
/// lanes and its `write_time` to the `p_0` pipeline.
///
/// Returns `(read, consumed_at, stall)`, where `read` is the access's
/// share of prefetch-pipeline time: `read_i`, or for a sample read
/// ahead its per-lane fetch plus its write.
fn push_access(
    acc: &mut Acc,
    sys: &SystemSpec,
    cloud: Option<&mut CloudModel>,
    loc: Location,
    size: u64,
    gamma: usize,
    lanes: usize,
) -> (f64, f64, f64) {
    let now = acc.last();
    if lanes > 0 && matches!(loc, Location::Pfs) {
        let fetch = match cloud {
            Some(c) => c.read_cost(now, size, gamma),
            None => sys.fetch_pfs(size, gamma),
        };
        let write = sys.write_time(size);
        let (consumed, stall) = acc.push_ahead(fetch, lanes, write, size);
        return (fetch / lanes as f64 + write, consumed, stall);
    }
    let read = match (cloud, loc) {
        (Some(c), Location::Pfs) => c.read_cost(now, size, gamma),
        _ => sys.read_time(loc, size, gamma),
    };
    let (consumed, stall) = acc.push(read, size);
    (read, consumed, stall)
}

/// A worker's PFS clients over one iteration: its `p_0` staging
/// threads if any of them read the PFS, plus the origin lanes that
/// read ahead for it.
#[derive(Default)]
struct PfsClients {
    staged: bool,
    lanes: usize,
}

impl PfsClients {
    fn note(&mut self, loc: Location, lanes: usize) {
        if matches!(loc, Location::Pfs) {
            self.staged |= lanes == 0;
            self.lanes = self.lanes.max(lanes);
        }
    }

    fn count(&self, threads_per_worker: usize) -> usize {
        usize::from(self.staged) * threads_per_worker + self.lanes
    }
}

fn loc_index(loc: Location) -> usize {
    match loc {
        Location::Staging => 0,
        Location::Local(_) => 1,
        Location::Remote(_) => 2,
        Location::Pfs => 3,
    }
}

/// One job's lockstep state: its policy, per-worker recurrences,
/// breakdown, fetch counts and cloud origin, carried across epochs and
/// across the scheduler's turns.
pub(crate) struct JobState<'a> {
    scenario: &'a Scenario,
    policy_id: PolicyId,
    policy: Box<dyn PolicyImpl>,
    accs: Vec<Acc>,
    prev_consumed: Vec<f64>,
    breakdown: Breakdown,
    fetch_counts: [u64; 4],
    /// `sim.fetch{loc=…}`, indexed like `fetch_counts`.
    fetch_counters: [Counter; 4],
    tracer: Tracer,
    /// The scenario's cloud origin model, when it routes the origin
    /// through an object store.
    cloud: Option<CloudModel>,
    /// Where the job's clock zero sits on the run's shared clock.
    pub(crate) start: f64,
    /// The loaded epoch's per-worker sequences.
    seqs: Vec<Vec<SampleId>>,
    /// Iterations in the loaded epoch and the next one to run.
    iterations: usize,
    iter: usize,
    /// The loaded epoch; the job is finished once it reaches `end`.
    epoch: u64,
    end: u64,
    /// The first epoch whose transform the policy has not been fed.
    next_epoch: u64,
    /// This job's PFS clients observed in its previous iteration.
    gamma_self: usize,
    threads_per_worker: usize,
    started: bool,
}

impl<'a> JobState<'a> {
    /// A job of `policy_id` on `scenario` with no epoch scheduled yet.
    pub(crate) fn new(
        scenario: &'a Scenario,
        policy_id: PolicyId,
        obs: &ObsCtx,
    ) -> Result<Self, SimError> {
        let policy = policies::build(policy_id, scenario)?;
        let sys = &scenario.system;
        let n = sys.workers;
        let threads_per_worker = if policy.overlapped() {
            sys.staging.threads as usize
        } else {
            1
        };
        let accs = (0..n)
            .map(|_| Acc::new(sys.compute, sys.staging.threads, policy.overlapped()))
            .collect();
        let counter = |loc| obs.registry.counter_with(names::SIM_FETCH, &[("loc", loc)]);
        Ok(Self {
            scenario,
            policy_id,
            policy,
            accs,
            prev_consumed: vec![0.0; n],
            breakdown: Breakdown::default(),
            fetch_counts: [0; 4],
            fetch_counters: ["staging", "local", "remote", "pfs"].map(counter),
            tracer: obs.tracer.clone(),
            cloud: scenario
                .cloud
                .clone()
                .map(|spec| CloudModel::with_obs(spec, obs)),
            start: 0.0,
            seqs: Vec::new(),
            iterations: 0,
            iter: 0,
            epoch: 0,
            end: 0,
            next_epoch: 0,
            // γ starts pessimistic (every worker's readers on the PFS),
            // which the first epoch will realize anyway.
            gamma_self: (n * threads_per_worker).max(1),
            threads_per_worker,
            started: false,
        })
    }

    /// The policy prestage phase's length, seconds.
    pub(crate) fn prestage_seconds(&self) -> f64 {
        self.policy.prestage_seconds()
    }

    /// Schedules the global epochs `epochs` to run next.
    pub(crate) fn schedule(&mut self, epochs: Range<u64>) {
        self.end = epochs.end;
        self.load_epoch(epochs.start);
    }

    /// Loads the first non-empty epoch from `e` on, or marks the job
    /// finished. The policy first replays the transforms of the epochs
    /// it has not seen (a membership an elastic run comes back to), so
    /// its call sequence matches a fresh core run from epoch 0.
    fn load_epoch(&mut self, mut e: u64) {
        while e < self.end {
            while self.next_epoch < e {
                self.epoch_seqs(self.next_epoch);
            }
            // The epoch boundary on the model clock: the time front of
            // the slowest worker when the epoch opens.
            self.tracer.instant_at(
                names::EV_EPOCH,
                "sim",
                self.front(),
                vec![("epoch", e.into())],
            );
            self.seqs = self.epoch_seqs(e);
            let b = self.scenario.batch_size;
            self.iterations = self
                .seqs
                .iter()
                .map(|s| s.len().div_ceil(b))
                .max()
                .unwrap_or(0);
            self.iter = 0;
            if self.iterations > 0 {
                break;
            }
            e += 1;
        }
        self.epoch = e;
    }

    /// Epoch `e`'s per-worker sequences, through the policy's epoch
    /// hooks.
    fn epoch_seqs(&mut self, e: u64) -> Vec<Vec<SampleId>> {
        let shuffle = self.scenario.shuffle_spec().epoch_shuffle(e);
        self.policy.on_epoch_start(e);
        let seqs = (0..self.accs.len())
            .map(|w| shuffle.worker_sequence(w))
            .collect();
        self.next_epoch = e + 1;
        self.policy.transform_epoch(e, seqs, &shuffle)
    }

    fn finished(&self) -> bool {
        self.epoch >= self.end
    }

    /// The job's time front on the run's shared clock: its start plus the
    /// slowest worker's consumption clock.
    fn front(&self) -> f64 {
        self.start + self.accs.iter().map(Acc::last).fold(0.0, f64::max)
    }

    /// When the slowest worker is done computing, on the job's clock.
    pub(crate) fn wall(&self) -> f64 {
        self.accs.iter().map(Acc::finish).fold(0.0, f64::max)
    }

    /// Sets each worker's compute throughput, `rate(worker)`, from the
    /// next sample on.
    pub(crate) fn set_compute(&mut self, rate: impl Fn(usize) -> f64) {
        for (w, acc) in self.accs.iter_mut().enumerate() {
            acc.set_compute(rate(w));
        }
    }

    /// The last epoch's per-worker sequences, taken out of the job.
    pub(crate) fn take_seqs(&mut self) -> Vec<Vec<SampleId>> {
        std::mem::take(&mut self.seqs)
    }

    /// Advances one iteration, pricing PFS reads at `gamma` clients.
    fn advance(&mut self, gamma: usize) {
        self.started = true;
        let sys = &self.scenario.system;
        let b = self.scenario.batch_size;
        let h = self.iter;
        let mut pfs_clients = 0usize;
        for (w, seq) in self.seqs.iter().enumerate() {
            let lo = h * b;
            if lo >= seq.len() {
                continue;
            }
            let hi = ((h + 1) * b).min(seq.len());
            let mut clients = PfsClients::default();
            for &k in &seq[lo..hi] {
                let now = self.accs[w].last();
                let size = self.scenario.sizes[k as usize];
                // An origin whose breaker is open and cooling fails
                // reads fast: the degraded selection steers eligible
                // fetches to peers/local tiers (graceful degradation);
                // only fetches with no alternative still reach the
                // origin and wait out the breaker.
                let origin_ok = self.cloud.as_ref().is_none_or(|c| c.available(now));
                let loc = self
                    .policy
                    .source_degraded(w, k, size, now, gamma, origin_ok);
                let lanes = self.policy.origin_lanes(k);
                let (read, consumed, stall) = push_access(
                    &mut self.accs[w],
                    sys,
                    self.cloud.as_mut(),
                    loc,
                    size,
                    gamma,
                    lanes,
                );
                // Attribute to the fetch source both the stall and the
                // overlapped fetch activity within the interval (Fig.
                // 8's bars show where fetch time was spent, not only
                // where the trainer blocked).
                let interval = consumed - self.prev_consumed[w];
                let busy = (interval - stall).max(0.0);
                let overlapped_fetch = read.min(busy);
                self.breakdown
                    .attribute(loc, stall + overlapped_fetch, busy - overlapped_fetch);
                self.prev_consumed[w] = consumed;
                self.fetch_counts[loc_index(loc)] += 1;
                self.fetch_counters[loc_index(loc)].inc();
                clients.note(loc, lanes);
                self.policy.on_consumed(w, k, consumed);
            }
            pfs_clients += clients.count(self.threads_per_worker);
        }
        self.gamma_self = pfs_clients;
        self.iter += 1;
        if self.iter >= self.iterations {
            self.load_epoch(self.epoch + 1);
        }
    }

    fn into_result(self) -> SimResult {
        let prestage = self.policy.prestage_seconds();
        let mut breakdown = self.breakdown;
        if prestage > 0.0 {
            // The prestaging phase reads from the PFS on every worker
            // simultaneously and nothing overlaps it.
            breakdown.pfs += prestage * self.accs.len() as f64;
        }
        let per_worker_time: Vec<f64> = self.accs.iter().map(|a| a.finish() + prestage).collect();
        let per_worker_stall: Vec<f64> = self.accs.iter().map(Acc::total_stall).collect();
        let execution_time = per_worker_time.iter().copied().fold(0.0, f64::max);
        SimResult {
            policy: self.policy_id,
            execution_time,
            per_worker_time,
            prestage_time: prestage,
            per_worker_stall,
            breakdown,
            fetch_counts: self.fetch_counts,
            coverage: self.policy.coverage(),
            note: self.policy.note(),
            resilience: self.cloud.as_ref().map(CloudModel::stats),
        }
    }
}

/// Runs `jobs` to the end of their scheduled epochs on one shared PFS.
///
/// The unfinished job whose time front is earliest advances one
/// iteration, its reads priced at `γ` = its own PFS clients in its
/// previous iteration plus those of every other job that has started
/// and not yet finished.
pub(crate) fn lockstep(jobs: &mut [JobState]) {
    loop {
        let next = jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| !j.finished())
            .min_by(|(_, a), (_, b)| {
                a.front()
                    .partial_cmp(&b.front())
                    .expect("time fronts are finite")
            })
            .map(|(i, _)| i);
        let Some(i) = next else { break };
        let gamma = jobs
            .iter()
            .enumerate()
            .filter(|&(j, job)| j == i || (job.started && !job.finished()))
            .map(|(_, job)| job.gamma_self)
            .sum::<usize>()
            .max(1);
        jobs[i].advance(gamma);
    }
}

/// Simulates `policy` on `scenario`.
///
/// Returns [`SimError::Unsupported`] when the policy cannot run the
/// scenario (e.g. the LBANN data store with a dataset larger than
/// aggregate worker memory).
pub fn run(scenario: &Scenario, policy: PolicyId) -> Result<SimResult, SimError> {
    run_with_obs(scenario, policy, &ObsCtx::new())
}

/// [`run`] with an observability context: modelled fetches count into
/// the registry (`sim.fetch{loc=…}`) and the engine emits model-clock
/// trace events — an epoch instant per epoch boundary, plus the cloud
/// origin's breaker transitions and hedges when the scenario has a
/// cloud clause and the context's tracer is active.
///
/// # Errors
/// Same contract as [`run`].
pub fn run_with_obs(
    scenario: &Scenario,
    policy: PolicyId,
    obs: &ObsCtx,
) -> Result<SimResult, SimError> {
    let mut results = run_jobs([(scenario, policy, 0.0)], obs)?;
    Ok(results.pop().expect("one job, one result"))
}

/// Runs jobs of `(scenario, policy, start offset)` through all their
/// epochs on one shared PFS; one result per job, in order.
pub(crate) fn run_jobs<'a>(
    jobs: impl IntoIterator<Item = (&'a Scenario, PolicyId, f64)>,
    obs: &ObsCtx,
) -> Result<Vec<SimResult>, SimError> {
    let mut jobs = jobs
        .into_iter()
        .map(|(scenario, policy, start)| {
            let mut job = JobState::new(scenario, policy, obs)?;
            job.start = start;
            job.schedule(0..scenario.epochs);
            Ok(job)
        })
        .collect::<Result<Vec<_>, SimError>>()?;
    lockstep(&mut jobs);
    Ok(jobs.into_iter().map(JobState::into_result).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nopfs_perfmodel::presets::{fig8_small_cluster, saturating_pfs_curve};
    use nopfs_util::units::MB;

    /// A small scenario where the PFS is a genuine bottleneck: aggregate
    /// PFS saturates at ~2x one worker's compute demand, so policies
    /// that keep hitting the PFS stall while cache-based policies don't.
    fn contended_scenario() -> Scenario {
        let mut sys = fig8_small_cluster();
        // Aggregate PFS saturates below the cluster's compute demand
        // (4 workers x 64 MB/s = 256 MB/s demand vs 200 MB/s PFS), so
        // PFS-bound policies stall while cache-based policies do not.
        sys.pfs_read = saturating_pfs_curve(200.0 * MB, 8.0);
        // Shrink caches so the dataset (~200 MB) spans RAM + SSD:
        // 60 MB RAM, 200 MB SSD per worker.
        sys.classes[0].capacity = 60 * 1_000_000;
        sys.classes[1].capacity = 200 * 1_000_000;
        sys.staging.capacity = 16 * 1_000_000;
        Scenario::new(
            "contended",
            sys,
            vec![100_000u64; 2_000], // 200 MB, 2000 samples
            3,
            8,
            42,
        )
    }

    #[test]
    fn perfect_has_negligible_stall() {
        let r = run(&contended_scenario(), PolicyId::Perfect).unwrap();
        // Only pipeline-warmup stall is allowed (first few accesses).
        assert!(
            r.total_stall() < 0.05 * r.execution_time,
            "stall {} vs exec {}",
            r.total_stall(),
            r.execution_time
        );
        let (staging, _, _, pfs) = r.breakdown.fractions();
        assert!(staging > 0.95, "staging fraction {staging}");
        assert!(pfs < 0.01);
    }

    #[test]
    fn obs_run_counts_fetches_and_emits_epoch_instants() {
        let s = contended_scenario();
        let obs = ObsCtx::traced();
        let r = run_with_obs(&s, PolicyId::NoPfs, &obs).unwrap();
        // Every modelled fetch lands in the registry, by source.
        let snap = obs.snapshot();
        assert_eq!(
            snap.counter_total(names::SIM_FETCH),
            r.fetch_counts.iter().sum::<u64>()
        );
        assert_eq!(
            snap.counter("sim.fetch{loc=pfs}"),
            Some(r.fetch_counts[3]).filter(|&v| v > 0)
        );
        // One model-clock epoch instant per epoch, in model order.
        let epochs: Vec<f64> = obs
            .tracer
            .export()
            .iter()
            .filter(|e| e.name == names::EV_EPOCH)
            .map(|e| e.model_s)
            .collect();
        assert_eq!(epochs.len(), s.epochs as usize);
        assert!(epochs.windows(2).all(|w| w[0] <= w[1]));
        // And the plain entry point stays deterministic alongside.
        let plain = run(&s, PolicyId::NoPfs).unwrap();
        assert_eq!(plain.fetch_counts, r.fetch_counts);
        assert_eq!(plain.execution_time, r.execution_time);
    }

    #[test]
    fn naive_is_the_slowest() {
        let s = contended_scenario();
        let naive = run(&s, PolicyId::Naive).unwrap();
        for p in [
            PolicyId::Perfect,
            PolicyId::StagingBuffer,
            PolicyId::NoPfs,
            PolicyId::LocalityAware,
        ] {
            let r = run(&s, p).unwrap();
            assert!(
                naive.execution_time >= r.execution_time,
                "Naive ({}) should not beat {p} ({})",
                naive.execution_time,
                r.execution_time
            );
        }
    }

    #[test]
    fn nopfs_beats_staging_buffer_under_contention() {
        let s = contended_scenario();
        let nopfs = run(&s, PolicyId::NoPfs).unwrap();
        let sb = run(&s, PolicyId::StagingBuffer).unwrap();
        assert!(
            nopfs.execution_time < sb.execution_time,
            "NoPFS {} vs StagingBuffer {}",
            nopfs.execution_time,
            sb.execution_time
        );
    }

    #[test]
    fn nopfs_is_close_to_lower_bound() {
        let s = contended_scenario();
        let nopfs = run(&s, PolicyId::NoPfs).unwrap();
        let lb = run(&s, PolicyId::Perfect).unwrap();
        assert!(nopfs.execution_time >= lb.execution_time * 0.999);
        assert!(
            nopfs.execution_time < lb.execution_time * 1.35,
            "NoPFS {} too far from bound {}",
            nopfs.execution_time,
            lb.execution_time
        );
    }

    #[test]
    fn nopfs_reads_the_never_cached_tail_ahead_at_the_models_gamma() {
        // The ledger's paper-regime workload in miniature: two workers,
        // a PFS of 10 MB/s per stream up to four, caches the size of 0.8
        // of the dataset (the two workers' picks overlap, so a quarter
        // of it has no holder), one staging thread each. That quarter
        // of each epoch, read in series with the writes by the one
        // staging thread at 10 MB/s, takes longer than the epoch's
        // compute; two lanes per worker (γ = 4, the curve's knee) fetch
        // it inside it.
        let mut sys = fig8_small_cluster();
        sys.workers = 2;
        sys.pfs_read = saturating_pfs_curve(40.0 * MB, 4.0);
        sys.staging.threads = 1;
        sys.staging.capacity = 1_000_000;
        sys.classes[0].capacity = 16_000_000;
        sys.classes[1].capacity = 16_000_000;
        let s = Scenario::new("paper-regime", sys, vec![20_000u64; 4_000], 6, 8, 7);
        let p = policies::build(PolicyId::NoPfs, &s).unwrap();
        let lanes: Vec<usize> = (0..4_000).map(|k| p.origin_lanes(k)).collect();
        assert!(lanes.iter().all(|&l| l == 0 || l == 2));
        let uncached = lanes.iter().filter(|&&l| l == 2).count();
        assert!((800..=1_200).contains(&uncached), "{uncached} of 4000");

        // Epoch boundaries on the model clock, from the engine's own
        // epoch instants; the caches are warm from the third epoch on.
        let obs = ObsCtx::traced();
        run_with_obs(&s, PolicyId::NoPfs, &obs).unwrap();
        let starts: Vec<f64> = obs
            .tracer
            .export()
            .iter()
            .filter(|e| e.name == names::EV_EPOCH)
            .map(|e| e.model_s)
            .collect();
        assert_eq!(starts.len(), 6);
        let compute = 40.0e6 / (64.0 * MB); // one worker's epoch, 0.625 s
        for pair in starts[2..].windows(2) {
            let epoch = pair[1] - pair[0];
            assert!(
                (compute - 1e-9..1.05 * compute).contains(&epoch),
                "steady epoch {epoch} s against {compute} s of compute"
            );
        }
    }

    #[test]
    fn staging_buffer_time_is_all_pfs_or_staging() {
        let r = run(&contended_scenario(), PolicyId::StagingBuffer).unwrap();
        let (_, local, remote, _) = r.breakdown.fractions();
        assert_eq!(local, 0.0);
        assert_eq!(remote, 0.0);
        assert_eq!(r.fetch_counts[1], 0);
        assert_eq!(r.fetch_counts[2], 0);
    }

    #[test]
    fn fetch_counts_cover_every_access() {
        let s = contended_scenario();
        let expected: u64 = (0..4)
            .map(|w| s.shuffle_spec().worker_epoch_len(w) * s.epochs)
            .sum();
        for p in [PolicyId::Naive, PolicyId::NoPfs, PolicyId::LbannDynamic] {
            let r = run(&s, p).unwrap();
            let total: u64 = r.fetch_counts.iter().sum();
            assert_eq!(total, expected, "{p}");
        }
    }

    #[test]
    fn nopfs_pfs_traffic_drops_after_first_epoch() {
        // Caches warm up during the run: PFS fetches must be well below
        // the all-PFS policies' count (every access) and leave a
        // substantial cached share.
        let s = contended_scenario();
        let r = run(&s, PolicyId::NoPfs).unwrap();
        let total: u64 = r.fetch_counts.iter().sum();
        assert!(
            (r.fetch_counts[3] as f64) < 0.6 * total as f64,
            "PFS fetches {} of {total} — caches never warmed up",
            r.fetch_counts[3]
        );
        assert!(r.fetch_counts[1] + r.fetch_counts[2] > 0);
    }

    #[test]
    fn lbann_unsupported_when_dataset_exceeds_memory() {
        let mut s = contended_scenario();
        // Shrink RAM so aggregate memory (4 x 30 MB) < 200 MB dataset.
        s.system.classes[0].capacity = 30 * 1_000_000;
        match run(&s, PolicyId::LbannDynamic) {
            Err(SimError::Unsupported(msg)) => {
                assert!(msg.contains("memory"), "msg: {msg}")
            }
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    #[test]
    fn parallel_staging_notes_partial_coverage() {
        let mut s = contended_scenario();
        // Worker storage D = 40 MB < S = 200 MB: shards can't hold all.
        s.system.classes[0].capacity = 20 * 1_000_000;
        s.system.classes[1].capacity = 20 * 1_000_000;
        let r = run(&s, PolicyId::ParallelStaging).unwrap();
        assert!(r.coverage < 1.0);
        assert!(r.note.is_some());
        assert!(r.prestage_time > 0.0);
    }

    #[test]
    fn parallel_staging_full_dataset_when_it_fits() {
        let s = contended_scenario(); // D = 260 MB > S = 200 MB
        let r = run(&s, PolicyId::ParallelStaging).unwrap();
        assert_eq!(r.coverage, 1.0);
        assert!(r.note.is_none());
        // After staging, no PFS access at all.
        assert_eq!(r.fetch_counts[3], 0);
    }

    #[test]
    fn deep_io_opportunistic_never_reads_pfs_after_prestage() {
        let r = run(&contended_scenario(), PolicyId::DeepIoOpportunistic).unwrap();
        assert_eq!(r.fetch_counts[3], 0);
    }

    #[test]
    fn deep_io_ordered_reads_uncached_from_pfs() {
        let mut s = contended_scenario();
        // RAM (the only class DeepIO uses) holds 1/4 of the shard needs.
        s.system.classes[0].capacity = 10 * 1_000_000;
        let r = run(&s, PolicyId::DeepIoOrdered).unwrap();
        assert!(r.fetch_counts[3] > 0, "ordered mode must hit the PFS");
        assert_eq!(r.coverage, 1.0, "ordered mode accesses everything");
    }

    #[test]
    fn lbann_dynamic_epoch0_is_all_pfs() {
        let s = contended_scenario();
        let r = run(&s, PolicyId::LbannDynamic).unwrap();
        // Epoch 0 reads the whole dataset from the PFS; later epochs are
        // local/remote only.
        assert_eq!(r.fetch_counts[3], s.num_samples());
        assert_eq!(r.fetch_counts[1] + r.fetch_counts[2], s.num_samples() * 2);
    }

    #[test]
    fn preloading_pays_prestage_but_never_reads_pfs() {
        let s = contended_scenario();
        let r = run(&s, PolicyId::LbannPreloading).unwrap();
        assert!(r.prestage_time > 0.0);
        assert_eq!(r.fetch_counts[3], 0);
    }

    #[test]
    fn per_worker_times_are_positive_and_close() {
        let r = run(&contended_scenario(), PolicyId::NoPfs).unwrap();
        let min = r.per_worker_time.iter().copied().fold(f64::MAX, f64::min);
        assert!(min > 0.0);
        assert!(r.execution_time >= min);
        // Homogeneous workers finish within 25% of each other.
        assert!(r.execution_time < min * 1.25);
    }

    #[test]
    fn cloud_brownout_hurts_naive_clients_more_than_hardened_ones() {
        use crate::cloud::{hardened_client, naive_client, CloudSpec};
        use nopfs_policy::CloudFaults;
        use nopfs_storage::ResilienceConfig;

        let base = contended_scenario();
        let floor = 0.002;
        let with = |faults: CloudFaults, res: ResilienceConfig| {
            let mut s = base.clone();
            let curve = s.system.pfs_read.clone();
            s = s.with_cloud(CloudSpec::new(floor, curve, faults, res));
            s
        };
        // The fault-free reference on the same store economics.
        let quiet = run(
            &with(CloudFaults::none(9), hardened_client(floor)),
            PolicyId::NoPfs,
        )
        .unwrap();
        // A brownout over the first 30% of the quiet run (covering the
        // cold-cache epoch, when origin traffic peaks): 3x latency, 40%
        // extra throttles, and 2% 20x tail spikes throughout. The
        // hardened client's edge is hedging the spikes away and tripping
        // the breaker on throttle storms; the naive client waits every
        // disturbance out in full.
        let storm = CloudFaults {
            spike_rate: 0.02,
            spike_factor: 20.0,
            throttle_burst: 6,
            retry_after: floor,
            ..CloudFaults::none(9)
        }
        .brownout(0.0, 0.3 * quiet.execution_time, 3.0, 0.4);
        let hardened = run(
            &with(storm.clone(), hardened_client(floor)),
            PolicyId::NoPfs,
        )
        .unwrap();
        let naive = run(&with(storm, naive_client(floor / 4.0)), PolicyId::NoPfs).unwrap();

        // Disturbances cost time for everyone, but the hedged + breaker
        // client stays close to fault-free while the unbounded client
        // waits the storm out request by request.
        assert!(quiet.execution_time < hardened.execution_time);
        assert!(
            hardened.execution_time < naive.execution_time,
            "hardened {} vs naive {}",
            hardened.execution_time,
            naive.execution_time
        );
        // The access stream is untouched: every client fetched exactly
        // the same number of samples.
        let total = |r: &SimResult| r.fetch_counts.iter().sum::<u64>();
        assert_eq!(total(&quiet), total(&hardened));
        assert_eq!(total(&quiet), total(&naive));
        // The failure domain was exercised and reported.
        let hs = hardened.resilience.expect("cloud run reports stats");
        assert!(hs.throttled > 0);
        assert!(hs.breaker_to_open > 0, "the brownout must trip the breaker");
        assert!(hs.hedges_fired > 0, "20x spikes must arm hedges");
        let ns = naive.resilience.expect("cloud run reports stats");
        assert_eq!(ns.breaker_to_open, 0);
        assert_eq!(ns.hedges_fired, 0);
    }

    #[test]
    fn more_epochs_take_longer() {
        let mut s = contended_scenario();
        let t3 = run(&s, PolicyId::NoPfs).unwrap().execution_time;
        s.epochs = 6;
        let t6 = run(&s, PolicyId::NoPfs).unwrap().execution_time;
        assert!(t6 > t3 * 1.5, "t3={t3} t6={t6}");
    }
}
