//! The per-worker runtime: prefetcher threads, the serving loop, and
//! the iterator-style consumer handle.
//!
//! Each worker (one per rank, as in the paper's MPI deployment) runs:
//!
//! - **class prefetchers** — one per storage class, draining the
//!   clairvoyant assignment list in first-access order from the PFS
//!   into the class's backend (the per-class thread counts `p_j` are
//!   modelled by the backends' aggregate throughput curves);
//! - **staging prefetchers** — `p_0` threads that walk the access
//!   stream `R`, pick the fastest source for each sample via the
//!   performance model, and fill the position-ordered staging buffer;
//! - **origin lanes** — when the placement leaves samples that no
//!   worker caches, as many origin readers as the performance model
//!   asks for walk `R` ahead of the staging threads and park those
//!   samples' bytes in the `OriginWindow`, so that `γ` is chosen by
//!   the model while `p_0` keeps meaning preprocess-and-store
//!   pipelines;
//! - **a serving loop** — [`crate::peer::serve`]: answers other
//!   workers' fetch frames from the local caches, paying the modelled
//!   wire cost;
//! - **the consumer** — [`WorkerHandle`], the training loop's
//!   iterator over `(sample id, bytes)` in exact `R` order.

use crate::card::{Card, Cards, Holder};
use crate::config::JobConfig;
use crate::msg::Msg;
use crate::peer::PeerClient;
use crate::stats::{SetupStats, StatsCollector, WorkerStats};
use crate::tiers::{origin_read_many_retry, origin_read_retry};
use crate::window::{OriginWindow, Taken};
use crate::SampleId;
use bytes::Bytes;
use nopfs_clairvoyance::engine::SetupArtifacts;
use nopfs_clairvoyance::placement::GlobalPlacement;
use nopfs_clairvoyance::sampler::ShuffleSpec;
use nopfs_net::Endpoint;
use nopfs_obs::{names, Counter, ObsCtx, Registry};
use nopfs_perfmodel::{Location, SystemSpec};
use nopfs_pfs::Pfs;
use nopfs_storage::{ReorderStage, SourceHealth, TierStack, TierStats};
use nopfs_util::timing::precise_wait;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Job-wide immutable state shared by all of a worker's threads.
///
/// The digests, streams, and placement are the single-pass engine's
/// artifacts, planned once per membership by [`Shared::plan`];
/// launching a worker reads them instead of regenerating any shuffle,
/// and runs it on a window of its planned stream.
pub(crate) struct Shared {
    pub config: JobConfig,
    pub sizes: Arc<Vec<u64>>,
    pub placement: Arc<GlobalPlacement>,
    pub spec: ShuffleSpec,
    /// `cards[w]`: worker `w`'s card per sample — what its staging
    /// path reads about the sample, in one place.
    pub cards: Vec<Arc<Cards>>,
    /// Per-worker access-stream digests from the setup pass; the setup
    /// allgather verifies every rank's claimed digest against these
    /// cached values (the runtime's clairvoyance check).
    pub digests: Vec<u64>,
    /// Per-worker materialized access streams from the setup pass:
    /// every launch of the membership runs on windows of these.
    pub streams: Vec<Arc<Vec<SampleId>>>,
    /// Setup-phase statistics (shuffle generations, wall time).
    pub setup: SetupStats,
}

/// Samples per vectored class-prefetcher fill chunk: deep enough to
/// coalesce adjacent origin ranges, shallow enough that progress (and
/// the stop flag) is observed promptly.
const FILL_BATCH: usize = 16;

/// Stream positions a staging prefetcher claims per round: as many
/// mean-sized samples as an eighth of the staging buffer holds, split
/// between the `p_0` threads, and at least one. Each thread buffers one
/// run before staging it, so what the threads hold outside the stage is
/// at most an eighth of it (one sample per thread when the stage is
/// smaller than eight per thread), while every per-run cost — a frame
/// per peer, a sweep per tier, an origin batch, a consumer wake-up — is
/// paid once per run. A run is also at most an `epoch_len` share per
/// thread, so every thread has work in every epoch however large the
/// stage is next to the dataset.
pub(crate) fn stage_run_len(sys: &SystemSpec, sizes: &[u64], epoch_len: u64) -> u64 {
    let threads = u64::from(sys.staging.threads.max(1));
    let total: u128 = sizes.iter().map(|&s| u128::from(s)).sum();
    let mean = total.div_ceil(sizes.len().max(1) as u128).max(1);
    let per_run = 8 * u128::from(threads) * mean;
    // At most the capacity, so narrowing to u64 keeps every bit.
    let run = (u128::from(sys.staging.capacity) / per_run) as u64;
    run.min(epoch_len.div_ceil(threads)).max(1)
}

/// The samples whose fill is being read from the origin right now, one
/// bit per sample. The class prefetcher or staging thread that sets a
/// sample's bit reads the sample and fills it, then clears the bit;
/// any other thread that wants it for a fill meanwhile waits for the
/// bit to clear and finds the sample cached. So each sample the plan
/// assigns a worker is read from the origin once, however its threads
/// interleave. A thread clears every bit it set before it waits on
/// another's, so no two threads wait on each other.
struct FillClaims(Box<[AtomicU64]>);

impl FillClaims {
    fn new(samples: usize) -> Self {
        Self(
            (0..samples.div_ceil(64))
                .map(|_| AtomicU64::new(0))
                .collect(),
        )
    }

    fn bit(&self, k: SampleId) -> (&AtomicU64, u64) {
        (&self.0[(k / 64) as usize], 1 << (k % 64))
    }

    /// Sets `k`'s bit; whether it was clear.
    fn claim(&self, k: SampleId) -> bool {
        let (word, bit) = self.bit(k);
        word.fetch_or(bit, Ordering::AcqRel) & bit == 0
    }

    fn release(&self, k: SampleId) {
        let (word, bit) = self.bit(k);
        word.fetch_and(!bit, Ordering::Release);
    }

    /// Releases the claims on `ids` when dropped.
    fn held<'a>(&'a self, ids: &'a [SampleId]) -> impl Drop + 'a {
        struct Held<'a>(&'a FillClaims, &'a [SampleId]);
        impl Drop for Held<'_> {
            fn drop(&mut self) {
                for &k in self.1 {
                    self.0.release(k);
                }
            }
        }
        Held(self, ids)
    }

    /// Returns once `k`'s bit is clear, or `stop` is set.
    fn wait(&self, k: SampleId, stop: &AtomicBool) {
        let (word, bit) = self.bit(k);
        while word.load(Ordering::Acquire) & bit != 0 && !stop.load(Ordering::Relaxed) {
            std::thread::yield_now();
        }
    }
}

impl Shared {
    /// Plans a job for the worker count of `arts`: the placement over
    /// `sizes`, each worker's cards, and the artifacts' streams and
    /// digests. `Job::with_plan` plans the initial membership, and
    /// `Job::run_with` each other one it meets. The setup time is left
    /// for the caller to stamp.
    pub(crate) fn plan(mut config: JobConfig, sizes: Arc<Vec<u64>>, arts: &SetupArtifacts) -> Self {
        let workers = arts.num_workers();
        config.system.workers = workers;
        let capacities = vec![config.system.class_capacities(); workers];
        let placement = Arc::new(arts.placement(&sizes, &capacities));
        let cards = Cards::plan(&placement, &sizes)
            .into_iter()
            .map(Arc::new)
            .collect();
        Self {
            config,
            sizes,
            placement,
            spec: *arts.spec(),
            cards,
            digests: arts.digests.clone(),
            streams: arts
                .streams
                .clone()
                .expect("setup pass materializes streams"),
            setup: SetupStats {
                shuffle_generations: arts.shuffles_generated,
                setup_time: Duration::ZERO,
            },
        }
    }
}

struct WorkerCtx {
    rank: usize,
    shared: Arc<Shared>,
    /// The injected PFS handle (also the hierarchy's origin); kept for
    /// live contention observation (`reader_count`).
    pfs: Pfs,
    endpoint: Arc<Endpoint<Msg>>,
    /// The worker's storage hierarchy: one tier per storage class
    /// (tier index = class index), the PFS as origin. Owns the local
    /// cache catalog and per-tier statistics.
    tiers: TierStack,
    stats: Arc<StatsCollector>,
    stop: Arc<AtomicBool>,
    /// Per-class prefetch progress (index into the class list).
    progress: Arc<Vec<AtomicU64>>,
    /// The reorder stage: the staging threads push runs in, the
    /// consumer pops samples out in stream order.
    stage: ReorderStage,
    /// Stream positions per staging claim ([`stage_run_len`]).
    run_len: u64,
    /// The fills being read from the origin, shared by the class
    /// prefetchers and the staging threads.
    filling: FillClaims,
    /// Where the origin lanes park the samples no worker caches; `None`
    /// when the placement covers the whole dataset (no lane runs).
    window: Option<OriginWindow>,
    /// Time the staging threads waited for origin bytes, and spent in
    /// `write_time`; the samples they waited on another thread's fill
    /// for (`worker.staging.*`).
    origin_wait_nanos: Counter,
    write_nanos: Counter,
    fill_waits: Counter,
    /// Rank-scoped observability context: the registry the collector
    /// and tier counters registered into, plus the tracer fetch/stall
    /// spans land in.
    obs: ObsCtx,
}

/// What phase 1 of a staging fetch settled for one sample.
enum Pick {
    /// The bytes are here: the look-ahead window had them, or the
    /// run's sweep of a local tier or a peer's reply has brought them.
    Served(Bytes),
    /// The sample is in the run's sweep of this local tier.
    Local(usize),
    /// The sample is in the run's frame to this peer.
    Peer(usize),
    /// The run's origin read supplies the bytes.
    Origin,
    /// Another thread holds the sample's fill claim ([`FillClaims`]):
    /// the run reads it from its tier once the fill has landed.
    Claimed,
}

/// A [`Pick`], and the class the self-healing fill stores the sample
/// in, when one applies.
type Probe = (Pick, Option<usize>);

/// How many samples of one staged run each source served, and how many
/// remote holders the progress heuristic passed over: booked per run.
#[derive(Default)]
struct RunSources {
    local: u64,
    remote: u64,
    pfs: u64,
    skips: u64,
}

impl RunSources {
    fn book(&self, stats: &StatsCollector) {
        stats.add_local(self.local);
        stats.add_remote(self.remote);
        stats.add_pfs(self.pfs);
        stats.add_heuristic_skips(self.skips);
    }
}

/// A staging thread's requester half of the peer protocol and the
/// counters it reports to (`worker.peer.frames`,
/// `worker.staging.peer_wait_nanos`), made by the thread on its first
/// remote pick: a worker that never asks a peer has neither.
struct PeerLeg {
    client: PeerClient,
    frames: Counter,
    wait_nanos: Counter,
}

impl PeerLeg {
    fn new(registry: &Registry) -> Self {
        Self {
            client: PeerClient::new(),
            frames: registry.counter(names::WORKER_PEER_FRAMES),
            wait_nanos: registry.counter(names::WORKER_STAGING_PEER_WAIT_NANOS),
        }
    }

    /// Sends the frames of the run's wanted samples — every one before
    /// the first reply is awaited — and sleeps until all are back.
    fn exchange(&mut self, endpoint: &Endpoint<Msg>) {
        let frames = self.client.post(endpoint);
        if frames > 0 {
            self.frames.add(frames);
            let waiting = Instant::now();
            self.client.collect();
            self.wait_nanos.add(waiting.elapsed().as_nanos() as u64);
        }
    }
}

/// Buffers a staging prefetcher reuses from claim to claim, so a run
/// allocates nothing once they have grown to the run length
/// ([`stage_run_len`]).
#[derive(Default)]
struct StageScratch {
    /// Each claimed sample's card, and the local tier holding it as
    /// the run starts.
    looked_up: Vec<(Card, Option<usize>)>,
    probes: Vec<Probe>,
    /// The claimed samples one local tier serves, in claim order.
    local_ids: Vec<SampleId>,
    peer: Option<PeerLeg>,
    /// The claimed samples the origin must supply, in claim order.
    origin_ids: Vec<SampleId>,
    /// The samples whose fill claim ([`FillClaims`]) the run holds.
    claimed: Vec<SampleId>,
    /// One class's self-healing fills, as `TierStack::fill_many` takes
    /// (and empties) them.
    fills: Vec<(SampleId, Bytes)>,
    /// The fetched run in stream order, as `ReorderStage::push_run`
    /// takes (and empties) it.
    run: Vec<(SampleId, Bytes)>,
}

impl WorkerCtx {
    /// Vectored staging fetch of the run of stream positions starting
    /// at `base`, every leg of it run-granular: per-sample source
    /// selection via [`Self::staging_probe`] from the samples' cards
    /// and **one** catalog pass ([`TierStack::locate_each`]) — or, for a sample no
    /// worker caches, a take from the origin look-ahead window —, then
    /// the samples picked from a local tier are read in **one**
    /// [`TierStack::read_tier_many`] sweep per tier, the samples picked
    /// from peers go out as **one** frame per owner, and every sample
    /// still without bytes is fetched in **one** batched
    /// [`origin_read_many_retry`] round-trip instead of one origin
    /// read (and one `t(γ)` reader registration) per sample. A sample
    /// that the run would read for its self-healing fill while another
    /// thread holds its fill claim is read from its tier once that
    /// fill has landed. The bytes land in `scratch.run` in input order;
    /// self-healing fills are one [`TierStack::fill_many`] per class,
    /// statistics and the trace span per run. Returns `false`
    /// when the window was closed under it (shutdown).
    fn fetch_many_for_staging(
        &self,
        base: u64,
        ks: &[SampleId],
        scratch: &mut StageScratch,
    ) -> bool {
        let StageScratch {
            looked_up,
            probes,
            local_ids,
            peer,
            origin_ids,
            claimed,
            fills,
            run,
        } = scratch;
        let t0 = self.obs.tracer.is_active().then(Instant::now);
        let mut sources = RunSources::default();
        // Phase 1: one tight pass looks every sample up (its card, and
        // its local tier in one catalog pass), so that their cache
        // misses overlap where the decision loop would take them one
        // at a time. Then a source per sample: read-ahead samples are
        // served immediately, the rest queued by source.
        let cards = &self.shared.cards[self.rank];
        looked_up.clear();
        let mut at = ks.iter();
        self.tiers.locate_each(ks, |tier| {
            let &k = at.next().expect("one tier per id");
            looked_up.push((*cards.card(k), tier));
        });
        probes.clear();
        for ((pos, &k), (card, local_tier)) in (base..).zip(ks).zip(looked_up.iter()) {
            let probe = match &self.window {
                // No holder anywhere: the origin is the only source.
                Some(window) if card.is_uncached() => match window.take(pos) {
                    Taken::Parked(data) => {
                        sources.pfs += 1;
                        (Pick::Served(data), None)
                    }
                    Taken::Unclaimed => (Pick::Origin, None),
                    Taken::Closed => {
                        sources.book(&self.stats);
                        return false;
                    }
                },
                _ => self.staging_probe(card, *local_tier, &mut sources.skips),
            };
            if let Pick::Peer(owner) = probe.0 {
                peer.get_or_insert_with(|| PeerLeg::new(&self.obs.registry))
                    .client
                    .want(owner, k);
            }
            probes.push(probe);
        }
        // Phase 2: the local samples, one sweep per tier that has any.
        for tier in 0..self.tiers.cache_tiers() {
            let picked = |pick: &Pick| matches!(pick, Pick::Local(t) if *t == tier);
            local_ids.clear();
            local_ids.extend(
                ks.iter()
                    .zip(probes.iter())
                    .filter(|(_, (pick, _))| picked(pick))
                    .map(|(&k, _)| k),
            );
            if local_ids.is_empty() {
                continue;
            }
            let mut picks = probes
                .iter_mut()
                .map(|(pick, _)| pick)
                .filter(|pick| picked(pick));
            let mut served = 0;
            self.tiers.read_tier_many(tier, local_ids, |r| {
                let pick = picks.next().expect("one result per id");
                *pick = match r {
                    Ok(data) => {
                        served += 1;
                        Pick::Served(data)
                    }
                    // Catalog raced an eviction (not expected under
                    // NoPFS's no-eviction placement, but recoverable):
                    // the sweep repaired the stale entry; the sample
                    // joins the origin's list.
                    Err(_) => Pick::Origin,
                };
            });
            sources.local += served;
        }
        // Phase 3: the peers' samples, one frame per owner; what a peer
        // did not have joins the origin's list, as does every other
        // origin pick whose fill no other thread has claimed.
        if let Some(peer) = peer {
            peer.exchange(&self.endpoint);
        }
        origin_ids.clear();
        claimed.clear();
        for (&k, (pick, fill)) in ks.iter().zip(probes.iter_mut()) {
            if let Pick::Peer(owner) = *pick {
                let peer = peer.as_mut().expect("a peer pick made the client");
                *pick = match peer.client.take(owner, k) {
                    Some(data) => {
                        sources.remote += 1;
                        Pick::Served(data)
                    }
                    None => {
                        // Heuristic false positive: the holder had not
                        // prefetched the sample yet (or the frame never
                        // reached it). Not an error.
                        self.stats.count_false_positive();
                        Pick::Origin
                    }
                };
            }
            if matches!(pick, Pick::Origin) {
                if fill.is_some() && !self.claim_fill(k) {
                    *pick = Pick::Claimed;
                } else {
                    if fill.is_some() {
                        claimed.push(k);
                    }
                    sources.pfs += 1;
                    origin_ids.push(k);
                }
            }
        }
        // Released on unwind too: a thread waiting on them then reads
        // them itself.
        let held = self.filling.held(claimed);
        // Phase 4: one vectored origin read for everything that needs it.
        let mut from_origin = if origin_ids.is_empty() {
            Vec::new()
        } else {
            let reading = Instant::now();
            let datas = origin_read_many_retry(&self.tiers, origin_ids, &self.stats);
            self.origin_wait_nanos
                .add(reading.elapsed().as_nanos() as u64);
            datas
        }
        .into_iter();
        // Phase 5: the origin's bytes join the run, then the
        // self-healing fills go out as one vectored fill per class. The
        // run's fill claims end once its fills have landed.
        for (pick, _) in probes.iter_mut() {
            if matches!(pick, Pick::Origin) {
                *pick = Pick::Served(from_origin.next().expect("every staged sample is fetched"));
            }
        }
        for class in 0..self.tiers.cache_tiers() {
            fills.extend(ks.iter().zip(probes.iter()).filter_map(
                |(&k, (pick, fill))| match pick {
                    Pick::Served(data) if *fill == Some(class) => Some((k, data.clone())),
                    _ => None,
                },
            ));
            if !fills.is_empty() {
                self.tiers.fill_many(class, fills, |_, _| {});
            }
        }
        drop(held);
        // Phase 6: the samples other threads were filling, now that
        // this run's claims are over.
        for (&k, (pick, _)) in ks.iter().zip(probes.drain(..)) {
            let data = match pick {
                Pick::Served(data) => data,
                Pick::Claimed => self.read_claimed(k, &mut sources),
                Pick::Local(_) | Pick::Peer(_) | Pick::Origin => {
                    unreachable!("phases 2–5 settled every other pick")
                }
            };
            run.push((k, data));
        }
        sources.book(&self.stats);
        if let Some(t0) = t0 {
            self.obs.tracer.complete(
                names::EV_FETCH,
                "worker",
                t0,
                vec![
                    ("base", base.into()),
                    ("local", sources.local.into()),
                    ("remote", sources.remote.into()),
                    ("pfs", sources.pfs.into()),
                ],
            );
        }
        true
    }

    /// Takes `k`'s fill claim ([`FillClaims`]): whether this thread is
    /// to read `k` from the origin and fill it — no other thread is
    /// reading it for its fill, and no fill has landed since the
    /// caller found it uncached.
    fn claim_fill(&self, k: SampleId) -> bool {
        if !self.filling.claim(k) {
            return false;
        }
        if self.tiers.locate(k).is_some() {
            self.filling.release(k);
            return false;
        }
        true
    }

    /// A sample another thread held the fill claim of: from its tier
    /// once the claim is over — or, when that fill did not land (or
    /// the worker is stopping), from the origin.
    fn read_claimed(&self, k: SampleId, sources: &mut RunSources) -> Bytes {
        self.fill_waits.inc();
        let waiting = Instant::now();
        self.filling.wait(k, &self.stop);
        self.origin_wait_nanos
            .add(waiting.elapsed().as_nanos() as u64);
        if let Some(data) = self.tiers.get_cached(k) {
            sources.local += 1;
            return data;
        }
        sources.pfs += 1;
        origin_read_retry(&self.tiers, k, &self.stats)
    }

    /// Phase 1 of a staging fetch: the source decision for the sample
    /// of `card`, found in `local_tier` as the run started, and nothing
    /// but the decision. Each pick is counted once it is settled: a
    /// local one when its tier's sweep is done, a peer one when its
    /// frame is back, an origin one when it joins the run's origin
    /// read; the run books the counts, and the holders the heuristic
    /// passed over (`skips`), once. The class is where the
    /// self-healing fill stores the sample: the one the plan assigns
    /// it to, when it was not cataloged locally as the fetch started.
    fn staging_probe(&self, card: &Card, local_tier: Option<usize>, skips: &mut u64) -> Probe {
        let sys = &self.shared.config.system;
        // Remote candidates pass the progress heuristic: our own class-c
        // prefetcher's position is the proxy for the holder's (paper
        // Sec. 5.2.2 — load-balanced prefetching advances in lockstep).
        // The card lists the holders fastest class first, so the first
        // one to pass is the pick.
        let mut best_remote: Option<&Holder> = None;
        for holder in self.shared.cards[self.rank].holders(card) {
            let my_progress = self
                .progress
                .get(usize::from(holder.class))
                .map_or(0, |p| p.load(Ordering::Relaxed));
            if u64::from(holder.index) < my_progress {
                best_remote = best_remote.or(Some(holder));
            } else {
                *skips += 1;
            }
        }

        // Live PFS contention: the readers already in flight plus us.
        // The pick itself is the workspace-wide NoPFS selection rule —
        // the ordered-tier-list argmin (`select_source_tiered`) that
        // the simulator's NoPFS policy also funnels into, reached via
        // the degraded {local tier, remote tier, origin} wrapper: when
        // the origin's circuit breaker is open (health `Unavailable`),
        // the fetch steers to peers or local tiers instead of queueing
        // on a source that will fail fast anyway.
        let gamma = self.pfs.reader_count() + 1;
        let origin_ok = self.tiers.origin_health() != SourceHealth::Unavailable;
        let choice = nopfs_policy::decision::select_source_degraded(
            sys,
            local_tier.map(|t| t as u8),
            best_remote.map(|h| h.class),
            card.size,
            gamma,
            origin_ok,
        );

        let pick = match choice {
            Location::Local(c) => Pick::Local(usize::from(c)),
            Location::Remote(_) => {
                let holder = best_remote.expect("remote choice implies a holder");
                Pick::Peer(usize::from(holder.owner))
            }
            Location::Pfs => Pick::Origin,
            Location::Staging => unreachable!("staging is never a fetch candidate"),
        };
        let fill = match local_tier {
            None => card.fill_class(),
            Some(_) => None,
        };
        (pick, fill)
    }

    /// One origin lane: claims the stream positions whose sample no
    /// worker caches, in order and ahead of the staging threads, and
    /// parks each one's bytes in the window — until the stream ends or
    /// the window closes. The stream is scanned as the lanes advance,
    /// never up front.
    fn run_lane(&self, stream: &[SampleId]) {
        let Some(window) = &self.window else {
            return;
        };
        let cards = &self.shared.cards[self.rank];
        let next_uncached = |from: u64| {
            let from = usize::try_from(from).ok()?;
            let ahead = stream.get(from..)?;
            let i = ahead.iter().position(|&k| cards.card(k).is_uncached())?;
            Some(((from + i) as u64, cards.card(ahead[i]).size))
        };
        while let Some(pos) = window.claim(next_uncached) {
            let data = origin_read_retry(&self.tiers, stream[pos as usize], &self.stats);
            window.deliver(pos, data);
        }
    }

    /// One staging prefetcher: claims a run of stream positions per
    /// round from the counter it shares with its siblings, fetches the
    /// run through the vectored staging path, pays its `write_time`
    /// and stages it as one run. The stage admits a run in ascending
    /// order, which keeps it deadlock-free: the thread holding the
    /// globally next position offers it first, and the stage always
    /// admits the head position.
    fn run_staging(&self, stream: &[SampleId], position: &AtomicU64) {
        let config = &self.shared.config;
        let mut scratch = StageScratch::default();
        while !self.stop.load(Ordering::Relaxed) {
            let base = position.fetch_add(self.run_len, Ordering::SeqCst);
            if base >= stream.len() as u64 {
                break;
            }
            let end = (base + self.run_len).min(stream.len() as u64);
            if !self.fetch_many_for_staging(
                base,
                &stream[base as usize..end as usize],
                &mut scratch,
            ) {
                break; // window closed
            }
            // Preprocess-and-store: the model's write_i(k), linear in
            // the bytes, so the run pays it as one wait (one sleep, not
            // one per sample). Each of the p0 threads pays it
            // independently, so the aggregate preprocessing rate
            // scales with the thread count, as in the performance
            // model.
            let bytes: u64 = scratch.run.iter().map(|(_, d)| d.len() as u64).sum();
            let wait = config.scale.to_wall(config.system.write_time(bytes));
            if !wait.is_zero() {
                let writing = Instant::now();
                precise_wait(wait);
                self.write_nanos.add(writing.elapsed().as_nanos() as u64);
            }
            if !self.stage.push_run(base, &mut scratch.run) {
                break; // stage closed
            }
        }
    }
}

/// The per-worker loader handle: the paper's `get`/iterator interface.
///
/// Yields `(sample id, bytes)` in exactly the clairvoyant access-stream
/// order. Created by [`crate::job::Job::launch_workers`], and by
/// [`crate::job::Job::run_with`] once per segment of its fault plan.
pub struct WorkerHandle {
    ctx: Arc<WorkerCtx>,
    threads: Vec<JoinHandle<()>>,
    server: Option<JoinHandle<()>>,
    /// The window of the rank's planned stream this handle yields, and
    /// the position of its next sample.
    window: Range<u64>,
    pos: u64,
    /// The digest this rank claimed in the setup allgather: its
    /// window's.
    digest: u64,
    epoch_len: u64,
    batch_size: usize,
    finished: bool,
}

impl WorkerHandle {
    /// Launches rank `rank`'s threads on `window`, a range of positions
    /// of its planned stream `shared.streams[rank]`, over `tiers` — a
    /// fresh stack, or a survivor's still-warm one. `digests[w]` is the
    /// digest of rank `w`'s window. Returns once the setup allgather
    /// has passed on every rank.
    pub(crate) fn launch(
        rank: usize,
        shared: Arc<Shared>,
        window: Range<u64>,
        digests: &[u64],
        pfs: Pfs,
        endpoint: Endpoint<Msg>,
        tiers: TierStack,
    ) -> Self {
        let endpoint = Arc::new(endpoint);
        let sys = &shared.config.system;

        // Setup allgather: exchange window digests and verify every
        // rank's claim against the planned ones — no stream is
        // re-derived here (the old per-rank recomputation made setup
        // O(N²·E·F) across the cluster).
        let digest = digests[rank];
        let claims = endpoint
            .allgather(Msg::Digest(digest))
            .expect("setup allgather failed");
        for (o, msg) in claims.iter().enumerate() {
            let Msg::Digest(d) = msg else {
                panic!("unexpected setup message from rank {o}");
            };
            assert_eq!(
                *d, digests[o],
                "worker {o}'s access stream diverged from the seed — clairvoyance broken"
            );
        }
        // The allgather requires exclusive use of the endpoints: a rank
        // that finished early could otherwise start its prefetchers and
        // inject sample requests into a peer still collecting digests.
        endpoint.barrier();

        // Rank-scoped observability: every metric this worker registers
        // (collector, tier counters) carries a `rank=<r>` label; trace
        // spans share the job-wide tracer.
        let obs = shared.config.obs.scoped([("rank", rank.to_string())]);
        obs.registry.counter(names::WORKER_LAUNCHES).inc();

        let stats = Arc::new(StatsCollector::in_registry(&obs.registry));
        let stop = Arc::new(AtomicBool::new(false));
        let progress = Arc::new(
            (0..sys.classes.len())
                .map(|_| AtomicU64::new(0))
                .collect::<Vec<_>>(),
        );
        let stage = ReorderStage::new_in_registry(sys.staging.capacity, &obs.registry);
        // Origin look-ahead, sized by the performance model from the
        // plan alone: as many lanes as keep the never-cached share of
        // the stream arriving at the compute rate, a window of the
        // staging buffer's size. A plan that covers the dataset has no
        // lane and no window.
        let lanes = sys.origin_lanes(shared.placement.uncached_share());
        let origin_wait_nanos = obs
            .registry
            .counter(names::WORKER_STAGING_ORIGIN_WAIT_NANOS);
        let origin_window = (lanes > 0).then(|| {
            OriginWindow::new(
                sys.staging.capacity,
                &obs.registry,
                origin_wait_nanos.clone(),
            )
        });
        let write_nanos = obs.registry.counter(names::WORKER_STAGING_WRITE_NANOS);
        let fill_waits = obs.registry.counter(names::WORKER_STAGING_FILL_WAITS);
        let stream = Arc::clone(&shared.streams[rank]);
        let (start, end) = (window.start as usize, window.end as usize);
        let epoch_len = shared.spec.worker_epoch_len(rank);

        let ctx = Arc::new(WorkerCtx {
            rank,
            shared: Arc::clone(&shared),
            pfs,
            endpoint,
            tiers,
            stats,
            stop,
            progress,
            stage,
            run_len: stage_run_len(sys, &shared.sizes, epoch_len),
            filling: FillClaims::new(shared.sizes.len()),
            window: origin_window,
            origin_wait_nanos,
            write_nanos,
            fill_waits,
            obs,
        });

        let mut threads = Vec::new();

        // Class prefetchers: one thread per cache tier, draining the
        // assignment in first-access order. Fills go down to the origin
        // in vectored chunks, each one origin read (one reader and one
        // `t(γ)` charge, adjacent ids coalesced) and one fill (one
        // write charge), with buffers kept from chunk to chunk;
        // progress advances per completed chunk
        // (conservative: the remote heuristic only sees finished work —
        // a sample whose fill a staging thread has claimed counts once
        // that fill is over). Its list drained, a prefetcher thread
        // turns into an origin lane instead of exiting: the lanes cost
        // the launch no spawn.
        let cache_tiers = ctx.tiers.cache_tiers();
        for class in 0..cache_tiers {
            let ctx = Arc::clone(&ctx);
            let stream = Arc::clone(&stream);
            threads.push(std::thread::spawn(move || {
                let assignment = ctx.shared.placement.assignment(ctx.rank);
                let order = assignment.prefetch_order(class);
                let mut done = 0u64;
                let mut missing = Vec::with_capacity(FILL_BATCH);
                let mut items = Vec::with_capacity(FILL_BATCH);
                for chunk in order.chunks(FILL_BATCH) {
                    if ctx.stop.load(Ordering::Relaxed) {
                        break;
                    }
                    missing.clear();
                    missing.extend(
                        chunk
                            .iter()
                            .copied()
                            .filter(|&k| ctx.tiers.locate(k).is_none() && ctx.claim_fill(k)),
                    );
                    if !missing.is_empty() {
                        // Released on unwind too: a staging thread
                        // waiting on them then reads them itself.
                        let _held = ctx.filling.held(&missing);
                        let datas = origin_read_many_retry(&ctx.tiers, &missing, &ctx.stats);
                        items.extend(missing.iter().copied().zip(datas));
                        ctx.tiers.fill_many(class, &mut items, |_, _| {});
                    }
                    for &k in chunk {
                        ctx.filling.wait(k, &ctx.stop);
                    }
                    done += chunk.len() as u64;
                    ctx.progress[class].store(done, Ordering::Release);
                }
                if class < lanes {
                    ctx.run_lane(&stream[start..end]);
                }
            }));
        }

        // Staging prefetchers: p0 threads walking the stream run by run
        // off one shared position counter. The first also starts, off
        // the launch path, the lanes the model wants beyond one per
        // prefetcher thread.
        let position = Arc::new(AtomicU64::new(0));
        let mut extra_lanes = lanes.saturating_sub(cache_tiers);
        for _ in 0..sys.staging.threads.max(1) {
            let ctx = Arc::clone(&ctx);
            let stream = Arc::clone(&stream);
            let position = Arc::clone(&position);
            let spawn_lanes = std::mem::take(&mut extra_lanes);
            threads.push(std::thread::spawn(move || {
                std::thread::scope(|s| {
                    for _ in 0..spawn_lanes {
                        s.spawn(|| ctx.run_lane(&stream[start..end]));
                    }
                    ctx.run_staging(&stream[start..end], &position);
                });
            }));
        }

        // Serving loop: answer peers' fetch frames until shutdown.
        let server = {
            let ctx = Arc::clone(&ctx);
            std::thread::spawn(move || crate::peer::serve(&ctx.endpoint, &ctx.tiers))
        };

        Self {
            pos: window.start,
            window,
            digest,
            ctx,
            threads,
            server: Some(server),
            epoch_len,
            batch_size: shared.config.batch_size,
            finished: false,
        }
    }

    /// This worker's rank.
    pub fn rank(&self) -> usize {
        self.ctx.rank
    }

    /// Total samples this handle will yield: its window's length — the
    /// whole run for a fault-free launch, a segment's for one of a
    /// fault plan's.
    pub fn len(&self) -> u64 {
        self.window.end - self.window.start
    }

    /// Whether the run yields no samples (degenerate configurations).
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// The digest of this handle's window, as the rank claimed it in
    /// the setup allgather: over a whole stream, the setup pass's
    /// [`stream_digest`](nopfs_clairvoyance::engine::stream_digest).
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Samples this worker consumes per epoch.
    pub fn epoch_len(&self) -> u64 {
        self.epoch_len
    }

    /// The epoch of the *next* sample to be yielded, counted over the
    /// whole run (an elastic segment that starts mid-epoch included).
    pub fn current_epoch(&self) -> u64 {
        self.pos.checked_div(self.epoch_len).unwrap_or(0)
    }

    /// Opens one consumer wait on the staging buffer: marks an epoch
    /// start in the trace and starts the stall clock.
    fn begin_pop(&self) -> Instant {
        if self.epoch_len > 0 && self.pos.is_multiple_of(self.epoch_len) {
            self.ctx.obs.tracer.instant(
                names::EV_EPOCH,
                "worker",
                vec![
                    ("epoch", self.current_epoch().into()),
                    ("rank", self.ctx.rank.into()),
                ],
            );
        }
        Instant::now()
    }

    /// Closes the wait opened at `t0` that delivered `got` samples:
    /// the blocked time is recorded as consumer stall, once per wait.
    fn end_pop(&mut self, t0: Instant, got: usize) {
        if got == 0 {
            return; // stage closed under us: nothing was delivered
        }
        let stalled = t0.elapsed();
        if self.ctx.obs.tracer.is_active() && stalled > std::time::Duration::from_micros(50) {
            // Only material stalls become spans; sub-50µs pops are the
            // healthy case and would drown the ring.
            self.ctx.obs.tracer.complete(
                names::EV_STALL,
                "worker",
                t0,
                vec![("stall_us", (stalled.as_micros() as u64).into())],
            );
        }
        self.ctx.stats.add_stall(stalled);
        self.ctx.stats.add_consumed(got as u64);
        self.pos += got as u64;
    }

    /// Next sample in access-stream order, blocking on the staging
    /// buffer; `None` once the run is exhausted. Blocked time is
    /// recorded as consumer stall.
    pub fn next_sample(&mut self) -> Option<(SampleId, Bytes)> {
        if self.pos >= self.window.end {
            return None;
        }
        let t0 = self.begin_pop();
        let item = self.ctx.stage.pop();
        self.end_pop(t0, usize::from(item.is_some()));
        item
    }

    /// The configured per-worker mini-batch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Next local mini-batch (up to `batch_size` samples, never
    /// crossing an epoch boundary); `None` once exhausted. Epoch
    /// semantics come from the workspace-shared
    /// [`crate::next_batch_len`]. The batch is one wait on the staging
    /// buffer: its blocked time is one consumer stall.
    pub fn next_batch(&mut self) -> Option<Vec<(SampleId, Bytes)>> {
        let want =
            crate::next_batch_len(self.pos, self.window.end, self.epoch_len, self.batch_size);
        if want == 0 {
            return None;
        }
        let mut batch = Vec::with_capacity(want);
        let t0 = self.begin_pop();
        let got = self.ctx.stage.pop_many(want, &mut batch);
        self.end_pop(t0, got);
        if batch.is_empty() {
            None
        } else {
            Some(batch)
        }
    }

    /// Current I/O statistics snapshot.
    pub fn stats(&self) -> WorkerStats {
        self.ctx.stats.snapshot()
    }

    /// Per-tier hierarchy statistics, fastest tier first (the PFS
    /// origin last): hit/miss/byte counters from this worker's
    /// [`TierStack`].
    pub fn tier_stats(&self) -> Vec<TierStats> {
        self.ctx.tiers.all_stats()
    }

    /// Whether the class prefetchers are through with their fill lists:
    /// each has walked its whole list, or its thread has ended (told
    /// to stop, or panicked — [`Self::shutdown`] surfaces that). From
    /// then on this rank's caches are as warm as the plan makes them.
    pub fn prefetch_done(&self) -> bool {
        let assignment = self.ctx.shared.placement.assignment(self.ctx.rank);
        let prefetchers = self.threads.iter().take(self.ctx.tiers.cache_tiers());
        prefetchers.enumerate().all(|(class, thread)| {
            let walked = self.ctx.progress[class].load(Ordering::Acquire);
            thread.is_finished() || walked >= assignment.prefetch_order(class).len() as u64
        })
    }

    /// Synchronizes all workers (bulk-synchronous step boundary).
    pub fn barrier(&self) {
        self.ctx.endpoint.barrier();
    }

    /// Stops prefetchers, waits for the whole cluster to finish, and
    /// shuts down the serving loop. Idempotent.
    ///
    /// Called automatically by [`crate::job::Job::run_with`]. Handles
    /// obtained via [`crate::job::Job::launch_workers`] must be shut
    /// down **concurrently** (one thread per handle): the internal
    /// cluster barrier means a sequential shutdown of multiple ranks
    /// would deadlock.
    pub fn shutdown(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.ctx.stop.store(true, Ordering::SeqCst);
        self.ctx.stage.close();
        if let Some(window) = &self.ctx.window {
            window.close();
        }
        for t in self.threads.drain(..) {
            t.join().expect("worker thread panicked");
        }
        // All our outbound requests are done; wait for everyone else
        // before killing the serving loop they may still depend on.
        self.ctx.endpoint.barrier();
        let _ = self.ctx.endpoint.send(self.ctx.rank, Msg::Shutdown);
        if let Some(s) = self.server.take() {
            s.join().expect("server thread panicked");
        }
    }
}

impl Iterator for WorkerHandle {
    type Item = (SampleId, Bytes);

    fn next(&mut self) -> Option<Self::Item> {
        self.next_sample()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nopfs_perfmodel::presets::fig8_small_cluster;

    fn staging(capacity: u64, threads: u32) -> SystemSpec {
        let mut sys = fig8_small_cluster();
        sys.staging.capacity = capacity;
        sys.staging.threads = threads;
        sys
    }

    #[test]
    fn a_run_is_an_eighth_of_the_stage_per_thread() {
        const MIB: u64 = 1 << 20;
        // The benchmark's four workloads, one staging thread each, with
        // their per-rank epochs.
        for (capacity, size, epoch, run) in [
            (4 * MIB, 4_096, 131_072, 128),
            (16 * MIB, 64 << 10, 4_096, 32),
            (8 * MIB, 16 << 10, 32_768, 64),
            (1_000_000, 20_000, 2_000, 6),
        ] {
            assert_eq!(
                stage_run_len(&staging(capacity, 1), &[size; 100], epoch),
                run
            );
        }
        // The threads share the eighth; the mean is rounded up.
        assert_eq!(stage_run_len(&staging(64_000, 2), &[1_000; 10], 100), 4);
        assert_eq!(stage_run_len(&staging(64_000, 1), &[999, 1_002], 100), 7);
    }

    #[test]
    fn every_staging_thread_has_work_in_every_epoch() {
        // The preset's own stage (5 GB, eight threads) would make runs
        // of 781 samples of 100 KB: more than a 1 000-sample epoch
        // holds for all eight threads, so it is split between them.
        let sys = fig8_small_cluster();
        assert_eq!(stage_run_len(&sys, &[100_000; 1_000], u64::MAX), 781);
        assert_eq!(stage_run_len(&sys, &[100_000; 1_000], 1_000), 125);
        // Four ranks: an epoch of 250 samples each.
        assert_eq!(stage_run_len(&sys, &[100_000; 1_000], 250), 32);
        // Fewer positions in an epoch than threads: runs of one.
        assert_eq!(stage_run_len(&sys, &[100_000; 1_000], 5), 1);
    }

    #[test]
    fn a_run_is_at_least_one_position() {
        // Empty dataset, zero-byte samples, no threads, no capacity, an
        // empty epoch, a stage below one sample, sizes whose sum
        // overflows a u64.
        let all = u64::MAX;
        assert_eq!(stage_run_len(&staging(0, 1), &[], all), 1);
        assert_eq!(stage_run_len(&staging(800, 0), &[], all), 100);
        assert_eq!(stage_run_len(&staging(800, 1), &[0; 4], all), 100);
        assert_eq!(stage_run_len(&staging(800, 1), &[0; 4], 0), 1);
        assert_eq!(stage_run_len(&staging(0, 1), &[0; 4], all), 1);
        assert_eq!(stage_run_len(&staging(999, 1), &[1_000; 4], all), 1);
        assert_eq!(stage_run_len(&staging(7_999, 1), &[1_000; 4], all), 1);
        assert_eq!(
            stage_run_len(&staging(u64::MAX, u32::MAX), &[u64::MAX; 3], all),
            1
        );
        assert_eq!(
            stage_run_len(&staging(u64::MAX, 1), &[1; 3], all),
            u64::MAX / 8
        );
    }

    /// Every rank's card for every sample agrees with the tables it is
    /// laid out from: the size, the rank's class, whether any rank
    /// caches the sample, and each other holder with its class and the
    /// sample's position in that holder's prefetch list, fastest class
    /// first. On the preset's own capacities every rank of four holds
    /// every sample, three remote holders each: past the inline slots.
    #[test]
    fn plan_cards_agree_with_the_placement() {
        use crate::card::INLINE;
        use nopfs_clairvoyance::engine::SetupPass;
        use nopfs_util::timing::TimeScale;

        assert_eq!(std::mem::size_of::<Card>(), 24);
        let sizes: Arc<Vec<u64>> = Arc::new((0..600u64).map(|k| 500 + k * 37 % 1_000).collect());
        let total: u64 = sizes.iter().sum();
        for (workers, tight) in [(1, true), (2, true), (4, true), (4, false)] {
            let mut sys = fig8_small_cluster();
            sys.workers = workers;
            if tight {
                sys.classes[0].capacity = total / 4;
                sys.classes[1].capacity = total / 5;
            }
            let config = JobConfig::new(11, 3, 4, sys, TimeScale::new(1e-6));
            let arts = SetupPass::new(config.shuffle_spec(sizes.len() as u64), 3).run();
            let shared = Shared::plan(config, Arc::clone(&sizes), &arts);
            let placement = &shared.placement;
            let mut spilled = 0;
            for w in 0..workers {
                let cards = &shared.cards[w];
                for k in 0..sizes.len() as u64 {
                    let card = cards.card(k);
                    let at = format!("{workers} ranks, rank {w}, sample {k}");
                    assert_eq!(card.size, sizes[k as usize], "{at}");
                    let class = placement.assignment(w).class_of(k);
                    assert_eq!(card.fill_class(), class.map(usize::from), "{at}");
                    assert_eq!(card.is_uncached(), placement.is_uncached(k), "{at}");
                    let mut expected: Vec<Holder> = placement
                        .holders(k)
                        .iter()
                        .filter(|&&(o, _)| o != w)
                        .map(|&(o, class)| {
                            let list = placement.assignment(o).prefetch_order(usize::from(class));
                            let index = list.iter().position(|&x| x == k).expect("listed");
                            Holder {
                                index: index as u32,
                                owner: o as u16,
                                class,
                            }
                        })
                        .collect();
                    expected.sort_by_key(|h| (h.class, h.owner));
                    let got: Vec<Holder> = cards.holders(card).copied().collect();
                    assert_eq!(got, expected, "{at}");
                    spilled += usize::from(got.len() > INLINE);
                }
            }
            if !tight {
                assert_eq!(spilled, 4 * sizes.len(), "every card spills");
            }
        }
    }

    /// A fault-free launch, through `launch_workers` and through
    /// `run_with`'s one segment, runs every rank on the plan's own
    /// stream allocation — its whole length, not a copy — and claims
    /// the setup pass's digest for it in the allgather.
    #[test]
    fn a_fault_free_launch_runs_on_the_planned_streams_themselves() {
        use crate::job::{run_ranks, Job};
        use nopfs_clairvoyance::engine::stream_digest;
        use nopfs_policy::FaultPlan;
        use nopfs_util::timing::TimeScale;

        let mut sys = fig8_small_cluster();
        sys.staging.capacity = 64 * 1_000;
        sys.staging.threads = 2;
        let sizes = Arc::new(vec![1_000u64; 80]);
        let config = JobConfig::new(0xEC, 3, 4, sys, TimeScale::new(1e-6));
        let spec = config.shuffle_spec(80);
        let job = Job::with_plan(config, sizes, FaultPlan::fault_free()).expect("valid plan");
        let pfs = job.make_pfs();
        for id in 0..80u64 {
            pfs.put(id, Bytes::from(vec![id as u8; 1_000]));
        }
        let planned = &job.shared;
        let check = |h: &mut WorkerHandle| {
            let rank = h.rank();
            let stream = &h.ctx.shared.streams[rank];
            assert!(
                Arc::ptr_eq(stream, &planned.streams[rank]),
                "rank {rank} runs on a copy of its stream"
            );
            assert_eq!(h.len(), stream.len() as u64);
            assert_eq!(h.digest(), planned.digests[rank], "rank {rank}");
            assert_eq!(h.digest(), stream_digest(&spec, rank, 3), "rank {rank}");
            h.by_ref().count() as u64
        };
        let consumed: u64 = run_ranks(job.launch_workers(&pfs), check).iter().sum();
        assert_eq!(consumed, 3 * 80);
        let report = job.run_with(&pfs, |_| {
            |h: &mut WorkerHandle| {
                check(h);
            }
        });
        assert_eq!(report.stats.samples_consumed, 3 * 80);
    }

    #[test]
    fn what_the_threads_hold_outside_the_stage_is_at_most_an_eighth_of_it() {
        let mut rng = nopfs_util::rng::Xoshiro256pp::seed_from_u64(28);
        for _ in 0..2_000 {
            let threads = 1 + (rng.next_u64() % 8) as u32;
            let capacity = rng.next_u64() % (1 << 24);
            let n = 1 + rng.next_u64() % 64;
            let epoch = rng.next_u64() % 512;
            let sizes: Vec<u64> = (0..n).map(|_| rng.next_u64() % 70_000).collect();
            let run = stage_run_len(&staging(capacity, threads), &sizes, epoch);
            assert!(run >= 1);
            if run > 1 {
                // threads · run · mean ≤ capacity / 8, without rounding.
                let total: u128 = sizes.iter().map(|&s| u128::from(s)).sum();
                let held = 8 * u128::from(threads) * u128::from(run) * total;
                assert!(
                    held <= u128::from(capacity) * u128::from(n),
                    "run {run}, {threads} threads, capacity {capacity}, sizes {sizes:?}"
                );
                // An epoch has room for a run per thread.
                assert!(
                    u64::from(threads) * (run - 1) < epoch,
                    "run {run}, {threads} threads, epoch {epoch}"
                );
            }
        }
    }
}
