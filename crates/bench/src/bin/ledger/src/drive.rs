//! Driving the loader: a closed loop with one consumer thread per rank,
//! each calling `DataLoader::next_batch` as soon as it has consumed the
//! previous batch.
//!
//! Inside a timed region the benchmark runs only those consumer
//! threads; everything else that is busy — staging, class prefetchers,
//! the serving loop — belongs to the loader, the program under test.

use crate::fixture::Fixture;
use crate::oracle::{Oracle, Verdict, DEEP_EVERY};
use crate::probes::{Cost, Reading};
use crate::spans::{Lane, SpanId, Trace};
use nopfs_baselines::{registry, DataLoader, LoaderSet};
use nopfs_core::{JobConfig, WorkerStats};
use nopfs_net::{cluster, Endpoint, NetConfig};
use nopfs_obs::ObsCtx;
use nopfs_policy::PolicyId;
use nopfs_train::TrainLoopConfig;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// How long the consumer sleeps after each batch of a paused epoch
/// (see `Workload::paused`). With the timer's slack a batch then takes
/// about 170 µs, two to three times what the staging thread needs to
/// fetch one, so the reorder stage stays full whatever the host does.
const CONSUMER_PAUSE: Duration = Duration::from_micros(50);

/// One fresh job: `build_loaders`, every epoch consumed, shutdown.
pub struct Round<'a> {
    pub fixture: &'a Fixture,
    pub policy: PolicyId,
    /// Loader-side observability (the traced pass hands the job a
    /// tracing context; `None` keeps the job's default).
    pub obs: Option<ObsCtx>,
    /// Whether payloads carry the dataset's header (`Perfect` hands out
    /// random bytes of the right length).
    pub check_payload: bool,
}

/// Where a traced round records its spans.
pub struct TraceInto<'a> {
    pub trace: &'a mut Trace,
    pub parent: SpanId,
}

/// What one rank's consumer measured.
struct RankResult {
    epoch_walls: Vec<f64>,
    verdict: Verdict,
    /// Wall time of each `next_batch` call in the timed region, ns
    /// (traced rounds only).
    call_ns: Vec<f64>,
    /// Loader statistics at the timed region's edges.
    stats: (WorkerStats, WorkerStats),
    /// Consumer wall time inside the timed region.
    region_wall: Duration,
    lane: Option<Lane>,
}

/// What one round measured.
pub struct RoundResult {
    /// Wall time of the `build_loaders` call.
    pub setup_s: f64,
    /// Bulk-synchronous wall time of every epoch (max over ranks).
    pub epoch_walls: Vec<f64>,
    /// Process cost of the timed region.
    pub cost: Cost,
    /// Process cost of the paused epochs, where the workload has any.
    pub paused_cost: Option<Cost>,
    pub verdict: Verdict,
    /// Loader statistics over the timed region, summed over ranks.
    pub fetches: Fetches,
    pub call_ns: Vec<f64>,
}

/// Where the timed region's staging fetches were served from.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fetches {
    pub local: u64,
    pub remote: u64,
    pub pfs: u64,
    pub false_positives: u64,
    pub stall_s: f64,
    pub consumer_wall_s: f64,
}

impl Fetches {
    fn add_rank(&mut self, from: &WorkerStats, to: &WorkerStats, wall: Duration) {
        self.local += to.local_fetches - from.local_fetches;
        self.remote += to.remote_fetches - from.remote_fetches;
        self.pfs += to.pfs_fetches - from.pfs_fetches;
        self.false_positives += to.false_positives - from.false_positives;
        self.stall_s += (to.stall_time - from.stall_time).as_secs_f64();
        self.consumer_wall_s += wall.as_secs_f64();
    }

    pub fn add(&mut self, other: &Fetches) {
        self.local += other.local;
        self.remote += other.remote;
        self.pfs += other.pfs;
        self.false_positives += other.false_positives;
        self.stall_s += other.stall_s;
        self.consumer_wall_s += other.consumer_wall_s;
    }

    pub fn total(&self) -> u64 {
        self.local + self.remote + self.pfs
    }
}

impl<'a> Round<'a> {
    /// The round every workload is measured with: the NoPFS loader,
    /// every payload verified.
    pub fn nopfs(fixture: &'a Fixture) -> Self {
        Round {
            fixture,
            policy: PolicyId::NoPfs,
            obs: None,
            check_payload: true,
        }
    }

    /// The call whose wall time is `setup_s`.
    fn build(&self, config: JobConfig) -> (LoaderSet, f64) {
        let t0 = Instant::now();
        let loaders = registry::build_loaders(
            self.policy,
            config,
            self.fixture.sizes.clone(),
            &self.fixture.pfs,
        )
        .expect("the workloads are sized so that their policy supports them");
        (loaders, t0.elapsed().as_secs_f64())
    }

    /// Sets a job up and shuts it down again without consuming from it:
    /// one more sample of `setup_s`.
    pub fn setup_only(&self) -> f64 {
        let (loaders, setup_s) = self.build(self.fixture.job_config(self.obs.clone()));
        drop(loaders);
        setup_s
    }

    /// Runs the round. A rank whose consumer panics is counted — its
    /// whole stream fails — and reported on stderr, never swallowed.
    pub fn run(&self, mut trace: Option<TraceInto<'_>>) -> RoundResult {
        let w = &self.fixture.workload;
        let config = self.fixture.job_config(self.obs.clone());
        let loop_cfg = TrainLoopConfig {
            compute_rate: config.system.compute,
            scale: config.scale,
            grad_elems: w.grad_elems,
        };
        let mut grad_endpoints: Vec<Option<Endpoint<Vec<f32>>>> = if w.grad_elems > 0 {
            cluster(
                w.ranks,
                NetConfig::new(config.system.interconnect, config.scale),
            )
            .into_iter()
            .map(Some)
            .collect()
        } else {
            (0..w.ranks).map(|_| None).collect()
        };

        let t0 = Instant::now();
        let (mut loaders, setup_s) = self.build(config);
        if let Some(t) = trace.as_mut() {
            let mut main = t.trace.lane(0);
            main.record("core.build_loaders", Some(t.parent), t0);
            t.trace.merge(main);
        }

        let sync = Barrier::new(w.ranks);
        let edges = std::sync::Mutex::new([None; 3]);
        let mut lanes: Vec<Option<Lane>> = (0..w.ranks)
            .map(|rank| trace.as_mut().map(|t| t.trace.lane(1 + rank as u32)))
            .collect();
        let parent = trace.as_ref().map(|t| t.parent);

        let ranks: Vec<Result<RankResult, u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = loaders
                .iter_mut()
                .zip(grad_endpoints.iter_mut().zip(lanes.iter_mut()))
                .map(|(loader, (endpoint, lane))| {
                    let mut oracle = Oracle::new(self.fixture, loader.rank());
                    if lane.is_some() {
                        oracle = oracle.deep_every(DEEP_EVERY);
                    }
                    if !self.check_payload {
                        oracle = oracle.lengths_only();
                    }
                    let expected = oracle.expected_len();
                    let consumer = Consumer {
                        loader,
                        oracle,
                        loop_cfg,
                        endpoint: endpoint.take(),
                        epochs: w.epochs,
                        timed: w.timed.clone(),
                        paused: w.paused.clone(),
                        sync: &sync,
                        edges: &edges,
                        lane: lane.take(),
                        parent,
                    };
                    (expected, s.spawn(move || consumer.run()))
                })
                .collect();
            handles
                .into_iter()
                .map(|(expected, h)| h.join().map_err(|_| expected))
                .collect()
        });
        // Shut the loaders down (concurrently, as peer-coupled loaders
        // require) before anything else is measured.
        drop(loaders);

        let [start, end, paused_end] = *edges
            .lock()
            .expect("no consumer panics holding the edges lock");
        let between = |from: Option<Reading>, to: Option<Reading>| Some(from?.until(&to?));
        let mut result = RoundResult {
            setup_s,
            epoch_walls: vec![0.0; w.epochs as usize],
            cost: between(start, end).unwrap_or_default(),
            paused_cost: between(end, paused_end),
            verdict: Verdict::default(),
            fetches: Fetches::default(),
            call_ns: Vec::new(),
        };
        for (rank, outcome) in ranks.into_iter().enumerate() {
            match outcome {
                Ok(r) => {
                    for (bulk, wall) in result.epoch_walls.iter_mut().zip(&r.epoch_walls) {
                        *bulk = bulk.max(*wall);
                    }
                    result.verdict.add(&r.verdict);
                    result
                        .fetches
                        .add_rank(&r.stats.0, &r.stats.1, r.region_wall);
                    result.call_ns.extend(r.call_ns);
                    if let (Some(t), Some(lane)) = (trace.as_mut(), r.lane) {
                        t.trace.merge(lane);
                    }
                }
                Err(expected) => {
                    eprintln!(
                        "ledger: rank {rank} panicked; its {expected} samples count as failed"
                    );
                    result.verdict.add(&Verdict::all_failed(expected));
                }
            }
        }
        result
    }
}

/// One rank's consumer thread.
struct Consumer<'a> {
    loader: &'a mut dyn DataLoader,
    oracle: Oracle<'a>,
    loop_cfg: TrainLoopConfig,
    endpoint: Option<Endpoint<Vec<f32>>>,
    epochs: u64,
    timed: std::ops::Range<u64>,
    /// The epochs right after the timed ones in which this consumer
    /// sleeps `CONSUMER_PAUSE` after each batch.
    paused: std::ops::Range<u64>,
    /// Aligns the ranks at the edges of the timed region and of the
    /// paused epochs, where rank 0 reads the process probes.
    sync: &'a Barrier,
    /// The readings: timed region's start, its end (where the paused
    /// epochs begin), paused epochs' end.
    edges: &'a std::sync::Mutex<[Option<Reading>; 3]>,
    lane: Option<Lane>,
    parent: Option<SpanId>,
}

impl Consumer<'_> {
    fn run(mut self) -> RankResult {
        let rank = self.loader.rank();
        let epoch_len = self.loader.epoch_len();
        let mut grad = vec![0.0f32; self.loop_cfg.grad_elems];
        let mut epoch_walls = Vec::with_capacity(self.epochs as usize);
        let mut call_ns = Vec::new();
        let mut stats = (self.loader.stats(), self.loader.stats());
        let mut region_start = Instant::now();
        let mut region_wall = Duration::ZERO;

        for epoch in 0..self.epochs {
            if epoch == self.timed.start {
                self.sync.wait();
                if rank == 0 {
                    self.edges.lock().expect("edges lock")[0] = Some(Reading::now());
                }
                stats.0 = self.loader.stats();
                region_start = Instant::now();
            }
            let timed = self.timed.contains(&epoch);
            let paused = self.paused.contains(&epoch);
            let epoch_span = self
                .lane
                .as_mut()
                .map(|l| l.begin(format!("epoch[{epoch}]"), self.parent));
            let epoch_start = Instant::now();
            let mut got = 0u64;
            while got < epoch_len {
                let t0 = Instant::now();
                let Some(batch) = self.loader.next_batch() else {
                    // A loader that runs dry early: the oracle counts
                    // what never came; the remaining epochs fall
                    // through here too, so every barrier is still met.
                    break;
                };
                if let Some(lane) = self.lane.as_mut() {
                    lane.record("core.next_batch", epoch_span, t0);
                    if timed {
                        call_ns.push(t0.elapsed().as_nanos() as f64);
                    }
                }
                let mut bytes = 0u64;
                for (id, data) in &batch {
                    self.oracle.check(*id, data);
                    bytes += data.len() as u64;
                }
                got += batch.len() as u64;
                // The modelled forward/backward pass, then the gradient
                // allreduce that makes the step bulk-synchronous.
                self.loop_cfg
                    .scale
                    .wait(bytes as f64 / self.loop_cfg.compute_rate);
                if let Some(ep) = &self.endpoint {
                    let t0 = Instant::now();
                    ep.allreduce_sum(&mut grad)
                        .expect("allreduce among live ranks");
                    if let Some(lane) = self.lane.as_mut() {
                        lane.record("net.allreduce", epoch_span, t0);
                    }
                }
                if paused {
                    std::thread::sleep(CONSUMER_PAUSE);
                }
            }
            epoch_walls.push(epoch_start.elapsed().as_secs_f64());
            if let (Some(lane), Some(span)) = (self.lane.as_mut(), epoch_span) {
                lane.end(span);
            }
            if epoch + 1 == self.timed.end {
                region_wall = region_start.elapsed();
                stats.1 = self.loader.stats();
                self.sync.wait();
                if rank == 0 {
                    self.edges.lock().expect("edges lock")[1] = Some(Reading::now());
                }
            }
            if epoch + 1 == self.paused.end {
                self.sync.wait();
                if rank == 0 {
                    self.edges.lock().expect("edges lock")[2] = Some(Reading::now());
                }
            }
        }
        RankResult {
            epoch_walls,
            verdict: self.oracle.finish(),
            call_ns,
            stats,
            region_wall,
            lane: self.lane,
        }
    }
}

/// Set-ups behind a reported `setup_s`, at least: a pass with fewer
/// rounds is topped up with set-up-only repetitions, so that the metric
/// is a median of many.
const MIN_SETUPS: usize = 15;

/// Consecutive rounds of one workload within a time budget.
pub struct Pass {
    /// The rounds that count (leading `skip_rounds` already dropped).
    pub rounds: Vec<RoundResult>,
    /// Verdict over every round run, skipped ones included.
    pub verdict: Verdict,
    /// Set-up times beyond the rounds' own.
    extra_setups: Vec<f64>,
    timed: std::ops::Range<usize>,
    /// Paused epochs per round.
    paused_epochs: u64,
}

impl Pass {
    /// Runs `round` again and again until the next one would overrun
    /// `budget_s` (always at least one round that counts), recording
    /// each under a `round[i]` span of `trace` when one is given.
    pub fn run(round: &Round, budget_s: f64, mut trace: Option<(&mut Trace, SpanId)>) -> Pass {
        let w = &round.fixture.workload;
        let mut rounds = Vec::new();
        let mut verdict = Verdict::default();
        let t0 = Instant::now();
        loop {
            let index = rounds.len();
            let r = match trace.as_mut() {
                None => round.run(None),
                Some((trace, root)) => {
                    let mut main = trace.lane(0);
                    let parent = main.begin(format!("round[{index}]"), Some(*root));
                    trace.merge(main);
                    let r = round.run(Some(TraceInto { trace, parent }));
                    let mut main = trace.lane(0);
                    main.end(parent);
                    trace.merge(main);
                    r
                }
            };
            verdict.add(&r.verdict);
            rounds.push(r);
            let elapsed = t0.elapsed().as_secs_f64();
            let next_would_end = elapsed + elapsed / rounds.len() as f64;
            if rounds.len() > w.skip_rounds && next_would_end > budget_s {
                break;
            }
        }
        rounds.drain(..w.skip_rounds);
        Pass {
            rounds,
            verdict,
            extra_setups: Vec::new(),
            timed: w.timed.start as usize..w.timed.end as usize,
            paused_epochs: w.paused.end - w.paused.start,
        }
    }

    /// Times set-up-only repetitions of `round` until the pass holds
    /// `MIN_SETUPS` set-up times.
    pub fn top_up_setups(&mut self, round: &Round) {
        let missing = MIN_SETUPS.saturating_sub(self.rounds.len());
        self.extra_setups
            .extend((0..missing).map(|_| round.setup_only()));
    }

    /// `(epoch, bulk-synchronous wall seconds)` of every timed epoch of
    /// every round.
    pub fn timed_walls(&self) -> Vec<(usize, f64)> {
        self.rounds
            .iter()
            .flat_map(|r| self.timed.clone().map(|e| (e, r.epoch_walls[e])))
            .collect()
    }

    /// How many timed epochs the pass ran, over all rounds.
    pub fn timed_epochs(&self) -> u64 {
        (self.timed.len() * self.rounds.len()) as u64
    }

    pub fn setup_s(&self) -> Vec<f64> {
        let rounds = self.rounds.iter().map(|r| r.setup_s);
        rounds.chain(self.extra_setups.iter().copied()).collect()
    }

    pub fn first_epoch_s(&self) -> Vec<f64> {
        self.rounds.iter().map(|r| r.epoch_walls[0]).collect()
    }

    pub fn cost(&self) -> Cost {
        self.rounds.iter().fold(Cost::default(), |mut acc, r| {
            acc.add(&r.cost);
            acc
        })
    }

    /// What `alloc_bytes_per_sample` is taken from: bytes requested
    /// from the allocator and the epochs they were requested in — the
    /// paused epochs where the workload has any, else the timed ones.
    pub fn alloc_bytes(&self) -> (u64, u64) {
        let paused: Vec<&Cost> = self
            .rounds
            .iter()
            .filter_map(|r| r.paused_cost.as_ref())
            .collect();
        if paused.is_empty() {
            (self.cost().alloc_bytes, self.timed_epochs())
        } else {
            let epochs = self.paused_epochs * paused.len() as u64;
            (paused.iter().map(|c| c.alloc_bytes).sum(), epochs)
        }
    }

    pub fn fetches(&self) -> Fetches {
        self.rounds.iter().fold(Fetches::default(), |mut acc, r| {
            acc.add(&r.fetches);
            acc
        })
    }

    pub fn call_ns(&self) -> Vec<f64> {
        self.rounds
            .iter()
            .flat_map(|r| r.call_ns.iter().copied())
            .collect()
    }
}
