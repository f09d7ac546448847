//! The per-layer run (`--trace 1`): a short untraced reference pass, a
//! traced pass of the same length, and one replay file per crate.
//!
//! Each replay calls its layer's public functions single-threaded on
//! the workload's own inputs — rank 0's stream, the generated sizes and
//! payloads, the workload's `SystemSpec` — with every modelled wait
//! scaled away, so that what is timed is the software. A layer's replay
//! lives in `layers/<crate>.rs` and uses only the plain constructors
//! (never a `*_in_registry` twin), so that an API change in one crate
//! is a one-file follow-up here.

pub mod baselines;
pub mod clairvoyance;
pub mod core;
pub mod net;
pub mod obs;
pub mod perfmodel;
pub mod pfs;
pub mod policy;
pub mod simulator;
pub mod storage;
pub mod train;

use crate::drive::{Pass, Round};
use crate::fixture::Fixture;
use crate::oracle::Verdict;
use crate::report::Metric;
use crate::spans::{Lane, SpanId, Trace};
use crate::{probes, stats, EndToEnd, OUT_DIR};
use nopfs_core::SampleId;
use nopfs_obs::ObsCtx;
use std::time::{Duration, Instant};

/// Calls per timed batch of a replay.
pub const BATCH: usize = 1_000;

/// How long one replay may keep timing batches.
const REPLAY_BUDGET: Duration = Duration::from_millis(150);

/// The lane and parent span replays record under, plus the scratch
/// directory for the two replays that touch the file system.
pub struct Replayer<'a> {
    lane: &'a mut Lane,
    parent: SpanId,
    pub scratch: std::path::PathBuf,
}

impl Replayer<'_> {
    /// Times `batch` — which must make `calls` calls into the layer —
    /// repeatedly until the replay budget is spent (five times at
    /// least), one span per batch, and returns the median nanoseconds
    /// per call. `reset` runs untimed between batches.
    pub fn ns_per_call(
        &mut self,
        name: &'static str,
        calls: usize,
        mut batch: impl FnMut(),
        mut reset: impl FnMut(),
    ) -> f64 {
        let started = Instant::now();
        let mut per_call = Vec::new();
        while per_call.len() < 5 || started.elapsed() < REPLAY_BUDGET {
            let t0 = Instant::now();
            batch();
            per_call.push(t0.elapsed().as_nanos() as f64 / calls as f64);
            self.lane.record(name, Some(self.parent), t0);
            reset();
        }
        stats::median(&per_call)
    }

    /// [`Self::ns_per_call`] for the common replay: `op` applied to
    /// `items` in turn, cycling, `BATCH` calls per batch, nothing to
    /// reset.
    pub fn ns_per_item<T>(
        &mut self,
        name: &'static str,
        items: &[T],
        mut op: impl FnMut(&T),
    ) -> f64 {
        let mut at = 0usize;
        self.ns_per_call(
            name,
            BATCH,
            || {
                for _ in 0..BATCH {
                    op(&items[at % items.len()]);
                    at += 1;
                }
            },
            || {},
        )
    }

    /// Times `op` once under a span and returns its seconds together
    /// with its result.
    pub fn once<T>(&mut self, name: &'static str, op: impl FnOnce() -> T) -> (f64, T) {
        let t0 = Instant::now();
        let out = op();
        let s = t0.elapsed().as_secs_f64();
        self.lane.record(name, Some(self.parent), t0);
        (s, out)
    }
}

/// The ids a single-threaded replay cycles through: rank 0's first
/// epoch.
pub fn replay_ids(view: &Fixture) -> Vec<SampleId> {
    view.expected_stream(0)[..view.epoch_len() as usize].to_vec()
}

/// The value of metric `name` among `metrics`.
fn value_of(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("replays emit {name} before it is used"))
        .value
}

/// Runs the per-layer run and returns its verdict and every per-layer
/// metric. `trace` already holds the `run` span `root` and the fixture's
/// span; `canary` holds the readings taken before the fixture was built,
/// and the ones after the workload are added here.
pub fn per_layer(
    fixture: &Fixture,
    seconds: f64,
    canary: &mut probes::Canary,
    mut trace: Trace,
    root: SpanId,
) -> (Verdict, Vec<Metric>) {
    let w = &fixture.workload;

    // End-to-end numbers always come from an untraced pass; the traced
    // pass that follows differs from it only by tracing.
    let quarter = seconds / 4.0;
    let untraced = Pass::run(&Round::nopfs(fixture), quarter, None);
    let obs = ObsCtx::traced_with_scale(w.scale().factor());
    let pfs_reads_before = fixture.pfs.stats().reads;
    let traced_round = Round {
        obs: Some(obs.clone()),
        ..Round::nopfs(fixture)
    };
    let traced = Pass::run(&traced_round, quarter, Some((&mut trace, root)));
    let pfs_reads = fixture.pfs.stats().reads - pfs_reads_before;
    let reference = EndToEnd::of(fixture, &untraced);
    let with_tracing = EndToEnd::of(fixture, &traced);
    let mut verdict = untraced.verdict;
    verdict.add(&traced.verdict);

    let view = fixture.variant(w.unpaced());
    let mut lane = trace.lane(0);
    let layers_span = lane.begin("layers", Some(root));
    let mut r = Replayer {
        lane: &mut lane,
        parent: layers_span,
        scratch: std::path::Path::new(OUT_DIR).join(format!(
            "scratch-{}-{}",
            w.name,
            std::process::id()
        )),
    };
    let mut metrics = clairvoyance::replay(&view, &mut r);
    metrics.extend(policy::replay(&view, &mut r));
    metrics.extend(storage::replay(&view, &mut r, &obs.snapshot()));
    metrics.extend(pfs::replay(
        &view,
        &mut r,
        pfs_reads,
        traced.verdict.expected,
    ));
    metrics.extend(net::replay(&view, &mut r));
    metrics.extend(core::replay(&view, &mut r, &reference, &traced));
    for (replay_verdict, replay_metrics) in [
        train::replay(&view, &mut r),
        baselines::replay(&view, &mut r),
    ] {
        verdict.add(&replay_verdict);
        metrics.extend(replay_metrics);
    }
    metrics.extend(obs::replay(&mut r, &reference, &with_tracing));
    metrics.extend(simulator::replay(fixture, &mut r, &with_tracing));
    metrics.push(Metric::new("perfmodel.bound_s", "s", with_tracing.bound_s));
    let _ = std::fs::remove_dir_all(&r.scratch);
    lane.end(layers_span);
    lane.end(root);
    trace.merge(lane);

    // How much of the measured per-sample CPU budget the layer rows
    // account for: on the hit path one sample is one source selection,
    // one cached tier read, one hand-off through the reorder stage, and
    // `obs::HANDLES_PER_SAMPLE` counter updates.
    let explained_ns = value_of(&metrics, "policy.select_source_ns")
        + value_of(&metrics, "storage.tier_get_cached_ns")
        + value_of(&metrics, "storage.reorder_handoff_ns")
        + obs::HANDLES_PER_SAMPLE * value_of(&metrics, "obs.counter_inc_ns");
    metrics.push(Metric::new(
        "ledger.explained_share",
        "ratio",
        explained_ns / (reference.cpu_us_per_sample * 1e3),
    ));
    metrics.push(Metric::new("ledger.fixture_s", "s", fixture.materialize_s));
    metrics.push(Metric::new(
        "ledger.failed_share",
        "ratio",
        verdict.failed as f64 / verdict.expected as f64,
    ));
    canary.read(5);
    metrics.push(Metric::new(
        "host.noise_cv",
        "ratio",
        stats::coefficient_of_variation(&canary.alu_s),
    ));

    write_trace(&trace, w.name, fixture.seed);
    (verdict, metrics)
}

/// Writes the run's spans as a Chrome trace and prints where the time
/// went by span family.
fn write_trace(trace: &Trace, workload: &str, seed: u64) {
    let path = std::path::Path::new(OUT_DIR).join(format!("trace-{workload}-{seed}.json"));
    let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| {
        std::fs::write(
            &path,
            trace
                .chrome_json(&format!("ledger {workload}"))
                .render_compact(),
        )
    });
    match written {
        Ok(()) => println!("# {} spans written to {}", trace.len(), path.display()),
        Err(e) => eprintln!("ledger: could not write {}: {e}", path.display()),
    }
    for (family, self_s) in trace.self_times().into_iter().take(8) {
        println!("# self time {family} {self_s:.4} s");
    }
}
