//! `ledger`: the repository's one benchmark.
//!
//! Four loader workloads driven as a closed loop against the NoPFS
//! loader, six end-to-end metrics with every delivered sample checked,
//! and a per-layer replay behind `--trace 1`. The README beside this
//! package has the glossary and the table of which layer metric should
//! move which end-to-end metric on which workload.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload (the driver's form)
//! ledger --seed <n> [--seconds <s>] [--traced]                      the suite, one child process per workload
//! ledger --seed <n> [--seconds <s>] --check                         the suite twice, compared against the bounds
//! ```

mod drive;
mod fixture;
mod layers;
mod oracle;
mod probes;
mod report;
mod spans;
mod stats;
mod suite;
mod workloads;

use drive::{Pass, Round};
use fixture::Fixture;
use report::Metric;
use spans::Trace;
use std::process::ExitCode;
use std::time::Instant;
use workloads::Workload;

#[global_allocator]
static ALLOC: probes::CountingAlloc = probes::CountingAlloc;

/// Seconds one run measures for when `--seconds` is not given; the
/// same value as `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// A run that has not ended this long after its measuring time is
/// hung (a concurrency regression in this repository shows as a hang,
/// not a failure): the process reports it and exits non-zero.
const HANG_GRACE_S: f64 = 120.0;

/// Where the span files go, relative to the working directory.
pub const OUT_DIR: &str = "ledger_out";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must lie in (0, 60]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--traced" => args.trace = true,
            "--check" => args.check = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledger: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match &args.workload {
        Some(name) => {
            let Some(workload) = Workload::by_name(name) else {
                eprintln!("ledger: no workload `{name}`");
                return ExitCode::from(2);
            };
            spawn_hang_watchdog(args.seconds);
            run_one(&workload, args.seed, args.seconds, args.trace)
        }
        None if args.check => suite::check(args.seed, args.seconds),
        None => suite::run(args.seed, args.seconds, args.trace),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn spawn_hang_watchdog(seconds: f64) {
    // Detached on purpose: it sleeps through the whole run and only
    // ever acts by ending the process.
    std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_secs_f64(seconds + HANG_GRACE_S));
        eprintln!("ledger: still running {HANG_GRACE_S} s past its {seconds} s; hung, giving up");
        std::process::exit(3);
    });
}

/// Runs one workload in this process and prints its result. Returns
/// whether every delivered sample was right.
fn run_one(workload: &Workload, seed: u64, seconds: f64, trace_layers: bool) -> bool {
    print_header(workload, seed, seconds, trace_layers);
    if workload.one_cpu {
        match probes::pin_to_one_cpu() {
            Ok(cpu) => println!("# the whole process runs on cpu {cpu}"),
            Err(e) => {
                eprintln!(
                    "ledger: {} needs one CPU and could not get it: {e}",
                    workload.name
                );
                return false;
            }
        }
    }
    let mut canary = probes::Canary::new();
    canary.read(5);
    let mut trace = Trace::new(seed);
    let mut main = trace.lane(0);
    let root = main.begin("run", None);
    let t0 = Instant::now();
    let fixture = Fixture::new(workload, seed);
    main.record("fixture.materialize", Some(root), t0);
    trace.merge(main);
    println!(
        "# fixture digest {:016x}, expected-stream digest {:016x}, materialised in {:.3} s",
        fixture.digest(),
        fixture.stream_digest(),
        fixture.materialize_s
    );

    let (verdict, metrics) = if trace_layers {
        layers::per_layer(&fixture, seconds, &mut canary, trace, root)
    } else {
        let round = Round::nopfs(&fixture);
        let mut pass = Pass::run(&round, seconds, None);
        pass.top_up_setups(&round);
        canary.read(5);
        (pass.verdict, end_to_end(&fixture, &pass))
    };
    print_canary(&canary);
    report::print_result(workload.name, &verdict, &metrics);
    verdict.failed == 0
}

/// The six end-to-end metrics of an untraced pass.
pub fn end_to_end(fixture: &Fixture, pass: &Pass) -> Vec<Metric> {
    let e = EndToEnd::of(fixture, pass);
    let walls: Vec<f64> = pass.timed_walls().into_iter().map(|(_, w)| w).collect();
    println!("# steady epoch wall: {}", stats::describe(&walls, "s"));
    println!("# set-up: {}", stats::describe(&pass.setup_s(), "s"));
    println!(
        "# perfmodel.bound_s {} (the bound the gap is taken against)",
        e.bound_s
    );
    vec![
        Metric::new("setup_s", "s", e.setup_s),
        Metric::new("samples_per_s", "1/s", e.samples_per_s),
        Metric::new("bound_gap_us", "us/sample", e.bound_gap_us),
        Metric::new("cpu_us_per_sample", "us/sample", e.cpu_us_per_sample),
        Metric::new(
            "alloc_bytes_per_sample",
            "B/sample",
            e.alloc_bytes_per_sample,
        ),
        Metric::new("peak_rss_mb", "MiB", probes::peak_rss_mib()),
    ]
}

/// What a pass says about the loader, end to end.
pub struct EndToEnd {
    pub setup_s: f64,
    pub samples_per_s: f64,
    pub bound_gap_us: f64,
    pub bound_s: f64,
    pub cpu_us_per_sample: f64,
    pub alloc_bytes_per_sample: f64,
    pub allocs_per_sample: f64,
    pub ctx_switches_per_sample: f64,
    pub steady_epoch_s: f64,
}

impl EndToEnd {
    pub fn of(fixture: &Fixture, pass: &Pass) -> Self {
        let epoch_len = fixture.epoch_len() as f64;
        let per_epoch = fixture.workload.ranks as f64 * epoch_len;
        let bounds = layers::perfmodel::epoch_bounds(fixture);
        let timed = pass.timed_walls();
        let walls: Vec<f64> = timed.iter().map(|&(_, w)| w).collect();
        let gaps: Vec<f64> = timed.iter().map(|&(e, w)| w - bounds[e]).collect();
        let timed_bounds: Vec<f64> = timed.iter().map(|&(e, _)| bounds[e]).collect();
        let steady_epoch_s = stats::median(&walls);
        let samples = pass.timed_epochs() as f64 * per_epoch;
        let cost = pass.cost();
        let (alloc_bytes, alloc_epochs) = pass.alloc_bytes();
        Self {
            setup_s: stats::median(&pass.setup_s()),
            samples_per_s: per_epoch / steady_epoch_s,
            bound_gap_us: stats::median(&gaps) / epoch_len * 1e6,
            bound_s: stats::median(&timed_bounds),
            cpu_us_per_sample: cost.cpu_s / samples * 1e6,
            alloc_bytes_per_sample: alloc_bytes as f64 / (alloc_epochs as f64 * per_epoch),
            allocs_per_sample: cost.alloc_calls as f64 / samples,
            ctx_switches_per_sample: cost.ctx_switches as f64 / samples,
            steady_epoch_s,
        }
    }
}

/// The header block: everything needed to tell two runs apart.
fn print_header(workload: &Workload, seed: u64, seconds: f64, trace: bool) {
    // `git` must not wander above the working directory looking for a
    // repository: the driver's checkout is not one.
    let here = std::env::current_dir().unwrap_or_default();
    let tool = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .env("GIT_CEILING_DIRECTORIES", here.parent().unwrap_or(&here))
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "# ledger workload={} seed={seed} seconds={seconds} trace={}",
        workload.name,
        u8::from(trace)
    );
    println!(
        "# nproc={nproc} rustc=\"{}\" commit={}",
        tool("rustc", &["--version"]),
        tool("git", &["rev-parse", "HEAD"])
    );
    println!("# {}", workload.knobs());
}

/// Where the host stood around the workload: the canary's readings,
/// five before and five after. A quiet reference host gives about
/// 7.3 ms and 150 ns; the same work reading otherwise is the host.
fn print_canary(canary: &probes::Canary) {
    println!(
        "# host canary: arithmetic loop {:.3} ms (host.noise_cv {:.4}), dependent load {:.1} ns",
        stats::median(&canary.alu_s) * 1e3,
        stats::coefficient_of_variation(&canary.alu_s),
        stats::median(&canary.load_ns),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::tests::tiny;
    use nopfs_obs::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .expect("BENCHMARK.json is JSON")
    }

    fn names(doc: &Json, table: &str) -> Vec<String> {
        doc.get(table)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has `{table}`"))
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("a name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn a_two_rank_round_delivers_every_sample_and_accounts_for_it() {
        let fixture = Fixture::new(&tiny(2), 21);
        let round = Round::nopfs(&fixture);
        let mut pass = Pass::run(&round, 0.0, None);
        pass.top_up_setups(&round);
        assert_eq!(pass.rounds.len(), 1);
        assert_eq!(pass.setup_s().len(), 15);
        // 96 samples, batch 4 x 2 ranks, drop_last: 48 per rank per epoch.
        assert_eq!(fixture.epoch_len(), 48);
        assert_eq!(
            pass.verdict,
            oracle::Verdict {
                expected: 2 * 3 * 48,
                failed: 0
            }
        );
        assert_eq!(pass.timed_walls().len(), 2);
        assert_eq!(pass.timed_epochs(), 2);
        let e = EndToEnd::of(&fixture, &pass);
        assert!(e.samples_per_s > 0.0 && e.bound_gap_us > 0.0 && e.alloc_bytes_per_sample > 0.0);
        // The timed region's fetches are the staging threads': each may
        // have fetched up to the staging capacity (13 samples) plus one
        // claim (8) before the region began, and the stream ends with it.
        let fetched = pass.fetches().total();
        assert!(
            (192 - 2 * 21..=192).contains(&fetched),
            "{fetched} fetches for 192 samples"
        );
    }

    #[test]
    fn paused_epochs_are_where_allocation_is_counted() {
        let workload = Workload {
            epochs: 4,
            paused: 3..4,
            ..tiny(2)
        };
        let fixture = Fixture::new(&workload, 23);
        let pass = Pass::run(&Round::nopfs(&fixture), 0.0, None);
        assert_eq!(pass.verdict.expected, 2 * 4 * 48);
        assert_eq!(pass.verdict.failed, 0);
        assert_eq!(pass.timed_epochs(), 2);
        let paused = pass.rounds[0].paused_cost.expect("the round had a paused epoch");
        // 12 batches per rank, each followed by a pause.
        assert!(paused.wall_s >= 12.0 * 50e-6, "{paused:?}");
        assert_eq!(pass.alloc_bytes(), (paused.alloc_bytes, 1));
        assert!(paused.alloc_bytes > 0);

        // Without paused epochs it is the timed region's.
        let fixture = Fixture::new(&tiny(1), 23);
        let pass = Pass::run(&Round::nopfs(&fixture), 0.0, None);
        assert!(pass.rounds[0].paused_cost.is_none());
        assert_eq!(pass.alloc_bytes(), (pass.cost().alloc_bytes, 2));
    }

    #[test]
    fn the_contract_file_names_what_the_binary_emits() {
        let doc = benchmark_json();
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_num),
            Some(DEFAULT_SECONDS)
        );
        let workload_names: Vec<String> = workloads::all()
            .iter()
            .map(|w| w.name.to_string())
            .collect();
        assert_eq!(names(&doc, "workloads"), workload_names);

        let fixture = Fixture::new(&tiny(2), 22);
        let pass = Pass::run(&Round::nopfs(&fixture), 0.0, None);
        let emitted: Vec<String> = end_to_end(&fixture, &pass)
            .iter()
            .map(|m| m.name.to_string())
            .collect();
        assert_eq!(names(&doc, "end_to_end"), emitted);

        let mut trace = Trace::new(22);
        let mut main = trace.lane(0);
        let root = main.begin("run", None);
        trace.merge(main);
        let (verdict, metrics) =
            layers::per_layer(&fixture, 0.2, &mut probes::Canary::new(), trace, root);
        assert_eq!(verdict.failed, 0);
        let emitted: Vec<String> = metrics.iter().map(|m| m.name.to_string()).collect();
        assert_eq!(names(&doc, "per_layer"), emitted);
        // (The tiny reference pass is shorter than a clock tick, so its
        // CPU time reads 0 and the share explained of it is not a number.)
        assert!(
            metrics
                .iter()
                .all(|m| m.value.is_finite() || m.name == "ledger.explained_share"),
            "{metrics:?}"
        );
        // The span file of the run holds the spans of every kind of call
        // (`spans.rs` tests that such a document parses back).
        let written = std::fs::read_to_string(format!("{OUT_DIR}/trace-tiny-22.json"))
            .expect("the trace was written");
        let has = |name: &str| written.contains(&format!("\"name\":\"{name}\""));
        assert!(has("core.build_loaders") && has("core.next_batch") && has("replay.pfs.read"));
    }
}
