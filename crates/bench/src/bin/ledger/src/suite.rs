//! The whole suite in one invocation: every workload in a child process
//! of its own (so that peak memory belongs to one workload), and the
//! `--check` mode that runs the suite twice and holds the two against
//! the bounds in `BENCHMARK.json`.

use crate::report::{parse_bounds, parse_result, ParsedResult};
use crate::workloads;
use std::process::{Command, Stdio};

/// Runs one workload in a child process, passing its output through;
/// `None` when the child failed or printed no result.
fn run_child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Option<ParsedResult> {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .expect("the ledger binary can start itself");
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        eprintln!("ledger: {workload} exited with {}", output.status);
        return None;
    }
    match parse_result(stdout.lines().last().unwrap_or_default()) {
        Ok(r) => Some(r),
        Err(e) => {
            eprintln!("ledger: {workload}: {e}");
            None
        }
    }
}

/// Runs every workload (and, with `traced`, its per-layer run).
/// Returns whether every run ended with every sample right.
pub fn run(seed: u64, seconds: f64, traced: bool) -> bool {
    let mut ok = true;
    for w in workloads::all() {
        for trace in [false, true] {
            if trace && !traced {
                continue;
            }
            ok &= run_child(w.name, seed, seconds, trace).is_some_and(|r| r.correct);
        }
    }
    ok
}

/// A/A evidence: the suite twice in one invocation, the second time in
/// reverse workload order, each end-to-end metric × workload pair's
/// relative difference printed against its bound. Returns whether every
/// pair stayed within its bound and every sample was right.
pub fn check(seed: u64, seconds: f64) -> bool {
    let bounds = match std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))
        .and_then(|text| parse_bounds(&text))
    {
        Ok(b) => b,
        Err(e) => {
            eprintln!("ledger: {e}");
            return false;
        }
    };
    let order = workloads::all();
    let run = |w: &workloads::Workload| run_child(w.name, seed, seconds, false);
    let first: Vec<_> = order.iter().map(run).collect();
    let mut second: Vec<_> = order.iter().rev().map(run).collect();
    second.reverse();

    let mut ok = true;
    println!("# check: workload metric first second difference bound verdict");
    for (w, (a, b)) in order.iter().zip(first.iter().zip(&second)) {
        let (Some(a), Some(b)) = (a, b) else {
            println!("check {} did not finish both runs: BREACH", w.name);
            ok = false;
            continue;
        };
        if !(a.correct && b.correct) {
            println!("check {} delivered wrong samples: BREACH", w.name);
            ok = false;
        }
        for bound in &bounds {
            let value = |r: &ParsedResult| {
                r.metrics
                    .iter()
                    .find(|(n, _)| *n == bound.name)
                    .map(|(_, v)| *v)
            };
            let (Some(x), Some(y)) = (value(a), value(b)) else {
                println!("check {} {} missing from a run: BREACH", w.name, bound.name);
                ok = false;
                continue;
            };
            // Two runs of the same code: a difference either way is
            // spread, so the larger of the two directions counts.
            let differs = bound.worsening(x, y).max(bound.worsening(y, x));
            let within = differs <= bound.bound;
            ok &= within;
            println!(
                "check {} {} {x} {y} {differs:.4} {} {}",
                w.name,
                bound.name,
                bound.bound,
                if within { "ok" } else { "BREACH" }
            );
        }
    }
    ok
}
