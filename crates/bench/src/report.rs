//! Plain-text table printing and machine-readable JSON emission for
//! the reproduction benches.
//!
//! Each bench prints the same rows/series the paper's figure reports,
//! in a stable text format that EXPERIMENTS.md quotes. Benches that
//! feed the perf trajectory additionally serialize their numbers with
//! [`Json`] + [`write_json`] (`BENCH_<name>.json` at the workspace
//! root). The [`Json`] value itself lives in `nopfs_obs` — one
//! serializer shared by the bench reports, the telemetry JSONL
//! emitter, and the Chrome trace exporter.

use nopfs_core::stats::SetupStats;
use nopfs_storage::ResilienceStats;
use nopfs_util::stats::Summary;

pub use nopfs_obs::Json;

/// Prints a figure/table banner.
pub fn banner(id: &str, caption: &str) {
    println!();
    println!("=== {id} — {caption} ===");
}

/// Prints a section sub-header.
pub fn section(title: &str) {
    println!();
    println!("--- {title} ---");
}

/// Prints a key/value configuration line.
pub fn config_line(text: &str) {
    println!("    [{text}]");
}

/// Formats a batch-time distribution like the paper's violin annotations.
pub fn dist(summary: &Summary) -> String {
    format!(
        "median {:>8.4}s  p95 {:>8.4}s  max {:>8.4}s",
        summary.median(),
        summary.percentile(95.0),
        summary.max()
    )
}

/// Formats the clairvoyant setup statistics of a NoPFS run (wall time
/// of the single-pass precomputation plus its shuffle-generation
/// count, which stays at E regardless of worker count).
pub fn setup_line(setup: &SetupStats) -> String {
    format!(
        "setup {:>8.1}ms ({} epoch-shuffle generations)",
        setup.setup_time.as_secs_f64() * 1e3,
        setup.shuffle_generations
    )
}

/// Formats `a/b` as a ratio with a `x` suffix (e.g. speedups).
pub fn ratio(a: f64, b: f64) -> String {
    if b == 0.0 {
        "n/a".to_string()
    } else {
        format!("{:.2}x", a / b)
    }
}

/// Serializes the resilience counters of an object-store origin (per
/// rank, per tenant, or merged) for machine-readable reports.
pub fn resilience_json(stats: &ResilienceStats) -> Json {
    Json::obj([
        ("reads", Json::from(stats.reads)),
        ("retries", Json::from(stats.retries)),
        ("exhausted", Json::from(stats.exhausted)),
        ("hedges_fired", Json::from(stats.hedges_fired)),
        ("hedges_won", Json::from(stats.hedges_won)),
        ("deadline_misses", Json::from(stats.deadline_misses)),
        ("throttled", Json::from(stats.throttled)),
        (
            "breaker_open_rejections",
            Json::from(stats.breaker_open_rejections),
        ),
        ("breaker_to_open", Json::from(stats.breaker_to_open)),
        (
            "breaker_to_half_open",
            Json::from(stats.breaker_to_half_open),
        ),
        ("breaker_to_closed", Json::from(stats.breaker_to_closed)),
    ])
}

/// Where artifact `name` belongs: the workspace root, found by walking
/// up from the current directory to the `Cargo.lock` (benches run with
/// their package directory as CWD, examples with the workspace root —
/// both must land the same `BENCH_*.json` in the same place).
fn artifact_path(name: &str) -> std::path::PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| ".".into());
    loop {
        if dir.join("Cargo.lock").exists() {
            return dir.join(name);
        }
        if !dir.pop() {
            return std::path::PathBuf::from(name);
        }
    }
}

/// Writes a JSON report named `name` at the workspace root and prints
/// where it went.
pub fn write_json(name: &str, value: &Json) -> std::io::Result<()> {
    let path = artifact_path(name);
    std::fs::write(&path, value.render())?;
    println!(
        "    [machine-readable report written to {}]",
        path.display()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resilience_stats_serialize_every_counter() {
        let res = ResilienceStats {
            reads: 10,
            retries: 3,
            hedges_fired: 2,
            hedges_won: 1,
            throttled: 4,
            breaker_to_open: 1,
            ..ResilienceStats::default()
        };
        let s = resilience_json(&res).render();
        assert!(s.contains("\"reads\": 10"));
        assert!(s.contains("\"hedges_won\": 1"));
        assert!(s.contains("\"breaker_to_open\": 1"));
        assert!(s.contains("\"exhausted\": 0"));
    }

    #[test]
    fn json_escapes_strings_and_non_finite() {
        let v = Json::Arr(vec![
            Json::Str("a\"b\\c\nd\u{1}".into()),
            Json::Num(f64::NAN),
            Json::Bool(true),
        ]);
        let s = v.render();
        assert!(s.contains(r#""a\"b\\c\nd\u0001""#));
        assert!(s.contains("null"));
        assert!(s.contains("true"));
    }

    #[test]
    fn json_reexport_round_trips() {
        // The serializer itself lives (and is tested) in `nopfs_obs`;
        // this pins the re-export the benches build their reports with.
        let v = Json::obj([("figure", Json::from("fig2")), ("count", Json::from(3u64))]);
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }
}
