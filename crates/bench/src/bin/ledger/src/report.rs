//! What a run prints: one `workload name unit value` line per metric,
//! and as the last line of standard output one JSON object for the
//! driver. `BENCHMARK.json` at the repository root is the single place
//! that fixes each metric's direction and bound; `--check` reads it.

use crate::oracle::Verdict;
use nopfs_obs::Json;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self { name, unit, value }
    }
}

/// The object a single-workload run ends with: exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(verdict: &Verdict, metrics: &[Metric]) -> Json {
    Json::obj([
        ("correct", Json::Bool(verdict.failed == 0)),
        ("attempted", Json::from(verdict.expected)),
        ("failed", Json::from(verdict.failed)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.to_string(),
                            Json::obj([
                                ("value", Json::Num(m.value)),
                                ("unit", Json::from(m.unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Prints the metric lines and then the result object.
pub fn print_result(workload: &str, verdict: &Verdict, metrics: &[Metric]) {
    for m in metrics {
        println!("{workload} {} {} {}", m.name, m.unit, m.value);
    }
    println!("{}", result_json(verdict, metrics).render_compact());
}

/// A child run's result, read back from its last line of output.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

pub fn parse_result(line: &str) -> Result<ParsedResult, String> {
    let doc = Json::parse(line).map_err(|e| format!("result line is not JSON: {e}"))?;
    let num = |key: &str| {
        doc.get(key)
            .and_then(Json::as_num)
            .ok_or_else(|| format!("result has no number `{key}`"))
    };
    let Some(Json::Obj(fields)) = doc.get("metrics") else {
        return Err("result has no `metrics` object".to_string());
    };
    let metrics = fields
        .iter()
        .map(|(name, m)| {
            m.get("value")
                .and_then(Json::as_num)
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("metric `{name}` has no value"))
        })
        .collect::<Result<_, _>>()?;
    Ok(ParsedResult {
        correct: doc.get("correct") == Some(&Json::Bool(true)),
        attempted: num("attempted")? as u64,
        failed: num("failed")? as u64,
        metrics,
    })
}

/// One end-to-end metric's entry in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// The `end_to_end` table of a `BENCHMARK.json` document.
pub fn parse_bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = Json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no `end_to_end` array")?
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .ok_or_else(|| format!("end_to_end entry lacks `{k}`"))
            };
            Ok(Bound {
                name: field("name")?.as_str().unwrap_or_default().to_string(),
                higher_is_better: field("better")?.as_str() == Some("higher"),
                bound: field("bound")?.as_num().ok_or("`bound` is not a number")?,
            })
        })
        .collect()
}

impl Bound {
    /// By what share of `first` the value `second` is worse (negative
    /// when it is better).
    pub fn worsening(&self, first: f64, second: f64) -> f64 {
        if self.higher_is_better {
            (first - second) / first
        } else {
            (second - first) / first
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_parses_back() {
        let verdict = Verdict {
            expected: 1_000,
            failed: 0,
        };
        let metrics = [
            Metric::new("samples_per_s", "1/s", 341_234.567_891_2),
            Metric::new("setup_s", "s", 0.081_27),
        ];
        let line = result_json(&verdict, &metrics).render_compact();
        assert!(!line.contains('\n'));
        let back = parse_result(&line).unwrap();
        assert!(back.correct);
        assert_eq!((back.attempted, back.failed), (1_000, 0));
        assert_eq!(
            back.metrics,
            vec![
                ("samples_per_s".to_string(), 341_234.567_891_2),
                ("setup_s".to_string(), 0.081_27)
            ]
        );
        let doc = Json::parse(&line).unwrap();
        let Json::Obj(keys) = &doc else {
            panic!("an object")
        };
        let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            doc.get("metrics")
                .unwrap()
                .get("setup_s")
                .unwrap()
                .get("unit")
                .unwrap()
                .as_str(),
            Some("s")
        );
    }

    #[test]
    fn a_failed_run_is_not_correct() {
        let verdict = Verdict {
            expected: 10,
            failed: 3,
        };
        let back = parse_result(&result_json(&verdict, &[]).render_compact()).unwrap();
        assert!(!back.correct);
        assert_eq!(back.failed, 3);
        assert!(parse_result("not json").is_err());
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        let higher = Bound {
            name: "samples_per_s".into(),
            higher_is_better: true,
            bound: 0.1,
        };
        let lower = Bound {
            name: "setup_s".into(),
            higher_is_better: false,
            bound: 0.25,
        };
        assert!((higher.worsening(100.0, 95.0) - 0.05).abs() < 1e-12);
        assert!(higher.worsening(100.0, 105.0) < 0.0);
        assert!((lower.worsening(2.0, 2.5) - 0.25).abs() < 1e-12);
    }
}
