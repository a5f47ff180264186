//! `rodentbench compare <setA.jsonl> <setB.jsonl>`: one row per workload ×
//! end-to-end metric, with a verdict against the bound `BENCHMARK.json` fixes.
//!
//! A set is a file of the records `--append` writes: one run per line. Set A
//! is the base (the parent commit, or the first of two sets of one commit).

use crate::json::Json;
use crate::stats::{quartiles, spread};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Verdict on one workload × metric pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A set's own run-to-run spread is wider than the bound, so the pairing
    /// cannot be called either way.
    Unresolved,
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Quartiles of set A (`q1, median, q3`).
    pub a: (f64, f64, f64),
    /// Quartiles of set B.
    pub b: (f64, f64, f64),
    /// How much worse B's median is than A's, as a share of A's median
    /// (negative = better).
    pub worse_by: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// The whole comparison.
#[derive(Debug)]
pub struct Comparison {
    /// One row per workload × end-to-end metric both sets have.
    pub rows: Vec<Row>,
    /// `(failed, attempted)` summed over set A's runs.
    pub failures_a: (f64, f64),
    /// `(failed, attempted)` summed over set B's runs.
    pub failures_b: (f64, f64),
}

impl Comparison {
    /// No pairing is worse and B fails no larger a share of its ops than A.
    pub fn passed(&self) -> bool {
        let share = |(failed, attempted): (f64, f64)| failed / attempted.max(1.0);
        self.rows.iter().all(|r| r.verdict != Verdict::Worse)
            && share(self.failures_b) <= share(self.failures_a)
    }

    /// The table `compare` prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<18} {:<20} {:>38} {:>38} {:>9} {:>6}  verdict",
            "workload", "metric", "A: median [q1, q3]", "B: median [q1, q3]", "worse by", "bound"
        );
        for r in &self.rows {
            let side = |(q1, q2, q3): (f64, f64, f64)| format!("{q2:.4} [{q1:.4}, {q3:.4}]");
            let _ = writeln!(
                out,
                "{:<18} {:<20} {:>38} {:>38} {:>+8.1}% {:>5.0}%  {}",
                r.workload,
                r.metric,
                side(r.a),
                side(r.b),
                r.worse_by * 100.0,
                r.bound * 100.0,
                match r.verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let _ = writeln!(
            out,
            "ops failed / attempted: A {} / {}, B {} / {}",
            self.failures_a.0, self.failures_a.1, self.failures_b.0, self.failures_b.1
        );
        out
    }
}

type Samples = BTreeMap<(String, String), Vec<f64>>;

fn read_set(text: &str) -> Result<(Samples, (f64, f64)), String> {
    let mut samples = Samples::new();
    let mut failures = (0.0, 0.0);
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record = Json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: no workload", n + 1))?;
        failures.0 += record.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        failures.1 += record
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        for (name, metric) in record.get("metrics").map_or(&[][..], Json::members) {
            if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                samples
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok((samples, failures))
}

/// Compares two sets of runs against the end-to-end bounds of `benchmark`
/// (the parsed `BENCHMARK.json`).
pub fn compare(set_a: &str, set_b: &str, benchmark: &Json) -> Result<Comparison, String> {
    let (a, failures_a) = read_set(set_a)?;
    let (b, failures_b) = read_set(set_b)?;
    let mut rows = Vec::new();
    let workloads = benchmark.get("workloads").map_or(&[][..], Json::items);
    let metrics = benchmark.get("end_to_end").map_or(&[][..], Json::items);
    for workload in workloads.iter().filter_map(|w| w.get("name")?.as_str()) {
        for metric in metrics {
            let (Some(name), Some(better), Some(bound)) = (
                metric.get("name").and_then(Json::as_str),
                metric.get("better").and_then(Json::as_str),
                metric.get("bound").and_then(Json::as_f64),
            ) else {
                return Err("BENCHMARK.json: end_to_end entry without name/better/bound".into());
            };
            let key = (workload.to_string(), name.to_string());
            let (Some(sa), Some(sb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let (qa, qb) = (quartiles(sa), quartiles(sb));
            let change = (qb.1 - qa.1) / qa.1.abs().max(f64::MIN_POSITIVE);
            let worse_by = if better == "lower" { change } else { -change };
            let verdict = if worse_by > bound {
                Verdict::Worse
            } else if spread(sa) > bound || spread(sb) > bound {
                Verdict::Unresolved
            } else {
                Verdict::Ok
            };
            rows.push(Row {
                workload: workload.to_string(),
                metric: name.to_string(),
                a: qa,
                b: qb,
                worse_by,
                bound,
                verdict,
            });
        }
    }
    Ok(Comparison {
        rows,
        failures_a,
        failures_b,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(workload: &str, values: &[f64], failed: u64) -> String {
        values
            .iter()
            .map(|v| {
                format!(
                    "{{\"workload\": \"{workload}\", \"seed\": 1, \"correct\": true, \"attempted\": 100, \"failed\": {failed}, \"metrics\": {{\"latency_us\": {{\"value\": {v}, \"unit\": \"us\"}}, \"rate\": {{\"value\": {}, \"unit\": \"1/s\"}}}}}}\n",
                    1e6 / v
                )
            })
            .collect()
    }

    fn benchmark() -> Json {
        Json::parse(
            r#"{"workloads": [{"name": "w", "why": "x"}],
                "end_to_end": [
                  {"name": "latency_us", "unit": "us", "better": "lower", "bound": 0.1},
                  {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap()
    }

    #[test]
    fn steady_sets_agree() {
        let a = set("w", &[100.0, 101.0, 99.0, 100.5, 99.5], 0);
        let b = set("w", &[102.0, 101.0, 103.0, 102.5, 101.5], 0);
        let c = compare(&a, &b, &benchmark()).unwrap();
        assert_eq!(c.rows.len(), 2);
        assert!(
            c.rows.iter().all(|r| r.verdict == Verdict::Ok),
            "{}",
            c.render()
        );
        assert!(c.passed());
    }

    #[test]
    fn a_regression_in_either_direction_is_worse() {
        let a = set("w", &[100.0, 101.0, 99.0, 100.5, 99.5], 0);
        let b = set("w", &[120.0, 121.0, 119.0, 120.5, 119.5], 0);
        let c = compare(&a, &b, &benchmark()).unwrap();
        // Latency rose 20 % (lower is better) and rate fell 17 % (higher is).
        assert!(
            c.rows.iter().all(|r| r.verdict == Verdict::Worse),
            "{}",
            c.render()
        );
        assert!(!c.passed());
        // The other way round it is an improvement, not a regression.
        assert!(compare(&b, &a, &benchmark()).unwrap().passed());
    }

    #[test]
    fn a_wide_spread_is_unresolved_and_more_failures_fail() {
        let a = set("w", &[100.0, 140.0, 70.0, 120.0, 90.0], 0);
        let b = set("w", &[101.0, 100.0, 102.0, 100.5, 101.5], 1);
        let c = compare(&a, &b, &benchmark()).unwrap();
        assert!(
            c.rows.iter().all(|r| r.verdict == Verdict::Unresolved),
            "{}",
            c.render()
        );
        assert!(!c.passed(), "B failed ops that A did not");
    }
}
