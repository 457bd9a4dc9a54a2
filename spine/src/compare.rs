//! `spine compare <a.json> <b.json>`: one row per (workload, end-to-end
//! metric) with both values, the ratio with its base, and a verdict
//! against the bound `BENCHMARK.json` fixes for that metric.

use crate::json::Json;
use crate::stats::{median, spread};

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub fn gates(benchmark: &Json) -> Result<Vec<Gate>, String> {
    let list = benchmark
        .get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end")?;
    list.as_arr()
        .iter()
        .map(|m| {
            Ok(Gate {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without name")?
                    .into(),
                higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without bound")?,
            })
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The runs of one side spread wider than the bound, so a difference
    /// of that size cannot be told from noise.
    Unresolved,
}

/// `b` against base `a`. With four or more runs a side, a spread wider
/// than the bound makes the row unresolved instead of ok.
pub fn judge(gate: &Gate, a: &[f64], b: &[f64]) -> (f64, f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worse_by = if gate.higher_is_better {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    let noisy = [a, b]
        .iter()
        .any(|side| side.len() >= 4 && spread(side) > gate.bound);
    let verdict = if worse_by > gate.bound {
        Verdict::Worse
    } else if noisy {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (ma, mb, verdict)
}

/// The untraced runs of a report file (`{"runs": [...]}` or one run).
fn runs(doc: &Json) -> Vec<&Json> {
    let all: Vec<&Json> = match doc.get("runs") {
        Some(list) => list.as_arr().iter().collect(),
        None => vec![doc],
    };
    all.into_iter()
        .filter(|r| r.get("trace").and_then(Json::as_f64) == Some(0.0))
        .collect()
}

fn values(runs: &[&Json], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn failure_share(runs: &[&Json], workload: &str) -> f64 {
    let sum = |key: &str| -> f64 {
        runs.iter()
            .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
            .filter_map(|r| r.get(key)?.as_f64())
            .sum()
    };
    sum("failed") / sum("attempted").max(1.0)
}

/// Prints the table; `Ok(true)` when nothing is worse.
pub fn compare(benchmark: &Json, a: &Json, b: &Json) -> Result<bool, String> {
    let gates = gates(benchmark)?;
    let (runs_a, runs_b) = (runs(a), runs(b));
    let mut clean = true;
    println!(
        "{:<18} {:<20} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "a (base)", "b", "b/a"
    );
    for w in benchmark
        .get("workloads")
        .map(Json::as_arr)
        .unwrap_or_default()
    {
        let workload = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload without name")?;
        for gate in &gates {
            let (va, vb) = (
                values(&runs_a, workload, &gate.name),
                values(&runs_b, workload, &gate.name),
            );
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<18} {:<20} missing on one side", gate.name);
                clean = false;
                continue;
            }
            let (ma, mb, verdict) = judge(gate, &va, &vb);
            clean &= verdict != Verdict::Worse;
            println!(
                "{workload:<18} {:<20} {ma:>14.4} {mb:>14.4} {:>9.4}  {}",
                gate.name,
                mb / ma,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let (fa, fb) = (
            failure_share(&runs_a, workload),
            failure_share(&runs_b, workload),
        );
        if fb > fa {
            println!("{workload:<18} failed/attempted rose from {fa} to {fb}: worse");
            clean = false;
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(higher_is_better: bool) -> Gate {
        Gate {
            name: "m".into(),
            higher_is_better,
            bound: 0.1,
        }
    }

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        // Lower is better: 100 → 109 is inside the bound, 100 → 111 is not.
        assert_eq!(judge(&gate(false), &[100.0], &[109.0]).2, Verdict::Ok);
        assert_eq!(judge(&gate(false), &[100.0], &[111.0]).2, Verdict::Worse);
        assert_eq!(judge(&gate(false), &[100.0], &[50.0]).2, Verdict::Ok);
        // Higher is better: a drop is what counts.
        assert_eq!(judge(&gate(true), &[100.0], &[91.0]).2, Verdict::Ok);
        assert_eq!(judge(&gate(true), &[100.0], &[89.0]).2, Verdict::Worse);
        assert_eq!(judge(&gate(true), &[100.0], &[150.0]).2, Verdict::Ok);
    }

    #[test]
    fn wide_spread_is_unresolved_not_ok() {
        let steady = [100.0, 101.0, 99.0, 100.0];
        let noisy = [100.0, 130.0, 70.0, 100.0, 115.0, 85.0];
        assert_eq!(judge(&gate(false), &steady, &steady).2, Verdict::Ok);
        assert_eq!(judge(&gate(false), &steady, &noisy).2, Verdict::Unresolved);
        // Worse beats unresolved: a median past the bound is reported.
        let slow: Vec<f64> = noisy.iter().map(|v| v * 1.5).collect();
        assert_eq!(judge(&gate(false), &steady, &slow).2, Verdict::Worse);
    }

    #[test]
    fn reads_gates_and_runs_from_documents() {
        let benchmark = Json::parse(
            r#"{"workloads":[{"name":"w","why":"x"}],
                "end_to_end":[{"name":"qps","unit":"ops/s","better":"higher","bound":0.1}]}"#,
        )
        .unwrap();
        assert_eq!(
            gates(&benchmark).unwrap(),
            vec![Gate {
                name: "qps".into(),
                higher_is_better: true,
                bound: 0.1
            }]
        );
        let run = |qps: f64, failed: f64, trace: f64| {
            Json::parse(&format!(
                r#"{{"workload":"w","trace":{trace},"attempted":10,"failed":{failed},
                    "metrics":{{"qps":{{"value":{qps},"unit":"ops/s"}}}}}}"#
            ))
            .unwrap()
        };
        let a = Json::obj([(
            "runs",
            Json::Arr(vec![run(100.0, 0.0, 0.0), run(1.0, 0.0, 1.0)]),
        )]);
        assert_eq!(values(&runs(&a), "w", "qps"), vec![100.0]);
        assert!(compare(&benchmark, &a, &run(95.0, 0.0, 0.0)).unwrap());
        assert!(!compare(&benchmark, &a, &run(80.0, 0.0, 0.0)).unwrap());
        // A higher failure share fails the comparison on its own.
        assert!(!compare(&benchmark, &a, &run(100.0, 1.0, 0.0)).unwrap());
    }
}
