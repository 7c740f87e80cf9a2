//! `--compare A B`: two run sets side by side, judged against the bounds in
//! `BENCHMARK.json`.
//!
//! A run set is a file of JSON lines, one per run, as `--append` writes
//! them: `{"workload": …, "seed": …, "trace": 0|1, "run_s": …, "raw": {…},
//! "result": {…}}`. Only untraced runs (the ones that carry end-to-end
//! metrics) are compared.
//!
//! The result's times are normalized by the host probe, and a change that
//! slowed the probe (threads left busy, a working set that evicts the
//! probe's buffers) would read as a speed-up. So each metric's raw
//! wall-clock value is judged too, as `raw.<metric>` against the same
//! bound, and so is the probe itself, `raw.host_probe_ms`, against the
//! bound of `session_p50_ms`.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::stats::{median, quartiles, relative_spread};

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// Metric values per workload per metric, from one run set.
pub type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// The end-to-end metrics and their bounds.
pub fn parse_bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc: Value = serde_json::from_str(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = doc.get("end_to_end").and_then(Value::as_array).ok_or("BENCHMARK.json: no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str).ok_or("end_to_end entry without a name")?;
            let better =
                m.get("better").and_then(Value::as_str).ok_or("end_to_end entry without `better`")?;
            let bound = m.get("bound").and_then(Value::as_f64).ok_or("end_to_end entry without a bound")?;
            Ok(Bound { name: name.to_string(), lower_is_better: better == "lower", bound })
        })
        .collect()
}

/// Parses a run-set file; lines that are not untraced runs are skipped.
pub fn parse_run_set(text: &str) -> Result<RunSet, String> {
    let mut set = RunSet::new();
    for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let run: Value = serde_json::from_str(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        if run.get("trace").and_then(Value::as_u64) != Some(0) {
            continue;
        }
        let workload =
            run.get("workload").and_then(Value::as_str).ok_or(format!("line {}: no workload", n + 1))?;
        let metrics = run
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Value::as_object)
            .ok_or(format!("line {}: no result metrics", n + 1))?;
        let per_metric = set.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                per_metric.entry(name.clone()).or_default().push(v);
            }
        }
        for (name, v) in run.get("raw").and_then(Value::as_object).into_iter().flatten() {
            if let Some(v) = v.as_f64() {
                per_metric.entry(format!("raw.{name}")).or_default().push(v);
            }
        }
    }
    Ok(set)
}

/// How one workload × metric compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// B is no worse than A by more than the bound.
    Ok,
    /// B is worse than A by more than the bound.
    Regression,
    /// A's own runs spread wider than the bound, so the bound cannot decide.
    Unresolved,
}

/// Judges B against A: the signed change of B's median against A's, in
/// the "worse" direction, as a share of A's median.
pub fn judge(bound: &Bound, a: &[f64], b: &[f64]) -> (Status, f64) {
    let (ma, mb) = (median(a).unwrap_or(f64::NAN), median(b).unwrap_or(f64::NAN));
    let change = (mb - ma) / ma;
    let worse = if bound.lower_is_better { change } else { -change };
    let status = if relative_spread(a).is_some_and(|s| s > bound.bound) {
        Status::Unresolved
    } else if worse > bound.bound {
        Status::Regression
    } else {
        Status::Ok
    };
    (status, worse)
}

fn describe(values: &[f64]) -> String {
    match (median(values), quartiles(values)) {
        (Some(m), Some((q1, q3))) => format!("{m:.4} [{q1:.4}, {q3:.4}] n={}", values.len()),
        (Some(m), None) => format!("{m:.4} n=1"),
        _ => "-".to_string(),
    }
}

/// Every row `--compare` judges: each end-to-end metric, its raw
/// wall-clock value, and the host probe.
fn judged(bounds: &[Bound]) -> Vec<Bound> {
    let raw = bounds.iter().map(|b| Bound { name: format!("raw.{}", b.name), ..b.clone() });
    let probe = bounds.iter().find(|b| b.name == "session_p50_ms").map(|b| Bound {
        name: "raw.host_probe_ms".to_string(),
        lower_is_better: true,
        bound: b.bound,
    });
    bounds.iter().cloned().chain(raw).chain(probe).collect()
}

/// Prints the comparison table; returns true when no row regressed.
pub fn compare(bounds: &[Bound], a: &RunSet, b: &RunSet) -> bool {
    let bounds = judged(bounds);
    println!("| workload | metric | A median [q1, q3] | B median [q1, q3] | B worse by | bound | A spread | status |");
    println!("|---|---|---|---|---|---|---|---|");
    let mut clean = true;
    for (workload, a_metrics) in a {
        let Some(b_metrics) = b.get(workload) else {
            println!("| {workload} | (absent from B) | | | | | | |");
            continue;
        };
        for bound in &bounds {
            let (Some(av), Some(bv)) = (a_metrics.get(&bound.name), b_metrics.get(&bound.name)) else {
                continue;
            };
            let (status, worse) = judge(bound, av, bv);
            clean &= status != Status::Regression;
            let spread = relative_spread(av).map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0));
            println!(
                "| {workload} | {} | {} | {} | {:+.1}% | {:.0}% | {spread} | {:?} |",
                bound.name,
                describe(av),
                describe(bv),
                worse * 100.0,
                bound.bound * 100.0,
                status
            );
        }
    }
    clean
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(lower: bool) -> Bound {
        Bound { name: "m".into(), lower_is_better: lower, bound: 0.1 }
    }

    #[test]
    fn judges_direction_bound_and_spread() {
        let a = [100.0, 101.0, 99.0, 100.0, 100.5];
        assert_eq!(judge(&bound(true), &a, &[105.0, 104.0, 106.0]).0, Status::Ok);
        assert_eq!(judge(&bound(true), &a, &[120.0, 121.0, 119.0]).0, Status::Regression);
        // Higher is better: a drop is the regression, a rise is not.
        assert_eq!(judge(&bound(false), &a, &[120.0, 121.0, 119.0]).0, Status::Ok);
        assert_eq!(judge(&bound(false), &a, &[80.0, 81.0, 79.0]).0, Status::Regression);
        let wide = [50.0, 100.0, 150.0, 100.0];
        assert_eq!(judge(&bound(true), &wide, &[300.0]).0, Status::Unresolved);
    }

    #[test]
    fn parses_bounds_and_run_sets() {
        let bounds = parse_bounds(
            r#"{"end_to_end": [{"name": "session_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
                               {"name": "sessions_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap();
        assert_eq!(bounds.len(), 2);
        assert!(bounds[0].lower_is_better && !bounds[1].lower_is_better);
        let set = parse_run_set(concat!(
            r#"{"workload": "w", "seed": 1, "trace": 0, "result": {"metrics": {"m": {"value": 2.5, "unit": "ms"}}}}"#,
            "\n\n",
            r#"{"workload": "w", "seed": 2, "trace": 1, "result": {"metrics": {"x": {"value": 1.0, "unit": "ms"}}}}"#,
            "\n",
            r#"{"workload": "w", "seed": 3, "trace": 0, "result": {"metrics": {"m": {"value": 3.5, "unit": "ms"}}}}"#,
        ))
        .unwrap();
        assert_eq!(set["w"]["m"], vec![2.5, 3.5]);
        assert!(!set["w"].contains_key("x"));
        assert!(parse_run_set("not json").is_err());
        let raw = parse_run_set(concat!(
            r#"{"workload": "w", "seed": 1, "trace": 0, "run_s": 14.2, "raw": {"m": 2.75, "host_probe_ms": 3.5},"#,
            r#" "result": {"metrics": {"m": {"value": 2.5, "unit": "ms"}}}}"#,
        ))
        .unwrap();
        assert_eq!(raw["w"]["raw.m"], vec![2.75]);
        assert_eq!(raw["w"]["raw.host_probe_ms"], vec![3.5]);
    }

    #[test]
    fn raw_values_and_the_probe_are_judged_too() {
        let bounds = [Bound { name: "session_p50_ms".into(), lower_is_better: true, bound: 0.2 }];
        let names: Vec<String> = judged(&bounds).into_iter().map(|b| b.name).collect();
        assert_eq!(names, ["session_p50_ms", "raw.session_p50_ms", "raw.host_probe_ms"]);
        // A slower probe scales the normalized time down; the raw row and
        // the probe row still catch the regression.
        let run = |norm: f64, raw: f64, probe: f64| {
            let mut m = BTreeMap::new();
            m.insert("session_p50_ms".to_string(), vec![norm; 3]);
            m.insert("raw.session_p50_ms".to_string(), vec![raw; 3]);
            m.insert("raw.host_probe_ms".to_string(), vec![probe; 3]);
            RunSet::from([("w".to_string(), m)])
        };
        assert!(compare(&bounds, &run(100.0, 100.0, 3.0), &run(100.0, 100.0, 3.0)));
        assert!(!compare(&bounds, &run(100.0, 100.0, 3.0), &run(95.0, 150.0, 4.5)));
    }
}
