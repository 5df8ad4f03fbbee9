//! `perf compare a.json b.json`: applies the bounds `BENCHMARK.json`
//! fixes to two records written by `perf run --out`.

use armada_json::Json;

use crate::report::{MetricDef, END_TO_END, WORKLOADS};
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The spread between same-commit values is wider than the bound,
    /// so neither "worse" nor "unchanged" can be read off the medians.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much `change` is worse than `parent`, as a share of the
/// parent's median; negative when it is better.
pub fn worsening(parent: f64, change: f64, higher_is_better: bool) -> f64 {
    let delta = if higher_is_better {
        parent - change
    } else {
        change - parent
    };
    delta / parent.abs()
}

/// `spread` is `None` when a record holds neither four runs nor a
/// run of several rounds (`--quick`): nothing can be resolved then.
pub fn verdict(def: &MetricDef, parent: f64, change: f64, spread: Option<f64>) -> Verdict {
    let bound = def.bound.expect("only end-to-end metrics are judged");
    if spread.is_none_or(|s| s > bound) {
        Verdict::Unresolved
    } else if worsening(parent, change, def.higher_is_better) > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// One side's values for a metric on a workload, with the spread that
/// goes with them: between runs when the record holds at least four,
/// else between the rounds of its one run.
struct Side {
    median: f64,
    spread: Option<f64>,
}

fn side(record: &Json, workload: &str, metric: &str) -> Option<Side> {
    let m = record
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?;
    let values: Vec<f64> = m
        .get("values")?
        .as_array()?
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    let median = stats::median(&values)?;
    let between_runs = (values.len() >= 4)
        .then(|| stats::spread(&values))
        .flatten();
    let spread = between_runs.or_else(|| m.get("round_spread").and_then(Json::as_f64));
    Some(Side { median, spread })
}

/// Prints one row per (metric, workload); `true` when no row is worse.
pub fn compare(parent: &Json, change: &Json) -> bool {
    println!(
        "{:<14} {:<20} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "parent", "change", "delta", "spread", "bound"
    );
    let mut all_ok = true;
    for workload in WORKLOADS {
        for def in &END_TO_END {
            let (Some(a), Some(b)) = (
                side(parent, workload, def.name),
                side(change, workload, def.name),
            ) else {
                println!("{workload:<14} {:<20} missing from a record", def.name);
                all_ok = false;
                continue;
            };
            // The wider of the two sides; unknown if either is.
            let spread = a.spread.zip(b.spread).map(|(x, y)| x.max(y));
            let v = verdict(def, a.median, b.median, spread);
            all_ok &= v != Verdict::Worse;
            println!(
                "{workload:<14} {:<20} {:>14.4} {:>14.4} {:>+7.1}% {:>6}% {:>6.1}%  {}",
                def.name,
                a.median,
                b.median,
                worsening(a.median, b.median, def.higher_is_better) * 100.0,
                spread.map_or("?".to_string(), |s| format!("{:.1}", s * 100.0)),
                def.bound.unwrap_or(0.0) * 100.0,
                v.as_str()
            );
        }
    }
    all_ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(higher: bool, bound: f64) -> MetricDef {
        MetricDef {
            name: "m",
            unit: "u",
            higher_is_better: higher,
            bound: Some(bound),
        }
    }

    #[test]
    fn bounds_apply_in_the_metric_s_own_direction() {
        let latency = def(false, 0.10);
        assert_eq!(verdict(&latency, 100.0, 109.0, Some(0.02)), Verdict::Ok);
        assert_eq!(verdict(&latency, 100.0, 111.0, Some(0.02)), Verdict::Worse);
        assert_eq!(verdict(&latency, 100.0, 50.0, Some(0.02)), Verdict::Ok);
        let rate = def(true, 0.10);
        assert_eq!(verdict(&rate, 1_000.0, 905.0, Some(0.02)), Verdict::Ok);
        assert_eq!(verdict(&rate, 1_000.0, 890.0, Some(0.02)), Verdict::Worse);
        assert_eq!(verdict(&rate, 1_000.0, 2_000.0, Some(0.02)), Verdict::Ok);
        assert!((worsening(1_000.0, 890.0, true) - 0.11).abs() < 1e-12);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let latency = def(false, 0.10);
        assert_eq!(
            verdict(&latency, 100.0, 101.0, Some(0.12)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&latency, 100.0, 130.0, Some(0.12)),
            Verdict::Unresolved
        );
        assert_eq!(verdict(&latency, 100.0, 100.0, None), Verdict::Unresolved);
    }

    #[test]
    fn sides_read_run_values_and_fall_back_to_round_spread() {
        let record = Json::parse(
            r#"{"workloads":{"w":{"metrics":{
                "one":{"values":[10.0],"round_spread":0.03},
                "many":{"values":[1,2,3,4,5,6,7,8,9,10],"round_spread":0.5}}}}}"#,
        )
        .unwrap();
        let one = side(&record, "w", "one").unwrap();
        assert_eq!((one.median, one.spread), (10.0, Some(0.03)));
        let many = side(&record, "w", "many").unwrap();
        assert_eq!((many.median, many.spread), (5.5, Some(1.0)));
        assert!(side(&record, "w", "absent").is_none());
    }
}
