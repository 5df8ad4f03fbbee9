//! Figure 5: global average end-to-end latency with an increasing
//! number of users (1–15) in the real-world environment, TopN = 3.
//!
//! Paper shape: client-centric stays lowest and degrades gracefully;
//! geo-proximity and resource-aware degrade faster under load;
//! dedicated-only hits its capacity knee and ends *worse than cloud* at
//! 15 users; cloud is a flat, high line. The paper reports 18–46 %
//! latency reduction for client-centric at high demand.

use armada_bench::{ms, print_csv, print_table, Harness};
use armada_core::{EnvSpec, Scenario, Strategy};
use armada_metrics::BenchReport;
use armada_types::{SimDuration, SimTime};

/// Names the run report, and the trace files under `ARMADA_TRACE`.
pub const NAME: &str = "fig5_elasticity";

const DURATION_S: u64 = 40;

type StrategyMaker = fn() -> Strategy;

/// Runs the experiment, recording each unit in `report`.
pub fn run(harness: &Harness, report: &mut BenchReport) {
    let strategies: Vec<(&str, StrategyMaker)> = vec![
        ("client-centric", Strategy::client_centric),
        ("geo-proximity", || Strategy::GeoProximity),
        ("resource-aware", || Strategy::ResourceAwareWrr),
        ("dedicated-only", || Strategy::DedicatedOnly),
        ("closest-cloud", || Strategy::ClosestCloud),
    ];
    let counts = [1usize, 3, 5, 7, 9, 11, 13, 15];

    // One independent run per (user count, strategy) pair.
    let mut specs = Vec::new();
    for &n in &counts {
        for (name, make) in &strategies {
            specs.push((n, *name, make()));
        }
    }
    let runs = harness.run(specs, |(n, name, strategy)| {
        let result = Scenario::new(EnvSpec::realworld(n), strategy)
            .duration(SimDuration::from_secs(DURATION_S))
            .seed(5)
            .run();
        // Steady-state window (user-weighted): skip the first half.
        let mean = result
            .recorder()
            .user_mean_in_window(
                SimTime::from_secs(DURATION_S / 2),
                SimTime::from_secs(DURATION_S),
            )
            .map(|d| d.as_millis_f64())
            .unwrap_or(f64::NAN);
        (n, name, mean, result.recorder().len() as u64)
    });
    for &(n, name, _, samples) in &runs {
        report.record(format!("users={n}/{name}"), DURATION_S as f64, samples);
    }

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut table: Vec<Vec<f64>> = Vec::new();
    for chunk in runs.chunks(strategies.len()) {
        let n = chunk[0].0;
        let mut row = vec![n.to_string()];
        let mut values = Vec::new();
        for &(_, name, mean, _) in chunk {
            row.push(ms(mean));
            values.push(mean);
            csv.push(vec![n.to_string(), name.to_string(), ms(mean)]);
        }
        table.push(values);
        rows.push(row);
    }
    print_table(
        "Fig. 5 — mean end-to-end latency vs. #users (ms), real-world setup, TopN=3",
        &[
            "users",
            "client-centric",
            "geo-prox",
            "res-aware",
            "dedicated",
            "cloud",
        ],
        &rows,
    );
    print_csv("fig5", &["users", "strategy", "mean_ms"], &csv);

    let last = table.last().unwrap();
    let cc = last[0];
    let best_baseline = last[1..4].iter().cloned().fold(f64::INFINITY, f64::min);
    let reduction = 100.0 * (1.0 - cc / best_baseline);
    println!("\nshape checks at 15 users:");
    println!(
        "  client-centric {} < all edge baselines {:?} : {}",
        ms(cc),
        &last[1..4].iter().map(|v| ms(*v)).collect::<Vec<_>>(),
        last[1..4].iter().all(|&v| cc < v)
    );
    println!(
        "  dedicated-only {} > cloud {} (capacity knee) : {}",
        ms(last[3]),
        ms(last[4]),
        last[3] > last[4]
    );
    println!("  latency reduction vs best edge baseline: {reduction:.0}% (paper: 18-46%)");
}
