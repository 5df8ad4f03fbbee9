//! Robustness check: the headline Fig. 5 comparison (client-centric vs.
//! the edge baselines at 15 users) across many independent seeds, so the
//! reported reduction cannot be a lucky draw.
//!
//! Reports per-strategy mean latency distribution over seeds and the
//! distribution of the relative reduction achieved by client-centric.

use armada_bench::{ms, print_table, Harness, RunSpec};
use armada_core::{EnvSpec, Strategy};
use armada_metrics::{mean, percentile, stddev, BenchReport};
use armada_types::{SimDuration, SimTime};

/// Names the run report, and the trace files under `ARMADA_TRACE`.
pub const NAME: &str = "robustness_sweep";

const USERS: usize = 15;
const SEEDS: u64 = 10;
const DURATION_S: u64 = 40;

type NamedStrategy = (&'static str, fn() -> Strategy);

/// Runs the experiment, recording each unit in `report`.
pub fn run(harness: &Harness, report: &mut BenchReport) {
    let strategies: &[NamedStrategy] = &[
        ("client-centric", Strategy::client_centric),
        ("geo-proximity", || Strategy::GeoProximity),
        ("resource-aware", || Strategy::ResourceAwareWrr),
        ("dedicated-only", || Strategy::DedicatedOnly),
        ("closest-cloud", || Strategy::ClosestCloud),
    ];

    // seed-major order: specs[s * strategies + i].
    let mut specs = Vec::new();
    let mut labels = Vec::new();
    for seed in 100..100 + SEEDS {
        for (name, make) in strategies {
            specs.push(RunSpec {
                env: EnvSpec::realworld(USERS),
                strategy: make(),
                seed,
                duration: SimDuration::from_secs(DURATION_S),
            });
            labels.push(format!("{name}/seed={seed}"));
        }
    }
    let results = harness.run_specs(specs);

    let mut per_strategy: Vec<Vec<f64>> = vec![Vec::new(); strategies.len()];
    for (i, result) in results.iter().enumerate() {
        report.record(
            labels[i].clone(),
            DURATION_S as f64,
            result.recorder().len() as u64,
        );
        per_strategy[i % strategies.len()].push(
            result
                .recorder()
                .user_mean_in_window(
                    SimTime::from_secs(DURATION_S / 2),
                    SimTime::from_secs(DURATION_S),
                )
                .map(|d| d.as_millis_f64())
                .unwrap_or(f64::NAN),
        );
    }

    let rows: Vec<Vec<String>> = strategies
        .iter()
        .zip(&per_strategy)
        .map(|((name, _), values)| {
            vec![
                name.to_string(),
                ms(mean(values).unwrap()),
                ms(stddev(values).unwrap()),
                ms(percentile(values, 0.0).unwrap()),
                ms(percentile(values, 1.0).unwrap()),
            ]
        })
        .collect();
    print_table(
        &format!("Seed sweep — 15 users, {SEEDS} seeds, steady-state mean latency (ms)"),
        &["strategy", "mean", "stddev", "best seed", "worst seed"],
        &rows,
    );

    // Per-seed reduction of client-centric against the best edge baseline
    // of that same seed (geo / wrr / dedicated).
    let reductions: Vec<f64> = (0..SEEDS as usize)
        .map(|s| {
            let cc = per_strategy[0][s];
            let best_baseline = per_strategy[1][s]
                .min(per_strategy[2][s])
                .min(per_strategy[3][s]);
            100.0 * (1.0 - cc / best_baseline)
        })
        .collect();
    println!(
        "\nreduction vs best edge baseline per seed: mean {:.0}%, min {:.0}%, max {:.0}% (paper: 18-46%)",
        mean(&reductions).unwrap(),
        percentile(&reductions, 0.0).unwrap(),
        percentile(&reductions, 1.0).unwrap(),
    );
    let wins = (0..SEEDS as usize)
        .filter(|&s| {
            per_strategy[0][s]
                < per_strategy[1][s]
                    .min(per_strategy[2][s])
                    .min(per_strategy[3][s])
        })
        .count();
    println!("client-centric wins in {wins}/{SEEDS} seeds");
}
