//! Figure 9: the effect of TopN ∈ {1..5} over the node-churn
//! experiment: (a) probe requests sent, (b) test-workload invocations,
//! (c) mean latency in the 60–120 s window, (d) latency standard
//! deviation across users (fairness).
//!
//! Paper shape: probes grow linearly with TopN while test-workload
//! invocations grow much more slowly (cache reads vs. state changes);
//! latency is flat-ish with a shallow optimum at TopN = 3; fairness
//! improves (stddev shrinks) with larger TopN.

use armada_bench::{print_csv, print_table, Harness};
use armada_churn::ChurnTrace;
use armada_core::{EnvSpec, Scenario, Strategy};
use armada_metrics::BenchReport;
use armada_types::{ClientConfig, SimDuration, SimTime};

/// Names the run report, and the trace files under `ARMADA_TRACE`.
pub const NAME: &str = "fig9_topn_sweep";

const DURATION_S: u64 = 180;

/// Runs the experiment, recording each unit in `report`.
pub fn run(harness: &Harness, report: &mut BenchReport) {
    let trace = ChurnTrace::paper_fig8();
    // The paper runs the experiment "multiple times" per TopN; average
    // over several seeds likewise. Every (TopN, seed) run is
    // independent.
    let seeds = [8u64, 9, 10, 11, 12];
    let mut specs = Vec::new();
    for top_n in 1..=5usize {
        for &seed in &seeds {
            specs.push((top_n, seed, trace.clone()));
        }
    }
    let runs = harness.run(specs, |(top_n, seed, trace)| {
        let mut env = EnvSpec::emulation(10, seed);
        env.nodes.clear();
        env.pairwise_rtt_ms.clear();
        let config = ClientConfig::default().with_top_n(top_n);
        let result = Scenario::new(env, Strategy::client_centric_with(config))
            .with_churn(trace)
            .duration(SimDuration::from_secs(DURATION_S))
            .seed(seed)
            .run();
        let mean = result
            .recorder()
            .user_mean_in_window(SimTime::from_secs(60), SimTime::from_secs(120))
            .map(|d| d.as_millis_f64())
            .unwrap_or(f64::NAN);
        let fairness = result
            .recorder()
            .fairness_stddev(Some((SimTime::from_secs(60), SimTime::from_secs(120))))
            .map(|d| d.as_millis_f64())
            .unwrap_or(f64::NAN);
        (
            result.world().total_probes_sent() as f64,
            result.world().total_test_invocations() as f64,
            mean,
            fairness,
            result.recorder().len() as u64,
        )
    });
    for (i, run) in runs.iter().enumerate() {
        let (top_n, seed) = (1 + i / seeds.len(), seeds[i % seeds.len()]);
        report.record(
            format!("top_n={top_n}/seed={seed}"),
            DURATION_S as f64,
            run.4,
        );
    }

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (i, chunk) in runs.chunks(seeds.len()).enumerate() {
        let top_n = i + 1;
        let k = seeds.len() as f64;
        let probes = chunk.iter().map(|r| r.0).sum::<f64>() / k;
        let tests = chunk.iter().map(|r| r.1).sum::<f64>() / k;
        let mean = chunk.iter().map(|r| r.2).sum::<f64>() / k;
        let fairness = chunk.iter().map(|r| r.3).sum::<f64>() / k;
        let row = vec![
            top_n.to_string(),
            format!("{probes:.0}"),
            format!("{tests:.0}"),
            format!("{mean:.1}"),
            format!("{fairness:.1}"),
        ];
        rows.push(row.clone());
        csv.push(row);
    }
    print_table(
        "Fig. 9 — TopN sweep over the churn experiment (10 users, 180 s)",
        &[
            "TopN",
            "(a) probe requests",
            "(b) test invocations",
            "(c) mean 60-120s (ms)",
            "(d) stddev across users (ms)",
        ],
        &rows,
    );
    print_csv(
        "fig9",
        &[
            "top_n",
            "probes",
            "test_invocations",
            "mean_ms",
            "stddev_ms",
        ],
        &csv,
    );

    let probes: Vec<f64> = rows.iter().map(|r| r[1].parse().unwrap()).collect();
    let tests: Vec<f64> = rows.iter().map(|r| r[2].parse().unwrap()).collect();
    let fairness: Vec<f64> = rows.iter().map(|r| r[4].parse().unwrap()).collect();
    println!(
        "\nshape checks:\n  probes grow with TopN (capped by alive count): x5 ratio = {:.1}",
        probes[4] / probes[0]
    );
    println!(
        "  test invocations grow far slower than probes: x5 ratio = {:.1} < probe ratio : {}",
        tests[4] / tests[0],
        tests[4] / tests[0] < probes[4] / probes[0]
    );
    let best_high = fairness[2..].iter().cloned().fold(f64::INFINITY, f64::min);
    println!(
        "  fairness: best stddev at TopN>=3 ({best_high:.1}) <= TopN=1 ({:.1}) : {}",
        fairness[0],
        best_high <= fairness[0]
    );
}
