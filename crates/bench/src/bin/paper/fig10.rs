//! Figure 10: fault tolerance under churn. (a) latency impact of a
//! failure under proactive vs. reactive connections; (b) the number of
//! hard failures experienced by all users for TopN ∈ {1..5}.
//!
//! Paper shape: (a) reactive re-connect shows a large latency/service
//! gap where proactive switching shows none; (b) TopN = 2 already
//! removes most failures, and from TopN = 3 the count reaches ~0.

use armada_bench::{print_csv, print_table, Harness};
use armada_churn::ChurnTrace;
use armada_core::{EnvSpec, RunResult, Scenario, Strategy};
use armada_metrics::BenchReport;
use armada_types::{ClientConfig, SimDuration, SimTime};

/// Names the run report, and the trace files under `ARMADA_TRACE`.
pub const NAME: &str = "fig10_fault_tolerance";

const DURATION_S: u64 = 180;

fn churn_env() -> EnvSpec {
    let mut env = EnvSpec::emulation(10, 8);
    env.nodes.clear();
    env.pairwise_rtt_ms.clear();
    env
}

fn run_churn(strategy: Strategy) -> RunResult {
    Scenario::new(churn_env(), strategy)
        .with_churn(ChurnTrace::paper_fig8())
        .duration(SimDuration::from_secs(DURATION_S))
        .seed(8)
        .run()
}

/// Recovery gaps around each observed serving-node failure: the span
/// between the last response before the failure and the first response
/// after it, per affected user. Returns `(mean_ms, max_ms, events)`.
fn recovery_gaps(result: &RunResult) -> (f64, f64, usize) {
    let mut gaps = Vec::new();
    for &(user, when) in result.world().failure_events() {
        let mut before: Option<SimTime> = None;
        let mut after: Option<SimTime> = None;
        for s in result.recorder().samples() {
            if s.user != user {
                continue;
            }
            if s.at <= when {
                before = Some(s.at);
            } else if after.is_none() {
                after = Some(s.at);
                break;
            }
        }
        if let (Some(b), Some(a)) = (before, after) {
            gaps.push(a.saturating_since(b).as_millis_f64());
        }
    }
    let n = gaps.len();
    let mean = if n == 0 {
        0.0
    } else {
        gaps.iter().sum::<f64>() / n as f64
    };
    let max = gaps.iter().cloned().fold(0.0f64, f64::max);
    (mean, max, n)
}

/// Runs the experiment, recording each unit in `report`.
pub fn run(harness: &Harness, report: &mut BenchReport) {
    // One batch of 7 independent units: the two part-(a) modes plus the
    // five part-(b) TopN variants.
    let units: Vec<(&str, Strategy)> = vec![
        ("proactive", Strategy::client_centric()),
        ("reactive", Strategy::client_centric_reactive()),
        (
            "top_n=1",
            Strategy::client_centric_with(ClientConfig::default().with_top_n(1)),
        ),
        (
            "top_n=2",
            Strategy::client_centric_with(ClientConfig::default().with_top_n(2)),
        ),
        (
            "top_n=3",
            Strategy::client_centric_with(ClientConfig::default().with_top_n(3)),
        ),
        (
            "top_n=4",
            Strategy::client_centric_with(ClientConfig::default().with_top_n(4)),
        ),
        (
            "top_n=5",
            Strategy::client_centric_with(ClientConfig::default().with_top_n(5)),
        ),
    ];
    let runs = harness.run(units, |(name, strategy)| (name, run_churn(strategy)));
    for (name, result) in &runs {
        report.record(*name, DURATION_S as f64, result.recorder().len() as u64);
    }

    // (a) proactive vs reactive under identical churn.
    let (proactive, reactive) = (&runs[0].1, &runs[1].1);
    let (pro_mean, pro_max, pro_n) = recovery_gaps(proactive);
    let (rea_mean, rea_max, rea_n) = recovery_gaps(reactive);
    let rows_a = vec![
        vec![
            "proactive".into(),
            pro_n.to_string(),
            format!("{pro_mean:.0}"),
            format!("{pro_max:.0}"),
            proactive.world().total_backup_failovers().to_string(),
        ],
        vec![
            "reactive".into(),
            rea_n.to_string(),
            format!("{rea_mean:.0}"),
            format!("{rea_max:.0}"),
            reactive.world().total_backup_failovers().to_string(),
        ],
    ];
    print_table(
        "Fig. 10a — recovery after serving-node failures under churn",
        &[
            "mode",
            "failures",
            "mean recovery gap (ms)",
            "max gap (ms)",
            "backup failovers",
        ],
        &rows_a,
    );

    // (b) hard failures vs TopN.
    let mut rows_b = Vec::new();
    let mut csv = Vec::new();
    for (_, result) in &runs[2..] {
        let top_n = rows_b.len() + 1;
        let hard = result.world().total_hard_failures();
        let absorbed = result.world().total_backup_failovers();
        rows_b.push(vec![
            top_n.to_string(),
            hard.to_string(),
            absorbed.to_string(),
        ]);
        csv.push(vec![
            top_n.to_string(),
            hard.to_string(),
            absorbed.to_string(),
        ]);
    }
    print_table(
        "Fig. 10b — failures vs TopN (10 users, 180 s churn)",
        &[
            "TopN",
            "hard failures (re-discovery)",
            "failovers absorbed by backups",
        ],
        &rows_b,
    );
    print_csv("fig10b", &["top_n", "hard_failures", "absorbed"], &csv);

    let hard: Vec<u64> = rows_b.iter().map(|r| r[1].parse().unwrap()).collect();
    println!(
        "\nshape checks:\n  reactive mean recovery {} > proactive mean recovery {} : {}",
        rea_mean.round(),
        pro_mean.round(),
        rea_mean > pro_mean
    );
    println!(
        "  TopN=1 failures {} > TopN=2 failures {} >= TopN>=3 failures {:?} : {}",
        hard[0],
        hard[1],
        &hard[2..],
        hard[0] > hard[1] && hard[2..].iter().all(|&h| h <= hard[1])
    );
}
