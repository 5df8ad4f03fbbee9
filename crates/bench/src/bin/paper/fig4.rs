//! Figure 4: per-frame latency trace across a node failure — proactive
//! immediate connection switch (the paper's approach) vs. reactive
//! re-connect.
//!
//! Paper shape: the re-connect line shows a large service gap after the
//! failure while the client re-discovers; the proactive line continues
//! with at most a small blip.

use armada_bench::{dur_ms, print_csv, print_table, trace_path, tracer_for, Harness};
use armada_chaos::{FaultPlan, PeerId};
use armada_core::{EnvSpec, RunResult, Scenario, Strategy};
use armada_metrics::BenchReport;
use armada_types::{SimDuration, SimTime, UserId};

/// Names the run report, and the trace files under `ARMADA_TRACE`.
pub const NAME: &str = "fig4_failover_trace";

const KILL_AT_S: u64 = 10;
const DURATION_S: u64 = 20;

fn run_mode(name: &str, strategy: Strategy) -> RunResult {
    let mut env = EnvSpec::realworld(15);
    env.users.truncate(1);
    // Find the serving node first, then rerun with that node killed.
    let pilot = Scenario::new(env.clone(), strategy.clone())
        .duration(SimDuration::from_secs(5))
        .seed(11)
        .run();
    let serving = pilot
        .world()
        .client(UserId::new(0))
        .and_then(|c| c.current_node())
        .expect("pilot run attaches the user");
    let kill_at = SimTime::from_secs(KILL_AT_S);
    let crash = FaultPlan::new(11).crash(PeerId::node(serving.as_u64()), kill_at, SimTime::MAX);
    let tracer = tracer_for(NAME, name);
    let result = Scenario::new(env, strategy)
        .duration(SimDuration::from_secs(DURATION_S))
        .seed(11)
        .with_fault_plan(crash)
        .with_tracer(tracer.clone())
        .run();
    tracer.flush();
    result
}

/// The largest gap between consecutive responses around the failure,
/// i.e. the observed service downtime.
fn worst_gap_ms(result: &RunResult) -> f64 {
    let mut last = SimTime::ZERO;
    let mut worst = 0.0f64;
    for s in result.recorder().samples() {
        if s.at > SimTime::from_secs(KILL_AT_S - 2) {
            let gap = s.at.saturating_since(last).as_millis_f64();
            if last > SimTime::ZERO && gap > worst {
                worst = gap;
            }
        }
        last = s.at;
    }
    worst
}

/// Runs the experiment, recording each unit in `report`.
pub fn run(harness: &Harness, report: &mut BenchReport) {
    // Each mode is one independent unit (pilot + kill run).
    let modes: Vec<(&str, Strategy)> = vec![
        ("proactive", Strategy::client_centric()),
        ("reactive", Strategy::client_centric_reactive()),
    ];
    let runs = harness.run(modes, |(name, strategy)| (name, run_mode(name, strategy)));
    for (name, result) in &runs {
        report.record(*name, DURATION_S as f64, result.recorder().len() as u64);
        if let Some(path) = trace_path(NAME, name) {
            report.record_trace(path.display().to_string());
        }
    }
    let (proactive, reactive) = (&runs[0].1, &runs[1].1);

    let mut rows = Vec::new();
    for (label, result) in [("proactive", proactive), ("reactive", reactive)] {
        for s in result.recorder().samples() {
            // Plot the window around the failure.
            if s.at >= SimTime::from_secs(KILL_AT_S - 2)
                && s.at <= SimTime::from_secs(KILL_AT_S + 5)
            {
                rows.push(vec![
                    label.to_string(),
                    format!("{:.3}", s.at.as_secs_f64()),
                    dur_ms(s.latency),
                ]);
            }
        }
    }
    print_csv("fig4_trace", &["mode", "time_s", "latency_ms"], &rows);

    let summary = vec![
        vec![
            "proactive (immediate switch)".into(),
            format!("{:.0}", worst_gap_ms(proactive)),
            (proactive.world().total_backup_failovers()).to_string(),
            (proactive.world().total_hard_failures()).to_string(),
        ],
        vec![
            "reactive (re-connect)".into(),
            format!("{:.0}", worst_gap_ms(reactive)),
            (reactive.world().total_backup_failovers()).to_string(),
            (reactive.world().total_hard_failures()).to_string(),
        ],
    ];
    print_table(
        "Fig. 4 — node failure at t=10s: service gap",
        &[
            "mode",
            "worst response gap (ms)",
            "backup failovers",
            "hard failures",
        ],
        &summary,
    );
    println!(
        "\nshape check: reactive gap {} >> proactive gap {} : {}",
        worst_gap_ms(reactive).round(),
        worst_gap_ms(proactive).round(),
        worst_gap_ms(reactive) > 1.5 * worst_gap_ms(proactive)
    );
}
