//! Figure 8: average latency trace of 10 static users under high node
//! churn (TopN = 3), alongside the alive-node stair line.
//!
//! Paper shape: latency drops within seconds whenever new nodes join
//! (dynamic load balancing via periodic probing) and rises when nodes
//! leave — but service never stops, because backup connections take
//! over instantly.

use armada_bench::{print_csv, print_table, trace_path, tracer_for, Harness};
use armada_churn::ChurnTrace;
use armada_core::{EnvSpec, Scenario, Strategy};
use armada_metrics::BenchReport;
use armada_types::{SimDuration, SimTime};

/// Names the run report, and the trace files under `ARMADA_TRACE`.
pub const NAME: &str = "fig8_churn_trace";

const DURATION_S: u64 = 180;

/// Runs the experiment, recording each unit in `report`.
pub fn run(harness: &Harness, report: &mut BenchReport) {
    let trace = ChurnTrace::paper_fig8();
    println!(
        "churn trace: {} nodes over {:.0}s, {} alive at t=0",
        trace.total_nodes(),
        trace.duration().as_secs_f64(),
        trace.alive_at(SimTime::ZERO)
    );

    let mut env = EnvSpec::emulation(10, 8);
    env.nodes.clear(); // all nodes come from the churn trace
    env.pairwise_rtt_ms.clear();

    // A single scenario; it still goes through the harness so the wall
    // time lands in the bench report like every other figure.
    let run_trace = trace.clone();
    let result = harness
        .run(vec![(env, run_trace)], |(env, trace)| {
            let tracer = tracer_for(NAME, "churn/top_n=3");
            let result = Scenario::new(env, Strategy::client_centric())
                .with_churn(trace)
                .duration(SimDuration::from_secs(DURATION_S))
                .seed(8)
                .with_tracer(tracer.clone())
                .run();
            tracer.flush();
            result
        })
        .pop()
        .expect("one run");
    report.record(
        "churn/top_n=3",
        DURATION_S as f64,
        result.recorder().len() as u64,
    );
    if let Some(path) = trace_path(NAME, "churn/top_n=3") {
        report.record_trace(path.display().to_string());
    }

    let bins = result
        .recorder()
        .binned_user_mean(SimDuration::from_secs(5));
    let mut rows = Vec::new();
    for (t, latency) in &bins {
        rows.push(vec![
            format!("{:.0}", t.as_secs_f64()),
            format!("{:.1}", latency.as_millis_f64()),
            trace.alive_at(*t).to_string(),
        ]);
    }
    print_csv(
        "fig8_trace",
        &["time_s", "mean_latency_ms", "alive_nodes"],
        &rows,
    );

    // Correlation check: average latency when many nodes are alive
    // should undercut the average when few are alive.
    let (mut rich, mut poor) = (Vec::new(), Vec::new());
    for (t, latency) in &bins {
        if trace.alive_at(*t) >= 6 {
            rich.push(latency.as_millis_f64());
        } else if trace.alive_at(*t) <= 3 {
            poor.push(latency.as_millis_f64());
        }
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let summary = vec![
        vec![
            "≥6 nodes alive".into(),
            format!("{:.1}", avg(&rich)),
            rich.len().to_string(),
        ],
        vec![
            "≤3 nodes alive".into(),
            format!("{:.1}", avg(&poor)),
            poor.len().to_string(),
        ],
    ];
    print_table(
        "Fig. 8 — latency vs resource availability",
        &["condition", "mean latency (ms)", "bins"],
        &summary,
    );
    println!(
        "\nhard failures (service interruptions needing re-discovery): {}",
        result.world().total_hard_failures()
    );
    println!(
        "backup failovers (absorbed invisibly): {}",
        result.world().total_backup_failovers()
    );
    println!(
        "shape check: more alive nodes => lower latency : {}",
        avg(&rich) < avg(&poor)
    );
}
