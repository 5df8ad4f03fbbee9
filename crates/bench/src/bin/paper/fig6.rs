//! Figure 6: per-user latency traces while 15 users join one after
//! another (every 10 s) against 9 static emulated edge nodes, for three
//! selection methods.
//!
//! Paper shape: (a) locality-based piles users onto nearby nodes and
//! several users exceed 150 ms; (b) resource-aware balances load but
//! picks needlessly slow network paths; (c) client-centric keeps every
//! user low, with visible dynamic switches as load grows.

use armada_bench::{dur_ms, print_csv, print_table, trace_path, tracer_for, Harness};
use armada_core::{EnvSpec, RunResult, Scenario, Strategy};
use armada_metrics::BenchReport;
use armada_types::{SimDuration, SimTime};

/// Names the run report, and the trace files under `ARMADA_TRACE`.
pub const NAME: &str = "fig6_join_trace";

const USERS: usize = 15;
const SEED: u64 = 21;
const DURATION_S: u64 = 180;

fn run_method((name, strategy): (&'static str, Strategy)) -> (&'static str, RunResult) {
    let tracer = tracer_for(NAME, name);
    let result = Scenario::new(EnvSpec::emulation(USERS, SEED), strategy)
        .users_joining_every(SimDuration::from_secs(10))
        .duration(SimDuration::from_secs(DURATION_S))
        .seed(SEED)
        .with_tracer(tracer.clone())
        .run();
    tracer.flush();
    (name, result)
}

/// Runs the experiment, recording each unit in `report`.
pub fn run(harness: &Harness, report: &mut BenchReport) {
    let methods: Vec<(&str, Strategy)> = vec![
        ("locality", Strategy::GeoProximity),
        ("resource-aware", Strategy::ResourceAwareWrr),
        ("client-centric", Strategy::client_centric()),
    ];
    let runs = harness.run(methods, run_method);

    let mut summary = Vec::new();
    for (name, result) in &runs {
        report.record(*name, DURATION_S as f64, result.recorder().len() as u64);
        if let Some(path) = trace_path(NAME, name) {
            report.record_trace(path.display().to_string());
        }
        let mut csv = Vec::new();
        for (user, series) in result
            .recorder()
            .per_user_binned_mean(SimDuration::from_secs(2))
        {
            for (t, latency) in series {
                csv.push(vec![
                    user.to_string(),
                    format!("{:.0}", t.as_secs_f64()),
                    dur_ms(latency),
                ]);
            }
        }
        print_csv(
            &format!("fig6_{name}"),
            &["user", "time_s", "latency_ms"],
            &csv,
        );

        // Sustained QoS violations once all users are in (last 60 s):
        // the share of 2-second (user, bin) points above 150 ms. Users
        // parked on an overloaded node dominate this; transient switch
        // blips barely register.
        let (mut over, mut total) = (0usize, 0usize);
        for series in result
            .recorder()
            .per_user_binned_mean(SimDuration::from_secs(2))
            .values()
        {
            for (t, l) in series {
                if *t < SimTime::from_secs(120) {
                    continue;
                }
                total += 1;
                if l.as_millis_f64() > 150.0 {
                    over += 1;
                }
            }
        }
        let over_150 = format!("{:.1}%", 100.0 * over as f64 / total.max(1) as f64);
        let switches: u64 = result.world().clients().map(|c| c.stats().switches).sum();
        let steady = result
            .recorder()
            .user_mean_in_window(SimTime::from_secs(150), SimTime::from_secs(180))
            .map(|d| d.as_millis_f64())
            .unwrap_or(f64::NAN);
        summary.push(vec![
            name.to_string(),
            format!("{steady:.1}"),
            over_150,
            switches.to_string(),
        ]);
    }
    print_table(
        "Fig. 6 — 15 users joining every 10 s, 9 static emulated nodes",
        &[
            "method",
            "steady-state mean (ms)",
            "bins >150ms",
            "switches",
        ],
        &summary,
    );
}
