//! Figure 7: average end-to-end latency after all 15 users have joined,
//! compared to the optimal edge assignment.
//!
//! Paper numbers: client-centric ≈ +12 % over optimal; resource-aware
//! ≈ +51 %; locality-based ≈ +102 %.
//!
//! Optimal is computed on the static formulation (§III-C) from a
//! snapshot of the same environment — exact enumeration when feasible,
//! greedy + local-search otherwise (see `armada-baselines`).

use std::collections::HashMap;

use armada_bench::{ms, print_table, Harness};
use armada_core::{to_assignment_problem, EnvSpec, Scenario, Strategy};
use armada_metrics::BenchReport;
use armada_types::{SimDuration, SimTime};

/// Names the run report, and the trace files under `ARMADA_TRACE`.
pub const NAME: &str = "fig7_vs_optimal";

const USERS: usize = 15;
const SEED: u64 = 21;
const DURATION_S: u64 = 180;

/// Runs the experiment, recording each unit in `report`.
pub fn run(harness: &Harness, report: &mut BenchReport) {
    // Solve the static optimal assignment from a snapshot (application
    // profiles + emulated network, as the paper does), then *simulate*
    // that assignment under the same dynamics as every other strategy
    // so the comparison is apples-to-apples. The snapshot run gates the
    // main sweep, which then runs all four methods in parallel.
    let snapshot_run = Scenario::new(EnvSpec::emulation(USERS, SEED), Strategy::client_centric())
        .duration(SimDuration::from_secs(5))
        .seed(SEED)
        .run();
    report.record("snapshot", 5.0, snapshot_run.recorder().len() as u64);
    let (problem, node_ids) = to_assignment_problem(snapshot_run.world(), 20.0);
    let optimal_assignment = armada_baselines::optimal(&problem, SEED);
    let map: HashMap<_, _> = problem
        .users()
        .iter()
        .enumerate()
        .map(|(i, u)| (u.id, node_ids[optimal_assignment.node_of(i)]))
        .collect();

    let methods: Vec<(&str, Strategy)> = vec![
        ("optimal (static model)", Strategy::Pinned { map }),
        ("client-centric", Strategy::client_centric()),
        ("resource-aware", Strategy::ResourceAwareWrr),
        ("locality-based", Strategy::GeoProximity),
    ];
    let runs = harness.run(methods, |(name, strategy)| {
        let result = Scenario::new(EnvSpec::emulation(USERS, SEED), strategy)
            .users_joining_every(SimDuration::from_secs(10))
            .duration(SimDuration::from_secs(DURATION_S))
            .seed(SEED)
            .run();
        let steady = result
            .recorder()
            .user_mean_in_window(SimTime::from_secs(150), SimTime::from_secs(180))
            .map(|d| d.as_millis_f64())
            .unwrap_or(f64::NAN);
        (name, steady, result.recorder().len() as u64)
    });
    for &(name, _, samples) in &runs {
        report.record(name, DURATION_S as f64, samples);
    }

    let optimal_ms = runs[0].1;
    let (cc, wrr, geo) = (runs[1].1, runs[2].1, runs[3].1);
    let over = |v: f64| format!("+{:.0}%", 100.0 * (v / optimal_ms - 1.0));
    let rows = vec![
        vec![
            "optimal (static model)".into(),
            ms(optimal_ms),
            "+0%".into(),
        ],
        vec!["client-centric".into(), ms(cc), over(cc)],
        vec!["resource-aware".into(), ms(wrr), over(wrr)],
        vec!["locality-based".into(), ms(geo), over(geo)],
    ];
    print_table(
        "Fig. 7 — steady-state mean latency vs optimal (15 users, emulation)",
        &["method", "mean (ms)", "over optimal"],
        &rows,
    );
    println!("\npaper: client-centric +12%, resource-aware +51%, locality +102%");
    println!(
        "note: the static optimum fixes every user at 20 FPS and forbids mid-run\n\
         migration; the dynamic system can therefore land slightly above *or*\n\
         below it. The claim under test is *near-optimality* plus the baseline gap."
    );
    println!(
        "shape check: |client-centric - optimal| <= 15% and cc < resource-aware < locality : {}",
        (cc - optimal_ms).abs() <= 0.15 * optimal_ms && cc < wrr && wrr < geo
    );
}
