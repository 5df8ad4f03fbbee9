//! Chaos soak: how hard can the fault injector lean on the protocol
//! before service degrades, and how fast does it come back?
//!
//! The sweep crosses **fault intensity** (uniform per-link drop / delay
//! / duplicate / reorder probabilities, [`LinkFaults::uniform`]) with a
//! **manager partition duration** (a crash-restart window on the
//! central manager starting at t=12s). Every run is the standard
//! 12-user real-world client-centric scenario under a seeded
//! [`FaultPlan`], so the whole sweep replays byte-identically. Per
//! point it reports:
//!
//! * **request success rate** from the injector's own ledger
//!   (`1 - (dropped + unreachable) / decided`);
//! * **downtime**: the worst single degraded episode any user lived
//!   through (from `chaos.degraded.recovered`'s `outage_us`);
//! * **recovery time**: how long after the manager restart the *last*
//!   user reconciled out of degraded mode;
//! * **breaker transitions**: total circuit-breaker state changes
//!   across all users (closed → open → half-open → closed cycles).
//!
//! Before the sweep, two paired runs pin the subsystem's contract:
//! a zero-intensity plan is **byte-identical** (full trace) to a run
//! with no chaos installed at all, and the most aggressive sweep point
//! **replays byte-identically** under the same seed. The binary asserts
//! both, plus a 1.0 success rate at zero intensity and a nonzero
//! success rate under every faulty point — CI smoke-runs
//! `--intensities 0,0.2 --partitions 0,4` and relies on those
//! assertions. Results land in `BENCH_chaos_soak.json`; under
//! `ARMADA_TRACE` each point's full event stream is archived as
//! `TRACE_chaos_soak_<label>.jsonl`.

use armada_bench::{list_arg, print_csv, print_table, trace_path, Harness};
use armada_chaos::{FaultPlan, LinkFaults, PeerId};
use armada_core::{EnvSpec, RunResult, Scenario, Strategy};
use armada_json::Json;
use armada_metrics::BenchReport;
use armada_trace::{inspect, MemorySink, Severity, Tracer};
use armada_types::{SimDuration, SimTime};

/// Seed for every run — the sweep is a deterministic replay.
const SEED: u64 = 42;
/// Users in the scenario (the paper's real-world population).
const N_USERS: usize = 12;
/// Virtual run length.
const DURATION_S: u64 = 40;
/// When the manager crash window opens (for partition points).
const CRASH_AT_S: u64 = 12;

/// What one `(intensity, partition)` run measured.
struct Outcome {
    intensity: f64,
    partition_s: u64,
    samples: u64,
    decided: u64,
    dropped: u64,
    success_rate: f64,
    breaker_transitions: u64,
    degraded_episodes: u64,
    downtime_max_ms: f64,
    recovery_ms: f64,
    trace_text: String,
}

/// Builds the fault plan for one sweep point. Zero intensity and zero
/// partition yield a plan that [`FaultPlan::is_noop`] confirms inert.
fn plan_for(intensity: f64, partition_s: u64) -> FaultPlan {
    let mut plan = FaultPlan::new(SEED);
    if intensity > 0.0 {
        plan = plan.with_faults(LinkFaults::uniform(intensity));
    }
    if partition_s > 0 {
        plan = plan.crash(
            PeerId::manager(0),
            SimTime::from_secs(CRASH_AT_S),
            SimTime::from_secs(CRASH_AT_S + partition_s),
        );
    }
    plan
}

/// Runs one scenario under `plan` with a memory-backed tracer and
/// returns the full event text plus the run result.
fn traced_run(plan: Option<FaultPlan>) -> (String, RunResult) {
    let sink = MemorySink::new();
    let buffer = sink.buffer();
    let tracer = Tracer::with_sink(Box::new(sink), Severity::Debug);
    let mut scenario = Scenario::new(EnvSpec::realworld(N_USERS), Strategy::client_centric())
        .duration(SimDuration::from_secs(DURATION_S))
        .seed(SEED)
        .with_tracer(tracer.clone());
    if let Some(plan) = plan {
        scenario = scenario.with_fault_plan(plan);
    }
    let result = scenario.run();
    tracer.flush();
    let text = buffer.lock().expect("not poisoned").clone();
    (text, result)
}

fn run_point(intensity: f64, partition_s: u64) -> Outcome {
    let (text, result) = traced_run(Some(plan_for(intensity, partition_s)));
    let stats = result.world().fault_stats().expect("plan installed");

    // Recovery metrics come from the trace: every degraded episode ends
    // in a `chaos.degraded.recovered` event carrying its outage length.
    let mut degraded_episodes = 0u64;
    let mut downtime_max_us = 0u64;
    let mut recovery_us = 0u64;
    let restart_us = (CRASH_AT_S + partition_s) * 1_000_000;
    if let Ok(events) = inspect::parse_jsonl(&text) {
        for event in events
            .iter()
            .filter(|e| e.kind == "chaos.degraded.recovered")
        {
            degraded_episodes += 1;
            downtime_max_us = downtime_max_us.max(event.field_u64("outage_us").unwrap_or(0));
            if partition_s > 0 && event.t_us >= restart_us {
                recovery_us = recovery_us.max(event.t_us - restart_us);
            }
        }
    }

    Outcome {
        intensity,
        partition_s,
        samples: result.recorder().len() as u64,
        decided: stats.decided,
        dropped: stats.dropped + stats.unreachable,
        success_rate: stats.success_rate(),
        breaker_transitions: result.world().breaker_transitions(),
        degraded_episodes,
        downtime_max_ms: downtime_max_us as f64 / 1_000.0,
        recovery_ms: recovery_us as f64 / 1_000.0,
        trace_text: text,
    }
}

fn main() {
    let harness = Harness::from_env();
    let intensities = list_arg("--intensities", &[0.0, 0.05, 0.15, 0.30]);
    let partitions: Vec<u64> = list_arg("--partitions", &[0.0, 4.0, 8.0])
        .into_iter()
        .map(|p| p as u64)
        .collect();

    let mut report = BenchReport::start("chaos_soak", harness.threads());
    report.attach("seed", Json::Int(SEED as i64));
    report.attach("users", Json::Int(N_USERS as i64));
    report.attach("duration_s", Json::Int(DURATION_S as i64));
    report.attach(
        "intensities",
        Json::Array(intensities.iter().map(|&i| Json::Float(i)).collect()),
    );
    report.attach(
        "partitions_s",
        Json::Array(partitions.iter().map(|&p| Json::Int(p as i64)).collect()),
    );

    // Contract 1: a zero-intensity plan is invisible — the full traced
    // event stream matches a run with no chaos installed at all.
    let (clean_text, clean) = traced_run(None);
    let (noop_text, noop) = traced_run(Some(plan_for(0.0, 0)));
    assert_eq!(
        clean.recorder().len(),
        noop.recorder().len(),
        "zero-intensity plan changed the sample count"
    );
    assert_eq!(clean.recorder().mean(), noop.recorder().mean());
    let noop_identical = clean_text == noop_text;
    assert!(
        noop_identical,
        "zero-intensity trace diverged from no-chaos"
    );
    report.attach("noop_identical", Json::Bool(noop_identical));
    println!(
        "zero-intensity plan: byte-identical to no chaos ({} trace bytes)",
        clean_text.len()
    );

    // Contract 2: the most aggressive sweep point replays
    // byte-identically under the same seed.
    let max_i = intensities.iter().copied().fold(0.0f64, f64::max);
    let max_p = partitions.iter().copied().max().unwrap_or(0);
    let (replay_a, run_a) = traced_run(Some(plan_for(max_i, max_p)));
    let (replay_b, run_b) = traced_run(Some(plan_for(max_i, max_p)));
    let deterministic =
        replay_a == replay_b && run_a.world().fault_stats() == run_b.world().fault_stats();
    assert!(deterministic, "same-seed fault replay diverged");
    report.attach("deterministic_replay", Json::Bool(deterministic));
    println!(
        "replay check at i={max_i}/p={max_p}s: byte-identical ({} trace bytes)",
        replay_a.len()
    );

    let points: Vec<(f64, u64)> = intensities
        .iter()
        .flat_map(|&i| partitions.iter().map(move |&p| (i, p)))
        .collect();
    let outcomes = harness.run(points, |(i, p)| run_point(i, p));

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for outcome in &outcomes {
        // The assertions CI's smoke run rides on: faults never push the
        // success rate to zero, and no faults means a perfect one.
        if outcome.intensity == 0.0 && outcome.partition_s == 0 {
            assert_eq!(
                outcome.success_rate, 1.0,
                "zero intensity must not lose a single message"
            );
        } else {
            assert!(
                outcome.success_rate > 0.0,
                "service died at i={}/p={}s",
                outcome.intensity,
                outcome.partition_s
            );
            assert!(outcome.samples > 0, "frames must keep flowing under faults");
        }

        let label = format!("i={}/p={}s", outcome.intensity, outcome.partition_s);
        if let Some(path) = trace_path("chaos_soak", &label) {
            let ok = path
                .parent()
                .is_none_or(|dir| std::fs::create_dir_all(dir).is_ok())
                && std::fs::write(&path, &outcome.trace_text).is_ok();
            if ok {
                report.record_trace(path.display().to_string());
            }
        }
        report.record_with(
            label,
            DURATION_S as f64,
            outcome.samples,
            vec![
                ("intensity".to_owned(), Json::Float(outcome.intensity)),
                (
                    "partition_s".to_owned(),
                    Json::Int(outcome.partition_s as i64),
                ),
                ("decided".to_owned(), Json::Int(outcome.decided as i64)),
                ("lost".to_owned(), Json::Int(outcome.dropped as i64)),
                ("success_rate".to_owned(), Json::Float(outcome.success_rate)),
                (
                    "breaker_transitions".to_owned(),
                    Json::Int(outcome.breaker_transitions as i64),
                ),
                (
                    "degraded_episodes".to_owned(),
                    Json::Int(outcome.degraded_episodes as i64),
                ),
                (
                    "downtime_max_ms".to_owned(),
                    Json::Float(outcome.downtime_max_ms),
                ),
                ("recovery_ms".to_owned(), Json::Float(outcome.recovery_ms)),
            ],
        );
        let row = vec![
            format!("{:.2}", outcome.intensity),
            outcome.partition_s.to_string(),
            outcome.samples.to_string(),
            format!("{:.4}", outcome.success_rate),
            outcome.breaker_transitions.to_string(),
            outcome.degraded_episodes.to_string(),
            format!("{:.1}", outcome.downtime_max_ms),
            format!("{:.1}", outcome.recovery_ms),
        ];
        csv.push(row.clone());
        rows.push(row);
    }

    let header = [
        "intensity",
        "partition_s",
        "samples",
        "success_rate",
        "breaker_transitions",
        "degraded_episodes",
        "downtime_max_ms",
        "recovery_ms",
    ];
    print_table("Chaos soak", &header, &rows);
    print_csv("chaos_soak", &header, &csv);

    match report.write() {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("could not write bench report: {e}"),
    }
}
