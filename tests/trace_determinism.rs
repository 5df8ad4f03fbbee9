//! The tracing layer must be a pure observer of the simulation: the
//! same seed yields a byte-identical event stream across runs, and
//! attaching a tracer must not change what the run measures.

use armada::chaos::{FaultPlan, PeerId};
use armada::core::{EnvSpec, RunResult, Scenario, Strategy};
use armada::trace::{inspect, MemorySink, Severity, Tracer};
use armada::types::{SimDuration, SimTime, UserId};

const SEED: u64 = 42;
const DURATION_S: u64 = 20;
const KILL_AT_S: u64 = 10;

/// The node serving user 0, so the kill provokes a visible failover.
fn victim_node() -> usize {
    let pilot = Scenario::new(EnvSpec::realworld(6), Strategy::client_centric())
        .duration(SimDuration::from_secs(5))
        .seed(SEED)
        .run();
    pilot
        .world()
        .client(UserId::new(0))
        .and_then(|c| c.current_node())
        .expect("pilot run attaches user 0")
        .as_u64() as usize
}

fn run_with(tracer: Tracer, victim: usize) -> RunResult {
    let at = SimTime::from_secs(KILL_AT_S);
    let crash = FaultPlan::new(SEED).crash(PeerId::node(victim as u64), at, SimTime::MAX);
    Scenario::new(EnvSpec::realworld(6), Strategy::client_centric())
        .duration(SimDuration::from_secs(DURATION_S))
        .seed(SEED)
        .with_fault_plan(crash)
        .with_tracer(tracer)
        .run()
}

fn traced_run(victim: usize) -> (String, RunResult) {
    let sink = MemorySink::new();
    let buffer = sink.buffer();
    let tracer = Tracer::with_sink(Box::new(sink), Severity::Debug);
    let result = run_with(tracer.clone(), victim);
    tracer.flush();
    let text = buffer.lock().expect("not poisoned").clone();
    (text, result)
}

#[cfg(feature = "trace")]
#[test]
fn same_seed_runs_emit_byte_identical_traces() {
    let victim = victim_node();
    let (first, result_a) = traced_run(victim);
    let (second, result_b) = traced_run(victim);
    assert!(!first.is_empty(), "a traced failover run must emit events");
    assert_eq!(
        first, second,
        "same-seed event streams must be byte-identical"
    );
    assert_eq!(result_a.recorder().len(), result_b.recorder().len());
    assert_eq!(result_a.recorder().mean(), result_b.recorder().mean());
}

#[cfg(feature = "trace")]
#[test]
fn trace_reconstructs_the_failover() {
    let victim = victim_node();
    let (text, result) = traced_run(victim);
    let events = inspect::parse_jsonl(&text).expect("trace parses");
    let unknown = inspect::unknown_kinds(&events);
    assert!(unknown.is_empty(), "kinds not in KINDS: {unknown:?}");

    // Every user's initial join is on the timeline.
    let timeline = inspect::switch_timeline(&events);
    let joins = timeline.iter().filter(|r| r.cause == "join").count();
    assert!(joins >= 6, "expected ≥6 initial joins, saw {joins}");

    // Probe rounds conclude within the round-trip budget bookkeeping.
    let probes = inspect::probe_round_breakdown(&events);
    assert!(probes.started > 0);
    assert!(probes.concluded > 0);

    // The killed node shows up as a failure with a measurable gap —
    // the quantity Fig. 4 plots as failover downtime.
    let downtime = inspect::failover_downtime(&events);
    assert!(
        !downtime.is_empty(),
        "killing the serving node must emit client.failure"
    );
    let gaps: Vec<u64> = downtime.iter().filter_map(|r| r.gap_us()).collect();
    assert!(!gaps.is_empty(), "service must resume after the failover");
    // The trace-derived gap must agree with the recorder: no response
    // gap can exceed the scenario horizon.
    for gap in gaps {
        assert!(gap < DURATION_S * 1_000_000, "gap {gap}µs out of range");
    }
    assert!(result.world().failure_events().iter().len() > 0);
}

#[test]
fn tracing_does_not_perturb_measurements() {
    let victim = victim_node();
    let untraced = run_with(Tracer::disabled(), victim);
    let (_, traced) = traced_run(victim);
    assert_eq!(
        untraced.recorder().len(),
        traced.recorder().len(),
        "tracing changed the number of samples"
    );
    assert_eq!(
        untraced.recorder().mean(),
        traced.recorder().mean(),
        "tracing changed the measured latencies"
    );
    assert_eq!(
        untraced.world().total_probes_sent(),
        traced.world().total_probes_sent(),
        "tracing changed protocol traffic"
    );
}
