//! Fault-injection integration: a zero-intensity plan must be provably
//! a no-op, same-seed plans must replay identically, a manager crash
//! must cycle the discovery breaker (observable in the trace), and
//! drop faults must degrade service without killing it.

use armada::chaos::{FaultPlan, InjectorStats, LinkFaults, PeerId};
use armada::core::{EnvSpec, RunResult, Scenario, Strategy};
use armada::types::{SimDuration, SimTime, UserId};

const SEED: u64 = 42;
const N_USERS: usize = 8;
const DURATION_S: u64 = 30;

fn run_with(plan: Option<FaultPlan>) -> RunResult {
    let mut scenario = Scenario::new(EnvSpec::realworld(N_USERS), Strategy::client_centric())
        .duration(SimDuration::from_secs(DURATION_S))
        .seed(SEED);
    if let Some(plan) = plan {
        scenario = scenario.with_fault_plan(plan);
    }
    scenario.run()
}

/// The acceptance criterion for determinism's baseline: installing a
/// zero-intensity plan must change nothing — same samples, same
/// attachments, and the injector provably never touched a message.
#[test]
fn zero_intensity_plan_is_a_no_op() {
    let clean = run_with(None);
    let noop = run_with(Some(FaultPlan::new(SEED)));

    assert_eq!(clean.recorder().len(), noop.recorder().len());
    assert_eq!(clean.recorder().mean(), noop.recorder().mean());
    for i in 0..N_USERS {
        let user = UserId::new(i as u64);
        assert_eq!(
            clean.world().client(user).unwrap().current_node(),
            noop.world().client(user).unwrap().current_node(),
            "user {i} attached differently under the no-op plan"
        );
    }
    assert_eq!(
        noop.world().fault_stats().expect("plan installed"),
        InjectorStats::default(),
        "a no-op plan must never evaluate a message"
    );
    assert_eq!(noop.world().breaker_transitions(), 0);
    assert_eq!(noop.world().degraded_users(), 0);
}

/// Drop faults on every link degrade delivery (the injector records
/// real losses) but the protocol's timeouts and retries keep every
/// user attached and streaming to the end.
#[test]
fn drop_faults_degrade_but_do_not_kill() {
    let faulty = run_with(Some(
        FaultPlan::new(SEED).with_faults(LinkFaults::lossy(0.05)),
    ));
    let stats = faulty.world().fault_stats().expect("plan installed");
    assert!(stats.decided > 0, "messages must have been evaluated");
    assert!(stats.dropped > 0, "a 5% drop rate must actually bite");
    assert!(stats.success_rate() < 1.0);
    assert!(
        stats.success_rate() > 0.8,
        "losses must stay near the configured rate, got {}",
        stats.success_rate()
    );
    assert!(!faulty.recorder().is_empty(), "frames still flowed");
    for i in 0..N_USERS {
        let user = UserId::new(i as u64);
        assert!(
            faulty
                .world()
                .client(user)
                .unwrap()
                .current_node()
                .is_some(),
            "user {i} must still be attached at the end"
        );
    }
}

#[cfg(feature = "trace")]
mod traced {
    use super::*;
    use armada::trace::{inspect, MemorySink, Severity, Tracer};

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

    /// Byte-level form of the no-op criterion: the full event stream of
    /// a zero-intensity run is identical to a run with no chaos at all.
    #[test]
    fn zero_intensity_trace_is_byte_identical_to_no_chaos() {
        let (clean, _) = traced_run(None);
        let (noop, _) = traced_run(Some(FaultPlan::new(SEED)));
        assert!(!clean.is_empty());
        assert_eq!(clean, noop, "zero-intensity chaos must be invisible");
    }

    /// Same-seed fault plans replay the exact same fault sequence: two
    /// runs under an aggressive plan are byte-identical.
    #[test]
    fn same_seed_fault_plan_replays_byte_identically() {
        let plan = || {
            FaultPlan::new(7)
                .with_faults(LinkFaults::uniform(0.3))
                .with_sync_drop(0.1)
        };
        let (first, a) = traced_run(Some(plan()));
        let (second, b) = traced_run(Some(plan()));
        assert!(!first.is_empty());
        assert_eq!(first, second, "fault replay must be deterministic");
        assert_eq!(
            a.world().fault_stats(),
            b.world().fault_stats(),
            "the same faults must have fired"
        );
        let stats = a.world().fault_stats().expect("plan installed");
        assert!(stats.dropped > 0 && stats.delayed > 0 && stats.duplicated > 0);
    }

    /// The sim-side breaker criterion: a manager crash window drives
    /// every discovery into failure until the per-user breakers open,
    /// the restart lets a half-open probe through, and the full
    /// closed → open → half-open → closed cycle lands in the trace.
    #[test]
    fn manager_crash_cycles_the_breaker_and_degraded_mode() {
        let plan = FaultPlan::new(SEED).crash(
            PeerId::manager(0),
            SimTime::from_secs(6),
            SimTime::from_secs(14),
        );
        let (text, result) = traced_run(Some(plan));
        let events = inspect::parse_jsonl(&text).expect("trace parses");
        let count = |kind: &str| events.iter().filter(|e| e.kind == kind).count();

        assert_eq!(count("chaos.crash"), 1, "the crash must be traced");
        assert_eq!(count("chaos.restart"), 1, "and the restart");
        assert!(count("chaos.breaker.open") > 0, "breakers must open");
        assert!(
            count("chaos.breaker.half_open") > 0,
            "cooldowns must produce half-open probes"
        );
        assert!(
            count("chaos.breaker.close") > 0,
            "the restart must reclose breakers"
        );
        assert!(count("chaos.degraded") > 0, "outage enters degraded mode");
        assert!(
            count("chaos.degraded.recovered") > 0,
            "recovery must reconcile degraded users"
        );
        // The cycle is ordered per user: open strictly before the last
        // close, and a half-open in between.
        let first_open = events.iter().position(|e| e.kind == "chaos.breaker.open");
        let last_close = events.iter().rposition(|e| e.kind == "chaos.breaker.close");
        let half = events
            .iter()
            .position(|e| e.kind == "chaos.breaker.half_open");
        let (open, close, half) = (
            first_open.expect("open"),
            last_close.expect("close"),
            half.expect("half-open"),
        );
        assert!(open < half && half < close, "cycle order open→half→close");

        assert!(result.world().breaker_transitions() > 0);
        assert_eq!(
            result.world().degraded_users(),
            0,
            "everyone reconciled after the restart"
        );
        for i in 0..N_USERS {
            let user = UserId::new(i as u64);
            assert!(
                result
                    .world()
                    .client(user)
                    .unwrap()
                    .current_node()
                    .is_some(),
                "user {i} must end the run attached"
            );
        }
    }

    /// Regression: every `T_probing` tick during a manager outage used
    /// to start a retry chain of its own that never merged with the
    /// ones before it, so a user hammered the dead control plane
    /// harder the longer it was down. At most one discovery retry is
    /// pending per user: attempts per 10 s window stay level.
    #[test]
    fn discovery_retries_do_not_multiply_across_a_long_outage() {
        const CRASH_S: u64 = 6;
        const OUTAGE_S: u64 = 60;
        let sink = MemorySink::new();
        let buffer = sink.buffer();
        let tracer = Tracer::with_sink(Box::new(sink), Severity::Debug);
        let plan = FaultPlan::new(SEED).crash(
            PeerId::manager(0),
            SimTime::from_secs(CRASH_S),
            SimTime::from_secs(CRASH_S + OUTAGE_S),
        );
        let result = Scenario::new(EnvSpec::realworld(1), Strategy::client_centric())
            .duration(SimDuration::from_secs(CRASH_S + OUTAGE_S + 14))
            .seed(SEED)
            .with_fault_plan(plan)
            .with_tracer(tracer.clone())
            .run();
        tracer.flush();
        let text = buffer.lock().expect("not poisoned").clone();
        let events = inspect::parse_jsonl(&text).expect("trace parses");

        // Every discovery the outage fails or gates runs on the cached
        // shortlist and says so.
        let mut attempts = [0usize; (OUTAGE_S / 10) as usize];
        for event in events.iter().filter(|e| e.kind == "chaos.degraded") {
            let into_outage_s = event.t_us / 1_000_000 - CRASH_S;
            attempts[(into_outage_s / 10) as usize] += 1;
        }
        assert!(attempts[0] > 0, "the outage must be noticed: {attempts:?}");
        let settled = &attempts[1..];
        let (low, high) = (
            settled.iter().min().expect("windows"),
            settled.iter().max().expect("windows"),
        );
        assert!(
            *high <= low + low / 2,
            "attempts per 10 s window must stay level, got {attempts:?}"
        );

        let world = result.world();
        assert_eq!(world.degraded_users(), 0, "reconciled after the restart");
        let client = world.client(UserId::new(0)).expect("user 0");
        assert!(client.current_node().is_some(), "still attached at the end");
    }
}
