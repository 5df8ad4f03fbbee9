//! Behavioural contracts of the predictive client strategy that only
//! show up through the full scenario runner: thrash prevention under
//! oscillating faults, stale-model re-seeding after a silence, and the
//! comparison with the reactive strategy on the real-world population.
//!
//! The first two pin their RTTs (`pairwise_rtt_ms`, jitter disabled),
//! so every divergence between the strategies is caused by the
//! injected faults alone, and the `sel.*` / `client.switch` trace
//! events serve as the oracle.

use std::collections::BTreeMap;

use armada_chaos::{FaultPlan, PeerClass, PeerId, PeerSel};
use armada_core::{EnvSpec, NodeSpec, RunResult, Scenario, Strategy, UserSpec};
use armada_trace::{MemorySink, Severity, Tracer};
use armada_types::{
    AccessNetwork, ClientConfig, GeoPoint, HardwareProfile, NodeClass, SelectorMode, SimDuration,
    SimTime, UserId,
};

/// Three identical nodes at 10/20/30 ms from a single user, no jitter:
/// the only thing that ever changes is what the fault plan injects.
fn three_node_env() -> EnvSpec {
    let anchor = GeoPoint::new(44.9778, -93.2650);
    let node = |i: usize| NodeSpec {
        label: format!("N{i}"),
        class: NodeClass::Volunteer,
        hw: HardwareProfile::new("uniform", 8, 24.0).with_concurrency(4),
        location: anchor.offset_km(5.0 * i as f64, 0.0),
        access: AccessNetwork::DataCenter,
        extra_one_way_ms: 0.0,
    };
    let mut env = EnvSpec::emulation(1, 0);
    env.nodes = vec![node(0), node(1), node(2)];
    env.users = vec![UserSpec {
        location: anchor,
        access: AccessNetwork::HomeWifi,
        affiliations: Vec::new(),
    }];
    env.pairwise_rtt_ms = vec![(0, 0, 10.0), (0, 1, 20.0), (0, 2, 30.0)];
    env.latency.jitter_gain = 0.0;
    env
}

fn strategy(selector: SelectorMode) -> Strategy {
    Strategy::ClientCentric {
        config: ClientConfig::default()
            .with_probing_period(SimDuration::from_secs(2))
            .with_selector(selector),
        proactive: true,
    }
}

fn traced_run(env: EnvSpec, plan: FaultPlan, selector: SelectorMode, secs: u64) -> String {
    let sink = MemorySink::new();
    let buffer = sink.buffer();
    let tracer = Tracer::with_sink(Box::new(sink), Severity::Debug);
    Scenario::new(env, strategy(selector))
        .duration(SimDuration::from_secs(secs))
        .seed(7)
        .with_tracer(tracer.clone())
        .with_fault_plan(plan)
        .run();
    tracer.flush();
    let text = buffer.lock().expect("not poisoned").clone();
    text
}

fn count(trace: &str, needle: &str) -> usize {
    trace.lines().filter(|l| l.contains(needle)).count()
}

fn at(secs: u64) -> SimTime {
    SimTime::from_secs(secs)
}

/// Oscillating-RTT chaos: the user's best node (10 ms) is slowed 8×
/// in five 2-second windows, healing between them. The reactive
/// client flees inside every bad window and crawls back in every good
/// one; the predictive client's forecast calls each dip transient and
/// its noise gate holds the line.
#[test]
fn predictive_does_not_thrash_under_oscillating_rtt() {
    let plan = |seed| {
        let mut p = FaultPlan::new(seed);
        for k in 0..5u64 {
            let from = 5 + k * 4;
            p = p.slow_peer_during(PeerSel::One(PeerId::node(0)), 8.0, at(from), at(from + 2));
        }
        p
    };
    let reactive = traced_run(three_node_env(), plan(7), SelectorMode::Reactive, 26);
    let predictive = traced_run(three_node_env(), plan(7), SelectorMode::Predictive, 26);

    let reactive_switches = count(&reactive, r#""kind":"client.switch""#);
    // `sel.switch` mirrors every voluntary switch the predictive
    // selector makes — the trace is the oracle, not client counters.
    let predictive_switches = count(&predictive, r#""kind":"sel.switch""#);
    assert!(
        reactive_switches >= 6,
        "the oscillation must thrash the reactive client (saw {reactive_switches} switches)"
    );
    assert!(
        predictive_switches <= 2,
        "the predictive client must hold through transient dips \
         (saw {predictive_switches} switches)"
    );
    // The restraint is a decision, not an accident: the predictor must
    // have vetoed rounds where the raw measurement said "switch".
    assert!(
        count(&predictive, r#""vetoed":1"#) >= 1,
        "at least one round must record a predictive veto"
    );
}

/// A node silenced mid-run longer than `stale_after` must come back
/// with a re-seeded RTT model, not a frozen snapshot of its glory
/// days. Node 0 (10 ms) is partitioned from the user for 32 s and is
/// 4× slower once it heals: if the forecast re-seeds on the first
/// post-heal probe the client correctly leaves it parked; a frozen
/// 10 ms model would blend the fresh 40 ms sample into a flattering
/// average and pull the client back onto the degraded node.
#[test]
fn silenced_node_reseeds_instead_of_blending() {
    let plan = FaultPlan::new(7)
        .partition(
            PeerSel::One(PeerId::node(0)),
            PeerSel::Class(PeerClass::User),
            at(4),
            at(36),
        )
        .slow_peer_during(PeerSel::One(PeerId::node(0)), 4.0, at(36), at(60));
    let trace = traced_run(three_node_env(), plan, SelectorMode::Predictive, 60);

    // The partition kicks the user off node 0 (failover or re-probe).
    assert!(
        count(&trace, r#""kind":"client.switch""#) + count(&trace, r#""kind":"client.failover""#)
            >= 1,
        "the partition must move the user off node 0"
    );
    // After the heal, node 0 answers probes again at 40 ms — worse
    // than the 20 ms the user has been enjoying on node 1. No switch
    // back onto node 0 may happen for the rest of the run.
    let returned = trace
        .lines()
        .filter(|l| l.contains(r#""kind":"client.switch""#) || l.contains(r#""kind":"sel.switch""#))
        .filter(|l| l.contains(r#""to":0"#))
        .filter(|l| {
            // Only consider events after the heal at t=36 s.
            l.split(r#""t_us":"#)
                .nth(1)
                .and_then(|rest| rest.split(',').next())
                .and_then(|n| n.parse::<u64>().ok())
                .is_some_and(|t_us| t_us >= 36_000_000)
        })
        .count();
    assert_eq!(
        returned, 0,
        "a re-seeded model must not steer the client back onto the degraded node"
    );
}

/// The real-world population (12 users, 60 s, 3 s probing) under four
/// plans whose hostility varies over the run, each replayed for five
/// seeds: one seed's trajectory is a single random draw, so the claim
/// is on the seed totals. On every plan the predictive client switches
/// strictly less than the reactive one, and its downtime — time spent
/// in service gaps over 1.5 s; shorter gaps are the rate controller's
/// 1 FPS floor — is no worse. A calm plan costs neither strategy any
/// downtime, and with RTTs held flat the predictive run's trace, its
/// own `sel.*` events aside, is the reactive run's byte for byte.
#[test]
#[ignore = "52 twelve-user runs of a simulated minute; CI runs it in release with --ignored"]
fn predictive_switches_less_without_more_downtime_on_time_varying_plans() {
    const SEEDS: [u64; 5] = [42, 43, 44, 45, 46];
    const USERS: usize = 12;
    const SECS: u64 = 60;
    const OUTAGE_GAP_US: u64 = 1_500_000;

    let node = |id| PeerSel::One(PeerId::node(id));
    let users = || PeerSel::Class(PeerClass::User);
    let plans = |seed| {
        // One popular node slowed 8× for 3 s in every 6 s, five times.
        let flapping = (0..5u64).fold(FaultPlan::new(seed), |plan, k| {
            plan.slow_peer_during(node(0), 8.0, at(9 + k * 6), at(12 + k * 6))
        });
        [
            ("calm", FaultPlan::new(seed)),
            ("flapping", flapping),
            (
                "moving_partition",
                FaultPlan::new(seed)
                    .partition(node(0), users(), at(10), at(16))
                    .partition(node(5), users(), at(22), at(28))
                    .partition(node(6), users(), at(34), at(40)),
            ),
            (
                "ramped_slowdown",
                FaultPlan::new(seed)
                    .slow_peer_during(node(0), 2.0, at(10), at(20))
                    .slow_peer_during(node(0), 5.0, at(20), at(30))
                    .slow_peer_during(node(0), 12.0, at(30), at(45)),
            ),
            (
                "crash_restart",
                FaultPlan::new(seed)
                    .crash(PeerId::node(0), at(12), at(20))
                    .crash(PeerId::node(5), at(28), at(36)),
            ),
        ]
    };
    let scenario = |env, selector| {
        let config = ClientConfig::default()
            .with_probing_period(SimDuration::from_secs(3))
            .with_selector(selector);
        Scenario::new(
            env,
            Strategy::ClientCentric {
                config,
                proactive: true,
            },
        )
        .duration(SimDuration::from_secs(SECS))
    };
    // Voluntary switches, and total time in gaps over the outage
    // threshold (the tail to the end of the run included).
    let switches_and_downtime = |result: &RunResult| {
        let switches: u64 = result.world().clients().map(|c| c.stats().switches).sum();
        let mut per_user: BTreeMap<UserId, Vec<u64>> = BTreeMap::new();
        for s in result.recorder().samples() {
            per_user.entry(s.user).or_default().push(s.at.as_micros());
        }
        let mut downtime_us = 0;
        for times in per_user.values_mut() {
            times.sort_unstable();
            times.push(SECS * 1_000_000);
            downtime_us += times
                .windows(2)
                .map(|w| w[1] - w[0])
                .filter(|&gap| gap > OUTAGE_GAP_US)
                .sum::<u64>();
        }
        (switches, downtime_us)
    };

    for (i, (name, _)) in plans(0).iter().enumerate() {
        let mut totals = [(0, 0); 2];
        for seed in SEEDS {
            let plan = &plans(seed)[i].1;
            for (total, selector) in totals
                .iter_mut()
                .zip([SelectorMode::Reactive, SelectorMode::Predictive])
            {
                let result = scenario(EnvSpec::realworld(USERS), selector)
                    .seed(seed)
                    .with_fault_plan(plan.clone())
                    .run();
                let (switches, downtime_us) = switches_and_downtime(&result);
                total.0 += switches;
                total.1 += downtime_us;
            }
        }
        let [(reactive_switches, reactive_down), (predictive_switches, predictive_down)] = totals;
        if *name == "calm" {
            assert_eq!((reactive_down, predictive_down), (0, 0), "calm downtime");
            continue;
        }
        assert!(
            predictive_switches < reactive_switches,
            "{name}: predictive must switch strictly less ({predictive_switches} vs \
             {reactive_switches})"
        );
        assert!(
            predictive_down <= reactive_down,
            "{name}: predictive downtime regressed ({predictive_down} µs vs {reactive_down} µs)"
        );
    }

    let mut flat = EnvSpec::realworld(USERS);
    flat.latency.jitter_gain = 0.0;
    let trace = |selector| {
        let sink = MemorySink::new();
        let buffer = sink.buffer();
        let tracer = Tracer::with_sink(Box::new(sink), Severity::Debug);
        scenario(flat.clone(), selector)
            .seed(SEEDS[0])
            .with_tracer(tracer.clone())
            .with_fault_plan(FaultPlan::new(SEEDS[0]))
            .run();
        tracer.flush();
        let text = buffer.lock().expect("not poisoned").clone();
        text
    };
    let reactive = trace(SelectorMode::Reactive);
    let predictive: String = trace(SelectorMode::Predictive)
        .lines()
        .filter(|line| !line.contains(r#""kind":"sel."#))
        .map(|line| format!("{line}\n"))
        .collect();
    assert!(!reactive.is_empty());
    assert_eq!(reactive, predictive, "flat RTTs, no-op plan");
}
