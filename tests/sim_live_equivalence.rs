//! Sim and live must make the *same decisions* on the same inputs
//! (ROADMAP aim 3), and this is the test of it: one scripted scenario —
//! fixed, well-separated delays and frame times, no jitter — runs once
//! through `Scenario` in virtual time and once through `LiveManager` /
//! `LiveNode` / `LiveClient` on loopback, in both selector modes, and
//! the two decision streams must be equal.
//!
//! The script: a first selection between two nodes; a clearly better
//! node registers → migrate to it; it is dropped → fail over to the
//! warm backup; every remaining node dies → re-discovery.
//!
//! Compared, timestamps ignored: `client.join`, `client.switch` and
//! `client.failover` with their nodes, plus each probing round's
//! decision. How many `T_probing` rounds fit between two script steps
//! is a matter of clock (virtual seconds against wall milliseconds),
//! so runs of the same round decision count once.
//!
//! Reads captured traces, so it only runs with the `trace` feature
//! (the default) compiled in.

#![cfg(feature = "trace")]

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use armada::chaos::{FaultPlan, PeerId};
use armada::core::{EnvSpec, NodeSpec, Scenario, Strategy, UserSpec};
use armada::live::{LiveClient, LiveManager, LiveNode, NodeConfig};
use armada::net::LatencyModelParams;
use armada::trace::{inspect, MemorySink, Severity, Tracer};
use armada::types::{
    AccessNetwork, ClientConfig, GeoPoint, HardwareProfile, NodeClass, SelectorMode, SimDuration,
    SimTime, SystemConfig,
};

/// The cast, `(user↔node RTT ms, frame ms)` by node id: A wins the
/// first selection over B, the late joiner C beats both by far.
const NODES: [(u64, f64); 3] = [(20, 20.0), (40, 20.0), (2, 5.0)];
const A: u64 = 0;
const B: u64 = 1;
const C: u64 = 2;

/// What both runtimes must decide, in order.
const EXPECTED: [&str; 10] = [
    "round join",
    "join 0",
    "round stay",
    "round join",
    "switch 0->2",
    "round stay",
    "failover 2->0",
    "round stay",
    "failover rediscover",
    "round rediscover",
];

fn spot() -> GeoPoint {
    GeoPoint::new(44.98, -93.26)
}

fn hardware(id: u64) -> HardwareProfile {
    HardwareProfile::new(format!("node-{id}"), 4, NODES[id as usize].1).with_concurrency(4)
}

fn client_config(selector: SelectorMode) -> ClientConfig {
    ClientConfig::default()
        .with_top_n(3)
        .with_probing_period(SimDuration::from_millis(250))
        .with_selector(selector)
}

fn memory_tracer() -> (Tracer, Arc<Mutex<String>>) {
    let sink = MemorySink::new();
    let buffer = sink.buffer();
    (Tracer::with_sink(Box::new(sink), Severity::Debug), buffer)
}

/// User 0's decision stream out of a captured trace.
///
/// Whether a probing round or the next frame is first to notice that
/// the serving node died is a race of clocks in either runtime. The
/// script keeps every kill just behind a round — live by waiting for
/// one, the simulator by its (deterministic) seed — except where it
/// cannot matter: a round's `rediscover` while a node still serves
/// changes nothing (frames keep flowing until one fails), so it is not
/// counted.
fn decisions(trace: &str) -> Vec<String> {
    let node = |e: &armada::trace::TraceEvent, key: &str| e.field_u64(key).expect("node field");
    let mut out: Vec<String> = Vec::new();
    let mut serving = false;
    for e in inspect::parse_jsonl(trace).expect("trace parses") {
        if e.field_u64("user") != Some(0) {
            continue;
        }
        let token = match e.kind.as_str() {
            "probe.round.done" => match e.field_str("decision").expect("decision") {
                "rediscover" if serving => continue,
                decision => format!("round {decision}"),
            },
            "client.join" => format!("join {}", node(&e, "node")),
            "client.switch" => format!("switch {}->{}", node(&e, "from"), node(&e, "to")),
            "client.failover" => match e.field_str("action").expect("action") {
                "backup" => format!("failover {}->{}", node(&e, "from"), node(&e, "target")),
                other => format!("failover {other}"),
            },
            _ => continue,
        };
        if token.starts_with("round") {
            if out.last() == Some(&token) {
                continue;
            }
        } else {
            serving = token != "failover rediscover";
        }
        out.push(token);
    }
    out
}

/// The script in virtual time: C is down until 20 s and from 30 s on,
/// the user arrives at 10 s (C's boot-time registration has aged out of
/// discovery by then), B and A die at 40 s.
fn sim_decisions(selector: SelectorMode) -> Vec<String> {
    let node = |id: u64| NodeSpec {
        label: format!("node-{id}"),
        class: NodeClass::Volunteer,
        hw: hardware(id),
        location: spot(),
        access: AccessNetwork::Fiber,
        extra_one_way_ms: 0.0,
    };
    let env = EnvSpec {
        nodes: vec![node(A), node(B), node(C)],
        users: vec![UserSpec {
            location: spot(),
            access: AccessNetwork::HomeWifi,
            affiliations: Vec::new(),
        }],
        latency: LatencyModelParams::deterministic(),
        pairwise_rtt_ms: (0..3).map(|n| (0, n, NODES[n].0 as f64)).collect(),
        system: SystemConfig::default(),
        federation: None,
        fault_plan: None,
    };
    let secs = SimTime::from_secs;
    let plan = FaultPlan::new(1)
        .crash(PeerId::node(C), SimTime::ZERO, secs(20))
        .crash(PeerId::node(C), secs(30), SimTime::MAX);
    let (tracer, buffer) = memory_tracer();
    Scenario::new(env, Strategy::client_centric_with(client_config(selector)))
        .with_fault_plan(plan)
        .users_join_at(vec![secs(10)])
        .kill_node(B as usize, secs(40))
        .kill_node(A as usize, secs(40) + SimDuration::from_millis(1))
        .duration(SimDuration::from_secs(45))
        .seed(7)
        .with_tracer(tracer.clone())
        .run();
    tracer.flush();
    let trace = buffer.lock().expect("trace buffer").clone();
    decisions(&trace)
}

/// Blocks until the captured trace satisfies `ready`; every script step
/// waits on the client's own events, never on a guessed sleep.
fn wait_for(buffer: &Mutex<String>, what: &str, ready: impl Fn(&str) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let trace = buffer.lock().expect("trace buffer").clone();
        if ready(&trace) {
            return;
        }
        assert!(Instant::now() < deadline, "never saw {what}:\n{trace}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Waits for `event`, then for one more `stay` round after it, so the
/// next script step lands between rounds as it does in virtual time.
fn settle_after(buffer: &Mutex<String>, event: &str) {
    let stays = |trace: &str| trace.matches(r#""decision":"stay""#).count();
    wait_for(buffer, event, |trace| trace.contains(event));
    let seen = stays(&buffer.lock().expect("trace buffer"));
    wait_for(buffer, "a stay round", |trace| stays(trace) > seen);
}

/// The same script on loopback, each step triggered by the previous
/// one's outcome showing up in the client's trace.
fn live_decisions(selector: SelectorMode) -> Vec<String> {
    let (_mgr, mgr_addr) = LiveManager::bind().unwrap();
    let bind = |id: u64| {
        let cfg = NodeConfig {
            id,
            class: NodeClass::Volunteer,
            hw: hardware(id),
            location: spot(),
            one_way_delay: Duration::from_millis(NODES[id as usize].0 / 2),
        };
        LiveNode::bind(cfg, Some(mgr_addr)).unwrap().0
    };
    let (a, b) = (bind(A), bind(B));
    let (tracer, buffer) = memory_tracer();
    let client = LiveClient::new(0, spot(), client_config(selector)).with_tracer(tracer);
    std::thread::scope(|scope| {
        // Far more frames than the script lasts: the session ends when
        // the last node does.
        let session = scope.spawn(|| client.run_session(mgr_addr, 100_000));
        settle_after(&buffer, r#""kind":"client.join""#);
        let c = bind(C);
        settle_after(&buffer, r#""kind":"client.switch""#);
        c.shutdown();
        settle_after(&buffer, r#""action":"backup""#);
        b.shutdown();
        a.shutdown();
        let outcome = session.join().expect("session thread");
        assert!(outcome.is_err(), "no node is left to serve the session");
    });
    let trace = buffer.lock().expect("trace buffer").clone();
    decisions(&trace)
}

fn assert_equivalent(selector: SelectorMode) {
    let sim = sim_decisions(selector);
    assert_eq!(sim, EXPECTED, "the simulated run left the script");
    let live = live_decisions(selector);
    assert_eq!(live, sim, "live and simulated decisions diverge");
}

#[test]
fn reactive_selector_decides_alike_in_sim_and_live() {
    assert_equivalent(SelectorMode::Reactive);
}

#[test]
fn predictive_selector_decides_alike_in_sim_and_live() {
    assert_equivalent(SelectorMode::Predictive);
}
