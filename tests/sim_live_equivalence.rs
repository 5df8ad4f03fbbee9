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
//! Each node's side is compared as well: who it let in or turned away,
//! its `seqNum` after every join, leave and unexpected join, and every
//! what-if refresh it scheduled (at once, or after the post-join
//! delay). Both runtimes' nodes narrate these through the one
//! `armada_node::Narrator`, so the two streams are read alike — and the
//! last sequence number a simulated node reported must be the one it
//! ends the run with.
//!
//! Every trace captured here holds only kinds `armada_trace::KINDS`
//! lists, and numbers each user's probing rounds 1, 2, 3, … in either
//! runtime: the client core opens the rounds and numbers them.
//!
//! A second script takes the manager away instead of the nodes (sim: a
//! crash window in the fault plan; live: the `ChaosProxy` in front of
//! the manager partitioned): the client core both runtimes drive must
//! narrate the same control-plane story — degraded on the cached
//! shortlist, which is still probed, the breaker opening after the
//! third lost discovery and half-opening into a close once the manager
//! is back, recovery — while the serving node never changes.
//!
//! A third script gives the client a route of two managers and takes
//! the home one away (sim: a federation of two whose home shard is
//! killed, then revived; live: two federated managers syncing, the
//! proxy in front of the home one partitioned). Both runtimes walk the
//! route through the same core, so both must tell the same story:
//! every lost discovery falls over to the peer (`fed.failover`, one
//! rank skipped), rank 0's breaker opens on the third loss and the dead
//! home is no longer asked, it half-opens into a close once the home is
//! back — and, the peer serving throughout, the client is never
//! degraded and never leaves its node.
//!
//! The manager has rows of its own (ROADMAP open item 2's gate): the
//! same fleet and the same queries answered by
//! `CentralManager::discover` and by a `LiveManager` over the wire must
//! give the same ids in the same order, and the same peer summaries
//! applied through `CentralManager::apply_peer` and through a
//! `SyncSummaries` RPC must leave the same merged view and be narrated
//! as the same `fed.sync`s. Both drive one `NodeRegistry` and one
//! discovery — the nodes within `proximity_radius_km` (80 km, doubled
//! while that holds too few), ranked — so the fleet spreads far past
//! the radius, and some queries stand at its rim, where the first disk
//! is short and both must widen alike.
//!
//! Reads captured traces, so it only runs with the `trace` feature
//! (the default) compiled in.

#![cfg(feature = "trace")]

use std::collections::HashMap;
use std::f64::consts::TAU;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use armada::chaos::{ChaosProxy, FaultPlan, LinkFaults, PeerId};
use armada::core::{EnvSpec, FederationSpec, NodeSpec, Scenario, Strategy, UserSpec};
use armada::federation::ShardId;
use armada::live::{
    Codec, LiveClient, LiveManager, LiveNode, NodeConfig, Request, Response, WireConfig,
    WireNodeStatus, WireSummary,
};
use armada::manager::{CentralManager, GlobalSelectionPolicy, Narrator};
use armada::net::LatencyModelParams;
use armada::node::NodeStatus;
use armada::sim::SimRng;
use armada::trace::{inspect, MemorySink, Severity, TraceEvent, Tracer};
use armada::types::{
    AccessNetwork, ClientConfig, GeoPoint, HardwareProfile, NodeClass, NodeId, SelectorMode,
    SimDuration, SimTime, SystemConfig,
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

/// What every node must have decided, in order, in both runtimes.
fn expected_nodes() -> [NodeStream; 3] {
    let stream = |members: &[&str], refreshes: &[&str]| NodeStream {
        members: members.iter().map(|m| m.to_string()).collect(),
        refreshes: refreshes.iter().map(|r| r.to_string()).collect(),
    };
    [
        stream(
            &[
                "join 0 accepted, seq 1",
                "leave 0, seq 2",
                "unexpected_join 0, seq 3",
            ],
            &["delayed", "now", "delayed"],
        ),
        stream(&[], &[]),
        stream(&["join 0 accepted, seq 1"], &["delayed"]),
    ]
}

fn spot() -> GeoPoint {
    GeoPoint::new(44.98, -93.26)
}

fn hardware(id: u64) -> HardwareProfile {
    HardwareProfile::new(format!("node-{id}"), 4, NODES[id as usize].1).with_concurrency(4)
}

/// A node of the cast on loopback: half its RTT injected each way.
fn live_node(id: u64) -> NodeConfig {
    NodeConfig {
        id,
        class: NodeClass::Volunteer,
        hw: hardware(id),
        location: spot(),
        one_way_delay: Duration::from_millis(NODES[id as usize].0 / 2),
    }
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

/// A captured trace's events, every kind of them a listed one, each
/// user's `probe.round.start`s numbered 1, 2, 3, … in order.
fn events(trace: &str) -> Vec<TraceEvent> {
    let events = inspect::parse_jsonl(trace).expect("trace parses");
    let unknown = inspect::unknown_kinds(&events);
    assert!(unknown.is_empty(), "kinds not in KINDS: {unknown:?}");
    let mut last_round: HashMap<u64, u64> = HashMap::new();
    for e in events.iter().filter(|e| e.kind == "probe.round.start") {
        let (user, round) = (e.field_u64("user"), e.field_u64("round"));
        let (user, round) = (user.expect("user"), round.expect("round"));
        let previous = last_round.insert(user, round).unwrap_or(0);
        assert_eq!(round, previous + 1, "user {user}'s round after {previous}");
    }
    events
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
    let node = |e: &TraceEvent, key: &str| e.field_u64(key).expect("node field");
    let mut out: Vec<String> = Vec::new();
    let mut serving = false;
    for e in events(trace) {
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

/// One node's decisions: membership changes with the sequence number
/// each left behind, and the what-if refreshes it scheduled.
#[derive(Debug, Default, Clone, PartialEq)]
struct NodeStream {
    members: Vec<String>,
    refreshes: Vec<String>,
}

/// Every node's stream out of a captured trace, from either runtime:
/// its `node.join` / `node.join.rejected` / `node.unexpected_join` /
/// `node.detach` with the sequence number after each, and its
/// `node.whatif.refresh`es. Runs of equal entries count once, as for
/// the client.
fn node_streams(trace: &str) -> [NodeStream; 3] {
    let mut out: [NodeStream; 3] = Default::default();
    for e in events(trace) {
        let field = |key: &str| {
            e.field_u64(key)
                .unwrap_or_else(|| panic!("{}: {key}", e.kind))
        };
        let (member, what) = match e.kind.as_str() {
            "node.join" => (true, format!("join {} accepted", field("user"))),
            "node.join.rejected" => (true, format!("join {} rejected", field("user"))),
            "node.unexpected_join" => (true, format!("unexpected_join {}", field("user"))),
            "node.detach" => (true, format!("leave {}", field("user"))),
            "node.whatif.refresh" if field("after_us") == 0 => (false, "now".to_string()),
            "node.whatif.refresh" => (false, "delayed".to_string()),
            _ => continue,
        };
        let stream = &mut out[field("node") as usize];
        let (entries, token) = if member {
            (&mut stream.members, format!("{what}, seq {}", field("seq")))
        } else {
            (&mut stream.refreshes, what)
        };
        if entries.last() != Some(&token) {
            entries.push(token);
        }
    }
    out
}

/// One user at [`spot`] and the given nodes of the cast, on a
/// jitter-free network with the cast's pairwise RTTs.
fn sim_env(nodes: &[u64]) -> EnvSpec {
    let node = |&id: &u64| NodeSpec {
        label: format!("node-{id}"),
        class: NodeClass::Volunteer,
        hw: hardware(id),
        location: spot(),
        access: AccessNetwork::Fiber,
        extra_one_way_ms: 0.0,
    };
    EnvSpec {
        nodes: nodes.iter().map(node).collect(),
        users: vec![UserSpec {
            location: spot(),
            access: AccessNetwork::HomeWifi,
            affiliations: Vec::new(),
        }],
        latency: LatencyModelParams::deterministic(),
        pairwise_rtt_ms: nodes
            .iter()
            .map(|&n| (0, n as usize, NODES[n as usize].0 as f64))
            .collect(),
        system: SystemConfig::default(),
        federation: None,
    }
}

/// The script in virtual time: C is down until 20 s and from 30 s on,
/// the user arrives at 10 s (C's boot-time registration has aged out of
/// discovery by then), B and A die at 40 s.
fn sim_decisions(selector: SelectorMode) -> (Vec<String>, [NodeStream; 3]) {
    let env = sim_env(&[A, B, C]);
    let secs = SimTime::from_secs;
    let plan = FaultPlan::new(1)
        .crash(PeerId::node(C), SimTime::ZERO, secs(20))
        .crash(PeerId::node(C), secs(30), SimTime::MAX)
        .crash(PeerId::node(B), secs(40), SimTime::MAX)
        .crash(
            PeerId::node(A),
            secs(40) + SimDuration::from_millis(1),
            SimTime::MAX,
        );
    let (tracer, buffer) = memory_tracer();
    let run = Scenario::new(env, Strategy::client_centric_with(client_config(selector)))
        .with_fault_plan(plan)
        .users_join_at(vec![secs(10)])
        .duration(SimDuration::from_secs(45))
        .seed(7)
        .with_tracer(tracer.clone())
        .run();
    tracer.flush();
    let trace = buffer.lock().expect("trace buffer").clone();
    let nodes = node_streams(&trace);
    // The last sequence number each simulated node reported is its own.
    for (id, stream) in nodes.iter().enumerate() {
        let node = run.world().node(NodeId::new(id as u64)).expect("node");
        let reported = stream.members.last().map_or(0, |m| {
            let (_, seq) = m.rsplit_once("seq ").expect("a seq");
            seq.parse().expect("a number")
        });
        assert_eq!(node.seq_num(), reported, "node {id}");
    }
    (decisions(&trace), nodes)
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

/// The wire configurations the live halves run under: JSON bodies with
/// in-stream TCP probes, and the default, binary bodies with UDP probes.
const WIRES: [WireConfig; 2] = [
    WireConfig {
        codec: Codec::Json,
        udp_probes: false,
    },
    WireConfig {
        codec: Codec::Binary,
        udp_probes: true,
    },
];

/// The same script on loopback, each step triggered by the previous
/// one's outcome showing up in the client's trace.
fn live_decisions(selector: SelectorMode, wire: WireConfig) -> (Vec<String>, [NodeStream; 3]) {
    let (_mgr, mgr_addr) = LiveManager::bind().unwrap();
    let (node_tracer, node_buffer) = memory_tracer();
    let bind = |id: u64| {
        LiveNode::bind_traced(live_node(id), Some(mgr_addr), node_tracer.clone())
            .unwrap()
            .0
    };
    let (a, b) = (bind(A), bind(B));
    let (tracer, buffer) = memory_tracer();
    let client = LiveClient::new(0, spot(), client_config(selector))
        .with_tracer(tracer)
        .with_wire(wire);
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
    let node_trace = node_buffer.lock().expect("trace buffer").clone();
    (decisions(&trace), node_streams(&node_trace))
}

fn assert_equivalent(selector: SelectorMode) {
    let (sim, sim_nodes) = sim_decisions(selector);
    assert_eq!(sim, EXPECTED, "the simulated run left the script");
    assert_eq!(
        sim_nodes,
        expected_nodes(),
        "the simulated nodes left the script"
    );
    for wire in WIRES {
        let (live, live_nodes) = live_decisions(selector, wire);
        assert_eq!(live, sim, "live and simulated decisions diverge, {wire:?}");
        assert_eq!(
            live_nodes, sim_nodes,
            "live and simulated nodes decide differently, {wire:?}"
        );
    }
}

#[test]
fn reactive_selector_decides_alike_in_sim_and_live() {
    assert_equivalent(SelectorMode::Reactive);
}

#[test]
fn predictive_selector_decides_alike_in_sim_and_live() {
    assert_equivalent(SelectorMode::Predictive);
}

/// What the manager-outage script must read as, in both runtimes.
const EXPECTED_OUTAGE: [&str; 9] = [
    "{round join of 2}",
    "join 0",
    "{degraded, round stay of 2}",
    "breaker open",
    "{degraded, round stay of 2}",
    "breaker half_open",
    "breaker close",
    "recovered",
    "{round stay of 2}",
];

/// User 0's control-plane stream out of a captured trace: breaker
/// transitions, recovery and every change of serving node in order,
/// and between two of those the *set* of what went on meanwhile —
/// degraded discoveries, probing rounds with their decision and reply
/// count. How many retries and rounds fit between two transitions is a
/// matter of clock, so each kind counts once per stretch.
fn control_plane(trace: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let mut meanwhile: Vec<String> = Vec::new();
    let flush = |meanwhile: &mut Vec<String>, out: &mut Vec<String>| {
        if !meanwhile.is_empty() {
            meanwhile.sort();
            meanwhile.dedup();
            out.push(format!("{{{}}}", meanwhile.join(", ")));
            meanwhile.clear();
        }
    };
    for e in events(trace) {
        if e.field_u64("user") != Some(0) {
            continue;
        }
        let milestone = match e.kind.as_str() {
            "chaos.degraded" => {
                assert_eq!(e.field_u64("cached"), Some(2), "both nodes cached");
                meanwhile.push("degraded".to_string());
                continue;
            }
            "probe.round.done" => {
                let decision = e.field_str("decision").expect("decision");
                let replies = e.field_u64("replies").expect("replies");
                meanwhile.push(format!("round {decision} of {replies}"));
                continue;
            }
            "fed.failover" => {
                let skipped = e.field_u64("skipped").expect("skipped");
                meanwhile.push(format!("failover past {skipped}"));
                continue;
            }
            "chaos.breaker.open" | "chaos.breaker.half_open" | "chaos.breaker.close" => {
                assert_eq!(e.field_u64("rank"), Some(0), "only the home is ever lost");
                format!("breaker {}", &e.kind["chaos.breaker.".len()..])
            }
            "chaos.degraded.recovered" => "recovered".to_string(),
            "client.join" => format!("join {}", e.field_u64("node").expect("node")),
            "client.switch" | "client.failure" | "client.failover" => e.kind.clone(),
            _ => continue,
        };
        flush(&mut meanwhile, &mut out);
        out.push(milestone);
    }
    flush(&mut meanwhile, &mut out);
    out
}

/// What the lost-home-shard script must read as, in both runtimes.
const EXPECTED_SHARD_LOSS: [&str; 8] = [
    "{round join of 2}",
    "join 0",
    "{failover past 1, round stay of 2}",
    "breaker open",
    "{failover past 1, round stay of 2}",
    "breaker half_open",
    "breaker close",
    "{round stay of 2}",
];

/// The loss of the home manager in virtual time: A and B only, the user
/// arrives at 1 s, the manager goes at 3 s and is back a tenth of a
/// second after the user's breaker opened — before the cooldown lets a
/// probe through, so the first half-open probe is the one that is
/// answered. Alone it is the manager (a crash window in the fault
/// plan); with a `peer` it is shard 0 of a federation of two (every
/// placement is [`spot`], so shard 0 is everyone's home and shard 1
/// knows the nodes from sync alone).
fn sim_manager_loss(selector: SelectorMode, peer: bool) -> Vec<String> {
    let run = |back: SimTime| {
        let (tracer, buffer) = memory_tracer();
        let end = back.min(SimTime::from_secs(8)) + SimDuration::from_secs(2);
        let lost = SimTime::from_secs(3);
        let mut env = sim_env(&[A, B]);
        if peer {
            env = env.with_federation(FederationSpec::new(2));
        }
        let scenario = Scenario::new(env, Strategy::client_centric_with(client_config(selector)))
            .users_join_at(vec![SimTime::from_secs(1)])
            .duration(end.saturating_since(SimTime::ZERO))
            .seed(7)
            .with_tracer(tracer.clone());
        let home = if peer {
            PeerId::shard(0)
        } else {
            PeerId::manager(0)
        };
        let plan = FaultPlan::new(1).crash(home, lost, back);
        let run = scenario.with_fault_plan(plan).run();
        tracer.flush();
        let route = run.world().managers().map().route_order(spot());
        assert_eq!(route.len(), if peer { 2 } else { 1 });
        assert_eq!(route[0], ShardId::new(0));
        let trace = buffer.lock().expect("trace buffer").clone();
        trace
    };
    // The script replays: the pilot's breaker opens when the real run's does.
    let pilot = events(&run(SimTime::MAX));
    let opened = pilot.iter().find(|e| e.kind == "chaos.breaker.open");
    let opened = SimTime::from_micros(opened.expect("the pilot's breaker opens").t_us);
    control_plane(&run(opened + SimDuration::from_millis(100)))
}

/// The same loss on loopback: the home manager sits behind a
/// `ChaosProxy`, which both its nodes and the client dial, and the proxy
/// is partitioned until the client's breaker opens (the nodes are
/// dialled directly by the client and keep serving). With a `peer`, the
/// home manager pushes the nodes it registered to a second one, and the
/// client's route is the proxy and the peer.
fn live_manager_loss(selector: SelectorMode, wire: WireConfig, peer: bool) -> Vec<String> {
    let (mut home, manager_addr) = LiveManager::bind_federated(0, Tracer::disabled()).unwrap();
    let proxy = ChaosProxy::spawn(manager_addr, LinkFaults::NONE, 5).unwrap();
    let home_addr = proxy.addr();
    let bind = |id: u64| LiveNode::bind(live_node(id), Some(home_addr)).unwrap().0;
    let (a, b) = (bind(A), bind(B));
    let mut route = vec![home_addr];
    let _peer = peer.then(|| {
        let (peer, peer_addr) = LiveManager::bind_federated(1, Tracer::disabled()).unwrap();
        home.start_sync(vec![peer_addr], Duration::from_millis(25));
        let deadline = Instant::now() + Duration::from_secs(5);
        while peer.synced_count() < 2 {
            assert!(
                Instant::now() < deadline,
                "the peer never heard of the nodes"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        route.push(peer_addr);
        peer
    });
    let (tracer, buffer) = memory_tracer();
    let client = LiveClient::new(0, spot(), client_config(selector))
        .with_tracer(tracer)
        .with_wire(wire);
    std::thread::scope(|scope| {
        let session = scope.spawn(|| client.run_session_any(&route, 100_000));
        settle_after(&buffer, r#""kind":"client.join""#);
        proxy.set_partitioned(true);
        wait_for(&buffer, "the breaker to open", |trace| {
            trace.contains(r#""kind":"chaos.breaker.open""#)
        });
        proxy.set_partitioned(false);
        // (Alone, the close that ends the outage also ends the degraded
        // episode: `chaos.degraded.recovered` follows it in the same call.)
        settle_after(&buffer, r#""kind":"chaos.breaker.close""#);
        // The story is told; the session ends when its nodes do.
        let trace = buffer.lock().expect("trace buffer").clone();
        b.shutdown();
        a.shutdown();
        assert!(session.join().expect("session thread").is_err());
        control_plane(&trace)
    })
}

/// Both runtimes must read as `expected` when the home manager is lost,
/// alone or with a `peer` behind it in the route.
fn assert_manager_loss_equivalent(selector: SelectorMode, peer: bool, expected: &[&str]) {
    let sim = sim_manager_loss(selector, peer);
    assert_eq!(sim, expected, "the simulated loss left the script");
    for wire in WIRES {
        let live = live_manager_loss(selector, wire, peer);
        assert_eq!(live, sim, "live and simulated losses diverge, {wire:?}");
    }
}

#[test]
fn reactive_client_rides_out_a_manager_outage_alike_in_sim_and_live() {
    assert_manager_loss_equivalent(SelectorMode::Reactive, false, &EXPECTED_OUTAGE);
}

#[test]
fn predictive_client_rides_out_a_manager_outage_alike_in_sim_and_live() {
    assert_manager_loss_equivalent(SelectorMode::Predictive, false, &EXPECTED_OUTAGE);
}

#[test]
fn reactive_client_rides_out_a_lost_home_shard_alike_in_sim_and_live() {
    assert_manager_loss_equivalent(SelectorMode::Reactive, true, &EXPECTED_SHARD_LOSS);
}

#[test]
fn predictive_client_rides_out_a_lost_home_shard_alike_in_sim_and_live() {
    assert_manager_loss_equivalent(SelectorMode::Predictive, true, &EXPECTED_SHARD_LOSS);
}

/// A held connection to a live manager, speaking one codec.
struct ManagerConn {
    stream: TcpStream,
    codec: Codec,
}

impl ManagerConn {
    fn open(addr: SocketAddr, codec: Codec) -> ManagerConn {
        let stream = TcpStream::connect(addr).expect("manager accepts");
        stream.set_nodelay(true).expect("nodelay");
        ManagerConn { stream, codec }
    }

    /// One connection per codec of [`WIRES`] to the same manager: the
    /// manager rows alternate their requests between the two.
    fn open_each(addr: SocketAddr) -> [ManagerConn; 2] {
        WIRES.map(|wire| ManagerConn::open(addr, wire.codec))
    }

    fn rpc(&mut self, request: &Request) -> Response {
        armada_wire::write_request(&mut self.stream, self.codec, request).expect("request sent");
        armada_wire::read_response(&mut self.stream)
            .expect("request answered")
            .0
    }

    fn register(&mut self, status: &NodeStatus) {
        let request = Request::Register {
            status: WireNodeStatus::from(*status),
            listen_addr: listen_addr(status),
        };
        assert_eq!(self.rpc(&request), Response::Registered);
    }

    fn discover(&mut self, at: GeoPoint, top_n: usize) -> Vec<NodeId> {
        let request = Request::Discover {
            user: 0,
            lat: at.lat(),
            lon: at.lon(),
            top_n,
        };
        match self.rpc(&request) {
            Response::Candidates { nodes } => {
                nodes.iter().map(|(id, _)| NodeId::new(*id)).collect()
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

fn listen_addr(status: &NodeStatus) -> String {
    format!("127.0.0.1:{}", 10_000 + status.node.as_u64())
}

/// 300 nodes over a 300 km box, loads in `[0, 2)`: an 80 km disk holds
/// a fifth of them at most. Every tenth node sits exactly where its
/// predecessor does with the same load, so its score ties for every
/// query and the id decides.
fn fleet() -> Vec<NodeStatus> {
    let mut rng = SimRng::seed_from(17);
    let mut nodes: Vec<NodeStatus> = Vec::new();
    for id in 0..300u64 {
        let (location, load_score) = match nodes.last() {
            Some(twin) if id % 10 == 9 => (twin.location, twin.load_score),
            _ => (
                spot().offset_km(rng.uniform(-150.0, 150.0), rng.uniform(-150.0, 150.0)),
                rng.uniform(0.0, 2.0),
            ),
        };
        nodes.push(NodeStatus {
            node: NodeId::new(id),
            class: NodeClass::Volunteer,
            location,
            attached_users: 0,
            load_score,
        });
    }
    nodes
}

/// 200 users: three in four over the fleet's box, the rest on a ring
/// 200–260 km from its centre, past its edge, where an 80 km disk holds
/// few nodes or none.
fn queries() -> Vec<GeoPoint> {
    let mut rng = SimRng::seed_from(23);
    (0..200)
        .map(|q| {
            if q % 4 == 3 {
                let (km, angle) = (rng.uniform(200.0, 260.0), rng.uniform(0.0, TAU));
                spot().offset_km(km * angle.cos(), km * angle.sin())
            } else {
                spot().offset_km(rng.uniform(-150.0, 150.0), rng.uniform(-150.0, 150.0))
            }
        })
        .collect()
}

/// Of `queries()` answered over `fleet` at `top_n`: how many found too
/// few nodes in the first disk and had to widen, and how many got a
/// shortlist other than the best `top_n` of the whole fleet.
fn radius_effects(fleet: &[NodeStatus], shortlists: &[(GeoPoint, Vec<NodeId>)]) -> (usize, usize) {
    let radius = SystemConfig::default().proximity_radius_km;
    let policy = GlobalSelectionPolicy::default();
    let mut widened = 0;
    let mut not_global = 0;
    for (at, shortlist) in shortlists {
        let inside = fleet
            .iter()
            .filter(|s| at.distance_km(s.location) <= radius)
            .count();
        widened += usize::from(inside < shortlist.len());
        let global: Vec<NodeId> = policy
            .rank(*at, fleet.iter().copied(), &[])
            .iter()
            .take(shortlist.len())
            .map(|c| c.node)
            .collect();
        not_global += usize::from(&global != shortlist);
    }
    (widened, not_global)
}

const TOP_NS: [usize; 3] = [1, 3, 8];

#[test]
fn manager_shortlists_are_alike_in_sim_and_live() {
    let fleet = fleet();
    let mut sim = CentralManager::new(SystemConfig::default(), GlobalSelectionPolicy::default());
    let (_live, addr) = LiveManager::bind().unwrap();
    let mut conns = ManagerConn::open_each(addr);
    for (i, status) in fleet.iter().enumerate() {
        sim.register(*status, SimTime::ZERO);
        conns[i % 2].register(status);
    }
    let now = SimTime::from_secs(1);
    let mut tie_breaks = 0;
    let mut shortlists = Vec::new();
    for (q, at) in queries().into_iter().enumerate() {
        for top_n in TOP_NS {
            let expected = sim.discover(at, &[], top_n, now);
            assert_eq!(expected.len(), top_n);
            let got = conns[q % 2].discover(at, top_n);
            assert_eq!(got, expected, "query {q}, top {top_n}");
            let twins = |pair: &[NodeId]| {
                pair[0].as_u64() % 10 == 8 && pair[1].as_u64() == pair[0].as_u64() + 1
            };
            tie_breaks += expected.windows(2).filter(|pair| twins(pair)).count();
            shortlists.push((at, expected));
        }
    }
    assert!(
        tie_breaks > 0,
        "no shortlist was decided by the id tie-break"
    );
    // The radius is in play on both sides: some shortlists needed more
    // than the first disk, and some differ from a rank of the whole fleet.
    let (widened, not_global) = radius_effects(&fleet, &shortlists);
    assert!(widened > 0, "no query had to widen");
    assert!(not_global > 0, "no shortlist was shaped by the radius");
}

/// The peer's word on `peers`, as of `now`: every fifth node's last
/// heartbeat is a second older than the 6 s budget, the rest are half a
/// second old. Given to the manager record by record (narrated as the
/// simulated tier narrates a push) and to the live manager as a
/// `SyncSummaries` RPC, which must take the same `applied` of them.
fn sync(
    sim: &mut CentralManager,
    narrate: Narrator<'_>,
    conn: &mut ManagerConn,
    peers: &[NodeStatus],
    now: SimTime,
    applied: u64,
) {
    let age = |status: &NodeStatus| match status.node.as_u64() % 5 {
        0 => SimDuration::from_secs(7),
        _ => SimDuration::from_millis(500),
    };
    let taken = peers
        .iter()
        .filter(|status| sim.apply_peer(**status, now - age(status)))
        .count() as u64;
    narrate.synced(ShardId::new(1), ShardId::new(0), taken);
    assert_eq!(taken, applied);
    let summaries = peers
        .iter()
        .map(|status| WireSummary {
            status: WireNodeStatus::from(*status),
            listen_addr: listen_addr(status),
            age_us: age(status).as_micros(),
        })
        .collect();
    let request = Request::SyncSummaries { from: 0, summaries };
    assert_eq!(conn.rpc(&request), Response::SyncAck { applied });
}

#[test]
fn merged_views_are_alike_in_sim_and_live() {
    let fleet = fleet();
    let mut sim = CentralManager::new(SystemConfig::default(), GlobalSelectionPolicy::default());
    let (sim_tracer, sim_trace) = memory_tracer();
    let (live_tracer, live_trace) = memory_tracer();
    let (live, addr) = LiveManager::bind_federated(1, live_tracer).unwrap();
    let mut conns = ManagerConn::open_each(addr);
    // The peer advertises nodes 50..250 and this manager owns 0..100:
    // 50..75 register after the peer's word arrived and must drop it,
    // 75..100 before and must refuse it.
    let now = SimTime::from_secs(100);
    let narrate = Narrator::at(&sim_tracer, now.as_micros());
    sync(&mut sim, narrate, &mut conns[0], &fleet[50..75], now, 25);
    for (i, status) in fleet[..100].iter().enumerate() {
        sim.register(*status, now);
        conns[i % 2].register(status);
    }
    sync(&mut sim, narrate, &mut conns[1], &fleet[75..250], now, 150);
    let synced = |trace: &Mutex<String>| -> Vec<[u64; 3]> {
        let events = events(&trace.lock().expect("trace buffer"));
        let fields = |e: &TraceEvent| ["shard", "from", "applied"].map(|k| e.field_u64(k).unwrap());
        events
            .iter()
            .filter(|e| e.kind == "fed.sync")
            .map(fields)
            .collect()
    };
    assert_eq!(synced(&sim_trace), [[1, 0, 25], [1, 0, 150]]);
    assert_eq!(synced(&live_trace), synced(&sim_trace));

    // 100 own + 150 synced, of which 30 arrived dead.
    assert_eq!(sim.alive_count(now), 220);
    assert_eq!(live.alive_count(), sim.alive_count(now));
    assert_eq!(live.synced_count(), 120);
    assert_eq!(live.registered_count(), 250);
    for (q, at) in queries().into_iter().enumerate() {
        for top_n in TOP_NS {
            let expected = sim.discover(at, &[], top_n, now);
            let got = conns[q % 2].discover(at, top_n);
            assert_eq!(got, expected, "query {q}, top {top_n}");
        }
    }
}
