//! A crowd released at one instant beside one node, TopN 1: every user
//! races every other for the node's sequence number (Algorithm 1), each
//! race has one winner, and each loser goes back to edge discovery
//! (Algorithm 2, line 14) at the time the client core names,
//! `REDISCOVER_BACKOFF` after the race it lost.
//!
//! The bound that rule implies: a user loses a race only to another
//! user's join accepted inside that same try, so it loses at most N − 1
//! races and makes at most N tries. Before a try it waits
//! `REDISCOVER_BACKOFF`; the try itself is a discovery round trip, a
//! probe round (over by `PROBE_TIMEOUT`) and a join round trip. A user
//! that lost `k` races has therefore joined within `k + 1` such spans of
//! its arrival, and the whole crowd within N of them.
//!
//! Reads a captured trace, so it only runs with the `trace` feature (the
//! default) compiled in.

#![cfg(feature = "trace")]

use std::collections::HashMap;

use armada::client::{PROBE_TIMEOUT, REDISCOVER_BACKOFF};
use armada::core::{EnvSpec, NodeSpec, Scenario, Strategy, UserSpec};
use armada::net::LatencyModelParams;
use armada::trace::{inspect, MemorySink, Severity, Tracer};
use armada::types::{
    AccessNetwork, ClientConfig, GeoPoint, HardwareProfile, NodeClass, SimDuration, SimTime,
    SystemConfig, UserId,
};

/// The crowd.
const USERS: usize = 200;

/// Every user's pinned round trip to the node.
const RTT_MS: f64 = 20.0;

/// One span of the bound: the wait before a try, plus the try — its
/// probe round by `PROBE_TIMEOUT`, and a second for the discovery and
/// join round trips, each a few tens of milliseconds here.
fn span() -> SimDuration {
    REDISCOVER_BACKOFF + PROBE_TIMEOUT + SimDuration::from_secs(1)
}

#[test]
fn a_crowd_racing_for_one_node_joins_within_the_retry_rules_bound() {
    let spot = GeoPoint::new(44.98, -93.26);
    let user = UserSpec {
        location: spot,
        access: AccessNetwork::HomeWifi,
        affiliations: Vec::new(),
    };
    let env = EnvSpec {
        nodes: vec![NodeSpec {
            label: "crowded".into(),
            class: NodeClass::Dedicated,
            hw: HardwareProfile::new("crowded", 8, 10.0),
            location: spot,
            access: AccessNetwork::Fiber,
            extra_one_way_ms: 0.0,
        }],
        users: vec![user; USERS],
        latency: LatencyModelParams::deterministic(),
        pairwise_rtt_ms: (0..USERS).map(|u| (u, 0, RTT_MS)).collect(),
        system: SystemConfig::default(),
        federation: None,
    };
    let sink = MemorySink::new();
    let buffer = sink.buffer();
    let tracer = Tracer::with_sink(Box::new(sink), Severity::Debug);
    let arrival = SimTime::from_secs(1);
    let config = ClientConfig::default().with_top_n(1);
    let run = Scenario::new(env, Strategy::client_centric_with(config))
        .users_join_at(vec![arrival; USERS])
        .duration(SimDuration::from_secs(20))
        .seed(11)
        .with_tracer(tracer.clone())
        .run();
    tracer.flush();

    let trace = buffer.lock().expect("trace buffer").clone();
    let mut joined = HashMap::new();
    for e in inspect::parse_jsonl(&trace).expect("trace parses") {
        if e.kind == "client.join" {
            let user = e.field_u64("user").expect("user");
            joined.entry(user).or_insert(SimTime::from_micros(e.t_us));
        }
    }
    assert_eq!(joined.len(), USERS, "users that joined");
    for (&user, &at) in &joined {
        let client = run.world().client(UserId::new(user)).expect("client");
        let lost = client.stats().join_rejections;
        assert!(lost < USERS as u64, "user {user} lost {lost} races");
        let bound = arrival + span() * (lost + 1);
        assert!(at <= bound, "user {user} joined at {at}, past {bound}");
    }
    let last = joined.values().max().expect("a join");
    assert!(*last <= arrival + span() * USERS as u64);
}
