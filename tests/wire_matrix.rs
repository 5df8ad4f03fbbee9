//! The wire matrix: the full live stack (manager + nodes + client) must
//! work under every transport configuration — JSON or binary bodies,
//! UDP-first or TCP-only probes — and under *mixed* deployments where a
//! JSON client talks to a cluster whose nodes default to binary.
//!
//! These tests pin each configuration through `with_wire`, the only
//! way to choose one.

use std::time::Duration;

use armada::live::{Codec, LiveClient, LiveManager, LiveNode, NodeConfig, WireConfig};
use armada::types::{ClientConfig, GeoPoint, HardwareProfile, NodeClass};

fn node(id: u64, concurrency: u32, frame_ms: f64, delay_ms: u64) -> NodeConfig {
    NodeConfig {
        id,
        class: NodeClass::Volunteer,
        hw: HardwareProfile::new(format!("node-{id}"), 4, frame_ms).with_concurrency(concurrency),
        location: GeoPoint::new(44.98, -93.26),
        one_way_delay: Duration::from_millis(delay_ms),
    }
}

fn run_session_with(wire: WireConfig) {
    let (_mgr, mgr_addr) = LiveManager::bind().unwrap();
    let (n1, _) = LiveNode::bind(node(1, 4, 8.0, 2), Some(mgr_addr)).unwrap();
    let (n2, _) = LiveNode::bind(node(2, 4, 8.0, 30), Some(mgr_addr)).unwrap();

    let client = LiveClient::new(
        1,
        GeoPoint::new(44.98, -93.26),
        ClientConfig::default().with_top_n(2),
    )
    .with_wire(wire);
    let report = client.run_session(mgr_addr, 6).unwrap();

    assert_eq!(report.latencies.len(), 6);
    assert_eq!(report.probed.len(), 2, "both candidates probed");
    assert_eq!(report.initial_node, 1, "near node wins under {wire:?}");
    assert_eq!(n1.frames_processed() + n2.frames_processed(), 6);
}

#[test]
fn json_bodies_with_tcp_probes() {
    run_session_with(WireConfig {
        codec: Codec::Json,
        udp_probes: false,
    });
}

#[test]
fn json_bodies_with_udp_probes() {
    run_session_with(WireConfig {
        codec: Codec::Json,
        udp_probes: true,
    });
}

#[test]
fn binary_bodies_with_tcp_probes() {
    run_session_with(WireConfig {
        codec: Codec::Binary,
        udp_probes: false,
    });
}

#[test]
fn binary_bodies_with_udp_probes() {
    run_session_with(WireConfig {
        codec: Codec::Binary,
        udp_probes: true,
    });
}

/// Mixed deployment: a JSON-speaking client against nodes and manager
/// left at their (binary) defaults. Servers detect the codec per
/// request and echo it, so nothing needs to agree in advance.
#[test]
fn json_client_interoperates_with_binary_cluster() {
    let (_mgr, mgr_addr) = LiveManager::bind().unwrap();
    let (n1, _) = LiveNode::bind(node(1, 4, 8.0, 2), Some(mgr_addr)).unwrap();

    let json_client = LiveClient::new(
        1,
        GeoPoint::new(44.98, -93.26),
        ClientConfig::default().with_top_n(1),
    )
    .with_wire(WireConfig {
        codec: Codec::Json,
        udp_probes: true,
    });
    let binary_client = LiveClient::new(
        2,
        GeoPoint::new(44.98, -93.26),
        ClientConfig::default().with_top_n(1),
    )
    .with_wire(WireConfig {
        codec: Codec::Binary,
        udp_probes: false,
    });

    let ra = json_client.run_session(mgr_addr, 4).unwrap();
    let rb = binary_client.run_session(mgr_addr, 4).unwrap();
    assert_eq!(ra.latencies.len(), 4);
    assert_eq!(rb.latencies.len(), 4);
    assert_eq!(n1.frames_processed(), 8);
}
