//! Integration tests for the live `std::net` runtime through the
//! facade: the same selection behaviour the simulator shows, over real
//! TCP.

use std::time::{Duration, Instant};

use armada::live::{LiveClient, LiveManager, LiveNode, NodeConfig};
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

#[test]
fn live_selection_matches_simulated_intuition() {
    let (_mgr, mgr_addr) = LiveManager::bind().unwrap();
    // Fast-near must win over fast-far (network) and slow-near (compute).
    let (_n1, _) = LiveNode::bind(node(1, 4, 10.0, 2), Some(mgr_addr)).unwrap();
    let (_n2, _) = LiveNode::bind(node(2, 4, 10.0, 45), Some(mgr_addr)).unwrap();
    let (_n3, _) = LiveNode::bind(node(3, 1, 90.0, 2), Some(mgr_addr)).unwrap();

    let client = LiveClient::new(
        1,
        GeoPoint::new(44.98, -93.26),
        ClientConfig::default().with_top_n(3),
    );
    let report = client.run_session(mgr_addr, 12).unwrap();
    assert_eq!(report.initial_node, 1);
    assert_eq!(report.final_node, 1);
    assert_eq!(report.latencies.len(), 12);
    assert_eq!(
        report.probed.len(),
        3,
        "every candidate is probed concurrently"
    );
}

#[test]
fn live_failover_is_absorbed_by_warm_backup() {
    let (_mgr, mgr_addr) = LiveManager::bind().unwrap();
    let (primary, _) = LiveNode::bind(node(1, 4, 5.0, 1), Some(mgr_addr)).unwrap();
    let (backup, _) = LiveNode::bind(node(2, 4, 5.0, 12), Some(mgr_addr)).unwrap();

    let client = LiveClient::new(
        7,
        GeoPoint::new(44.98, -93.26),
        ClientConfig::default().with_top_n(2),
    );
    // Kill the primary once it has served a frame, not at a fixed time:
    // on a loaded host session setup can outlast any fixed delay, and
    // the client would then join the backup directly.
    let killer = std::thread::spawn(move || {
        let deadline = Instant::now() + Duration::from_secs(10);
        while primary.frames_processed() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        primary.shutdown();
        primary
    });
    let report = client.run_session(mgr_addr, 25).unwrap();
    let _primary = killer.join().unwrap();
    assert_eq!(report.final_node, 2);
    assert_eq!(report.failovers, 1);
    assert_eq!(
        report.latencies.len(),
        25,
        "every frame was eventually served"
    );
    assert!(backup.frames_processed() > 0);
}

#[test]
fn live_leave_detaches_user_and_refreshes_whatif() {
    let (_mgr, mgr_addr) = LiveManager::bind().unwrap();
    let (n1, _) = LiveNode::bind(node(1, 2, 5.0, 1), Some(mgr_addr)).unwrap();
    let client = LiveClient::new(3, GeoPoint::new(44.98, -93.26), ClientConfig::default());
    let report = client.run_session(mgr_addr, 5).unwrap();
    assert_eq!(report.latencies.len(), 5);
    // The session ends with Leave(): the node must be empty again, and
    // join/leave must each have triggered a test workload.
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(n1.attached_count(), 0);
    assert!(n1.test_invocations() >= 2);
}

#[test]
fn live_cluster_balances_many_clients() {
    let (_mgr, mgr_addr) = LiveManager::bind().unwrap();
    let (n1, _) = LiveNode::bind(node(1, 1, 25.0, 1), Some(mgr_addr)).unwrap();
    let (n2, _) = LiveNode::bind(node(2, 1, 25.0, 1), Some(mgr_addr)).unwrap();

    let total: usize = std::thread::scope(|scope| {
        let sessions: Vec<_> = (0..4u64)
            .map(|id| {
                scope.spawn(move || {
                    let client = LiveClient::new(
                        id,
                        GeoPoint::new(44.98, -93.26),
                        ClientConfig::default().with_top_n(2),
                    );
                    client.run_session(mgr_addr, 6)
                })
            })
            .collect();
        sessions
            .into_iter()
            .map(|s| s.join().unwrap().unwrap().latencies.len())
            .sum()
    });
    assert_eq!(total, 24);
    // The GO policy (interference-aware) should not pile everyone onto
    // one single-slot node.
    assert!(n1.frames_processed() > 0);
    assert!(n2.frames_processed() > 0);
}
