//! The live manager's registry is the core `NodeRegistry`: it forgets
//! nodes that stay dead, and a registration drops the synced summary
//! it shadows. Both fail on the hand-written maps this replaced.
//!
//! And what enters it off the wire is checked at the driver: a load no
//! honest node reports is refused, and `Discover.top_n` is clamped.

use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use armada_live::{LiveManager, LiveManagerConfig, Request, Response, WireNodeStatus, WireSummary};
use armada_manager::GlobalSelectionPolicy;
use armada_node::NodeStatus;
use armada_trace::Tracer;
use armada_types::{GeoPoint, NodeClass, NodeId};
use armada_wire::{read_response, write_request, Codec};

fn status(id: u64, load: f64) -> WireNodeStatus {
    WireNodeStatus {
        id,
        class: NodeClass::Volunteer,
        location: GeoPoint::new(44.98, -93.26),
        attached_users: 0,
        load_score: load,
    }
}

/// One request/response exchange on a fresh connection.
fn rpc(addr: SocketAddr, req: Request) -> Response {
    let mut stream = TcpStream::connect(addr).unwrap();
    write_request(&mut stream, Codec::Binary, &req).unwrap();
    read_response(&mut stream).unwrap().0
}

fn register(addr: SocketAddr, id: u64) -> Response {
    register_status(addr, status(id, 0.0))
}

fn register_status(addr: SocketAddr, status: WireNodeStatus) -> Response {
    let listen_addr = format!("127.0.0.1:{}", 9100 + status.id);
    let request = Request::Register {
        status,
        listen_addr,
    };
    rpc(addr, request)
}

fn heartbeat(addr: SocketAddr, id: u64) -> Response {
    rpc(
        addr,
        Request::Heartbeat {
            status: status(id, 0.0),
        },
    )
}

/// A volunteer that stops heartbeating is dead after one liveness
/// window and forgotten after one more: the registry shrinks, the
/// node's next heartbeat is refused (it re-registers in place, as after
/// a manager restart), and a registration brings it back.
#[test]
fn manager_forgets_nodes_that_stay_dead() {
    let cfg = LiveManagerConfig {
        liveness_window: Duration::from_millis(100),
        ..LiveManagerConfig::default()
    };
    let (mgr, addr) = LiveManager::bind_with(cfg, 0, Tracer::disabled()).unwrap();
    for id in 1..=3 {
        assert_eq!(register(addr, id), Response::Registered);
    }
    assert_eq!(mgr.registered_count(), 3);
    // Node 1 keeps heartbeating; 2 and 3 fall silent.
    let deadline = Instant::now() + Duration::from_secs(2);
    while mgr.registered_count() != 1 {
        assert!(Instant::now() < deadline, "silent nodes never forgotten");
        assert_eq!(heartbeat(addr, 1), Response::HeartbeatAck);
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(mgr.alive_count(), 1);
    for id in [2, 3] {
        let refused = heartbeat(addr, id);
        assert!(matches!(refused, Response::Error { .. }), "got {refused:?}");
    }
    assert_eq!(register(addr, 2), Response::Registered);
    assert_eq!((mgr.registered_count(), mgr.alive_count()), (2, 2));
}

/// A peer's summary for node 5 arrives first, then node 5 registers
/// here: the summary goes, so the node is counted once — as this
/// manager's own — and served at the address it registered.
#[test]
fn registration_drops_the_synced_summary_it_shadows() {
    let (mgr, addr) = LiveManager::bind_federated(1, Tracer::disabled()).unwrap();
    let summary = WireSummary {
        status: status(5, 0.9),
        listen_addr: "127.0.0.1:6666".into(),
        age_us: 0,
    };
    let sync = Request::SyncSummaries {
        from: 0,
        summaries: vec![summary],
    };
    assert_eq!(rpc(addr, sync), Response::SyncAck { applied: 1 });
    assert_eq!(mgr.synced_count(), 1);
    assert_eq!(register(addr, 5), Response::Registered);
    assert_eq!((mgr.synced_count(), mgr.alive_count()), (0, 1));
    let discover = Request::Discover {
        user: 1,
        lat: 44.98,
        lon: -93.26,
        top_n: 5,
    };
    let nodes = vec![(5, "127.0.0.1:9105".into())];
    assert_eq!(rpc(addr, discover), Response::Candidates { nodes });
}

/// Loads an honest node (`users·fps / capacity ≥ 0`) never reports. A
/// negative one would head every shortlist; a NaN unorders the ranking.
const BAD_LOADS: [f64; 4] = [f64::NEG_INFINITY, -0.5, f64::NAN, f64::INFINITY];

fn is_error(response: &Response) -> bool {
    matches!(response, Response::Error { .. })
}

/// The ids a `Discover` from the fleet's own location is answered with.
fn discover_ids(addr: SocketAddr, top_n: usize) -> Vec<u64> {
    let discover = Request::Discover {
        user: 1,
        lat: 44.98,
        lon: -93.26,
        top_n,
    };
    match rpc(addr, discover) {
        Response::Candidates { nodes } => nodes.into_iter().map(|(id, _)| id).collect(),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn a_register_with_a_dishonest_load_is_refused() {
    let (mgr, addr) = LiveManager::bind().unwrap();
    for (id, load) in (10..).zip(BAD_LOADS) {
        let refused = register_status(addr, status(id, load));
        assert!(is_error(&refused), "load {load}: got {refused:?}");
    }
    assert_eq!(mgr.registered_count(), 0);
    assert_eq!(register(addr, 1), Response::Registered);
    assert_eq!(discover_ids(addr, 5), [1]);
}

#[test]
fn a_heartbeat_with_a_dishonest_load_changes_nothing() {
    let (mgr, addr) = LiveManager::bind().unwrap();
    for (id, load) in [(1, 0.5), (2, 0.25)] {
        assert_eq!(
            register_status(addr, status(id, load)),
            Response::Registered
        );
    }
    for load in BAD_LOADS {
        let bad = Request::Heartbeat {
            status: status(1, load),
        };
        let refused = rpc(addr, bad);
        assert!(is_error(&refused), "load {load}: got {refused:?}");
        // Node 1 still ranks on the load it registered with.
        assert_eq!(discover_ids(addr, 5), [2, 1], "after load {load}");
    }
    assert_eq!((mgr.registered_count(), mgr.alive_count()), (2, 2));
}

#[test]
fn a_synced_summary_with_a_dishonest_load_is_skipped() {
    let (mgr, addr) = LiveManager::bind_federated(1, Tracer::disabled()).unwrap();
    let summary = |id, load| WireSummary {
        status: status(id, load),
        listen_addr: format!("127.0.0.1:{}", 9100 + id),
        age_us: 0,
    };
    let sync = Request::SyncSummaries {
        from: 0,
        summaries: vec![
            summary(5, 0.9),
            summary(6, f64::NEG_INFINITY),
            summary(7, 0.1),
        ],
    };
    assert_eq!(rpc(addr, sync), Response::SyncAck { applied: 2 });
    assert_eq!((mgr.synced_count(), mgr.syncs_applied()), (2, 2));
    assert_eq!(discover_ids(addr, 5), [7, 5]);
}

/// `top_n` is a `usize` off the wire: asked for everything, the manager
/// answers with the 64 best, not with its registry.
#[test]
fn discover_top_n_is_clamped() {
    let (_mgr, addr) = LiveManager::bind().unwrap();
    let fleet: Vec<WireNodeStatus> = (1..=200u64)
        .map(|id| WireNodeStatus {
            location: GeoPoint::new(44.98, -93.26).offset_km((id * 37 % 90) as f64, 0.0),
            ..status(id, (id * 13 % 8) as f64 / 4.0)
        })
        .collect();
    for status in &fleet {
        assert_eq!(register_status(addr, status.clone()), Response::Registered);
    }
    let ranked: Vec<u64> = GlobalSelectionPolicy::default()
        .rank(
            GeoPoint::new(44.98, -93.26),
            fleet.iter().map(|wire| NodeStatus {
                node: NodeId::new(wire.id),
                class: wire.class,
                location: wire.location,
                attached_users: wire.attached_users,
                load_score: wire.load_score,
            }),
            &[],
        )
        .iter()
        .map(|c| c.node.as_u64())
        .collect();
    assert_eq!(discover_ids(addr, 200), ranked[..64]);
    assert_eq!(discover_ids(addr, usize::MAX), ranked[..64]);
    assert_eq!(discover_ids(addr, 8), ranked[..8]);
}
