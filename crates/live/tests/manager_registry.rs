//! The live manager's registry is the core `NodeRegistry`: it forgets
//! nodes that stay dead, and a registration drops the synced summary
//! it shadows. Both fail on the hand-written maps this replaced.

use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use armada_live::{LiveManager, LiveManagerConfig, Request, Response, WireNodeStatus, WireSummary};
use armada_trace::Tracer;
use armada_types::{GeoPoint, NodeClass};
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
    let listen_addr = format!("127.0.0.1:{}", 9100 + id);
    rpc(
        addr,
        Request::Register {
            status: status(id, 0.0),
            listen_addr,
        },
    )
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
