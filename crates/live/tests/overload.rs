//! Overload behaviour of the live servers: the manager sheds discovery
//! queries with `Busy` while protecting liveness traffic, the node
//! refuses heavy work with `Busy` when its blocking pool saturates
//! (never hanging the peer, never reordering a connection's requests),
//! and the client treats `Busy` as a backoff-and-walk-on signal.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use armada_live::{
    LiveManager, LiveManagerConfig, LiveNode, LiveNodeConfig, NodeConfig, Request, Response,
    WireNodeStatus, BUSY_RETRY_MS,
};
use armada_trace::inspect::parse_jsonl;
use armada_trace::{MemorySink, Severity, TraceEvent, Tracer};
use armada_types::{GeoPoint, HardwareProfile, NodeClass};
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

fn node_config(id: u64, delay_ms: u64) -> NodeConfig {
    NodeConfig {
        id,
        class: NodeClass::Volunteer,
        hw: HardwareProfile::new("test", 4, 5.0).with_concurrency(4),
        location: GeoPoint::new(44.98, -93.26),
        one_way_delay: Duration::from_millis(delay_ms),
    }
}

/// One request/response exchange on a fresh connection.
fn rpc(addr: SocketAddr, req: Request) -> Response {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    write_request(&mut stream, Codec::Binary, &req).unwrap();
    read_response(&mut stream).unwrap().0
}

/// Sends a request on an existing stream without waiting for the reply.
fn send(stream: &mut TcpStream, req: &Request) {
    write_request(stream, Codec::Binary, req).unwrap();
}

/// With `shed_conns: 1` every connection counts as overload, so every
/// discovery query must be refused with `Busy` carrying the servers'
/// retry hint — while registrations and heartbeats (the liveness
/// plane) keep being served on the very same shedding manager. A peer
/// that starts a frame and stalls is evicted, and the manager traces
/// why.
#[test]
fn manager_sheds_queries_but_serves_liveness_traffic() {
    let cfg = LiveManagerConfig {
        shed_conns: 1,
        read_progress_timeout: Duration::from_millis(200),
        ..LiveManagerConfig::default()
    };
    let sink = MemorySink::new();
    let buffer = sink.buffer();
    let tracer = Tracer::with_sink(Box::new(sink), Severity::Debug);
    let (mgr, addr) = LiveManager::bind_with(cfg, 0, tracer).unwrap();

    // Protected traffic is admitted even though the manager considers
    // itself overloaded from the first connection.
    let resp = rpc(
        addr,
        Request::Register {
            status: status(1, 0.1),
            listen_addr: "127.0.0.1:9001".into(),
        },
    );
    assert_eq!(resp, Response::Registered);
    let resp = rpc(
        addr,
        Request::Heartbeat {
            status: status(1, 0.2),
        },
    );
    assert_eq!(resp, Response::HeartbeatAck);
    assert_eq!(mgr.alive_count(), 1, "liveness tracking stays intact");

    // Sheddable traffic is refused with the configured retry hint.
    for _ in 0..3 {
        let resp = rpc(
            addr,
            Request::Discover {
                user: 7,
                lat: 44.98,
                lon: -93.26,
                top_n: 2,
            },
        );
        assert_eq!(
            resp,
            Response::Busy {
                retry_after_ms: BUSY_RETRY_MS
            }
        );
    }
    assert_eq!(mgr.shed_count(), 3);
    assert_eq!(mgr.discoveries_served(), 0, "shed queries never served");

    // Liveness traffic still flows after the storm of refusals.
    let resp = rpc(
        addr,
        Request::Heartbeat {
            status: status(1, 0.3),
        },
    );
    assert_eq!(resp, Response::HeartbeatAck);

    // A length prefix promising 64 bytes, two of them, then nothing.
    let mut loris = TcpStream::connect(addr).unwrap();
    loris
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    loris.write_all(&64u32.to_be_bytes()).unwrap();
    loris.write_all(b"xy").unwrap();
    let cut = loris.read(&mut [0u8; 16]);
    assert!(matches!(cut, Ok(0) | Err(_)), "the loris must be evicted");
    let evictions = || {
        let events = parse_jsonl(&buffer.lock().unwrap()).unwrap();
        let evict = events.into_iter().filter(|e| e.kind == "overload.evict");
        let fields = |e: TraceEvent| {
            let text = |key| e.field_str(key).unwrap().to_string();
            format!(
                "{} {} {}",
                text("server"),
                e.field_u64("id").unwrap(),
                text("reason")
            )
        };
        evict.map(fields).collect::<Vec<_>>()
    };
    let traced = cfg!(feature = "trace");
    let deadline = Instant::now() + Duration::from_secs(2);
    while traced && evictions().is_empty() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let expected: &[&str] = if traced {
        &["manager 0 slow-loris"]
    } else {
        &[]
    };
    assert_eq!(evictions(), expected);
}

/// A node with one worker and a one-slot queue, made heavy via
/// simulated geographic delay: the first request occupies the worker,
/// the second fills the queue, and the third must come back `Busy`
/// immediately — not hang behind an unbounded queue. Once the pool
/// drains, the refused connection is served normally again.
#[test]
fn node_pool_saturation_refuses_with_busy_instead_of_hanging() {
    let live = LiveNodeConfig {
        max_in_flight: 2,
        ..LiveNodeConfig::default()
    };
    let (node, addr) =
        LiveNode::bind_with(node_config(1, 150), live, None, Tracer::disabled()).unwrap();

    let connect = || {
        let s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s
    };
    let mut a = connect();
    let mut b = connect();
    let mut c = connect();

    // A occupies the single worker (two 150 ms delay legs), B fills
    // the one queue slot. The sleeps let each job actually reach the
    // pool before the next arrives.
    send(&mut a, &Request::RttProbe);
    std::thread::sleep(Duration::from_millis(50));
    send(&mut b, &Request::RttProbe);
    std::thread::sleep(Duration::from_millis(50));

    // C is refused *now*, well before the pool drains.
    let refused_at = Instant::now();
    send(&mut c, &Request::RttProbe);
    let resp = read_response(&mut c).unwrap().0;
    assert_eq!(
        resp,
        Response::Busy {
            retry_after_ms: BUSY_RETRY_MS
        }
    );
    assert!(
        refused_at.elapsed() < Duration::from_millis(200),
        "a refusal must not wait for the pool to drain ({:?})",
        refused_at.elapsed()
    );
    assert!(node.busy_count() >= 1);

    // The queued work completes untouched by the refusal.
    assert_eq!(read_response(&mut a).unwrap().0, Response::RttPong);
    assert_eq!(read_response(&mut b).unwrap().0, Response::RttPong);

    // The refused connection was never paused or closed: once capacity
    // frees, the same stream is served normally.
    send(&mut c, &Request::RttProbe);
    assert_eq!(read_response(&mut c).unwrap().0, Response::RttPong);
}

/// A `Busy` refusal from the home manager is a backoff signal, not a
/// failure: the client counts it against that manager's breaker, traces
/// the server-directed pause, and walks the route — the peer shard
/// serves the session. Asserts on captured trace contents, so it only
/// runs with the `trace` feature compiled in.
#[cfg(feature = "trace")]
#[test]
fn client_backs_off_on_busy_and_fails_over_to_the_peer_shard() {
    use armada_types::ClientConfig;

    let shed_cfg = LiveManagerConfig {
        shed_conns: 1,
        ..LiveManagerConfig::default()
    };
    let (shedding, shed_addr) = LiveManager::bind_with(shed_cfg, 0, Tracer::disabled()).unwrap();
    let (_healthy, healthy_addr) = LiveManager::bind_federated(1, Tracer::disabled()).unwrap();
    let (_node, _) = LiveNode::bind(node_config(3, 0), Some(healthy_addr)).unwrap();

    let sink = MemorySink::new();
    let buffer = sink.buffer();
    let tracer = Tracer::with_sink(Box::new(sink), Severity::Debug);
    let client = armada_live::LiveClient::new(
        700,
        GeoPoint::new(44.98, -93.26),
        ClientConfig::default().with_top_n(1),
    )
    .with_tracer(tracer);

    let report = client
        .run_session_any(&[shed_addr, healthy_addr], 2)
        .expect("the peer shard must carry the session while home sheds");
    assert_eq!(report.latencies.len(), 2);
    assert!(shedding.shed_count() >= 1, "home manager shed the query");
    assert!(
        !client.is_degraded(),
        "a served session is not a degraded episode"
    );

    let trace = buffer.lock().unwrap().clone();
    assert!(
        trace.contains(r#""kind":"mgr.busy""#),
        "Busy must trace the backoff pause:\n{trace}"
    );
    assert!(
        trace.contains(r#""kind":"fed.failover""#),
        "the session must be served by the next shard in the route:\n{trace}"
    );
}

/// Back-to-back heavy requests of *different* kinds on one connection
/// come back in request order even at the pool bound: the read gate
/// (pause on enqueue, resume on completion) serializes a connection's
/// requests through the offload.
#[test]
fn read_gating_preserves_request_order_at_the_pool_bound() {
    let live = LiveNodeConfig {
        max_in_flight: 2,
        ..LiveNodeConfig::default()
    };
    let (_node, addr) =
        LiveNode::bind_with(node_config(2, 40), live, None, Tracer::disabled()).unwrap();

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // Both frames hit the server socket before the first is handled;
    // if the gate leaked, the replies could interleave or reorder.
    send(&mut stream, &Request::RttProbe);
    send(&mut stream, &Request::ProcessProbe);
    assert_eq!(read_response(&mut stream).unwrap().0, Response::RttPong);
    assert!(matches!(
        read_response(&mut stream).unwrap().0,
        Response::ProbeReply { .. }
    ));
}

/// One `Discover` on `stream` that never panics: `Some(true)` served,
/// `Some(false)` refused with `Busy`, `None` for any failure.
fn discover_on(stream: &mut TcpStream, user: u64) -> Option<bool> {
    stream.set_nodelay(true).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(1))).ok()?;
    let request = Request::Discover {
        user,
        lat: 44.98,
        lon: -93.26,
        top_n: 2,
    };
    write_request(stream, Codec::Binary, &request).ok()?;
    match read_response(stream).ok()?.0 {
        Response::Candidates { .. } => Some(true),
        Response::Busy { .. } => Some(false),
        _ => None,
    }
}

/// Connect → `Discover` → disconnect, as floods and honest clients
/// query.
fn discover_once(addr: SocketAddr, user: u64) -> Option<bool> {
    discover_on(&mut TcpStream::connect(addr).ok()?, user)
}

/// What one storm intensity did to the manager and its honest clients.
struct StormPoint {
    stampede: u64,
    client_served: u64,
    sheds: u64,
    alive_min: usize,
    post_alive: usize,
}

/// A fresh manager (shedding past 32 connections, evicting a stalled
/// frame after 500 ms) with three nodes heartbeating every 300 ms, under
/// the seeded storm at `intensity` for `window`: reconnect floods, a
/// slow-loris cohort and a stampede that dials as one and holds its
/// connections 300 ms, while four honest clients query throughout.
fn storm_point(intensity: f64, window: Duration) -> StormPoint {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    use armada_chaos::{StormPlan, StormRole};

    const NODES: usize = 3;
    const HEARTBEAT: Duration = Duration::from_millis(300);
    let cfg = LiveManagerConfig {
        threads: 2,
        liveness_window: HEARTBEAT * 4,
        shed_conns: 32,
        read_progress_timeout: Duration::from_millis(500),
    };
    let (mgr, addr) = LiveManager::bind_with(cfg, 0, Tracer::disabled()).unwrap();
    let nodes: Vec<LiveNode> = (0..NODES as u64)
        .map(|id| {
            let live = LiveNodeConfig {
                heartbeat_period: HEARTBEAT,
                ..LiveNodeConfig::default()
            };
            LiveNode::bind_with(node_config(id, 0), live, Some(addr), Tracer::disabled())
                .unwrap()
                .0
        })
        .collect();
    assert_eq!(mgr.alive_count(), NODES, "registration is synchronous");

    let plan = StormPlan::uniform(42, intensity);
    let stop = AtomicBool::new(false);
    let served = AtomicU64::new(0);
    let started = Instant::now();
    let alive_min = std::thread::scope(|scope| {
        let (plan, stop, served) = (&plan, &stop, &served);
        // The storm: one thread per hostile connection, each opening on
        // the plan's deterministic schedule.
        scope.spawn(move || {
            for event in plan.schedule() {
                let due = Duration::from_micros(event.at_us);
                std::thread::sleep(due.saturating_sub(started.elapsed()));
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                scope.spawn(move || match event.role {
                    StormRole::Flood => {
                        let mut attempt = 0;
                        while !stop.load(Ordering::Relaxed) {
                            discover_once(addr, 1_000 + event.index);
                            let pause = plan.reconnect_pause_us(event.index, attempt);
                            std::thread::sleep(Duration::from_micros(pause));
                            attempt += 1;
                        }
                    }
                    // Announce a 4 KiB frame and trickle it a byte at a
                    // time until evicted or the storm ends.
                    StormRole::Loris => {
                        let Ok(mut stream) = TcpStream::connect(addr) else {
                            return;
                        };
                        let mut ok = stream.write_all(&4096u32.to_be_bytes()).is_ok();
                        let mut seq = 0;
                        while ok && !stop.load(Ordering::Relaxed) {
                            let pause = plan.trickle_pause_us(event.index, seq);
                            std::thread::sleep(Duration::from_micros(pause));
                            ok = stream.write_all(b"{").is_ok();
                            seq += 1;
                        }
                    }
                    StormRole::Stampede => {
                        let held = TcpStream::connect(addr).ok().map(|mut stream| {
                            discover_on(&mut stream, 2_000 + event.index);
                            stream
                        });
                        std::thread::sleep(Duration::from_millis(300));
                        drop(held);
                    }
                });
            }
        });
        for client in 0..4 {
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if discover_once(addr, 3_000 + client) == Some(true) {
                        served.fetch_add(1, Ordering::Relaxed);
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            });
        }
        // Liveness is sampled through the storm, not only after it.
        let mut alive_min = usize::MAX;
        while started.elapsed() < window {
            alive_min = alive_min.min(mgr.alive_count());
            std::thread::sleep(Duration::from_millis(50));
        }
        stop.store(true, Ordering::Relaxed);
        alive_min
    });
    std::thread::sleep(HEARTBEAT * 2);
    let point = StormPoint {
        stampede: plan.stampede,
        client_served: served.load(Ordering::Relaxed),
        sheds: mgr.shed_count(),
        alive_min,
        post_alive: mgr.alive_count(),
    };
    for node in &nodes {
        node.shutdown();
    }
    point
}

/// Seeded storms at intensity 0, 0.5 and 1 (up to 64 flood workers, 16
/// lorises and a 64-connection stampede), 900 ms each: no heartbeating
/// node is ever declared dead, during a storm or after it; honest
/// clients are served at every intensity, with no tenfold goodput drop
/// from one intensity to the next; and where the stampede alone passes
/// the admission threshold, queries were shed.
#[test]
#[ignore = "a three-point storm sweep of several seconds; CI runs it in release with --ignored"]
fn storm_sweep_keeps_liveness_and_goodput_and_engages_shedding() {
    // Floods, lorises and the stampede, all held at once at full
    // intensity.
    armada_reactor::raise_nofile(4_096).unwrap();
    let points: Vec<(f64, StormPoint)> = [0.0, 0.5, 1.0]
        .into_iter()
        .map(|i| (i, storm_point(i, Duration::from_millis(900))))
        .collect();
    for (i, p) in &points {
        assert_eq!(
            (p.alive_min, p.post_alive),
            (3, 3),
            "intensity {i}: a node was declared dead during or after the storm"
        );
        assert!(p.client_served > 0, "intensity {i}: goodput collapsed");
    }
    for pair in points.windows(2) {
        let ((lo, a), (hi, b)) = (&pair[0], &pair[1]);
        assert!(
            b.client_served * 10 >= a.client_served,
            "goodput cliff from intensity {lo} ({}) to {hi} ({})",
            a.client_served,
            b.client_served
        );
    }
    let over: Vec<&StormPoint> = points
        .iter()
        .map(|(_, p)| p)
        .filter(|p| p.stampede > 32)
        .collect();
    assert!(!over.is_empty(), "the sweep must pass the threshold");
    assert!(
        over.iter().map(|p| p.sheds).sum::<u64>() > 0,
        "the storm passed the admission threshold but nothing was shed"
    );
}
