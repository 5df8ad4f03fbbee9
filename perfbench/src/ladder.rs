//! The per-layer ladder: each crate's public functions timed from
//! outside, in progressively fuller stacks, so that the difference
//! between two rungs is the cost of what the upper one adds — codec
//! alone, a reactor echo, the echo through the blocking pool, a node
//! serving a frame, the client driving that node.
//!
//! Every rung is independent of the workload being traced; a traced
//! run of any workload climbs the whole ladder once.

use std::hint::black_box;
use std::net::{TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use armada_client::{rank_candidates, PredictiveSelector, PredictorParams, ProbeResult};
use armada_core::{EnvSpec, Scenario, Strategy};
use armada_federation::{FederatedCluster, ShardMap};
use armada_live::{LiveNode, NodeConfig};
use armada_manager::{CentralManager, GlobalSelectionPolicy};
use armada_net::Addr;
use armada_node::NodeStatus;
use armada_reactor::{AcceptFactory, Conn, ConnCtx, Reactor, ReactorConfig, Source, UdpHandler};
use armada_sim::{EventQueue, SimRng, Simulation};
use armada_trace::{u, MemorySink, Severity, Tracer};
use armada_types::{
    ClientConfig, GeoPoint, HardwareProfile, NodeClass, NodeId, SimDuration, SimTime, SystemConfig,
    UserId,
};
use armada_wire::{
    decode_request, decode_response, read_frame_bytes, read_response, recv_response, send_request,
    write_frame, write_request, Codec, Request, Response, UdpTransport, WireNodeStatus,
    WireSummary,
};
use armada_workload::PsExecutor;

use crate::gen;
use crate::report::Outcome;
use crate::stats;
use crate::workloads::{fleet, sim};
use crate::RunCfg;

/// How long each timed rung runs.
const RUNG: Duration = Duration::from_millis(150);
/// Loopback rungs need more exchanges for a steady median.
const NET_RUNG: Duration = Duration::from_millis(300);

/// Median nanoseconds per call of `f`, timed in batches long enough
/// that the clock reads are noise.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let mut batch = 1u64;
    loop {
        let started = Instant::now();
        for _ in 0..batch {
            f();
        }
        if started.elapsed() >= Duration::from_micros(200) || batch >= 1 << 24 {
            break;
        }
        batch *= 2;
    }
    let mut per_call = Vec::new();
    let deadline = Instant::now() + RUNG;
    while Instant::now() < deadline || per_call.len() < 5 {
        let started = Instant::now();
        for _ in 0..batch {
            f();
        }
        per_call.push(started.elapsed().as_nanos() as f64 / batch as f64);
    }
    stats::median(&per_call).expect("at least five batches")
}

/// Median microseconds of one call of `f`, each call timed on its own,
/// for `budget`.
fn us_p50(budget: Duration, mut f: impl FnMut()) -> f64 {
    let mut us = Vec::new();
    let deadline = Instant::now() + budget;
    while Instant::now() < deadline || us.len() < 20 {
        let started = Instant::now();
        f();
        us.push(started.elapsed().as_nanos() as f64 / 1e3);
    }
    // The first calls open connections and fault pages in.
    let warm = us.len() / 10;
    stats::percentile(&mut us[warm..], 0.5).expect("at least twenty calls")
}

fn codec_round_trip(codec: Codec, request: &Request, response: &Response) -> (f64, f64) {
    let ns = ns_per_call(|| {
        let body = codec.encode_request(black_box(request));
        black_box(decode_request(&body).expect("own encoding decodes"));
        let body = codec.encode_response(black_box(response));
        black_box(decode_response(&body).expect("own encoding decodes"));
    });
    let bytes = codec.encode_request(request).len() + codec.encode_response(response).len();
    (ns, bytes as f64)
}

fn wire(out: &mut Outcome, fleet: &[WireNodeStatus]) {
    let frame = Request::Frame {
        user: 1_001,
        seq: 250,
        payload_len: 20_000,
    };
    let frame_result = Response::FrameResult {
        seq: 250,
        processing_us: 57,
    };
    let (ns, bytes) = codec_round_trip(Codec::Binary, &frame, &frame_result);
    out.put("wire.frame_codec_ns", ns);
    out.put("wire.frame_bytes", bytes);
    let (ns, _) = codec_round_trip(Codec::Json, &frame, &frame_result);
    out.put("wire.json_frame_codec_ns", ns);

    let discover = fleet::discover_request(7, fleet[0].location);
    let candidates = Response::Candidates {
        nodes: (1..=fleet::TOP_N as u64)
            .map(|id| (id, format!("127.0.0.1:{}", 10_000 + id)))
            .collect(),
    };
    let (ns, bytes) = codec_round_trip(Codec::Binary, &discover, &candidates);
    out.put("wire.discover_codec_ns", ns);
    out.put("wire.discover_bytes", bytes);

    let heartbeat = Request::Heartbeat {
        status: fleet[0].clone(),
    };
    let (ns, _) = codec_round_trip(Codec::Binary, &heartbeat, &Response::HeartbeatAck);
    out.put("wire.heartbeat_codec_ns", ns);

    let sync = Request::SyncSummaries {
        from: 1,
        summaries: fleet
            .iter()
            .cycle()
            .take(1_000)
            .map(|status| WireSummary {
                status: status.clone(),
                listen_addr: format!("127.0.0.1:{}", 10_000 + status.id % 50_000),
                age_us: 1_500_000,
            })
            .collect(),
    };
    let (ns, _) = codec_round_trip(Codec::Binary, &sync, &Response::SyncAck { applied: 1_000 });
    out.put("wire.sync_codec_us", ns / 1e3);
}

/// Echoes each frame from the loop thread.
struct Echo;

impl Conn for Echo {
    fn on_frame(&mut self, frame: Vec<u8>, ctx: &mut ConnCtx) {
        ctx.send(frame);
    }
}

/// Echoes each frame through the blocking pool with reads paused, the
/// way `LiveNode` serves a `Frame`.
struct PoolEcho;

impl Conn for PoolEcho {
    fn on_frame(&mut self, frame: Vec<u8>, ctx: &mut ConnCtx) {
        let id = ctx.conn_id();
        let handle = ctx.handle().clone();
        let queued = ctx.handle().pool().try_spawn(move || {
            handle.send(id, frame);
            handle.resume(id);
        });
        if queued.is_ok() {
            ctx.pause();
        }
    }
}

fn echo_listener(reactor: &Reactor, pooled: bool) -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let factory: AcceptFactory = Box::new(move |stream, _peer| {
        let _ = stream.set_nodelay(true);
        let conn: Box<dyn Conn> = if pooled {
            Box::new(PoolEcho)
        } else {
            Box::new(Echo)
        };
        Some((Box::new(stream) as Box<dyn Source>, conn))
    });
    reactor
        .handle()
        .add_listener(listener, factory)
        .expect("listener registers");
    addr
}

fn echo_once(stream: &mut TcpStream, body: &[u8]) {
    write_frame(stream, body).expect("echo request");
    let back = read_frame_bytes(stream).expect("echo reply");
    assert_eq!(back.len(), body.len(), "echo changed the frame");
}

fn reactor(out: &mut Outcome) {
    let reactor = Reactor::new(ReactorConfig {
        threads: 1,
        ..ReactorConfig::default()
    })
    .expect("reactor starts");
    // A frame-sized body: what a `Frame` request weighs on the wire.
    let body = [7u8; 16];

    let inline_addr = echo_listener(&reactor, false);
    let mut held = fleet::connect(inline_addr);
    out.put(
        "reactor.echo_rtt_us_p50",
        us_p50(NET_RUNG, || echo_once(&mut held, &body)),
    );
    out.put(
        "reactor.accept_echo_us_p50",
        us_p50(NET_RUNG, || {
            let mut fresh = fleet::connect(inline_addr);
            echo_once(&mut fresh, &body);
        }),
    );

    let pooled_addr = echo_listener(&reactor, true);
    let mut held = fleet::connect(pooled_addr);
    out.put(
        "reactor.pool_echo_rtt_us_p50",
        us_p50(NET_RUNG, || echo_once(&mut held, &body)),
    );

    let server = UdpSocket::bind("127.0.0.1:0").expect("udp bind");
    let udp_addr = server.local_addr().expect("udp addr");
    let handler: UdpHandler = Box::new(|datagram, peer, socket, _handle| {
        let _ = socket.send_to(datagram, peer);
    });
    reactor
        .handle()
        .add_udp(server, handler)
        .expect("udp registers");
    let client = UdpSocket::bind("127.0.0.1:0").expect("udp bind");
    client.connect(udp_addr).expect("udp connect");
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("udp timeout");
    let mut buf = [0u8; 64];
    out.put(
        "reactor.udp_echo_rtt_us_p50",
        us_p50(NET_RUNG, || {
            client.send(&body).expect("udp send");
            client.recv(&mut buf).expect("udp echo");
        }),
    );

    // How late a 1 ms timer fires: the wheel ticks in milliseconds, so
    // this is the floor under every heartbeat and sync deadline.
    let delay = Duration::from_millis(1);
    let mut lag_us = Vec::new();
    for _ in 0..150 {
        let (tx, rx) = mpsc::channel();
        let armed = Instant::now();
        reactor.handle().timer_after(delay, move |_| {
            let _ = tx.send(Instant::now());
        });
        let fired = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("timer fires");
        lag_us.push(fired.duration_since(armed).saturating_sub(delay).as_nanos() as f64 / 1e3);
    }
    out.set(
        "reactor.timer_lag_us_p50",
        stats::percentile(&mut lag_us, 0.5),
        None,
    );
}

fn node_status(status: &WireNodeStatus) -> NodeStatus {
    NodeStatus {
        node: NodeId::new(status.id),
        class: status.class,
        location: status.location,
        attached_users: status.attached_users,
        load_score: status.load_score,
    }
}

/// The sans-IO discovery engine on the same fleet the live manager
/// serves with a linear scan: the floor `fleet_mixed`'s discovery
/// latency can reach once the live manager serves from it.
fn manager(out: &mut Outcome, fleet: &[WireNodeStatus], queries: &[GeoPoint]) {
    let statuses: Vec<NodeStatus> = fleet.iter().map(node_status).collect();
    let mut mgr = CentralManager::new(SystemConfig::default(), GlobalSelectionPolicy::default());
    for status in &statuses {
        mgr.register(*status, SimTime::ZERO);
    }
    let now = SimTime::from_secs(1);
    let mut next = 0usize;
    out.put(
        "manager.heartbeat_ns",
        ns_per_call(|| {
            mgr.heartbeat(statuses[next], now);
            next = (next + 1) % statuses.len();
        }),
    );
    // One heartbeat lands, then the next epoch is published while the
    // previous snapshot is still held — the copy-on-write case.
    let mut held = mgr.published();
    out.put(
        "manager.publish_us_p50",
        us_p50(RUNG, || {
            mgr.heartbeat(statuses[next], now);
            next = (next + 1) % statuses.len();
            held = mgr.published();
        }),
    );
    let snapshot = mgr.published();
    let mut q = 0usize;
    out.put(
        "manager.snapshot_discover_us_p50",
        us_p50(RUNG, || {
            black_box(snapshot.discover(queries[q % queries.len()], &[], fleet::TOP_N, now));
            q += 1;
        }),
    );
}

fn federation(out: &mut Outcome, fleet: &[WireNodeStatus], queries: &[GeoPoint]) {
    let statuses: Vec<NodeStatus> = fleet.iter().map(node_status).collect();
    let points: Vec<GeoPoint> = statuses.iter().map(|s| s.location).collect();
    let mut cluster = FederatedCluster::new(
        ShardMap::partition(&points, 4),
        SystemConfig::default(),
        GlobalSelectionPolicy::default(),
    );
    for status in &statuses {
        cluster.register(*status, SimTime::ZERO);
    }
    // The first round ships every node; the rounds after it ship one
    // heartbeat period of deltas, which is the steady state.
    cluster.sync_round(SimTime::from_micros(500));
    let mut round_us = Vec::new();
    for step in 1..=5u64 {
        let at = SimTime::from_secs(2 * step);
        for status in &statuses {
            cluster.heartbeat(*status, at);
        }
        let started = Instant::now();
        black_box(cluster.sync_round(SimTime::from_micros(at.as_micros() + 500)));
        round_us.push(started.elapsed().as_nanos() as f64 / 1e3);
    }
    out.set("federation.sync_round_us", stats::median(&round_us), None);
    let now = SimTime::from_secs(11);
    let mut q = 0usize;
    out.put(
        "federation.discover_us_p50",
        us_p50(RUNG, || {
            black_box(cluster.discover(queries[q % queries.len()], &[], fleet::TOP_N, now));
            q += 1;
        }),
    );
}

/// The live manager alone, one kind of traffic at a time, inside the
/// 6 s liveness window of the registrations: what reads cost without
/// writes and writes without reads. `fleet_mixed` minus these is the
/// interference.
fn live_manager(out: &mut Outcome, cfg: &RunCfg, fleet: &[WireNodeStatus], queries: &[GeoPoint]) {
    let started = Instant::now();
    let (manager, addr) = fleet::build(fleet);
    out.put(
        "live.manager.register_us",
        started.elapsed().as_nanos() as f64 / 1e3 / fleet.len() as f64,
    );

    let mut held = fleet::connect(addr);
    let mut q = 0usize;
    let mut discover = |stream: &mut TcpStream| {
        let request = fleet::discover_request(q as u64, queries[q % queries.len()]);
        q += 1;
        write_request(stream, Codec::Binary, &request).expect("discover sent");
        match read_response(stream).expect("discover answered").0 {
            Response::Candidates { nodes } => assert_eq!(nodes.len(), fleet::TOP_N),
            other => panic!("discover answered {other:?}"),
        }
    };
    out.put(
        "live.manager.discover_idle_us_p50",
        us_p50(Duration::from_millis(800), || discover(&mut held)),
    );
    out.put(
        "live.manager.discover_fresh_conn_us_p50",
        us_p50(Duration::from_millis(400), || {
            discover(&mut fleet::connect(addr))
        }),
    );

    // Writes only: the same open-loop schedule `fleet_mixed` runs, for
    // one full heartbeat period so every node is refreshed once.
    let frames = fleet::heartbeat_frames(fleet);
    let stop = AtomicBool::new(false);
    let origin = Instant::now();
    let side = std::thread::scope(|scope| {
        let generator = scope.spawn(|| fleet::heartbeat_loop(addr, &frames, origin, &stop));
        std::thread::sleep(Duration::from_millis(if cfg.quick { 2_100 } else { 2_200 }));
        stop.store(true, Ordering::Relaxed);
        generator.join().expect("heartbeat generator")
    });
    let mut idle_us: Vec<f64> = side.samples.side_latency_us.iter().map(|s| s.1).collect();
    out.set(
        "live.manager.heartbeat_idle_us_p50",
        stats::percentile(&mut idle_us, 0.5),
        None,
    );
    out.put(
        "live.manager.false_dead",
        fleet.len().saturating_sub(manager.alive_count()) as f64,
    );
}

/// One node driven by a raw `armada-wire` client, no `LiveClient`:
/// what the node and the reactor under it cost per exchange.
fn live_node(out: &mut Outcome) {
    let config = NodeConfig {
        id: 1,
        class: NodeClass::Volunteer,
        hw: HardwareProfile::new("perf", 4, 0.001).with_concurrency(4),
        location: GeoPoint::new(gen::ANCHOR.0, gen::ANCHOR.1),
        one_way_delay: Duration::ZERO,
    };
    let (_node, addr) = LiveNode::bind(config, None).expect("node binds");
    let mut stream = fleet::connect(addr);
    let mut rpc = |request: &Request| -> Response {
        write_request(&mut stream, Codec::Binary, request).expect("request sent");
        read_response(&mut stream).expect("request answered").0
    };

    let mut seq = 0u64;
    out.put(
        "live.node.frame_rtt_us_p50",
        us_p50(Duration::from_millis(500), || {
            let reply = rpc(&Request::Frame {
                user: 1,
                seq,
                payload_len: 20_000,
            });
            assert!(matches!(reply, Response::FrameResult { .. }), "{reply:?}");
            seq += 1;
        }),
    );
    out.put(
        "live.node.tcp_probe_rtt_us_p50",
        us_p50(NET_RUNG, || {
            assert_eq!(rpc(&Request::RttProbe), Response::RttPong);
        }),
    );

    // Join is timed alone; the probe before it fetches the sequence
    // number a join must echo, the leave after it frees the slot.
    let mut join_us = Vec::new();
    for user in 0..300u64 {
        let Response::ProbeReply { seq, .. } = rpc(&Request::ProcessProbe) else {
            panic!("process probe refused");
        };
        let started = Instant::now();
        let reply = rpc(&Request::Join { user, seq });
        join_us.push(started.elapsed().as_nanos() as f64 / 1e3);
        assert_eq!(reply, Response::JoinResult { accepted: true });
        assert_eq!(rpc(&Request::Leave { user }), Response::Ack);
    }
    out.set(
        "live.node.join_rtt_us_p50",
        stats::percentile(&mut join_us, 0.5),
        None,
    );

    let mut udp = UdpTransport::connect(addr).expect("udp connect");
    udp.get_ref()
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("udp timeout");
    out.put(
        "live.node.udp_probe_rtt_us_p50",
        us_p50(NET_RUNG, || {
            send_request(&mut udp, Codec::Binary, &Request::RttProbe).expect("probe sent");
            let pong = recv_response(&mut udp).expect("probe answered").0;
            assert_eq!(pong, Response::RttPong);
        }),
    );
}

fn probe_results(n: u64) -> Vec<ProbeResult> {
    let mut rng = gen::Rng::new(3, 30);
    (0..n)
        .map(|i| ProbeResult {
            node: NodeId::new(i),
            rtt: SimDuration::from_millis_f64(rng.uniform(5.0, 80.0)),
            whatif_proc: SimDuration::from_millis_f64(rng.uniform(20.0, 120.0)),
            current_proc: SimDuration::from_millis_f64(rng.uniform(20.0, 120.0)),
            attached_users: (rng.next_u64() % 8) as usize,
            seq_num: 0,
        })
        .collect()
}

/// The sans-IO cores the simulator spends its time in.
fn sim_cores(out: &mut Outcome) {
    let config = ClientConfig::default();
    let results = probe_results(config.top_n as u64);
    out.put(
        "client.rank_candidates_ns",
        ns_per_call(|| {
            black_box(rank_candidates(results.clone(), config.policy, config.qos));
        }),
    );
    let mut selector = PredictiveSelector::new(PredictorParams::default());
    let mut t = 0u64;
    out.put(
        "client.predictor_observe_ns",
        ns_per_call(|| {
            t += 10_000_000;
            selector.observe_probe(
                &results[(t / 10_000_000) as usize % results.len()],
                SimTime::from_micros(t),
            );
        }),
    );

    let hw = HardwareProfile::new("perf", 4, 30.0);
    let per_hundred = ns_per_call(|| {
        let mut exec = PsExecutor::new(&hw);
        for i in 0..100u32 {
            black_box(exec.admit(i, SimTime::from_millis(u64::from(i) * 10)));
        }
        black_box(exec.advance(SimTime::from_secs(100)).len());
    });
    out.put("workload.ps_executor_ns", per_hundred / 100.0);

    let mut rng = gen::Rng::new(1, 31);
    let times: Vec<u64> = (0..10_000).map(|_| rng.next_u64() % 1_000_000).collect();
    let per_batch = ns_per_call(|| {
        let mut queue = EventQueue::new();
        for &t in &times {
            queue.push(SimTime::from_micros(t), t);
        }
        let mut sum = 0u64;
        while let Some((_, v)) = queue.pop() {
            sum = sum.wrapping_add(v);
        }
        black_box(sum);
    });
    out.put("sim.queue_push_pop_ns", per_batch / times.len() as f64);

    // No-op events through the whole engine: schedule, pop, dispatch.
    const EVENTS: u64 = 200_000;
    let mut rates = Vec::new();
    for _ in 0..3 {
        let mut engine = Simulation::new(0u64, 1);
        for i in 0..EVENTS {
            engine.schedule_at(SimTime::from_micros(i % 50_000), |count, _| *count += 1);
        }
        let started = Instant::now();
        engine.run();
        rates.push(EVENTS as f64 / started.elapsed().as_secs_f64());
        assert_eq!(*engine.world(), EVENTS);
    }
    out.set("sim.engine_events_per_s", stats::median(&rates), None);

    let env = sim::metro_env(1, 40, 40);
    let network = env.to_network();
    let mut sim_rng = SimRng::seed_from(1);
    let mut i = 0u64;
    out.put(
        "net.sample_delay_ns",
        ns_per_call(|| {
            i += 1;
            black_box(network.rtt(
                Addr::User(UserId::new(i % 40)),
                Addr::Node(NodeId::new(i % 37)),
                &mut sim_rng,
            ));
        }),
    );
}

fn core(out: &mut Outcome, cfg: &RunCfg) {
    let base = sim::scenario(cfg.seed, cfg.quick);
    let mut build_s = Vec::new();
    for _ in 0..5 {
        let scenario = base.clone().duration(SimDuration::ZERO);
        let started = Instant::now();
        black_box(scenario.run().end_time());
        build_s.push(started.elapsed().as_secs_f64());
    }
    out.set("core.build_s", stats::median(&build_s), None);

    // The 40 s, 15-user scenario every figure binary runs.
    let mut rates = Vec::new();
    let mut latency_ms = 0.0;
    for _ in 0..3 {
        let scenario = Scenario::new(EnvSpec::realworld(15), Strategy::client_centric())
            .duration(SimDuration::from_secs(40))
            .seed(cfg.seed);
        let started = Instant::now();
        let result = scenario.run();
        rates.push(result.recorder().len() as f64 / started.elapsed().as_secs_f64());
        latency_ms = sim::fingerprint(&result).latency_ms_mean;
    }
    out.set("core.realworld15_frames_per_s", stats::median(&rates), None);
    out.put("core.realworld15_latency_ms_mean", latency_ms);
}

/// What one emission site costs with the tracer off — the budget the
/// observability work must stay inside — and with a sink attached.
fn trace(out: &mut Outcome) {
    let fields = || vec![("user", u(7)), ("latency_us", u(107))];
    let off = Tracer::disabled();
    out.put(
        "trace.emit_disabled_ns",
        ns_per_call(|| black_box(&off).emit(Severity::Debug, "frame.done", fields)),
    );
    // A fixed count: the memory sink keeps every line it is given.
    const EMITS: u32 = 50_000;
    let on = Tracer::with_sink(Box::new(MemorySink::new()), Severity::Debug);
    let started = Instant::now();
    for _ in 0..EMITS {
        on.emit(Severity::Debug, "frame.done", fields);
    }
    out.put(
        "trace.emit_memory_ns",
        started.elapsed().as_nanos() as f64 / f64::from(EMITS),
    );
}

/// Climbs every rung. The fleet-sized rungs use the same seeded fleet
/// `fleet_mixed` registers.
pub fn climb(out: &mut Outcome, cfg: &RunCfg) {
    let fleet = gen::fleet(cfg.seed, fleet::fleet_size(cfg.quick));
    let queries = gen::points(cfg.seed, 2, 1_024, 100.0);
    wire(out, &fleet);
    reactor(out);
    manager(out, &fleet, &queries);
    federation(out, &fleet, &queries);
    live_manager(out, cfg, &fleet, &queries);
    live_node(out);
    sim_cores(out);
    core(out, cfg);
    trace(out);
}
