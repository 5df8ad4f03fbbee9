//! `fleet_mixed`: one manager, a large registered fleet, heartbeats on
//! an open-loop schedule and discovery queries in a closed loop — reads
//! and writes against the same registry, through two connections on
//! the manager's two loop threads.
//!
//! One generator thread issues both, a query and then whatever
//! heartbeats have fallen due, so a read and a write never overlap in
//! the manager. With a generator thread each they did overlap, but only
//! when the scheduler happened to preempt a scan for a heartbeat, and
//! the registry clone that costs switched on and off for ten seconds at
//! a time: inside one pinned run, nine rounds at 180 queries/s and then
//! sixteen at 300. What the clone costs is a finding (`README.md`), not
//! a number this host can hold steady.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use armada_live::{LiveManager, LiveManagerConfig};
use armada_trace::Tracer;
use armada_types::GeoPoint;
use armada_wire::{
    read_response, write_frame, write_request, Codec, Request, Response, WireNodeStatus,
};

use crate::gen::{self, OpenLoop};
use crate::measure::{self, OpRec, Paced, Samples};
use crate::reference::Reference;
use crate::report::Outcome;
use crate::rounds::{self, Plan};
use crate::spans::Spans;
use crate::stats;
use crate::RunCfg;

pub const TOP_N: usize = 3;
/// Registered nodes; `--quick` uses the smaller fleet.
pub const FLEET: usize = 20_000;
pub const QUICK_FLEET: usize = 2_000;
/// Every node heartbeats once per this many seconds (the runtime's own
/// period), so the schedule's rate is fleet ÷ 2 s.
const HEARTBEAT_PERIOD_S: u64 = 2;
/// The schedule releases heartbeats in 1 ms steps — the resolution of
/// the reactor timer wheel real nodes heartbeat from.
const TICK_NS: u64 = 1_000_000;
/// Seeded user positions the query loop cycles through.
const QUERY_POINTS: usize = 4_096;
/// One query point in this many is checked against the oracle.
const ORACLE_EVERY: usize = 100;
pub fn fleet_size(quick: bool) -> usize {
    if quick {
        QUICK_FLEET
    } else {
        FLEET
    }
}

/// A held connection with the runtime's own socket options and a read
/// timeout, so a wedged manager fails the run instead of hanging it.
pub fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("manager accepts");
    stream.set_nodelay(true).expect("nodelay");
    let budget = Some(Duration::from_secs(10));
    stream.set_read_timeout(budget).expect("read timeout");
    stream.set_write_timeout(budget).expect("write timeout");
    stream
}

/// Registrations in flight at once during set-up. A strict ping-pong
/// measures two thread wake-ups per node, which on a shared host swing
/// five-fold with how the hypervisor parks idle vCPUs; a pipeline keeps
/// the manager fed, so set-up time is the cost of registering.
const REGISTER_WINDOW: usize = 100;

/// Binds a two-loop manager and registers `fleet` with it over one held
/// connection, `REGISTER_WINDOW` requests at a time.
pub fn build(fleet: &[WireNodeStatus]) -> (LiveManager, SocketAddr) {
    let cfg = LiveManagerConfig {
        // One loop thread would serialise reads behind writes and let
        // the heartbeat schedule fall seconds behind.
        threads: 2,
        ..LiveManagerConfig::default()
    };
    let (manager, addr) =
        LiveManager::bind_with(cfg, 0, Tracer::disabled()).expect("manager binds");
    let mut stream = connect(addr);
    let mut buf = Vec::with_capacity(REGISTER_WINDOW * 96);
    for window in fleet.chunks(REGISTER_WINDOW) {
        buf.clear();
        for status in window {
            write_request(&mut buf, Codec::Binary, &register_request(status))
                .expect("writing to a Vec");
        }
        stream.write_all(&buf).expect("registrations sent");
        for _ in window {
            let reply = read_response(&mut stream).expect("registration answered").0;
            assert_eq!(reply, Response::Registered, "registration refused");
        }
    }
    (manager, addr)
}

pub fn register_request(status: &WireNodeStatus) -> Request {
    Request::Register {
        status: status.clone(),
        listen_addr: format!("127.0.0.1:{}", 10_000 + status.id % 50_000),
    }
}

/// Each node's heartbeat as the length-prefixed bytes that go on the
/// wire, encoded once: the generator's own codec work stays out of the
/// measured loop.
pub fn heartbeat_frames(fleet: &[WireNodeStatus]) -> Vec<Vec<u8>> {
    fleet
        .iter()
        .map(|status| {
            let body = Codec::Binary.encode_request(&Request::Heartbeat {
                status: status.clone(),
            });
            let mut frame = Vec::with_capacity(body.len() + 4);
            write_frame(&mut frame, &body).expect("writing to a Vec");
            frame
        })
        .collect()
}

pub fn discover_request(user: u64, at: GeoPoint) -> Request {
    Request::Discover {
        user,
        lat: at.lat(),
        lon: at.lon(),
        top_n: TOP_N,
    }
}

/// What the heartbeat schedule reports besides its samples.
pub struct HeartbeatSide {
    /// `side_latency_us` holds each heartbeat's service time: from
    /// the write of its batch to its ack.
    pub samples: Samples,
    /// Each heartbeat from the time it was due to its ack, ms: service
    /// time plus however late the generator sent it.
    pub from_due_ms: Vec<f64>,
    /// How late each batch went out, ms.
    pub late_ms: Vec<f64>,
    pub spans: Spans,
}

/// The open-loop heartbeat schedule on its held connection: every
/// tick, the batch that fell due goes out in one write and its acks
/// are read back. The schedule never skips a tick, so a stall shows up
/// as lateness and in every heartbeat's from-due time.
pub struct Heartbeats<'a> {
    stream: TcpStream,
    frames: &'a [Vec<u8>],
    schedule: OpenLoop,
    next: usize,
    buf: Vec<u8>,
    origin: Instant,
    base_ns: u64,
    /// The connection failed; nothing more is sent.
    broken: bool,
    side: HeartbeatSide,
}

impl<'a> Heartbeats<'a> {
    pub fn new(
        addr: SocketAddr,
        frames: &'a [Vec<u8>],
        origin: Instant,
        seconds: u64,
        trace: bool,
    ) -> Self {
        let rate = frames.len() as u64 / HEARTBEAT_PERIOD_S;
        let schedule = OpenLoop::new(rate, TICK_NS);
        let room = seconds as usize + 2;
        let side = HeartbeatSide {
            samples: Samples::for_run(seconds, 0, rate as usize),
            from_due_ms: measure::log_buffer(room * rate as usize, 1.0),
            late_ms: Vec::with_capacity(room * 1_000),
            spans: Spans::new(trace),
        };
        Heartbeats {
            stream: connect(addr),
            frames,
            buf: Vec::with_capacity(schedule.batch() as usize * 96),
            schedule,
            next: 0,
            origin,
            // Read last: the schedule starts when the logs are ready.
            base_ns: origin.elapsed().as_nanos() as u64,
            broken: false,
            side,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Nanoseconds until the next batch falls due; zero when one is.
    pub fn wait_ns(&self) -> u64 {
        (self.base_ns + self.schedule.next_due_ns()).saturating_sub(self.now_ns())
    }

    /// Sends the next batch if it is due and reads its acks; `false`
    /// when nothing is due (or the connection has failed).
    pub fn send_due(&mut self) -> bool {
        if self.broken {
            return false;
        }
        let Some(due) = self.schedule.take_due(self.now_ns() - self.base_ns) else {
            return false;
        };
        let batch = self.schedule.batch() as usize;
        self.buf.clear();
        for _ in 0..batch {
            self.buf.extend_from_slice(&self.frames[self.next]);
            self.next = (self.next + 1) % self.frames.len();
        }
        let due_ns = self.base_ns + due;
        let sent_ns = self.now_ns();
        let side = &mut self.side;
        side.late_ms.push((sent_ns - due_ns) as f64 / 1e6);
        side.samples.attempted += batch as u64;
        if let Err(e) = self.stream.write_all(&self.buf) {
            side.samples.failed += batch as u64;
            side.samples
                .problems
                .push(format!("heartbeat write failed: {e}"));
            self.broken = true;
            return false;
        }
        for _ in 0..batch {
            match read_response(&mut self.stream) {
                Ok((Response::HeartbeatAck, _)) => {
                    let acked_ns = self.origin.elapsed().as_nanos() as u64;
                    side.samples
                        .side_latency_us
                        .push((acked_ns, (acked_ns - sent_ns) as f64 / 1e3));
                    side.from_due_ms.push((acked_ns - due_ns) as f64 / 1e6);
                }
                Ok((other, _)) => side
                    .samples
                    .fail(|| format!("heartbeat answered {other:?}")),
                Err(e) => {
                    // A dead connection answers nothing more: waiting
                    // out the read timeout once per heartbeat would
                    // outlast the run.
                    side.samples.fail(|| format!("heartbeat unanswered: {e:?}"));
                    self.broken = true;
                    return false;
                }
            }
        }
        let done_ns = self.origin.elapsed().as_nanos() as u64;
        side.spans.record("heartbeat_batch", sent_ns, done_ns, None);
        true
    }

    pub fn finish(self) -> HeartbeatSide {
        self.side
    }
}

/// Heartbeats alone, for the ladder's writes-only rung: the schedule
/// on a thread of its own, asleep between ticks.
pub fn heartbeat_loop(
    addr: SocketAddr,
    frames: &[Vec<u8>],
    origin: Instant,
    stop: &AtomicBool,
) -> HeartbeatSide {
    // The rung runs for a little over one heartbeat period.
    let mut heartbeats = Heartbeats::new(addr, frames, origin, HEARTBEAT_PERIOD_S + 1, false);
    while !stop.load(Ordering::Relaxed) && !heartbeats.broken {
        if heartbeats.send_due() {
            continue;
        }
        // Sleep most of the way to the next tick, then yield the rest:
        // a sleep alone overshoots by the kernel's 50 µs timer slack,
        // which would become every heartbeat's lateness.
        let wait = heartbeats.wait_ns();
        if wait > 200_000 {
            std::thread::sleep(Duration::from_nanos(wait - 150_000));
        } else {
            std::thread::yield_now();
        }
    }
    heartbeats.finish()
}

/// Query points with, for one in `ORACLE_EVERY`, the answer a correct
/// manager gives.
struct Queries {
    points: Vec<GeoPoint>,
    expected: Vec<Option<Vec<u64>>>,
}

fn queries(seed: u64, fleet: &[WireNodeStatus]) -> Queries {
    let points = gen::points(seed, 2, QUERY_POINTS, 100.0);
    let expected = points
        .iter()
        .enumerate()
        .map(|(i, &p)| (i % ORACLE_EVERY == 0).then(|| gen::oracle_top_n(fleet, p, TOP_N)))
        .collect();
    Queries { points, expected }
}

struct DiscoverSide {
    samples: Samples,
    spanned_us: Vec<f64>,
    bare_us: Vec<f64>,
    oracle_checks: u64,
    spans: Spans,
}

/// The one generator thread: `Discover`s back to back on a held
/// connection, and between two of them every heartbeat batch that has
/// fallen due, on a second. A batch therefore waits for at most one
/// query, which its lateness records.
fn mixed_loop(
    addr: SocketAddr,
    frames: &[Vec<u8>],
    queries: &Queries,
    origin: Instant,
    stop: &AtomicBool,
    cfg: &RunCfg,
) -> (DiscoverSide, HeartbeatSide) {
    let trace = cfg.trace;
    let mut heartbeats = Heartbeats::new(addr, frames, origin, cfg.seconds, trace);
    let mut stream = connect(addr);
    let mut side = DiscoverSide {
        // A scan of 20 000 nodes is most of a millisecond.
        samples: Samples::for_run(cfg.seconds, 4_000, 0),
        spanned_us: Vec::new(),
        bare_us: Vec::new(),
        oracle_checks: 0,
        spans: Spans::new(trace),
    };
    let now_ns = || origin.elapsed().as_nanos() as u64;
    let mut i = 0usize;
    while !stop.load(Ordering::Relaxed) {
        while heartbeats.send_due() {}
        let q = i % QUERY_POINTS;
        let request = discover_request(i as u64, queries.points[q]);
        // A traced run records a span around every other query, which
        // is all the tracing this workload has to pay for.
        let spanned = trace && i % 2 == 1;
        i += 1;
        side.samples.attempted += 1;
        let start_ns = now_ns();
        let reply = write_request(&mut stream, Codec::Binary, &request)
            .map_err(|e| e.to_string())
            .and_then(|()| read_response(&mut stream).map_err(|e| format!("{e:?}")));
        let done_ns = now_ns();
        if spanned {
            side.spans.record("discover", start_ns, done_ns, None);
        }
        let nodes = match reply {
            Ok((Response::Candidates { nodes }, _)) => nodes,
            other => {
                side.samples.fail(|| format!("discover answered {other:?}"));
                if other.is_err() {
                    break;
                }
                continue;
            }
        };
        let ids: Vec<u64> = nodes.iter().map(|n| n.0).collect();
        if ids.len() != TOP_N {
            side.samples
                .fail(|| format!("{} candidates, wanted {TOP_N}", ids.len()));
            continue;
        }
        if let Some(expected) = &queries.expected[q] {
            side.oracle_checks += 1;
            if &ids != expected {
                side.samples
                    .fail(|| format!("query {q}: got {ids:?}, oracle says {expected:?}"));
                continue;
            }
        }
        let us = (done_ns - start_ns) as f64 / 1e3;
        side.samples.ops.push(OpRec {
            start_ns,
            done_ns,
            weight: 1.0,
        });
        side.samples.op_latency_us.push((done_ns, us));
        if trace {
            if spanned {
                side.spanned_us.push(us);
            } else {
                side.bare_us.push(us);
            }
        }
    }
    (side, heartbeats.finish())
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let plan = Plan::for_seconds(cfg.seconds, cfg.quick);
    let fleet = gen::fleet(cfg.seed, fleet_size(cfg.quick));

    let ((manager, addr), setup_s) =
        measure::timed_setup(if cfg.quick { 1 } else { 9 }, || build(&fleet));
    out.put("setup_s", setup_s);

    let frames = heartbeat_frames(&fleet);
    let queries = queries(cfg.seed, &fleet);
    let discoveries_before = manager.discoveries_served();

    let stop = AtomicBool::new(false);
    let origin = Instant::now();
    crate::host::set_alloc_counting(cfg.trace);
    let reference = Reference::start(origin);
    let (boundaries, (disc, mut hb)) = std::thread::scope(|scope| {
        let generator = scope.spawn(|| mixed_loop(addr, &frames, &queries, origin, &stop, cfg));
        let boundaries = rounds::pace(origin, &plan);
        stop.store(true, Ordering::Relaxed);
        (boundaries, generator.join().expect("generator thread"))
    });
    let walks = reference.finish();
    crate::host::set_alloc_counting(false);

    // A node the manager no longer counts alive is a heartbeat the
    // benchmark sent and the system lost.
    let alive = manager.alive_count();
    let false_dead = fleet.len().saturating_sub(alive) as u64;
    out.failed += false_dead;
    out.check(false_dead == 0, || {
        format!(
            "{false_dead} of {} nodes falsely dead at the end",
            fleet.len()
        )
    });
    out.check(disc.oracle_checks > 0, || {
        "no reply was checked against the oracle".into()
    });

    let mut samples = disc.samples;
    samples.side_latency_us = hb.samples.side_latency_us;
    samples.attempted += hb.samples.attempted;
    samples.failed += hb.samples.failed;
    samples.problems.extend(hb.samples.problems);

    let paced = Paced::from_boundaries(&boundaries).with_reference(&walks);
    measure::fill_end_to_end(&mut out, &paced, &samples);

    let heartbeats = samples.side_latency_us.len() as u64;
    let discoveries = manager.discoveries_served() - discoveries_before;
    let late_p99 = stats::percentile(&mut hb.late_ms, 0.99).unwrap_or(0.0);
    let due_p50 = stats::percentile(&mut hb.from_due_ms, 0.5).unwrap_or(0.0);
    let due_p99 = stats::percentile_sorted(&hb.from_due_ms, 0.99).unwrap_or(0.0);
    out.notes.push(format!(
        "rpc mix: Heartbeat {heartbeats}, Discover {discoveries}, Frame 0; \
         {} replies oracle-checked; alive {alive}/{}",
        disc.oracle_checks,
        fleet.len()
    ));
    out.notes.push(format!(
        "heartbeats at {} /s: generator late p99 {late_p99:.3} ms, from due p50 {due_p50:.3} ms p99 {due_p99:.3} ms",
        fleet.len() as u64 / HEARTBEAT_PERIOD_S
    ));
    out.put("gen.heartbeat_late_ms_p99", late_p99);
    out.put("gen.heartbeat_from_due_ms_p50", due_p50);
    out.put("gen.rpc_frame_share", 0.0);
    out.put(
        "gen.rpc_exchanges_per_op",
        (heartbeats + discoveries) as f64 / discoveries.max(1) as f64,
    );

    if cfg.trace {
        out.put_overhead_ratio(
            stats::p50_or_zero(&disc.spanned_us),
            stats::p50_or_zero(&disc.bare_us),
        );
        measure::fill_tails(&mut out, &samples.op_latency_us, &samples.side_latency_us);
        out.put("gen.open_sockets", crate::host::open_sockets() as f64);
        let mut spans = disc.spans;
        spans.absorb(hb.spans);
        crate::finish_spans(&mut out, cfg, spans);
    }
    drop(manager);
    measure::fill_peak_rss(&mut out);
    out
}
