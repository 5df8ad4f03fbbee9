//! `LiveNode` as a reactor driver around `armada_node::EdgeNode`: a
//! frame costs no thread hop and no sleeping thread, no reply leaves
//! before its ledger completion, no request parks or spawns a thread,
//! `Busy` fires at an exact in-flight bound, and what the ledger
//! computes on a wall clock is what it computes in virtual time.

use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use armada_live::{LiveNode, LiveNodeConfig, NodeConfig, Request, Response, BUSY_RETRY_MS};
use armada_node::{EdgeNode, NodeAction};
use armada_trace::Tracer;
use armada_types::{GeoPoint, HardwareProfile, NodeClass, NodeId, SimDuration, SimTime, UserId};
use armada_wire::{read_response, write_request, Codec};
use armada_workload::Frame;

/// The process thread count is shared by every test of this binary, so
/// no test may overlap one that reads it.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    let guard = ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // The harness starts the next test's thread when the previous test
    // ends, a moment after that test let go of the lock: let it, so the
    // thread does not appear in the middle of a count.
    std::thread::sleep(Duration::from_millis(50));
    guard
}

fn config(cores: u32, frame_ms: f64, delay_ms: u64) -> NodeConfig {
    NodeConfig {
        id: 1,
        class: NodeClass::Volunteer,
        hw: HardwareProfile::new("test", cores, frame_ms).with_concurrency(cores),
        location: GeoPoint::new(44.98, -93.26),
        one_way_delay: Duration::from_millis(delay_ms),
    }
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
}

fn send(stream: &mut TcpStream, request: &Request) {
    write_request(stream, Codec::Binary, request).unwrap();
}

fn recv(stream: &mut TcpStream) -> Response {
    read_response(stream).unwrap().0
}

fn frame(user: u64, seq: u64) -> Request {
    Request::Frame {
        user,
        seq,
        payload_len: 20_000,
    }
}

/// OS threads in this process, from `/proc/self/status`.
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("Threads:")).unwrap();
    line["Threads:".len()..].trim().parse().unwrap()
}

/// A frame whose work is shorter than the kernel can sleep for is
/// answered from the loop thread at its ledger instant: it adds its own
/// microsecond and the ledger's bookkeeping to a bare exchange on the
/// same connection — a few microseconds, where a 50 µs clock step once
/// added ten times as much and a pool hand-off plus a slack-stretched
/// sleep more still — and streaming connections cost no thread each.
/// The bound is on the difference, not on the round trip itself: two
/// unpinned threads waking each other over loopback take what the host
/// makes them take.
#[test]
fn a_short_frame_costs_no_thread_hop_and_no_clock_step() {
    let _serial = serial();
    let (node, addr) = LiveNode::bind(config(4, 0.001, 0), None).unwrap();
    let mut stream = connect(addr);
    let mut timed = |request: &Request| {
        let started = Instant::now();
        send(&mut stream, request);
        (recv(&mut stream), started.elapsed())
    };
    let (mut bare, mut frames) = (Vec::new(), Vec::new());
    for seq in 0..2_200u64 {
        let (reply, rtt) = timed(&Request::RttProbe);
        assert_eq!(reply, Response::RttPong);
        bare.push(rtt);
        let (reply, rtt) = timed(&frame(1, seq));
        assert!(matches!(reply, Response::FrameResult { .. }), "{reply:?}");
        frames.push(rtt);
    }
    let median = |rtts: &mut Vec<Duration>| {
        rtts.drain(..200); // warm-up
        rtts.sort();
        rtts[rtts.len() / 2]
    };
    let (bare, frames) = (median(&mut bare), median(&mut frames));
    assert!(
        frames < bare + Duration::from_micros(20),
        "a 1 µs frame took a median of {frames:?} against {bare:?} for a bare exchange"
    );

    // Eight connections streaming, all driven from this thread.
    let mut streams: Vec<TcpStream> = (0..8).map(|_| connect(addr)).collect();
    for (user, stream) in streams.iter_mut().enumerate() {
        send(stream, &frame(10 + user as u64, 0));
        recv(stream);
    }
    let before = process_threads();
    for seq in 1..=250u64 {
        for (user, stream) in streams.iter_mut().enumerate() {
            send(stream, &frame(10 + user as u64, seq));
        }
        let during = process_threads();
        assert!(
            during <= before,
            "streaming grew the process from {before} to {during} threads"
        );
        for stream in &mut streams {
            let reply = recv(stream);
            assert!(matches!(reply, Response::FrameResult { seq: s, .. } if s == seq));
        }
    }
    assert_eq!(node.frames_processed(), 2_200 + 8 * 251);
}

/// The other half of the timing contract: no reply leaves before its
/// ledger completion. Over a back-to-back stream of frames short enough
/// to be waited for on the loop thread, every reply reports at least the
/// base frame time, and none reaches the client sooner than it reports
/// (give or take the microsecond the node's clock floors admission to).
#[test]
fn no_reply_leaves_before_its_ledger_completion() {
    let _serial = serial();
    let profile = config(1, 0.03, 0);
    let base_us = profile.hw.base_frame_time().as_micros();
    let (_node, addr) = LiveNode::bind(profile, None).unwrap();
    let mut stream = connect(addr);
    for seq in 0..500u64 {
        let started = Instant::now();
        send(&mut stream, &frame(1, seq));
        let reply = recv(&mut stream);
        let rtt = started.elapsed();
        let Response::FrameResult { processing_us, .. } = reply else {
            panic!("unexpected {reply:?}");
        };
        assert!(
            processing_us >= base_us,
            "frame {seq}: {processing_us} µs of processing, base {base_us} µs"
        );
        assert!(
            rtt + Duration::from_micros(1) >= Duration::from_micros(processing_us),
            "frame {seq}: answered after {rtt:?}, before its {processing_us} µs completion"
        );
    }
}

/// Every `Join`, `UnexpectedJoin` and `Leave` triggers a what-if
/// refresh. Each used to be an OS thread (later: one coalesced
/// thread); now a refresh is a reactor timer and a test *frame* in the
/// ledger, so a storm costs no thread at all — here with every trigger
/// still inside its post-join delay or its two delay legs at once.
#[test]
fn a_join_leave_storm_costs_no_thread() {
    let _serial = serial();
    let (node, addr) = LiveNode::bind(config(2, 5.0, 50), None).unwrap();
    let mut streams: Vec<TcpStream> = (0..50).map(|_| connect(addr)).collect();
    let mut seq = 0;
    let before = process_threads();
    for round in 0..2 {
        for (user, stream) in streams.iter_mut().enumerate() {
            let request = match round {
                0 => Request::UnexpectedJoin { user: user as u64 },
                _ => Request::Leave { user: user as u64 },
            };
            send(stream, &request);
        }
        let during = process_threads();
        assert!(
            during <= before,
            "the storm grew the process from {before} to {during} threads"
        );
        for stream in &mut streams {
            assert_eq!(recv(stream), Response::Ack);
        }
        seq += streams.len() as u64;
    }
    // One more trigger the long way round: the sequence number counted
    // every one of the hundred.
    let stream = &mut streams[0];
    send(stream, &Request::Join { user: 7, seq });
    assert_eq!(recv(stream), Response::JoinResult { accepted: true });
    let triggers = 101;
    // Refreshes coalesce only while a test frame is in flight.
    let deadline = Instant::now() + Duration::from_secs(5);
    while node.test_invocations() == 0 {
        assert!(Instant::now() < deadline, "no refresh ever ran");
        std::thread::sleep(Duration::from_millis(10));
    }
    std::thread::sleep(Duration::from_millis(300));
    let ran = node.test_invocations();
    assert!(ran <= triggers, "{ran} refreshes for {triggers} triggers");
    assert!(process_threads() <= before);
}

/// `max_in_flight: 2` on a one-core node: two frames are admitted (and
/// share the core), the third is refused at once — not queued behind
/// 40 ms of work — and is served on the same connection as soon as the
/// node has room.
#[test]
fn the_third_concurrent_frame_is_refused_until_one_completes() {
    let _serial = serial();
    let live = LiveNodeConfig {
        max_in_flight: 2,
        ..LiveNodeConfig::default()
    };
    let (node, addr) =
        LiveNode::bind_with(config(1, 20.0, 0), live, None, Tracer::disabled()).unwrap();
    let (mut a, mut b, mut c) = (connect(addr), connect(addr), connect(addr));
    // Loopback delivers in send order and the loop drains readiness in
    // arrival order: A and B are admitted before C is looked at.
    send(&mut a, &frame(1, 0));
    send(&mut b, &frame(2, 0));
    let refused_at = Instant::now();
    send(&mut c, &frame(3, 0));
    let busy = Response::Busy {
        retry_after_ms: BUSY_RETRY_MS,
    };
    assert_eq!(recv(&mut c), busy);
    assert!(
        refused_at.elapsed() < Duration::from_millis(15),
        "a refusal must not wait for a frame to complete ({:?})",
        refused_at.elapsed()
    );
    assert_eq!(node.busy_count(), 1);

    // Two 20 ms frames sharing one core both take 40 ms, less however
    // long B was admitted after A (a FIFO permit would say 20 ms each).
    for stream in [&mut a, &mut b] {
        match recv(stream) {
            Response::FrameResult { processing_us, .. } => {
                assert!(
                    (35_000..=40_000).contains(&processing_us),
                    "{processing_us}"
                )
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    send(&mut c, &frame(3, 0));
    assert_eq!(
        recv(&mut c),
        Response::FrameResult {
            seq: 0,
            processing_us: 20_000
        }
    );
    assert_eq!(node.busy_count(), 1);
}

/// Two frames 10 ms apart on a one-core, 20 ms node: processor sharing
/// finishes the first at 30 ms and the second at 40 ms (a FIFO core
/// permit would say 20 ms and 30 ms), and each reply carries the
/// processing time the same `EdgeNode` computes for the same arrivals
/// in virtual time, to within a reactor tick of jitter per arrival.
///
/// The arrivals are the node's: how far apart the client's two sends
/// land depends on when its thread ran, so the gap fed to virtual time
/// is the one the first reply implies, and the client's own clock is
/// held to it only loosely.
#[test]
fn frames_share_cores_exactly_as_in_virtual_time() {
    let _serial = serial();
    let profile = config(1, 20.0, 0);
    let (_node, addr) = LiveNode::bind(profile.clone(), None).unwrap();
    let (mut a, mut b) = (connect(addr), connect(addr));
    let first = Instant::now();
    send(&mut a, &frame(1, 0));
    std::thread::sleep(Duration::from_millis(10));
    let sent_gap_us = first.elapsed().as_micros() as u64;
    send(&mut b, &frame(2, 0));

    let mut live = Vec::new();
    for stream in [&mut a, &mut b] {
        match recv(stream) {
            Response::FrameResult { processing_us, .. } => live.push(processing_us),
            other => panic!("unexpected {other:?}"),
        }
    }

    // On one shared core the first frame, admitted alone, finishes at
    // `g + 2·(base − g)`: its processing time says what `g` was.
    let base_us = profile.hw.base_frame_time().as_micros();
    let gap_us = (2 * base_us).saturating_sub(live[0]);
    assert!(
        gap_us.abs_diff(sent_gap_us) <= 5_000,
        "the node saw the frames {gap_us} µs apart, the client sent them {sent_gap_us} µs apart"
    );

    let mut node = EdgeNode::new(
        NodeId::new(1),
        profile.class,
        profile.hw,
        profile.location,
        SimDuration::ZERO,
        0.25,
    );
    let second = SimTime::from_micros(gap_us);
    let mut actions = Vec::new();
    node.offload(
        Frame::live(UserId::new(1), 0, SimTime::ZERO),
        SimTime::ZERO,
        &mut actions,
    );
    node.offload(Frame::live(UserId::new(2), 0, second), second, &mut actions);
    node.advance(SimTime::from_secs(1), &mut actions);
    let virtual_time: Vec<(u64, u64)> = actions
        .iter()
        .filter_map(|action| match action {
            NodeAction::Respond(done) => Some((
                done.user.as_u64(),
                done.completed_at
                    .saturating_since(done.created_at)
                    .as_micros(),
            )),
            _ => None,
        })
        .collect();
    assert_eq!(
        virtual_time.iter().map(|r| r.0).collect::<Vec<_>>(),
        [1, 2],
        "processor sharing completes the earlier frame first"
    );
    for (live_us, (user, virtual_us)) in live.iter().zip(&virtual_time) {
        assert!(
            live_us.abs_diff(*virtual_us) <= 2_000,
            "user {user}: {live_us} µs live, {virtual_us} µs in virtual time"
        );
    }
    // The live completions are in the same order: the second frame was
    // admitted `gap_us` after the first and took as long.
    assert!(live[0] < gap_us + live[1]);
}
