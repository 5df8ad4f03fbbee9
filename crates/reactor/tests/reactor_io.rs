//! End-to-end reactor tests: framed echo over real sockets on both
//! pollers, outbound connects, bounded write backlogs, and offload
//! ordering.

use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use armada_reactor::{Conn, ConnCtx, Handle, Reactor, ReactorConfig, Source};

// -- blocking-client helpers (the test plays the peer) ---------------------

fn write_frame(stream: &mut TcpStream, body: &[u8]) -> std::io::Result<()> {
    stream.write_all(&(body.len() as u32).to_be_bytes())?;
    stream.write_all(body)
}

fn read_frame(stream: &mut TcpStream) -> std::io::Result<Vec<u8>> {
    let mut prefix = [0u8; 4];
    stream.read_exact(&mut prefix)?;
    let len = u32::from_be_bytes(prefix) as usize;
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body)?;
    Ok(body)
}

struct Echo;

impl Conn for Echo {
    fn on_frame(&mut self, frame: Vec<u8>, ctx: &mut ConnCtx) {
        ctx.send(frame);
    }
}

fn echo_reactor(config: ReactorConfig) -> (Reactor, std::net::SocketAddr) {
    let reactor = Reactor::new(config).unwrap();
    let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    reactor
        .handle()
        .add_listener(
            listener,
            Box::new(|stream, _peer| {
                Some((
                    Box::new(stream) as Box<dyn Source>,
                    Box::new(Echo) as Box<dyn Conn>,
                ))
            }),
        )
        .unwrap();
    (reactor, addr)
}

fn exercise_echo(addr: std::net::SocketAddr) {
    let mut client = TcpStream::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    // Whole frames.
    for body in [&b"ping"[..], &[0u8; 0][..], &[7u8; 100_000][..]] {
        write_frame(&mut client, body).unwrap();
        assert_eq!(read_frame(&mut client).unwrap(), body);
    }

    // A frame dribbled out in splinters — the reactor must reassemble
    // across many partial reads (including a split inside the prefix).
    let body = b"reassembled-from-splinters".to_vec();
    let mut wire = (body.len() as u32).to_be_bytes().to_vec();
    wire.extend_from_slice(&body);
    for chunk in wire.chunks(3) {
        client.write_all(chunk).unwrap();
        client.flush().unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(read_frame(&mut client).unwrap(), body);

    // Two frames in one write: both come back.
    let mut double = Vec::new();
    for body in [&b"first"[..], &b"second"[..]] {
        double.extend_from_slice(&(body.len() as u32).to_be_bytes());
        double.extend_from_slice(body);
    }
    client.write_all(&double).unwrap();
    assert_eq!(read_frame(&mut client).unwrap(), b"first");
    assert_eq!(read_frame(&mut client).unwrap(), b"second");
}

#[test]
fn framed_echo_over_default_poller() {
    let (reactor, addr) = echo_reactor(ReactorConfig {
        threads: 2,
        ..ReactorConfig::default()
    });
    exercise_echo(addr);
    reactor.shutdown();
}

#[test]
fn framed_echo_over_portable_poller() {
    let (reactor, addr) = echo_reactor(ReactorConfig {
        threads: 1,
        portable: true,
        ..ReactorConfig::default()
    });
    exercise_echo(addr);
    reactor.shutdown();
}

/// A stream that counts the `read` calls the reactor makes on it.
struct CountedReads(TcpStream, Arc<std::sync::atomic::AtomicUsize>);

impl Read for CountedReads {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.1.fetch_add(1, Ordering::SeqCst);
        self.0.read(buf)
    }
}

impl Write for CountedReads {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.0.flush()
    }
}

impl Source for CountedReads {
    fn raw_fd(&self) -> std::os::fd::RawFd {
        self.0.as_raw_fd()
    }
}

/// Regression: every readable event used to pay a second `read` whose
/// only answer was `WouldBlock`. Polling is level-triggered, so a read
/// that leaves the scratch buffer unfilled has drained the socket: one
/// frame in, one `read`. (Epoll only: the portable poller reports
/// readiness it has not seen, and each such report is a `read`.)
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
#[test]
fn a_frame_that_fits_the_scratch_buffer_costs_one_read() {
    let reads = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let reactor = Reactor::new(ReactorConfig {
        threads: 1,
        portable: false,
        ..ReactorConfig::default()
    })
    .unwrap();
    let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let counter = Arc::clone(&reads);
    let factory = move |stream, _peer| {
        let io = CountedReads(stream, Arc::clone(&counter));
        Some((
            Box::new(io) as Box<dyn Source>,
            Box::new(Echo) as Box<dyn Conn>,
        ))
    };
    reactor
        .handle()
        .add_listener(listener, Box::new(factory))
        .unwrap();

    let mut client = TcpStream::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    client.set_nodelay(true).unwrap();
    for round in 0..50u8 {
        // Prefix and body in one segment, so the frame is one event.
        let mut wire = 12u32.to_be_bytes().to_vec();
        wire.extend_from_slice(&[round; 12]);
        client.write_all(&wire).unwrap();
        assert_eq!(read_frame(&mut client).unwrap(), [round; 12]);
        // Let the loop finish the event: a second `read` must find
        // nothing, not the next frame.
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(reads.load(Ordering::SeqCst), 50);
    reactor.shutdown();
}

// -- outbound connect ------------------------------------------------------

struct ClientConn {
    greeting: Vec<u8>,
    events: mpsc::Sender<String>,
}

impl Conn for ClientConn {
    fn on_connected(&mut self, ctx: &mut ConnCtx) {
        ctx.send(self.greeting.clone());
    }
    fn on_frame(&mut self, frame: Vec<u8>, ctx: &mut ConnCtx) {
        self.events
            .send(format!("reply:{}", String::from_utf8_lossy(&frame)))
            .unwrap();
        ctx.close();
    }
    fn on_close(&mut self, err: Option<&std::io::Error>, _handle: &Handle) {
        self.events
            .send(match err {
                None => "closed:clean".to_string(),
                Some(e) => format!("closed:{}", e.kind()),
            })
            .unwrap();
    }
}

/// A one-loop reactor on epoll (`portable: false`, where the platform
/// has it) or on the portable `LoopPoller`, which reports a dial
/// writable before its handshake is done.
fn dialling_reactor(portable: bool) -> Reactor {
    Reactor::new(ReactorConfig {
        threads: 1,
        portable,
        ..ReactorConfig::default()
    })
    .unwrap()
}

#[test]
fn outbound_connect_speaks_then_closes_cleanly() {
    for portable in [false, true] {
        outbound_connect_speaks_then_closes_cleanly_on(dialling_reactor(portable));
    }
}

fn outbound_connect_speaks_then_closes_cleanly_on(reactor: Reactor) {
    // A blocking echo server for the reactor to dial.
    let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut body = read_frame(&mut stream).unwrap();
        body.reverse();
        write_frame(&mut stream, &body).unwrap();
    });

    let (tx, rx) = mpsc::channel();
    reactor.handle().connect(
        addr,
        Duration::from_secs(5),
        Box::new(ClientConn {
            greeting: b"live".to_vec(),
            events: tx,
        }),
    );

    assert_eq!(
        rx.recv_timeout(Duration::from_secs(10)).unwrap(),
        "reply:evil"
    );
    assert_eq!(
        rx.recv_timeout(Duration::from_secs(10)).unwrap(),
        "closed:clean"
    );
    server.join().unwrap();
    reactor.shutdown();
}

#[test]
fn outbound_connect_to_dead_port_reports_on_close() {
    for portable in [false, true] {
        outbound_connect_to_dead_port_reports_on_close_on(dialling_reactor(portable));
    }
}

fn outbound_connect_to_dead_port_reports_on_close_on(reactor: Reactor) {
    // Bind-then-drop: the port was just released, nothing listens.
    let dead = {
        let l = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        l.local_addr().unwrap()
    };
    let (tx, rx) = mpsc::channel();
    reactor.handle().connect(
        dead,
        Duration::from_secs(2),
        Box::new(ClientConn {
            greeting: Vec::new(),
            events: tx,
        }),
    );
    let event = rx.recv_timeout(Duration::from_secs(10)).unwrap();
    assert!(
        event.starts_with("closed:") && event != "closed:clean",
        "expected an error close, got {event}"
    );
    reactor.shutdown();
}

// -- bounded writes --------------------------------------------------------

/// A peer that stops draining must be reaped: the echo server's
/// outbound backlog hits the write cap or the write-stall deadline and
/// the reactor closes the connection instead of buffering forever. The
/// backlog it held leaves the aggregate `buffered_write_bytes` as it
/// goes.
#[test]
fn stalled_writer_is_reaped() {
    let (reactor, addr) = echo_reactor(ReactorConfig {
        threads: 1,
        write_stall_timeout: Duration::from_millis(200),
        ..ReactorConfig::default()
    });

    let mut client = TcpStream::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    // 32 MiB of echo demand without reading a byte: more than loopback's
    // auto-tuned kernel buffers and the reactor's 8 MiB cap hold between
    // them, so the reactor must buffer. Writing fails once we are cut.
    let body = vec![9u8; 64 * 1024];
    for _ in 0..512 {
        if write_frame(&mut client, &body).is_err() {
            break;
        }
    }
    // Reads drain whatever was in flight, then hit EOF or a reset — not
    // the read timeout, which is what a connection left open gives.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut sink = [0u8; 64 * 1024];
    let cut = loop {
        match client.read(&mut sink) {
            Ok(0) => break true,
            Ok(_) if Instant::now() < deadline => {} // draining buffered echoes
            Err(e) if !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                break true
            }
            _ => break false,
        }
    };
    assert!(cut, "server kept an unbounded backlog for a dead reader");
    // The reaped connection left the shared counts before its fd closed.
    assert_eq!(reactor.handle().buffered_write_bytes(), 0);
    assert_eq!(reactor.handle().active_conns(), 0);
    reactor.shutdown();
}

// -- offload ordering ------------------------------------------------------

/// Mirrors the node's heavy-request path: pause, offload to the
/// blocking pool, reply from the pool thread, resume. Per-connection
/// response order must match request order even with sleeps involved.
struct OffloadEcho;

impl Conn for OffloadEcho {
    fn on_frame(&mut self, frame: Vec<u8>, ctx: &mut ConnCtx) {
        let id = ctx.conn_id();
        let handle = ctx.handle().clone();
        ctx.pause();
        ctx.handle().pool().spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            handle.send(id, frame);
            handle.resume(id);
        });
    }
}

#[test]
fn paused_offload_preserves_per_connection_order() {
    let reactor = Reactor::new(ReactorConfig {
        threads: 1,
        ..ReactorConfig::default()
    })
    .unwrap();
    let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    reactor
        .handle()
        .add_listener(
            listener,
            Box::new(|stream, _| {
                Some((
                    Box::new(stream) as Box<dyn Source>,
                    Box::new(OffloadEcho) as Box<dyn Conn>,
                ))
            }),
        )
        .unwrap();

    let mut client = TcpStream::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Burst all requests up front: they queue in the reactor's inbox
    // while each one is processed (paused) in turn.
    for i in 0..6u8 {
        write_frame(&mut client, &[i; 8]).unwrap();
    }
    for i in 0..6u8 {
        assert_eq!(read_frame(&mut client).unwrap(), vec![i; 8], "frame {i}");
    }
    reactor.shutdown();
}

// -- timers ----------------------------------------------------------------

#[test]
fn handle_timers_fire_once_and_repeatedly() {
    let reactor = Reactor::new(ReactorConfig {
        threads: 1,
        ..ReactorConfig::default()
    })
    .unwrap();
    let (tx, rx) = mpsc::channel();
    let once_tx = tx.clone();
    reactor
        .handle()
        .timer_after(Duration::from_millis(10), move |_| {
            once_tx.send("once").unwrap();
        });
    let count = Arc::new(Mutex::new(0u32));
    let count2 = Arc::clone(&count);
    reactor
        .handle()
        .timer_every(Duration::from_millis(10), move |_| {
            let mut c = count2.lock().unwrap();
            *c += 1;
            if *c <= 3 {
                tx.send("tick").unwrap();
            }
        });
    assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), "once");
    for _ in 0..3 {
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), "tick");
    }
    reactor.shutdown();
}

/// Arms its protocol timer on every frame and reports how long the
/// timer really took.
struct TimerProbe {
    after: Duration,
    armed: Option<Instant>,
    waits: mpsc::Sender<Duration>,
}

impl Conn for TimerProbe {
    fn on_frame(&mut self, _frame: Vec<u8>, ctx: &mut ConnCtx) {
        self.armed = Some(Instant::now());
        ctx.set_timer(self.after);
    }

    fn on_timer(&mut self, _ctx: &mut ConnCtx) {
        let armed = self.armed.take().expect("armed by a frame");
        self.waits.send(armed.elapsed()).unwrap();
    }
}

/// A timer may fire late, never early. The wheel advances by a floored
/// millisecond clock, so a floored deadline fired up to a tick before
/// its real instant (a fractional delay almost two) whenever something
/// else woke the loop in that window; an idle loop hid it, because the
/// poll timeout is measured from the real now. Echo traffic keeps this
/// loop awake throughout.
#[test]
fn timers_never_fire_early_on_a_busy_loop() {
    let (reactor, addr) = echo_reactor(ReactorConfig {
        threads: 1,
        ..ReactorConfig::default()
    });
    let stop = Arc::new(AtomicBool::new(false));
    let traffic = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut client = TcpStream::connect(addr).unwrap();
            while !stop.load(Ordering::Relaxed) {
                write_frame(&mut client, b"noise").unwrap();
                read_frame(&mut client).unwrap();
            }
        })
    };

    let conn_delay = Duration::from_micros(1_900);
    let (waits, conn_waits) = mpsc::channel();
    let (mut ours, theirs) = {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let ours = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        (ours, listener.accept().unwrap().0)
    };
    theirs.set_nonblocking(true).unwrap();
    reactor.handle().add_source(
        Box::new(theirs),
        Box::new(TimerProbe {
            after: conn_delay,
            armed: None,
            waits,
        }),
    );

    let handle_delay = Duration::from_millis(5);
    for round in 0..200 {
        let (fired, handle_wait) = mpsc::channel();
        let armed = Instant::now();
        reactor.handle().timer_after(handle_delay, move |_| {
            fired.send(armed.elapsed()).unwrap();
        });
        write_frame(&mut ours, b"arm").unwrap();
        let waited = conn_waits.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(
            waited >= conn_delay,
            "round {round}: set_timer({conn_delay:?}) fired after {waited:?}"
        );
        let waited = handle_wait.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(
            waited >= handle_delay,
            "round {round}: timer_after({handle_delay:?}) fired after {waited:?}"
        );
    }
    stop.store(true, Ordering::Relaxed);
    traffic.join().unwrap();
    reactor.shutdown();
}

// -- UDP -------------------------------------------------------------------

/// An echo listener and a UDP socket on one loop: every datagram the
/// socket hears makes its handler send one more to itself, until `stop`.
fn self_feeding_loop(portable: bool, stop: &Arc<AtomicBool>) -> (Reactor, std::net::SocketAddr) {
    let (reactor, addr) = echo_reactor(ReactorConfig {
        threads: 1,
        portable,
        ..ReactorConfig::default()
    });
    let socket = std::net::UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    let own = socket.local_addr().unwrap();
    let stop = Arc::clone(stop);
    let feed = Box::new(
        move |_: &[u8], _, socket: &Arc<std::net::UdpSocket>, _: &Handle| {
            if !stop.load(Ordering::SeqCst) {
                let _ = socket.send_to(b"again", own);
            }
        },
    );
    reactor.handle().add_udp(socket, feed).unwrap();
    std::net::UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))
        .unwrap()
        .send_to(b"go", own)
        .unwrap();
    (reactor, addr)
}

/// Regression: a UDP socket was read until it would block, so one fed
/// as fast as its handler runs kept every other source and timer of its
/// loop waiting, forever. Like a stream, it is read a bounded number of
/// times an event: a TCP echo on the same one-thread loop is answered.
#[test]
fn a_self_feeding_udp_socket_does_not_starve_its_loop() {
    for portable in [false, true] {
        let stop = Arc::new(AtomicBool::new(false));
        let (reactor, addr) = self_feeding_loop(portable, &stop);
        std::thread::sleep(Duration::from_millis(50));
        let mut client = TcpStream::connect(addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let started = Instant::now();
        write_frame(&mut client, b"ping").unwrap();
        let echoed = read_frame(&mut client);
        let waited = started.elapsed();
        // Stopped before the asserts: a starved loop must still drain
        // and shut down.
        stop.store(true, Ordering::SeqCst);
        drop(reactor);
        assert_eq!(echoed.unwrap(), b"ping", "portable: {portable}");
        assert!(
            waited < Duration::from_secs(1),
            "portable: {portable}, {waited:?}"
        );
    }
}

/// `remove_udp` takes a socket off its loop and closes it: its handler
/// hears nothing more, and its port is free again.
#[test]
fn a_removed_udp_socket_is_closed() {
    for portable in [false, true] {
        let reactor = dialling_reactor(portable);
        let socket = std::net::UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let (addr, fd) = (socket.local_addr().unwrap(), socket.as_raw_fd());
        let heard = Arc::new(Mutex::new(0));
        let count = Arc::clone(&heard);
        let handler = Box::new(
            move |_: &[u8], _, _: &Arc<std::net::UdpSocket>, _: &Handle| {
                *count.lock().unwrap() += 1;
            },
        );
        reactor.handle().add_udp(socket, handler).unwrap();
        let peer = std::net::UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        peer.send_to(b"one", addr).unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        while *heard.lock().unwrap() == 0 {
            assert!(
                Instant::now() < deadline,
                "portable: {portable}: never heard"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        reactor.handle().remove_udp(fd);
        let rebound = loop {
            if let Ok(socket) = std::net::UdpSocket::bind(addr) {
                break socket;
            }
            assert!(
                Instant::now() < deadline,
                "portable: {portable}: never closed"
            );
            std::thread::sleep(Duration::from_millis(1));
        };
        peer.send_to(b"two", addr).unwrap();
        let mut buf = [0u8; 8];
        rebound
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(
            rebound.recv(&mut buf).unwrap(),
            3,
            "the new socket hears it"
        );
        assert_eq!(*heard.lock().unwrap(), 1, "portable: {portable}");
    }
}

/// A connected socket's failed receive — its peer's port refused the
/// datagram — reaches the handler as an empty datagram.
#[test]
fn a_refused_datagram_reaches_the_handler_empty() {
    for portable in [false, true] {
        let reactor = dialling_reactor(portable);
        let closed = std::net::UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let closed_addr = closed.local_addr().unwrap();
        drop(closed);
        let socket = std::net::UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        socket.connect(closed_addr).unwrap();
        let (tx, rx) = mpsc::channel();
        let handler = Box::new(
            move |datagram: &[u8], _, _: &Arc<std::net::UdpSocket>, _: &Handle| {
                let _ = tx.send(datagram.len());
            },
        );
        socket.send(b"anyone?").unwrap();
        reactor.handle().add_udp(socket, handler).unwrap();
        let len = rx.recv_timeout(Duration::from_secs(2));
        assert_eq!(len, Ok(0), "portable: {portable}");
    }
}
