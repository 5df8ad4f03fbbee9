//! Overload-control tests: fd-exhaustion accept pause/resume and
//! slow-loris eviction with progress deadlines.
//!
//! The EMFILE test lowers the process rlimit and burns the fd table, so
//! every test in this file serializes on one static mutex — Rust's
//! default threaded test harness would otherwise starve its neighbours
//! of file descriptors.

use std::io::{Read, Write};
use std::net::{Ipv4Addr, TcpListener, TcpStream};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use armada_reactor::{Conn, ConnCtx, Handle, Reactor, ReactorConfig, Source};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

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

fn echo_reactor(config: ReactorConfig) -> (Reactor, Handle, std::net::SocketAddr) {
    let reactor = Reactor::new(config).unwrap();
    let handle = reactor.handle().clone();
    let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    handle
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
    (reactor, handle, addr)
}

/// Echoes `body` through `client`, panicking on any failure.
fn assert_echo(client: &mut TcpStream, body: &[u8]) {
    write_frame(client, body).unwrap();
    assert_eq!(read_frame(client).unwrap(), body);
}

// -- fd exhaustion (EMFILE) ------------------------------------------------

/// Restores a generous fd ceiling even if the test panics mid-burn.
struct RestoreLimit;

impl Drop for RestoreLimit {
    fn drop(&mut self) {
        let _ = armada_reactor::set_nofile(65_536);
    }
}

/// The satellite contract: hitting EMFILE on accept must pause the
/// listener (not spin or crash), existing connections must keep being
/// served at the rlimit ceiling, and accepting must resume once file
/// descriptors free up.
#[test]
fn emfile_pauses_accept_and_resumes_when_fds_free() {
    let _guard = serial();
    let _restore = RestoreLimit;
    armada_reactor::set_nofile(256).unwrap();

    let (reactor, _handle, addr) = echo_reactor(ReactorConfig {
        threads: 1,
        ..ReactorConfig::default()
    });

    // An established connection from before the exhaustion.
    let mut early = TcpStream::connect(addr).unwrap();
    early
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    assert_echo(&mut early, b"pre-storm");

    // Burn the fd table dry.
    let mut burned = Vec::new();
    while let Ok(f) = std::fs::File::open("/dev/null") {
        burned.push(f);
    }
    assert!(burned.len() > 16, "expected to exhaust a 256-fd table");

    // Free exactly one fd: the late client's socket takes it, so the
    // server's accept is guaranteed to hit EMFILE and park the listener.
    burned.pop();
    let mut late = TcpStream::connect(addr).unwrap();
    late.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write_frame(&mut late, b"queued-behind-emfile").unwrap();

    // The established connection keeps working across several accept
    // retry periods while the table stays exhausted.
    for _ in 0..4 {
        assert_echo(&mut early, b"still-served-at-the-ceiling");
        std::thread::sleep(Duration::from_millis(50));
    }

    // Release the table: the retry timer must resume accepting and the
    // parked client gets served.
    drop(burned);
    assert_eq!(read_frame(&mut late).unwrap(), b"queued-behind-emfile");
    assert_echo(&mut early, b"post-storm");
    reactor.shutdown();
}

// -- slow-loris ------------------------------------------------------------

/// A peer that starts a frame and stalls must be evicted at the read
/// progress deadline; a peer that completes frames (even in chunks, even
/// with long idle gaps between frames) must survive.
#[test]
fn slow_loris_is_evicted_but_chunked_and_idle_peers_survive() {
    let _guard = serial();
    let (reactor, _handle, addr) = echo_reactor(ReactorConfig {
        threads: 1,
        read_progress_timeout: Duration::from_millis(150),
        ..ReactorConfig::default()
    });

    let mut loris = TcpStream::connect(addr).unwrap();
    loris
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut honest = TcpStream::connect(addr).unwrap();
    honest
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    // The loris sends a length prefix promising 64 bytes, then trickles
    // two body bytes and stops — a classic slot-pinning attack.
    loris.write_all(&64u32.to_be_bytes()).unwrap();
    loris.write_all(b"xy").unwrap();

    // Meanwhile the honest peer splits a frame across two writes inside
    // the deadline: progress within a frame is fine.
    let body = b"split-but-timely";
    let mut wire = (body.len() as u32).to_be_bytes().to_vec();
    wire.extend_from_slice(body);
    honest.write_all(&wire[..7]).unwrap();
    std::thread::sleep(Duration::from_millis(60));
    honest.write_all(&wire[7..]).unwrap();
    assert_eq!(read_frame(&mut honest).unwrap(), body);

    // The loris must be cut off (EOF or reset), never left holding a
    // slot forever.
    let mut sink = [0u8; 16];
    match loris.read(&mut sink) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("loris read {n} bytes instead of being evicted"),
    }

    // Idle-between-frames is not a stall: well past the deadline, the
    // honest peer is still served.
    std::thread::sleep(Duration::from_millis(300));
    assert_echo(&mut honest, b"idle-then-fine");
    reactor.shutdown();
}
