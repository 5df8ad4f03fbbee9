//! Regression test for the stalled-peer write hang.
//!
//! Before this PR no socket in the live runtime ever called
//! `set_write_timeout`: a peer that stopped reading (zero receive
//! window) would park the writer in `write_all` forever once the
//! kernel's send buffer filled, pinning heartbeat threads, sync rounds
//! and serve threads with no way out. Every `set_read_timeout` now has
//! a `set_write_timeout` beside it; this test proves the mechanism the
//! fix relies on — a bounded write against a stalled peer errors out
//! instead of hanging.

use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use armada_wire::write_frame;

#[test]
fn write_to_stalled_peer_errors_instead_of_hanging() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    // The "stalled" peer: accepts the connection and then never reads,
    // exactly what a wedged or zero-window node looks like on the wire.
    let stall = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        std::thread::sleep(Duration::from_secs(20));
        drop(stream);
    });

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_write_timeout(Some(Duration::from_millis(200)))
        .unwrap();

    // Push frames until the kernel send buffer fills and the timeout
    // fires. 64 × 256 KiB = 16 MiB, far beyond any default buffer, so
    // without the timeout this loop would block inside `write_all`.
    let body = vec![0u8; 256 * 1024];
    let started = Instant::now();
    let mut outcome = Ok(());
    for _ in 0..64 {
        outcome = write_frame(&mut stream, &body);
        if outcome.is_err() {
            break;
        }
    }
    let elapsed = started.elapsed();

    let err = outcome.expect_err("16 MiB should not fit a stalled peer's buffers");
    assert!(
        matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
        "expected a timeout-shaped error, got {err:?}"
    );
    // The whole probe must be bounded: one timeout plus buffered-write
    // slack, nowhere near the 20 s the peer sleeps.
    assert!(
        elapsed < Duration::from_secs(10),
        "write against stalled peer took {elapsed:?}"
    );

    drop(stream);
    drop(stall); // don't join: the peer sleeps deliberately long
}
