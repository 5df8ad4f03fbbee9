//! A TCP proxy that imposes fault plans on live connections.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::plan::LinkFaults;
use crate::transport::FaultyTransport;

/// How long the proxy waits when dialing its target.
const DIAL_TIMEOUT: Duration = Duration::from_secs(1);

/// A localhost TCP proxy that forwards to one target address through a
/// [`FaultyTransport`], with a partition switch.
///
/// Live chaos tests park a manager or node behind a proxy and then cut
/// the link mid-session: while partitioned the proxy severs every
/// open connection and refuses new ones immediately (fast connection
/// reset, not a silent timeout), which is how the client experiences a
/// hard partition. Healing the partition restores forwarding for new
/// connections.
///
/// # Examples
///
/// ```no_run
/// use armada_chaos::{ChaosProxy, LinkFaults};
///
/// let target: std::net::SocketAddr = "127.0.0.1:9000".parse().unwrap();
/// let proxy = ChaosProxy::spawn(target, LinkFaults::NONE, 7).unwrap();
/// let addr = proxy.addr();       // dial this instead of the target
/// proxy.set_partitioned(true);   // cut the link
/// proxy.set_partitioned(false);  // heal it
/// ```
#[derive(Debug)]
pub struct ChaosProxy {
    addr: SocketAddr,
    partitioned: Arc<AtomicBool>,
    shutdown: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    accept_handle: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Binds a proxy on an ephemeral localhost port forwarding to
    /// `target`, applying `faults` to client→target frames under
    /// `seed`.
    pub fn spawn(target: SocketAddr, faults: LinkFaults, seed: u64) -> io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let partitioned = Arc::new(AtomicBool::new(false));
        let shutdown = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));

        let accept_handle = {
            let partitioned = Arc::clone(&partitioned);
            let shutdown = Arc::clone(&shutdown);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || {
                let mut next_conn = 0u64;
                for inbound in listener.incoming() {
                    if shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(client) = inbound else { continue };
                    if partitioned.load(Ordering::Acquire) {
                        // Refuse fast: the peer sees a reset, not a stall.
                        let _ = client.shutdown(Shutdown::Both);
                        continue;
                    }
                    let Ok(upstream) = TcpStream::connect_timeout(&target, DIAL_TIMEOUT) else {
                        let _ = client.shutdown(Shutdown::Both);
                        continue;
                    };
                    let conn_seed = seed.wrapping_add(next_conn);
                    next_conn += 1;
                    register(&conns, &client);
                    register(&conns, &upstream);
                    pump_both_ways(client, upstream, faults, conn_seed);
                }
            })
        };

        Ok(ChaosProxy {
            addr,
            partitioned,
            shutdown,
            conns,
            accept_handle: Some(accept_handle),
        })
    }

    /// The address clients should dial instead of the target.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Cuts or heals the link. Cutting severs every open connection
    /// and makes new ones fail immediately.
    pub fn set_partitioned(&self, cut: bool) {
        self.partitioned.store(cut, Ordering::Release);
        if cut {
            let mut held = self.conns.lock().expect("proxy lock");
            for stream in held.drain(..) {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
    }
}

fn register(conns: &Arc<Mutex<Vec<TcpStream>>>, stream: &TcpStream) {
    if let Ok(clone) = stream.try_clone() {
        conns.lock().expect("proxy lock").push(clone);
    }
}

/// Spawns the two pump threads for one proxied connection.
fn pump_both_ways(client: TcpStream, upstream: TcpStream, faults: LinkFaults, seed: u64) {
    let (c2, u2) = match (client.try_clone(), upstream.try_clone()) {
        (Ok(c), Ok(u)) => (c, u),
        _ => return,
    };
    // Client → target passes through the fault model; replies come back
    // clean so one frame's fate is decided exactly once.
    std::thread::spawn(move || {
        let mut to = FaultyTransport::new(upstream, faults, seed);
        pump(client, &mut to);
    });
    std::thread::spawn(move || {
        let mut to = c2;
        pump(u2, &mut to);
    });
}

/// Copies bytes until either side dies, then severs both.
fn pump<W: Write>(mut from: TcpStream, to: &mut W) {
    let mut buf = [0u8; 16 * 1024];
    loop {
        match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
                let _ = to.flush();
            }
        }
    }
    let _ = from.shutdown(Shutdown::Both);
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        self.set_partitioned(true);
        // Nudge the accept loop so it observes the shutdown flag.
        let _ = TcpStream::connect_timeout(&self.addr, DIAL_TIMEOUT);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_server() -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind echo");
        let addr = listener.local_addr().expect("echo addr");
        let handle = std::thread::spawn(move || {
            // Serve a bounded number of connections; the test drops the
            // proxy (and thus its upstream connections) when done.
            for _ in 0..8 {
                let Ok((mut stream, _)) = listener.accept() else {
                    return;
                };
                std::thread::spawn(move || {
                    let mut buf = [0u8; 1024];
                    while let Ok(n) = stream.read(&mut buf) {
                        if n == 0 || stream.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                });
            }
        });
        (addr, handle)
    }

    #[test]
    fn forwards_bytes_when_clean() {
        let (target, _h) = echo_server();
        let proxy = ChaosProxy::spawn(target, LinkFaults::NONE, 1).expect("proxy");
        let mut stream = TcpStream::connect(proxy.addr()).expect("dial proxy");
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .expect("timeout");
        stream.write_all(b"ping").expect("send");
        let mut buf = [0u8; 4];
        stream.read_exact(&mut buf).expect("echo back");
        assert_eq!(&buf, b"ping");
    }

    #[test]
    fn partition_severs_and_refuses_then_heals() {
        let (target, _h) = echo_server();
        let proxy = ChaosProxy::spawn(target, LinkFaults::NONE, 2).expect("proxy");

        let mut stream = TcpStream::connect(proxy.addr()).expect("dial proxy");
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .expect("timeout");
        stream.write_all(b"ok").expect("send");
        let mut buf = [0u8; 2];
        stream.read_exact(&mut buf).expect("echo");

        proxy.set_partitioned(true);
        // The open connection dies quickly rather than timing out.
        let died = (0..50).any(|_| {
            std::thread::sleep(Duration::from_millis(20));
            stream.write_all(b"xx").is_err() || {
                let mut b = [0u8; 2];
                matches!(stream.read(&mut b), Ok(0) | Err(_))
            }
        });
        assert!(died, "severed connection must fail fast");

        proxy.set_partitioned(false);
        let mut healed = TcpStream::connect(proxy.addr()).expect("dial after heal");
        healed
            .set_read_timeout(Some(Duration::from_secs(2)))
            .expect("timeout");
        healed.write_all(b"hi").expect("send after heal");
        let mut buf = [0u8; 2];
        healed.read_exact(&mut buf).expect("echo after heal");
        assert_eq!(&buf, b"hi");
    }
}
