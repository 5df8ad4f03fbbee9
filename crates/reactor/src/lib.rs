//! armada-reactor: a dependency-free evented I/O core.
//!
//! This crate gives the live-network layer (armada-live) a way off
//! thread-per-connection without pulling mio or tokio into an offline
//! build: a thin epoll shim over raw Linux syscalls (`sys`, the only
//! unsafe in the crate) behind a portable poller trait, a generational
//! slab connection registry, a hierarchical timer wheel, and
//! incremental frame codecs over armada-wire's 4-byte length-prefixed
//! format. Those parts are the crate's own; what it offers is the
//! [`Reactor`].
//!
//! The [`Reactor`] runs N loop threads (default: one per core); each
//! owns its poller, wheel, and connections, so there is no shared-state
//! contention on the hot path. Protocol logic plugs in as [`Conn`]
//! state machines fed complete frames, and as [`UdpHandler`]s fed
//! datagrams. The live manager, the live node and every live client
//! session of a process run on reactors: there is no other event loop
//! in the tree. An outbound connect ([`Handle::connect`]) is a dial on
//! its loop until it completes; the elastic [`BlockingPool`] dials only
//! what the shim cannot start (IPv6, off Linux) and runs whatever else
//! a handler must block on, rejoining through a [`Handle`].
//!
//! Set `ARMADA_REACTOR=portable` to swap epoll for the portable
//! readiness-loop fallback — same observable behaviour, no epoll
//! semantics relied upon (CI runs the live suite both ways).

#![deny(unsafe_code)]
#![deny(missing_docs)]

mod frames;
mod poller;
mod pool;
mod reactor;
mod slab;
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
#[allow(unsafe_code)]
mod sys;
mod timer;

pub use pool::{BlockingPool, PoolSaturated};
pub use reactor::{
    AcceptFactory, Conn, ConnCtx, ConnId, Handle, Reactor, ReactorConfig, Source, UdpHandler,
};

/// Starts an outbound TCP connect without waiting for the handshake:
/// returns the stream, already non-blocking, and whether the connect is
/// still in flight. If it is, register the stream for writability and
/// ask [`connect_finished`] on each writable event.
///
/// Off the syscall shim, and for IPv6 peers, the handshake runs inside
/// this call instead, bounded by `timeout` — such connects are serial.
///
/// # Errors
///
/// Socket creation or an immediate connect failure.
pub(crate) fn connect_nonblocking(
    addr: std::net::SocketAddr,
    timeout: std::time::Duration,
) -> std::io::Result<(std::net::TcpStream, bool)> {
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    if let std::net::SocketAddr::V4(v4) = addr {
        let (fd, in_flight) = sys::tcp_connect_nonblocking(v4)?;
        return Ok((fd.into(), in_flight));
    }
    let stream = std::net::TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_nonblocking(true)?;
    Ok((stream, false))
}

/// `true` when [`connect_nonblocking`] returns at once for `addr`: the
/// syscall shim starts IPv4 connects and leaves them in flight.
pub(crate) fn connects_in_flight(addr: &std::net::SocketAddr) -> bool {
    cfg!(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    )) && addr.is_ipv4()
}

/// Where a connect begun by [`connect_nonblocking`] stands once its
/// stream reports writable: `Ok(true)` connected, `Ok(false)` still in
/// flight (a [`LoopPoller`] reports writability early).
///
/// # Errors
///
/// The connect failed: the refusal `take_error()` holds, or whatever
/// else `peer_addr()` reports.
pub(crate) fn connect_finished(stream: &std::net::TcpStream) -> std::io::Result<bool> {
    if let Some(refused) = stream.take_error()? {
        return Err(refused);
    }
    match stream.peer_addr() {
        Ok(_) => Ok(true),
        Err(e) if e.kind() == std::io::ErrorKind::NotConnected => Ok(false),
        Err(e) => Err(e),
    }
}

/// Raises the process's soft `RLIMIT_NOFILE` toward `want` (clamped to
/// the hard limit) and returns the resulting soft limit. Needed before
/// holding thousands of sockets (the live manager's held-connection
/// test).
///
/// # Errors
///
/// The underlying `prlimit64` failure; on platforms without the syscall
/// shim this is a no-op returning `want`.
pub fn raise_nofile(want: u64) -> std::io::Result<u64> {
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    {
        sys::raise_nofile(want)
    }
    #[cfg(not(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    )))]
    {
        Ok(want)
    }
}

/// Sets the process's soft `RLIMIT_NOFILE` to `want` (clamped to the
/// hard limit), raising **or lowering** it, and returns the resulting
/// soft limit. Lowering exists so overload tests and benches can drive
/// the accept path into EMFILE at a small, deterministic ceiling.
///
/// # Errors
///
/// The underlying `prlimit64` failure; on platforms without the syscall
/// shim this is a no-op returning `want`.
pub fn set_nofile(want: u64) -> std::io::Result<u64> {
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    {
        sys::set_nofile(want)
    }
    #[cfg(not(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    )))]
    {
        Ok(want)
    }
}
