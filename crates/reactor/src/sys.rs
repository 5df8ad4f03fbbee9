//! Raw Linux syscalls for the epoll poller — the crate's only unsafe.
//!
//! This crate is dependency-free, so instead of libc we issue the
//! handful of syscalls the reactor needs (epoll, eventfd, non-blocking
//! connect, prlimit64) directly via inline assembly on x86_64 and
//! aarch64. Everything is wrapped in safe functions returning
//! `io::Result`; file descriptors are owned [`OwnedFd`]s so leaks and
//! double-closes are structurally impossible.
//!
//! On other architectures (or non-Linux targets) this module is not
//! compiled at all and the reactor falls back to the portable
//! readiness-loop poller.

use std::io;
use std::net::SocketAddrV4;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

// ---------------------------------------------------------------------------
// Syscall numbers (differ per architecture).
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod nr {
    pub const READ: usize = 0;
    pub const WRITE: usize = 1;
    pub const SOCKET: usize = 41;
    pub const CONNECT: usize = 42;
    pub const EPOLL_CTL: usize = 233;
    pub const EPOLL_PWAIT: usize = 281;
    pub const EVENTFD2: usize = 290;
    pub const EPOLL_CREATE1: usize = 291;
    pub const PRLIMIT64: usize = 302;
}

#[cfg(target_arch = "aarch64")]
mod nr {
    pub const EVENTFD2: usize = 19;
    pub const EPOLL_CREATE1: usize = 20;
    pub const EPOLL_CTL: usize = 21;
    pub const EPOLL_PWAIT: usize = 22;
    pub const READ: usize = 63;
    pub const WRITE: usize = 64;
    pub const SOCKET: usize = 198;
    pub const CONNECT: usize = 203;
    pub const PRLIMIT64: usize = 261;
}

/// Issues one syscall; negative returns become `-errno` per the Linux
/// ABI and are mapped to `io::Error` by [`check`].
#[cfg(target_arch = "x86_64")]
unsafe fn syscall6(nr: usize, a: usize, b: usize, c: usize, d: usize, e: usize, f: usize) -> isize {
    let ret: isize;
    std::arch::asm!(
        "syscall",
        inlateout("rax") nr as isize => ret,
        in("rdi") a,
        in("rsi") b,
        in("rdx") c,
        in("r10") d,
        in("r8") e,
        in("r9") f,
        // The syscall instruction clobbers rcx (return rip) and r11
        // (saved rflags).
        out("rcx") _,
        out("r11") _,
        options(nostack),
    );
    ret
}

#[cfg(target_arch = "aarch64")]
unsafe fn syscall6(nr: usize, a: usize, b: usize, c: usize, d: usize, e: usize, f: usize) -> isize {
    let ret: isize;
    std::arch::asm!(
        "svc 0",
        in("x8") nr,
        inlateout("x0") a as isize => ret,
        in("x1") b,
        in("x2") c,
        in("x3") d,
        in("x4") e,
        in("x5") f,
        options(nostack),
    );
    ret
}

fn check(ret: isize) -> io::Result<usize> {
    if ret < 0 {
        Err(io::Error::from_raw_os_error(-ret as i32))
    } else {
        Ok(ret as usize)
    }
}

// ---------------------------------------------------------------------------
// Constants (from the Linux UAPI headers).
// ---------------------------------------------------------------------------

pub const EPOLLIN: u32 = 0x1;
pub const EPOLLOUT: u32 = 0x4;
pub const EPOLLERR: u32 = 0x8;
pub const EPOLLHUP: u32 = 0x10;
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: usize = 1;
const EPOLL_CTL_DEL: usize = 2;
const EPOLL_CTL_MOD: usize = 3;
const EPOLL_CLOEXEC: usize = 0x8_0000;
const EFD_NONBLOCK: usize = 0x800;
const EFD_CLOEXEC: usize = 0x8_0000;

const AF_INET: usize = 2;
const SOCK_STREAM: usize = 1;
const SOCK_NONBLOCK: usize = 0x800;
const SOCK_CLOEXEC: usize = 0x8_0000;
const EINPROGRESS: i32 = 115;
const RLIMIT_NOFILE: usize = 7;

/// One epoll event, matching the kernel's `struct epoll_event` layout
/// (packed on x86_64 only — a quirk of the original 32/64-bit compat).
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Readiness bitmask (`EPOLLIN` | `EPOLLOUT` | ...).
    pub events: u32,
    /// The token registered alongside the fd.
    pub data: u64,
}

impl EpollEvent {
    /// A zeroed event (for wait buffers).
    pub const fn zeroed() -> Self {
        EpollEvent { events: 0, data: 0 }
    }
}

// ---------------------------------------------------------------------------
// epoll
// ---------------------------------------------------------------------------

/// Creates an epoll instance (`EPOLL_CLOEXEC`).
pub fn epoll_create() -> io::Result<OwnedFd> {
    let fd = check(unsafe { syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) })?;
    Ok(unsafe { OwnedFd::from_raw_fd(fd as RawFd) })
}

fn epoll_ctl(epfd: RawFd, op: usize, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
    let mut ev = EpollEvent {
        events,
        data: token,
    };
    let evp = if op == EPOLL_CTL_DEL {
        0
    } else {
        std::ptr::addr_of_mut!(ev) as usize
    };
    check(unsafe { syscall6(nr::EPOLL_CTL, epfd as usize, op, fd as usize, evp, 0, 0) })?;
    Ok(())
}

/// Adds `fd` to the epoll set with the given interest and token.
pub fn epoll_add(epfd: RawFd, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
    epoll_ctl(epfd, EPOLL_CTL_ADD, fd, events, token)
}

/// Changes interest for an already-registered fd.
pub fn epoll_mod(epfd: RawFd, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
    epoll_ctl(epfd, EPOLL_CTL_MOD, fd, events, token)
}

/// Removes `fd` from the epoll set.
pub fn epoll_del(epfd: RawFd, fd: RawFd) -> io::Result<()> {
    epoll_ctl(epfd, EPOLL_CTL_DEL, fd, 0, 0)
}

/// Waits for events; `timeout_ms < 0` blocks indefinitely. Returns the
/// number of events written into `events`.
pub fn epoll_wait(epfd: RawFd, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
    // epoll_pwait with a null sigmask behaves exactly like epoll_wait
    // and exists on both architectures (plain epoll_wait does not on
    // aarch64). The last argument is sigsetsize (8 on 64-bit).
    check(unsafe {
        syscall6(
            nr::EPOLL_PWAIT,
            epfd as usize,
            events.as_mut_ptr() as usize,
            events.len(),
            timeout_ms as isize as usize,
            0,
            8,
        )
    })
}

// ---------------------------------------------------------------------------
// eventfd (cross-thread wakeup)
// ---------------------------------------------------------------------------

/// Creates a non-blocking eventfd for waking a blocked `epoll_wait`.
pub fn eventfd() -> io::Result<OwnedFd> {
    let fd = check(unsafe { syscall6(nr::EVENTFD2, 0, EFD_NONBLOCK | EFD_CLOEXEC, 0, 0, 0, 0) })?;
    Ok(unsafe { OwnedFd::from_raw_fd(fd as RawFd) })
}

/// Signals the eventfd (adds 1 to its counter). Never blocks; a full
/// counter means a wakeup is already pending, which is fine.
pub fn eventfd_signal(fd: &OwnedFd) {
    let one: u64 = 1;
    let _ = unsafe {
        syscall6(
            nr::WRITE,
            fd.as_raw_fd() as usize,
            std::ptr::addr_of!(one) as usize,
            8,
            0,
            0,
            0,
        )
    };
}

/// Drains the eventfd counter so the next signal re-arms readiness.
pub fn eventfd_drain(fd: &OwnedFd) {
    let mut buf: u64 = 0;
    let _ = unsafe {
        syscall6(
            nr::READ,
            fd.as_raw_fd() as usize,
            std::ptr::addr_of_mut!(buf) as usize,
            8,
            0,
            0,
            0,
        )
    };
}

// ---------------------------------------------------------------------------
// Non-blocking TCP connect (IPv4)
// ---------------------------------------------------------------------------

#[repr(C)]
struct SockaddrIn {
    family: u16,
    port_be: u16,
    addr_be: u32,
    zero: [u8; 8],
}

/// Starts a non-blocking IPv4 connect. Returns the socket and whether
/// the connect is still in progress (`true` → wait for writability; the
/// outcome is then the socket's `SO_ERROR`, which
/// `TcpStream::take_error` reads).
pub fn tcp_connect_nonblocking(addr: SocketAddrV4) -> io::Result<(OwnedFd, bool)> {
    let fd = check(unsafe {
        syscall6(
            nr::SOCKET,
            AF_INET,
            SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
            0,
            0,
            0,
            0,
        )
    })?;
    let fd = unsafe { OwnedFd::from_raw_fd(fd as RawFd) };
    let sa = SockaddrIn {
        family: AF_INET as u16,
        port_be: addr.port().to_be(),
        addr_be: u32::from(*addr.ip()).to_be(),
        zero: [0; 8],
    };
    let ret = unsafe {
        syscall6(
            nr::CONNECT,
            fd.as_raw_fd() as usize,
            std::ptr::addr_of!(sa) as usize,
            std::mem::size_of::<SockaddrIn>(),
            0,
            0,
            0,
        )
    };
    match ret {
        0 => Ok((fd, false)),
        e if -e as i32 == EINPROGRESS => Ok((fd, true)),
        e => Err(io::Error::from_raw_os_error(-e as i32)),
    }
}

// ---------------------------------------------------------------------------
// RLIMIT_NOFILE (for the c10k benchmark)
// ---------------------------------------------------------------------------

#[repr(C)]
#[derive(Clone, Copy)]
struct Rlimit {
    cur: u64,
    max: u64,
}

fn get_rlimit_nofile() -> io::Result<Rlimit> {
    let mut old = Rlimit { cur: 0, max: 0 };
    check(unsafe {
        syscall6(
            nr::PRLIMIT64,
            0,
            RLIMIT_NOFILE,
            0,
            std::ptr::addr_of_mut!(old) as usize,
            0,
            0,
        )
    })?;
    Ok(old)
}

fn set_rlimit_nofile(new: &Rlimit) -> io::Result<()> {
    check(unsafe {
        syscall6(
            nr::PRLIMIT64,
            0,
            RLIMIT_NOFILE,
            std::ptr::addr_of!(*new) as usize,
            0,
            0,
            0,
        )
    })
    .map(|_| ())
}

/// Sets the soft fd limit to `want` (clamped to the hard limit),
/// raising **or lowering** it. Returns the resulting soft limit.
/// The overload tests use this to drive the accept path into EMFILE
/// deterministically.
pub fn set_nofile(want: u64) -> io::Result<u64> {
    let old = get_rlimit_nofile()?;
    let new = Rlimit {
        cur: want.min(old.max),
        max: old.max,
    };
    set_rlimit_nofile(&new)?;
    Ok(new.cur)
}

/// Raises the soft fd limit toward `want`. A privileged process
/// (CAP_SYS_RESOURCE) also lifts the hard limit when `want` exceeds
/// it; otherwise the result clamps to the existing hard limit.
/// Returns the resulting soft limit.
pub fn raise_nofile(want: u64) -> io::Result<u64> {
    let old = get_rlimit_nofile()?;
    if old.cur >= want {
        return Ok(old.cur);
    }
    if want > old.max {
        let lifted = Rlimit {
            cur: want,
            max: want,
        };
        if set_rlimit_nofile(&lifted).is_ok() {
            return Ok(lifted.cur);
        }
    }
    let clamped = Rlimit {
        cur: want.min(old.max),
        max: old.max,
    };
    set_rlimit_nofile(&clamped)?;
    Ok(clamped.cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{Ipv4Addr, TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn epoll_roundtrip_with_eventfd_wakeup() {
        let ep = epoll_create().unwrap();
        let ev = eventfd().unwrap();
        epoll_add(ep.as_raw_fd(), ev.as_raw_fd(), EPOLLIN, 99).unwrap();

        let mut events = [EpollEvent::zeroed(); 8];
        // Nothing signalled yet: must time out empty.
        assert_eq!(epoll_wait(ep.as_raw_fd(), &mut events, 0).unwrap(), 0);

        eventfd_signal(&ev);
        let n = epoll_wait(ep.as_raw_fd(), &mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let (data, bits) = {
            let ev = events[0];
            (ev.data, ev.events)
        };
        assert_eq!(data, 99);
        assert_ne!(bits & EPOLLIN, 0);

        eventfd_drain(&ev);
        assert_eq!(epoll_wait(ep.as_raw_fd(), &mut events, 0).unwrap(), 0);

        epoll_del(ep.as_raw_fd(), ev.as_raw_fd()).unwrap();
    }

    #[test]
    fn nonblocking_connect_completes_via_epollout() {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let port = listener.local_addr().unwrap().port();

        let (fd, in_progress) =
            tcp_connect_nonblocking(SocketAddrV4::new(Ipv4Addr::LOCALHOST, port)).unwrap();
        let mut stream = TcpStream::from(fd);
        if in_progress {
            let ep = epoll_create().unwrap();
            epoll_add(ep.as_raw_fd(), stream.as_raw_fd(), EPOLLOUT, 7).unwrap();
            let mut events = [EpollEvent::zeroed(); 4];
            let n = epoll_wait(ep.as_raw_fd(), &mut events, 2000).unwrap();
            assert!(n >= 1, "connect never became writable");
        }
        assert!(stream.take_error().unwrap().is_none(), "connect failed");

        stream.set_nonblocking(false).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        stream.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        server.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
    }

    #[test]
    fn connect_to_dead_port_reports_error() {
        // Bind-then-drop guarantees the port was recently closed.
        let dead = {
            let l = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
            l.local_addr().unwrap().port()
        };
        let (fd, in_progress) =
            tcp_connect_nonblocking(SocketAddrV4::new(Ipv4Addr::LOCALHOST, dead)).unwrap();
        let stream = TcpStream::from(fd);
        if in_progress {
            let ep = epoll_create().unwrap();
            epoll_add(ep.as_raw_fd(), stream.as_raw_fd(), EPOLLOUT, 1).unwrap();
            let mut events = [EpollEvent::zeroed(); 4];
            epoll_wait(ep.as_raw_fd(), &mut events, 2000).unwrap();
        }
        let refusal = stream.take_error().unwrap();
        assert!(refusal.is_some(), "dead port must refuse");
    }

    #[test]
    fn raise_nofile_reports_a_sane_limit() {
        let cur = raise_nofile(1024).unwrap();
        assert!(cur >= 256, "limit suspiciously low: {cur}");
    }
}
