//! Readiness polling behind a trait: epoll on Linux, a portable
//! readiness loop everywhere else.
//!
//! The reactor drives whichever [`Poller`] the platform provides. On
//! Linux (x86_64/aarch64) that is [`EpollPoller`], a thin shim over
//! raw `epoll` syscalls (see `sys`). The fallback [`LoopPoller`]
//! implements the same contract with no OS support at all: it reports
//! every registered token as ready on a coarse cadence and relies on
//! the reactor's handlers tolerating spurious readiness (they already
//! must — epoll is allowed to report spuriously too). Selecting it by
//! hand (`ARMADA_REACTOR=portable`) is how CI proves the reactor's
//! logic does not secretly depend on epoll semantics.

use std::io;
use std::os::fd::RawFd;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
use crate::sys;
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
use std::os::fd::{AsRawFd, OwnedFd};

/// What a source wants to be woken for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when readable.
    pub readable: bool,
    /// Wake when writable.
    pub writable: bool,
}

impl Interest {
    /// Readable only.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Writable only.
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
}

/// One readiness notification.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the source was registered with.
    pub token: u64,
    /// Readable (or spuriously claimed readable).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error/hangup observed — the source should be read to EOF.
    pub closed: bool,
}

/// Wakes a poller blocked in [`Poller::wait`] from another thread.
///
/// A concrete enum rather than a trait object so handles stay `Clone`
/// and allocation-free on the signal path.
#[derive(Clone)]
pub enum Waker {
    /// Signals an eventfd registered with the epoll set.
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    Eventfd(Arc<OwnedFd>),
    /// Sets a flag and notifies the loop poller's condvar.
    Flag(Arc<(Mutex<bool>, Condvar)>),
}

impl Waker {
    /// Interrupts the poller's current (or next) wait.
    pub fn wake(&self) {
        match self {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            Waker::Eventfd(fd) => sys::eventfd_signal(fd),
            Waker::Flag(pair) => {
                let (flag, cv) = &**pair;
                *flag
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) = true;
                cv.notify_all();
            }
        }
    }
}

/// The token [`LoopPoller`] would conflict with is never used by the
/// reactor: waker wakeups surface as an empty event set, so no token is
/// reserved for them at this layer.
pub trait Poller: Send {
    /// Starts watching `fd` with the given interest under `token`.
    fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()>;

    /// Changes the interest of an already-registered source.
    fn reregister(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()>;

    /// Stops watching. Must be called before the fd is closed.
    fn deregister(&mut self, fd: RawFd, token: u64) -> io::Result<()>;

    /// Blocks until readiness, wakeup, or timeout; pushes events into
    /// `out` (which the caller has cleared). A return with no events is
    /// a timeout or a waker interrupt — both benign.
    fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()>;

    /// A handle that interrupts [`Poller::wait`] from other threads.
    fn waker(&self) -> Waker;
}

/// `true` when this build/environment should use the portable poller:
/// either the epoll shim can't compile here, or the user forced it with
/// `ARMADA_REACTOR=portable`.
#[must_use]
pub fn portable_default() -> bool {
    if cfg!(not(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))) {
        return true;
    }
    std::env::var("ARMADA_REACTOR")
        .map(|v| v == "portable")
        .unwrap_or(false)
}

/// Builds a poller: the platform's best one, or [`LoopPoller`] when
/// `portable` is set.
pub fn make_poller(portable: bool) -> io::Result<Box<dyn Poller>> {
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    {
        if !portable {
            return Ok(Box::new(EpollPoller::new()?));
        }
    }
    let _ = portable;
    Ok(Box::new(LoopPoller::new()))
}

// ---------------------------------------------------------------------------
// EpollPoller
// ---------------------------------------------------------------------------

/// Epoll-backed poller (level-triggered), Linux x86_64/aarch64 only.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub struct EpollPoller {
    epfd: OwnedFd,
    wake_fd: Arc<OwnedFd>,
    buf: Vec<sys::EpollEvent>,
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
impl EpollPoller {
    /// Token carried by the internal wakeup eventfd; filtered out of
    /// results. All ones: a reactor token would need a slab key with
    /// both halves at 2³¹ − 1 to match it.
    const WAKE_TOKEN: u64 = u64::MAX;

    /// Creates the epoll set and its wakeup eventfd.
    pub fn new() -> io::Result<Self> {
        let epfd = sys::epoll_create()?;
        let wake_fd = Arc::new(sys::eventfd()?);
        sys::epoll_add(
            epfd.as_raw_fd(),
            wake_fd.as_raw_fd(),
            sys::EPOLLIN,
            Self::WAKE_TOKEN,
        )?;
        Ok(EpollPoller {
            epfd,
            wake_fd,
            buf: vec![sys::EpollEvent::zeroed(); 256],
        })
    }

    fn mask(interest: Interest) -> u32 {
        let mut m = sys::EPOLLRDHUP;
        if interest.readable {
            m |= sys::EPOLLIN;
        }
        if interest.writable {
            m |= sys::EPOLLOUT;
        }
        m
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
impl Poller for EpollPoller {
    fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        sys::epoll_add(self.epfd.as_raw_fd(), fd, Self::mask(interest), token)
    }

    fn reregister(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        sys::epoll_mod(self.epfd.as_raw_fd(), fd, Self::mask(interest), token)
    }

    fn deregister(&mut self, fd: RawFd, _token: u64) -> io::Result<()> {
        sys::epoll_del(self.epfd.as_raw_fd(), fd)
    }

    fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        let ms = match timeout {
            None => -1,
            // Round up so a 100µs deadline doesn't spin at timeout 0.
            Some(d) => i32::try_from(d.as_millis().max(u128::from(u32::from(!d.is_zero()))))
                .unwrap_or(i32::MAX),
        };
        let n = match sys::epoll_wait(self.epfd.as_raw_fd(), &mut self.buf, ms) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
            Err(e) => return Err(e),
        };
        for ev in &self.buf[..n] {
            let data = ev.data;
            let bits = ev.events;
            if data == Self::WAKE_TOKEN {
                sys::eventfd_drain(&self.wake_fd);
                continue;
            }
            out.push(Event {
                token: data,
                readable: bits & sys::EPOLLIN != 0,
                writable: bits & sys::EPOLLOUT != 0,
                closed: bits & (sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0,
            });
        }
        // A full buffer suggests more events were pending; grow so the
        // next wait drains them in one call.
        if n == self.buf.len() && n < 4096 {
            self.buf.resize(n * 2, sys::EpollEvent::zeroed());
        }
        Ok(())
    }

    fn waker(&self) -> Waker {
        Waker::Eventfd(Arc::clone(&self.wake_fd))
    }
}

// ---------------------------------------------------------------------------
// LoopPoller
// ---------------------------------------------------------------------------

/// Portable fallback: reports every registered token as ready on a
/// ~1ms cadence. Correct (handlers must tolerate spurious readiness and
/// answer `WouldBlock` honestly) but burns a little CPU; used where the
/// epoll shim can't compile and under `ARMADA_REACTOR=portable`.
pub struct LoopPoller {
    tokens: Vec<(u64, Interest)>,
    wake: Arc<(Mutex<bool>, Condvar)>,
}

impl LoopPoller {
    /// Slice granularity: how often spurious readiness is reported.
    const SLICE: Duration = Duration::from_millis(1);

    /// An empty loop poller.
    #[must_use]
    pub fn new() -> Self {
        LoopPoller {
            tokens: Vec::new(),
            wake: Arc::new((Mutex::new(false), Condvar::new())),
        }
    }
}

impl Poller for LoopPoller {
    fn register(&mut self, _fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        if self.tokens.iter().any(|(t, _)| *t == token) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "token already registered",
            ));
        }
        self.tokens.push((token, interest));
        Ok(())
    }

    fn reregister(&mut self, _fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match self.tokens.iter_mut().find(|(t, _)| *t == token) {
            Some(slot) => {
                slot.1 = interest;
                Ok(())
            }
            None => Err(io::Error::new(io::ErrorKind::NotFound, "unknown token")),
        }
    }

    fn deregister(&mut self, _fd: RawFd, token: u64) -> io::Result<()> {
        let before = self.tokens.len();
        self.tokens.retain(|(t, _)| *t != token);
        if self.tokens.len() == before {
            return Err(io::Error::new(io::ErrorKind::NotFound, "unknown token"));
        }
        Ok(())
    }

    fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        let nap = timeout
            .unwrap_or(Duration::from_millis(100))
            .min(Self::SLICE);
        {
            let (flag, cv) = &*self.wake;
            let mut woken = flag
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if !*woken {
                let (guard, _) = cv
                    .wait_timeout(woken, nap)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                woken = guard;
            }
            *woken = false;
        }
        for (token, interest) in &self.tokens {
            // Spurious readiness for every interest: the source's
            // non-blocking IO call is the real readiness test.
            out.push(Event {
                token: *token,
                readable: interest.readable,
                writable: interest.writable,
                closed: false,
            });
        }
        Ok(())
    }

    fn waker(&self) -> Waker {
        Waker::Flag(Arc::clone(&self.wake))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    mod epoll {
        use super::super::*;
        use std::io::Write;
        use std::net::{Ipv4Addr, TcpListener, TcpStream};
        use std::os::fd::AsRawFd;

        #[test]
        fn reports_readability_and_honours_interest_changes() {
            let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
            let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (server, _) = listener.accept().unwrap();
            server.set_nonblocking(true).unwrap();

            let mut poller = EpollPoller::new().unwrap();
            poller
                .register(server.as_raw_fd(), 42, Interest::READ)
                .unwrap();

            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_millis(50)))
                .unwrap();
            assert!(events.is_empty(), "no data yet");

            client.write_all(b"x").unwrap();
            events.clear();
            poller
                .wait(&mut events, Some(Duration::from_millis(1000)))
                .unwrap();
            assert!(events.iter().any(|e| e.token == 42 && e.readable));

            // Drop read interest: pending data must stop waking us.
            poller
                .reregister(server.as_raw_fd(), 42, Interest::WRITE)
                .unwrap();
            events.clear();
            poller
                .wait(&mut events, Some(Duration::from_millis(50)))
                .unwrap();
            assert!(events.iter().all(|e| e.token != 42 || !e.readable));

            poller.deregister(server.as_raw_fd(), 42).unwrap();
        }

        #[test]
        fn waker_interrupts_a_long_wait() {
            let mut poller = EpollPoller::new().unwrap();
            let waker = poller.waker();
            let handle = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                waker.wake();
            });
            let started = std::time::Instant::now();
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_secs(10)))
                .unwrap();
            assert!(started.elapsed() < Duration::from_secs(5), "waker ignored");
            assert!(events.is_empty(), "wake surfaces as empty event set");
            handle.join().unwrap();
        }
    }

    #[test]
    fn loop_poller_reports_registered_tokens_spuriously() {
        let mut poller = LoopPoller::new();
        poller.register(0, 7, Interest::READ).unwrap();
        poller
            .register(
                0,
                8,
                Interest {
                    readable: true,
                    writable: true,
                },
            )
            .unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(5)))
            .unwrap();
        let seven = events.iter().find(|e| e.token == 7).unwrap();
        assert!(seven.readable && !seven.writable);
        let eight = events.iter().find(|e| e.token == 8).unwrap();
        assert!(eight.readable && eight.writable);

        poller.deregister(0, 7).unwrap();
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_millis(5)))
            .unwrap();
        assert!(events.iter().all(|e| e.token != 7));
    }

    #[test]
    fn loop_poller_waker_cuts_the_nap_short() {
        let mut poller = LoopPoller::new();
        let waker = poller.waker();
        waker.wake(); // pre-armed wake: wait must return immediately
        let started = Instant::now();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(started.elapsed() < Duration::from_millis(500));
    }

    #[test]
    fn loop_poller_rejects_duplicate_and_unknown_tokens() {
        let mut poller = LoopPoller::new();
        poller.register(0, 1, Interest::READ).unwrap();
        assert!(poller.register(0, 1, Interest::READ).is_err());
        assert!(poller.reregister(0, 2, Interest::READ).is_err());
        assert!(poller.deregister(0, 2).is_err());
    }
}
