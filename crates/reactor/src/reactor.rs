//! The reactor proper: N event-loop threads driving non-blocking
//! sources through per-connection state machines.
//!
//! Each loop thread owns a [`Poller`](crate::poller::Poller), a
//! [`TimerWheel`], and a generational slab of connections; loops share
//! nothing and communicate only via per-loop command queues. Protocol
//! logic lives in [`Conn`] implementations, which receive complete
//! frames (armada-wire's 4-byte length-prefixed format, prefix already
//! stripped) and react by buffering actions on a [`ConnCtx`] — sends,
//! timers, pause/resume, close. Handlers never block: anything that
//! must sleep is offloaded to the shared [`BlockingPool`] and rejoins
//! the loop through a [`Handle`].
//!
//! Everything addressable across threads is generational: a [`ConnId`]
//! held by an offloaded job simply stops resolving once the connection
//! dies, so late completions are harmless no-ops.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::frames::{Fill, FrameReader, WriteBuf, READ_CHUNK};
use crate::poller::{make_poller, portable_default, Event, Interest, Poller, Waker};
use crate::pool::BlockingPool;
use crate::slab::{Key, Slab};
use crate::timer::{TimerKey, TimerWheel};

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
use crate::sys;

// Token layout: 2 kind bits over the slab key's 62.
const KIND_SHIFT: u32 = 62;
const KIND_CONN: u64 = 0;
const KIND_LISTENER: u64 = 1;
const KIND_UDP: u64 = 2;

fn token(kind: u64, key: Key) -> u64 {
    (kind << KIND_SHIFT) | key.to_bits()
}

/// A period in whole wheel ticks, rounded up: a timer may fire late
/// by less than a tick, never early.
fn ticks(d: Duration) -> u64 {
    u64::try_from(d.as_nanos().div_ceil(1_000_000))
        .unwrap_or(u64::MAX)
        .max(1)
}

/// A byte source the reactor can drive: non-blocking reads/writes plus
/// the raw fd for readiness registration.
///
/// Implementations must already be in non-blocking mode and answer
/// `WouldBlock` honestly — the reactor treats it as "wait for the next
/// readiness event", never as an error — and must pass reads through:
/// a read shorter than the buffer it was offered says the socket is
/// drained, so a source may not hold bytes back in a buffer of its own.
pub trait Source: Read + Write + Send {
    /// The fd registered with the poller.
    fn raw_fd(&self) -> RawFd;
}

impl Source for TcpStream {
    fn raw_fd(&self) -> RawFd {
        self.as_raw_fd()
    }
}

/// Pairs an arbitrary `Read + Write` adapter (e.g. a chaos
/// `FaultyTransport` wrapping a `TcpStream`) with the raw fd of the
/// socket buried inside it, so fault injection composes with the
/// evented path. Capture the fd **before** moving the stream into the
/// adapter.
pub struct FdIo<S> {
    io: S,
    fd: RawFd,
}

impl<S: Read + Write + Send> FdIo<S> {
    /// Wraps `io`, registering readiness on `fd`.
    pub fn new(io: S, fd: RawFd) -> Self {
        FdIo { io, fd }
    }
}

impl<S: Read + Write + Send> Read for FdIo<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.io.read(buf)
    }
}

impl<S: Read + Write + Send> Write for FdIo<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.io.write(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.io.flush()
    }
}

impl<S: Read + Write + Send> Source for FdIo<S> {
    fn raw_fd(&self) -> RawFd {
        self.fd
    }
}

/// Identifies a connection across threads: which loop owns it plus its
/// generational slab key. Stale ids (connection closed, slot reused)
/// resolve to nothing — operations on them are silent no-ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConnId {
    loop_idx: usize,
    key: Key,
}

/// A per-connection protocol state machine.
///
/// All callbacks run on the connection's loop thread and must not
/// block; offload via [`Handle::pool`] and rejoin with
/// [`Handle::send`]/[`Handle::resume`].
pub trait Conn: Send {
    /// The transport is established (accepted connections: immediately
    /// after registration; outbound: once the connect completes).
    fn on_connected(&mut self, _ctx: &mut ConnCtx) {}

    /// A complete frame body arrived (length prefix stripped).
    fn on_frame(&mut self, frame: Vec<u8>, ctx: &mut ConnCtx);

    /// The protocol timer set via [`ConnCtx::set_timer`] fired. The
    /// timer is one-shot; re-arm it here if needed.
    fn on_timer(&mut self, _ctx: &mut ConnCtx) {}

    /// The connection is gone: peer EOF (`None`), an I/O or framing
    /// error, a write stall, or a failed/timed-out connect. Fires
    /// exactly once per connection — except at reactor shutdown, when
    /// connections are torn down without callbacks (so `on_close`
    /// reconnect logic can't fight the shutdown).
    fn on_close(&mut self, _err: Option<&io::Error>, _handle: &Handle) {}
}

enum CtxAction {
    Send(Vec<u8>),
    SetTimer(Duration),
    Pause,
    Close,
}

/// Buffered actions a [`Conn`] callback can take. Applied in order
/// after the callback returns.
pub struct ConnCtx {
    id: ConnId,
    handle: Handle,
    actions: Vec<CtxAction>,
}

impl ConnCtx {
    /// This connection's cross-thread id (capture it into offloaded
    /// jobs).
    #[must_use]
    pub fn conn_id(&self) -> ConnId {
        self.id
    }

    /// The reactor handle (for spawning connects, timers, pool work).
    #[must_use]
    pub fn handle(&self) -> &Handle {
        &self.handle
    }

    /// Queues a frame body; the reactor adds the length prefix and
    /// writes as the socket allows.
    pub fn send(&mut self, body: Vec<u8>) {
        self.actions.push(CtxAction::Send(body));
    }

    /// (Re-)arms the connection's one-shot protocol timer.
    pub fn set_timer(&mut self, after: Duration) {
        self.actions.push(CtxAction::SetTimer(after));
    }

    /// Stops dispatching inbound frames (and reading) until
    /// [`Handle::resume`] — backpressure for offloaded request
    /// handling, preserving per-connection request order.
    pub fn pause(&mut self) {
        self.actions.push(CtxAction::Pause);
    }

    /// Gracefully closes: queued writes are flushed first, then the
    /// connection closes and [`Conn::on_close`] fires with `None`.
    pub fn close(&mut self) {
        self.actions.push(CtxAction::Close);
    }
}

/// Decides what to do with an accepted connection: wrap the stream
/// (chaos transports etc.) and provide its protocol state machine, or
/// `None` to drop it. The accepted stream is already non-blocking.
pub type AcceptFactory =
    Box<dyn FnMut(TcpStream, SocketAddr) -> Option<(Box<dyn Source>, Box<dyn Conn>)> + Send>;

/// Handles one inbound UDP datagram. Runs on the loop thread — reply
/// inline via the socket for the fast path, or offload to the pool
/// (cloning the `Arc`) when a delay must be simulated.
pub type UdpHandler = Box<dyn FnMut(&[u8], SocketAddr, &Arc<UdpSocket>, &Handle) + Send>;

type OnceFn = Box<dyn FnOnce(&Handle) + Send>;
type RepeatFn = Box<dyn FnMut(&Handle) + Send>;

enum Cmd {
    AddListener(TcpListener, AcceptFactory),
    AddUdp(UdpSocket, UdpHandler),
    AddConn(Box<dyn Source>, Box<dyn Conn>),
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    ConnectV4(std::net::SocketAddrV4, Duration, Box<dyn Conn>),
    ConnectFailed(Box<dyn Conn>, io::Error),
    Send(Key, Vec<u8>),
    Resume(Key),
    Close(Key),
    TimerOnce(Duration, OnceFn),
    TimerEvery(Duration, RepeatFn),
}

/// Reactor sizing and safety limits.
#[derive(Clone)]
pub struct ReactorConfig {
    /// Event-loop threads; `0` means one per available core.
    pub threads: usize,
    /// How long a connection may sit with unflushed writes before it is
    /// declared stalled and closed.
    pub write_stall_timeout: Duration,
    /// Per-connection outbound backlog bound (bytes).
    pub write_buffer_cap: usize,
    /// Cap on blocking-pool threads.
    pub pool_max: usize,
    /// Bound on queued blocking-pool jobs once every pool worker is
    /// busy (`0` = unbounded). Only [`BlockingPool::try_spawn`]
    /// enforces it — saturated callers degrade instead of queueing.
    pub pool_queue_cap: usize,
    /// Global cap on concurrently open connections (accepted and
    /// outbound) across every loop. Accepting pauses at the cap and
    /// resumes as connections close; `0` disables the cap.
    pub max_conns: usize,
    /// Aggregate buffered-write high watermark in bytes across every
    /// connection: at or above it [`Handle::overloaded`] reports
    /// `true`. `0` disables overload detection by backlog.
    pub write_high_watermark: usize,
    /// Aggregate buffered-write low watermark in bytes: once
    /// saturated, [`Handle::overloaded`] stays `true` until the
    /// backlog drains to this level (hysteresis).
    pub write_low_watermark: usize,
    /// How long a connection may hold a partially received frame
    /// without completing it before it is evicted as a slow reader
    /// (slow-loris defense). `Duration::ZERO` disables the deadline.
    pub read_progress_timeout: Duration,
    /// Use the portable readiness-loop poller instead of epoll.
    /// Defaults from the platform and the `ARMADA_REACTOR=portable`
    /// environment override.
    pub portable: bool,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            threads: 0,
            write_stall_timeout: Duration::from_secs(5),
            write_buffer_cap: 8 << 20,
            pool_max: 256,
            pool_queue_cap: 0,
            max_conns: 0,
            write_high_watermark: 0,
            write_low_watermark: 0,
            read_progress_timeout: Duration::from_secs(30),
            portable: portable_default(),
        }
    }
}

/// Shared resource accounting across every loop: open-connection
/// count, aggregate buffered-write bytes, and the watermark-hysteresis
/// saturation flag they feed.
struct Budgets {
    conns: AtomicUsize,
    write_bytes: AtomicUsize,
    saturated: AtomicBool,
    high: usize,
    low: usize,
    max_conns: usize,
}

impl Budgets {
    fn new(config: &ReactorConfig) -> Budgets {
        Budgets {
            conns: AtomicUsize::new(0),
            write_bytes: AtomicUsize::new(0),
            saturated: AtomicBool::new(false),
            high: config.write_high_watermark,
            low: config.write_low_watermark,
            max_conns: config.max_conns,
        }
    }

    /// Applies one connection's buffered-write change (`before` →
    /// `after` pending bytes) to the aggregate, flipping the
    /// saturation flag at the high watermark and clearing it once the
    /// total drains to the low watermark.
    fn note_write_delta(&self, before: usize, after: usize) {
        if after > before {
            let grew = after - before;
            let total = self.write_bytes.fetch_add(grew, Ordering::Relaxed) + grew;
            if self.high > 0 && total >= self.high {
                self.saturated.store(true, Ordering::Relaxed);
            }
        } else if before > after {
            let shrank = before - after;
            let total = self
                .write_bytes
                .fetch_sub(shrank, Ordering::Relaxed)
                .saturating_sub(shrank);
            if self.high > 0 && total <= self.low {
                self.saturated.store(false, Ordering::Relaxed);
            }
        }
    }

    fn conns_full(&self) -> bool {
        self.max_conns > 0 && self.conns.load(Ordering::Relaxed) >= self.max_conns
    }
}

struct HandleInner {
    senders: Vec<Sender<Cmd>>,
    wakers: Vec<Waker>,
    rr: AtomicUsize,
    shutdown: AtomicBool,
    pool: BlockingPool,
    budgets: Budgets,
    portable: bool,
}

/// Cloneable, thread-safe entry point into a running reactor: register
/// sources, spawn connects, schedule timers, push frames.
#[derive(Clone)]
pub struct Handle {
    inner: Arc<HandleInner>,
}

impl Handle {
    fn next_loop(&self) -> usize {
        self.inner.rr.fetch_add(1, Ordering::Relaxed) % self.inner.senders.len()
    }

    fn send_to(&self, idx: usize, cmd: Cmd) {
        if self.inner.senders[idx].send(cmd).is_ok() {
            self.inner.wakers[idx].wake();
        }
    }

    /// Number of event-loop threads.
    #[must_use]
    pub fn loops(&self) -> usize {
        self.inner.senders.len()
    }

    /// `true` once [`Handle::shutdown`] has been called.
    #[must_use]
    pub fn is_shutdown(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }

    /// The shared blocking pool for offloaded work.
    #[must_use]
    pub fn pool(&self) -> &BlockingPool {
        &self.inner.pool
    }

    /// Connections currently open across every loop.
    #[must_use]
    pub fn active_conns(&self) -> usize {
        self.inner.budgets.conns.load(Ordering::Relaxed)
    }

    /// Aggregate bytes currently buffered for write across every
    /// connection (reactor-side backlog only, not kernel buffers).
    #[must_use]
    pub fn buffered_write_bytes(&self) -> usize {
        self.inner.budgets.write_bytes.load(Ordering::Relaxed)
    }

    /// `true` while the aggregate write backlog sits at or above the
    /// configured high watermark; cleared with hysteresis once it
    /// drains to the low watermark. Always `false` when watermarks are
    /// disabled ([`ReactorConfig::write_high_watermark`] of `0`).
    #[must_use]
    pub fn overloaded(&self) -> bool {
        self.inner.budgets.saturated.load(Ordering::Relaxed)
    }

    /// Hands a listening socket to a loop; each accepted connection is
    /// built by `factory` and assigned round-robin across loops.
    ///
    /// # Errors
    ///
    /// If the listener can't be switched to non-blocking mode.
    pub fn add_listener(&self, listener: TcpListener, factory: AcceptFactory) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        self.send_to(self.next_loop(), Cmd::AddListener(listener, factory));
        Ok(())
    }

    /// Hands a UDP socket to a loop; `handler` runs per datagram.
    ///
    /// # Errors
    ///
    /// If the socket can't be switched to non-blocking mode.
    pub fn add_udp(&self, socket: UdpSocket, handler: UdpHandler) -> io::Result<()> {
        socket.set_nonblocking(true)?;
        self.send_to(self.next_loop(), Cmd::AddUdp(socket, handler));
        Ok(())
    }

    /// Adopts an established source (must already be non-blocking) with
    /// its state machine; `on_connected` fires once registered.
    pub fn add_source(&self, io: Box<dyn Source>, conn: Box<dyn Conn>) {
        self.send_to(self.next_loop(), Cmd::AddConn(io, conn));
    }

    /// Starts an outbound TCP connect. On Linux/epoll IPv4 this is a
    /// true non-blocking connect completed by writability; otherwise a
    /// pool thread runs `connect_timeout`. Either way exactly one of
    /// `on_connected` or `on_close(Some(err))` eventually fires on
    /// `conn`.
    pub fn connect(&self, addr: SocketAddr, timeout: Duration, conn: Box<dyn Conn>) {
        let idx = self.next_loop();
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        {
            if !self.inner.portable {
                if let SocketAddr::V4(v4) = addr {
                    self.send_to(idx, Cmd::ConnectV4(v4, timeout, conn));
                    return;
                }
            }
        }
        let handle = self.clone();
        self.inner.pool.spawn(move || {
            match TcpStream::connect_timeout(&addr, timeout)
                .and_then(|s| s.set_nonblocking(true).map(|()| s))
            {
                Ok(stream) => handle.send_to(idx, Cmd::AddConn(Box::new(stream), conn)),
                Err(e) => handle.send_to(idx, Cmd::ConnectFailed(conn, e)),
            }
        });
    }

    /// Queues a frame body on a connection (no-op for stale ids).
    pub fn send(&self, id: ConnId, body: Vec<u8>) {
        self.send_to(id.loop_idx, Cmd::Send(id.key, body));
    }

    /// Resumes frame dispatch after [`ConnCtx::pause`].
    pub fn resume(&self, id: ConnId) {
        self.send_to(id.loop_idx, Cmd::Resume(id.key));
    }

    /// Gracefully closes a connection (flush, then `on_close(None)`).
    pub fn close(&self, id: ConnId) {
        self.send_to(id.loop_idx, Cmd::Close(id.key));
    }

    /// Runs `f` on a loop thread after `delay`.
    pub fn timer_after<F: FnOnce(&Handle) + Send + 'static>(&self, delay: Duration, f: F) {
        self.send_to(self.next_loop(), Cmd::TimerOnce(delay, Box::new(f)));
    }

    /// Runs `f` on a loop thread every `period`, first firing one
    /// period from now.
    pub fn timer_every<F: FnMut(&Handle) + Send + 'static>(&self, period: Duration, f: F) {
        self.send_to(self.next_loop(), Cmd::TimerEvery(period, Box::new(f)));
    }

    /// Stops every loop thread. Idempotent; in-flight connections are
    /// torn down **without** `on_close` callbacks so shutdown can't
    /// race reconnect logic.
    pub fn shutdown(&self) {
        if !self.inner.shutdown.swap(true, Ordering::SeqCst) {
            for waker in &self.inner.wakers {
                waker.wake();
            }
        }
    }
}

/// A running reactor. Dropping it shuts down and joins every loop
/// thread.
pub struct Reactor {
    handle: Handle,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Reactor {
    /// Starts the loop threads.
    ///
    /// # Errors
    ///
    /// Poller construction or thread spawn failure.
    pub fn new(config: ReactorConfig) -> io::Result<Reactor> {
        let n = if config.threads == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            config.threads
        };
        let mut pollers = Vec::with_capacity(n);
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        let mut wakers = Vec::with_capacity(n);
        for _ in 0..n {
            let poller = make_poller(config.portable)?;
            wakers.push(poller.waker());
            pollers.push(poller);
            let (tx, rx) = std::sync::mpsc::channel();
            senders.push(tx);
            receivers.push(rx);
        }
        let handle = Handle {
            inner: Arc::new(HandleInner {
                senders,
                wakers,
                rr: AtomicUsize::new(0),
                shutdown: AtomicBool::new(false),
                pool: BlockingPool::bounded(config.pool_max, config.pool_queue_cap),
                budgets: Budgets::new(&config),
                portable: config.portable,
            }),
        };
        let mut threads = Vec::with_capacity(n);
        for (idx, (poller, cmds)) in pollers.into_iter().zip(receivers).enumerate() {
            let el = EventLoop {
                idx,
                poller,
                wheel: TimerWheel::new(),
                conns: Slab::new(),
                listeners: Slab::new(),
                udps: Slab::new(),
                cmds,
                handle: handle.clone(),
                epoch: Instant::now(),
                scratch: vec![0u8; READ_CHUNK].into_boxed_slice(),
                stall_timeout: config.write_stall_timeout,
                write_cap: config.write_buffer_cap,
                progress_timeout: config.read_progress_timeout,
            };
            threads.push(
                std::thread::Builder::new()
                    .name(format!("armada-reactor-{idx}"))
                    .spawn(move || el.run())?,
            );
        }
        Ok(Reactor { handle, threads })
    }

    /// The reactor's entry-point handle.
    #[must_use]
    pub fn handle(&self) -> &Handle {
        &self.handle
    }

    /// Stops all loops (idempotent; also happens on drop).
    pub fn shutdown(&self) {
        self.handle.shutdown();
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.handle.shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Event loop internals
// ---------------------------------------------------------------------------

enum ConnIo {
    /// Non-blocking connect in flight; completes on writability.
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    Connecting(std::os::fd::OwnedFd),
    Ready(Box<dyn Source>),
    /// Transient state during connect completion; never observed.
    Empty,
}

impl ConnIo {
    fn is_connecting(&self) -> bool {
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        {
            matches!(self, ConnIo::Connecting(_))
        }
        #[cfg(not(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        )))]
        {
            false
        }
    }
}

struct Connection {
    io: ConnIo,
    fd: RawFd,
    conn: Box<dyn Conn>,
    reader: FrameReader,
    writer: WriteBuf,
    /// Frames parsed but not yet dispatched (non-empty only while
    /// paused or when a handler closed the connection mid-batch).
    inbox: VecDeque<Vec<u8>>,
    interest: Interest,
    paused: bool,
    closing: bool,
    timer: Option<TimerKey>,
    stall: Option<TimerKey>,
    connect_deadline: Option<TimerKey>,
    /// Slow-read (slow-loris) deadline; armed while a partially
    /// received frame is pending, reset whenever a frame completes.
    progress: Option<TimerKey>,
}

enum TimerTask {
    ConnTimer(Key),
    WriteStall(Key),
    /// Slow-read deadline: a partial frame must have completed by now.
    ReadProgress(Key),
    /// A parked listener (fd table or connection budget exhausted)
    /// re-checks whether it can accept again.
    AcceptRetry(Key),
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    ConnectTimeout(Key),
    Once(OnceFn),
    Every(u64, RepeatFn),
}

struct ListenerEntry {
    listener: TcpListener,
    factory: AcceptFactory,
    /// Deregistered from the poller until an [`TimerTask::AcceptRetry`]
    /// successfully resumes it.
    paused: bool,
}

struct EventLoop {
    idx: usize,
    poller: Box<dyn Poller>,
    wheel: TimerWheel<TimerTask>,
    conns: Slab<Connection>,
    listeners: Slab<ListenerEntry>,
    udps: Slab<(Arc<UdpSocket>, UdpHandler)>,
    cmds: Receiver<Cmd>,
    handle: Handle,
    epoch: Instant,
    /// Every stream read and datagram receive on this loop lands here
    /// first; only the bytes received are copied on. Sized to the UDP
    /// payload ceiling, so no datagram arrives truncated.
    scratch: Box<[u8]>,
    stall_timeout: Duration,
    write_cap: usize,
    progress_timeout: Duration,
}

/// Cap on poll sleep so loops periodically notice external state even
/// with an empty wheel.
const MAX_POLL: Duration = Duration::from_millis(500);

/// Bound on consecutive reads per readiness event, for fairness across
/// connections (level-triggered polling re-reports leftover data).
const MAX_FILLS_PER_EVENT: usize = 16;

/// How often a parked listener re-checks the fd/connection budgets.
const ACCEPT_RETRY: Duration = Duration::from_millis(25);

/// Did this accept/open failure mean the process (`EMFILE`) or system
/// (`ENFILE`) file table is full? Retrying immediately can only fail
/// again; the listener parks until something closes.
fn fd_exhausted(e: &io::Error) -> bool {
    matches!(e.raw_os_error(), Some(23) | Some(24))
}

impl EventLoop {
    fn now_tick(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// The wheel tick at which a timer armed now for `after` is due:
    /// the first tick boundary at or past the real instant. The clock
    /// the wheel advances by ([`EventLoop::now_tick`]) is floored, so
    /// flooring here as well would let any unrelated wake-up fire the
    /// timer up to a tick (for fractional delays, almost two) early.
    fn deadline(&self, after: Duration) -> u64 {
        ticks(self.epoch.elapsed().saturating_add(after))
    }

    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut fired: Vec<(u64, TimerTask)> = Vec::new();
        loop {
            while let Ok(cmd) = self.cmds.try_recv() {
                self.handle_cmd(cmd);
            }
            if self.handle.is_shutdown() {
                break;
            }
            let timeout = self.poll_timeout();
            events.clear();
            if self.poller.wait(&mut events, Some(timeout)).is_err() {
                // A broken poller would spin; back off a little.
                std::thread::sleep(Duration::from_millis(1));
            }
            // IO first, timers after: a response arriving in the same
            // wakeup as its deadline cancels the deadline before it can
            // fire a spurious timeout.
            for ev in events.drain(..) {
                self.handle_event(ev);
            }
            let now = self.now_tick();
            fired.clear();
            self.wheel.advance(now, &mut fired);
            for (_, task) in fired.drain(..) {
                self.handle_timer(task);
            }
        }
        // Teardown: drop everything without on_close callbacks (the
        // shared budgets still settle, for anyone holding the handle).
        let open = self.conns.len();
        for c in self.conns.drain() {
            self.handle
                .inner
                .budgets
                .note_write_delta(c.writer.pending(), 0);
        }
        self.handle
            .inner
            .budgets
            .conns
            .fetch_sub(open, Ordering::Relaxed);
        self.listeners.drain();
        self.udps.drain();
    }

    fn poll_timeout(&self) -> Duration {
        match self.wheel.next_wakeup() {
            None => MAX_POLL,
            Some(tick) => Duration::from_millis(tick.saturating_sub(self.now_tick())).min(MAX_POLL),
        }
    }

    // -- commands ----------------------------------------------------------

    fn handle_cmd(&mut self, cmd: Cmd) {
        match cmd {
            Cmd::AddListener(listener, factory) => {
                let fd = listener.as_raw_fd();
                let key = self.listeners.insert(ListenerEntry {
                    listener,
                    factory,
                    paused: false,
                });
                if self
                    .poller
                    .register(fd, token(KIND_LISTENER, key), Interest::READ)
                    .is_err()
                {
                    self.listeners.remove(key);
                }
            }
            Cmd::AddUdp(socket, handler) => {
                let fd = socket.as_raw_fd();
                let key = self.udps.insert((Arc::new(socket), handler));
                if self
                    .poller
                    .register(fd, token(KIND_UDP, key), Interest::READ)
                    .is_err()
                {
                    self.udps.remove(key);
                }
            }
            Cmd::AddConn(io, conn) => {
                self.install_conn(ConnIo::Ready(io), conn);
            }
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            Cmd::ConnectV4(addr, timeout, conn) => self.start_connect(addr, timeout, conn),
            Cmd::ConnectFailed(mut conn, err) => conn.on_close(Some(&err), &self.handle),
            Cmd::Send(key, body) => self.queue_frame(key, body),
            Cmd::Resume(key) => self.resume(key),
            Cmd::Close(key) => self.request_close(key),
            Cmd::TimerOnce(delay, f) => {
                let deadline = self.deadline(delay);
                self.wheel.insert(deadline, TimerTask::Once(f));
            }
            Cmd::TimerEvery(period, f) => {
                let deadline = self.deadline(period);
                self.wheel
                    .insert(deadline, TimerTask::Every(ticks(period), f));
            }
        }
    }

    fn install_conn(&mut self, io: ConnIo, mut conn: Box<dyn Conn>) -> Option<Key> {
        let fd = match &io {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            ConnIo::Connecting(fd) => fd.as_raw_fd(),
            ConnIo::Ready(s) => s.raw_fd(),
            ConnIo::Empty => {
                debug_assert!(false, "installing an empty ConnIo");
                return None;
            }
        };
        let connecting = io.is_connecting();
        let interest = if connecting {
            Interest::WRITE
        } else {
            Interest::READ
        };
        if self.handle.is_shutdown() {
            // Don't register into a loop that is about to tear down.
            conn.on_close(Some(&io::Error::other("reactor shut down")), &self.handle);
            return None;
        }
        let key = self.conns.insert(Connection {
            io,
            fd,
            conn,
            reader: FrameReader::new(),
            writer: WriteBuf::new(self.write_cap),
            inbox: VecDeque::new(),
            interest,
            paused: false,
            closing: false,
            timer: None,
            stall: None,
            connect_deadline: None,
            progress: None,
        });
        if let Err(e) = self.poller.register(fd, token(KIND_CONN, key), interest) {
            if let Some(mut c) = self.conns.remove(key) {
                c.conn.on_close(Some(&e), &self.handle);
            }
            return None;
        }
        self.handle
            .inner
            .budgets
            .conns
            .fetch_add(1, Ordering::Relaxed);
        if !connecting {
            self.fire_connected(key);
        }
        Some(key)
    }

    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    fn start_connect(
        &mut self,
        addr: std::net::SocketAddrV4,
        timeout: Duration,
        mut conn: Box<dyn Conn>,
    ) {
        match sys::tcp_connect_nonblocking(addr) {
            Err(e) => conn.on_close(Some(&e), &self.handle),
            Ok((fd, in_progress)) => {
                if in_progress {
                    let deadline = self.deadline(timeout);
                    if let Some(key) = self.install_conn(ConnIo::Connecting(fd), conn) {
                        let tk = self.wheel.insert(deadline, TimerTask::ConnectTimeout(key));
                        if let Some(c) = self.conns.get_mut(key) {
                            c.connect_deadline = Some(tk);
                        }
                    }
                } else {
                    let stream = sys::stream_from(fd);
                    self.install_conn(ConnIo::Ready(Box::new(stream)), conn);
                }
            }
        }
    }

    // -- conn callbacks ----------------------------------------------------

    fn with_conn<F: FnOnce(&mut dyn Conn, &mut ConnCtx)>(&mut self, key: Key, f: F) {
        let mut ctx = ConnCtx {
            id: ConnId {
                loop_idx: self.idx,
                key,
            },
            handle: self.handle.clone(),
            actions: Vec::new(),
        };
        match self.conns.get_mut(key) {
            Some(c) => f(&mut *c.conn, &mut ctx),
            None => return,
        }
        self.apply_actions(key, ctx.actions);
    }

    fn fire_connected(&mut self, key: Key) {
        self.with_conn(key, |conn, ctx| conn.on_connected(ctx));
    }

    fn apply_actions(&mut self, key: Key, actions: Vec<CtxAction>) {
        for action in actions {
            match action {
                CtxAction::Send(body) => self.queue_frame(key, body),
                CtxAction::SetTimer(after) => {
                    let deadline = self.deadline(after);
                    if let Some(c) = self.conns.get_mut(key) {
                        if let Some(old) = c.timer.take() {
                            self.wheel.cancel(old);
                        }
                        c.timer = Some(self.wheel.insert(deadline, TimerTask::ConnTimer(key)));
                    }
                }
                CtxAction::Pause => {
                    if let Some(c) = self.conns.get_mut(key) {
                        c.paused = true;
                    }
                    self.update_interest(key);
                }
                CtxAction::Close => self.request_close(key),
            }
        }
    }

    // -- write path --------------------------------------------------------

    fn queue_frame(&mut self, key: Key, body: Vec<u8>) {
        let (overflow, before, after) = {
            let Some(c) = self.conns.get_mut(key) else {
                return;
            };
            let before = c.writer.pending();
            let overflow = c.writer.push_frame(&body).is_err();
            (overflow, before, c.writer.pending())
        };
        self.handle.inner.budgets.note_write_delta(before, after);
        if overflow {
            self.close_conn(key, Some(io::Error::other("outbound backlog exceeded")));
        } else {
            self.flush_conn(key);
        }
    }

    fn flush_conn(&mut self, key: Key) {
        let (outcome, before, after) = {
            let Some(c) = self.conns.get_mut(key) else {
                return;
            };
            let ConnIo::Ready(io) = &mut c.io else {
                // Still connecting: frames wait for completion.
                return;
            };
            let dst: &mut dyn Write = &mut **io;
            let before = c.writer.pending();
            let outcome = c.writer.write_to(dst);
            (outcome, before, c.writer.pending())
        };
        self.handle.inner.budgets.note_write_delta(before, after);
        match outcome {
            Ok(true) => {
                let closing = {
                    let Some(c) = self.conns.get_mut(key) else {
                        return;
                    };
                    if let Some(s) = c.stall.take() {
                        self.wheel.cancel(s);
                    }
                    c.closing
                };
                if closing {
                    self.close_conn(key, None);
                } else {
                    self.update_interest(key);
                }
            }
            Ok(false) => {
                let stall_at = self.deadline(self.stall_timeout);
                if let Some(c) = self.conns.get_mut(key) {
                    if c.stall.is_none() {
                        c.stall = Some(self.wheel.insert(stall_at, TimerTask::WriteStall(key)));
                    }
                }
                self.update_interest(key);
            }
            Err(e) => self.close_conn(key, Some(e)),
        }
    }

    // -- read path ---------------------------------------------------------

    /// `closed`: the poller saw the peer hang up, so the stream is read
    /// to its end; otherwise a read that did not fill the scratch
    /// buffer has drained the socket and ends the event without a
    /// second `read` to see `WouldBlock` (polling is level-triggered:
    /// bytes that arrive meanwhile raise the next event).
    fn read_ready(&mut self, key: Key, closed: bool) {
        // `Some(close_reason)` once the stream is done for.
        let mut ended: Option<Option<io::Error>> = None;
        // Did a complete frame arrive during this event? Resets the
        // slow-read deadline; bytes alone do not.
        let mut completed_frame = false;
        for _ in 0..MAX_FILLS_PER_EVENT {
            let fill = {
                let Some(c) = self.conns.get_mut(key) else {
                    return;
                };
                if c.closing || c.io.is_connecting() {
                    return;
                }
                let ConnIo::Ready(io) = &mut c.io else {
                    return;
                };
                let src: &mut dyn Read = &mut **io;
                c.reader.fill_via(src, &mut self.scratch)
            };
            match fill {
                Ok(Fill::Bytes(n)) => {
                    let defect = {
                        let Some(c) = self.conns.get_mut(key) else {
                            return;
                        };
                        loop {
                            match c.reader.pop_frame() {
                                Ok(Some(frame)) => {
                                    completed_frame = true;
                                    c.inbox.push_back(frame);
                                }
                                Ok(None) => break None,
                                Err(d) => break Some(d),
                            }
                        }
                    };
                    if let Some(d) = defect {
                        ended = Some(Some(d.into()));
                        break;
                    }
                    self.dispatch_inbox(key);
                    if self.conns.get(key).is_none() {
                        return; // a handler closed it mid-batch
                    }
                    if n < self.scratch.len() && !closed {
                        break;
                    }
                }
                Ok(Fill::Eof) => {
                    ended = Some(None);
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    ended = Some(Some(e));
                    break;
                }
            }
        }
        if let Some(err) = ended {
            // Frames fully received before the EOF/error still count.
            self.dispatch_inbox(key);
            if self.conns.get(key).is_some() {
                self.close_conn(key, err);
            }
            return;
        }
        self.arm_read_progress(key, completed_frame);
    }

    /// Maintains the slow-read (slow-loris) deadline after a read
    /// event: while a partially received frame is pending, the peer
    /// must complete a frame within [`ReactorConfig::read_progress_timeout`]
    /// or be evicted — a byte-at-a-time trickler gets a deadline, not
    /// a hung slot. A completed frame resets the deadline; an empty
    /// read buffer (idle between requests) disarms it.
    fn arm_read_progress(&mut self, key: Key, completed_frame: bool) {
        if self.progress_timeout.is_zero() {
            return;
        }
        let deadline = self.deadline(self.progress_timeout);
        let Some(c) = self.conns.get_mut(key) else {
            return;
        };
        if c.reader.buffered() == 0 {
            if let Some(tk) = c.progress.take() {
                self.wheel.cancel(tk);
            }
        } else if completed_frame {
            if let Some(tk) = c.progress.take() {
                self.wheel.cancel(tk);
            }
            c.progress = Some(self.wheel.insert(deadline, TimerTask::ReadProgress(key)));
        } else if c.progress.is_none() {
            c.progress = Some(self.wheel.insert(deadline, TimerTask::ReadProgress(key)));
        }
    }

    fn dispatch_inbox(&mut self, key: Key) {
        loop {
            let frame = {
                let Some(c) = self.conns.get_mut(key) else {
                    return;
                };
                if c.paused || c.closing {
                    return;
                }
                match c.inbox.pop_front() {
                    Some(f) => f,
                    None => return,
                }
            };
            self.with_conn(key, move |conn, ctx| conn.on_frame(frame, ctx));
        }
    }

    // -- lifecycle ---------------------------------------------------------

    fn resume(&mut self, key: Key) {
        {
            let Some(c) = self.conns.get_mut(key) else {
                return;
            };
            if !c.paused {
                return;
            }
            c.paused = false;
        }
        self.dispatch_inbox(key);
        self.update_interest(key);
    }

    fn request_close(&mut self, key: Key) {
        let close_now = {
            let Some(c) = self.conns.get_mut(key) else {
                return;
            };
            if c.closing {
                return;
            }
            c.closing = true;
            c.inbox.clear();
            c.writer.is_empty() || c.io.is_connecting()
        };
        if close_now {
            self.close_conn(key, None);
        } else {
            self.flush_conn(key);
        }
    }

    fn close_conn(&mut self, key: Key, err: Option<io::Error>) {
        let Some(mut c) = self.conns.remove(key) else {
            return;
        };
        let _ = self.poller.deregister(c.fd, token(KIND_CONN, key));
        for tk in [
            c.timer.take(),
            c.stall.take(),
            c.connect_deadline.take(),
            c.progress.take(),
        ]
        .into_iter()
        .flatten()
        {
            self.wheel.cancel(tk);
        }
        let budgets = &self.handle.inner.budgets;
        budgets.note_write_delta(c.writer.pending(), 0);
        budgets.conns.fetch_sub(1, Ordering::Relaxed);
        c.conn.on_close(err.as_ref(), &self.handle);
        // The fd closes when `c.io` drops here.
    }

    fn update_interest(&mut self, key: Key) {
        let Some(c) = self.conns.get_mut(key) else {
            return;
        };
        let connecting = c.io.is_connecting();
        let want = Interest {
            readable: !connecting && !c.paused && !c.closing,
            writable: connecting || !c.writer.is_empty(),
        };
        if want != c.interest
            && self
                .poller
                .reregister(c.fd, token(KIND_CONN, key), want)
                .is_ok()
        {
            c.interest = want;
        }
    }

    // -- events ------------------------------------------------------------

    fn handle_event(&mut self, ev: Event) {
        let kind = ev.token >> KIND_SHIFT;
        let key = Key::from_bits(ev.token & ((1u64 << KIND_SHIFT) - 1));
        match kind {
            KIND_LISTENER => self.accept_ready(key),
            KIND_UDP => self.udp_ready(key),
            KIND_CONN => self.conn_ready(key, ev),
            _ => {}
        }
    }

    fn conn_ready(&mut self, key: Key, ev: Event) {
        if self.conns.get(key).map(|c| c.io.is_connecting()) == Some(true) {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            self.finish_connect(key);
            return;
        }
        if ev.readable || ev.closed {
            self.read_ready(key, ev.closed);
        }
        if ev.writable && self.conns.get(key).is_some() {
            self.flush_conn(key);
        }
    }

    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    fn finish_connect(&mut self, key: Key) {
        let result = {
            let Some(c) = self.conns.get_mut(key) else {
                return;
            };
            let ConnIo::Connecting(fd) = &c.io else {
                return;
            };
            sys::take_connect_result(fd)
        };
        match result {
            Ok(()) => {
                {
                    let Some(c) = self.conns.get_mut(key) else {
                        return;
                    };
                    let ConnIo::Connecting(fd) = std::mem::replace(&mut c.io, ConnIo::Empty) else {
                        return;
                    };
                    c.io = ConnIo::Ready(Box::new(sys::stream_from(fd)));
                    if let Some(tk) = c.connect_deadline.take() {
                        self.wheel.cancel(tk);
                    }
                }
                self.update_interest(key);
                self.fire_connected(key);
                // on_connected usually queues the request; make sure a
                // graceful close requested there still completes.
            }
            Err(e) => self.close_conn(key, Some(e)),
        }
    }

    fn accept_ready(&mut self, key: Key) {
        loop {
            if self.listeners.get(key).map(|l| l.paused) != Some(false) {
                return;
            }
            if self.handle.inner.budgets.conns_full() {
                self.pause_accept(key, "connection budget exhausted");
                return;
            }
            let (stream, peer) = {
                let Some(l) = self.listeners.get_mut(key) else {
                    return;
                };
                match l.listener.accept() {
                    Ok(pair) => pair,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    // The process or system fd table is full: accepting
                    // again now can only fail again. Park the listener
                    // and resume once connections close; established
                    // connections keep being served throughout.
                    Err(e) if fd_exhausted(&e) => {
                        self.pause_accept(key, "fd table exhausted (EMFILE/ENFILE)");
                        return;
                    }
                    // Other transient accept failures (aborted
                    // handshake): yield; level-triggered polling
                    // retries next round.
                    Err(_) => return,
                }
            };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let built = {
                let Some(l) = self.listeners.get_mut(key) else {
                    return;
                };
                (l.factory)(stream, peer)
            };
            if let Some((io, conn)) = built {
                // Round-robin across loops for balance.
                self.handle.add_source(io, conn);
            }
        }
    }

    /// Parks a listener: deregisters it from the poller (so a full
    /// backlog cannot spin the loop) and arms an [`TimerTask::AcceptRetry`]
    /// to re-check the budgets shortly. Exactly one retry timer is
    /// outstanding per parked listener.
    fn pause_accept(&mut self, key: Key, why: &str) {
        {
            let Some(l) = self.listeners.get_mut(key) else {
                return;
            };
            if l.paused {
                return;
            }
            l.paused = true;
            let fd = l.listener.as_raw_fd();
            let _ = self.poller.deregister(fd, token(KIND_LISTENER, key));
        }
        eprintln!("armada-reactor: accept paused on loop {}: {why}; retrying every {}ms until a connection closes", self.idx, ACCEPT_RETRY.as_millis());
        let deadline = self.deadline(ACCEPT_RETRY);
        self.wheel.insert(deadline, TimerTask::AcceptRetry(key));
    }

    fn udp_ready(&mut self, key: Key) {
        loop {
            let (n, peer, socket) = {
                let Some((socket, _)) = self.udps.get_mut(key) else {
                    return;
                };
                match socket.recv_from(&mut self.scratch) {
                    Ok((n, peer)) => (n, peer, Arc::clone(socket)),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => return,
                }
            };
            let handle = self.handle.clone();
            let Some((_, handler)) = self.udps.get_mut(key) else {
                return;
            };
            handler(&self.scratch[..n], peer, &socket, &handle);
        }
    }

    // -- timers ------------------------------------------------------------

    fn handle_timer(&mut self, task: TimerTask) {
        match task {
            TimerTask::ConnTimer(key) => {
                {
                    let Some(c) = self.conns.get_mut(key) else {
                        return;
                    };
                    c.timer = None;
                }
                self.with_conn(key, |conn, ctx| conn.on_timer(ctx));
            }
            TimerTask::WriteStall(key) => {
                let stalled = {
                    let Some(c) = self.conns.get_mut(key) else {
                        return;
                    };
                    c.stall = None;
                    !c.writer.is_empty()
                };
                if stalled {
                    self.close_conn(
                        key,
                        Some(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "write stalled past deadline",
                        )),
                    );
                }
            }
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            TimerTask::ConnectTimeout(key) => {
                let still_connecting = {
                    let Some(c) = self.conns.get_mut(key) else {
                        return;
                    };
                    c.connect_deadline = None;
                    c.io.is_connecting()
                };
                if still_connecting {
                    self.close_conn(
                        key,
                        Some(io::Error::new(io::ErrorKind::TimedOut, "connect timed out")),
                    );
                }
            }
            TimerTask::ReadProgress(key) => {
                let (stalled, paused) = {
                    let Some(c) = self.conns.get_mut(key) else {
                        return;
                    };
                    c.progress = None;
                    (c.reader.buffered() > 0 && !c.closing, c.paused)
                };
                if stalled && paused {
                    // We gated reads ourselves (backpressure), so the
                    // stall is self-inflicted: re-arm, don't evict.
                    let deadline = self.deadline(self.progress_timeout);
                    let timer = self.wheel.insert(deadline, TimerTask::ReadProgress(key));
                    if let Some(c) = self.conns.get_mut(key) {
                        c.progress = Some(timer);
                    }
                } else if stalled {
                    self.close_conn(
                        key,
                        Some(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "read progress stalled past deadline",
                        )),
                    );
                }
            }
            TimerTask::AcceptRetry(key) => {
                if self.handle.inner.budgets.conns_full() {
                    let deadline = self.deadline(ACCEPT_RETRY);
                    self.wheel.insert(deadline, TimerTask::AcceptRetry(key));
                    return;
                }
                let registered = {
                    let Some(l) = self.listeners.get_mut(key) else {
                        return;
                    };
                    if !l.paused {
                        return;
                    }
                    let fd = l.listener.as_raw_fd();
                    self.poller
                        .register(fd, token(KIND_LISTENER, key), Interest::READ)
                        .is_ok()
                };
                if registered {
                    if let Some(l) = self.listeners.get_mut(key) {
                        l.paused = false;
                    }
                    eprintln!("armada-reactor: accept resumed on loop {}", self.idx);
                    self.accept_ready(key);
                } else {
                    let deadline = self.deadline(ACCEPT_RETRY);
                    self.wheel.insert(deadline, TimerTask::AcceptRetry(key));
                }
            }
            TimerTask::Once(f) => f(&self.handle),
            TimerTask::Every(period, mut f) => {
                f(&self.handle);
                let deadline = self.wheel.now() + period;
                self.wheel.insert(deadline, TimerTask::Every(period, f));
            }
        }
    }
}
