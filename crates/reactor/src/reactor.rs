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
//! An outbound connect is a dial on its loop until it completes: the
//! stream [`connect_nonblocking`] started, watched for writability and
//! asked [`connect_finished`] on each event, then installed as a
//! connection like an accepted one.
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
use crate::{connect_finished, connect_nonblocking, connects_in_flight};

// Token layout: 2 kind bits over the slab key's 62.
const KIND_SHIFT: u32 = 62;
const KIND_CONN: u64 = 0;
const KIND_LISTENER: u64 = 1;
const KIND_UDP: u64 = 2;
const KIND_DIAL: u64 = 3;

/// The largest sent body a connection keeps to read its next into.
const KEEP_SPARE: usize = 4096;

/// Per-connection outbound backlog bound: a connection whose unflushed
/// frames would pass it is closed ("outbound backlog exceeded").
const WRITE_BUFFER_CAP: usize = 8 << 20;

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
/// (cloning the `Arc`) when a delay must be simulated. A receive that
/// fails (on a connected socket: the peer refused an earlier datagram)
/// is handed over as an empty datagram from the unspecified address.
pub type UdpHandler = Box<dyn FnMut(&[u8], SocketAddr, &Arc<UdpSocket>, &Handle) + Send>;

type OnceFn = Box<dyn FnOnce(&Handle) + Send>;
type RepeatFn = Box<dyn FnMut(&Handle) + Send>;

enum Cmd {
    AddListener(TcpListener, AcceptFactory),
    AddUdp(UdpSocket, UdpHandler),
    RemoveUdp(RawFd),
    AddConn(Box<dyn Source>, Box<dyn Conn>),
    Dial(TcpStream, Duration, Box<dyn Conn>),
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
            read_progress_timeout: Duration::from_secs(30),
            portable: portable_default(),
        }
    }
}

struct HandleInner {
    senders: Vec<Sender<Cmd>>,
    wakers: Vec<Waker>,
    rr: AtomicUsize,
    shutdown: AtomicBool,
    pool: BlockingPool,
    /// Connections open across every loop.
    conns: AtomicUsize,
    /// Bytes buffered for write across every connection.
    write_bytes: AtomicUsize,
}

impl HandleInner {
    /// Applies one connection's buffered-write change (`before` →
    /// `after` pending bytes) to the aggregate.
    fn note_write_delta(&self, before: usize, after: usize) {
        if after > before {
            self.write_bytes
                .fetch_add(after - before, Ordering::Relaxed);
        } else {
            self.write_bytes
                .fetch_sub(before - after, Ordering::Relaxed);
        }
    }
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

    /// Queues `cmd` for loop `idx`, waking it — unless this is that
    /// loop's own thread, which drains its queue before it next waits.
    fn send_to(&self, idx: usize, cmd: Cmd) {
        let own = ON_LOOP.get() == Some((Arc::as_ptr(&self.inner).addr(), idx));
        if self.inner.senders[idx].send(cmd).is_ok() && !own {
            self.inner.wakers[idx].wake();
        }
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
        self.inner.conns.load(Ordering::Relaxed)
    }

    /// Aggregate bytes currently buffered for write across every
    /// connection (reactor-side backlog only, not kernel buffers).
    #[must_use]
    pub fn buffered_write_bytes(&self) -> usize {
        self.inner.write_bytes.load(Ordering::Relaxed)
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

    /// Takes the UDP socket whose descriptor is `fd` off its loop and
    /// closes it; its handler runs no more. Call it once per socket, and
    /// add no UDP socket from another thread meanwhile: once this one is
    /// closed, `fd` may name the next.
    pub fn remove_udp(&self, fd: RawFd) {
        for idx in 0..self.inner.senders.len() {
            self.send_to(idx, Cmd::RemoveUdp(fd));
        }
    }

    /// Adopts an established source (must already be non-blocking) with
    /// its state machine; `on_connected` fires once registered.
    pub fn add_source(&self, io: Box<dyn Source>, conn: Box<dyn Conn>) {
        self.send_to(self.next_loop(), Cmd::AddConn(io, conn));
    }

    /// Starts an outbound TCP connect with [`connect_nonblocking`], which
    /// a loop finishes with [`connect_finished`] whichever poller it
    /// runs; an address that call would block on (IPv6, off the syscall
    /// shim) is dialled on a pool thread. Either way exactly one of
    /// `on_connected` or `on_close(Some(err))` eventually fires on
    /// `conn`, the latter at the latest once `timeout` has passed.
    pub fn connect(&self, addr: SocketAddr, timeout: Duration, conn: Box<dyn Conn>) {
        let idx = self.next_loop();
        let handle = self.clone();
        let dial = move || {
            let cmd = match connect_nonblocking(addr, timeout) {
                Ok((stream, _)) => Cmd::Dial(stream, timeout, conn),
                Err(e) => Cmd::ConnectFailed(conn, e),
            };
            handle.send_to(idx, cmd);
        };
        if connects_in_flight(&addr) {
            dial();
        } else {
            self.inner.pool.spawn(dial);
        }
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

    /// Runs `f` on a loop thread after `delay`; a zero delay runs it as
    /// soon as the loop takes the command, not at the next tick.
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
                pool: BlockingPool::new(256),
                conns: AtomicUsize::new(0),
                write_bytes: AtomicUsize::new(0),
            }),
        };
        let mut threads = Vec::with_capacity(n);
        for (idx, (poller, cmds)) in pollers.into_iter().zip(receivers).enumerate() {
            let el = EventLoop {
                idx,
                poller,
                wheel: TimerWheel::new(),
                conns: Slab::new(),
                dials: Slab::new(),
                listeners: Slab::new(),
                udps: Slab::new(),
                cmds,
                handle: handle.clone(),
                epoch: Instant::now(),
                scratch: vec![0u8; READ_CHUNK].into_boxed_slice(),
                actions: Vec::new(),
                stall_timeout: config.write_stall_timeout,
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

/// An outbound connect in flight, watched for writability under a
/// [`KIND_DIAL`] token. It has no [`ConnId`] yet: its `Conn` hears
/// nothing before `on_connected` or `on_close`.
struct Dial {
    stream: TcpStream,
    conn: Box<dyn Conn>,
    /// The connect's deadline on the wheel, cancelled when it ends.
    deadline: Option<TimerKey>,
}

struct Connection {
    io: Box<dyn Source>,
    conn: Box<dyn Conn>,
    reader: FrameReader,
    writer: WriteBuf,
    /// The last body this connection sent, which its next frame is
    /// read into: a handler that answers in the request's buffer makes
    /// a frame cost no allocation.
    spare: Vec<u8>,
    /// Frames parsed but not yet dispatched (non-empty only while
    /// paused or when a handler closed the connection mid-batch).
    inbox: VecDeque<Vec<u8>>,
    interest: Interest,
    paused: bool,
    closing: bool,
    timer: Option<TimerKey>,
    stall: Option<TimerKey>,
    /// Slow-read (slow-loris) deadline; armed while a partially
    /// received frame is pending, reset whenever a frame completes.
    progress: Option<TimerKey>,
}

enum TimerTask {
    ConnTimer(Key),
    WriteStall(Key),
    /// Slow-read deadline: a partial frame must have completed by now.
    ReadProgress(Key),
    /// A listener parked on a full fd table re-checks whether it can
    /// accept again.
    AcceptRetry(Key),
    /// A dial's deadline, cancelled when the dial ends first: a
    /// client's probe rounds dial thousands a second.
    DialTimeout(Key),
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
    dials: Slab<Dial>,
    listeners: Slab<ListenerEntry>,
    udps: Slab<(Arc<UdpSocket>, UdpHandler)>,
    cmds: Receiver<Cmd>,
    handle: Handle,
    epoch: Instant,
    /// Every stream read and datagram receive on this loop lands here
    /// first; only the bytes received are copied on. Sized to the UDP
    /// payload ceiling, so no datagram arrives truncated.
    scratch: Box<[u8]>,
    /// What each [`ConnCtx`] buffers its actions in, lent to one
    /// callback at a time and emptied before the next.
    actions: Vec<CtxAction>,
    stall_timeout: Duration,
    progress_timeout: Duration,
}

thread_local! {
    /// The loop this thread runs, if any: its reactor and its index.
    static ON_LOOP: std::cell::Cell<Option<(usize, usize)>> = const { std::cell::Cell::new(None) };
}

/// Cap on poll sleep so loops periodically notice external state even
/// with an empty wheel.
const MAX_POLL: Duration = Duration::from_millis(500);

/// Bound on consecutive reads per readiness event, for fairness across
/// connections (level-triggered polling re-reports leftover data).
const MAX_FILLS_PER_EVENT: usize = 16;

/// How often a parked listener re-checks the fd table.
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
        ON_LOOP.set(Some((Arc::as_ptr(&self.handle.inner).addr(), self.idx)));
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
        // shared counts still settle, for anyone holding the handle).
        let inner = &self.handle.inner;
        inner.conns.fetch_sub(self.conns.len(), Ordering::Relaxed);
        for c in self.conns.drain() {
            inner.note_write_delta(c.writer.pending(), 0);
        }
        self.dials.drain();
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
            Cmd::RemoveUdp(fd) => {
                let owned = |key: &Key| self.udps.get(*key).map(|u| u.0.as_raw_fd()) == Some(fd);
                if let Some(key) = self.udps.keys().into_iter().find(owned) {
                    let _ = self.poller.deregister(fd, token(KIND_UDP, key));
                    self.udps.remove(key);
                }
            }
            Cmd::AddConn(io, conn) => self.install_conn(io, conn),
            Cmd::Dial(stream, timeout, conn) => self.start_dial(stream, timeout, conn),
            Cmd::ConnectFailed(mut conn, err) => conn.on_close(Some(&err), &self.handle),
            Cmd::Send(key, body) => self.queue_frame(key, body),
            Cmd::Resume(key) => self.resume(key),
            Cmd::Close(key) => self.request_close(key),
            Cmd::TimerOnce(delay, f) if delay.is_zero() => f(&self.handle),
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

    /// `false` (and `conn` told so) once the loop is about to tear down:
    /// nothing new is registered into it.
    fn admit(&self, conn: &mut dyn Conn) -> bool {
        let open = !self.handle.is_shutdown();
        if !open {
            conn.on_close(Some(&io::Error::other("reactor shut down")), &self.handle);
        }
        open
    }

    fn install_conn(&mut self, io: Box<dyn Source>, mut conn: Box<dyn Conn>) {
        if !self.admit(&mut *conn) {
            return;
        }
        let fd = io.raw_fd();
        let key = self.conns.insert(Connection {
            io,
            conn,
            reader: FrameReader::new(),
            writer: WriteBuf::new(WRITE_BUFFER_CAP),
            spare: Vec::new(),
            inbox: VecDeque::new(),
            interest: Interest::READ,
            paused: false,
            closing: false,
            timer: None,
            stall: None,
            progress: None,
        });
        if let Err(e) = self
            .poller
            .register(fd, token(KIND_CONN, key), Interest::READ)
        {
            if let Some(mut c) = self.conns.remove(key) {
                c.conn.on_close(Some(&e), &self.handle);
            }
            return;
        }
        self.handle.inner.conns.fetch_add(1, Ordering::Relaxed);
        self.fire_connected(key);
    }

    fn start_dial(&mut self, stream: TcpStream, timeout: Duration, mut conn: Box<dyn Conn>) {
        if !self.admit(&mut *conn) {
            return;
        }
        let fd = stream.as_raw_fd();
        let deadline = None;
        let key = self.dials.insert(Dial {
            stream,
            conn,
            deadline,
        });
        if let Err(e) = self
            .poller
            .register(fd, token(KIND_DIAL, key), Interest::WRITE)
        {
            return self.end_dial(key, Err(e));
        }
        let timer = self
            .wheel
            .insert(self.deadline(timeout), TimerTask::DialTimeout(key));
        if let Some(dial) = self.dials.get_mut(key) {
            dial.deadline = Some(timer);
        }
    }

    /// The dial's stream reported writable: is the connect done?
    fn dial_ready(&mut self, key: Key) {
        match self.dials.get(key).map(|d| connect_finished(&d.stream)) {
            Some(Ok(true)) => self.end_dial(key, Ok(())),
            Some(Err(e)) => self.end_dial(key, Err(e)),
            // Readiness reported early, or a dial already ended.
            Some(Ok(false)) | None => {}
        }
    }

    /// Takes the dial off the poller: a connected stream becomes a
    /// connection, a failed one closes its `Conn`.
    fn end_dial(&mut self, key: Key, outcome: io::Result<()>) {
        let Some(Dial {
            stream,
            mut conn,
            deadline,
        }) = self.dials.remove(key)
        else {
            return;
        };
        if let Some(timer) = deadline {
            self.wheel.cancel(timer);
        }
        let _ = self
            .poller
            .deregister(stream.as_raw_fd(), token(KIND_DIAL, key));
        match outcome {
            Ok(()) => self.install_conn(Box::new(stream), conn),
            Err(e) => conn.on_close(Some(&e), &self.handle),
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
            actions: std::mem::take(&mut self.actions),
        };
        if let Some(c) = self.conns.get_mut(key) {
            f(&mut *c.conn, &mut ctx);
            self.apply_actions(key, &mut ctx.actions);
        }
        self.actions = ctx.actions;
    }

    fn fire_connected(&mut self, key: Key) {
        self.with_conn(key, |conn, ctx| conn.on_connected(ctx));
    }

    fn apply_actions(&mut self, key: Key, actions: &mut Vec<CtxAction>) {
        for action in actions.drain(..) {
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
            if body.capacity() <= KEEP_SPARE {
                c.spare = body;
            }
            (overflow, before, c.writer.pending())
        };
        self.handle.inner.note_write_delta(before, after);
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
            let dst: &mut dyn Write = &mut *c.io;
            let before = c.writer.pending();
            let outcome = c.writer.write_to(dst);
            (outcome, before, c.writer.pending())
        };
        self.handle.inner.note_write_delta(before, after);
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
                if c.closing {
                    return;
                }
                let src: &mut dyn Read = &mut *c.io;
                c.reader.fill_via(src, &mut self.scratch)
            };
            match fill {
                Ok(Fill::Bytes(n)) => {
                    let defect = {
                        let Some(c) = self.conns.get_mut(key) else {
                            return;
                        };
                        loop {
                            match c.reader.pop_frame(&mut c.spare) {
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
            c.writer.is_empty()
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
        let _ = self.poller.deregister(c.io.raw_fd(), token(KIND_CONN, key));
        for tk in [c.timer.take(), c.stall.take(), c.progress.take()]
            .into_iter()
            .flatten()
        {
            self.wheel.cancel(tk);
        }
        let inner = &self.handle.inner;
        inner.note_write_delta(c.writer.pending(), 0);
        inner.conns.fetch_sub(1, Ordering::Relaxed);
        c.conn.on_close(err.as_ref(), &self.handle);
        // The fd closes when `c.io` drops here.
    }

    fn update_interest(&mut self, key: Key) {
        let Some(c) = self.conns.get_mut(key) else {
            return;
        };
        let want = Interest {
            readable: !c.paused && !c.closing,
            writable: !c.writer.is_empty(),
        };
        if want != c.interest
            && self
                .poller
                .reregister(c.io.raw_fd(), token(KIND_CONN, key), want)
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
            KIND_DIAL => self.dial_ready(key),
            KIND_CONN => {
                if ev.readable || ev.closed {
                    self.read_ready(key, ev.closed);
                }
                if ev.writable && self.conns.get(key).is_some() {
                    self.flush_conn(key);
                }
            }
            _ => {}
        }
    }

    fn accept_ready(&mut self, key: Key) {
        loop {
            if self.listeners.get(key).map(|l| l.paused) != Some(false) {
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
                        self.pause_accept(key);
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
    /// to re-check the fd table shortly. Exactly one retry timer is
    /// outstanding per parked listener.
    fn pause_accept(&mut self, key: Key) {
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
        eprintln!("armada-reactor: accept paused on loop {}: fd table exhausted (EMFILE/ENFILE); retrying every {}ms until a connection closes", self.idx, ACCEPT_RETRY.as_millis());
        let deadline = self.deadline(ACCEPT_RETRY);
        self.wheel.insert(deadline, TimerTask::AcceptRetry(key));
    }

    /// Serves up to [`MAX_FILLS_PER_EVENT`] datagrams: a socket that is
    /// fed faster than its handler runs must not starve the loop's other
    /// sources and timers (polling is level-triggered: what is left
    /// raises the next event).
    fn udp_ready(&mut self, key: Key) {
        for _ in 0..MAX_FILLS_PER_EVENT {
            let (n, peer, socket) = {
                let Some((socket, _)) = self.udps.get_mut(key) else {
                    return;
                };
                match socket.recv_from(&mut self.scratch) {
                    Ok((n, peer)) => (n, peer, Arc::clone(socket)),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => (0, SocketAddr::from(([0, 0, 0, 0], 0)), Arc::clone(socket)),
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
            TimerTask::DialTimeout(key) => {
                let timed_out = io::Error::new(io::ErrorKind::TimedOut, "connect timed out");
                self.end_dial(key, Err(timed_out));
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
