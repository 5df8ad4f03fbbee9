//! The live client: a driver around one [`EdgeClient`], the Algorithm 2
//! core the simulator drives in virtual time. The core decides
//! everything — rounds, ranking, stay-or-switch, backups, pacing, the
//! manager route walk under its breakers, degraded mode, when to go back
//! to discovery and when to give up — and writes its own events; this
//! file owns I/O only.
//!
//! Every session of every client in the process runs on one
//! single-thread `armada_reactor::Reactor`, started by the first. A
//! session is an `async` state machine written as its exchanges follow
//! one another; the loop polls it after each event for its client (a
//! connection's callback, a UDP reply, the timer armed for the earliest
//! deadline it waits on), so nothing blocks or sleeps. A caller crosses
//! into the loop once per session, and the report crosses back once.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::future::{poll_fn, Future};
use std::io::{self, ErrorKind};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, UdpSocket};
use std::os::fd::{AsRawFd, RawFd};
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

use armada_client::{
    ClientDecision, EdgeClient, JoinFollowup, ManagerReply, Narrator, ProbeResult, Verdict,
    PROBE_TIMEOUT,
};
use armada_reactor::{Conn, ConnCtx, ConnId, Handle, Reactor, ReactorConfig};
use armada_trace::{s, u, Severity, Tracer};
use armada_types::{ClientConfig, GeoPoint, NodeId, SimDuration, SimTime, UserId};
use armada_wire::{decode_response, Request, Response, WireConfig};

/// A transport timeout: every protocol exchange (probes aside) gives up
/// after this long — a silent peer is a dead peer.
pub(crate) const RPC_TIMEOUT: Duration = Duration::from_secs(5);

/// A transport timeout: the connect/reply budget of a discovery once the
/// session has attached. Kept far below [`RPC_TIMEOUT`] so a black-holed
/// manager cannot stall the frame loop for the full RPC budget every
/// probing period.
const REFRESH_TIMEOUT: Duration = Duration::from_millis(500);

/// What a [`LiveClient`] session measured.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// Node that served the final frame.
    pub final_node: u64,
    /// The node the session's first join attached to.
    pub initial_node: u64,
    /// Per-frame end-to-end latencies, in send order.
    pub latencies: Vec<Duration>,
    /// The probing outcomes of the round whose join first attached the
    /// session: `(node_id, rtt, whatif_µs)`.
    pub probed: Vec<(u64, Duration, u64)>,
    /// Failovers to a backup performed mid-session.
    pub failovers: u64,
    /// Voluntary switches to a better-performing node (periodic
    /// re-probing found one).
    pub switches: u64,
}

impl SessionReport {
    /// Mean end-to-end frame latency.
    pub fn mean_latency(&self) -> Option<Duration> {
        if self.latencies.is_empty() {
            return None;
        }
        let total: Duration = self.latencies.iter().sum();
        Some(total / self.latencies.len() as u32)
    }
}

/// A session started by [`LiveClient::start_session`]: the report it
/// hands back once it ends.
#[derive(Debug)]
pub struct PendingSession(Receiver<io::Result<SessionReport>>);

impl PendingSession {
    /// Waits for the session to end.
    ///
    /// # Errors
    ///
    /// As [`LiveClient::run_session_any`]; also fails, at once, if the
    /// event loop running the session has stopped.
    pub fn wait(self) -> io::Result<SessionReport> {
        let stopped = || Err(io::Error::other("the client event loop stopped"));
        self.0.recv().unwrap_or_else(|_| stopped())
    }
}

/// One live application user.
///
/// See the crate-level documentation and the workspace
/// `examples/live_cluster.rs` for end-to-end usage.
#[derive(Debug, Clone)]
pub struct LiveClient {
    id: u64,
    tracer: Tracer,
    /// Shared by clones and sessions; locked per step, never across a
    /// wait.
    shared: Arc<Mutex<Shared>>,
    /// Outbound codec and probe-backend selection.
    wire: WireConfig,
}

impl LiveClient {
    /// Creates a client.
    pub fn new(id: u64, location: GeoPoint, config: ClientConfig) -> Self {
        LiveClient {
            id,
            tracer: Tracer::disabled(),
            shared: Arc::new(Mutex::new(Shared {
                core: EdgeClient::new(UserId::new(id), location, config),
                epoch: Instant::now(),
                addresses: HashMap::new(),
                links: HashMap::new(),
                conns: HashMap::new(),
                udps: HashMap::new(),
                serials: 0,
                outbox: Vec::new(),
                spare: Vec::new(),
                task: None,
                queue: VecDeque::new(),
                deadline: None,
                armed: Vec::new(),
            })),
            wire: WireConfig::default(),
        }
    }

    /// Attaches a structured-event tracer; events are stamped with
    /// wall-clock microseconds since the tracer was created.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Overrides the wire configuration (outbound codec, probe
    /// backend); [`LiveClient::new`] starts from its default, binary
    /// bodies and UDP probes.
    pub fn with_wire(mut self, wire: WireConfig) -> Self {
        self.wire = wire;
        self
    }

    /// This client's identity.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// `true` while discovery is being served from the stale cached
    /// candidate list because every manager is unreachable or
    /// breaker-gated.
    pub fn is_degraded(&self) -> bool {
        lock(&self.shared).core.is_degraded()
    }

    /// Total circuit-breaker state transitions across all managers.
    pub fn breaker_transitions(&self) -> u64 {
        lock(&self.shared).core.breaker_transitions()
    }

    /// Runs one full session: discovery → concurrent probing → ranked
    /// join → stream `frames` frames (re-probing every `T_probing`,
    /// failing over to warm backups) → leave.
    ///
    /// # Errors
    ///
    /// Fails if the manager is unreachable, no candidate can be probed,
    /// or every candidate dies mid-session.
    pub fn run_session(&self, manager: SocketAddr, frames: usize) -> io::Result<SessionReport> {
        self.run_session_any(&[manager], frames)
    }

    /// [`LiveClient::run_session`] against a federated manager tier:
    /// `managers` is the client's shard route order (home first), and
    /// discovery falls over to the next manager when one is dead.
    ///
    /// # Errors
    ///
    /// Fails if every manager is unreachable, no candidate can be
    /// probed, or every candidate dies mid-session.
    pub fn run_session_any(
        &self,
        managers: &[SocketAddr],
        frames: usize,
    ) -> io::Result<SessionReport> {
        self.start_session(managers, frames).wait()
    }

    /// [`LiveClient::run_session_any`] without the wait: the session is
    /// handed to the process's client event loop, and this returns at
    /// once. A client's sessions run one after another, in the order
    /// they were started.
    pub fn start_session(&self, managers: &[SocketAddr], frames: usize) -> PendingSession {
        match client_loop() {
            Ok(handle) => self.start_on(&handle, managers, frames, wall(PROBE_TIMEOUT)),
            Err(e) => {
                let (tx, rx) = mpsc::channel();
                let _ = tx.send(Err(e));
                PendingSession(rx)
            }
        }
    }

    /// Starts a session on `handle`'s loop; `budget` bounds each probe's
    /// connect and in-stream exchange, half of it each UDP exchange.
    fn start_on(
        &self,
        handle: &Handle,
        managers: &[SocketAddr],
        frames: usize,
        budget: Duration,
    ) -> PendingSession {
        static KEYS: AtomicU64 = AtomicU64::new(0);
        let (key, (tx, rx)) = (KEYS.fetch_add(1, Ordering::Relaxed), mpsc::channel());
        let io = Io {
            client: Arc::clone(&self.shared),
            handle: handle.clone(),
            epoch: lock(&self.shared).epoch,
            user: self.id,
            wire: self.wire,
            tracer: self.tracer.clone(),
            budget,
        };
        let managers = managers.to_vec();
        let session: Task = Box::pin(async move {
            let report = io.session(&managers, frames).await;
            // However it ended: streams closed, attachment and retry dropped.
            io.sweep(&Streams::new());
            io.lock().core.detach();
            if let Some(reply) = REPLIES.with_borrow_mut(|replies| replies.remove(&key)) {
                let _ = reply.send(report);
            }
        });
        let client = Arc::clone(&self.shared);
        handle.timer_after(Duration::ZERO, move |handle| {
            REPLIES.with_borrow_mut(|replies| replies.insert(key, tx));
            lock(&client).queue.push_back(session);
            poll(&client, handle, None);
        });
        PendingSession(rx)
    }
}

thread_local! {
    /// Where each session on this loop thread sends its report: a loop
    /// that dies drops them, so no caller waits for a report forever.
    static REPLIES: RefCell<HashMap<u64, Sender<io::Result<SessionReport>>>> =
        RefCell::new(HashMap::new());
}

/// The process's client event loop, started by the first session.
fn client_loop() -> io::Result<Handle> {
    static LOOP: Mutex<Option<Reactor>> = Mutex::new(None);
    let mut slot = LOOP.lock().unwrap_or_else(PoisonError::into_inner);
    if slot.is_none() {
        let one = ReactorConfig {
            threads: 1,
            ..ReactorConfig::default()
        };
        *slot = Some(Reactor::new(one)?);
    }
    Ok(slot.as_ref().expect("started above").handle().clone())
}

/// The core's durations on the wall clock.
fn wall(d: SimDuration) -> Duration {
    Duration::from_micros(d.as_micros())
}

/// A wall duration as the core's.
fn sim(d: Duration) -> SimDuration {
    SimDuration::from_micros(d.as_micros() as u64)
}

fn lock(client: &Mutex<Shared>) -> MutexGuard<'_, Shared> {
    client.lock().expect("a session panicked mid-step")
}

fn protocol_error(message: &str) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, message)
}

/// The node streaming this session, or the error that sends the
/// attempt back to edge discovery.
fn serving_node(core: &EdgeClient) -> io::Result<u64> {
    core.current_node()
        .map(NodeId::as_u64)
        .ok_or_else(|| protocol_error("no node is serving: re-discover"))
}

type Task = Pin<Box<dyn Future<Output = ()> + Send>>;

/// What a client's sessions share: the core and its address book, the
/// connections and what they heard, the sessions and their timers.
struct Shared {
    core: EdgeClient,
    /// The wall instant of the core's `SimTime::ZERO`.
    epoch: Instant,
    addresses: HashMap<u64, String>,
    /// The serial of the link held to each manager.
    links: HashMap<SocketAddr, u64>,
    conns: HashMap<u64, Link>,
    udps: HashMap<RawFd, Leg>,
    serials: u64,
    outbox: Vec<(ConnId, Vec<u8>)>,
    /// A spent reply's buffer, which the next request is encoded into.
    spare: Vec<u8>,
    task: Option<Task>,
    queue: VecDeque<Task>,
    /// The earliest instant a pending wait names.
    deadline: Option<Instant>,
    /// The due times of the loop timers armed and not yet fired.
    armed: Vec<Instant>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared").finish_non_exhaustive()
    }
}

/// A connection and what it reported.
#[derive(Debug, Default)]
struct Link {
    /// A node stream, not a manager link.
    node: bool,
    /// `None` while the connect is in flight.
    conn: Option<ConnId>,
    /// The reply not read yet; `Some(None)` if it did not decode.
    inbox: Option<Option<Response>>,
    /// Closed; `Some(true)` if by the peer (end, reset, broken pipe).
    closed: Option<bool>,
}

/// A probe's UDP leg: its socket once the loop has named it, and the
/// reply not read yet (`Some(None)` for a failed receive or decode).
#[derive(Debug, Default)]
struct Leg {
    socket: Option<Arc<UdpSocket>>,
    inbox: Option<Option<Response>>,
}

/// Polls `client`'s session after an event (and the next once one
/// ends); what it sent leaves through `here` when that is its
/// connection. A timer is armed for the earliest deadline a wait names,
/// unless one fires by then already; each wait reads the clock itself.
fn poll(client: &Arc<Mutex<Shared>>, handle: &Handle, mut here: Option<(ConnId, &mut ConnCtx)>) {
    let mut shared = lock(client);
    while let Some(mut task) = shared.task.take().or_else(|| shared.queue.pop_front()) {
        shared.deadline = None;
        drop(shared);
        let cx = &mut Context::from_waker(Waker::noop());
        let pending = task.as_mut().poll(cx).is_pending();
        shared = lock(client);
        if pending {
            shared.task = Some(task);
            break;
        }
    }
    for (conn, body) in shared.outbox.drain(..) {
        match &mut here {
            Some((at, ctx)) if *at == conn => ctx.send(body),
            _ => handle.send(conn, body),
        }
    }
    let due = shared
        .deadline
        .filter(|&due| shared.armed.iter().all(|&at| at > due));
    let Some(due) = due else { return };
    shared.armed.push(due);
    let (client, wait) = (
        Arc::clone(client),
        due.saturating_duration_since(Instant::now()),
    );
    handle.timer_after(wait, move |handle| {
        lock(&client).armed.retain(|&at| at != due);
        poll(&client, handle, None);
    });
}

/// The reactor's side of a client connection: each callback records
/// what it saw and polls the session.
struct ClientConn {
    client: Arc<Mutex<Shared>>,
    serial: u64,
}

impl ClientConn {
    /// Hands the connection's record (and the spare buffer) to `note`,
    /// then polls; a record given up on closes the connection instead.
    fn event(
        &self,
        handle: &Handle,
        ctx: Option<&mut ConnCtx>,
        note: impl FnOnce(&mut Link, &mut Vec<u8>),
    ) {
        let mut shared = lock(&self.client);
        let Shared { conns, spare, .. } = &mut *shared;
        let Some(link) = conns.get_mut(&self.serial) else {
            return ctx.into_iter().for_each(ConnCtx::close);
        };
        note(link, spare);
        drop(shared);
        poll(&self.client, handle, ctx.map(|ctx| (ctx.conn_id(), ctx)));
    }
}

impl Conn for ClientConn {
    fn on_connected(&mut self, ctx: &mut ConnCtx) {
        let (handle, conn) = (ctx.handle().clone(), ctx.conn_id());
        self.event(&handle, Some(ctx), |link, _| link.conn = Some(conn));
    }

    fn on_frame(&mut self, frame: Vec<u8>, ctx: &mut ConnCtx) {
        let reply = decode_response(&frame).ok().map(|(response, _)| response);
        self.event(&ctx.handle().clone(), Some(ctx), |link, spare| {
            (link.inbox, *spare) = (Some(reply), frame);
        });
    }

    fn on_close(&mut self, err: Option<&io::Error>, handle: &Handle) {
        use ErrorKind::{BrokenPipe, ConnectionReset, UnexpectedEof};
        let closed = [UnexpectedEof, ConnectionReset, BrokenPipe];
        let by_peer = err.is_none_or(|e| closed.contains(&e.kind()));
        self.event(handle, None, |link, _| link.closed = Some(by_peer));
    }
}

/// What a session runs with.
struct Io {
    client: Arc<Mutex<Shared>>,
    handle: Handle,
    epoch: Instant,
    user: u64,
    wire: WireConfig,
    tracer: Tracer,
    /// What bounds each probe exchange (see [`LiveClient::start_on`]).
    budget: Duration,
}

/// The plumbing: a wait resolves with what its check finds, or `None`.
impl Io {
    fn lock(&self) -> MutexGuard<'_, Shared> {
        lock(&self.client)
    }

    /// The core's clock: wall microseconds since the epoch, viewed as a
    /// simulated timestamp (the core is clock-agnostic).
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    /// The core's events, stamped with the tracer's wall clock.
    fn narrator(&self) -> Narrator<'_> {
        Narrator::at(&self.tracer, self.tracer.now_us())
    }

    /// One step of the core, now, its events narrated.
    fn core<T>(&self, step: impl FnOnce(&mut EdgeClient, SimTime, Narrator) -> T) -> T {
        step(&mut self.lock().core, self.now(), self.narrator())
    }

    fn wait<'a, T>(
        &'a self,
        until: Instant,
        mut check: impl FnMut(&mut Shared) -> Option<T> + 'a,
    ) -> impl Future<Output = Option<T>> + 'a {
        poll_fn(move |_| {
            let mut shared = self.lock();
            if let Some(found) = check(&mut shared) {
                return Poll::Ready(Some(found));
            }
            if Instant::now() >= until {
                return Poll::Ready(None);
            }
            shared.deadline = Some(shared.deadline.map_or(until, |due| due.min(until)));
            Poll::Pending
        })
    }

    async fn sleep(&self, pause: Duration) {
        self.wait(Instant::now() + pause, |_| None::<()>).await;
    }

    /// Dials `addr` within `timeout`; returns the connection's serial.
    fn dial(&self, addr: SocketAddr, node: bool, timeout: Duration) -> u64 {
        let mut shared = self.lock();
        shared.serials += 1;
        let (serial, mut link) = (shared.serials, Link::default());
        link.node = node;
        shared.conns.insert(serial, link);
        let client = Arc::clone(&self.client);
        self.handle
            .connect(addr, timeout, Box::new(ClientConn { client, serial }));
        serial
    }

    /// Whether connection `serial` comes up within `timeout`.
    async fn connected(&self, serial: u64, timeout: Duration) -> bool {
        let up = self.wait(Instant::now() + timeout, |shared| {
            let link = shared.conns.get(&serial)?;
            link.closed.map(|_| false).or(link.conn.map(|_| true))
        });
        up.await == Some(true)
    }

    /// Closes connection `serial` and forgets it.
    fn forget(&self, serial: u64) {
        let mut shared = self.lock();
        if let Some(conn) = shared.conns.remove(&serial).and_then(|link| link.conn) {
            self.handle.close(conn);
        }
        shared.links.retain(|_, held| *held != serial);
    }

    /// Queues `request` on connection `serial`; `Err` if it is not up,
    /// saying whether the peer closed it.
    fn send(&self, serial: u64, request: &Request) -> Result<(), Option<bool>> {
        let mut guard = self.lock();
        let shared = &mut *guard;
        let link = shared.conns.get(&serial);
        let (Some(conn), None) = link.map_or((None, None), |l| (l.conn, l.closed)) else {
            return Err(link.and_then(|l| l.closed));
        };
        let mut body = std::mem::take(&mut shared.spare);
        body.clear();
        self.wire.codec.encode_request_into(request, &mut body);
        shared.outbox.push((conn, body));
        Ok(())
    }

    /// One exchange on connection `serial` within `timeout`. One that
    /// fails is forgotten — a late reply must never be taken for the
    /// next answer — and the error says whether the peer closed it.
    async fn call(
        &self,
        serial: u64,
        request: &Request,
        timeout: Duration,
    ) -> Result<Response, Option<bool>> {
        let heard = match self.send(serial, request) {
            Ok(()) => self.wait(Instant::now() + timeout, |shared| {
                let link = shared.conns.get_mut(&serial)?;
                let reply = link.inbox.take().map(|reply| reply.ok_or(None));
                reply.or(link.closed.map(|by_peer| Err(Some(by_peer))))
            }),
            Err(closed) => return self.fail(serial, closed),
        };
        match heard.await {
            Some(Ok(reply)) => Ok(reply),
            late => self.fail(serial, late.and_then(Result::err).flatten()),
        }
    }

    fn fail<T>(&self, serial: u64, closed: Option<bool>) -> Result<T, Option<bool>> {
        self.forget(serial);
        Err(closed)
    }

    /// One exchange with `node` over its stream in `conns`.
    async fn exchange(
        &self,
        conns: &mut Streams,
        node: u64,
        request: &Request,
    ) -> Option<Response> {
        let serial = *conns.get(&node)?;
        let reply = self.call(serial, request, RPC_TIMEOUT).await;
        if reply.is_err() {
            conns.remove(&node);
        }
        reply.ok()
    }

    /// Closes each node stream `conns` lacks; retires every UDP leg.
    fn sweep(&self, conns: &Streams) {
        let mut guard = self.lock();
        let shared = &mut *guard;
        shared.conns.retain(|serial, link| {
            let kept = !link.node || conns.values().any(|held| held == serial);
            if let (false, Some(conn)) = (kept, link.conn) {
                self.handle.close(conn);
            }
            kept
        });
        for (fd, _) in shared.udps.drain() {
            self.handle.remove_udp(fd);
        }
    }
}

/// A session's node streams: the serial of each node's.
type Streams = HashMap<u64, u64>;

/// The session: Algorithm 2 as the exchanges follow one another.
impl Io {
    /// Discover → probe → join → stream, each round when the core names
    /// it: `T_probing` after the last one ended, and at its retry
    /// (Algorithm 2, line 14), which a session with no node serving waits
    /// for. It fails with its last error once the core is out of tries.
    async fn session(&self, managers: &[SocketAddr], frames: usize) -> io::Result<SessionReport> {
        let (user, before, conns) = (self.user, self.lock().core.stats(), &mut Streams::new());
        let row = |r: &ProbeResult| (r.node.as_u64(), wall(r.rtt), r.whatif_proc.as_micros());
        let period = wall(self.lock().core.config().probing_period);
        // The first attachment: its node, and the probes of its round.
        let (mut first, mut round_ended) = (None, Instant::now());
        let mut latencies = Vec::with_capacity(frames);
        while first.is_none() || latencies.len() < frames {
            // One lock a frame: the next round's time (frames on a degraded
            // episode's cache keep the period) and the next frame's node.
            let (due, next) = {
                let core = &mut self.lock().core;
                let (serving, degraded) = (core.current_node(), core.is_degraded());
                let retry = core.retry_at().filter(|_| serving.is_none() || !degraded);
                let retry = retry.map(|at| self.epoch + Duration::from_micros(at.as_micros()));
                let due = retry
                    .into_iter()
                    .chain(serving.map(|_| round_ended + period));
                let due = due.min();
                let serving = serving.filter(|_| due.is_some_and(|due| Instant::now() < due));
                let next = serving.map(|node| (node.as_u64(), core.next_frame_seq()));
                (due, next)
            };
            let Some((serving, seq)) = next else {
                let wait = due.map(|due| due.saturating_duration_since(Instant::now()));
                self.sleep(wait.unwrap_or_default()).await;
                let timeout = first.as_ref().map_or(RPC_TIMEOUT, |_| REFRESH_TIMEOUT);
                let round = self.select(conns, managers, timeout).await;
                round_ended = Instant::now();
                let core = &self.lock().core;
                match (serving_node(core), round) {
                    (Ok(node), Ok(probed)) if first.is_none() => {
                        first = Some((node, probed.iter().map(row).collect()));
                    }
                    (Err(e), round) if core.out_of_tries() => return Err(round.err().unwrap_or(e)),
                    _ => {}
                }
                continue;
            };
            let frame = Request::Frame {
                user,
                seq,
                payload_len: 20_000,
            };
            let started = Instant::now();
            match self.exchange(conns, serving, &frame).await {
                Some(Response::FrameResult { .. }) => {
                    let elapsed = started.elapsed();
                    latencies.push(elapsed);
                    let pace = {
                        let core = &mut self.lock().core;
                        core.on_frame_latency(sim(elapsed), self.narrator());
                        wall(core.frame_interval())
                    };
                    if !pace.is_zero() {
                        self.sleep(pace).await;
                    }
                }
                other => {
                    // Shedding or dead, this node no longer serves us.
                    if matches!(other, Some(Response::Busy { .. })) {
                        self.core(|core, now, _| core.on_busy(NodeId::new(serving), now));
                    }
                    self.fail_over(conns, serving).await;
                }
            }
        }
        let (final_node, leave) = (serving_node(&self.lock().core)?, Request::Leave { user });
        let _ = self.exchange(conns, final_node, &leave).await;
        let (stats, (initial_node, probed)) = (self.lock().core.stats(), first.expect("attached"));
        Ok(SessionReport {
            final_node,
            initial_node,
            latencies,
            probed,
            failovers: stats.backup_failovers - before.backup_failovers,
            switches: stats.switches - before.switches,
        })
    }

    /// One pass of Algorithm 2, for every round of a session: discover,
    /// probe the round the core opens (none on an empty shortlist), carry
    /// out its decision. Returns the probes.
    async fn select(
        &self,
        conns: &mut Streams,
        managers: &[SocketAddr],
        timeout: Duration,
    ) -> io::Result<Vec<ProbeResult>> {
        // With every manager unreachable, the last-known candidate list:
        // mid-session, frames keep flowing through a manager partition.
        let shortlist = match self.discover(managers, timeout).await {
            Ok(shortlist) => shortlist,
            Err(e) => {
                let cached = self.lock().core.cached_shortlist().map(<[NodeId]>::to_vec);
                cached.ok_or(e)?
            }
        };
        // (The serving node is re-probed over its open connection.)
        let opened =
            self.core(|core, now, trace| core.start_probe_round(shortlist, |_| true, now, trace));
        let Some((round, nodes)) = opened else {
            return Ok(Vec::new());
        };
        let results = self.probe_round(conns, round, &nodes).await;
        // A re-discovery is the core's retry, which the session runs.
        let decision = self.core(|core, now, trace| core.conclude_probe_round(round, now, trace));
        let mut tried = None;
        if let Some(ClientDecision::AttemptJoin { target, seq }) = decision {
            tried = Some(target);
            let (node, join) = (
                target.as_u64(),
                Request::Join {
                    user: self.user,
                    seq,
                },
            );
            let reply = self.exchange(conns, node, &join).await;
            if matches!(reply, Some(Response::Busy { .. })) {
                self.core(|core, now, _| core.on_busy(target, now));
            }
            // Shed, dead mid-join or out of sequence: the join did not
            // happen, and only the first says anything about the node.
            let accepted = matches!(reply, Some(Response::JoinResult { accepted: true }));
            let followup =
                self.core(|core, now, trace| core.on_join_result(target, accepted, now, trace));
            if let JoinFollowup::SwitchComplete { leave: Some(left) } = followup {
                let leave = Request::Leave { user: self.user };
                let _ = self.exchange(conns, left.as_u64(), &leave).await;
            }
        }
        // Neither serving, nor a backup, nor (while none serves) the node
        // a join just failed at, to be re-probed: closed, so open sockets
        // stay ≤ TopN.
        let kept = {
            let core = &self.lock().core;
            let kept = |id: &u64| {
                let node = NodeId::new(*id);
                core.current_node().or(tried) == Some(node) || core.backups().contains(&node)
            };
            conns.keys().copied().filter(kept).collect::<Vec<_>>()
        };
        conns.retain(|id, _| kept.contains(id));
        self.sweep(conns);
        Ok(results)
    }

    /// Walks the manager route order (home first): the core picks each
    /// rank its breaker admits and says what the answer means; this asks,
    /// waits out the pauses and keeps the address book.
    async fn discover(
        &self,
        managers: &[SocketAddr],
        timeout: Duration,
    ) -> io::Result<Vec<NodeId>> {
        let request = {
            let core = &self.lock().core;
            Request::Discover {
                user: self.user,
                lat: core.location().lat(),
                lon: core.location().lon(),
                top_n: core.config().top_n,
            }
        };
        let mut from = 0;
        loop {
            let next =
                self.core(|core, now, trace| core.next_manager(from, managers.len(), now, trace));
            let Some(rank) = next else { break };
            let reply = match self.ask(managers[rank], &request, timeout).await {
                Ok(Response::Candidates { nodes }) => {
                    let ids = nodes.iter().map(|(id, _)| NodeId::new(*id)).collect();
                    if !nodes.is_empty() {
                        // (What the core's cached shortlist names.)
                        let addresses = &mut self.lock().addresses;
                        addresses.clear();
                        addresses.extend(nodes);
                    }
                    ManagerReply::Candidates(ids)
                }
                Ok(Response::Busy { retry_after_ms }) => ManagerReply::Busy { retry_after_ms },
                // Dead, unreachable, or answering something else.
                _ => ManagerReply::Unserved,
            };
            let verdict = self.core(|core, now, trace| core.on_discover(rank, reply, now, trace));
            match verdict {
                Verdict::Probe(shortlist) => return Ok(shortlist),
                Verdict::Next { pause } => self.sleep(wall(pause)).await,
            }
            from = rank + 1;
        }
        self.core(|core, now, trace| core.on_route_exhausted(now, trace));
        Err(protocol_error(
            "every manager is unreachable or breaker-gated",
        ))
    }

    /// One `request` over the link held to `manager`, dialled if there
    /// is none. A held link the manager closed (it restarted) is
    /// redialled once, so the manager is not counted as failed.
    async fn ask(
        &self,
        manager: SocketAddr,
        request: &Request,
        timeout: Duration,
    ) -> Result<Response, ()> {
        let held = self.lock().links.get(&manager).copied();
        if let Some(serial) = held {
            match self.call(serial, request, timeout).await {
                Err(Some(true)) => {}
                reply => return reply.map_err(drop),
            }
        }
        let serial = self.dial(manager, false, timeout);
        self.lock().links.insert(manager, serial);
        if !self.connected(serial, timeout).await {
            self.forget(serial);
            return Err(());
        }
        self.call(serial, request, timeout).await.map_err(drop)
    }

    /// The failure monitor (paper §IV-E): the core promotes the first
    /// backup whose warm connection answers `Unexpected_join` (which
    /// cannot be rejected, Table I); with none left, the session
    /// rediscovers at once.
    async fn fail_over(&self, conns: &mut Streams, failed: u64) {
        let (user, failed_node) = (UserId::new(self.user), Some(NodeId::new(failed)));
        self.narrator().failure(user, "proactive", failed_node);
        if let Some(serial) = conns.remove(&failed) {
            self.forget(serial);
        }
        let (at, takeover) = (self.now(), Request::UnexpectedJoin { user: self.user });
        let backups = self.lock().core.backups().to_vec();
        let mut alive = None;
        for backup in backups {
            let reply = self.exchange(conns, backup.as_u64(), &takeover).await;
            if matches!(reply, Some(Response::Ack)) {
                alive = Some(backup);
                break;
            }
            if let Some(serial) = conns.remove(&backup.as_u64()) {
                self.forget(serial);
            }
        }
        // The core pops the backups before `alive` as dead, exactly as
        // if it had asked each in turn.
        let decision = self.core(|core, _, _| core.on_node_failure(at, |b| Some(b) == alive));
        self.narrator().failover(user, failed_node, &decision);
    }
}

/// The probe round: every candidate is started before any is waited
/// for, so dead candidates cost a round one timeout, not one each, and
/// none costs more than the core's [`PROBE_TIMEOUT`], the round's end.
impl Io {
    /// The fan-out of the core's open round `round` over `nodes`. A
    /// candidate that answers keeps (or gets) its stream in `conns`; a
    /// silent one has lost it and is reported lost — the live analogue
    /// of a heartbeat gap.
    async fn probe_round(
        &self,
        conns: &mut Streams,
        round: u64,
        nodes: &[NodeId],
    ) -> Vec<ProbeResult> {
        let until = Instant::now() + wall(PROBE_TIMEOUT);
        let mut probes: Vec<_> = nodes
            .iter()
            .map(|node| {
                let (node, open) = (node.as_u64(), conns.remove(&node.as_u64()));
                let addr = self.lock().addresses.get(&node).cloned();
                Box::pin(self.probe(node, open, addr))
            })
            .collect();
        let mut outcomes = vec![None; probes.len()];
        poll_fn(|cx| {
            for (probe, outcome) in probes.iter_mut().zip(&mut outcomes) {
                if outcome.is_none() {
                    if let Poll::Ready(done) = probe.as_mut().poll(cx) {
                        *outcome = Some(done);
                    }
                }
            }
            if outcomes.iter().all(Option::is_some) || Instant::now() >= until {
                return Poll::Ready(());
            }
            let mut shared = self.lock();
            shared.deadline = Some(shared.deadline.map_or(until, |due| due.min(until)));
            Poll::Pending
        })
        .await;
        drop(probes);
        let now = self.now();
        let mut results = Vec::new();
        for (node, outcome) in nodes.iter().zip(outcomes) {
            let core = &mut self.lock().core;
            let Some((result, serial)) = outcome.flatten() else {
                core.on_probe_lost(round, *node, now);
                continue;
            };
            core.on_probe_reply(round, result);
            conns.insert(node.as_u64(), serial);
            results.push(result);
        }
        results
    }

    /// One candidate: re-probed over its `open` stream, or dialled at
    /// `addr` with the UDP leg beside the connect — no handshake, no
    /// Nagle: the RTT is the network's — which falls back in-stream on
    /// any failure. Its answer counts once its stream is up.
    async fn probe(
        &self,
        node: u64,
        open: Option<u64>,
        addr: Option<String>,
    ) -> Option<(ProbeResult, u64)> {
        if let Some(serial) = open {
            return Some((self.probe_stream(serial, node).await?, serial));
        }
        let addr = addr?.parse().ok()?;
        let serial = self.dial(addr, true, self.budget);
        let mut answer = None;
        if self.wire.udp_probes {
            match self.probe_udp(addr, node).await {
                Ok(result) => answer = Some(result),
                Err(reason) => {
                    let fields = || vec![("node", u(node)), ("reason", s(reason))];
                    self.tracer
                        .emit(Severity::Debug, "probe.udp.fallback", fields);
                }
            }
        }
        if !self.connected(serial, self.budget).await {
            return None;
        }
        let result = match answer {
            Some(result) => result,
            None => self.probe_stream(serial, node).await?,
        };
        Some((result, serial))
    }

    /// The RTT from the `RttProbe`'s send to the read of its pong, then
    /// the process probe, whose reply completes the result.
    async fn probe_stream(&self, serial: u64, node: u64) -> Option<ProbeResult> {
        let sent = Instant::now();
        let pong = self.call(serial, &Request::RttProbe, self.budget).await;
        let rtt = sent.elapsed();
        if !matches!(pong, Ok(Response::RttPong)) {
            return None;
        }
        let reply = self.call(serial, &Request::ProcessProbe, self.budget).await;
        ProbeResult::from_reply(NodeId::new(node), sim(rtt), &reply.ok()?)
    }

    /// [`Io::probe_stream`] over a UDP socket connected to `addr`, each
    /// exchange within half the budget; `Err` names why it gave way.
    async fn probe_udp(&self, addr: SocketAddr, node: u64) -> Result<ProbeResult, &'static str> {
        let (fd, sent) = self.open_udp(addr).map_err(|_| "connect")?;
        let pong = self.hear(fd).await?;
        let rtt = sent.elapsed();
        if !matches!(pong, Response::RttPong) {
            return Err("reply");
        }
        let socket = self.lock().udps.get(&fd).and_then(|leg| leg.socket.clone());
        let probe = self.wire.codec.encode_request(&Request::ProcessProbe);
        socket.ok_or("reply")?.send(&probe).map_err(|_| "connect")?;
        let reply = self.hear(fd).await?;
        ProbeResult::from_reply(NodeId::new(node), sim(rtt), &reply).ok_or("reply")
    }

    /// Opens a UDP leg to `addr` and sends its `RttProbe`: the socket
    /// goes to the loop, its datagrams to the leg's record.
    fn open_udp(&self, addr: SocketAddr) -> io::Result<(RawFd, Instant)> {
        let local: SocketAddr = match addr {
            SocketAddr::V4(_) => (Ipv4Addr::UNSPECIFIED, 0).into(),
            SocketAddr::V6(_) => (Ipv6Addr::UNSPECIFIED, 0).into(),
        };
        let socket = UdpSocket::bind(local)?;
        socket.connect(addr)?;
        let probe = self.wire.codec.encode_request(&Request::RttProbe);
        let sent = Instant::now();
        socket.send(&probe)?;
        let fd = socket.as_raw_fd();
        let client = Arc::clone(&self.client);
        let handler = move |datagram: &[u8], _, socket: &Arc<UdpSocket>, handle: &Handle| {
            if let Some(leg) = lock(&client).udps.get_mut(&fd) {
                let reply = decode_response(datagram).ok().map(|(reply, _)| reply);
                (leg.socket, leg.inbox) = (Some(Arc::clone(socket)), Some(reply));
            }
            poll(&client, handle, None);
        };
        self.lock().udps.insert(fd, Leg::default());
        self.handle
            .add_udp(socket, Box::new(handler))
            .inspect_err(|_| drop(self.lock().udps.remove(&fd)))?;
        Ok((fd, sent))
    }

    /// The next datagram on leg `fd`, within half the budget.
    async fn hear(&self, fd: RawFd) -> Result<Response, &'static str> {
        let until = Instant::now() + self.budget / 2;
        let heard = self.wait(until, |shared| shared.udps.get_mut(&fd)?.inbox.take());
        heard.await.ok_or("timeout")?.ok_or("reply")
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::LiveManager;
    use crate::node::{LiveNode, NodeConfig};
    use armada_client::{BREAKER_COOLDOWN, BREAKER_THRESHOLD};
    use armada_types::{HardwareProfile, NodeClass, SelectorMode};
    use armada_wire::Codec;
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    /// One blocking exchange, for the tests' own peers.
    fn exchange(stream: &mut TcpStream, request: &Request) -> io::Result<Response> {
        armada_wire::write_request(stream, Codec::Binary, request)?;
        Ok(armada_wire::read_response(stream)
            .map_err(io::Error::from)?
            .0)
    }

    fn rpc(stream: &mut TcpStream, request: Request) -> Response {
        exchange(stream, &request).expect("test rpc")
    }

    fn node_config(id: u64, cores: u32, frame_ms: f64, delay_ms: u64) -> NodeConfig {
        NodeConfig {
            id,
            class: NodeClass::Volunteer,
            hw: HardwareProfile::new(format!("hw-{id}"), cores, frame_ms).with_concurrency(cores),
            location: GeoPoint::new(44.98, -93.26),
            one_way_delay: Duration::from_millis(delay_ms),
        }
    }

    #[test]
    fn client_selects_the_fast_nearby_node() {
        let (_mgr, mgr_addr) = LiveManager::bind().unwrap();
        // Node 1: fast hardware, low delay. Node 2: fast hardware, far.
        // Node 3: nearby but very slow hardware.
        let (_n1, _) = LiveNode::bind(node_config(1, 4, 10.0, 2), Some(mgr_addr)).unwrap();
        let (_n2, _) = LiveNode::bind(node_config(2, 4, 10.0, 40), Some(mgr_addr)).unwrap();
        let (_n3, _) = LiveNode::bind(node_config(3, 1, 80.0, 2), Some(mgr_addr)).unwrap();

        let client = LiveClient::new(
            100,
            GeoPoint::new(44.98, -93.26),
            ClientConfig::default().with_top_n(3),
        );
        let report = client.run_session(mgr_addr, 10).unwrap();
        assert_eq!(
            report.initial_node, 1,
            "probing must pick the fast nearby node"
        );
        assert_eq!(report.final_node, 1);
        assert_eq!(report.latencies.len(), 10);
        assert_eq!(report.probed.len(), 3);
        // Each frame costs ≥ 2×2 ms delay + 10 ms processing.
        for l in &report.latencies {
            assert!(*l >= Duration::from_millis(13), "latency {l:?}");
        }
    }

    /// A predictive-mode client against a calm cluster behaves exactly
    /// like the reactive one: with no failures and steady RTTs the
    /// predicted overheads collapse to the measured ones.
    #[test]
    fn predictive_client_selects_and_streams_like_the_reactive_one() {
        let (_mgr, mgr_addr) = LiveManager::bind().unwrap();
        let (_n1, _) = LiveNode::bind(node_config(1, 4, 10.0, 2), Some(mgr_addr)).unwrap();
        let (_n2, _) = LiveNode::bind(node_config(2, 4, 10.0, 40), Some(mgr_addr)).unwrap();
        let client = LiveClient::new(
            101,
            GeoPoint::new(44.98, -93.26),
            ClientConfig::default()
                .with_top_n(2)
                .with_selector(SelectorMode::Predictive),
        );
        let report = client.run_session(mgr_addr, 8).unwrap();
        assert_eq!(report.initial_node, 1, "a calm cluster ranks identically");
        assert_eq!(report.final_node, 1);
        assert_eq!(report.latencies.len(), 8);
        assert_eq!(report.switches, 0);
    }

    #[test]
    fn failover_switches_to_backup_mid_session() {
        let (_mgr, mgr_addr) = LiveManager::bind().unwrap();
        let (n1, _) = LiveNode::bind(node_config(1, 4, 5.0, 1), Some(mgr_addr)).unwrap();
        let (_n2, _) = LiveNode::bind(node_config(2, 4, 5.0, 15), Some(mgr_addr)).unwrap();

        let client = LiveClient::new(
            200,
            GeoPoint::new(44.98, -93.26),
            ClientConfig::default().with_top_n(2),
        );
        // Kill the primary once the session is safely in its streaming
        // phase (discovery + probing take ~100-200 ms un-optimised; 30
        // frames at 20 FPS keep streaming for ~1.5 s beyond that).
        let killer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(800));
            n1.shutdown();
            n1
        });
        let report = client.run_session(mgr_addr, 30).unwrap();
        let _n1 = killer.join().unwrap();
        assert_eq!(report.initial_node, 1);
        assert_eq!(report.final_node, 2, "must have failed over to the backup");
        assert_eq!(report.failovers, 1);
        assert_eq!(report.latencies.len(), 30, "all frames eventually served");
    }

    #[test]
    fn periodic_reprobing_switches_to_an_improved_node() {
        let (_mgr, mgr_addr) = LiveManager::bind().unwrap();
        // Node 1 starts strictly better (nearer, faster); node 2 is the
        // fallback. After the initial selection we saturate node 1 with
        // competing clients, so periodic re-probing should migrate the
        // user to node 2.
        let (_n1, n1_addr) = LiveNode::bind(node_config(1, 1, 10.0, 2), Some(mgr_addr)).unwrap();
        let (_n2, _) = LiveNode::bind(node_config(2, 2, 12.0, 6), Some(mgr_addr)).unwrap();

        // Saturating competitors: four streams hammer node 1 directly
        // (one thread each, so their frames are always in flight and the
        // single core never idles), starting only after the client's
        // initial join settles.
        let stop = Arc::new(AtomicBool::new(false));
        let competitors: Vec<_> = [96u64, 97, 98, 99]
            .into_iter()
            .map(|user| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_millis(400));
                    let mut s = TcpStream::connect(n1_addr).unwrap();
                    // A failed setsockopt skips this competitor
                    // instead of panicking its thread.
                    if s.set_read_timeout(Some(RPC_TIMEOUT)).is_err()
                        || s.set_write_timeout(Some(RPC_TIMEOUT)).is_err()
                    {
                        return;
                    }
                    // Attach so the GO policy sees the interference too.
                    let _ = rpc(&mut s, Request::UnexpectedJoin { user });
                    for seq in 0..2_000u64 {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let frame = Request::Frame {
                            user,
                            seq,
                            payload_len: 20_000,
                        };
                        let r = exchange(&mut s, &frame);
                        if !matches!(r, Ok(Response::FrameResult { .. })) {
                            break;
                        }
                    }
                })
            })
            .collect();

        let mut config = ClientConfig::default().with_top_n(2);
        // Short probing period and a long session: on a loaded test
        // machine individual probe rounds are noisy, but across ~15
        // rounds of sustained saturation the migration must happen.
        config = config.with_probing_period(armada_types::SimDuration::from_millis(500));
        let client = LiveClient::new(5, GeoPoint::new(44.98, -93.26), config);
        let report = client.run_session(mgr_addr, 120).unwrap();
        stop.store(true, Ordering::Release);
        for c in competitors {
            let _ = c.join();
        }
        assert_eq!(report.initial_node, 1, "node 1 wins the initial probe");
        assert!(
            report.switches >= 1,
            "sustained saturation must trigger at least one voluntary switch"
        );
        // Usually the session ends on node 2; on a heavily loaded test
        // host the competitors can error out early, node 1 recovers, and
        // the client legitimately migrates back — either way the
        // migration machinery demonstrably ran.
        assert!(
            report.final_node == 2 || report.switches >= 2,
            "client must have moved to the free node (final {}, switches {})",
            report.final_node,
            report.switches
        );
        assert_eq!(
            report.failovers, 0,
            "this is a voluntary switch, not a failure"
        );
    }

    /// Regression: the periodic discovery result used to be thrown away
    /// and only first-round connections re-probed, so a session could
    /// never migrate to a node that registered after it started — the
    /// elasticity the paper's Figs. 5/6 are about.
    #[test]
    fn live_client_migrates_to_a_node_that_registers_mid_session() {
        let (_mgr, mgr_addr) = LiveManager::bind().unwrap();
        let (_n1, _) = LiveNode::bind(node_config(1, 4, 20.0, 15), Some(mgr_addr)).unwrap();
        let (_n2, _) = LiveNode::bind(node_config(2, 4, 20.0, 25), Some(mgr_addr)).unwrap();
        let config = ClientConfig::default()
            .with_top_n(3)
            .with_probing_period(SimDuration::from_millis(200));
        let client = LiveClient::new(6, GeoPoint::new(44.98, -93.26), config);
        let (report, _n3) = std::thread::scope(|scope| {
            let session = scope.spawn(|| client.run_session(mgr_addr, 30));
            // Well into the streaming phase (~100 ms a frame on node 1).
            std::thread::sleep(Duration::from_millis(600));
            let n3 = LiveNode::bind(node_config(3, 4, 5.0, 1), Some(mgr_addr)).unwrap();
            (session.join().expect("session thread"), n3)
        });
        let report = report.unwrap();
        assert_eq!(report.initial_node, 1, "the better of the two slow nodes");
        assert_eq!(report.switches, 1, "one migration, to the late joiner");
        assert_eq!(report.final_node, 3);
        assert_eq!(report.failovers, 0);
        assert_eq!(report.latencies.len(), 30);
    }

    /// One 1-frame session of `client` against a stand-in manager that
    /// lists `candidates`, each probe exchange bounded by `budget_ms`:
    /// its outcome, and how long it took.
    fn session_over(
        client: &LiveClient,
        candidates: &[(u64, String)],
        budget_ms: u64,
    ) -> (io::Result<SessionReport>, Duration) {
        let listed = candidates.to_vec();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let manager = FakeManager::spawn(listener, move |_, _| Response::Candidates {
            nodes: listed.clone(),
        });
        let started = Instant::now();
        let budget = Duration::from_millis(budget_ms);
        let pending = client.start_on(&client_loop().unwrap(), &[manager.addr], 1, budget);
        let report = pending.wait();
        (report, started.elapsed())
    }

    fn traced_client(wire: WireConfig, top_n: usize) -> (LiveClient, Arc<Mutex<String>>) {
        use armada_trace::{MemorySink, Severity};
        let sink = MemorySink::new();
        let buffer = sink.buffer();
        let tracer = Tracer::with_sink(Box::new(sink), Severity::Debug);
        let config = ClientConfig::default()
            .with_selector(SelectorMode::Predictive)
            .with_top_n(top_n);
        let client = LiveClient::new(1, GeoPoint::new(44.98, -93.26), config)
            .with_wire(wire)
            .with_tracer(tracer);
        (client, buffer)
    }

    const TCP_PROBES: WireConfig = WireConfig {
        codec: Codec::Binary,
        udp_probes: false,
    };

    /// A listener that never accepts: the handshake completes in its
    /// backlog, and nothing ever answers.
    fn unresponsive() -> (std::net::TcpListener, String) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        (listener, addr)
    }

    /// Bind-then-drop frees a port nothing listens on.
    fn closed_port() -> String {
        unresponsive().1
    }

    /// An unresponsive listener whose UDP port is bound too, and never
    /// read: probes sent there vanish.
    fn silent() -> (std::net::TcpListener, std::net::UdpSocket, String) {
        loop {
            let (listener, addr) = unresponsive();
            if let Ok(udp) = std::net::UdpSocket::bind(&addr) {
                return (listener, udp, addr);
            }
        }
    }

    /// A live node that answers at once, at `id`.
    fn live(id: u64) -> (LiveNode, (u64, String)) {
        let (node, addr) = LiveNode::bind(node_config(id, 4, 1.0, 0), None).unwrap();
        (node, (id, addr.to_string()))
    }

    /// A node that answers in-stream only, its UDP port silent: probes,
    /// a join, frames and a leave. Serves one connection, until the peer
    /// closes it.
    fn tcp_only_node() -> (String, std::net::UdpSocket, std::thread::JoinHandle<()>) {
        let (listener, udp, addr) = silent();
        let serve = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            while let Ok(body) = armada_wire::read_frame_bytes(&mut stream) {
                let (request, codec) = armada_wire::decode_request(&body).unwrap();
                let response = match request {
                    Request::RttProbe => Response::RttPong,
                    Request::ProcessProbe => Response::ProbeReply {
                        whatif_us: 1_000,
                        current_us: 1_000,
                        attached: 0,
                        seq: 0,
                    },
                    Request::Join { .. } => Response::JoinResult { accepted: true },
                    Request::Frame { seq, .. } => Response::FrameResult {
                        seq,
                        processing_us: 1_000,
                    },
                    _ => Response::Ack,
                };
                armada_wire::write_frame(&mut stream, &codec.encode_response(&response)).unwrap();
            }
        });
        (addr, udp, serve)
    }

    /// Regression: re-probing used to walk the candidates one by one, so
    /// each dead one stalled the round for a full read timeout before
    /// the next was even tried. Three that accept and never answer —
    /// over TCP, and over a UDP port that is not there — cost the round
    /// one budget; the live node beside them is its one result.
    #[test]
    fn dead_candidates_cost_a_round_one_timeout() {
        for wire in [TCP_PROBES, WireConfig::default()] {
            let deads: Vec<_> = (0..3).map(|_| unresponsive()).collect();
            let (_node, live) = live(9);
            let mut candidates: Vec<_> = (0..3)
                .map(|i| (10 + i, deads[i as usize].1.clone()))
                .collect();
            candidates.push(live);
            let (client, _) = traced_client(wire, 4);
            let (report, elapsed) = session_over(&client, &candidates, 300);
            let report = report.unwrap();
            let probed: Vec<u64> = report.probed.iter().map(|p| p.0).collect();
            assert_eq!(probed, [9]);
            // One after the other the three budgets would stack (≥ 900 ms).
            assert!(elapsed >= Duration::from_millis(300), "took {elapsed:?}");
            assert!(elapsed < Duration::from_millis(750), "took {elapsed:?}");
        }
    }

    /// One live node between a listener that never answers and a closed
    /// port: the round's one result is the live node's, the session
    /// streams to it, and the core hears of both failures. (The listener
    /// has no UDP port: its refusal ends that leg at once.)
    #[test]
    fn a_live_node_beside_two_dead_ones_is_the_rounds_one_result() {
        let (_node, node) = live(2);
        let (_listener, silent) = unresponsive();
        let candidates = [(1, silent), node, (3, closed_port())];
        let (client, buffer) = traced_client(WireConfig::default(), 3);
        let (report, elapsed) = session_over(&client, &candidates, 300);
        let report = report.unwrap();
        let probed: Vec<u64> = report.probed.iter().map(|p| p.0).collect();
        assert_eq!((probed, report.final_node), (vec![2], 2));
        let shared = lock(&client.shared);
        let now = SimTime::from_micros(shared.epoch.elapsed().as_micros() as u64);
        let score = |id| shared.core.selector().unwrap().score(NodeId::new(id), now);
        assert!(score(1) < 1.0 && score(3) < 1.0, "both failures reported");
        assert_eq!(score(2), 1.0, "reliability untouched");
        assert!(elapsed < Duration::from_millis(750), "took {elapsed:?}");
        if cfg!(feature = "trace") {
            let trace = buffer.lock().unwrap().clone();
            let refused = r#""kind":"probe.udp.fallback","node":1,"reason":"reply""#;
            assert!(trace.contains(refused), "{trace}");
            assert!(!trace.contains(r#""reason":"timeout""#), "{trace}");
        }
    }

    /// Three nodes whose UDP port is silent: the UDP legs wait out their
    /// half of the budget together, fall back in-stream together, and
    /// the round still has three results — with one trace line each.
    #[test]
    fn silent_udp_legs_fall_back_in_stream_together() {
        let nodes: Vec<_> = (0..3).map(|_| tcp_only_node()).collect();
        let candidates: Vec<_> = (0..3).map(|i| (i as u64, nodes[i].0.clone())).collect();
        let (client, buffer) = traced_client(WireConfig::default(), 3);
        let (report, elapsed) = session_over(&client, &candidates, 600);
        assert_eq!(report.unwrap().probed.len(), 3);
        // One after the other the three half-budgets would stack (≥ 900 ms).
        assert!(elapsed >= Duration::from_millis(300), "took {elapsed:?}");
        assert!(elapsed < Duration::from_millis(750), "took {elapsed:?}");
        if cfg!(feature = "trace") {
            let trace = buffer.lock().unwrap().clone();
            let fallbacks = trace.matches(r#""kind":"probe.udp.fallback""#).count();
            assert_eq!(fallbacks, 3, "{trace}");
            assert_eq!(trace.matches(r#""reason":"timeout""#).count(), 3, "{trace}");
        }
        for (_, _, serve) in nodes {
            serve.join().unwrap();
        }
    }

    /// Regression: a probe's connect used a plain `TcpStream::connect`,
    /// whose timeout is the OS default (minutes against a black-holed
    /// peer).
    #[test]
    fn a_probe_dial_is_bounded_against_unroutable_address() {
        // TEST-NET-1 (RFC 5737) is reserved, never assigned, and either
        // rejected immediately or black-holed — both must stay within
        // the requested bound. Some sandboxed environments transparently
        // intercept outbound connects, so the portable property is the
        // time bound itself.
        let (_node, node) = live(1);
        let candidates = [node, (2, "192.0.2.1:9".to_string())];
        let (client, _) = traced_client(TCP_PROBES, 2);
        let (report, elapsed) = session_over(&client, &candidates, 400);
        assert_eq!(report.unwrap().final_node, 1);
        assert!(elapsed < Duration::from_secs(2), "took {elapsed:?}");
    }

    /// Regression: a node registered over a plain `TcpStream::connect`,
    /// so `bind` toward a black-holed manager waited out the OS connect
    /// timeout. Whether the SYN is dropped, refused or answered by a
    /// peer that never replies, `bind` returns within the manager link's
    /// connect and read budgets.
    #[test]
    fn node_bind_is_bounded_against_unroutable_manager() {
        let mgr: SocketAddr = "192.0.2.1:9".parse().unwrap();
        let started = Instant::now();
        let _ = LiveNode::bind(node_config(1, 1, 5.0, 0), Some(mgr));
        let elapsed = started.elapsed();
        let budget = crate::node::HEARTBEAT_RPC_TIMEOUT * 2 + Duration::from_secs(1);
        assert!(elapsed < budget, "bind took {elapsed:?}, budget {budget:?}");
    }

    /// The refusal ends the probe, not the budget.
    #[test]
    fn a_closed_port_fails_fast() {
        for wire in [TCP_PROBES, WireConfig::default()] {
            let (_node, node) = live(1);
            let (client, _) = traced_client(wire, 2);
            let (report, elapsed) = session_over(&client, &[node, (7, closed_port())], 2_000);
            assert_eq!(report.unwrap().probed.len(), 1);
            assert!(elapsed < Duration::from_millis(1_000), "took {elapsed:?}");
        }
    }

    /// Accepts nothing and answers nothing: over TCP the probe waits out
    /// one exchange's budget, over UDP (the port bound, never read) half
    /// of one first; both end, with a miss, inside their budgets.
    #[test]
    fn an_unresponsive_listener_and_a_silent_udp_port_end_inside_their_budget() {
        for (wire, at_least_ms) in [(TCP_PROBES, 300), (WireConfig::default(), 450)] {
            let (_listener, _udp, addr) = silent();
            let (_node, node) = live(1);
            let (client, _) = traced_client(wire, 2);
            let (report, elapsed) = session_over(&client, &[node, (8, addr)], 300);
            assert_eq!(report.unwrap().probed.len(), 1);
            assert!(elapsed >= Duration::from_millis(at_least_ms), "{elapsed:?}");
            assert!(elapsed < Duration::from_secs(2), "{elapsed:?}");
        }
    }

    /// Regression: the old probe thread `.unwrap()`ed a setsockopt that
    /// rejects a zero timeout, panicking the whole round. A degenerate
    /// budget is a miss for each candidate, and the session fails.
    #[test]
    fn a_zero_budget_is_a_per_candidate_miss_not_a_panic() {
        let (_listener, addr) = unresponsive();
        for wire in [TCP_PROBES, WireConfig::default()] {
            let (client, _) = traced_client(wire, 2);
            let (report, _) = session_over(&client, &[(1, addr.clone()), (2, closed_port())], 0);
            assert_eq!(report.unwrap_err().kind(), ErrorKind::InvalidData);
        }
    }

    /// Readiness is a hint only: on the portable readiness loop, which
    /// reports every socket ready every millisecond, a whole session
    /// passes — and where UDP answers, nothing falls back.
    #[test]
    fn a_session_on_the_portable_loop_passes() {
        let portable = ReactorConfig {
            threads: 1,
            portable: true,
            ..ReactorConfig::default()
        };
        let reactor = Reactor::new(portable).unwrap();
        let (_mgr, mgr_addr) = LiveManager::bind().unwrap();
        let (_n1, _) = LiveNode::bind(node_config(1, 4, 5.0, 1), Some(mgr_addr)).unwrap();
        let (_n2, _) = LiveNode::bind(node_config(2, 4, 5.0, 3), Some(mgr_addr)).unwrap();
        let (client, buffer) = traced_client(WireConfig::default(), 2);
        let budget = wall(PROBE_TIMEOUT);
        let report = client
            .start_on(reactor.handle(), &[mgr_addr], 5, budget)
            .wait();
        let report = report.unwrap();
        assert_eq!(report.initial_node, 1);
        assert_eq!(report.probed.len(), 2);
        assert_eq!(report.latencies.len(), 5);
        assert!(!buffer.lock().unwrap().contains("probe.udp.fallback"));
    }

    /// A session whose loop stops fails at once: its caller does not
    /// wait for a report that cannot come.
    #[test]
    fn a_stopped_loop_fails_its_session() {
        let reactor = Reactor::new(ReactorConfig {
            threads: 1,
            ..ReactorConfig::default()
        })
        .unwrap();
        // A manager that never answers keeps the session waiting.
        let (_listener, addr) = unresponsive();
        let client = LiveClient::new(3, GeoPoint::new(44.98, -93.26), ClientConfig::default());
        let manager = addr.parse().unwrap();
        let pending = client.start_on(reactor.handle(), &[manager], 1, wall(PROBE_TIMEOUT));
        std::thread::sleep(Duration::from_millis(100));
        let started = Instant::now();
        drop(reactor);
        assert!(pending.wait().is_err());
        assert!(started.elapsed() < Duration::from_secs(1));
    }

    /// Sessions started together on one client run one after another,
    /// each complete, on the one link it holds to its manager.
    #[test]
    fn a_clients_sessions_run_in_turn() {
        let (_n1, n1_addr) = LiveNode::bind(node_config(1, 4, 5.0, 1), None).unwrap();
        let manager = listing(1, n1_addr);
        let (client, buffer) = traced_client(WireConfig::default(), 1);
        let pending: Vec<_> = (0..3)
            .map(|_| client.start_session(&[manager.addr], 2))
            .collect();
        for session in pending {
            let report = session.wait().unwrap();
            assert_eq!((report.final_node, report.latencies.len()), (1, 2));
        }
        assert_eq!(manager.accepts(), 1, "one dial for three sessions");
        if cfg!(feature = "trace") {
            let trace = buffer.lock().unwrap().clone();
            let events = armada_trace::inspect::parse_jsonl(&trace).unwrap();
            let kinds: Vec<&str> = events
                .iter()
                .map(|e| e.kind.as_str())
                .filter(|k| matches!(*k, "probe.round.start" | "frame.done"))
                .collect();
            let one = ["probe.round.start", "frame.done", "frame.done"];
            assert_eq!(kinds, one.repeat(3), "the sessions interleaved");
        }
    }

    #[test]
    fn discovery_fails_over_to_the_peer_manager() {
        let disabled = armada_trace::Tracer::disabled;
        let (mut mgr_a, addr_a) = LiveManager::bind_federated(0, disabled()).unwrap();
        let (mgr_b, addr_b) = LiveManager::bind_federated(1, disabled()).unwrap();
        let (_n1, _) = LiveNode::bind(node_config(1, 4, 10.0, 2), Some(addr_a)).unwrap();
        let (_n2, _) = LiveNode::bind(node_config(2, 4, 10.0, 5), Some(addr_a)).unwrap();
        mgr_a.start_sync(vec![addr_b], Duration::from_millis(25));
        let deadline = Instant::now() + Duration::from_secs(2);
        while mgr_b.synced_count() < 2 {
            assert!(Instant::now() < deadline, "peer sync never arrived");
            std::thread::sleep(Duration::from_millis(10));
        }

        // The home shard dies; its nodes keep serving. The client's
        // route order still lists it first, so the session must pay one
        // refused connect and complete through the peer's synced view.
        drop(mgr_a);
        let client = LiveClient::new(
            300,
            GeoPoint::new(44.98, -93.26),
            ClientConfig::default().with_top_n(2),
        );
        let report = client.run_session_any(&[addr_a, addr_b], 5).unwrap();
        assert_eq!(report.latencies.len(), 5);
        assert_eq!(report.probed.len(), 2, "both synced nodes probed");
        assert!(
            mgr_b.discoveries_served() > 0,
            "the peer shard must have served the discovery"
        );
    }

    /// Regression: the route walk used to stop at a manager that answered
    /// `Discover` with anything but `Candidates` / `Busy`, so one
    /// shard's "internal error" reply failed session attempts its
    /// healthy peer would have served, until that shard's breaker
    /// opened. It counts against the breaker and the walk goes on.
    #[test]
    fn an_erroring_shard_does_not_stop_the_route_walk() {
        // A home shard that answers every request with an error.
        let broken = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let broken_addr = broken.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let stub = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                for stream in broken.incoming() {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    let mut stream = stream.unwrap();
                    let body = armada_wire::read_frame_bytes(&mut stream).unwrap();
                    let (_, codec) = armada_wire::decode_request(&body).unwrap();
                    let error = Response::Error {
                        message: "internal error".into(),
                    };
                    armada_wire::write_frame(&mut stream, &codec.encode_response(&error)).unwrap();
                }
            })
        };
        let (mgr, mgr_addr) = LiveManager::bind().unwrap();
        let (_n1, _) = LiveNode::bind(node_config(1, 4, 10.0, 2), Some(mgr_addr)).unwrap();

        let client = LiveClient::new(
            301,
            GeoPoint::new(44.98, -93.26),
            ClientConfig::default().with_top_n(1),
        );
        let report = client
            .run_session_any(&[broken_addr, mgr_addr], 3)
            .expect("the healthy peer must carry the session");
        assert_eq!(report.latencies.len(), 3);
        assert_eq!(report.failovers, 0);
        assert!(mgr.discoveries_served() > 0, "the peer served discovery");
        assert!(!client.is_degraded(), "a served session is not degraded");
        assert_eq!(
            client.breaker_transitions(),
            0,
            "served at the first attempt"
        );
        // The error counted against the home shard: two more sessions
        // open its breaker (closed → open is the only transition yet).
        for _ in 1..BREAKER_THRESHOLD {
            client.run_session_any(&[broken_addr, mgr_addr], 1).unwrap();
        }
        assert_eq!(client.breaker_transitions(), 1);

        stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(broken_addr);
        stub.join().unwrap();
    }

    /// Degraded mode end to end: a client partitioned from every
    /// manager mid-session keeps streaming, serves later discoveries
    /// from its cached candidate list (`chaos.degraded`), and
    /// reconciles when the partition heals
    /// (`chaos.degraded.recovered`).
    ///
    /// Asserts on captured trace contents, so it only runs with the
    /// `trace` feature (the default) compiled in.
    #[cfg(feature = "trace")]
    #[test]
    fn degraded_mode_serves_cached_candidates_and_recovers() {
        use armada_chaos::{ChaosProxy, LinkFaults};
        use armada_trace::{MemorySink, Severity};

        let sink = MemorySink::new();
        let buffer = sink.buffer();
        let tracer = Tracer::with_sink(Box::new(sink), Severity::Debug);

        let (_mgr, mgr_addr) = LiveManager::bind().unwrap();
        let (_n1, _) = LiveNode::bind(node_config(1, 4, 5.0, 1), Some(mgr_addr)).unwrap();
        let (_n2, _) = LiveNode::bind(node_config(2, 4, 5.0, 3), Some(mgr_addr)).unwrap();
        // The client only ever sees the manager through the proxy, so
        // the partition switch is a full discovery outage; the nodes
        // are dialed directly and keep serving throughout.
        let proxy = ChaosProxy::spawn(mgr_addr, LinkFaults::NONE, 11).unwrap();

        let config = ClientConfig::default()
            .with_top_n(2)
            .with_probing_period(SimDuration::from_millis(200));
        let client = LiveClient::new(400, GeoPoint::new(44.98, -93.26), config).with_tracer(tracer);

        // Session 1, with the partition cut mid-session and healed
        // before the session ends: every frame must still be served.
        let report = std::thread::scope(|scope| {
            let session = scope.spawn(|| client.run_session(proxy.addr(), 60));
            scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(300));
                proxy.set_partitioned(true);
                std::thread::sleep(Duration::from_millis(700));
                proxy.set_partitioned(false);
            });
            session.join().expect("session thread")
        })
        .expect("session must survive the mid-session partition");
        assert_eq!(report.latencies.len(), 60);
        let trace = buffer.lock().unwrap().clone();
        assert!(
            trace.contains(r#""kind":"chaos.degraded""#),
            "the partition window must have produced degraded events:\n{trace}"
        );
        assert!(
            trace.contains(r#""kind":"chaos.degraded.recovered""#),
            "healing must have produced a recovery event:\n{trace}"
        );
        assert!(!client.is_degraded(), "healed before the session ended");

        // Session 2, started while partitioned: discovery is served
        // entirely from the cache.
        proxy.set_partitioned(true);
        let report = client
            .run_session(proxy.addr(), 3)
            .expect("cached candidates must carry a whole session");
        assert_eq!(report.latencies.len(), 3);
        assert!(client.is_degraded(), "nothing has healed it yet");

        // Session 3, after healing: discovery reconciles with the
        // manager and the degraded episode ends.
        proxy.set_partitioned(false);
        let report = client.run_session(proxy.addr(), 3).unwrap();
        assert_eq!(report.latencies.len(), 3);
        assert!(!client.is_degraded(), "recovery must clear degraded mode");
    }

    /// The full breaker cycle — closed → open → half-open → closed —
    /// observed through `chaos.breaker.*` trace events against a
    /// manager behind a link that is cut and healed. The nodes are
    /// dialled directly, so every session is served: from the cache
    /// while the manager is unreachable or breaker-gated.
    ///
    /// Asserts on captured trace contents, so it only runs with the
    /// `trace` feature (the default) compiled in.
    #[cfg(feature = "trace")]
    #[test]
    fn discovery_breaker_cycles_open_half_open_closed() {
        use armada_chaos::{ChaosProxy, LinkFaults};
        use armada_trace::{MemorySink, Severity};

        let sink = MemorySink::new();
        let buffer = sink.buffer();
        let tracer = Tracer::with_sink(Box::new(sink), Severity::Debug);

        let (_mgr, mgr_addr) = LiveManager::bind().unwrap();
        let (_n1, _) = LiveNode::bind(node_config(1, 2, 5.0, 1), Some(mgr_addr)).unwrap();
        let proxy = ChaosProxy::spawn(mgr_addr, LinkFaults::NONE, 12).unwrap();
        let client = LiveClient::new(500, GeoPoint::new(44.98, -93.26), ClientConfig::default())
            .with_tracer(tracer);
        let session = || client.run_session(proxy.addr(), 1).expect("served");

        // Prime the cache, then cut the link and fail discovery until
        // the breaker opens.
        session();
        assert!(!client.is_degraded());
        proxy.set_partitioned(true);
        for _ in 0..BREAKER_THRESHOLD {
            session();
            assert!(client.is_degraded(), "served from the cache");
        }
        let opened = r#""kind":"chaos.breaker.open""#;
        assert!(
            buffer.lock().unwrap().contains(opened),
            "threshold failures must open the breaker"
        );
        // While open, the walk skips the manager without connecting —
        // even though the proxy is healed again, nothing probes it yet.
        proxy.set_partitioned(false);
        session();
        assert!(client.is_degraded(), "open breaker gates the only manager");
        // After the cooldown one half-open probe goes through, succeeds
        // against the healed manager, and recloses the breaker.
        let cooldown = Duration::from_micros(BREAKER_COOLDOWN.as_micros());
        std::thread::sleep(cooldown + Duration::from_millis(50));
        session();
        assert!(!client.is_degraded(), "the half-open probe was served");
        let trace = buffer.lock().unwrap().clone();
        assert!(
            trace.contains(r#""kind":"chaos.breaker.half_open""#),
            "cooldown expiry must trace half-open:\n{trace}"
        );
        assert!(
            trace.contains(r#""kind":"chaos.breaker.close""#),
            "successful probe must reclose the breaker:\n{trace}"
        );
        assert!(client.breaker_transitions() >= 3, "full cycle recorded");
    }

    /// `user`'s `frame.done` timestamps and its `probe.round.*` events,
    /// out of a captured trace.
    #[cfg(feature = "trace")]
    fn frames_and_rounds(trace: &str, user: u64) -> (Vec<u64>, Vec<armada_trace::TraceEvent>) {
        let events = armada_trace::inspect::parse_jsonl(trace).expect("trace parses");
        let (mut frames, mut rounds) = (Vec::new(), Vec::new());
        for e in events
            .into_iter()
            .filter(|e| e.field_u64("user") == Some(user))
        {
            match e.kind.as_str() {
                "frame.done" => frames.push(e.t_us),
                kind if kind.starts_with("probe.round.") => rounds.push(e),
                _ => {}
            }
        }
        (frames, rounds)
    }

    /// Regression: every round waited out the 5 s RPC budget on a
    /// candidate that never answers, so a volunteer gone quiet inside
    /// the manager's liveness window froze the frame loop for seconds
    /// every `T_probing`. A round ends by `PROBE_TIMEOUT`.
    #[cfg(feature = "trace")]
    #[test]
    fn a_silent_candidate_does_not_stall_the_frame_loop() {
        use armada_trace::{MemorySink, Severity};
        let sink = MemorySink::new();
        let buffer = sink.buffer();
        let tracer = Tracer::with_sink(Box::new(sink), Severity::Debug);
        let (_mgr, mgr_addr) = LiveManager::bind().unwrap();
        let (_n1, _) = LiveNode::bind(node_config(1, 4, 5.0, 1), Some(mgr_addr)).unwrap();
        // Registered, then silent: TCP accepted by the backlog only, the
        // UDP port bound and never read.
        let (_listener, _udp, silent_addr) = silent();
        let config = ClientConfig::default()
            .with_top_n(2)
            .with_probing_period(SimDuration::from_millis(400));
        let client = LiveClient::new(12, GeoPoint::new(44.98, -93.26), config).with_tracer(tracer);
        let report = std::thread::scope(|scope| {
            let session = scope.spawn(|| client.run_session(mgr_addr, 12));
            std::thread::sleep(Duration::from_millis(300));
            let mut link = TcpStream::connect(mgr_addr).unwrap();
            let status = armada_wire::WireNodeStatus {
                id: 9,
                class: NodeClass::Volunteer,
                location: GeoPoint::new(44.98, -93.26),
                attached_users: 0,
                load_score: 0.0,
            };
            let register = Request::Register {
                status,
                listen_addr: silent_addr.clone(),
            };
            assert_eq!(rpc(&mut link, register), Response::Registered);
            session.join().expect("session thread")
        })
        .expect("the silent candidate costs rounds, not the session");
        assert_eq!((report.final_node, report.latencies.len()), (1, 12));
        let (frames, rounds) = frames_and_rounds(&buffer.lock().unwrap(), 12);
        let lost = |e: &armada_trace::TraceEvent| e.field_u64("failed") == Some(1);
        assert!(rounds.iter().any(lost), "the silent candidate was probed");
        for gap in frames.windows(2).map(|w| w[1] - w[0]) {
            assert!(gap < 1_500_000, "the frame loop stalled {gap} µs");
        }
    }

    /// Regression: `T_probing` was counted from the start of a round,
    /// so after a round that ran to `PROBE_TIMEOUT` on a silent
    /// candidate the next began one frame later. The period runs from
    /// the end of a round.
    #[cfg(feature = "trace")]
    #[test]
    fn the_next_round_starts_t_probing_after_the_last_one_ends() {
        use armada_trace::{MemorySink, Severity};
        let sink = MemorySink::new();
        let buffer = sink.buffer();
        let tracer = Tracer::with_sink(Box::new(sink), Severity::Debug);
        let (_mgr, mgr_addr) = LiveManager::bind().unwrap();
        let (_n1, _) = LiveNode::bind(node_config(1, 4, 5.0, 1), Some(mgr_addr)).unwrap();
        let (_listener, _udp, silent_addr) = silent();
        let period = SimDuration::from_millis(400);
        let config = ClientConfig::default()
            .with_top_n(2)
            .with_probing_period(period);
        let client = LiveClient::new(14, GeoPoint::new(44.98, -93.26), config).with_tracer(tracer);
        std::thread::scope(|scope| {
            let session = scope.spawn(|| client.run_session(mgr_addr, 20));
            std::thread::sleep(Duration::from_millis(300));
            let mut link = TcpStream::connect(mgr_addr).unwrap();
            let status = armada_wire::WireNodeStatus {
                id: 9,
                class: NodeClass::Volunteer,
                location: GeoPoint::new(44.98, -93.26),
                attached_users: 0,
                load_score: 0.0,
            };
            let register = Request::Register {
                status,
                listen_addr: silent_addr.clone(),
            };
            assert_eq!(rpc(&mut link, register), Response::Registered);
            session.join().expect("session thread")
        })
        .expect("the silent candidate costs rounds, not the session");
        let (_, rounds) = frames_and_rounds(&buffer.lock().unwrap(), 14);
        let lost = |e: &armada_trace::TraceEvent| e.field_u64("failed") == Some(1);
        assert!(rounds.iter().any(lost), "the silent candidate was probed");
        let mut done = None;
        let mut later_starts = 0;
        for e in &rounds {
            match (e.kind.as_str(), done) {
                ("probe.round.done", _) => done = Some(e.t_us),
                ("probe.round.start", Some(ended)) => {
                    let gap = e.t_us - ended;
                    assert!(
                        gap >= period.as_micros(),
                        "a round began {gap} µs after the last"
                    );
                    later_starts += 1;
                }
                _ => {}
            }
        }
        assert!(later_starts >= 2, "{later_starts} rounds after the first");
    }

    /// The simulator's rule: a manager's empty shortlist opens no round
    /// (the serving node alone is not re-probed), and the session keeps
    /// streaming to its node, asking again at the core's retry, until a
    /// later round has candidates.
    #[cfg(feature = "trace")]
    #[test]
    fn an_empty_shortlist_mid_session_opens_no_round() {
        use armada_trace::{MemorySink, Severity};
        let sink = MemorySink::new();
        let buffer = sink.buffer();
        let tracer = Tracer::with_sink(Box::new(sink), Severity::Debug);
        let (_n1, n1_addr) = LiveNode::bind(node_config(1, 4, 5.0, 1), None).unwrap();
        // A manager that lists node 1 once, then nothing.
        let manager = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mgr_addr = manager.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let stub = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut nodes = vec![(1, n1_addr.to_string())];
                let mut answered = 0;
                for stream in manager.incoming() {
                    if stop.load(Ordering::Acquire) {
                        return answered;
                    }
                    let mut stream = stream.unwrap();
                    let body = armada_wire::read_frame_bytes(&mut stream).unwrap();
                    let (_, codec) = armada_wire::decode_request(&body).unwrap();
                    let nodes = std::mem::take(&mut nodes);
                    let reply = codec.encode_response(&Response::Candidates { nodes });
                    armada_wire::write_frame(&mut stream, &reply).unwrap();
                    answered += 1;
                }
                answered
            })
        };
        let config = ClientConfig::default()
            .with_top_n(1)
            .with_probing_period(SimDuration::from_millis(100));
        let client = LiveClient::new(13, GeoPoint::new(44.98, -93.26), config).with_tracer(tracer);
        let report = client.run_session(mgr_addr, 20).unwrap();
        stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(mgr_addr);
        assert!(stub.join().unwrap() > 2, "empty shortlists were served");
        assert_eq!((report.final_node, report.latencies.len()), (1, 20));
        assert_eq!(report.failovers, 0);
        let (_, rounds) = frames_and_rounds(&buffer.lock().unwrap(), 13);
        let kinds: Vec<&str> = rounds.iter().map(|e| e.kind.as_str()).collect();
        assert_eq!(
            kinds,
            ["probe.round.start", "probe.round.done"],
            "the first round only"
        );
    }

    /// An accepted connection and the thread serving it.
    type Served = (TcpStream, std::thread::JoinHandle<()>);

    /// A stand-in manager: every connection it accepts is served on a
    /// thread of its own, request after request, with `answer(connection,
    /// request)` (both counted from 0). Dropping it stops the accepts,
    /// closes the listener and every connection it accepted, and joins
    /// every thread it spawned.
    struct FakeManager {
        addr: SocketAddr,
        accepted: Arc<Mutex<Vec<Served>>>,
        stop: Arc<AtomicBool>,
        acceptor: Option<std::thread::JoinHandle<()>>,
    }

    impl FakeManager {
        fn spawn(
            listener: std::net::TcpListener,
            answer: impl Fn(usize, usize) -> Response + Send + Sync + 'static,
        ) -> FakeManager {
            let addr = listener.local_addr().unwrap();
            let accepted = Arc::new(Mutex::new(Vec::new()));
            let stop = Arc::new(AtomicBool::new(false));
            let (answer, held, halt) = (Arc::new(answer), Arc::clone(&accepted), Arc::clone(&stop));
            let acceptor = std::thread::spawn(move || {
                for (conn, stream) in listener.incoming().enumerate() {
                    if halt.load(Ordering::Acquire) {
                        break;
                    }
                    let mut stream = stream.expect("accept");
                    let closer = stream.try_clone().expect("clone the accepted stream");
                    let answer = Arc::clone(&answer);
                    // Counted before its first request can be answered.
                    let mut held = held.lock().unwrap();
                    let serve = std::thread::spawn(move || {
                        for request in 0.. {
                            let Ok(body) = armada_wire::read_frame_bytes(&mut stream) else {
                                break;
                            };
                            let (_, codec) = armada_wire::decode_request(&body).unwrap();
                            let reply = codec.encode_response(&answer(conn, request));
                            if armada_wire::write_frame(&mut stream, &reply).is_err() {
                                break;
                            }
                        }
                    });
                    held.push((closer, serve));
                }
            });
            FakeManager {
                addr,
                accepted,
                stop,
                acceptor: Some(acceptor),
            }
        }

        fn accepts(&self) -> usize {
            self.accepted.lock().unwrap().len()
        }
    }

    impl Drop for FakeManager {
        fn drop(&mut self) {
            self.stop.store(true, Ordering::Release);
            let _ = TcpStream::connect(self.addr);
            let acceptor = self.acceptor.take().map(std::thread::JoinHandle::join);
            let mut clean = matches!(acceptor, Some(Ok(())));
            let accepted = match self.accepted.lock() {
                Ok(mut held) => std::mem::take(&mut *held),
                Err(_) => Vec::new(),
            };
            for (stream, serve) in accepted {
                let _ = stream.shutdown(std::net::Shutdown::Both);
                clean &= serve.join().is_ok();
            }
            // (No second panic while a failed test unwinds.)
            if !std::thread::panicking() {
                assert!(clean, "a fake-manager thread panicked");
            }
        }
    }

    /// A fake manager that lists `node` at `addr` to every query.
    fn listing(node: u64, addr: SocketAddr) -> FakeManager {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        FakeManager::spawn(listener, move |_, _| Response::Candidates {
            nodes: vec![(node, addr.to_string())],
        })
    }

    /// Discovery rides one held link: a client's sessions dial the
    /// manager once between them.
    #[test]
    fn sessions_share_one_manager_link() {
        let (_n1, n1_addr) = LiveNode::bind(node_config(1, 4, 5.0, 1), None).unwrap();
        let manager = listing(1, n1_addr);
        let client = LiveClient::new(14, GeoPoint::new(44.98, -93.26), ClientConfig::default());
        for _ in 0..3 {
            let report = client.run_session(manager.addr, 2).unwrap();
            assert_eq!((report.final_node, report.latencies.len()), (1, 2));
        }
        assert_eq!(manager.accepts(), 1, "one dial for three sessions");
    }

    /// A manager restarted on its port has closed the held link; the
    /// next discovery redials it inside the same call, so the restart
    /// counts as no failure: no breaker moves, no degraded episode.
    #[test]
    fn a_restarted_manager_is_redialled_within_one_discovery() {
        let (_n1, n1_addr) = LiveNode::bind(node_config(1, 4, 5.0, 1), None).unwrap();
        let first = listing(1, n1_addr);
        let addr = first.addr;
        let client = LiveClient::new(15, GeoPoint::new(44.98, -93.26), ClientConfig::default());
        client.run_session(addr, 1).unwrap();
        let transitions = client.breaker_transitions();
        drop(first);
        let listener = std::net::TcpListener::bind(addr).expect("the port is free again");
        let queries = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&queries);
        let second = FakeManager::spawn(listener, move |_, _| {
            counted.fetch_add(1, Ordering::Relaxed);
            Response::Candidates {
                nodes: vec![(1, n1_addr.to_string())],
            }
        });
        let report = client.run_session(addr, 1).unwrap();
        assert_eq!(report.final_node, 1);
        assert!(!client.is_degraded(), "served by the restarted manager");
        assert_eq!(client.breaker_transitions(), transitions);
        assert_eq!((second.accepts(), queries.load(Ordering::Relaxed)), (1, 1));
    }

    /// A held link whose reply timed out is dropped: the reply that
    /// arrives late on it is never taken as the answer to the next query.
    /// The held link's second query — the session's first mid-session
    /// round — is answered past the refresh budget, and wrongly; the
    /// round runs on the cached shortlist, and the next discovery dials
    /// a link of its own.
    #[test]
    fn a_timed_out_link_is_not_reused() {
        let (_n1, n1_addr) = LiveNode::bind(node_config(1, 4, 5.0, 1), None).unwrap();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let manager = FakeManager::spawn(listener, move |conn, request| {
            let node = if (conn, request) == (0, 1) {
                std::thread::sleep(REFRESH_TIMEOUT + Duration::from_millis(200));
                (66, "127.0.0.1:9".to_string())
            } else {
                (1, n1_addr.to_string())
            };
            Response::Candidates { nodes: vec![node] }
        });
        let config = ClientConfig::default()
            .with_top_n(1)
            .with_probing_period(SimDuration::from_millis(100));
        let client = LiveClient::new(16, GeoPoint::new(44.98, -93.26), config);
        for _ in 0..2 {
            let report = client.run_session(manager.addr, 6).unwrap();
            assert_eq!((report.final_node, report.failovers), (1, 0));
            // The late reply has landed on the dropped link by now.
            std::thread::sleep(Duration::from_millis(400));
        }
        assert!(!client.is_degraded(), "the last discovery was answered");
        assert_eq!(manager.accepts(), 2);
    }

    #[test]
    fn no_nodes_is_an_error() {
        let (_mgr, mgr_addr) = LiveManager::bind().unwrap();
        let client = LiveClient::new(1, GeoPoint::new(44.98, -93.26), ClientConfig::default());
        let err = client.run_session(mgr_addr, 1).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn two_clients_share_the_cluster() {
        let (_mgr, mgr_addr) = LiveManager::bind().unwrap();
        let (n1, _) = LiveNode::bind(node_config(1, 2, 5.0, 1), Some(mgr_addr)).unwrap();
        let (n2, _) = LiveNode::bind(node_config(2, 2, 5.0, 1), Some(mgr_addr)).unwrap();
        let a = LiveClient::new(
            1,
            GeoPoint::new(44.98, -93.26),
            ClientConfig::default().with_top_n(2),
        );
        let b = LiveClient::new(
            2,
            GeoPoint::new(44.97, -93.25),
            ClientConfig::default().with_top_n(2),
        );
        let (ra, rb) = std::thread::scope(|scope| {
            let ha = scope.spawn(|| a.run_session(mgr_addr, 8));
            let hb = scope.spawn(|| b.run_session(mgr_addr, 8));
            (ha.join().unwrap(), hb.join().unwrap())
        });
        let (ra, rb) = (ra.unwrap(), rb.unwrap());
        assert_eq!(ra.latencies.len(), 8);
        assert_eq!(rb.latencies.len(), 8);
        let served = n1.frames_processed() + n2.frames_processed();
        assert_eq!(served, 16);
    }
}
