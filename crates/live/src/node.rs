//! The live edge-node server, served by the `armada-reactor` event
//! loops instead of a thread per connection.

use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use armada_chaos::Backoff;
use armada_reactor::{
    AcceptFactory, Conn, ConnCtx, Handle, Reactor, ReactorConfig, Source, UdpHandler,
};
use armada_trace::{u, Severity, Tracer};
use armada_types::{GeoPoint, HardwareProfile, NodeClass};
use armada_workload::offered_load;

use armada_wire::{
    decode_request, decode_response, read_response, write_request, Request, Response, WireConfig,
    WireNodeStatus,
};

use crate::manager::ServeFaults;

/// Default heartbeat period toward the manager.
const HEARTBEAT_PERIOD: Duration = Duration::from_secs(2);

/// Default read/connect budget on the manager link: a silently
/// partitioned manager must fail the heartbeat rather than hang it
/// forever.
const HEARTBEAT_RPC_TIMEOUT: Duration = Duration::from_secs(5);

/// Backoff between manager reconnect attempts after the heartbeat link
/// drops. Without reconnection a single manager restart permanently
/// orphans the node: its registration ages past the liveness window
/// and discovery never offers it again.
const HEARTBEAT_RECONNECT: Backoff = Backoff::from_millis(100, 2_000);

/// Write budget on accepted client connections: a stalled/zero-window
/// client must lose its connection, not pin a loop's write buffer
/// forever. Reads stay unbounded — idle client connections are normal.
const SERVE_WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Configuration of one live edge node.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Node identity.
    pub id: u64,
    /// Node class.
    pub class: NodeClass,
    /// Hardware profile: the frame concurrency sizes the execution
    /// semaphore, the base frame time is the per-frame busy interval.
    pub hw: HardwareProfile,
    /// Advertised position.
    pub location: GeoPoint,
    /// Artificial one-way network delay, standing in for geographic
    /// distance on localhost. Applied once per direction per request.
    pub one_way_delay: Duration,
}

/// Timing and sizing knobs of one [`LiveNode`]'s server runtime.
///
/// The defaults reproduce the paper deployment's constants (2 s
/// heartbeat period, 5 s heartbeat RPC budget); tests shrink them so
/// heartbeat-driven transitions happen in milliseconds. The old 250 ms
/// UDP poll tick has no replacement knob: the probe responder is
/// driven by socket readiness now, so there is no tick left to tune.
#[derive(Clone)]
pub struct LiveNodeConfig {
    /// Heartbeat period toward the manager.
    pub heartbeat_period: Duration,
    /// Budget on each heartbeat-link RPC (connect, write, ack read).
    pub heartbeat_rpc_timeout: Duration,
    /// Reactor event-loop threads serving connections.
    pub threads: usize,
    /// Optional fault injection on accepted connections.
    pub serve_faults: Option<ServeFaults>,
    /// Worker-thread cap of the blocking pool serving heavy requests
    /// (frames, delayed-geography requests).
    pub pool_workers: usize,
    /// Bound on queued heavy requests once every pool worker is busy:
    /// past it the node answers `Busy` instead of queueing without
    /// bound (`0` = unbounded, the pre-overload-control behaviour).
    pub pool_queue_cap: usize,
    /// `retry_after_ms` suggested in `Busy` responses.
    pub busy_retry_ms: u64,
}

impl Default for LiveNodeConfig {
    fn default() -> Self {
        LiveNodeConfig {
            heartbeat_period: HEARTBEAT_PERIOD,
            heartbeat_rpc_timeout: HEARTBEAT_RPC_TIMEOUT,
            threads: 1,
            serve_faults: None,
            pool_workers: 256,
            pool_queue_cap: 0,
            busy_retry_ms: 250,
        }
    }
}

/// A counting semaphore built on `Mutex` + `Condvar`: frames queue on
/// the node's core permits so probing observes real contention.
struct Semaphore {
    permits: Mutex<u32>,
    available: Condvar,
}

impl Semaphore {
    fn new(permits: u32) -> Self {
        Semaphore {
            permits: Mutex::new(permits),
            available: Condvar::new(),
        }
    }

    fn acquire(&self) -> SemaphoreGuard<'_> {
        let mut permits = self.permits.lock().expect("not poisoned");
        while *permits == 0 {
            permits = self.available.wait(permits).expect("not poisoned");
        }
        *permits -= 1;
        SemaphoreGuard { sem: self }
    }
}

struct SemaphoreGuard<'a> {
    sem: &'a Semaphore,
}

impl Drop for SemaphoreGuard<'_> {
    fn drop(&mut self) {
        let mut permits = self.sem.permits.lock().expect("not poisoned");
        *permits += 1;
        self.sem.available.notify_one();
    }
}

struct NodeState {
    cfg: NodeConfig,
    /// `cores` permits: frames queue here, so probing observes real
    /// contention.
    execution: Semaphore,
    seq: Mutex<u64>,
    attached: Mutex<std::collections::HashSet<u64>>,
    /// Cached what-if measurement, µs (0 = not yet measured).
    whatif_us: AtomicU64,
    /// Most recent live-frame processing time, µs.
    current_us: AtomicU64,
    /// A refresh thread is alive: sleeping out the post-join delay,
    /// queued on the cores or running (further triggers coalesce).
    refresh_pending: AtomicBool,
    test_invocations: AtomicU64,
    frames_processed: AtomicU64,
    /// Heavy requests refused with `Busy` because the blocking pool
    /// was saturated.
    sheds: AtomicU64,
    /// `retry_after_ms` suggested in `Busy` responses.
    busy_retry_ms: u64,
    tracer: Tracer,
    /// Outbound codec for the manager link (inbound auto-detects).
    wire: WireConfig,
}

/// A running live edge node.
///
/// Registers with the manager, heartbeats off the reactor's timer
/// wheel, and serves the Table I APIs over TCP plus datagram probes
/// over UDP — all on a small set of event-loop threads. Dropping the
/// handle severs the listener and every open connection — which is
/// exactly how an abrupt volunteer departure looks to its clients.
pub struct LiveNode {
    state: Arc<NodeState>,
    reactor: Reactor,
}

impl LiveNode {
    /// Binds to an ephemeral localhost port, optionally registering with
    /// a manager (and heartbeating thereafter).
    ///
    /// # Errors
    ///
    /// Propagates socket errors and registration I/O failures.
    pub fn bind(
        cfg: NodeConfig,
        manager_addr: Option<SocketAddr>,
    ) -> std::io::Result<(LiveNode, SocketAddr)> {
        LiveNode::bind_traced(cfg, manager_addr, Tracer::disabled())
    }

    /// [`LiveNode::bind`] with a structured-event tracer attached;
    /// what-if cache refreshes are emitted with wall-clock timestamps.
    ///
    /// # Errors
    ///
    /// Propagates socket errors and registration I/O failures.
    pub fn bind_traced(
        cfg: NodeConfig,
        manager_addr: Option<SocketAddr>,
        tracer: Tracer,
    ) -> std::io::Result<(LiveNode, SocketAddr)> {
        LiveNode::bind_with(cfg, LiveNodeConfig::default(), manager_addr, tracer)
    }

    /// Binds with explicit server timing/sizing configuration — the
    /// fully-general constructor behind [`LiveNode::bind`] and
    /// [`LiveNode::bind_traced`].
    ///
    /// # Errors
    ///
    /// Propagates socket errors and registration I/O failures.
    pub fn bind_with(
        cfg: NodeConfig,
        live: LiveNodeConfig,
        manager_addr: Option<SocketAddr>,
        tracer: Tracer,
    ) -> std::io::Result<(LiveNode, SocketAddr)> {
        let (listener, udp) = bind_paired()?;
        let addr = listener.local_addr()?;
        let state = Arc::new(NodeState {
            execution: Semaphore::new(cfg.hw.concurrency()),
            seq: Mutex::new(0),
            attached: Mutex::new(Default::default()),
            whatif_us: AtomicU64::new(0),
            current_us: AtomicU64::new(0),
            refresh_pending: AtomicBool::new(false),
            test_invocations: AtomicU64::new(0),
            frames_processed: AtomicU64::new(0),
            sheds: AtomicU64::new(0),
            busy_retry_ms: live.busy_retry_ms,
            tracer,
            wire: WireConfig::from_env(),
            cfg,
        });
        let reactor = Reactor::new(ReactorConfig {
            threads: live.threads.max(1),
            write_stall_timeout: SERVE_WRITE_TIMEOUT,
            pool_max: live.pool_workers.max(1),
            pool_queue_cap: live.pool_queue_cap,
            ..ReactorConfig::default()
        })?;
        let handle = reactor.handle();

        let conn_state = Arc::clone(&state);
        let faults = live.serve_faults.clone();
        let factory: AcceptFactory = Box::new(move |stream, _peer| {
            let _ = stream.set_nodelay(true);
            let io: Box<dyn Source> = match &faults {
                None => Box::new(stream),
                Some(f) => f.wrap(stream),
            };
            let conn = NodeConn {
                state: Arc::clone(&conn_state),
            };
            Some((io, Box::new(conn) as Box<dyn Conn>))
        });
        handle.add_listener(listener, factory)?;

        // The probe responder is purely readiness-driven: a datagram
        // wakes the loop, zero-delay probes answer inline, simulated
        // geography offloads its sleeps to the pool. No poll tick.
        let udp_state = Arc::clone(&state);
        let udp_handler: UdpHandler = Box::new(move |datagram, peer, socket, handle| {
            serve_datagram(datagram, peer, socket, handle, &udp_state);
        });
        handle.add_udp(udp, udp_handler)?;

        if let Some(mgr) = manager_addr {
            // Initial registration happens synchronously so callers
            // can discover the node as soon as bind returns.
            let mut stream = TcpStream::connect(mgr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(live.heartbeat_rpc_timeout))?;
            stream.set_write_timeout(Some(live.heartbeat_rpc_timeout))?;
            write_request(
                &mut stream,
                state.wire.codec,
                &Request::Register {
                    status: status_of(&state),
                    listen_addr: addr.to_string(),
                },
            )?;
            let _ = read_response(&mut stream).map_err(std::io::Error::from)?;
            // Hand the registered link to the reactor: heartbeats run
            // off the timer wheel from here on.
            stream.set_nonblocking(true)?;
            handle.add_source(
                Box::new(stream),
                Box::new(HbConn {
                    state: Arc::clone(&state),
                    manager: mgr,
                    listen_addr: addr,
                    period: live.heartbeat_period,
                    rpc_timeout: live.heartbeat_rpc_timeout,
                    phase: HbPhase::Idle,
                    established: true,
                    attempt: 0,
                }),
            );
        }

        Ok((LiveNode { state, reactor }, addr))
    }

    /// Number of test-workload invocations so far.
    pub fn test_invocations(&self) -> u64 {
        self.state.test_invocations.load(Ordering::Relaxed)
    }

    /// Number of live frames fully processed.
    pub fn frames_processed(&self) -> u64 {
        self.state.frames_processed.load(Ordering::Relaxed)
    }

    /// Heavy requests refused with `Busy` because the blocking pool
    /// was saturated.
    pub fn busy_count(&self) -> u64 {
        self.state.sheds.load(Ordering::Relaxed)
    }

    /// Currently attached users.
    pub fn attached_count(&self) -> usize {
        self.state.attached.lock().expect("not poisoned").len()
    }

    /// Abruptly terminates the node: the event loops stop, severing the
    /// listener, every open connection and the heartbeat link — a
    /// volunteer departing "anytime without notifications".
    pub fn shutdown(&self) {
        self.reactor.shutdown();
    }
}

/// One accepted connection's protocol state. Cheap requests (probes,
/// joins, leaves on a zero-delay node) are answered inline on the loop
/// thread; frames — which hold a core for the base frame time — and
/// any request on a node with simulated geographic delay offload to
/// the blocking pool, with reads paused so per-connection request
/// order is preserved.
struct NodeConn {
    state: Arc<NodeState>,
}

impl Conn for NodeConn {
    fn on_frame(&mut self, frame: Vec<u8>, ctx: &mut ConnCtx) {
        // The codec is detected per request and the reply echoes it, so
        // one node serves JSON and binary clients simultaneously.
        let Ok((request, codec)) = decode_request(&frame) else {
            ctx.close();
            return;
        };
        let delay = self.state.cfg.one_way_delay;
        let heavy = !delay.is_zero() || matches!(request, Request::Frame { .. });
        if !heavy {
            let response = handle_request(request, &self.state);
            ctx.send(codec.encode_response(&response));
            return;
        }
        let state = Arc::clone(&self.state);
        let id = ctx.conn_id();
        let handle = ctx.handle().clone();
        let queued = ctx.handle().pool().try_spawn(move || {
            // Inbound leg of the artificial geographic delay.
            std::thread::sleep(delay);
            let response = handle_request(request, &state);
            // Outbound leg.
            std::thread::sleep(delay);
            handle.send(id, codec.encode_response(&response));
            handle.resume(id);
        });
        if queued.is_ok() {
            // Pause only once the job is accepted: the connection's
            // later frames wait their turn, preserving per-connection
            // request order through the offload.
            ctx.pause();
        } else {
            // Pool saturated: refuse instead of queueing without bound.
            // No pause — the reply goes out now and the connection
            // keeps reading, so a refusal can never hang the peer.
            self.state.sheds.fetch_add(1, Ordering::Relaxed);
            let retry_after_ms = self.state.busy_retry_ms;
            self.state.tracer.emit(Severity::Debug, "node.shed", || {
                vec![
                    ("node", u(self.state.cfg.id)),
                    ("retry_after_ms", u(retry_after_ms)),
                ]
            });
            ctx.send(codec.encode_response(&Response::Busy { retry_after_ms }));
        }
    }

    fn on_close(&mut self, err: Option<&std::io::Error>, _handle: &Handle) {
        if let Some(reason) = crate::manager::evict_reason(err) {
            self.state
                .tracer
                .emit(Severity::Warn, "overload.evict", || {
                    vec![
                        ("node", u(self.state.cfg.id)),
                        ("reason", armada_trace::s(reason)),
                    ]
                });
        }
    }
}

/// Serves one probe datagram: decoded, answered through
/// [`handle_request`] in its arrival codec, and delayed by the same
/// two [`NodeConfig::one_way_delay`] legs as the TCP path — so a UDP
/// RTT measures the same simulated geography, minus the transport
/// overhead. Zero-delay probes answer inline on the loop thread;
/// delayed ones offload so a far node's sleep never queues behind
/// another client's probe.
fn serve_datagram(
    datagram: &[u8],
    peer: SocketAddr,
    socket: &Arc<UdpSocket>,
    handle: &Handle,
    state: &Arc<NodeState>,
) {
    let Ok((request, codec)) = decode_request(datagram) else {
        return; // corrupt datagram: probes are best-effort
    };
    let delay = state.cfg.one_way_delay;
    if delay.is_zero() && !matches!(request, Request::Frame { .. }) {
        let response = handle_request(request, state);
        let _ = socket.send_to(&codec.encode_response(&response), peer);
        return;
    }
    let state = Arc::clone(state);
    let socket = Arc::clone(socket);
    handle.pool().spawn(move || {
        std::thread::sleep(delay);
        let response = handle_request(request, &state);
        std::thread::sleep(delay);
        let _ = socket.send_to(&codec.encode_response(&response), peer);
    });
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum HbPhase {
    /// Between heartbeats; the pending timer is the period.
    Idle,
    /// A heartbeat is in flight; the pending timer is the RPC budget.
    AwaitingHeartbeat,
    /// An in-place re-registration is in flight (the manager answered
    /// a heartbeat with an error: restart, eviction).
    AwaitingReregister,
    /// A fresh-link registration is in flight (reconnect after loss).
    AwaitingRegister,
}

/// Keeps the manager link alive for the node's lifetime: heartbeats
/// every period off the timer wheel, re-registers in place when the
/// manager answers with an error (a restarted manager has forgotten
/// us), and redials under [`HEARTBEAT_RECONNECT`] backoff when the
/// link dies outright. Reactor shutdown tears connections down without
/// callbacks, so reconnection never fights a node shutdown.
struct HbConn {
    state: Arc<NodeState>,
    manager: SocketAddr,
    listen_addr: SocketAddr,
    period: Duration,
    rpc_timeout: Duration,
    phase: HbPhase,
    /// The link has served at least one successful registration; loss
    /// of an established link traces `node.heartbeat.lost` (once per
    /// outage, not once per failed redial).
    established: bool,
    /// Redial attempt index within the current outage.
    attempt: u32,
}

impl HbConn {
    fn register_body(&self) -> Vec<u8> {
        self.state.wire.codec.encode_request(&Request::Register {
            status: status_of(&self.state),
            listen_addr: self.listen_addr.to_string(),
        })
    }

    fn heartbeat_body(&self) -> Vec<u8> {
        self.state.wire.codec.encode_request(&Request::Heartbeat {
            status: status_of(&self.state),
        })
    }
}

impl Conn for HbConn {
    fn on_connected(&mut self, ctx: &mut ConnCtx) {
        if self.established {
            // The adopted initial link is already registered: first
            // heartbeat one period from now.
            ctx.set_timer(self.period);
        } else {
            // A redialed link registers before anything else.
            ctx.send(self.register_body());
            self.phase = HbPhase::AwaitingRegister;
            ctx.set_timer(self.rpc_timeout);
        }
    }

    fn on_timer(&mut self, ctx: &mut ConnCtx) {
        match self.phase {
            HbPhase::Idle => {
                ctx.send(self.heartbeat_body());
                self.phase = HbPhase::AwaitingHeartbeat;
                ctx.set_timer(self.rpc_timeout);
            }
            // An RPC blew its budget: a silently partitioned manager
            // must fail the heartbeat rather than hang it forever.
            _ => ctx.close(),
        }
    }

    fn on_frame(&mut self, frame: Vec<u8>, ctx: &mut ConnCtx) {
        let Ok((response, _)) = decode_response(&frame) else {
            ctx.close();
            return;
        };
        match self.phase {
            HbPhase::AwaitingHeartbeat => {
                if matches!(response, Response::Error { .. }) {
                    // The manager is up but no longer knows this node
                    // (restart, eviction): re-register on the same
                    // link.
                    self.state
                        .tracer
                        .emit(Severity::Warn, "node.heartbeat.reregister", || {
                            vec![("node", u(self.state.cfg.id))]
                        });
                    ctx.send(self.register_body());
                    self.phase = HbPhase::AwaitingReregister;
                    ctx.set_timer(self.rpc_timeout);
                } else {
                    self.phase = HbPhase::Idle;
                    ctx.set_timer(self.period);
                }
            }
            // The in-place re-registration outcome is not inspected
            // (matching the original loop): the next heartbeat probes
            // the result either way.
            HbPhase::AwaitingReregister => {
                self.phase = HbPhase::Idle;
                ctx.set_timer(self.period);
            }
            HbPhase::AwaitingRegister => {
                self.state
                    .tracer
                    .emit(Severity::Info, "node.heartbeat.reconnected", || {
                        vec![
                            ("node", u(self.state.cfg.id)),
                            ("attempts", u(u64::from(self.attempt) + 1)),
                        ]
                    });
                self.established = true;
                self.attempt = 0;
                self.phase = HbPhase::Idle;
                ctx.set_timer(self.period);
            }
            HbPhase::Idle => {} // stray frame: ignore
        }
    }

    fn on_close(&mut self, _err: Option<&std::io::Error>, handle: &Handle) {
        if handle.is_shutdown() {
            return;
        }
        let attempt = if self.established {
            self.state
                .tracer
                .emit(Severity::Warn, "node.heartbeat.lost", || {
                    vec![("node", u(self.state.cfg.id))]
                });
            0
        } else {
            self.attempt.saturating_add(1)
        };
        // Redial under capped jittered backoff until the manager
        // answers a fresh registration.
        let delay = HEARTBEAT_RECONNECT.delay(attempt, self.state.cfg.id);
        let next = HbConn {
            state: Arc::clone(&self.state),
            manager: self.manager,
            listen_addr: self.listen_addr,
            period: self.period,
            rpc_timeout: self.rpc_timeout,
            phase: HbPhase::Idle,
            established: false,
            attempt,
        };
        let manager = self.manager;
        let rpc_timeout = self.rpc_timeout;
        handle.timer_after(delay, move |h| {
            h.connect(manager, rpc_timeout, Box::new(next));
        });
    }
}

fn status_of(state: &NodeState) -> WireNodeStatus {
    let attached = state.attached.lock().expect("not poisoned").len();
    WireNodeStatus {
        id: state.cfg.id,
        class: state.cfg.class,
        location: state.cfg.location,
        attached_users: attached,
        load_score: offered_load(&state.cfg.hw, attached, 20.0),
    }
}

/// Executes one frame's worth of work: queue on the core semaphore,
/// then hold a core for the base frame time. Returns total elapsed
/// (queueing + execution).
fn execute_frame(state: &NodeState) -> Duration {
    let started = Instant::now();
    let _permit = state.execution.acquire();
    std::thread::sleep(Duration::from_micros(
        state.cfg.hw.base_frame_time().as_micros(),
    ));
    started.elapsed()
}

/// Schedules a what-if refresh `after` from now. The claim on
/// `refresh_pending` is taken *before* spawning, so at most one refresh
/// thread is alive per node: triggers that land while one is sleeping
/// out its post-join delay, queued on the cores or running coalesce
/// into it, and a join/leave storm costs one thread, not one per RPC.
fn trigger_refresh(state: &Arc<NodeState>, after: Duration) {
    if state.refresh_pending.swap(true, Ordering::AcqRel) {
        return;
    }
    let refresh_state = Arc::clone(state);
    let spawned = std::thread::Builder::new().spawn(move || {
        std::thread::sleep(after);
        run_test_workload(&refresh_state);
    });
    if spawned.is_err() {
        // Out of threads: skip this refresh rather than panic the
        // handler, and release the claim so a later trigger can retry.
        state.refresh_pending.store(false, Ordering::Release);
    }
}

/// Runs the synthetic test workload and refreshes the what-if cache,
/// then releases the claim [`trigger_refresh`] took.
fn run_test_workload(state: &NodeState) {
    state.test_invocations.fetch_add(1, Ordering::Relaxed);
    let elapsed = execute_frame(state);
    state
        .whatif_us
        .store(elapsed.as_micros() as u64, Ordering::Relaxed);
    state.refresh_pending.store(false, Ordering::Release);
    state
        .tracer
        .emit(Severity::Debug, "node.whatif.refresh", || {
            vec![
                ("node", u(state.cfg.id)),
                ("after_us", u(elapsed.as_micros() as u64)),
            ]
        });
}

/// Binds the TCP listener and a UDP socket on the *same* port, so one
/// advertised `listen_addr` serves both stream RPCs and datagram
/// probes. TCP and UDP port spaces are disjoint, so pairing nearly
/// always succeeds first try; a loop covers the unlucky case where the
/// chosen UDP port is taken.
fn bind_paired() -> std::io::Result<(TcpListener, UdpSocket)> {
    let mut last_err = None;
    for _ in 0..16 {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let port = listener.local_addr()?.port();
        match UdpSocket::bind(("127.0.0.1", port)) {
            Ok(udp) => return Ok((listener, udp)),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.unwrap_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::AddrInUse, "no pairable udp port")
    }))
}

fn handle_request(request: Request, state: &Arc<NodeState>) -> Response {
    match request {
        Request::RttProbe => Response::RttPong,
        Request::ProcessProbe => {
            let seq = *state.seq.lock().expect("not poisoned");
            let attached = state.attached.lock().expect("not poisoned").len();
            let base_us = state.cfg.hw.base_frame_time().as_micros();
            let whatif = state.whatif_us.load(Ordering::Relaxed);
            let current = state.current_us.load(Ordering::Relaxed);
            Response::ProbeReply {
                whatif_us: if whatif == 0 { base_us } else { whatif },
                current_us: if current == 0 { base_us } else { current },
                attached,
                seq,
            }
        }
        Request::Join {
            user,
            seq: presented,
        } => {
            let mut seq = state.seq.lock().expect("not poisoned");
            if *seq != presented {
                return Response::JoinResult { accepted: false };
            }
            *seq += 1;
            drop(seq);
            state.attached.lock().expect("not poisoned").insert(user);
            // Refresh the what-if after the new user's traffic starts
            // (the paper delays by ~2× the common RTT).
            trigger_refresh(state, state.cfg.one_way_delay * 4);
            Response::JoinResult { accepted: true }
        }
        Request::UnexpectedJoin { user } => {
            *state.seq.lock().expect("not poisoned") += 1;
            state.attached.lock().expect("not poisoned").insert(user);
            trigger_refresh(state, Duration::ZERO);
            Response::Ack
        }
        Request::Leave { user } => {
            let removed = state.attached.lock().expect("not poisoned").remove(&user);
            if removed {
                *state.seq.lock().expect("not poisoned") += 1;
                trigger_refresh(state, Duration::ZERO);
            }
            Response::Ack
        }
        Request::Frame { seq, .. } => {
            let elapsed = execute_frame(state);
            let elapsed_us = elapsed.as_micros() as u64;
            state.current_us.store(elapsed_us, Ordering::Relaxed);
            state.frames_processed.fetch_add(1, Ordering::Relaxed);
            // The paper's third test-workload trigger: the performance
            // monitor notices live processing drifting away from the
            // cached what-if (e.g. competing host load) and refreshes it.
            let whatif = state.whatif_us.load(Ordering::Relaxed);
            if whatif > 0 {
                let drift = (elapsed_us as f64 - whatif as f64).abs() / whatif as f64;
                if drift > 0.25 {
                    *state.seq.lock().expect("not poisoned") += 1;
                    trigger_refresh(state, Duration::ZERO);
                }
            }
            Response::FrameResult {
                seq,
                processing_us: elapsed_us,
            }
        }
        other => Response::Error {
            message: format!("node cannot serve {other:?}"),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(id: u64, cores: u32, frame_ms: f64, delay_ms: u64) -> NodeConfig {
        NodeConfig {
            id,
            class: NodeClass::Volunteer,
            hw: HardwareProfile::new("test", cores, frame_ms).with_concurrency(cores),
            location: GeoPoint::new(44.98, -93.26),
            one_way_delay: Duration::from_millis(delay_ms),
        }
    }

    fn rpc(stream: &mut TcpStream, req: Request) -> Response {
        write_request(stream, armada_wire::Codec::Json, &req).unwrap();
        read_response(stream).unwrap().0
    }

    #[test]
    fn probe_join_leave_cycle() {
        let (node, addr) = LiveNode::bind(config(1, 4, 5.0, 0), None).unwrap();
        let mut stream = TcpStream::connect(addr).unwrap();
        let reply = rpc(&mut stream, Request::ProcessProbe);
        let seq = match reply {
            Response::ProbeReply {
                seq,
                attached,
                whatif_us,
                ..
            } => {
                assert_eq!(attached, 0);
                assert_eq!(whatif_us, 5_000, "fallback is the base frame time");
                seq
            }
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(
            rpc(&mut stream, Request::Join { user: 7, seq }),
            Response::JoinResult { accepted: true }
        );
        assert_eq!(node.attached_count(), 1);
        // Stale sequence numbers are rejected (Algorithm 1).
        assert_eq!(
            rpc(&mut stream, Request::Join { user: 8, seq }),
            Response::JoinResult { accepted: false }
        );
        assert_eq!(rpc(&mut stream, Request::Leave { user: 7 }), Response::Ack);
        assert_eq!(node.attached_count(), 0);
    }

    #[test]
    fn frames_take_at_least_base_time() {
        let (_node, addr) = LiveNode::bind(config(1, 2, 8.0, 0), None).unwrap();
        let mut stream = TcpStream::connect(addr).unwrap();
        let started = Instant::now();
        let reply = rpc(
            &mut stream,
            Request::Frame {
                user: 1,
                seq: 0,
                payload_len: 20_000,
            },
        );
        let elapsed = started.elapsed();
        match reply {
            Response::FrameResult { seq, processing_us } => {
                assert_eq!(seq, 0);
                assert!(processing_us >= 8_000, "processing {processing_us}µs");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(elapsed >= Duration::from_millis(8));
    }

    #[test]
    fn artificial_delay_shows_in_rtt() {
        let (_node, addr) = LiveNode::bind(config(1, 2, 1.0, 10), None).unwrap();
        let mut stream = TcpStream::connect(addr).unwrap();
        let started = Instant::now();
        let reply = rpc(&mut stream, Request::RttProbe);
        assert_eq!(reply, Response::RttPong);
        assert!(
            started.elapsed() >= Duration::from_millis(20),
            "two legs of 10 ms each"
        );
    }

    /// The production timing constants must survive the configurability
    /// refactor: a default config is the paper deployment, exactly.
    #[test]
    fn default_config_keeps_the_paper_timings() {
        let cfg = LiveNodeConfig::default();
        assert_eq!(cfg.heartbeat_period, Duration::from_secs(2));
        assert_eq!(cfg.heartbeat_rpc_timeout, Duration::from_secs(5));
        assert!(cfg.serve_faults.is_none());
    }

    /// A node whose manager link dies must reconnect and re-register;
    /// the old heartbeat loop broke permanently on the first error, so
    /// any manager blip silently orphaned a perfectly healthy node
    /// once its registration aged past the liveness window. Runs with
    /// shrunken heartbeat/liveness timings so the whole
    /// loss → redial → re-register cycle takes ~2 s instead of ~7 s.
    #[test]
    fn heartbeat_survives_a_manager_partition() {
        use crate::manager::{LiveManager, LiveManagerConfig};
        use armada_chaos::{ChaosProxy, LinkFaults};

        let window = Duration::from_millis(1_500);
        let mgr_cfg = LiveManagerConfig {
            liveness_window: window,
            ..LiveManagerConfig::default()
        };
        let (mgr, mgr_addr) = LiveManager::bind_with(mgr_cfg, 0, Tracer::disabled()).unwrap();
        let proxy = ChaosProxy::spawn(mgr_addr, LinkFaults::NONE, 21).unwrap();
        let live = LiveNodeConfig {
            heartbeat_period: Duration::from_millis(300),
            heartbeat_rpc_timeout: Duration::from_millis(500),
            ..LiveNodeConfig::default()
        };
        let (_node, _) = LiveNode::bind_with(
            config(9, 2, 5.0, 0),
            live,
            Some(proxy.addr()),
            Tracer::disabled(),
        )
        .unwrap();
        assert_eq!(mgr.alive_count(), 1);

        // Cut the node↔manager link long enough for a heartbeat to
        // fail, then heal it; the node must redial and re-register.
        proxy.set_partitioned(true);
        std::thread::sleep(Duration::from_millis(700));
        proxy.set_partitioned(false);

        // Well past the liveness window only resumed heartbeats keep
        // the registration fresh.
        std::thread::sleep(window + Duration::from_millis(100));
        assert_eq!(mgr.alive_count(), 1, "node must have re-registered");
    }

    /// OS threads in this process, from `/proc/self/status`.
    fn process_threads() -> usize {
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        let line = status.lines().find(|l| l.starts_with("Threads:")).unwrap();
        line["Threads:".len()..].trim().parse().unwrap()
    }

    /// Regression: every `Join`, `UnexpectedJoin`, `Leave` and drifted
    /// `Frame` used to spawn an OS thread and only coalesce inside it,
    /// so a join/leave storm was a thread bomb outside the blocking
    /// pool's accounting (here: a hundred threads asleep in their
    /// post-join delay at once). Requests go straight to the handler;
    /// the wire adds nothing to what is checked.
    #[test]
    fn a_join_leave_storm_costs_one_refresh_thread() {
        let (node, _) = LiveNode::bind(config(1, 2, 5.0, 50), None).unwrap();
        let state = &node.state;
        // Every core permit held: a refresh that starts cannot finish.
        let _cores: Vec<_> = (0..2).map(|_| state.execution.acquire()).collect();
        let before = process_threads();
        for user in 0..100u64 {
            let seq = *state.seq.lock().unwrap();
            assert_eq!(
                handle_request(Request::Join { user, seq }, state),
                Response::JoinResult { accepted: true }
            );
            assert_eq!(
                handle_request(Request::Leave { user }, state),
                Response::Ack
            );
        }
        // Other tests of this binary run in parallel, so "flat" has to
        // leave them room; the storm alone used to add a hundred.
        let after = process_threads();
        assert!(
            after < before + 50,
            "200 triggers grew the process from {before} to {after} threads"
        );
        // The one claimed refresh sleeps out the post-join delay, counts
        // itself and queues on the held cores; nothing else ever starts.
        let deadline = Instant::now() + Duration::from_secs(5);
        while node.test_invocations() == 0 {
            assert!(Instant::now() < deadline, "the claimed refresh never ran");
            std::thread::sleep(Duration::from_millis(10));
        }
        std::thread::sleep(Duration::from_millis(300));
        assert_eq!(node.test_invocations(), 1);
    }

    #[test]
    fn contention_inflates_whatif() {
        let (node, addr) = LiveNode::bind(config(1, 1, 20.0, 0), None).unwrap();
        // Saturate the single core with frames from several connections.
        let mut tasks = Vec::new();
        for user in 0..4u64 {
            let mut s = TcpStream::connect(addr).unwrap();
            tasks.push(std::thread::spawn(move || {
                let _ = rpc(
                    &mut s,
                    Request::Frame {
                        user,
                        seq: 0,
                        payload_len: 20_000,
                    },
                );
            }));
        }
        // Trigger a test workload while the queue is full.
        let mut stream = TcpStream::connect(addr).unwrap();
        let _ = rpc(&mut stream, Request::UnexpectedJoin { user: 99 });
        for t in tasks {
            t.join().unwrap();
        }
        // Wait for the test workload to drain through the queue.
        std::thread::sleep(Duration::from_millis(200));
        assert!(node.test_invocations() >= 1);
        let reply = rpc(&mut stream, Request::ProcessProbe);
        match reply {
            Response::ProbeReply { whatif_us, .. } => {
                assert!(
                    whatif_us > 20_000,
                    "queued behind live frames: what-if {whatif_us}µs must exceed base"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// The probe responder is readiness-driven: a cold UDP probe must
    /// answer promptly, nowhere near the old 250 ms poll tick it
    /// replaced.
    #[test]
    fn udp_probe_answers_without_a_poll_tick() {
        let (_node, addr) = LiveNode::bind(config(1, 2, 5.0, 0), None).unwrap();
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        socket
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let probe = armada_wire::Codec::Binary.encode_request(&Request::RttProbe);
        let mut buf = [0u8; 2048];
        let mut worst = Duration::ZERO;
        for _ in 0..5 {
            let started = Instant::now();
            socket.send_to(&probe, addr).unwrap();
            let (n, _) = socket.recv_from(&mut buf).unwrap();
            worst = worst.max(started.elapsed());
            let (response, _) = decode_response(&buf[..n]).unwrap();
            assert_eq!(response, Response::RttPong);
        }
        assert!(
            worst < Duration::from_millis(100),
            "evented responder must answer promptly, worst {worst:?}"
        );
    }
}
