//! The live edge-node server: a reactor **driver** around the sans-IO
//! [`armada_node::EdgeNode`], the state machine the simulator runs.
//!
//! Everything the paper's node decides (Table I, Algorithm 1, the
//! what-if cache and its triggers, processor-shared frame execution)
//! lives in `armada-node`, and so does the step from a request to the
//! core method it names: [`armada_node::serve`], which the simulator
//! calls too. This file moves bytes and time: it hands each request to
//! `serve` with `Instant` mapped to [`SimTime`] and interprets the
//! [`NodeAction`]s that come back, as `armada-core`'s runner does in
//! virtual time. No thread is parked or spawned per request: waits are
//! reactor timers.

use std::net::{SocketAddr, TcpListener, UdpSocket};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use armada_node::{serve, EdgeNode, Narrator, NodeAction};
use armada_reactor::{
    AcceptFactory, Conn, ConnCtx, ConnId, Handle, Reactor, ReactorConfig, Source, UdpHandler,
};
use armada_trace::{u, Severity, Tracer};
use armada_types::{
    GeoPoint, HardwareProfile, NodeClass, NodeId, SimDuration, SimTime, SystemConfig,
};

use armada_wire::{decode_request, Codec, Request, Response};

use crate::manager::BUSY_RETRY_MS;

mod heartbeat;
use heartbeat::{HbConn, HbPhase};

/// Budget on each manager-link RPC (connect, write, ack read): a
/// silently partitioned manager must fail the heartbeat rather than
/// hang it forever.
pub(crate) const HEARTBEAT_RPC_TIMEOUT: Duration = Duration::from_secs(5);

/// The spin threshold: a reply due sooner than this (the kernel's
/// default timer slack, the finest a blocking wait resolves) is waited
/// for on the loop thread, re-reading the clock until its ledger
/// instant; anything later arms a reactor timer.
const SPIN_BELOW: Duration = Duration::from_micros(50);

/// Configuration of one live edge node.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Node identity.
    pub id: u64,
    /// Node class.
    pub class: NodeClass,
    /// Hardware profile: the frame concurrency is the number of cores
    /// frames share, the base frame time is one frame's work on a core
    /// of its own.
    pub hw: HardwareProfile,
    /// Advertised position.
    pub location: GeoPoint,
    /// Artificial one-way network delay, standing in for geographic
    /// distance on localhost. Applied once per direction per request.
    pub one_way_delay: Duration,
}

/// Timing and sizing knobs of one [`LiveNode`]'s server runtime.
///
/// The default reproduces the paper deployment's heartbeat period, the
/// simulator's (`SystemConfig::default()`, 2 s); tests shrink it so heartbeat-driven transitions happen in
/// milliseconds.
#[derive(Clone)]
pub struct LiveNodeConfig {
    /// Heartbeat period toward the manager.
    pub heartbeat_period: Duration,
    /// Bound on requests admitted and not yet answered — executing or
    /// inside a simulated-geography delay. At or above it a heavy
    /// request (a frame, or anything on a node with a delay) is
    /// answered `Busy` at once instead of being admitted (`0` =
    /// unbounded).
    pub max_in_flight: usize,
}

impl Default for LiveNodeConfig {
    fn default() -> Self {
        let period = SystemConfig::default().heartbeat_period;
        LiveNodeConfig {
            heartbeat_period: Duration::from_micros(period.as_micros()),
            max_in_flight: 0,
        }
    }
}

/// Where a request's answer goes.
enum ReplyTo {
    Tcp(ConnId, Codec),
    Udp(Arc<UdpSocket>, SocketAddr, Codec),
}

/// A response ready to leave the core.
type Due = (ReplyTo, Response);

/// What enters the core: a request (its inbound delay leg behind it),
/// a what-if refresh come due, or the ledger wake-up armed for an epoch.
enum Entry {
    Request(Request, ReplyTo),
    Refresh,
    Wakeup(u64),
}

/// The protocol core plus what the driver must remember about it.
struct Core {
    node: EdgeNode,
    /// Frames inside the ledger and who sent each: `(user, seq)`, the
    /// key [`NodeAction::Respond`] names a completion by.
    waiting: Vec<(u64, u64, ReplyTo)>,
    /// The ledger epoch a wake-up timer is pending for, so a burst of
    /// requests against one state arms one timer, not one each.
    armed: Option<u64>,
    /// Replies one [`NodeState::drive`] made answerable, held until it
    /// hands them out; empty between entries, its capacity kept.
    due: Vec<Due>,
    /// The node core's actions, lent to it at each entry; empty between
    /// entries, its capacity kept.
    actions: Vec<NodeAction>,
}

struct NodeState {
    cfg: NodeConfig,
    core: Mutex<Core>,
    /// The wall instant of the core's `SimTime::ZERO`.
    epoch: Instant,
    /// Requests admitted and not yet answered.
    in_flight: AtomicUsize,
    max_in_flight: usize,
    /// Heavy requests refused with `Busy` at the in-flight bound.
    sheds: AtomicU64,
    tracer: Tracer,
}

impl NodeState {
    /// The core's clock: wall microseconds since the node's epoch,
    /// floored — so the core never sees an instant before it happens.
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    fn core(&self) -> std::sync::MutexGuard<'_, Core> {
        self.core.lock().expect("no panic while the core is held")
    }

    /// The core's events, stamped with the tracer's clock.
    fn narrator(&self) -> Narrator<'_> {
        Narrator::at(&self.tracer, self.tracer.now_us())
    }

    /// Emits one of the driver's own `kind`s with this node's id and
    /// `fields`.
    fn trace(&self, severity: Severity, kind: &str, fields: &[(&'static str, u64)]) {
        self.tracer.emit(severity, kind, || {
            let node = [("node", self.cfg.id)];
            let all = node.iter().chain(fields);
            all.map(|&(key, value)| (key, u(value))).collect()
        });
    }

    /// Every entry into the core: a request is served, or one
    /// [`EdgeNode`] method called, at a fresh clock reading, its effects
    /// are interpreted, the next completion is settled, and whatever
    /// became answerable is handed to `reply`, the core still held.
    fn drive(
        self: &Arc<Self>,
        handle: &Handle,
        entry: Entry,
        mut reply: impl FnMut(ReplyTo, Response),
    ) {
        let mut guard = self.core();
        let core = &mut *guard;
        let now = self.now();
        let mut actions = std::mem::take(&mut core.actions);
        match entry {
            Entry::Request(request, from) => {
                let frame = if let Request::Frame { user, seq, .. } = request {
                    Some((user, seq))
                } else {
                    None
                };
                let narrator = self.narrator();
                if let Some(response) = serve(&mut core.node, request, now, narrator, &mut actions)
                {
                    core.due.push((from, response));
                } else if let Some((user, seq)) = frame {
                    // Answered by the `Respond` its completion produces.
                    core.waiting.push((user, seq, from));
                }
            }
            Entry::Refresh => core.node.invoke_test_workload(now, &mut actions),
            Entry::Wakeup(epoch) => {
                // The core drops a stale epoch: whatever changed the
                // ledger armed a timer of its own. A current one that
                // finds nothing due is re-armed below.
                if core.armed == Some(epoch) {
                    core.armed = None;
                }
                core.node.on_wakeup(epoch, now, &mut actions);
            }
        }
        // The buffer is read in order while a zero-delay refresh appends
        // its own actions behind the rest.
        let mut next = 0;
        loop {
            while let Some(action) = actions.get(next).cloned() {
                next += 1;
                match action {
                    NodeAction::Respond(done) => {
                        let key = (done.user.as_u64(), done.seq);
                        if let Some(at) = core.waiting.iter().position(|w| (w.0, w.1) == key) {
                            // Frames are created at admission, so this
                            // is the ledger's `completed_at − admitted`.
                            let processing = done.completed_at.saturating_since(done.created_at);
                            let processing_us = processing.as_micros();
                            let response = Response::FrameResult {
                                seq: done.seq,
                                processing_us,
                            };
                            core.due.push((core.waiting.remove(at).2, response));
                        }
                    }
                    NodeAction::InvokeTestWorkload { after } => {
                        self.narrator().whatif_refresh(core.node.id(), after);
                        if after.is_zero() {
                            core.node.invoke_test_workload(self.now(), &mut actions);
                        } else {
                            let state = Arc::clone(self);
                            let after = Duration::from_micros(after.as_micros());
                            handle.timer_after(after, move |h| state.wake(h, Entry::Refresh));
                        }
                    }
                }
            }
            // The ledger's next completion is never answered early and
            // at most one reactor tick late: a reply due within
            // SPIN_BELOW is waited for here, anything later — or that
            // nobody is waiting for, a what-if refresh — arms a timer.
            let now = self.now();
            let Some((epoch, at)) = core.node.next_wakeup(now) else {
                break;
            };
            let wait = Duration::from_micros(at.saturating_since(now).as_micros());
            if wait >= SPIN_BELOW || core.waiting.is_empty() {
                if core.armed != Some(epoch) {
                    core.armed = Some(epoch);
                    let state = Arc::clone(self);
                    handle.timer_after(wait, move |h| state.wake(h, Entry::Wakeup(epoch)));
                }
                break;
            }
            while self.now() < at {
                std::hint::spin_loop();
            }
            core.node.on_wakeup(epoch, self.now(), &mut actions);
        }
        actions.clear();
        core.actions = actions;
        for (to, response) in core.due.drain(..) {
            reply(to, response);
        }
    }

    /// [`NodeState::drive`] from a reactor timer: no connection to
    /// answer inline, so everything due takes the reply path.
    fn wake(self: &Arc<Self>, handle: &Handle, entry: Entry) {
        self.drive(handle, entry, |to, response| {
            self.answer(handle, to, response)
        });
    }

    /// Takes a request in: counted in flight, then through the inbound
    /// leg of the artificial geographic delay (if any) into the core.
    /// What can be answered at once goes to `reply`.
    fn admit(
        self: &Arc<Self>,
        handle: &Handle,
        request: Request,
        from: ReplyTo,
        reply: impl FnMut(ReplyTo, Response),
    ) {
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        let entry = Entry::Request(request, from);
        let delay = self.cfg.one_way_delay;
        if delay.is_zero() {
            return self.drive(handle, entry, reply);
        }
        let state = Arc::clone(self);
        handle.timer_after(delay, move |h| state.wake(h, entry));
    }

    /// Sends a response on its way: the outbound leg of the artificial
    /// geographic delay, then the wire.
    fn answer(self: &Arc<Self>, handle: &Handle, to: ReplyTo, response: Response) {
        let delay = self.cfg.one_way_delay;
        if delay.is_zero() {
            self.transmit(handle, to, &response);
        } else {
            let state = Arc::clone(self);
            handle.timer_after(delay, move |h| state.transmit(h, to, &response));
        }
    }

    fn transmit(&self, handle: &Handle, to: ReplyTo, response: &Response) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        match to {
            ReplyTo::Tcp(id, codec) => {
                handle.send(id, codec.encode_response(response));
                // The connection stopped reading when this request was
                // admitted; its next one may be dispatched now.
                handle.resume(id);
            }
            ReplyTo::Udp(socket, peer, codec) => {
                let _ = socket.send_to(&codec.encode_response(response), peer);
            }
        }
    }
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
    /// joins, leaves and what-if refreshes are emitted with wall-clock
    /// timestamps.
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
        // The paper refreshes the what-if ~2× the common RTT after a
        // join, so the new user's traffic is already flowing.
        let join_refresh_delay =
            SimDuration::from_micros((cfg.one_way_delay * 4).as_micros() as u64);
        let node = EdgeNode::new(
            NodeId::new(cfg.id),
            cfg.class,
            cfg.hw.clone(),
            cfg.location,
            join_refresh_delay,
            SystemConfig::default().perf_drift_threshold,
        );
        let state = Arc::new(NodeState {
            core: Mutex::new(Core {
                node,
                waiting: Vec::new(),
                armed: None,
                due: Vec::new(),
                actions: Vec::new(),
            }),
            epoch: Instant::now(),
            in_flight: AtomicUsize::new(0),
            max_in_flight: live.max_in_flight,
            sheds: AtomicU64::new(0),
            tracer,
            cfg,
        });
        let reactor = Reactor::new(ReactorConfig {
            threads: 1,
            ..ReactorConfig::default()
        })?;
        let handle = reactor.handle();

        let conn_state = Arc::clone(&state);
        let factory: AcceptFactory = Box::new(move |stream, _peer| {
            let _ = stream.set_nodelay(true);
            let conn = NodeConn {
                state: Arc::clone(&conn_state),
            };
            Some((
                Box::new(stream) as Box<dyn Source>,
                Box::new(conn) as Box<dyn Conn>,
            ))
        });
        handle.add_listener(listener, factory)?;

        // A probe datagram is served like any request, in its arrival
        // codec and through the same two delay legs — so a UDP RTT
        // measures the same simulated geography. Probes are best-effort
        // and never refused; anything else (a join, a frame that the
        // in-flight bound would push back on) or a corrupt one is dropped.
        let udp_state = Arc::clone(&state);
        let udp_handler: UdpHandler = Box::new(move |datagram, peer, socket, handle| {
            let Ok((request, codec)) = decode_request(datagram) else {
                return;
            };
            if matches!(request, Request::RttProbe | Request::ProcessProbe) {
                let from = ReplyTo::Udp(Arc::clone(socket), peer, codec);
                udp_state.admit(handle, request, from, |to, response| {
                    udp_state.answer(handle, to, response);
                });
            }
        });
        handle.add_udp(udp, udp_handler)?;

        if let Some(mgr) = manager_addr {
            // The node registers over the reactor link that heartbeats
            // and redials from then on, and `bind` waits for the
            // manager's first reply, so callers can discover the node
            // as soon as it returns. A black-holed manager costs one RPC
            // budget per step (connect, reply), not the OS timeout.
            let (boot, registered) = mpsc::channel();
            let link = HbConn {
                state: Arc::clone(&state),
                manager: mgr,
                listen_addr: addr,
                period: live.heartbeat_period,
                phase: HbPhase::Idle,
                established: false,
                attempt: 0,
                boot: Some(boot),
            };
            handle.connect(mgr, HEARTBEAT_RPC_TIMEOUT, Box::new(link));
            registered
                .recv()
                .map_err(|_| std::io::Error::other("node stopped before registering"))??;
        }

        Ok((LiveNode { state, reactor }, addr))
    }

    /// Number of test-workload invocations so far.
    pub fn test_invocations(&self) -> u64 {
        self.state.core().node.stats().test_invocations
    }

    /// Number of live frames fully processed.
    pub fn frames_processed(&self) -> u64 {
        self.state.core().node.stats().frames_processed
    }

    /// Heavy requests refused with `Busy` because the node was at its
    /// in-flight bound.
    pub fn busy_count(&self) -> u64 {
        self.state.sheds.load(Ordering::Relaxed)
    }

    /// Currently attached users.
    pub fn attached_count(&self) -> usize {
        self.state.core().node.attached_count()
    }

    /// Abruptly terminates the node: the event loops stop, severing the
    /// listener, every open connection and the heartbeat link — a
    /// volunteer departing "anytime without notifications".
    pub fn shutdown(&self) {
        self.reactor.shutdown();
    }
}

/// One accepted connection. A request on a zero-delay node is handed
/// to the core on the loop thread and, unless it is a frame whose
/// completion lies a timer away, answered before `on_frame` returns. A
/// frame that has to wait and every request on a node with simulated
/// geography stop the connection's reads until the reply leaves, so
/// per-connection request order is preserved.
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
        // The request's bytes are spent: its buffer carries the reply.
        let mut body = Some(frame);
        let mut reply_here = |ctx: &mut ConnCtx, codec: Codec, response: &Response| {
            let mut reply = body.take().unwrap_or_default();
            reply.clear();
            codec.encode_response_into(response, &mut reply);
            ctx.send(reply);
        };
        let state = &self.state;
        let heavy = !state.cfg.one_way_delay.is_zero() || matches!(request, Request::Frame { .. });
        let bound = state.max_in_flight;
        if heavy && bound > 0 && state.in_flight.load(Ordering::Relaxed) >= bound {
            // Refuse instead of queueing without bound. No pause — the
            // reply goes out now and the connection keeps reading, so
            // a refusal can never hang the peer.
            state.sheds.fetch_add(1, Ordering::Relaxed);
            let retry_after_ms = BUSY_RETRY_MS;
            let fields = [("retry_after_ms", retry_after_ms)];
            state.trace(Severity::Debug, "node.shed", &fields);
            reply_here(ctx, codec, &Response::Busy { retry_after_ms });
            return;
        }
        let id = ctx.conn_id();
        let handle = ctx.handle().clone();
        let mut answered = false;
        state.admit(
            &handle,
            request,
            ReplyTo::Tcp(id, codec),
            |to, response| match to {
                ReplyTo::Tcp(to, codec) if to == id => {
                    state.in_flight.fetch_sub(1, Ordering::Relaxed);
                    reply_here(ctx, codec, &response);
                    answered = true;
                }
                // Another connection's frame completed meanwhile.
                to => state.answer(&handle, to, response),
            },
        );
        if !answered {
            ctx.pause();
        }
    }

    fn on_close(&mut self, err: Option<&std::io::Error>, _handle: &Handle) {
        let state = &self.state;
        crate::manager::trace_eviction(&state.tracer, "node", state.cfg.id, err);
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use armada_wire::{decode_response, read_response, write_request};
    use std::net::TcpStream;

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

    /// Algorithm 1 over the wire; the node narrates each change of
    /// membership, and a refusal, with the `seq` left behind.
    #[test]
    fn probe_join_leave_cycle() {
        let sink = armada_trace::MemorySink::new();
        let buffer = sink.buffer();
        let tracer = Tracer::with_sink(Box::new(sink), Severity::Debug);
        let (node, addr) = LiveNode::bind_traced(config(1, 4, 5.0, 0), None, tracer).unwrap();
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
        // A leave from someone not attached changes nothing.
        assert_eq!(rpc(&mut stream, Request::Leave { user: 7 }), Response::Ack);
        let trace = buffer.lock().unwrap().clone();
        let events = armada_trace::inspect::parse_jsonl(&trace).unwrap();
        let members: Vec<String> = events
            .iter()
            .filter(|e| e.kind != "node.whatif.refresh")
            .map(|e| {
                let field = |key| e.field_u64(key).unwrap();
                let (node, user, seq) = (field("node"), field("user"), field("seq"));
                format!("{} node={node} user={user} seq={seq}", e.kind)
            })
            .collect();
        let narrated: &[&str] = if cfg!(feature = "trace") {
            &[
                "node.join node=1 user=7 seq=1",
                "node.join.rejected node=1 user=8 seq=1",
                "node.detach node=1 user=7 seq=2",
            ]
        } else {
            &[]
        };
        assert_eq!(members, narrated);
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
        assert_eq!(cfg.max_in_flight, 0);
        assert_eq!(HEARTBEAT_RPC_TIMEOUT, Duration::from_secs(5));
        assert_eq!(BUSY_RETRY_MS, 250);
    }

    /// A node whose manager link dies must reconnect and re-register;
    /// the old heartbeat loop broke permanently on the first error, so
    /// any manager blip silently orphaned a perfectly healthy node
    /// once its registration aged past the liveness window. Runs with a
    /// shrunken heartbeat period and liveness window (the RPC budget
    /// stays the deployment's 5 s: the proxy severs the link, so no RPC
    /// waits it out) so the whole loss → redial → re-register cycle
    /// takes ~2 s instead of ~7 s.
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

    /// The boot registration travels the reactor link that heartbeats
    /// later: a refused connect fails `bind` at once, with no redial
    /// behind it.
    #[test]
    fn bind_toward_a_closed_port_fails_promptly() {
        let closed = TcpListener::bind("127.0.0.1:0").unwrap();
        let mgr = closed.local_addr().unwrap();
        drop(closed);
        let started = Instant::now();
        assert!(LiveNode::bind(config(1, 1, 5.0, 0), Some(mgr)).is_err());
        let elapsed = started.elapsed();
        assert!(elapsed < Duration::from_secs(1), "{elapsed:?}");
    }

    /// A manager that accepts and never answers costs one RPC budget:
    /// the registration's timer closes the link and `bind` reports it.
    #[test]
    fn bind_toward_a_silent_manager_fails_within_one_rpc_budget() {
        let silent = TcpListener::bind("127.0.0.1:0").unwrap();
        let mgr = silent.local_addr().unwrap();
        let started = Instant::now();
        let err = LiveNode::bind(config(1, 1, 5.0, 0), Some(mgr)).err();
        let elapsed = started.elapsed();
        assert_eq!(err.map(|e| e.kind()), Some(std::io::ErrorKind::TimedOut));
        assert!(elapsed >= HEARTBEAT_RPC_TIMEOUT, "{elapsed:?}");
        assert!(
            elapsed < HEARTBEAT_RPC_TIMEOUT + Duration::from_secs(1),
            "{elapsed:?}"
        );
    }

    /// `bind` returns once the manager has answered the registration,
    /// so the node is discoverable at once — and the boot link is no
    /// reconnect: nothing on the heartbeat link is narrated.
    #[test]
    fn bind_returns_registered_and_narrates_no_heartbeat_event() {
        use crate::manager::LiveManager;

        let sink = armada_trace::MemorySink::new();
        let buffer = sink.buffer();
        let tracer = Tracer::with_sink(Box::new(sink), Severity::Debug);
        let (mgr, mgr_addr) = LiveManager::bind().unwrap();
        let live = LiveNodeConfig {
            heartbeat_period: Duration::from_millis(50),
            ..LiveNodeConfig::default()
        };
        let (_node, _) =
            LiveNode::bind_with(config(4, 2, 5.0, 0), live, Some(mgr_addr), tracer).unwrap();
        assert_eq!(mgr.alive_count(), 1);
        // A few heartbeats later the link is still the boot one.
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(mgr.alive_count(), 1);
        let trace = buffer.lock().unwrap().clone();
        assert!(!trace.contains("node.heartbeat."), "{trace}");
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

    /// The UDP port answers the two probes only: a join datagram
    /// attaches nobody, and frame datagrams are neither run nor
    /// answered, so none slips past the in-flight bound.
    #[test]
    fn udp_serves_the_probes_and_drops_everything_else() {
        let live = LiveNodeConfig {
            max_in_flight: 1,
            ..LiveNodeConfig::default()
        };
        let (node, addr) =
            LiveNode::bind_with(config(1, 2, 5.0, 0), live, None, Tracer::disabled()).unwrap();
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        socket
            .set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let send = |request: &Request| {
            let datagram = armada_wire::Codec::Binary.encode_request(request);
            socket.send_to(&datagram, addr).unwrap();
        };
        send(&Request::Join { user: 7, seq: 0 });
        for seq in 0..5 {
            send(&Request::Frame {
                user: 7,
                seq,
                payload_len: 20_000,
            });
        }
        send(&Request::ProcessProbe);
        let mut buf = [0u8; 2048];
        let (n, _) = socket.recv_from(&mut buf).unwrap();
        let (first, _) = decode_response(&buf[..n]).unwrap();
        assert!(
            matches!(first, Response::ProbeReply { attached: 0, .. }),
            "{first:?}"
        );
        // Five frames of 5 ms would have been answered by now.
        assert!(socket.recv_from(&mut buf).is_err(), "nothing else answers");
        assert_eq!(node.attached_count(), 0);
        assert_eq!(node.frames_processed(), 0);
        assert_eq!(node.busy_count(), 0);
    }
}
