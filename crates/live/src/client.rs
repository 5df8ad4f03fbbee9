//! The live client: a blocking-socket driver around one [`EdgeClient`],
//! the Algorithm 2 core the simulator drives in virtual time. The core
//! opens, counts and concludes each probing round, ranks, decides
//! stay-or-switch, keeps and walks the warm backups and paces frames,
//! walks the manager route under its breakers, remembers the shortlist
//! degraded mode runs on, names the retry times and writes its own
//! events; this file owns I/O only — sockets and timeouts, sleeping,
//! the id → listen-address book, one held link per manager — and the
//! probe fan-out, the one step with anything to overlap, is
//! `crate::probe`'s readiness state machine run on the calling thread.
//! Every other exchange is a plain blocking call. A discovery is one
//! exchange on the link the client holds to that manager, dialled by
//! its first discovery and again only once the manager has closed it,
//! so it costs the one round trip the simulator charges.

use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use armada_client::{
    ClientDecision, EdgeClient, FailoverDecision, JoinFollowup, ManagerReply, Narrator,
    ProbeResult, Verdict, PROBE_TIMEOUT, RETRY_BACKOFF,
};
use armada_reactor::Poller;
use armada_trace::Tracer;
use armada_types::{ClientConfig, GeoPoint, NodeId, SimDuration, SimTime, UserId};

use armada_wire::{read_response_via, write_request_via, Codec, Request, Response, WireConfig};

use crate::probe::{self, Terms};

/// All protocol exchanges time out after this long; a silent peer is a
/// dead peer. Applied both as the connect timeout and as the socket
/// read timeout on every connection — a plain `TcpStream::connect` to
/// an unroutable address can block far longer than any RPC budget.
pub(crate) const RPC_TIMEOUT: Duration = Duration::from_secs(5);

/// Connect/read budget for a mid-session discovery. Kept far below
/// [`RPC_TIMEOUT`] so a black-holed manager cannot stall the frame
/// loop for the full RPC budget every probing period.
const REFRESH_TIMEOUT: Duration = Duration::from_millis(500);

/// What a [`LiveClient`] session measured.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// Node that served the final frame.
    pub final_node: u64,
    /// Node selected initially.
    pub initial_node: u64,
    /// Per-frame end-to-end latencies, in send order.
    pub latencies: Vec<Duration>,
    /// First-round probing outcomes: `(node_id, rtt, whatif_µs)`.
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

/// One live application user.
///
/// See the crate-level documentation and the workspace
/// `examples/live_cluster.rs` for end-to-end usage.
#[derive(Debug, Clone)]
pub struct LiveClient {
    id: u64,
    tracer: Tracer,
    /// Shared across clones and sessions so the selector's per-node
    /// history, the breakers and the cached shortlist survive retries and
    /// manager outages; locked once per session attempt, never per frame.
    shared: Arc<Mutex<Shared>>,
    /// Time base of the core's [`SimTime`].
    epoch: Instant,
    /// Outbound codec and probe-backend selection.
    wire: WireConfig,
}

/// What a client's sessions share: the core, where to dial the nodes
/// of the shortlist it caches (the core deals in ids), the link held to
/// each manager it has asked, the poller its probe rounds wait on,
/// made by the first of them, and the buffer every exchange writes its
/// request and reads its reply through.
#[derive(Debug)]
struct Shared {
    core: EdgeClient,
    addresses: HashMap<u64, String>,
    links: HashMap<SocketAddr, ManagerLink>,
    poller: Option<Box<dyn Poller>>,
    frame: Vec<u8>,
}

/// A held connection to one manager, and the budget its reads and
/// writes are bounded by now.
#[derive(Debug)]
struct ManagerLink {
    stream: TcpStream,
    timeout: Duration,
}

impl ManagerLink {
    fn dial(addr: SocketAddr, timeout: Duration) -> std::io::Result<Self> {
        let stream = connect_with(addr, timeout)?;
        Ok(ManagerLink { stream, timeout })
    }

    /// One exchange bounded by `timeout`; the socket's budget is set
    /// again only when it differs from the last exchange's.
    fn rpc(
        &mut self,
        timeout: Duration,
        codec: Codec,
        request: &Request,
        frame: &mut Vec<u8>,
    ) -> std::io::Result<Response> {
        if self.timeout != timeout {
            self.stream.set_read_timeout(Some(timeout))?;
            self.stream.set_write_timeout(Some(timeout))?;
            self.timeout = timeout;
        }
        rpc(&mut self.stream, codec, request, frame)
    }
}

/// A session's open connections by node id: serving node and backups.
pub(crate) type Connections = HashMap<u64, TcpStream>;

impl LiveClient {
    /// Creates a client.
    pub fn new(id: u64, location: GeoPoint, config: ClientConfig) -> Self {
        LiveClient {
            id,
            tracer: Tracer::disabled(),
            shared: Arc::new(Mutex::new(Shared {
                core: EdgeClient::new(UserId::new(id), location, config),
                addresses: HashMap::new(),
                links: HashMap::new(),
                poller: None,
                frame: Vec::new(),
            })),
            epoch: Instant::now(),
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
    /// breaker-gated. (Waits for a session in progress to end.)
    pub fn is_degraded(&self) -> bool {
        self.shared().core.is_degraded()
    }

    /// Total circuit-breaker state transitions across all managers.
    /// (Waits for a session in progress to end.)
    pub fn breaker_transitions(&self) -> u64 {
        self.shared().core.breaker_transitions()
    }

    fn shared(&self) -> MutexGuard<'_, Shared> {
        self.shared.lock().expect("a session panicked mid-attempt")
    }

    /// Runs one full session: discovery → concurrent probing → ranked
    /// join → stream `frames` frames (re-probing every `T_probing`,
    /// failing over to warm backups) → leave.
    ///
    /// # Errors
    ///
    /// Fails if the manager is unreachable, no candidate can be probed,
    /// or every candidate dies mid-session.
    pub fn run_session(
        &self,
        manager: SocketAddr,
        frames: usize,
    ) -> std::io::Result<SessionReport> {
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
    ) -> std::io::Result<SessionReport> {
        // An attempt left with no serving node (a rejected first join,
        // a round nobody answered, every backup dead) fails; the next
        // repeats from edge discovery (Algorithm 2, line 14).
        let mut last_err = None;
        for attempt in 0..5u32 {
            if attempt > 0 {
                std::thread::sleep(RETRY_BACKOFF.delay(attempt - 1, self.id));
            }
            let mut shared = self.shared();
            let outcome = self.try_session(&mut shared, managers, frames);
            // Ends the attachment, keeps the selector's per-node models.
            shared.core.detach();
            match outcome {
                Ok(report) => return Ok(report),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.expect("at least one attempt ran"))
    }

    /// One discovery → probe → join → stream attempt.
    fn try_session(
        &self,
        shared: &mut Shared,
        managers: &[SocketAddr],
        frames: usize,
    ) -> std::io::Result<SessionReport> {
        let before = shared.core.stats();
        let mut connections = Connections::new();
        let probed = self
            .select(shared, &mut connections, managers, RPC_TIMEOUT)?
            .iter()
            .map(|r| {
                (
                    r.node.as_u64(),
                    Duration::from_micros(r.rtt.as_micros()),
                    r.whatif_proc.as_micros(),
                )
            })
            .collect();
        let initial_node = serving_node(&shared.core)?;

        let mut latencies = Vec::with_capacity(frames);
        let probing_period = Duration::from_micros(shared.core.config().probing_period.as_micros());
        let mut last_probe = Instant::now();
        while latencies.len() < frames {
            // The next round is due `T_probing` after this one
            // concludes: a round that ran to `PROBE_TIMEOUT` must not
            // eat the period.
            if last_probe.elapsed() >= probing_period {
                self.select(shared, &mut connections, managers, REFRESH_TIMEOUT)?;
                last_probe = Instant::now();
            }
            let (core, buf) = (&mut shared.core, &mut shared.frame);
            let serving = serving_node(core)?;
            let frame = Request::Frame {
                user: self.id,
                seq: core.next_frame_seq(),
                payload_len: 20_000,
            };
            let started = Instant::now();
            match self.exchange(buf, &mut connections, serving, &frame) {
                Ok(Response::FrameResult { .. }) => {
                    let elapsed = started.elapsed();
                    latencies.push(elapsed);
                    let latency = SimDuration::from_micros(elapsed.as_micros() as u64);
                    core.on_frame_latency(latency, self.narrator());
                    std::thread::sleep(Duration::from_micros(core.frame_interval().as_micros()));
                }
                other => {
                    // Shedding or dead, this node no longer serves us.
                    if matches!(other, Ok(Response::Busy { .. })) {
                        core.on_busy(NodeId::new(serving), self.now_sim());
                    }
                    self.fail_over(core, buf, &mut connections, serving)?;
                }
            }
        }

        let core = &mut shared.core;
        let final_node = serving_node(core)?;
        let leave = Request::Leave { user: self.id };
        let _ = self.exchange(&mut shared.frame, &mut connections, final_node, &leave);
        let stats = core.stats();
        Ok(SessionReport {
            final_node,
            initial_node,
            latencies,
            probed,
            failovers: stats.backup_failovers - before.backup_failovers,
            switches: stats.switches - before.switches,
        })
    }

    /// One pass of Algorithm 2, the same for a session's first round
    /// and every `T_probing` round: discover, carry the probes of the
    /// round the core opens (none on an empty shortlist), carry out its
    /// decision, close what fell out of `current ∪ backups`. Returns the
    /// probes.
    fn select(
        &self,
        shared: &mut Shared,
        connections: &mut Connections,
        managers: &[SocketAddr],
        timeout: Duration,
    ) -> std::io::Result<Vec<ProbeResult>> {
        // If the whole manager tier is unreachable, degrade to the
        // last-known candidate list. Mid-session this is also what
        // notices a manager partition and its recovery while frames
        // keep flowing to already connected nodes.
        // (Mid-session the next `T_probing` round is the core's retry.)
        let shortlist = self.discover(shared, managers, timeout).or_else(|e| {
            let cached = shared.core.cached_shortlist();
            cached.map(<[NodeId]>::to_vec).ok_or(e)
        })?;
        let Shared {
            core,
            addresses,
            poller,
            frame,
            ..
        } = shared;
        // (The serving node is re-probed over its open connection.)
        let Some((round, nodes)) = core.start_probe_round(shortlist, |_| true, self.narrator())
        else {
            return Ok(Vec::new());
        };
        let poller = match poller {
            Some(poller) => &mut **poller,
            none => &mut **none.insert(armada_reactor::default_poller()?),
        };
        let dial = |node: &NodeId| {
            let id = node.as_u64();
            (id, addresses.get(&id).cloned().unwrap_or_default())
        };
        let candidates: Vec<(u64, String)> = nodes.iter().map(dial).collect();
        let timeout = Duration::from_micros(PROBE_TIMEOUT.as_micros());
        let results = self.probe_round(poller, core, connections, round, &candidates, timeout);
        // A join is the synchronised `Join` RPC. A re-discovery needs no
        // action: while a node serves, the next `T_probing` round is the
        // repeat; with none, [`serving_node`] fails the attempt.
        let decision = core.conclude_probe_round(round, self.now_sim(), self.narrator());
        if let Some(ClientDecision::AttemptJoin { target, seq }) = decision {
            let join = Request::Join { user: self.id, seq };
            let reply = self.exchange(frame, connections, target.as_u64(), &join);
            if matches!(reply, Ok(Response::Busy { .. })) {
                core.on_busy(target, self.now_sim());
            }
            // Shed, dead mid-join or out of sequence: the join did not
            // happen, and only the first says anything about the node.
            let accepted = matches!(reply, Ok(Response::JoinResult { accepted: true }));
            // (No stale replies: a blocking driver abandons no join.)
            if let JoinFollowup::SwitchComplete {
                leave: Some(previous),
            } = core.on_join_result(target, accepted, self.narrator())
            {
                let leave = Request::Leave { user: self.id };
                let _ = self.exchange(frame, connections, previous.as_u64(), &leave);
            }
        }
        // Neither serving nor a backup: closed, so open sockets ≤ TopN.
        connections.retain(|&id, _| {
            let node = NodeId::new(id);
            core.current_node() == Some(node) || core.backups().contains(&node)
        });
        Ok(results)
    }

    /// One request/response exchange with `node` over its open
    /// connection, through `frame`; a node without one fails like a
    /// dead one.
    fn exchange(
        &self,
        frame: &mut Vec<u8>,
        connections: &mut Connections,
        node: u64,
        request: &Request,
    ) -> std::io::Result<Response> {
        match connections.get_mut(&node) {
            Some(stream) => rpc(stream, self.wire.codec, request, frame),
            None => Err(protocol_error(format!("no open connection to node {node}"))),
        }
    }

    /// The probe fan-out of the core's open round `round`: every probe
    /// in flight at once, on this thread (`crate::probe`). A candidate
    /// that answers keeps its connection; a silent one has lost it and
    /// is reported lost — the live analogue of a heartbeat gap.
    fn probe_round(
        &self,
        poller: &mut dyn Poller,
        core: &mut EdgeClient,
        connections: &mut Connections,
        round: u64,
        candidates: &[(u64, String)],
        timeout: Duration,
    ) -> Vec<ProbeResult> {
        let terms = Terms {
            wire: self.wire,
            timeout,
            tracer: &self.tracer,
        };
        let outcomes = probe::run(poller, terms, connections, candidates);
        let now = self.now_sim();
        // (Completion is this loop's end: every outcome is in.)
        for ((id, _), outcome) in candidates.iter().zip(&outcomes) {
            match outcome {
                Some(result) => core.on_probe_reply(round, *result),
                None => core.on_probe_lost(round, NodeId::new(*id), now),
            };
        }
        outcomes.into_iter().flatten().collect()
    }

    /// The failure monitor (paper §IV-E): the core promotes the first
    /// backup whose warm connection answers `Unexpected_join` (which
    /// cannot be rejected, Table I); with none left the attempt fails.
    fn fail_over(
        &self,
        core: &mut EdgeClient,
        frame: &mut Vec<u8>,
        connections: &mut Connections,
        failed: u64,
    ) -> std::io::Result<()> {
        let failed_node = Some(NodeId::new(failed));
        self.narrator().failure(core.id(), "proactive", failed_node);
        connections.remove(&failed);
        let takeover = Request::UnexpectedJoin { user: self.id };
        let decision = core.on_node_failure(self.now_sim(), |backup| {
            let id = backup.as_u64();
            let reply = self.exchange(frame, connections, id, &takeover);
            let alive = matches!(reply, Ok(Response::Ack));
            if !alive {
                connections.remove(&id);
            }
            alive
        });
        self.narrator().failover(core.id(), failed_node, &decision);
        match decision {
            FailoverDecision::SwitchToBackup { .. } => Ok(()),
            FailoverDecision::Rediscover => {
                Err(protocol_error("all backups failed simultaneously".into()))
            }
        }
    }

    /// Walks the manager route order (home first): the core picks each
    /// rank its breaker admits and says what the answer means; this
    /// asks over the held links ([`ask`]), sleeps the pauses and keeps
    /// the address book. Fails once the route is exhausted (the core's
    /// cached shortlist is what is left).
    fn discover(
        &self,
        shared: &mut Shared,
        managers: &[SocketAddr],
        timeout: Duration,
    ) -> std::io::Result<Vec<NodeId>> {
        let Shared {
            core,
            addresses,
            links,
            frame,
            ..
        } = shared;
        let request = Request::Discover {
            user: self.id,
            lat: core.location().lat(),
            lon: core.location().lon(),
            top_n: core.config().top_n,
        };
        let mut from = 0;
        while let Some(rank) =
            core.next_manager(from, managers.len(), self.now_sim(), self.narrator())
        {
            let outcome = ask(
                links,
                managers[rank],
                timeout,
                self.wire.codec,
                &request,
                frame,
            );
            let reply = match outcome {
                Ok(Response::Candidates { nodes }) => {
                    let ids = nodes.iter().map(|(id, _)| NodeId::new(*id)).collect();
                    if !nodes.is_empty() {
                        // (What the core's cached shortlist names.)
                        addresses.clear();
                        addresses.extend(nodes);
                    }
                    ManagerReply::Candidates(ids)
                }
                Ok(Response::Busy { retry_after_ms }) => ManagerReply::Busy { retry_after_ms },
                // Dead, unreachable, or answering something else.
                _ => ManagerReply::Unserved,
            };
            match core.on_discover(rank, reply, self.now_sim(), self.narrator()) {
                Verdict::Probe(shortlist) => return Ok(shortlist),
                Verdict::Next { pause } => {
                    std::thread::sleep(Duration::from_micros(pause.as_micros()))
                }
            }
            from = rank + 1;
        }
        core.on_route_exhausted(self.now_sim(), self.narrator());
        Err(protocol_error(
            "every manager is unreachable or breaker-gated".into(),
        ))
    }

    /// The core's clock: wall microseconds since the client's epoch,
    /// viewed as a simulated timestamp (the core is clock-agnostic).
    fn now_sim(&self) -> SimTime {
        SimTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    /// The core's events, stamped with the tracer's wall clock.
    fn narrator(&self) -> Narrator<'_> {
        Narrator::at(&self.tracer, self.tracer.now_us())
    }
}

/// The node streaming this session, or the error that sends the
/// attempt back to edge discovery.
fn serving_node(core: &EdgeClient) -> std::io::Result<u64> {
    core.current_node()
        .map(NodeId::as_u64)
        .ok_or_else(|| protocol_error("no node is serving: re-discover".into()))
}

/// One `request` to the manager at `manager` over the link `links`
/// holds to it, dialled if there is none; `timeout` bounds the dial and
/// every read and write. A held link the manager has closed since its
/// last exchange (end of stream, reset, broken pipe: it restarted) is
/// redialled once, so the manager is not counted as failed. A link
/// that fails any other way is dropped and the call fails: after a
/// read that timed out, the late reply would be taken for the next
/// answer.
fn ask(
    links: &mut HashMap<SocketAddr, ManagerLink>,
    manager: SocketAddr,
    timeout: Duration,
    codec: Codec,
    request: &Request,
    frame: &mut Vec<u8>,
) -> std::io::Result<Response> {
    if let Some(link) = links.get_mut(&manager) {
        match link.rpc(timeout, codec, request, frame) {
            Ok(reply) => return Ok(reply),
            Err(e) => {
                links.remove(&manager);
                let closed = [
                    ErrorKind::UnexpectedEof,
                    ErrorKind::ConnectionReset,
                    ErrorKind::BrokenPipe,
                ];
                if !closed.contains(&e.kind()) {
                    return Err(e);
                }
            }
        }
    }
    let mut link = ManagerLink::dial(manager, timeout)?;
    let reply = link.rpc(timeout, codec, request, frame)?;
    links.insert(manager, link);
    Ok(reply)
}

/// Connects with `timeout` bounding both the TCP handshake and every
/// subsequent read. A plain `TcpStream::connect` is at the mercy of the
/// OS connect timeout — minutes against a black-holed address — which
/// would stall a session far beyond the RPC budget.
fn connect_with(addr: SocketAddr, timeout: Duration) -> std::io::Result<TcpStream> {
    bound(TcpStream::connect_timeout(&addr, timeout)?, timeout)
}

/// Makes a blocking `stream` a connection the exchanges can use: every
/// read and write bounded by `timeout`, Nagle off.
pub(crate) fn bound(stream: TcpStream, timeout: Duration) -> std::io::Result<TcpStream> {
    stream.set_read_timeout(Some(timeout))?;
    // A stalled/zero-window peer used to block `write_all` forever —
    // reads were bounded but writes were not.
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// One request/response exchange, the request framed in `frame` and
/// the reply read back into it; the socket read/write timeouts bound
/// it. The reply may arrive in either codec (servers echo the request
/// codec, but a mixed-version peer is tolerated).
fn rpc(
    stream: &mut TcpStream,
    codec: Codec,
    request: &Request,
    frame: &mut Vec<u8>,
) -> std::io::Result<Response> {
    write_request_via(stream, codec, request, frame)?;
    read_response_via(stream, frame)
        .map(|(response, _)| response)
        .map_err(std::io::Error::from)
}

fn protocol_error(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::LiveManager;
    use crate::node::{LiveNode, NodeConfig};
    use armada_client::{BREAKER_COOLDOWN, BREAKER_THRESHOLD};
    use armada_types::{HardwareProfile, NodeClass, SelectorMode};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    fn rpc(stream: &mut TcpStream, request: Request) -> Response {
        super::rpc(stream, Codec::Binary, &request, &mut Vec::new()).expect("test rpc")
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
                        let r = super::rpc(
                            &mut s,
                            Codec::Binary,
                            &Request::Frame {
                                user,
                                seq,
                                payload_len: 20_000,
                            },
                            &mut Vec::new(),
                        );
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

    /// One probe round of `client`'s core over `candidates`, carried on
    /// probe I/O of its own.
    fn probe_round(
        client: &LiveClient,
        connections: &mut Connections,
        candidates: &[(u64, String)],
        timeout_ms: u64,
    ) -> Vec<ProbeResult> {
        let mut poller = armada_reactor::default_poller().unwrap();
        let timeout = Duration::from_millis(timeout_ms);
        let core = &mut client.shared().core;
        let shortlist = candidates.iter().map(|(id, _)| NodeId::new(*id)).collect();
        let (round, _) = core
            .start_probe_round(shortlist, |_| true, client.narrator())
            .expect("a shortlist opens a round");
        client.probe_round(&mut *poller, core, connections, round, candidates, timeout)
    }

    fn test_client(wire: WireConfig) -> LiveClient {
        let config = ClientConfig::default().with_selector(SelectorMode::Predictive);
        LiveClient::new(1, GeoPoint::new(44.98, -93.26), config).with_wire(wire)
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

    /// A node that answers probes in-stream only, its UDP port silent.
    /// Serves one connection, until the peer closes it.
    fn tcp_only_node() -> (String, std::net::UdpSocket, std::thread::JoinHandle<()>) {
        let (listener, udp, addr) = silent();
        let serve = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            while let Ok(body) = armada_wire::read_frame_bytes(&mut stream) {
                let (request, codec) = armada_wire::decode_request(&body).unwrap();
                let response = match request {
                    Request::RttProbe => Response::RttPong,
                    _ => Response::ProbeReply {
                        whatif_us: 1_000,
                        current_us: 1_000,
                        attached: 0,
                        seq: 0,
                    },
                };
                armada_wire::write_frame(&mut stream, &codec.encode_response(&response)).unwrap();
            }
        });
        (addr, udp, serve)
    }

    /// Regression: re-probing used to walk the open connections one by
    /// one, so each dead candidate stalled the round for a full read
    /// timeout before the next was even tried.
    #[test]
    fn reprobing_dead_candidates_runs_concurrently() {
        let deads: Vec<_> = (0..3).map(|_| unresponsive()).collect();
        let mut connections = Connections::new();
        let mut candidates = Vec::new();
        for (i, (listener, _)) in deads.iter().enumerate() {
            let addr = listener.local_addr().unwrap();
            let stream = connect_with(addr, Duration::from_millis(300)).unwrap();
            connections.insert(10 + i as u64, stream);
            candidates.push((10 + i as u64, String::new()));
        }
        let client = test_client(WireConfig::default());
        let started = Instant::now();
        let replies = probe_round(&client, &mut connections, &candidates, 300);
        let elapsed = started.elapsed();
        assert!(replies.is_empty());
        assert!(connections.is_empty(), "dead connections must be dropped");
        // Sequentially the three read timeouts would stack (≥ 900 ms);
        // concurrently the round pays roughly one.
        assert!(
            elapsed < Duration::from_millis(750),
            "re-probe round took {elapsed:?}, expected ~one timeout"
        );
    }

    /// One live node between a listener that never answers and a closed
    /// port: the round returns exactly the live node's result and keeps
    /// exactly its connection, and the core hears of both failures. (The
    /// listener has no UDP port: its refusal ends that leg at once.)
    #[test]
    fn a_live_node_beside_two_dead_ones_is_the_rounds_one_result() {
        use armada_trace::{MemorySink, Severity};
        let sink = MemorySink::new();
        let buffer = sink.buffer();
        let tracer = Tracer::with_sink(Box::new(sink), Severity::Debug);
        let (_node, node_addr) = LiveNode::bind(node_config(2, 4, 10.0, 0), None).unwrap();
        let (_listener, silent) = unresponsive();
        let candidates = [(1, silent), (2, node_addr.to_string()), (3, closed_port())];
        let client = test_client(WireConfig::default()).with_tracer(tracer);
        let mut connections = Connections::new();
        let started = Instant::now();
        let results = probe_round(&client, &mut connections, &candidates, 300);
        let elapsed = started.elapsed();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].node, NodeId::new(2));
        assert_eq!(connections.keys().collect::<Vec<_>>(), [&2]);
        // The kept connection is a blocking one again.
        let kept = connections.get_mut(&2).unwrap();
        assert_eq!(rpc(kept, Request::RttProbe), Response::RttPong);
        let (shared, now) = (client.shared(), client.now_sim());
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
    /// the round still returns three results — with one trace line each.
    #[test]
    fn silent_udp_legs_fall_back_in_stream_together() {
        use armada_trace::{MemorySink, Severity};
        let sink = MemorySink::new();
        let buffer = sink.buffer();
        let tracer = Tracer::with_sink(Box::new(sink), Severity::Debug);
        let nodes: Vec<_> = (0..3).map(|_| tcp_only_node()).collect();
        let candidates: Vec<_> = (0..3).map(|i| (i as u64, nodes[i].0.clone())).collect();
        let client = test_client(WireConfig::default()).with_tracer(tracer);
        let mut connections = Connections::new();
        let started = Instant::now();
        let results = probe_round(&client, &mut connections, &candidates, 600);
        let elapsed = started.elapsed();
        assert_eq!(results.len(), 3);
        assert_eq!(connections.len(), 3);
        // One after the other the three half-budgets would stack (≥ 900 ms).
        assert!(elapsed >= Duration::from_millis(300), "took {elapsed:?}");
        assert!(elapsed < Duration::from_millis(750), "took {elapsed:?}");
        if cfg!(feature = "trace") {
            let trace = buffer.lock().unwrap().clone();
            let fallbacks = trace.matches(r#""kind":"probe.udp.fallback""#).count();
            assert_eq!(fallbacks, 3, "{trace}");
            assert_eq!(trace.matches(r#""reason":"timeout""#).count(), 3, "{trace}");
        }
        drop(connections);
        for (_, _, serve) in nodes {
            serve.join().unwrap();
        }
    }

    /// Regression: `connect` used a plain `TcpStream::connect`, whose
    /// timeout is the OS default (minutes against a black-holed peer).
    #[test]
    fn connect_is_bounded_against_unroutable_address() {
        // TEST-NET-1 (RFC 5737) is reserved, never assigned, and either
        // rejected immediately or black-holed — both must stay within
        // the requested bound.
        // Some sandboxed environments transparently intercept outbound
        // connects, so the portable property is the time bound itself —
        // `connect_timeout` guarantees it whether the SYN is answered,
        // refused, or dropped.
        let addr: SocketAddr = "192.0.2.1:9".parse().unwrap();
        let started = Instant::now();
        let _ = connect_with(addr, Duration::from_millis(400));
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(2),
            "connect took {elapsed:?}, expected ≤ the 400 ms bound"
        );
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

    #[test]
    fn a_closed_port_fails_fast() {
        let client = test_client(WireConfig::default());
        let mut connections = Connections::new();
        let started = Instant::now();
        let results = probe_round(&client, &mut connections, &[(7, closed_port())], 2_000);
        assert!(results.is_empty() && connections.is_empty());
        // The refusal ends the probe, not the deadline.
        assert!(started.elapsed() < Duration::from_millis(1_000));
    }

    /// Accepts nothing and answers nothing: over TCP the probe waits out
    /// one exchange's budget, over UDP (the port bound, never read) half
    /// of one first; both end, with a miss, inside their budgets.
    #[test]
    fn an_unresponsive_listener_and_a_silent_udp_port_end_inside_their_budget() {
        for (wire, at_least_ms) in [(TCP_PROBES, 300), (WireConfig::default(), 450)] {
            let (_listener, _udp, addr) = silent();
            let client = test_client(wire);
            let mut connections = Connections::new();
            let started = Instant::now();
            let results = probe_round(&client, &mut connections, &[(8, addr)], 300);
            let elapsed = started.elapsed();
            assert!(results.is_empty() && connections.is_empty());
            assert!(elapsed >= Duration::from_millis(at_least_ms), "{elapsed:?}");
            assert!(elapsed < Duration::from_secs(2), "{elapsed:?}");
        }
    }

    /// Regression: the old probe thread `.unwrap()`ed a setsockopt that
    /// rejects a zero timeout, panicking the whole round. A degenerate
    /// timeout is a miss for each candidate instead.
    #[test]
    fn a_zero_timeout_is_a_per_candidate_miss_not_a_panic() {
        let (_listener, addr) = unresponsive();
        for wire in [TCP_PROBES, WireConfig::default()] {
            let client = test_client(wire);
            let mut connections = Connections::new();
            let candidates = [(1, addr.clone()), (2, closed_port())];
            assert!(probe_round(&client, &mut connections, &candidates, 0).is_empty());
            assert!(connections.is_empty());
        }
    }

    /// The probe round takes readiness as a hint only: on the portable
    /// poller, which reports every socket ready every millisecond, a
    /// whole session passes — and where UDP answers, nothing falls back.
    #[test]
    fn a_session_on_the_loop_poller_passes() {
        use armada_trace::{MemorySink, Severity};
        let sink = MemorySink::new();
        let buffer = sink.buffer();
        let tracer = Tracer::with_sink(Box::new(sink), Severity::Debug);
        let (_mgr, mgr_addr) = LiveManager::bind().unwrap();
        let (_n1, _) = LiveNode::bind(node_config(1, 4, 5.0, 1), Some(mgr_addr)).unwrap();
        let (_n2, _) = LiveNode::bind(node_config(2, 4, 5.0, 3), Some(mgr_addr)).unwrap();
        let config = ClientConfig::default().with_top_n(2);
        let client = LiveClient::new(9, GeoPoint::new(44.98, -93.26), config).with_tracer(tracer);
        client.shared().poller = Some(Box::new(armada_reactor::LoopPoller::new()));
        let report = client.run_session(mgr_addr, 5).unwrap();
        assert_eq!(report.initial_node, 1);
        assert_eq!(report.probed.len(), 2);
        assert_eq!(report.latencies.len(), 5);
        assert!(!buffer.lock().unwrap().contains("probe.udp.fallback"));
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

    /// Satellite for the retry-loop fix: the session retry schedule
    /// must be exponential, jittered within its envelope, capped, and
    /// deterministic per client.
    #[test]
    fn retry_backoff_schedule_is_bounded_and_deterministic() {
        for attempt in 0..8u32 {
            for client_id in [1u64, 7, 9999] {
                let d = RETRY_BACKOFF.delay(attempt, client_id);
                assert!(d >= RETRY_BACKOFF.delay_floor(attempt), "attempt {attempt}");
                assert!(
                    d <= RETRY_BACKOFF.delay_ceiling(attempt),
                    "attempt {attempt}"
                );
                assert!(d <= Duration::from_millis(1_000), "cap violated");
                assert_eq!(d, RETRY_BACKOFF.delay(attempt, client_id), "deterministic");
            }
        }
        // The envelope really doubles (50, 100, 200, ...) until the cap.
        assert_eq!(RETRY_BACKOFF.delay_ceiling(0), Duration::from_millis(50));
        assert_eq!(RETRY_BACKOFF.delay_ceiling(2), Duration::from_millis(200));
        assert_eq!(
            RETRY_BACKOFF.delay_ceiling(30),
            Duration::from_millis(1_000)
        );
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
    /// manager that dies and comes back.
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
        let managers = [proxy.addr()];

        // Prime the cache, then cut the link and fail discovery until
        // the breaker opens.
        let discover = || client.discover(&mut client.shared(), &managers, RPC_TIMEOUT);
        discover().expect("clean run");
        proxy.set_partitioned(true);
        for _ in 0..BREAKER_THRESHOLD {
            assert!(discover().is_err());
        }
        assert!(
            buffer
                .lock()
                .unwrap()
                .contains(r#""kind":"chaos.breaker.open""#),
            "threshold failures must open the breaker"
        );
        // While open, the walk skips the manager without connecting —
        // even though the proxy is healed again, nothing probes it yet.
        proxy.set_partitioned(false);
        assert!(discover().is_err(), "open breaker gates the only manager");
        // After the cooldown one half-open probe goes through, succeeds
        // against the healed manager, and recloses the breaker.
        let cooldown = Duration::from_micros(BREAKER_COOLDOWN.as_micros());
        std::thread::sleep(cooldown + Duration::from_millis(50));
        discover().expect("half-open probe against the healed manager");
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
            let mut link = connect_with(mgr_addr, RPC_TIMEOUT).unwrap();
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
            let mut link = connect_with(mgr_addr, RPC_TIMEOUT).unwrap();
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
    /// streaming to its node until a later round has candidates.
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

    /// A held link whose read timed out is dropped: the reply that
    /// arrives late on it is never taken as the answer to the next query.
    #[test]
    fn a_timed_out_link_is_not_reused() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        // The held link's second query is answered late, and differently.
        let manager = FakeManager::spawn(listener, |conn, request| {
            let node = if (conn, request) == (0, 1) {
                std::thread::sleep(Duration::from_millis(300));
                66
            } else {
                77
            };
            Response::Candidates {
                nodes: vec![(node, "127.0.0.1:9".into())],
            }
        });
        let client = LiveClient::new(16, GeoPoint::new(44.98, -93.26), ClientConfig::default());
        let managers = [manager.addr];
        let discover = |timeout| client.discover(&mut client.shared(), &managers, timeout);
        assert_eq!(discover(RPC_TIMEOUT).unwrap(), [NodeId::new(77)]);
        assert!(
            discover(Duration::from_millis(100)).is_err(),
            "read timed out"
        );
        // The late reply has landed on the held link by the next query.
        std::thread::sleep(Duration::from_millis(400));
        assert_eq!(discover(RPC_TIMEOUT).unwrap(), [NodeId::new(77)]);
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
