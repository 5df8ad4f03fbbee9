//! The live Central Manager server, served by the `armada-reactor`
//! event loops instead of a thread per connection.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use armada_manager::{admissible_load, CentralManager, CowTable, GlobalSelectionPolicy, Narrator};
use armada_node::NodeStatus;
use armada_reactor::{AcceptFactory, Conn, ConnCtx, Handle, Reactor, ReactorConfig, Source};
use armada_trace::{s, u, Severity, Tracer};
use armada_types::{Backoff, GeoPoint, ShardId, SimDuration, SimTime, SystemConfig};

use armada_wire::{
    decode_request, decode_response, Codec, Request, Response, WireNodeStatus, WireSummary,
};

/// `retry_after_ms` a live manager or node suggests in every `Busy` it
/// answers.
pub const BUSY_RETRY_MS: u64 = 250;

/// Bound on each peer-sync RPC (connect + ack read). A dead peer must
/// cost at most this per round, not an OS connect timeout — this is the
/// dead-peer budget: a peer that cannot complete the exchange within it
/// is marked dead until a sync succeeds again.
const SYNC_RPC_TIMEOUT: Duration = Duration::from_secs(1);

/// Backoff applied to a peer whose syncs keep failing: instead of one
/// timed-out dial every round, a dead peer is retried on a capped
/// jittered exponential schedule and revived by the first good sync.
const SYNC_PEER_BACKOFF: Backoff = Backoff::from_millis(50, 2_000);

/// Locks `mutex`, recovering the data if a previous holder panicked.
///
/// A request handler that panics mid-request poisons the shared state
/// mutex; treating that as fatal would cascade one bad request into a
/// manager-wide outage (every later `lock()` unwrap panics too).
/// Recovery is sound here because every handler either completes its
/// writes or leaves at most one registration entry in a
/// partially-updated-but-valid state — there are no multi-step
/// invariants a mid-handler unwind can break.
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Timing and sizing knobs of one [`LiveManager`].
///
/// The defaults reproduce the paper deployment's constants (the
/// simulator's liveness budget, `SystemConfig::default()`'s 6 s; the 1 s
/// dead-peer sync budget is `SYNC_RPC_TIMEOUT`); tests shrink them so
/// liveness transitions happen in milliseconds instead of wall-clock
/// seconds.
#[derive(Clone)]
pub struct LiveManagerConfig {
    /// Heartbeats older than this mark a node dead (at least 1 µs).
    pub liveness_window: Duration,
    /// Reactor event-loop threads serving connections.
    pub threads: usize,
    /// Open-connection count at which discovery queries are shed with
    /// `Busy` while protected traffic (registration, heartbeats,
    /// federation sync) keeps being served (`0` disables).
    pub shed_conns: usize,
    /// Eviction deadline for a peer holding a partial request frame
    /// without completing it (slow-loris defense).
    pub read_progress_timeout: Duration,
}

impl Default for LiveManagerConfig {
    fn default() -> Self {
        let sys = SystemConfig::default();
        let budget = sys.heartbeat_period * u64::from(sys.heartbeat_miss_limit);
        LiveManagerConfig {
            liveness_window: Duration::from_micros(budget.as_micros()),
            threads: 1,
            shed_conns: 0,
            read_progress_timeout: Duration::from_secs(30),
        }
    }
}

/// Shared admission-control state: the shed threshold (from config)
/// plus a counter of refused requests, read without the manager's state
/// lock so the shed path stays cheap under storm.
struct OverloadPolicy {
    shed_conns: usize,
    sheds: std::sync::atomic::AtomicU64,
}

impl OverloadPolicy {
    /// `true` when as many connections are open as `shed_conns` allows
    /// and sheddable traffic should be refused with `Busy`.
    fn overloaded(&self, handle: &Handle) -> bool {
        self.shed_conns > 0 && handle.active_conns() >= self.shed_conns
    }
}

/// The `Error` a write the core refused is answered with: a load it
/// does not admit, or else a heartbeat from a node it does not know (a
/// heartbeat carries no listen address, so the node must register).
fn refusal(wire: &WireNodeStatus) -> Response {
    let message = if admissible_load(wire.load_score) {
        format!("heartbeat from unregistered node {}", wire.id)
    } else {
        format!("node {}: load_score {}", wire.id, wire.load_score)
    };
    Response::Error { message }
}

/// Sync-link health of one federation peer, kept by the sync rounds.
#[derive(Debug, Clone)]
struct PeerHealth {
    consecutive_failures: u32,
    /// Earliest time the next sync to this peer will be attempted.
    next_attempt: Instant,
    dead: bool,
    /// A sync RPC to this peer is still in flight; rounds firing
    /// faster than the peer answers must not pile up connections.
    in_flight: bool,
}

struct ManagerState {
    /// The simulator's manager core: the merged registry of the nodes
    /// registered here and those peer shards advertise through
    /// `SyncSummaries` (the configured liveness window is its budget),
    /// the proximity index, the discovery engine, the sync push and the
    /// counters. A standalone manager is a shard that never hears from
    /// a peer. Discovery freezes a view under the lock and ranks outside
    /// it, so heartbeat writes never wait on a query.
    manager: CentralManager,
    /// This manager's shard of the federation.
    shard: ShardId,
    /// Where each known node accepts client connections — the one thing
    /// the wire carries that the core does not store.
    addrs: CowTable<String>,
    /// The wall instant the shard's clock started at.
    epoch: Instant,
    /// Health of each outbound sync peer.
    peers: HashMap<SocketAddr, PeerHealth>,
    tracer: Tracer,
}

impl ManagerState {
    /// The shard's clock: wall microseconds since bind, started just
    /// past one liveness budget. A synced summary's `now − age_us` and
    /// the liveness deadline both saturate at `SimTime::ZERO`, so on a
    /// younger clock a summary of any age would read alive.
    fn now(&self) -> SimTime {
        let elapsed = self.epoch.elapsed().as_micros() as u64;
        SimTime::from_micros(1 + elapsed) + self.manager.registry().liveness_budget()
    }

    /// Housekeeping by the core's forgetting rule, own and synced
    /// records, and the forgotten nodes' addresses.
    fn prune(&mut self) {
        let pruned = self.manager.forget_dead(self.now());
        for id in pruned.ids() {
            self.addrs.remove(id);
        }
        self.narrator().pruned(pruned.own.len());
    }

    /// The core's events, stamped with the tracer's clock.
    fn narrator(&self) -> Narrator<'_> {
        Narrator::at(&self.tracer, self.tracer.now_us())
    }
}

/// A running Central Manager: accepts node registrations/heartbeats and
/// serves discovery queries with a distance+load ranking. All
/// connections are served by a small set of reactor event-loop threads;
/// dropping the handle stops the loops (which wake immediately — no
/// polling slices to wait out).
///
/// # Examples
///
/// ```no_run
/// # fn demo() -> std::io::Result<()> {
/// let (manager, addr) = armada_live::LiveManager::bind()?;
/// println!("manager listening on {addr}");
/// # drop(manager); Ok(()) }
/// ```
pub struct LiveManager {
    state: Arc<Mutex<ManagerState>>,
    reactor: Reactor,
    policy: Arc<OverloadPolicy>,
}

impl LiveManager {
    /// Binds to an ephemeral localhost port and starts serving.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind() -> std::io::Result<(LiveManager, SocketAddr)> {
        LiveManager::bind_traced(Tracer::disabled())
    }

    /// [`LiveManager::bind`] with a structured-event tracer attached;
    /// registry decisions are emitted with wall-clock timestamps.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind_traced(tracer: Tracer) -> std::io::Result<(LiveManager, SocketAddr)> {
        LiveManager::bind_with(LiveManagerConfig::default(), 0, tracer)
    }

    /// Binds one shard of a manager federation.
    ///
    /// Peer addresses are only known once every shard has bound, so
    /// peer sync starts separately via [`LiveManager::start_sync`].
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind_federated(
        shard: u64,
        tracer: Tracer,
    ) -> std::io::Result<(LiveManager, SocketAddr)> {
        LiveManager::bind_with(LiveManagerConfig::default(), shard, tracer)
    }

    /// Binds with explicit timing/sizing configuration — the
    /// fully-general constructor behind [`LiveManager::bind`],
    /// [`LiveManager::bind_traced`] and [`LiveManager::bind_federated`].
    ///
    /// # Errors
    ///
    /// Propagates socket and reactor-spawn errors.
    pub fn bind_with(
        cfg: LiveManagerConfig,
        shard: u64,
        tracer: Tracer,
    ) -> std::io::Result<(LiveManager, SocketAddr)> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        // One missed window is death: the liveness budget is the window.
        let config = SystemConfig {
            heartbeat_period: SimDuration::from_micros(cfg.liveness_window.as_micros() as u64),
            heartbeat_miss_limit: 1,
            ..SystemConfig::default()
        };
        let manager = CentralManager::new(config, GlobalSelectionPolicy::default());
        // Housekeeping runs every liveness budget, the core's cadence.
        let budget = Duration::from_micros(manager.registry().liveness_budget().as_micros());
        let state = Arc::new(Mutex::new(ManagerState {
            manager,
            shard: ShardId::new(shard),
            addrs: CowTable::new(),
            epoch: Instant::now(),
            peers: HashMap::new(),
            tracer,
        }));
        let reactor = Reactor::new(ReactorConfig {
            threads: cfg.threads.max(1),
            read_progress_timeout: cfg.read_progress_timeout,
            ..ReactorConfig::default()
        })?;
        let policy = Arc::new(OverloadPolicy {
            shed_conns: cfg.shed_conns,
            sheds: std::sync::atomic::AtomicU64::new(0),
        });

        let conn_state = Arc::clone(&state);
        let conn_policy = Arc::clone(&policy);
        let factory: AcceptFactory = Box::new(move |stream, _peer| {
            let _ = stream.set_nodelay(true);
            let conn = MgrConn {
                state: Arc::clone(&conn_state),
                policy: Arc::clone(&conn_policy),
            };
            Some((
                Box::new(stream) as Box<dyn Source>,
                Box::new(conn) as Box<dyn Conn>,
            ))
        });
        reactor.handle().add_listener(listener, factory)?;
        let prune_state = Arc::clone(&state);
        let prune = move |_: &Handle| lock_recover(&prune_state).prune();
        reactor.handle().timer_every(budget, prune);

        let manager = LiveManager {
            state,
            reactor,
            policy,
        };
        Ok((manager, addr))
    }

    /// Starts the background peer-sync schedule: every `period`,
    /// summaries of the locally-owned nodes are pushed to each peer
    /// manager over a fresh evented connection. A dead peer costs at
    /// most one sync-RPC budget per round; the schedule itself never
    /// gives up on a peer — a revived manager simply receives the next
    /// full push, which doubles as its resync. Rounds fire from the
    /// reactor's timer wheel, so shutdown never waits out a period.
    pub fn start_sync(&mut self, peers: Vec<SocketAddr>, period: Duration) {
        let state = Arc::clone(&self.state);
        self.reactor.handle().timer_every(period, move |handle| {
            sync_round(&state, &peers, handle);
        });
    }

    /// Number of sync peers currently marked dead (their last sync
    /// blew the dead-peer budget and no good sync has revived them
    /// yet).
    pub fn dead_peer_count(&self) -> usize {
        let state = lock_recover(&self.state);
        state.peers.values().filter(|h| h.dead).count()
    }

    /// `true` while the sync schedule considers `peer` dead.
    pub fn peer_is_dead(&self, peer: SocketAddr) -> bool {
        let state = lock_recover(&self.state);
        state.peers.get(&peer).is_some_and(|h| h.dead)
    }

    /// Number of nodes currently considered alive, own and synced.
    pub fn alive_count(&self) -> usize {
        let state = lock_recover(&self.state);
        state.manager.alive_count(state.now())
    }

    /// Number of peer-owned nodes currently alive in the synced view.
    pub fn synced_count(&self) -> usize {
        let state = lock_recover(&self.state);
        state.manager.registry().peer_alive_count(state.now())
    }

    /// Number of nodes in the registry, own and synced, alive or not:
    /// what housekeeping has not yet forgotten.
    pub fn registered_count(&self) -> usize {
        lock_recover(&self.state).manager.registry().len()
    }

    /// Completed outbound peer-sync rounds.
    pub fn sync_rounds(&self) -> u64 {
        lock_recover(&self.state).manager.counters().sync_rounds
    }

    /// Total summaries applied from inbound peer syncs.
    pub fn syncs_applied(&self) -> u64 {
        lock_recover(&self.state)
            .manager
            .counters()
            .summaries_applied
    }

    /// Total discovery queries served.
    pub fn discoveries_served(&self) -> u64 {
        lock_recover(&self.state).manager.counters().discoveries
    }

    /// Requests refused with `Busy` by the admission layer.
    pub fn shed_count(&self) -> u64 {
        self.policy.sheds.load(Ordering::Relaxed)
    }

    /// Aggregate bytes buffered for write across every connection.
    pub fn buffered_write_bytes(&self) -> usize {
        self.reactor.handle().buffered_write_bytes()
    }
}

/// `overload.evict`, if `err` closed one of `server`'s connections for
/// overload (`id`: the node's id, the manager's shard). The reactor
/// reports evictions as `io::Error`s with fixed messages; matching on
/// them keeps the reactor free of tracing concerns.
pub(crate) fn trace_eviction(
    tracer: &Tracer,
    server: &'static str,
    id: u64,
    err: Option<&std::io::Error>,
) {
    let Some(msg) = err.map(ToString::to_string) else {
        return;
    };
    let reason = if msg.contains("outbound backlog exceeded") {
        "write-cap"
    } else if msg.contains("write stalled") {
        "write-stall"
    } else if msg.contains("read progress stalled") {
        "slow-loris"
    } else {
        return;
    };
    tracer.emit(Severity::Warn, "overload.evict", || {
        vec![("server", s(server)), ("id", u(id)), ("reason", s(reason))]
    });
}

/// One accepted connection's state machine: decode a request frame,
/// serve it, echo the reply in the request's codec. A handler bug
/// (e.g. a panic on one malformed request) must stay scoped to this
/// request: the panic is caught here, the client gets an error
/// response, and the shared state mutex — poisoned if the panic
/// happened under the lock — is recovered by every later
/// `lock_recover`. One bad request never takes the manager down.
struct MgrConn {
    state: Arc<Mutex<ManagerState>>,
    policy: Arc<OverloadPolicy>,
}

impl Conn for MgrConn {
    fn on_frame(&mut self, frame: Vec<u8>, ctx: &mut ConnCtx) {
        // The codec is detected per request and the reply echoes it, so
        // one manager serves JSON and binary peers simultaneously.
        let Ok((request, codec)) = decode_request(&frame) else {
            ctx.close();
            return;
        };
        // Admission control: discovery queries are the sheddable class.
        // Registration, heartbeats and federation sync are protected —
        // liveness tracking must survive a query storm, so they are
        // never refused before the last query is.
        if matches!(request, Request::Discover { .. }) && self.policy.overloaded(ctx.handle()) {
            self.policy
                .sheds
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let retry_after_ms = BUSY_RETRY_MS;
            lock_recover(&self.state)
                .tracer
                .emit(Severity::Debug, "mgr.shed", || {
                    vec![("retry_after_ms", u(retry_after_ms))]
                });
            ctx.send(codec.encode_response(&Response::Busy { retry_after_ms }));
            return;
        }
        let state = &self.state;
        let response = catch_unwind(AssertUnwindSafe(|| handle_request(request, state)))
            .unwrap_or_else(|_| {
                lock_recover(state)
                    .tracer
                    .emit(Severity::Warn, "mgr.request.panic", Vec::new);
                Response::Error {
                    message: "internal error serving request".into(),
                }
            });
        ctx.send(codec.encode_response(&response));
    }

    fn on_close(&mut self, err: Option<&std::io::Error>, _handle: &Handle) {
        // (An orderly close takes no lock.)
        if err.is_some() {
            let state = lock_recover(&self.state);
            trace_eviction(&state.tracer, "manager", state.shard.as_u64(), err);
        }
    }
}

/// Counts down the in-flight syncs of one round; the round completes —
/// and the manager notes it — when the last one settles.
struct RoundTracker {
    pending: AtomicUsize,
    state: Arc<Mutex<ManagerState>>,
}

impl RoundTracker {
    fn complete_one(&self) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            lock_recover(&self.state).manager.note_sync_round();
        }
    }
}

/// Fires one sync round: push the manager's own records to every peer
/// that is neither backing off nor mid-RPC.
fn sync_round(state: &Arc<Mutex<ManagerState>>, peers: &[SocketAddr], handle: &Handle) {
    // Backoff gate: a recently failed peer sits out until its next
    // scheduled attempt; a peer with a sync still in flight is not
    // dialed again.
    let mut st = lock_recover(state);
    let mut targets = Vec::new();
    let wall = Instant::now();
    for peer in peers {
        let health = st.peers.entry(*peer).or_insert_with(|| PeerHealth {
            consecutive_failures: 0,
            next_attempt: wall,
            dead: false,
            in_flight: false,
        });
        if health.in_flight || wall < health.next_attempt {
            continue;
        }
        health.in_flight = true;
        targets.push(*peer);
    }
    if targets.is_empty() {
        // Every peer gated: the round still completes.
        st.manager.note_sync_round();
        return;
    }
    let now = st.now();
    let summaries = st
        .manager
        .own_summaries()
        .iter()
        .map(|record| WireSummary {
            status: record.status.into(),
            listen_addr: st
                .addrs
                .get(record.status.node)
                .cloned()
                .unwrap_or_default(),
            age_us: now.saturating_since(record.last_heartbeat).as_micros(),
        })
        .collect();
    let from = st.shard.as_u64();
    drop(st);
    let body = Codec::Binary.encode_request(&Request::SyncSummaries { from, summaries });
    let round = Arc::new(RoundTracker {
        pending: AtomicUsize::new(targets.len()),
        state: Arc::clone(state),
    });
    for peer in targets {
        handle.connect(
            peer,
            SYNC_RPC_TIMEOUT,
            Box::new(SyncConn {
                peer,
                body: body.clone(),
                from,
                state: Arc::clone(state),
                round: Arc::clone(&round),
                settled: false,
            }),
        );
    }
}

/// One outbound summary push: connect, send, await the ack under the
/// dead-peer budget. Exactly one of success/failure is recorded per
/// attempt, whether the RPC completes, times out, or the link dies.
struct SyncConn {
    peer: SocketAddr,
    body: Vec<u8>,
    from: u64,
    state: Arc<Mutex<ManagerState>>,
    round: Arc<RoundTracker>,
    settled: bool,
}

impl SyncConn {
    fn settle(&mut self, ok: bool) {
        if self.settled {
            return;
        }
        self.settled = true;
        record_sync_outcome(&self.state, self.peer, self.from, ok);
        self.round.complete_one();
    }
}

impl Conn for SyncConn {
    fn on_connected(&mut self, ctx: &mut ConnCtx) {
        ctx.send(std::mem::take(&mut self.body));
        // The budget covers the whole exchange from connect completion.
        ctx.set_timer(SYNC_RPC_TIMEOUT);
    }

    fn on_frame(&mut self, frame: Vec<u8>, ctx: &mut ConnCtx) {
        // `true` only for a fully acknowledged exchange within budget:
        // a peer that answers anything but `SyncAck` did not take the
        // push.
        let ok = matches!(decode_response(&frame), Ok((Response::SyncAck { .. }, _)));
        self.settle(ok);
        ctx.close();
    }

    fn on_timer(&mut self, ctx: &mut ConnCtx) {
        self.settle(false);
        ctx.close();
    }

    fn on_close(&mut self, _err: Option<&std::io::Error>, _handle: &Handle) {
        // Connect failure, reset, or EOF before the ack: all failures.
        self.settle(false);
    }
}

/// Applies one sync attempt's outcome to the peer's health record:
/// one blown dead-peer budget is enough to mark it dead (with capped
/// jittered backoff instead of per-round timeouts); the first good sync
/// revives it.
fn record_sync_outcome(state: &Arc<Mutex<ManagerState>>, peer: SocketAddr, from: u64, ok: bool) {
    let mut st = lock_recover(state);
    // (`sync_round` entered the peer before dialing it.)
    let Some(health) = st.peers.get_mut(&peer) else {
        return;
    };
    health.in_flight = false;
    if ok {
        let revived = health.dead;
        health.consecutive_failures = 0;
        health.next_attempt = Instant::now();
        health.dead = false;
        if revived {
            st.tracer.emit(Severity::Info, "fed.peer.revived", || {
                vec![("shard", u(from)), ("peer", s(peer.to_string()))]
            });
        }
    } else {
        let delay =
            SYNC_PEER_BACKOFF.delay(health.consecutive_failures, from ^ u64::from(peer.port()));
        health.consecutive_failures = health.consecutive_failures.saturating_add(1);
        health.next_attempt = Instant::now() + delay;
        let newly_dead = !health.dead;
        health.dead = true;
        let failures = health.consecutive_failures;
        if newly_dead {
            st.tracer.emit(Severity::Warn, "fed.peer.dead", || {
                vec![
                    ("shard", u(from)),
                    ("peer", s(peer.to_string())),
                    ("failures", u(u64::from(failures))),
                ]
            });
        }
    }
}

fn handle_request(request: Request, state: &Mutex<ManagerState>) -> Response {
    match request {
        Request::Register {
            status,
            listen_addr,
        } => {
            let core = NodeStatus::from(&status);
            let mut s = lock_recover(state);
            let now = s.now();
            if !s.manager.register(core, now) {
                return refusal(&status);
            }
            s.addrs.insert(core.node, listen_addr);
            s.narrator().registered(core.node, s.shard);
            Response::Registered
        }
        Request::Heartbeat { status } => {
            let mut s = lock_recover(state);
            let now = s.now();
            if !s.manager.heartbeat(NodeStatus::from(&status), now) {
                return refusal(&status);
            }
            Response::HeartbeatAck
        }
        Request::Discover {
            user: _user,
            lat,
            lon,
            top_n,
        } => {
            // Take the shard's published view and freeze the addresses
            // under the lock (a few reference bumps), then rank outside
            // it: discovery never blocks a heartbeat or sync write.
            let (snapshot, addrs, now) = {
                let mut s = lock_recover(state);
                let snapshot = s.manager.serve_discovery();
                #[cfg(test)]
                test_hooks::maybe_panic_in_discover(_user);
                (snapshot, s.addrs.view(), s.now())
            };
            let best = snapshot.discover(GeoPoint::new(lat, lon), &[], top_n, now);
            let nodes = best
                .into_iter()
                .map(|id| (id.as_u64(), addrs.get(id).cloned().unwrap_or_default()))
                .collect();
            Response::Candidates { nodes }
        }
        Request::SyncSummaries { from, summaries } => {
            let mut s = lock_recover(state);
            let now = s.now();
            let mut applied = 0u64;
            for summary in summaries {
                // The core skips a summary with a load it does not
                // admit, and one of this manager's own nodes (the
                // owner's heartbeat is first-hand).
                let status = NodeStatus::from(&summary.status);
                let heard = now - SimDuration::from_micros(summary.age_us);
                if !s.manager.apply_peer(status, heard) {
                    continue;
                }
                if s.addrs.get(status.node) != Some(&summary.listen_addr) {
                    s.addrs.insert(status.node, summary.listen_addr);
                }
                applied += 1;
            }
            s.narrator().synced(s.shard, ShardId::new(from), applied);
            Response::SyncAck { applied }
        }
        other => Response::Error {
            message: format!("manager cannot serve {other:?}"),
        },
    }
}

#[cfg(test)]
mod test_hooks {
    use std::sync::atomic::{AtomicU64, Ordering};

    /// When set to a user id, the next Discover for exactly that user
    /// panics *while holding the state lock* — poisoning the mutex the
    /// way a real handler bug would. Keyed by user id so concurrent
    /// tests sharing the process never trip each other's injection.
    pub static PANIC_DISCOVER_USER: AtomicU64 = AtomicU64::new(u64::MAX);

    pub fn maybe_panic_in_discover(user: u64) {
        if user != u64::MAX
            && PANIC_DISCOVER_USER
                .compare_exchange(user, u64::MAX, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        {
            panic!("injected: discover handler bug for user {user}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use armada_types::NodeClass;
    use armada_wire::{read_response, write_request};
    use std::net::TcpStream;

    fn status(id: u64, load: f64) -> WireNodeStatus {
        WireNodeStatus {
            id,
            class: NodeClass::Volunteer,
            location: GeoPoint::new(44.98, -93.26),
            attached_users: 0,
            load_score: load,
        }
    }

    fn rpc(addr: SocketAddr, req: Request) -> Response {
        let mut stream = TcpStream::connect(addr).unwrap();
        write_request(&mut stream, armada_wire::Codec::Binary, &req).unwrap();
        read_response(&mut stream).unwrap().0
    }

    #[test]
    fn register_then_discover() {
        let (mgr, addr) = LiveManager::bind().unwrap();
        for id in 0..3 {
            let resp = rpc(
                addr,
                Request::Register {
                    status: status(id, id as f64 * 0.5),
                    listen_addr: format!("127.0.0.1:{}", 9000 + id),
                },
            );
            assert_eq!(resp, Response::Registered);
        }
        assert_eq!(mgr.alive_count(), 3);
        let resp = rpc(
            addr,
            Request::Discover {
                user: 1,
                lat: 44.98,
                lon: -93.26,
                top_n: 2,
            },
        );
        match resp {
            Response::Candidates { nodes } => {
                assert_eq!(nodes.len(), 2);
                // Least-loaded node ranks first.
                assert_eq!(nodes[0].0, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(mgr.discoveries_served(), 1);
    }

    #[test]
    fn heartbeat_from_unknown_node_errors() {
        let (_mgr, addr) = LiveManager::bind().unwrap();
        let resp = rpc(
            addr,
            Request::Heartbeat {
                status: status(9, 0.0),
            },
        );
        assert!(matches!(resp, Response::Error { .. }));
    }

    /// Polls until `probe` holds, failing the test after two seconds —
    /// the sync schedule runs on wall time, so assertions must wait
    /// for it.
    fn eventually(what: &str, probe: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(2);
        while !probe() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn peer_sync_propagates_registrations() {
        let (mut a, addr_a) = LiveManager::bind_federated(0, Tracer::disabled()).unwrap();
        let (b, addr_b) = LiveManager::bind_federated(1, Tracer::disabled()).unwrap();
        for id in 0..2 {
            rpc(
                addr_a,
                Request::Register {
                    status: status(id, 0.0),
                    listen_addr: format!("127.0.0.1:{}", 9000 + id),
                },
            );
        }
        assert_eq!(b.alive_count(), 0, "nothing synced yet");
        a.start_sync(vec![addr_b], Duration::from_millis(25));
        eventually("shard B to learn A's nodes", || b.synced_count() == 2);
        assert!(a.sync_rounds() > 0);
        assert_eq!(b.syncs_applied() % 2, 0);

        // B serves A's nodes from the synced view, correct addresses
        // included.
        let resp = rpc(
            addr_b,
            Request::Discover {
                user: 7,
                lat: 44.98,
                lon: -93.26,
                top_n: 5,
            },
        );
        match resp {
            Response::Candidates { nodes } => {
                assert_eq!(nodes.len(), 2);
                assert_eq!(nodes[0], (0, "127.0.0.1:9000".into()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn own_registration_outranks_a_synced_summary() {
        let (_b, addr_b) = LiveManager::bind_federated(1, Tracer::disabled()).unwrap();
        // B owns node 5 directly.
        rpc(
            addr_b,
            Request::Register {
                status: status(5, 0.0),
                listen_addr: "127.0.0.1:9105".into(),
            },
        );
        // A peer pushes a conflicting (stale-addressed) summary for the
        // same node plus a genuinely new one.
        let resp = rpc(
            addr_b,
            Request::SyncSummaries {
                from: 0,
                summaries: vec![
                    WireSummary {
                        status: status(5, 0.9),
                        listen_addr: "127.0.0.1:6666".into(),
                        age_us: 0,
                    },
                    WireSummary {
                        status: status(6, 0.5),
                        listen_addr: "127.0.0.1:9106".into(),
                        age_us: 0,
                    },
                ],
            },
        );
        assert_eq!(resp, Response::SyncAck { applied: 1 });
        let resp = rpc(
            addr_b,
            Request::Discover {
                user: 1,
                lat: 44.98,
                lon: -93.26,
                top_n: 5,
            },
        );
        match resp {
            Response::Candidates { nodes } => {
                assert_eq!(
                    nodes,
                    vec![(5, "127.0.0.1:9105".into()), (6, "127.0.0.1:9106".into())],
                    "node 5 must keep its first-hand address and load"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stale_synced_summaries_are_not_served() {
        let (b, addr_b) = LiveManager::bind_federated(1, Tracer::disabled()).unwrap();
        // The wire age predates the liveness window: the entry lands in
        // the remote map but is already dead on arrival.
        let resp = rpc(
            addr_b,
            Request::SyncSummaries {
                from: 0,
                summaries: vec![WireSummary {
                    status: status(9, 0.0),
                    listen_addr: "127.0.0.1:9109".into(),
                    age_us: LiveManagerConfig::default().liveness_window.as_micros() as u64
                        + 1_000_000,
                }],
            },
        );
        assert_eq!(resp, Response::SyncAck { applied: 1 });
        assert_eq!(b.synced_count(), 0);
        let resp = rpc(
            addr_b,
            Request::Discover {
                user: 1,
                lat: 44.98,
                lon: -93.26,
                top_n: 5,
            },
        );
        assert_eq!(resp, Response::Candidates { nodes: vec![] });
    }

    #[test]
    fn sync_survives_a_dead_peer() {
        let (mut a, _addr_a) = LiveManager::bind_federated(0, Tracer::disabled()).unwrap();
        // Bind-then-drop frees a port nothing listens on.
        let dead = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        a.start_sync(vec![dead], Duration::from_millis(25));
        eventually("rounds to keep completing against a dead peer", || {
            a.sync_rounds() >= 3
        });
    }

    /// A node whose heartbeats are merely delayed — not stopped — must
    /// not be evicted: the liveness window is a grace window, and only
    /// silence past it counts as death. Runs against a shrunken window
    /// so the grace/eviction transition takes milliseconds, not the
    /// 6-second production default.
    #[test]
    fn delayed_heartbeat_within_grace_window_is_not_evicted() {
        let window = Duration::from_millis(600);
        let cfg = LiveManagerConfig {
            liveness_window: window,
            ..LiveManagerConfig::default()
        };
        let (mgr, addr) = LiveManager::bind_with(cfg, 0, Tracer::disabled()).unwrap();
        rpc(
            addr,
            Request::Register {
                status: status(3, 0.0),
                listen_addr: "127.0.0.1:9103".into(),
            },
        );
        // Half the window with no heartbeat at all: delayed but alive.
        std::thread::sleep(window / 2);
        assert_eq!(mgr.alive_count(), 1, "half-window silence is not death");
        let resp = rpc(
            addr,
            Request::Heartbeat {
                status: status(3, 0.1),
            },
        );
        assert_eq!(
            resp,
            Response::HeartbeatAck,
            "a late heartbeat must land on the live registration"
        );
        match rpc(
            addr,
            Request::Discover {
                user: 1,
                lat: 44.98,
                lon: -93.26,
                top_n: 5,
            },
        ) {
            Response::Candidates { nodes } => {
                assert_eq!(nodes.len(), 1, "the delayed node stays discoverable");
            }
            other => panic!("unexpected {other:?}"),
        }
        // Silence past the whole window is death.
        std::thread::sleep(window + Duration::from_millis(100));
        assert_eq!(mgr.alive_count(), 0, "full-window silence evicts");
    }

    /// The production timing constants must survive the configurability
    /// refactor: a default config is byte-for-byte the paper deployment.
    #[test]
    fn default_config_keeps_the_paper_timings() {
        let cfg = LiveManagerConfig::default();
        assert_eq!(cfg.liveness_window, Duration::from_secs(6));
        assert_eq!(SYNC_RPC_TIMEOUT, Duration::from_secs(1));
        assert_eq!(BUSY_RETRY_MS, 250);
    }

    /// Shutdown latency regression: the old sync loop slept its period
    /// in 20 ms slices, so dropping a manager could wait out a slice
    /// (and, before that fix, a whole period). The reactor's timer
    /// wheel owns the schedule now — drop must return in milliseconds
    /// even with a huge sync period pending.
    #[test]
    fn drop_with_pending_sync_returns_promptly() {
        let (mut a, _addr) = LiveManager::bind_federated(0, Tracer::disabled()).unwrap();
        let (_b, addr_b) = LiveManager::bind_federated(1, Tracer::disabled()).unwrap();
        a.start_sync(vec![addr_b], Duration::from_secs(3600));
        let started = Instant::now();
        drop(a);
        assert!(
            started.elapsed() < Duration::from_millis(500),
            "drop must not wait on the sync schedule, took {:?}",
            started.elapsed()
        );
    }

    /// A federation peer that blows the 1 s dead-peer budget is marked
    /// dead (with backoff instead of per-round timeouts) and revived by
    /// the first good sync after it heals.
    #[test]
    fn sync_peer_is_marked_dead_then_revived() {
        use armada_chaos::{ChaosProxy, LinkFaults};

        let (mut a, _addr_a) = LiveManager::bind_federated(0, Tracer::disabled()).unwrap();
        let (_b, addr_b) = LiveManager::bind_federated(1, Tracer::disabled()).unwrap();
        let proxy = ChaosProxy::spawn(addr_b, LinkFaults::NONE, 31).unwrap();
        let peer = proxy.addr();
        a.start_sync(vec![peer], Duration::from_millis(25));
        eventually("a clean sync to complete", || a.sync_rounds() >= 2);
        assert!(!a.peer_is_dead(peer), "healthy peer must not be dead");

        proxy.set_partitioned(true);
        eventually("the failed sync to mark the peer dead", || {
            a.peer_is_dead(peer)
        });
        assert_eq!(a.dead_peer_count(), 1);

        // Heal quickly so the accrued backoff stays short; the next
        // good sync must revive the peer.
        proxy.set_partitioned(false);
        eventually("the next good sync to revive the peer", || {
            !a.peer_is_dead(peer)
        });
        assert_eq!(a.dead_peer_count(), 0);
    }

    /// A peer that answers anything but `SyncAck` did not take the
    /// push: a node listed as a sync peer answers `Error`, so it is dead.
    #[test]
    fn a_sync_peer_that_answers_an_error_is_dead() {
        let (mut a, _addr_a) = LiveManager::bind_federated(0, Tracer::disabled()).unwrap();
        let node = crate::NodeConfig {
            id: 1,
            class: NodeClass::Volunteer,
            hw: armada_types::HardwareProfile::new("hw-1", 1, 10.0),
            location: GeoPoint::new(44.98, -93.26),
            one_way_delay: Duration::ZERO,
        };
        let (_node, peer) = crate::LiveNode::bind(node, None).unwrap();
        a.start_sync(vec![peer], Duration::from_millis(25));
        eventually("the node's refusal to mark the peer dead", || {
            a.peer_is_dead(peer)
        });
    }

    /// A request handler that panics while holding the state lock must
    /// not take the manager down: the panicking request gets an error
    /// response, the poisoned mutex is recovered, and every subsequent
    /// request — on this connection or new ones — is served normally.
    #[test]
    fn manager_survives_a_panicking_request_handler() {
        const TRAP_USER: u64 = 0xDEAD_BEEF;
        let (mgr, addr) = LiveManager::bind().unwrap();
        rpc(
            addr,
            Request::Register {
                status: status(1, 0.0),
                listen_addr: "127.0.0.1:9101".into(),
            },
        );

        // Arm the trap: the next Discover for TRAP_USER panics under
        // the lock, exactly like a malformed-request handler bug.
        test_hooks::PANIC_DISCOVER_USER.store(TRAP_USER, Ordering::SeqCst);
        let resp = rpc(
            addr,
            Request::Discover {
                user: TRAP_USER,
                lat: 44.98,
                lon: -93.26,
                top_n: 1,
            },
        );
        assert!(
            matches!(resp, Response::Error { .. }),
            "the panicking request must yield an error response, got {resp:?}"
        );

        // The mutex was poisoned while held; every later path must
        // recover instead of cascading.
        assert_eq!(mgr.alive_count(), 1);
        let resp = rpc(
            addr,
            Request::Heartbeat {
                status: status(1, 0.2),
            },
        );
        assert_eq!(resp, Response::HeartbeatAck);
        match rpc(
            addr,
            Request::Discover {
                user: 1,
                lat: 44.98,
                lon: -93.26,
                top_n: 5,
            },
        ) {
            Response::Candidates { nodes } => {
                assert_eq!(nodes.len(), 1, "the manager must still serve discovery");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(mgr.discoveries_served(), 2);
    }

    #[test]
    fn frame_request_to_manager_is_an_error() {
        let (_mgr, addr) = LiveManager::bind().unwrap();
        let resp = rpc(
            addr,
            Request::Frame {
                user: 0,
                seq: 0,
                payload_len: 10,
            },
        );
        assert!(matches!(resp, Response::Error { .. }));
    }
}
