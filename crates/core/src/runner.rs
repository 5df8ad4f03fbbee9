//! The protocol event functions: everything that happens on the virtual
//! timeline.
//!
//! Each function is one step of the paper's protocol (discovery, probe,
//! join, offload, failover), expressed as events against the [`World`].
//! Network delays are sampled from `armada-net`; node and client logic
//! stay in their own crates — this module only wires messages between
//! them. A node is entered through `enter_node` alone, and its requests
//! travel as unencoded wire `Request` / `Response` values answered by
//! [`armada_node::serve`], the dispatcher the live node runs too.
//!
//! The four events of a frame's round trip — the send-loop tick, the
//! frame reaching its node, the node's executor wake-up and the response
//! reaching its user — are [`SimEvent`] values, queued unboxed and
//! dispatched by one `match`; every other step is a scheduled closure.
//! A node's actions land in one buffer the [`World`] lends each entry
//! into a node, so a frame's round trip allocates nothing.

use std::collections::HashSet;

use armada_client::{
    ClientDecision, EdgeClient, FailoverDecision, JoinFollowup, ManagerReply, Narrator,
    ProbeResult, Verdict, FRAME_ACK_TIMEOUT, IDLE_RETRY, PROBE_TIMEOUT,
};
use armada_net::{Addr, Delivery};
use armada_node::{serve, EdgeNode, Narrator as NodeNarrator, NodeAction};
use armada_sim::{Context, Event, Simulation, Thunk};
use armada_trace::{u, Severity, Tracer};
use armada_types::{NodeClass, NodeId, SimDuration, SimTime, UserId};
use armada_wire::{Request, Response};
use armada_workload::{Frame, FrameResponse, FRAME_SIZE};

use crate::strategy::Strategy;
use crate::world::World;

pub(crate) type Ctx<'a> = Context<'a, World, SimEvent>;

/// The simulation the runner drives.
pub(crate) type Sim = Simulation<World, SimEvent>;

/// What the runner schedules: a frame's round trip as values, anything
/// else as a closure.
pub(crate) enum SimEvent {
    /// The user's frame loop ticks: send a frame, or wait for a node.
    SendFrame(UserId),
    /// A frame reaches a node (lost if the node is dead).
    FrameArrives { node: NodeId, frame: Frame },
    /// The node's executor wake-up armed at `epoch`: stale, and
    /// dropped, if the executor changed since.
    Wakeup { node: NodeId, epoch: u64 },
    /// A processed frame's response reaches its user.
    ResponseArrives(FrameResponse),
    /// Any other step.
    Closure(Thunk<World, SimEvent>),
}

impl Event<World> for SimEvent {
    fn fire(self, w: &mut World, ctx: &mut Ctx<'_>) {
        match self {
            SimEvent::SendFrame(user) => send_frame(w, ctx, user),
            SimEvent::FrameArrives { node, frame } => {
                enter_node(w, ctx, node, |n, now, _, actions| {
                    n.offload(frame, now, actions);
                    None
                });
            }
            SimEvent::Wakeup { node, epoch } => {
                if w.nodes.get(&node).is_some_and(|n| n.epoch() == epoch) {
                    enter_node(w, ctx, node, |n, now, _, actions| {
                        n.on_wakeup(epoch, now, actions);
                        None
                    });
                }
            }
            SimEvent::ResponseArrives(response) => receive_response(w, ctx, response),
            SimEvent::Closure(f) => f(w, ctx),
        }
    }

    fn from_fn(f: Thunk<World, SimEvent>) -> Self {
        SimEvent::Closure(f)
    }
}

/// A transport timeout, the simulator's model of one: a request whose
/// reply never comes, or a server gone with no warm backup connection to
/// notice it by (the reactive approach's dominant cost), takes this long.
const RECONNECT_TIMEOUT: SimDuration = SimDuration::from_millis(1_000);

/// The client core's events, stamped with the current virtual time.
fn narrator<'a>(tracer: &'a Tracer, ctx: &Ctx<'_>) -> Narrator<'a> {
    Narrator::at(tracer, ctx.now().as_micros())
}

/// Entry point: a user joins the system.
pub(crate) fn user_join(w: &mut World, ctx: &mut Ctx<'_>, user: UserId) {
    if w.strategy.is_client_centric() {
        start_probe_round(w, ctx, user);
    } else {
        baseline_assign(w, ctx, user);
    }
}

/// Edge discovery + probe fan-out (Algorithm 2, lines 1–10). The
/// control plane is the user's route order over the manager tier, home
/// shard first, walked by the client core. A round that comes due
/// while a discovery retry is pending starts no second chain: it runs
/// on the cached shortlist, if there is one.
pub(crate) fn start_probe_round(w: &mut World, ctx: &mut Ctx<'_>, user: UserId) {
    let Some(client) = w.clients.get(&user) else {
        return;
    };
    if client.retry_at().is_some_and(|at| ctx.now() < at) {
        if let Some(cached) = client.cached_shortlist().map(<[NodeId]>::to_vec) {
            probe_candidates(w, ctx, user, cached);
        }
        return;
    }
    ask_manager(w, ctx, user, 0);
}

/// Sends `Discover` to the first manager at or after rank `from` of the
/// user's route that its breakers let a request through to.
fn ask_manager(w: &mut World, ctx: &mut Ctx<'_>, user: UserId, from: usize) {
    let now = ctx.now();
    let trace = narrator(&w.tracer, ctx);
    let Some(client) = w.clients.get_mut(&user) else {
        return;
    };
    let Some(rank) = client.next_manager(from, w.managers.shard_count(), now, trace) else {
        route_exhausted(w, ctx, user);
        return;
    };
    let loc = client.location();
    let top_n = w.client_config.top_n;
    let rtt_m = match w
        .net
        .deliver_rtt(Addr::User(user), Addr::Manager, now.as_micros(), ctx.rng())
    {
        Delivery::Delivered { delay, .. } => delay,
        Delivery::Dropped => {
            // Lost in flight: the client finds out by timeout.
            ctx.schedule_in(PROBE_TIMEOUT, move |w, ctx| {
                discovered(w, ctx, user, rank, ManagerReply::Unserved)
            });
            return;
        }
        Delivery::Unreachable => {
            discovered(w, ctx, user, rank, ManagerReply::Unserved);
            return;
        }
    };
    ctx.schedule_in(rtt_m, move |w, ctx| {
        let affiliations = w.affiliations.get(&user).cloned().unwrap_or_default();
        let shard = w.managers.map().route_order(loc)[rank];
        // Served off the shard's published per-epoch snapshot (memoised
        // between mutations, republished at O(changes) after one),
        // ranked by the incremental disk-scan + partial-select engine —
        // byte-identical to the original full-scan procedure, so trace
        // determinism and replay are unaffected by the scale of the
        // registered fleet.
        let served = w
            .managers
            .discover_at(shard, loc, &affiliations, top_n, ctx.now());
        match served {
            Some(candidates) => {
                discovered(w, ctx, user, rank, ManagerReply::Candidates(candidates))
            }
            // The shard is down: the connect times out.
            None => ctx.schedule_in(w.route_retry, move |w, ctx| {
                discovered(w, ctx, user, rank, ManagerReply::Unserved)
            }),
        }
    });
}

/// The answer (or silence) of the manager at `rank` of the user's route
/// reaches the client core: probe its shortlist, or walk on.
fn discovered(w: &mut World, ctx: &mut Ctx<'_>, user: UserId, rank: usize, reply: ManagerReply) {
    let trace = narrator(&w.tracer, ctx);
    let Some(client) = w.clients.get_mut(&user) else {
        return;
    };
    match client.on_discover(rank, reply, ctx.now(), trace) {
        Verdict::Probe(candidates) => {
            // (A tier of one has no routing to report.)
            if w.managers.shard_count() > 1 {
                let (map, loc) = (w.managers.map(), client.location());
                w.tracer
                    .emit_at(ctx.now().as_micros(), Severity::Debug, "fed.route", || {
                        let route = map.route_order(loc);
                        vec![
                            ("user", u(user.as_u64())),
                            ("home", u(route[0].as_u64())),
                            ("served_by", u(route[rank].as_u64())),
                            ("failover", u(u64::from(rank > 0))),
                            ("returned", u(candidates.len() as u64)),
                        ]
                    });
            }
            probe_candidates(w, ctx, user, candidates)
        }
        // (No simulated manager says `Busy`: there is no pause to sit out.)
        Verdict::Next { .. } => ask_manager(w, ctx, user, rank + 1),
    }
}

/// No manager served: the core names the user's one pending retry. The
/// first walk to fail since a manager answered was a round's, and that
/// round runs on the cached shortlist (degraded mode; any attachment
/// keeps serving); the walks after it are the retry's own.
fn route_exhausted(w: &mut World, ctx: &mut Ctx<'_>, user: UserId) {
    let trace = narrator(&w.tracer, ctx);
    let Some(client) = w.clients.get_mut(&user) else {
        return;
    };
    let before = client.retry_at();
    client.on_route_exhausted(ctx.now(), trace);
    let cached = client
        .cached_shortlist()
        .filter(|_| before.is_none())
        .map(<[NodeId]>::to_vec);
    follow_retry(w, ctx, user, before);
    if let Some(cached) = cached {
        probe_candidates(w, ctx, user, cached);
    }
}

/// A round at the user's one retry, if a core step armed it or moved it
/// from `before`. A timer whose retry moved since, or was dropped (a
/// manager answered, the client started over), stands down.
fn follow_retry(w: &World, ctx: &mut Ctx<'_>, user: UserId, before: Option<SimTime>) {
    let retry_at = move |w: &World| w.clients.get(&user).and_then(EdgeClient::retry_at);
    if let Some(at) = retry_at(w).filter(|&at| Some(at) != before) {
        ctx.schedule_at(at, move |w, ctx| {
            if retry_at(w) == Some(ctx.now()) {
                start_probe_round(w, ctx, user);
            }
        });
    }
}

/// The probe fan-out over a discovery shortlist (Algorithm 2, lines
/// 4–10): the core opens the round, this carries its probes.
fn probe_candidates(w: &mut World, ctx: &mut Ctx<'_>, user: UserId, shortlist: Vec<NodeId>) {
    let serving = w.clients.get(&user).and_then(EdgeClient::current_node);
    let serving_up = serving.is_some_and(|node| w.node_is_up(node));
    let (now, trace) = (ctx.now(), narrator(&w.tracer, ctx));
    let Some(client) = w.clients.get_mut(&user) else {
        return;
    };
    let before = client.retry_at();
    let Some((round, candidates)) = client.start_probe_round(shortlist, |_| serving_up, now, trace)
    else {
        return follow_retry(w, ctx, user, before);
    };
    for node in candidates {
        send_probe(w, ctx, user, node, round);
    }
    ctx.schedule_in(PROBE_TIMEOUT, move |w, ctx| {
        conclude_probe_round(w, ctx, user, round);
    });
}

/// One `RTT_probe()` + `Process_probe()` exchange.
fn send_probe(w: &mut World, ctx: &mut Ctx<'_>, user: UserId, node: NodeId, round: u64) {
    let now_us = ctx.now().as_micros();
    let d1 = match w
        .net
        .deliver_one_way(Addr::User(user), Addr::Node(node), now_us, ctx.rng())
    {
        Delivery::Delivered { delay, .. } => delay,
        // Probe lost in flight: nobody notices until the round's
        // timeout fires.
        Delivery::Dropped => return,
        Delivery::Unreachable => {
            probe_failed(w, ctx, user, node, round);
            return;
        }
    };
    ctx.schedule_in(d1, move |w, ctx| {
        let Some(reply) = enter_node(w, ctx, node, |n, now, trace, actions| {
            serve(n, Request::ProcessProbe, now, trace, actions)
        }) else {
            probe_failed(w, ctx, user, node, round);
            return;
        };
        let now_us = ctx.now().as_micros();
        match w
            .net
            .deliver_one_way(Addr::Node(node), Addr::User(user), now_us, ctx.rng())
        {
            Delivery::Delivered { delay: d2, .. } => {
                let rtt = d1 + d2;
                ctx.schedule_in(d2, move |w, ctx| {
                    probe_reply(w, ctx, user, node, round, rtt, &reply);
                });
            }
            // Lost reply: discovered by the round timeout.
            Delivery::Dropped => {}
            Delivery::Unreachable => probe_failed(w, ctx, user, node, round),
        }
    });
}

/// The node's answer reaches the client core.
fn probe_reply(
    w: &mut World,
    ctx: &mut Ctx<'_>,
    user: UserId,
    node: NodeId,
    round: u64,
    rtt: SimDuration,
    reply: &Response,
) {
    let result = ProbeResult::from_reply(node, rtt, reply);
    let client = w.clients.get_mut(&user);
    if client
        .zip(result)
        .is_some_and(|(c, r)| c.on_probe_reply(round, r))
    {
        conclude_probe_round(w, ctx, user, round);
    }
}

fn probe_failed(w: &mut World, ctx: &mut Ctx<'_>, user: UserId, node: NodeId, round: u64) {
    let (client, now) = (w.clients.get_mut(&user), ctx.now());
    if client.is_some_and(|c| c.on_probe_lost(round, node, now)) {
        conclude_probe_round(w, ctx, user, round);
    }
}

/// Algorithm 2, lines 11–20: the core ranks and decides, this carries
/// the decision out. A round concluded already, or superseded, is done.
fn conclude_probe_round(w: &mut World, ctx: &mut Ctx<'_>, user: UserId, round: u64) {
    let trace = narrator(&w.tracer, ctx);
    let Some(client) = w.clients.get_mut(&user) else {
        return;
    };
    let before = client.retry_at();
    let Some(decision) = client.conclude_probe_round(round, ctx.now(), trace) else {
        return;
    };
    match decision {
        ClientDecision::Stay => ensure_streaming(w, ctx, user),
        ClientDecision::AttemptJoin { target, seq } => attempt_join(w, ctx, user, target, seq),
        ClientDecision::Rediscover => follow_retry(w, ctx, user, before),
    }
}

/// `Join()` with sequence-number synchronisation (Algorithm 1).
fn attempt_join(w: &mut World, ctx: &mut Ctx<'_>, user: UserId, target: NodeId, seq: u64) {
    let now_us = ctx.now().as_micros();
    match w
        .net
        .deliver_one_way(Addr::User(user), Addr::Node(target), now_us, ctx.rng())
    {
        Delivery::Delivered { delay: d1, .. } => {
            ctx.schedule_in(d1, move |w, ctx| {
                let join = Request::Join {
                    user: user.as_u64(),
                    seq,
                };
                let reply = enter_node(w, ctx, target, |n, now, trace, actions| {
                    serve(n, join, now, trace, actions)
                });
                let accepted = reply == Some(Response::JoinResult { accepted: true });
                let now_us = ctx.now().as_micros();
                let d2 = match w.net.deliver_one_way(
                    Addr::Node(target),
                    Addr::User(user),
                    now_us,
                    ctx.rng(),
                ) {
                    Delivery::Delivered { delay, .. } => delay,
                    // If the reply is lost (or the node died between
                    // request and reply), the client learns the outcome
                    // through a transport-level timeout, not the (much
                    // shorter) one-way delay of the request leg.
                    Delivery::Dropped | Delivery::Unreachable => RECONNECT_TIMEOUT,
                };
                ctx.schedule_in(d2, move |w, ctx| {
                    join_reply(w, ctx, user, target, accepted);
                });
            });
        }
        // A join request lost in flight also costs the full timeout
        // before the client gives up on it.
        Delivery::Dropped => {
            ctx.schedule_in(RECONNECT_TIMEOUT, move |w, ctx| {
                join_reply(w, ctx, user, target, false);
            });
        }
        Delivery::Unreachable => {
            // Target unreachable: treat as rejection.
            join_reply(w, ctx, user, target, false);
        }
    }
}

fn join_reply(w: &mut World, ctx: &mut Ctx<'_>, user: UserId, target: NodeId, accepted: bool) {
    let trace = narrator(&w.tracer, ctx);
    let Some(client) = w.clients.get_mut(&user) else {
        return;
    };
    let before = client.retry_at();
    match client.on_join_result(target, accepted, ctx.now(), trace) {
        JoinFollowup::SwitchComplete { leave } => {
            if let Some(previous) = leave {
                send_leave(w, ctx, user, previous);
            }
            ensure_streaming(w, ctx, user);
            ensure_periodic_probing(w, ctx, user);
        }
        // Algorithm 2, line 14: repeat from the edge-discovery step.
        JoinFollowup::Rediscover => follow_retry(w, ctx, user, before),
        JoinFollowup::Stale => {}
    }
}

/// `Leave()` notification to the previous node.
fn send_leave(w: &mut World, ctx: &mut Ctx<'_>, user: UserId, node: NodeId) {
    let now_us = ctx.now().as_micros();
    let Delivery::Delivered { delay: d, .. } =
        w.net
            .deliver_one_way(Addr::User(user), Addr::Node(node), now_us, ctx.rng())
    else {
        return; // previous node gone, or the notification was lost
    };
    let leave = Request::Leave {
        user: user.as_u64(),
    };
    ctx.schedule_in(d, move |w, ctx| {
        enter_node(w, ctx, node, |n, now, trace, actions| {
            serve(n, leave, now, trace, actions)
        });
    });
}

/// `Unexpected_join()` sent to `node`: the attach over a connection
/// that is already there, which cannot be rejected (Table I). Lost with
/// the link if the node is gone.
fn send_unexpected_join(w: &mut World, ctx: &mut Ctx<'_>, user: UserId, node: NodeId) {
    let now_us = ctx.now().as_micros();
    let Delivery::Delivered { delay: d, .. } =
        w.net
            .deliver_one_way(Addr::User(user), Addr::Node(node), now_us, ctx.rng())
    else {
        return;
    };
    let attach = Request::UnexpectedJoin {
        user: user.as_u64(),
    };
    ctx.schedule_in(d, move |w, ctx| {
        enter_node(w, ctx, node, |n, now, trace, actions| {
            serve(n, attach, now, trace, actions)
        });
    });
}

/// Starts the frame loop once per user.
fn ensure_streaming(w: &mut World, ctx: &mut Ctx<'_>, user: UserId) {
    if w.streaming.insert(user) {
        send_frame(w, ctx, user);
    }
}

/// Starts the periodic re-probing loop once per user (`T_probing`).
fn ensure_periodic_probing(w: &mut World, ctx: &mut Ctx<'_>, user: UserId) {
    if !w.periodic_started.insert(user) {
        return;
    }
    let period = w.client_config.probing_period;
    schedule_next_probe_tick(w, ctx, user, period);
}

/// Self-rescheduling probing tick with ±5 % jitter, so the fleet's probe
/// rounds desynchronise instead of herding onto the same best node at
/// the same instant.
fn schedule_next_probe_tick(_w: &mut World, ctx: &mut Ctx<'_>, user: UserId, period: SimDuration) {
    let jitter = ctx.rng().uniform(0.95, 1.05);
    ctx.schedule_in(period.mul_f64(jitter), move |w, ctx| {
        if ctx.now() >= w.end_time {
            return;
        }
        start_probe_round(w, ctx, user);
        let period = w.client_config.probing_period;
        schedule_next_probe_tick(w, ctx, user, period);
    });
}

/// The client frame loop: one frame per interval to the serving node,
/// with failure detection on send.
fn send_frame(w: &mut World, ctx: &mut Ctx<'_>, user: UserId) {
    let now = ctx.now();
    if now >= w.end_time {
        return;
    }
    let Some(client) = w.clients.get_mut(&user) else {
        return;
    };
    match client.current_node() {
        None => {
            // Not attached (e.g. reactive recovery in flight): retry soon.
            ctx.schedule(now + IDLE_RETRY, SimEvent::SendFrame(user));
        }
        Some(node) => {
            let interval = client.frame_interval();
            if !client.can_send_frame() {
                // In-flight window full: drop this frame rather than
                // queue a backlog (real AR clients skip frames).
                ctx.schedule(now + interval, SimEvent::SendFrame(user));
                return;
            }
            let seq = client.next_frame_seq();
            let frame = Frame::live(user, seq, now);
            match w.net.deliver_message(
                Addr::User(user),
                Addr::Node(node),
                FRAME_SIZE,
                now.as_micros(),
                ctx.rng(),
            ) {
                Delivery::Delivered { delay, duplicate } => {
                    ctx.schedule(now + delay, SimEvent::FrameArrives { node, frame });
                    if let Some(dup) = duplicate {
                        ctx.schedule(now + dup, SimEvent::FrameArrives { node, frame });
                    }
                }
                Delivery::Dropped => {
                    // Frame lost in flight: no ack will ever come, so the
                    // in-flight slot is reclaimed by the ack timeout.
                    ctx.schedule_in(FRAME_ACK_TIMEOUT, move |w, _ctx| {
                        if let Some(client) = w.clients.get_mut(&user) {
                            client.on_frame_lost();
                        }
                    });
                }
                Delivery::Unreachable => {
                    // Connection interruption detected (paper §IV-E).
                    handle_node_failure(w, ctx, user);
                }
            }
            ctx.schedule(now + interval, SimEvent::SendFrame(user));
        }
    }
}

/// The one entry into a node's core: if `node` is up, `call` runs
/// against it at the current virtual time with the node's narrator and
/// the world's action buffer, then the actions it appended are carried
/// out and the executor's next completion is scheduled. The node's
/// answer, if it gave one. A frame enters here too: it is no wire
/// request, since a simulated [`Frame`] carries the instant it left the
/// client, which the client's latency is measured from.
fn enter_node<F>(w: &mut World, ctx: &mut Ctx<'_>, node: NodeId, call: F) -> Option<Response>
where
    F: FnOnce(&mut EdgeNode, SimTime, NodeNarrator<'_>, &mut Vec<NodeAction>) -> Option<Response>,
{
    if !w.node_is_up(node) {
        return None;
    }
    let n = w.nodes.get_mut(&node)?;
    let trace = NodeNarrator::at(&w.tracer, ctx.now().as_micros());
    let mut actions = std::mem::take(&mut w.node_actions);
    let response = call(n, ctx.now(), trace, &mut actions);
    handle_node_actions(w, ctx, node, &mut actions);
    w.node_actions = actions;
    schedule_node_wakeup(w, ctx, node);
    response
}

/// A response arrives back at the client.
fn receive_response(w: &mut World, ctx: &mut Ctx<'_>, response: FrameResponse) {
    let now = ctx.now();
    let latency = now.saturating_since(response.created_at);
    if let Some(client) = w.clients.get_mut(&response.user) {
        client.on_frame_latency(latency, narrator(&w.tracer, ctx));
    }
    w.recorder.record(response.user, now, latency);
}

/// Interprets node-produced effects, emptying `actions`.
fn handle_node_actions(
    w: &mut World,
    ctx: &mut Ctx<'_>,
    node: NodeId,
    actions: &mut Vec<NodeAction>,
) {
    for action in actions.drain(..) {
        match action {
            NodeAction::InvokeTestWorkload { after } => {
                NodeNarrator::at(&w.tracer, ctx.now().as_micros()).whatif_refresh(node, after);
                ctx.schedule_in(after, move |w, ctx| {
                    enter_node(w, ctx, node, |n, now, _, actions| {
                        n.invoke_test_workload(now, actions);
                        None
                    });
                });
            }
            NodeAction::Respond(response) => {
                let (size, now) = (response.size, ctx.now());
                match w.net.deliver_message(
                    Addr::Node(node),
                    Addr::User(response.user),
                    size,
                    now.as_micros(),
                    ctx.rng(),
                ) {
                    Delivery::Delivered { delay, duplicate } => {
                        ctx.schedule(now + delay, SimEvent::ResponseArrives(response));
                        if let Some(dup) = duplicate {
                            ctx.schedule(now + dup, SimEvent::ResponseArrives(response));
                        }
                    }
                    Delivery::Dropped => {
                        // Reply lost in transit (fault injection): the
                        // client's ack timeout reclaims the in-flight slot.
                        let user = response.user;
                        ctx.schedule_in(FRAME_ACK_TIMEOUT, move |w, _ctx| {
                            if let Some(client) = w.clients.get_mut(&user) {
                                client.on_frame_lost();
                            }
                        });
                    }
                    Delivery::Unreachable => {
                        // Node died between processing and reply: the
                        // response is lost; the client's failure monitor
                        // will notice at its next send (which resets the
                        // in-flight window on reattach).
                    }
                }
            }
        }
    }
}

/// Schedules the executor's next completion wake-up. A wake-up whose
/// epoch has passed when it fires is dropped without rescheduling (the
/// interaction that changed the epoch scheduled its own wake-up).
fn schedule_node_wakeup(w: &World, ctx: &mut Ctx<'_>, node: NodeId) {
    let Some(n) = w.nodes.get(&node) else { return };
    if let Some((epoch, at)) = n.next_wakeup(ctx.now()) {
        ctx.schedule(at, SimEvent::Wakeup { node, epoch });
    }
}

/// The failure monitor (paper §IV-E): reacts to a dead serving node.
fn handle_node_failure(w: &mut World, ctx: &mut Ctx<'_>, user: UserId) {
    let now = ctx.now();
    w.failure_events.push((user, now));
    let mode = if !w.strategy.is_client_centric() {
        "baseline"
    } else if w.strategy.is_proactive() {
        "proactive"
    } else {
        "reactive"
    };
    let failed_node = w.clients.get(&user).and_then(|c| c.current_node());
    narrator(&w.tracer, ctx).failure(user, mode, failed_node);
    if w.strategy.is_client_centric() && w.strategy.is_proactive() {
        let Some(client) = w.clients.get(&user) else {
            return;
        };
        let alive: HashSet<NodeId> = client
            .backups()
            .iter()
            .copied()
            .filter(|&n| w.node_is_up(n))
            .collect();
        let Some(client) = w.clients.get_mut(&user) else {
            return;
        };
        let decision = client.on_node_failure(now, |n| alive.contains(&n));
        narrator(&w.tracer, ctx).failover(user, failed_node, &decision);
        if let FailoverDecision::SwitchToBackup { target } = decision {
            // The connection is pre-established. Frames resume on the
            // next tick of the send loop.
            send_unexpected_join(w, ctx, user, target);
        }
        // A failover consumed a backup: refresh the candidate list now
        // rather than waiting out `T_probing`, so simultaneous later
        // failures still find warm spares. With none left, this is the
        // re-discovery, at once.
        start_probe_round(w, ctx, user);
        return;
    }
    if let Some(client) = w.clients.get_mut(&user) {
        client.detach();
    }
    if w.strategy.is_client_centric() {
        // Reactive comparison: no warm backups. The client first has to
        // *notice* the dead server (transport timeout), then stall
        // through a full re-discovery — the downtime of Fig. 4's
        // "re-connect" line.
        ctx.schedule_in(RECONNECT_TIMEOUT, move |w, ctx| {
            start_probe_round(w, ctx, user)
        });
    } else {
        // Baselines re-assign through the manager.
        baseline_assign(w, ctx, user);
    }
}

/// Server-side one-shot assignment for the baseline strategies.
pub(crate) fn baseline_assign(w: &mut World, ctx: &mut Ctx<'_>, user: UserId) {
    let now_us = ctx.now().as_micros();
    let rtt_m = match w
        .net
        .deliver_rtt(Addr::User(user), Addr::Manager, now_us, ctx.rng())
    {
        Delivery::Delivered { delay, .. } => delay,
        Delivery::Unreachable => {
            ctx.schedule_in(IDLE_RETRY, move |w, ctx| baseline_assign(w, ctx, user));
            return;
        }
        Delivery::Dropped => {
            // Request or reply lost: the client retries after its
            // request timeout expires.
            ctx.schedule_in(RECONNECT_TIMEOUT, move |w, ctx| {
                baseline_assign(w, ctx, user)
            });
            return;
        }
    };
    ctx.schedule_in(rtt_m, move |w, ctx| {
        let Some(node) = pick_baseline_node(w, user) else {
            ctx.schedule_in(SimDuration::from_secs(1), move |w, ctx| {
                baseline_assign(w, ctx, user);
            });
            return;
        };
        if let Some(client) = w.clients.get_mut(&user) {
            client.force_attach(node, Vec::new());
        }
        narrator(&w.tracer, ctx).assigned(user, node);
        send_unexpected_join(w, ctx, user, node);
        ensure_streaming(w, ctx, user);
    });
}

/// The baseline assignment rules (paper §V-B), evaluated with the
/// manager-side information each baseline is allowed to see.
fn pick_baseline_node(w: &World, user: UserId) -> Option<NodeId> {
    let client = w.clients.get(&user)?;
    let loc = client.location();
    let alive: Vec<&armada_node::EdgeNode> = {
        let mut v: Vec<_> = w.nodes.values().filter(|n| w.node_is_up(n.id())).collect();
        v.sort_by_key(|n| n.id());
        v
    };
    if alive.is_empty() {
        return None;
    }
    let nearest = |pool: &[&armada_node::EdgeNode]| -> Option<NodeId> {
        pool.iter()
            .min_by(|a, b| {
                let da = loc.distance_km(a.location());
                let db = loc.distance_km(b.location());
                da.partial_cmp(&db)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.id().cmp(&b.id()))
            })
            .map(|n| n.id())
    };
    let wrr = |pool: &[&armada_node::EdgeNode]| -> Option<NodeId> {
        pool.iter()
            .max_by(|a, b| {
                // Generic resource view: a VM-level load balancer sees
                // core counts and utilisation, not the app's
                // heterogeneous per-frame speeds (paper §V-B).
                let weight = |n: &armada_node::EdgeNode| {
                    n.hardware().cores() as f64 / (n.attached_count() + 1) as f64
                };
                weight(a)
                    .partial_cmp(&weight(b))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(b.id().cmp(&a.id()))
            })
            .map(|n| n.id())
    };
    match w.strategy {
        Strategy::GeoProximity => nearest(&alive),
        Strategy::ResourceAwareWrr => {
            // Exclude the cloud: WRR balances the edge tier.
            let edge: Vec<_> = alive
                .iter()
                .copied()
                .filter(|n| n.class() != NodeClass::Cloud)
                .collect();
            if edge.is_empty() {
                wrr(&alive)
            } else {
                wrr(&edge)
            }
        }
        Strategy::DedicatedOnly => {
            let dedicated: Vec<_> = alive
                .iter()
                .copied()
                .filter(|n| n.class() == NodeClass::Dedicated)
                .collect();
            if dedicated.is_empty() {
                let cloud: Vec<_> = alive
                    .iter()
                    .copied()
                    .filter(|n| n.class() == NodeClass::Cloud)
                    .collect();
                wrr(&cloud)
            } else {
                wrr(&dedicated)
            }
        }
        Strategy::ClosestCloud => {
            let cloud: Vec<_> = alive
                .iter()
                .copied()
                .filter(|n| n.class() == NodeClass::Cloud)
                .collect();
            nearest(&cloud)
        }
        Strategy::Pinned { ref map } => {
            let target = map.get(&user).copied()?;
            alive.iter().find(|n| n.id() == target).map(|n| n.id())
        }
        Strategy::ClientCentric { .. } => {
            unreachable!("client-centric users never take the baseline path")
        }
    }
}

/// Registers a node with its home shard of the manager tier and
/// starts its heartbeat loop, which registers again whenever the shard
/// refuses a heartbeat (it lost the registration while down, or forgot
/// the node), as the live node's link does on `Error`.
pub(crate) fn start_node_lifecycle(w: &mut World, ctx: &mut Ctx<'_>, node: NodeId) {
    register_node(w, node, ctx.now());
    let period = w.system.heartbeat_period;
    ctx.schedule_periodic(period, period, move |w: &mut World, ctx: &mut Ctx<'_>| {
        if !w.node_is_up(node) || ctx.now() >= w.end_time {
            return false;
        }
        let status = w.nodes.get(&node).map(armada_node::EdgeNode::status);
        if status.and_then(|s| w.managers.heartbeat(s, ctx.now())) == Some(false) {
            register_node(w, node, ctx.now());
        }
        true
    });
}

/// One registration with the node's home shard, narrated if accepted.
fn register_node(w: &mut World, node: NodeId, now: SimTime) {
    let accepted = w
        .nodes
        .get(&node)
        .and_then(|n| w.managers.register(n.status(), now));
    if let Some(shard) = accepted {
        armada_manager::Narrator::at(&w.tracer, now.as_micros()).registered(node, shard);
    }
}

/// A churned node leaves abruptly: the network drops its links; the
/// manager only learns via missed heartbeats.
pub(crate) fn node_leave(w: &mut World, ctx: &mut Ctx<'_>, node: NodeId) {
    w.tracer
        .emit_at(ctx.now().as_micros(), Severity::Info, "node.leave", || {
            vec![("node", u(node.as_u64()))]
        });
    w.net.set_down(Addr::Node(node));
    w.dead_nodes.insert(node);
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use armada_client::EdgeClient;
    use armada_federation::{FederatedCluster, ShardMap};
    use armada_manager::GlobalSelectionPolicy;
    use armada_metrics::LatencyRecorder;
    use armada_net::{Endpoint, LatencyModelParams, Network};
    use armada_node::EdgeNode;
    use armada_types::NodeClass::{Cloud, Dedicated, Volunteer};
    use armada_types::{AccessNetwork, GeoPoint, HardwareProfile, SimTime, SystemConfig};

    use super::*;
    use crate::world::{IdMap, IdSet};

    const USER: UserId = UserId::new(0);
    const NODE: NodeId = NodeId::new(0);
    /// Pinned user↔node one-way delay for the tests below.
    const ONE_WAY: SimDuration = SimDuration::from_millis(10);

    /// One user, one node, a jitter-free network with a pinned 10 ms
    /// one-way delay between them, and no manager endpoint (these tests
    /// drive the probe/join events directly).
    fn tiny_world() -> World {
        let loc = GeoPoint::new(44.98, -93.26);
        let system = SystemConfig::default();
        let mut net = Network::new(LatencyModelParams::deterministic());
        net.add_endpoint(
            Addr::User(USER),
            Endpoint::new(loc, AccessNetwork::HomeWifi),
        );
        net.add_endpoint(Addr::Node(NODE), Endpoint::new(loc, AccessNetwork::Fiber));
        net.set_pairwise_one_way(Addr::User(USER), Addr::Node(NODE), ONE_WAY);

        let strategy = crate::strategy::Strategy::client_centric();
        let client_config = strategy.client_config();
        let mut nodes = IdMap::default();
        nodes.insert(
            NODE,
            EdgeNode::new(
                NODE,
                Volunteer,
                HardwareProfile::new("tiny", 4, 30.0),
                loc,
                system.join_refresh_delay(),
                system.perf_drift_threshold,
            ),
        );
        let mut clients = IdMap::default();
        clients.insert(USER, EdgeClient::new(USER, loc, client_config));

        World {
            net,
            managers: FederatedCluster::new(
                ShardMap::partition(&[loc], 1),
                system,
                GlobalSelectionPolicy::default(),
            ),
            route_retry: SimDuration::ZERO,
            nodes,
            clients,
            recorder: LatencyRecorder::new(),
            strategy,
            client_config,
            system,
            streaming: IdSet::default(),
            periodic_started: IdSet::default(),
            dead_nodes: IdSet::default(),
            end_time: SimTime::from_secs(60),
            failure_events: Vec::new(),
            affiliations: IdMap::default(),
            tracer: Default::default(),
            node_actions: Vec::new(),
        }
    }

    fn good_probe_result() -> ProbeResult {
        ProbeResult {
            node: NODE,
            rtt: ONE_WAY * 2,
            whatif_proc: SimDuration::from_millis(30),
            current_proc: SimDuration::from_millis(30),
            attached_users: 0,
            seq_num: 0,
        }
    }

    /// A round of `USER`'s over `NODE` alone that `reply` answers, and
    /// the decision the core concludes it with.
    fn lone_round(w: &mut World, ctx: &Ctx<'_>, reply: ProbeResult) -> ClientDecision {
        let trace = narrator(&w.tracer, ctx);
        let client = w.clients.get_mut(&USER).unwrap();
        let (round, _) = client
            .start_probe_round(vec![NODE], |_| true, ctx.now(), trace)
            .unwrap();
        assert!(client.on_probe_reply(round, reply), "one probe, one reply");
        client
            .conclude_probe_round(round, ctx.now(), trace)
            .unwrap()
    }

    /// Regression: a node dying between the `Join()` request and its
    /// reply must cost the client a transport-level timeout
    /// ([`RECONNECT_TIMEOUT`]), not the one-way delay of the request leg
    /// — with no reply on the wire there is nothing that could arrive
    /// that fast.
    #[test]
    fn lost_join_reply_costs_a_transport_timeout() {
        let mut sim = Sim::with_events(tiny_world(), 1);
        sim.schedule_at(SimTime::ZERO, |w: &mut World, ctx| {
            match lone_round(w, ctx, good_probe_result()) {
                ClientDecision::AttemptJoin { target, seq } => {
                    attempt_join(w, ctx, USER, target, seq);
                }
                _ => panic!("a lone healthy candidate must trigger a join"),
            }
        });
        // The node dies while the join request is in flight.
        sim.schedule_at(SimTime::from_millis(5), |w: &mut World, ctx| {
            node_leave(w, ctx, NODE);
        });

        // Well past request + a "symmetric" reply delay (2 × 10 ms), yet
        // before request + RECONNECT_TIMEOUT: the outcome must still be
        // unknown to the client.
        sim.run_until(SimTime::from_millis(500));
        assert_eq!(
            sim.world().client(USER).unwrap().stats().join_rejections,
            0,
            "the client learned the join outcome without any reply or timeout"
        );

        // Once the transport timeout fires the join is abandoned.
        sim.run_until(SimTime::from_millis(1_100));
        assert_eq!(sim.world().client(USER).unwrap().stats().join_rejections, 1);
    }

    /// A join presented with a stale sequence number is turned away,
    /// and both sides say so: the node with its unchanged `seq`, the
    /// client once the refusal reaches it.
    #[cfg(feature = "trace")]
    #[test]
    fn a_stale_join_is_narrated_by_the_node_and_the_client() {
        use armada_trace::{inspect, MemorySink};

        let sink = MemorySink::new();
        let buffer = sink.buffer();
        let mut world = tiny_world();
        world.tracer = Tracer::with_sink(Box::new(sink), Severity::Debug);
        let mut sim = Sim::with_events(world, 4);
        sim.schedule_at(SimTime::ZERO, |w: &mut World, ctx| {
            let stale = ProbeResult {
                seq_num: 5,
                ..good_probe_result()
            };
            match lone_round(w, ctx, stale) {
                ClientDecision::AttemptJoin { target, seq } => {
                    attempt_join(w, ctx, USER, target, seq);
                }
                _ => panic!("a lone healthy candidate must trigger a join"),
            }
        });
        sim.run_until(SimTime::from_millis(100));
        let trace = buffer.lock().unwrap().clone();
        let events = inspect::parse_jsonl(&trace).expect("trace parses");
        let refusals: Vec<String> = events
            .iter()
            .filter(|e| e.kind.ends_with("join.rejected"))
            .map(|e| {
                let fields = e
                    .fields
                    .iter()
                    .map(|(k, v)| format!(" {k}={}", v.as_u64().unwrap()));
                format!("{} {}{}", e.t_us, e.kind, fields.collect::<String>())
            })
            .collect();
        assert_eq!(
            refusals,
            [
                "10000 node.join.rejected node=0 user=0 seq=0",
                "20000 client.join.rejected user=0 node=0",
            ]
        );
    }

    /// The baseline rules of paper §V-B on `tiny_world`'s user: its node
    /// replaced by `nodes`, each `(class, cores, km east of the user)`,
    /// and `strategy` in charge.
    fn baseline_world(strategy: Strategy, nodes: &[(NodeClass, u32, f64)]) -> World {
        let mut w = tiny_world();
        let loc = w.clients[&USER].location();
        w.strategy = strategy;
        w.nodes.clear();
        for (i, &(class, cores, km)) in nodes.iter().enumerate() {
            let id = NodeId::new(i as u64);
            let at = loc.offset_km(km, 0.0);
            w.net
                .add_endpoint(Addr::Node(id), Endpoint::new(at, AccessNetwork::Fiber));
            let hw = HardwareProfile::new("baseline", cores, 30.0);
            let (refresh, drift) = (w.system.join_refresh_delay(), w.system.perf_drift_threshold);
            w.nodes
                .insert(id, EdgeNode::new(id, class, hw, at, refresh, drift));
        }
        w
    }

    /// Attaches `users` extra users to node `id`, as earlier assignments
    /// would have.
    fn load(w: &mut World, id: u64, users: u64) {
        let node = w.nodes.get_mut(&NodeId::new(id)).unwrap();
        for _ in 0..users {
            let user = UserId::new(100 + node.attached_count() as u64);
            node.unexpected_join(user, SimTime::ZERO, &mut Vec::new());
        }
    }

    fn pick(w: &World) -> Option<u64> {
        pick_baseline_node(w, USER).map(|n| n.as_u64())
    }

    #[test]
    fn geo_proximity_takes_the_nearest_node_ties_broken_on_id() {
        let mut w = baseline_world(
            Strategy::GeoProximity,
            &[
                (Volunteer, 8, 10.0),
                (Dedicated, 4, 2.0),
                (Volunteer, 2, 2.0),
            ],
        );
        load(&mut w, 1, 5);
        assert_eq!(pick(&w), Some(1), "load and cores are not looked at");
        w.dead_nodes.insert(NodeId::new(1));
        assert_eq!(pick(&w), Some(2));
    }

    #[test]
    fn wrr_balances_cores_over_the_edge_tier_and_the_cloud_only_without_it() {
        let mut w = baseline_world(
            Strategy::ResourceAwareWrr,
            &[
                (Volunteer, 2, 1.0),
                (Dedicated, 8, 20.0),
                (Cloud, 64, 500.0),
            ],
        );
        assert_eq!(
            pick(&w),
            Some(1),
            "8 / 1 beats 2 / 1; the cloud is not edge"
        );
        load(&mut w, 1, 4);
        assert_eq!(pick(&w), Some(0), "2 / 1 beats 8 / 5");
        load(&mut w, 1, 3);
        load(&mut w, 0, 1);
        assert_eq!(pick(&w), Some(0), "1 = 8 / 8 ties 2 / 2: the lower id wins");
        w.dead_nodes.extend([NodeId::new(0), NodeId::new(1)]);
        assert_eq!(pick(&w), Some(2));
    }

    #[test]
    fn dedicated_only_falls_back_to_wrr_over_the_clouds() {
        let mut w = baseline_world(
            Strategy::DedicatedOnly,
            &[
                (Volunteer, 16, 1.0),
                (Dedicated, 4, 20.0),
                (Cloud, 8, 300.0),
                (Cloud, 16, 900.0),
            ],
        );
        assert_eq!(pick(&w), Some(1));
        w.dead_nodes.insert(NodeId::new(1));
        assert_eq!(pick(&w), Some(3), "the larger cloud, however far");
        load(&mut w, 3, 2);
        assert_eq!(pick(&w), Some(2), "8 / 1 beats 16 / 3");
    }

    #[test]
    fn closest_cloud_takes_the_nearer_of_two_clouds() {
        let mut w = baseline_world(
            Strategy::ClosestCloud,
            &[(Volunteer, 4, 1.0), (Cloud, 64, 900.0), (Cloud, 8, 300.0)],
        );
        load(&mut w, 2, 10);
        assert_eq!(pick(&w), Some(2), "nearest, not the most available");
        w.dead_nodes.insert(NodeId::new(2));
        assert_eq!(pick(&w), Some(1));
    }

    #[test]
    fn pinned_serves_its_target_only_while_it_is_up() {
        let map = HashMap::from([(USER, NodeId::new(1))]);
        let mut w = baseline_world(
            Strategy::Pinned { map },
            &[(Volunteer, 4, 1.0), (Dedicated, 4, 2.0)],
        );
        assert_eq!(pick(&w), Some(1));
        w.dead_nodes.insert(NodeId::new(1));
        assert_eq!(pick(&w), None, "no fallback to the node that is up");
    }
}
