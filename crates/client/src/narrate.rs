//! The client's side of the trace, written once, by the core, on the
//! clock of the driver handing it a [`Narrator`]: the two traces of one
//! scenario agree field for field. A driver writes only `client.failure`,
//! `client.failover` and `client.assign`.

use armada_trace::{s, u, Severity, Tracer};
use armada_types::{NodeId, SimDuration, UserId};

use crate::breaker::{BreakerState, Transition};
use crate::client::{ClientDecision, EdgeClient, FailoverDecision};

/// A driver's tracer and its clock reading: virtual microseconds in the
/// simulator, [`Tracer::now_us`] in the live runtime.
#[derive(Debug, Clone, Copy)]
pub struct Narrator<'a> {
    tracer: &'a Tracer,
    t_us: u64,
}

/// One event through a [`Narrator`]; the fields are built only if the
/// tracer takes the event (a disabled one builds no vector).
macro_rules! event {
    ($n:expr, $sev:ident, $kind:expr, $($key:literal => $value:expr),* $(,)?) => {
        $n.tracer.emit_at($n.t_us, Severity::$sev, $kind, || vec![$(($key, $value)),*])
    };
}

impl<'a> Narrator<'a> {
    /// Events written through this narrator are stamped `t_us`.
    pub fn at(tracer: &'a Tracer, t_us: u64) -> Self {
        Narrator { tracer, t_us }
    }

    /// `probe.round.start`: `candidates` probes leave for round `round`.
    pub(crate) fn probe_round_start(&self, user: UserId, round: u64, candidates: usize) {
        event!(self, Debug, "probe.round.start",
            "user" => u(user.as_u64()), "round" => u(round),
            "candidates" => u(candidates as u64));
    }

    /// `probe.round.done` for the round `client` just ranked, and the
    /// predictor's `sel.predict` when it runs one.
    pub(crate) fn probe_round_done(
        &self,
        client: &EdgeClient,
        round: u64,
        replies: usize,
        failed: usize,
        decision: &ClientDecision,
    ) {
        let user = client.id().as_u64();
        event!(self, Debug, "probe.round.done",
            "user" => u(user), "round" => u(round),
            "replies" => u(replies as u64), "failed" => u(failed as u64),
            "decision" => s(decision.name()));
        if let Some(p) = client.last_prediction() {
            event!(self, Debug, "sel.predict",
                "user" => u(user), "round" => u(round), "best" => u(p.best.as_u64()),
                "predicted_best_us" => u((p.predicted_best_ms * 1_000.0) as u64),
                "best_score_milli" => u((p.best_score * 1_000.0) as u64),
                "vetoed" => u(u64::from(p.vetoed)));
        }
    }

    /// An accepted join: `client.join` for a first attachment,
    /// `client.switch` when `left` served before — mirrored as `sel.switch`
    /// under the predictive selector, so its migrations can be counted
    /// without knowing the strategy in effect.
    pub(crate) fn joined(&self, client: &EdgeClient, node: NodeId, left: Option<NodeId>) {
        let (user, to) = (client.id().as_u64(), node.as_u64());
        let Some(from) = left.map(NodeId::as_u64) else {
            event!(self, Info, "client.join", "user" => u(user), "node" => u(to));
            return;
        };
        event!(self, Info, "client.switch", "user" => u(user), "from" => u(from), "to" => u(to));
        if client.selector().is_some() {
            event!(self, Info, "sel.switch", "user" => u(user), "from" => u(from), "to" => u(to));
        }
    }

    /// `client.join.rejected`: the join at `node` did not happen —
    /// refused, shed, or lost with its reply — and the client
    /// rediscovers.
    pub(crate) fn join_rejected(&self, user: UserId, node: NodeId) {
        event!(self, Debug, "client.join.rejected",
            "user" => u(user.as_u64()), "node" => u(node.as_u64()));
    }

    /// `client.assign`: a baseline strategy's manager placed the user
    /// on `node` (no probing, no join handshake).
    pub fn assigned(&self, user: UserId, node: NodeId) {
        event!(self, Info, "client.assign", "user" => u(user.as_u64()), "node" => u(node.as_u64()));
    }

    /// `client.failure`: the failure monitor noticed `node` is gone;
    /// `mode` names how the strategy in effect handles it.
    pub fn failure(&self, user: UserId, mode: &'static str, node: Option<NodeId>) {
        event!(self, Warn, "client.failure",
            "user" => u(user.as_u64()), "mode" => s(mode), "node" => u(node.map_or(u64::MAX, NodeId::as_u64)));
    }

    /// `client.failover`: what the core decided after `failed` died.
    pub fn failover(&self, user: UserId, failed: Option<NodeId>, decision: &FailoverDecision) {
        match decision {
            FailoverDecision::SwitchToBackup { target } => event!(self, Warn, "client.failover",
                "user" => u(user.as_u64()), "action" => s("backup"),
                "from" => u(failed.map_or(u64::MAX, NodeId::as_u64)), "target" => u(target.as_u64())),
            FailoverDecision::Rediscover => event!(self, Warn, "client.failover",
                "user" => u(user.as_u64()), "action" => s("rediscover")),
        }
    }

    /// `frame.done`: one frame's end-to-end latency.
    pub(crate) fn frame_done(&self, user: UserId, latency: SimDuration) {
        event!(self, Debug, "frame.done",
            "user" => u(user.as_u64()), "latency_us" => u(latency.as_micros()));
    }

    /// `fed.failover`: discovery went past the home manager; `skipped`
    /// counts the managers of the route order that did not serve it.
    pub(crate) fn fed_failover(&self, user: UserId, skipped: u64) {
        event!(self, Warn, "fed.failover", "user" => u(user.as_u64()), "skipped" => u(skipped));
    }

    /// `mgr.discover`: a manager answered with `returned` candidates.
    pub(crate) fn discovered(&self, user: UserId, returned: usize) {
        event!(self, Debug, "mgr.discover",
            "user" => u(user.as_u64()), "returned" => u(returned as u64));
    }

    /// `mgr.busy`: a manager shed the query; the walk pauses `pause`.
    pub(crate) fn manager_busy(&self, user: UserId, retry_after_ms: u64, pause: SimDuration) {
        event!(self, Warn, "mgr.busy",
            "user" => u(user.as_u64()), "retry_after_ms" => u(retry_after_ms),
            "paused_us" => u(pause.as_micros()));
    }

    /// `chaos.breaker.{open,half_open,close}` for route rank `rank`.
    pub(crate) fn breaker(&self, user: UserId, rank: usize, t: Transition) {
        let kind = match t.to {
            BreakerState::Open => "chaos.breaker.open",
            BreakerState::HalfOpen => "chaos.breaker.half_open",
            BreakerState::Closed => "chaos.breaker.close",
        };
        event!(self, Warn, kind,
            "user" => u(user.as_u64()), "rank" => u(rank as u64), "from" => s(t.from.as_str()));
    }

    /// `chaos.degraded`: no manager answered; the round runs on the
    /// `cached` nodes of a shortlist fetched `stale` ago.
    pub(crate) fn degraded(&self, user: UserId, stale: SimDuration, cached: usize) {
        event!(self, Warn, "chaos.degraded",
            "user" => u(user.as_u64()), "stale_us" => u(stale.as_micros()),
            "cached" => u(cached as u64));
    }

    /// `chaos.degraded.recovered`: a manager served again after `outage`.
    pub(crate) fn recovered(&self, user: UserId, outage: SimDuration) {
        event!(self, Info, "chaos.degraded.recovered",
            "user" => u(user.as_u64()), "outage_us" => u(outage.as_micros()));
    }
}
