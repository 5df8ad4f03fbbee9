//! The per-user client state machine.

use armada_types::{ClientConfig, GeoPoint, NodeId, SelectorMode, SimDuration, SimTime, UserId};
use armada_workload::AimdController;

use crate::control::ControlPlane;
use crate::narrate::Narrator;
use crate::predict::{PredictionSummary, PredictiveSelector, PredictorParams};
use crate::probe::{rank_candidates, ProbeResult};

/// How long a client with no serving node waits before it looks again
/// for one to send its next frame to.
pub const IDLE_RETRY: SimDuration = SimDuration::from_millis(100);

/// How long a client waits for a frame's acknowledgement before it
/// reclaims the frame's in-flight slot (the frame or its reply was lost).
pub const FRAME_ACK_TIMEOUT: SimDuration = SimDuration::from_millis(1_000);

/// What the client wants to do after a probing round (Algorithm 2,
/// lines 11–20).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientDecision {
    /// The current node is still the best candidate; only the backup
    /// list was refreshed.
    Stay,
    /// A better candidate was found: send `Join(seq)` to `target`.
    AttemptJoin {
        /// The node to join.
        target: NodeId,
        /// The sequence number to present (from the probe).
        seq: u64,
    },
    /// No candidate survived ranking (e.g. QoS filtering emptied the
    /// list): restart from edge discovery at [`EdgeClient::retry_at`].
    Rediscover,
}

impl ClientDecision {
    /// The decision's name in `probe.round.done` trace events.
    pub fn name(&self) -> &'static str {
        match self {
            ClientDecision::Stay => "stay",
            ClientDecision::AttemptJoin { .. } => "join",
            ClientDecision::Rediscover => "rediscover",
        }
    }
}

/// What the client does after hearing back from a `Join()` attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinFollowup {
    /// Join accepted: notify the previous node (if any) with `Leave()`
    /// and start offloading to the new one.
    SwitchComplete {
        /// The node to send `Leave()` to.
        leave: Option<NodeId>,
    },
    /// Join rejected (stale sequence number): repeat the probing process
    /// from the edge-discovery step (Algorithm 2, line 14) at
    /// [`EdgeClient::retry_at`].
    Rediscover,
    /// The reply raced with a failover or detach that already abandoned
    /// this join attempt; ignore it.
    Stale,
}

/// What the client does upon detecting its serving node failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailoverDecision {
    /// Immediately switch to the best warm backup via
    /// `Unexpected_join()` — the proactive path.
    SwitchToBackup {
        /// The backup taking over.
        target: NodeId,
    },
    /// All backups are gone too: fall back to full re-discovery, at once
    /// (this is what the paper counts as a *failure* in Fig. 10).
    Rediscover,
}

/// Client-side counters for the evaluation figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClientStats {
    /// Individual probe requests sent (Fig. 9a).
    pub probes_sent: u64,
    /// Probing rounds opened; the latest one's id.
    pub probe_rounds: u64,
    /// Voluntary node switches (better candidate found).
    pub switches: u64,
    /// Failovers absorbed by a warm backup.
    pub backup_failovers: u64,
    /// Failures requiring full re-discovery (Fig. 10b counts these).
    pub hard_failures: u64,
    /// Joins rejected by sequence mismatch.
    pub join_rejections: u64,
    /// Frames sent.
    pub frames_sent: u64,
    /// Frame responses received.
    pub frames_acked: u64,
    /// Frames whose in-flight slot was reclaimed by the ack timeout
    /// (frame or reply lost in transit; only nonzero under fault
    /// injection or node failures).
    pub frames_lost: u64,
}

/// The state machine of one application user.
///
/// Pure logic over virtual time: the scenario runner (or live runtime)
/// performs the actual network operations and feeds results back in.
///
/// # Examples
///
/// ```
/// use armada_client::{ClientDecision, EdgeClient, Narrator, ProbeResult};
/// use armada_trace::Tracer;
/// use armada_types::{ClientConfig, GeoPoint, NodeId, SimDuration, SimTime, UserId};
///
/// let mut client = EdgeClient::new(
///     UserId::new(1),
///     GeoPoint::new(44.98, -93.26),
///     ClientConfig::default(),
/// );
/// let (tracer, seven) = (Tracer::disabled(), NodeId::new(7));
/// let trace = Narrator::at(&tracer, 0);
/// let start = client.start_probe_round(vec![seven], |_| true, SimTime::ZERO, trace);
/// let (round, probes) = start.unwrap();
/// assert_eq!((round, probes), (1, vec![seven]));
/// let reply = ProbeResult {
///     node: seven,
///     rtt: SimDuration::from_millis(12),
///     whatif_proc: SimDuration::from_millis(24),
///     current_proc: SimDuration::from_millis(24),
///     attached_users: 0,
///     seq_num: 3,
/// };
/// assert!(client.on_probe_reply(round, reply), "the round's only probe answered");
/// let decision = client.conclude_probe_round(round, SimTime::ZERO, trace);
/// assert_eq!(decision, Some(ClientDecision::AttemptJoin { target: seven, seq: 3 }));
/// ```
#[derive(Debug, Clone)]
pub struct EdgeClient {
    pub(crate) id: UserId,
    location: GeoPoint,
    config: ClientConfig,
    current: Option<NodeId>,
    /// Warm backups, best first (Algorithm 2, line 20: `C[1:]`).
    backups: Vec<NodeId>,
    /// The join target while a `Join()` is in flight.
    pending_join: Option<NodeId>,
    rate: AimdController,
    next_seq: u64,
    /// Frames sent but not yet acknowledged; capped by
    /// `config.max_inflight`.
    outstanding: u32,
    stats: ClientStats,
    /// Present iff `config.selector == SelectorMode::Predictive`.
    selector: Option<PredictiveSelector>,
    /// The predictor's conclusion from the latest probe round, for the
    /// `sel.predict` trace event.
    last_prediction: Option<PredictionSummary>,
    /// Manager route state, cached shortlist and retry schedule.
    pub(crate) control: ControlPlane,
    /// The probing round in flight.
    round: Option<OpenRound>,
}

/// A probing round in flight: its id, the probes sent, what came back.
#[derive(Debug, Clone)]
struct OpenRound {
    id: u64,
    expected: usize,
    results: Vec<ProbeResult>,
    failed: usize,
}

impl EdgeClient {
    /// Creates a client at `location` with the given configuration.
    pub fn new(id: UserId, location: GeoPoint, config: ClientConfig) -> Self {
        let rate = AimdController::new(config.max_fps, config.target_latency);
        let selector = (config.selector == SelectorMode::Predictive)
            .then(|| PredictiveSelector::new(PredictorParams::default()));
        EdgeClient {
            id,
            location,
            config,
            current: None,
            backups: Vec::new(),
            pending_join: None,
            rate,
            next_seq: 0,
            outstanding: 0,
            stats: ClientStats::default(),
            selector,
            last_prediction: None,
            control: ControlPlane::default(),
            round: None,
        }
    }

    /// This client's user id.
    pub fn id(&self) -> UserId {
        self.id
    }

    /// The client's position.
    pub fn location(&self) -> GeoPoint {
        self.location
    }

    /// The client configuration.
    pub fn config(&self) -> &ClientConfig {
        &self.config
    }

    /// The node currently serving this client, if any.
    pub fn current_node(&self) -> Option<NodeId> {
        self.current
    }

    /// The warm backup list, best first.
    pub fn backups(&self) -> &[NodeId] {
        &self.backups
    }

    /// The adaptive-rate controller.
    pub fn rate(&self) -> &AimdController {
        &self.rate
    }

    /// Evaluation counters.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Algorithm 2, lines 4–10: opens a round over `shortlist` and the
    /// serving node — unless `is_up` vetoes it (the simulator's ground
    /// truth; a live driver admits every node) — and writes
    /// `probe.round.start`. Returns the round's id, counting from 1, and
    /// the nodes to probe; `None` on an empty shortlist: no round, and
    /// the next try runs at [`EdgeClient::retry_at`]. An open round is
    /// superseded.
    pub fn start_probe_round(
        &mut self,
        mut shortlist: Vec<NodeId>,
        is_up: impl FnOnce(NodeId) -> bool,
        now: SimTime,
        trace: Narrator<'_>,
    ) -> Option<(u64, Vec<NodeId>)> {
        if shortlist.is_empty() {
            self.missed(false, now);
            return None;
        }
        // Re-probe the serving node as well, so stay-or-switch compares
        // fresh measurements even when the shortlist has moved on.
        shortlist.extend(self.current.filter(|c| !shortlist.contains(c) && is_up(*c)));
        let (id, expected) = (self.stats.probe_rounds + 1, shortlist.len());
        self.stats.probe_rounds = id;
        self.stats.probes_sent += expected as u64;
        trace.probe_round_start(self.id, id, expected);
        self.round = Some(OpenRound {
            id,
            expected,
            results: Vec::with_capacity(expected),
            failed: 0,
        });
        Some((id, shortlist))
    }

    /// Records a reply in round `round` (or, `on_probe_lost`, a probe of
    /// `node` unreachable, dead or silent, which predictive mode scores);
    /// `true` once the round is complete. Other rounds' are dropped.
    pub fn on_probe_reply(&mut self, round: u64, result: ProbeResult) -> bool {
        self.tally(round, |open| open.results.push(result))
    }

    /// See [`EdgeClient::on_probe_reply`].
    pub fn on_probe_lost(&mut self, round: u64, node: NodeId, now: SimTime) -> bool {
        if self.open_probe_round() == Some(round) {
            self.observe_failure(node, |p| p.probe_failure_weight, now);
        }
        self.tally(round, |open| open.failed += 1)
    }

    fn tally(&mut self, round: u64, record: impl FnOnce(&mut OpenRound)) -> bool {
        let open = self.round.as_mut().filter(|open| open.id == round);
        open.is_some_and(|open| {
            record(open);
            open.results.len() + open.failed >= open.expected
        })
    }

    /// Algorithm 2, lines 11–20, over what round `round` collected:
    /// rank, decide (see `decide`), write `probe.round.done` and
    /// `sel.predict`; the driver carries the decision out. `None` once
    /// the round is not open: concluded already, or superseded.
    pub fn conclude_probe_round(
        &mut self,
        round: u64,
        now: SimTime,
        trace: Narrator<'_>,
    ) -> Option<ClientDecision> {
        let open = self.round.take_if(|open| open.id == round)?;
        let (replies, failed) = (open.results.len(), open.failed);
        let decision = self.decide(open.results, now);
        trace.probe_round_done(self, round, replies, failed, &decision);
        if decision == ClientDecision::Rediscover {
            self.missed(false, now);
        }
        Some(decision)
    }

    /// The id of the round in flight, if one is.
    pub fn open_probe_round(&self) -> Option<u64> {
        self.round.as_ref().map(|open| open.id)
    }

    /// Algorithm 2, lines 11–20: rank this round's probe results, decide
    /// whether to stay or switch, and refresh the backup list.
    ///
    /// In [`SelectorMode::Predictive`] mode this round's samples first
    /// update the per-node forecasts, ranking uses predicted overheads,
    /// and a switch additionally requires the candidate to clear the
    /// hysteresis margin on the *predicted* overhead — so a dip the
    /// forecast says is transient does not trigger a migration.
    fn decide(&mut self, results: Vec<ProbeResult>, now: SimTime) -> ClientDecision {
        self.last_prediction = None;
        if let Some(sel) = self.selector.as_mut() {
            // Update the models first, then predict: the freshest sample
            // is part of the forecast it is ranked by.
            for r in &results {
                sel.observe_probe(r, now);
            }
        }
        let ranked = match self.selector.as_ref() {
            Some(sel) => sel.rank(results, self.config.policy, self.config.qos, now),
            None => rank_candidates(results, self.config.policy, self.config.qos),
        };
        if ranked.is_empty() {
            return ClientDecision::Rediscover;
        }
        let best = ranked[0];
        if let Some(sel) = self.selector.as_ref() {
            let current_result = self
                .current
                .and_then(|c| ranked.iter().find(|r| r.node == c).copied());
            self.last_prediction = Some(PredictionSummary {
                best: best.node,
                predicted_best_ms: sel.predicted_overhead_ms(&best, self.config.policy, now),
                best_score: sel.score(best.node, now),
                current: current_result.map(|r| r.node),
                predicted_current_ms: current_result
                    .map(|r| sel.predicted_overhead_ms(&r, self.config.policy, now)),
                vetoed: false,
            });
        }
        // Backups are the unselected candidates, best first (Algorithm 2
        // line 20: `C[1:]`), capped at TopN − 1 — re-probing the current
        // node for the stay-or-switch comparison must not inflate the
        // warm-connection pool beyond what TopN budgets.
        self.backups = ranked.iter().skip(1).map(|r| r.node).collect();
        self.backups.truncate(self.config.top_n.saturating_sub(1));
        if Some(best.node) == self.current {
            // Guard against duplicate probe entries for the current node.
            self.backups.retain(|&n| Some(n) != self.current);
            return ClientDecision::Stay;
        }
        // Hysteresis: if the current node was probed this round, only
        // migrate when the winner is meaningfully better; probe jitter
        // would otherwise flip near-equal candidates back and forth.
        if let Some(current_result) = self
            .current
            .and_then(|c| ranked.iter().find(|r| r.node == c))
        {
            let current_overhead = current_result.overhead(self.config.policy).as_millis_f64();
            let best_overhead = best.overhead(self.config.policy).as_millis_f64();
            let measured_stay =
                best_overhead > current_overhead * (1.0 - self.config.switch_margin);
            // The predictive veto: switching needs the margin on both
            // the measured and the predicted overheads.
            let predicted_stay = self.selector.as_ref().is_some_and(|sel| {
                sel.should_stay(
                    &best,
                    current_result,
                    self.config.switch_margin,
                    self.config.policy,
                    now,
                )
            });
            // In predictive mode a switch also needs this round's raw
            // measurement to crown the same winner: when the smoothed
            // and the instantaneous rankings disagree, the evidence is
            // transient by definition and the client holds. With flat
            // RTTs the rankings always coincide, preserving the
            // reactive-equivalence contract.
            let rankings_disagree = self.selector.is_some() && {
                let measured_best = ranked
                    .iter()
                    .min_by(|a, b| {
                        a.overhead(self.config.policy)
                            .cmp(&b.overhead(self.config.policy))
                            .then(a.node.cmp(&b.node))
                    })
                    .expect("ranked is non-empty");
                measured_best.node != best.node
            };
            if measured_stay || predicted_stay || rankings_disagree {
                if !measured_stay {
                    if let Some(summary) = self.last_prediction.as_mut() {
                        summary.vetoed = true;
                    }
                }
                self.backups.retain(|&n| Some(n) != self.current);
                return ClientDecision::Stay;
            }
        }
        self.pending_join = Some(best.node);
        ClientDecision::AttemptJoin {
            target: best.node,
            seq: best.seq_num,
        }
    }

    /// Records that `node` answered `Busy`: it is up but shedding load,
    /// a lighter reliability signal than a probe that never answered.
    /// Only a live node ever says so (the simulated one never sheds);
    /// in reactive mode it is a no-op.
    pub fn on_busy(&mut self, node: NodeId, now: SimTime) {
        self.observe_failure(node, |p| p.busy_weight, now);
    }

    /// Scores one failure signal against `node` in predictive mode, with
    /// the weight picked from the selector's own tuning.
    fn observe_failure(
        &mut self,
        node: NodeId,
        weight: impl Fn(&PredictorParams) -> f64,
        now: SimTime,
    ) {
        if let Some(sel) = self.selector.as_mut() {
            let weight = weight(sel.params());
            sel.observe_failure(node, weight, now);
        }
    }

    /// The predictor's conclusion from the latest probe round, if the
    /// client runs the predictive selector and the round ranked anyone.
    pub fn last_prediction(&self) -> Option<&PredictionSummary> {
        self.last_prediction.as_ref()
    }

    /// The predictive selector state, if this client runs one.
    pub fn selector(&self) -> Option<&PredictiveSelector> {
        self.selector.as_ref()
    }

    /// Feeds the outcome of the `Join()` a round decided on, and writes
    /// it: `client.join`, `client.switch` (`sel.switch`) or a rejection.
    pub fn on_join_result(
        &mut self,
        node: NodeId,
        accepted: bool,
        now: SimTime,
        trace: Narrator<'_>,
    ) -> JoinFollowup {
        if self.pending_join != Some(node) {
            // A failover/detach raced with this reply: the attempt was
            // already abandoned.
            return JoinFollowup::Stale;
        }
        self.pending_join = None;
        if !accepted {
            self.stats.join_rejections += 1;
            trace.join_rejected(self.id, node);
            self.missed(true, now);
            return JoinFollowup::Rediscover;
        }
        self.control.attached();
        let previous = self.current;
        if previous.is_some() {
            self.stats.switches += 1;
        }
        self.current = Some(node);
        // Performance on the new node is unrelated to the old one's, and
        // frames in flight to the old node will never be acknowledged.
        self.rate.reset();
        self.outstanding = 0;
        // The backup list is exactly the unselected probed candidates
        // (`C[1:]`, size TopN − 1); the departed node is not retained.
        self.backups.retain(|&n| n != node);
        trace.joined(self, node, previous);
        JoinFollowup::SwitchComplete { leave: previous }
    }

    /// The failure monitor: the serving node stopped responding. Promote
    /// the best backup (proactive path) or, if none remain, fall back to
    /// re-discovery — which the paper counts as a hard failure.
    ///
    /// `is_alive` lets the caller veto backups it already knows are dead
    /// (e.g. simultaneous failures).
    pub fn on_node_failure(
        &mut self,
        now: SimTime,
        mut is_alive: impl FnMut(NodeId) -> bool,
    ) -> FailoverDecision {
        if let Some(failed) = self.current {
            // A crash while serving us is the strongest reliability
            // signal the client ever sees.
            self.observe_failure(failed, |p| p.crash_weight, now);
        }
        self.current = None;
        while let Some(backup) = first_nonempty(&mut self.backups) {
            if is_alive(backup) {
                self.current = Some(backup);
                self.rate.reset();
                self.outstanding = 0;
                self.stats.backup_failovers += 1;
                return FailoverDecision::SwitchToBackup { target: backup };
            }
        }
        self.stats.hard_failures += 1;
        self.control.start_over();
        FailoverDecision::Rediscover
    }

    /// Drops the current attachment without consulting backups — the
    /// *reactive* (re-connect) failure handling the paper compares
    /// against: the client stalls until a full re-discovery completes.
    /// A pending retry is dropped: the caller decides when that runs.
    pub fn detach(&mut self) {
        self.current = None;
        self.pending_join = None;
        self.outstanding = 0;
        self.control.start_over();
    }

    /// Adopts a discovery-produced assignment directly (used by baseline
    /// strategies and by recovery after hard failures).
    pub fn force_attach(&mut self, node: NodeId, backups: Vec<NodeId>) {
        self.current = Some(node);
        self.backups = backups;
        self.backups.retain(|&n| n != node);
        self.pending_join = None;
        self.rate.reset();
        self.outstanding = 0;
    }

    /// `true` if the in-flight window has room for another frame; when
    /// full, the client skips (drops) the frame rather than queueing a
    /// backlog behind a slow node.
    pub fn can_send_frame(&self) -> bool {
        self.outstanding < self.config.max_inflight
    }

    /// Frames currently awaiting acknowledgement.
    pub fn outstanding(&self) -> u32 {
        self.outstanding
    }

    /// Produces the next frame sequence number and counts it.
    pub fn next_frame_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.frames_sent += 1;
        self.outstanding += 1;
        seq
    }

    /// Feeds one end-to-end frame latency into the adaptive rate
    /// controller, releases its in-flight slot and writes `frame.done`.
    pub fn on_frame_latency(&mut self, latency: SimDuration, trace: Narrator<'_>) {
        trace.frame_done(self.id, latency);
        self.stats.frames_acked += 1;
        self.outstanding = self.outstanding.saturating_sub(1);
        self.rate.on_latency(latency);
    }

    /// Releases the in-flight slot of a frame whose ack timed out (the
    /// frame or its reply was lost in transit). Without this, every
    /// lost frame would permanently shrink the send window.
    pub fn on_frame_lost(&mut self) {
        self.stats.frames_lost += 1;
        self.outstanding = self.outstanding.saturating_sub(1);
    }

    /// The current inter-frame interval.
    pub fn frame_interval(&self) -> SimDuration {
        self.rate.frame_interval()
    }
}

/// Pops the front element, if any.
fn first_nonempty(v: &mut Vec<NodeId>) -> Option<NodeId> {
    if v.is_empty() {
        None
    } else {
        Some(v.remove(0))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    use armada_trace::{inspect, MemorySink, Severity, Tracer};

    use super::*;

    /// A round of `c`'s whose one probe, of node `id`, is lost at `now`.
    fn lose(c: &mut EdgeClient, id: u64, now: SimTime) {
        let (tracer, node) = (Tracer::disabled(), NodeId::new(id));
        let trace = Narrator::at(&tracer, 0);
        let (round, _) = c
            .start_probe_round(vec![node], |_| false, now, trace)
            .unwrap();
        assert!(c.on_probe_lost(round, node, now));
        assert!(c.conclude_probe_round(round, now, trace).is_some());
    }

    /// The outcome of a `Join()` at `node`, told to `c` untraced.
    fn join(c: &mut EdgeClient, node: NodeId, accepted: bool) -> JoinFollowup {
        c.on_join_result(
            node,
            accepted,
            SimTime::ZERO,
            Narrator::at(&Tracer::disabled(), 0),
        )
    }

    fn probe(id: u64, rtt_ms: u64, proc_ms: u64, seq: u64) -> ProbeResult {
        ProbeResult {
            node: NodeId::new(id),
            rtt: SimDuration::from_millis(rtt_ms),
            whatif_proc: SimDuration::from_millis(proc_ms),
            current_proc: SimDuration::from_millis(proc_ms),
            attached_users: 0,
            seq_num: seq,
        }
    }

    fn client() -> EdgeClient {
        EdgeClient::new(
            UserId::new(1),
            GeoPoint::new(44.98, -93.26),
            ClientConfig::default(),
        )
    }

    #[test]
    fn first_round_joins_best_candidate() {
        let mut c = client();
        let decision = c.decide(
            vec![
                probe(1, 30, 30, 0),
                probe(2, 10, 24, 5),
                probe(3, 20, 30, 0),
            ],
            SimTime::ZERO,
        );
        assert_eq!(
            decision,
            ClientDecision::AttemptJoin {
                target: NodeId::new(2),
                seq: 5
            }
        );
        assert_eq!(c.backups(), &[NodeId::new(3), NodeId::new(1)]);
        let followup = join(&mut c, NodeId::new(2), true);
        assert_eq!(followup, JoinFollowup::SwitchComplete { leave: None });
        assert_eq!(c.current_node(), Some(NodeId::new(2)));
    }

    #[test]
    fn staying_on_best_node_requires_no_action() {
        let mut c = client();
        c.force_attach(NodeId::new(2), vec![]);
        let decision = c.decide(
            vec![probe(2, 10, 24, 7), probe(3, 20, 30, 0)],
            SimTime::ZERO,
        );
        assert_eq!(decision, ClientDecision::Stay);
        assert_eq!(c.backups(), &[NodeId::new(3)]);
        assert_eq!(c.stats().switches, 0);
    }

    #[test]
    fn marginally_better_candidate_does_not_trigger_switch() {
        let mut c = client();
        c.force_attach(NodeId::new(1), vec![]);
        // Node 2 is ~4% better: within the 10% hysteresis margin.
        let decision = c.decide(
            vec![probe(1, 12, 40, 0), probe(2, 10, 40, 3)],
            SimTime::ZERO,
        );
        assert_eq!(decision, ClientDecision::Stay);
        assert_eq!(c.current_node(), Some(NodeId::new(1)));
    }

    #[test]
    fn better_candidate_triggers_switch_and_leave() {
        let mut c = client();
        c.force_attach(NodeId::new(1), vec![]);
        let decision = c.decide(
            vec![probe(1, 40, 40, 0), probe(2, 10, 24, 3)],
            SimTime::ZERO,
        );
        assert_eq!(
            decision,
            ClientDecision::AttemptJoin {
                target: NodeId::new(2),
                seq: 3
            }
        );
        let followup = join(&mut c, NodeId::new(2), true);
        assert_eq!(
            followup,
            JoinFollowup::SwitchComplete {
                leave: Some(NodeId::new(1))
            }
        );
        assert_eq!(c.stats().switches, 1);
        // The backup list is C[1:]: the departed node was probed and
        // ranked second, so it is the first backup.
        assert_eq!(c.backups(), &[NodeId::new(1)]);
    }

    #[test]
    fn rejected_join_forces_rediscovery() {
        let mut c = client();
        let d = c.decide(vec![probe(1, 10, 24, 0)], SimTime::ZERO);
        assert!(matches!(d, ClientDecision::AttemptJoin { .. }));
        let followup = join(&mut c, NodeId::new(1), false);
        assert_eq!(followup, JoinFollowup::Rediscover);
        assert_eq!(c.current_node(), None);
        assert_eq!(c.stats().join_rejections, 1);
    }

    #[test]
    fn failover_prefers_first_alive_backup() {
        let mut c = client();
        c.force_attach(NodeId::new(1), vec![NodeId::new(2), NodeId::new(3)]);
        let d = c.on_node_failure(SimTime::ZERO, |n| n != NodeId::new(2));
        // Backup 2 is dead, 3 takes over.
        assert_eq!(
            d,
            FailoverDecision::SwitchToBackup {
                target: NodeId::new(3)
            }
        );
        assert_eq!(c.current_node(), Some(NodeId::new(3)));
        assert_eq!(c.stats().backup_failovers, 1);
        assert_eq!(c.stats().hard_failures, 0);
    }

    #[test]
    fn simultaneous_backup_death_is_a_hard_failure() {
        let mut c = client();
        c.force_attach(NodeId::new(1), vec![NodeId::new(2)]);
        let d = c.on_node_failure(SimTime::ZERO, |_| false);
        assert_eq!(d, FailoverDecision::Rediscover);
        assert_eq!(c.current_node(), None);
        assert_eq!(c.stats().hard_failures, 1);
    }

    #[test]
    fn top_n_one_has_no_backups() {
        let mut c = EdgeClient::new(
            UserId::new(1),
            GeoPoint::new(44.98, -93.26),
            ClientConfig::default().with_top_n(1),
        );
        let d = c.decide(vec![probe(1, 10, 24, 0)], SimTime::ZERO);
        assert!(matches!(d, ClientDecision::AttemptJoin { .. }));
        join(&mut c, NodeId::new(1), true);
        assert!(c.backups().is_empty());
        let d = c.on_node_failure(SimTime::ZERO, |_| true);
        assert_eq!(
            d,
            FailoverDecision::Rediscover,
            "TopN=1 cannot absorb failures"
        );
    }

    #[test]
    fn empty_probe_round_rediscovers() {
        let mut c = client();
        assert_eq!(c.decide(vec![], SimTime::ZERO), ClientDecision::Rediscover);
    }

    #[test]
    fn frame_seq_increments_and_counts() {
        let mut c = client();
        assert_eq!(c.next_frame_seq(), 0);
        assert_eq!(c.next_frame_seq(), 1);
        assert_eq!(c.stats().frames_sent, 2);
        c.on_frame_latency(
            SimDuration::from_millis(42),
            Narrator::at(&Tracer::disabled(), 0),
        );
        assert_eq!(c.stats().frames_acked, 1);
    }

    #[test]
    fn switch_resets_rate_controller() {
        let mut c = client();
        c.force_attach(NodeId::new(1), vec![]);
        for _ in 0..50 {
            c.on_frame_latency(
                SimDuration::from_millis(400),
                Narrator::at(&Tracer::disabled(), 0),
            );
        }
        assert!(c.rate().fps() < 20.0);
        let _ = c.decide(vec![probe(2, 5, 20, 0)], SimTime::ZERO);
        join(&mut c, NodeId::new(2), true);
        assert_eq!(c.rate().fps(), 20.0);
    }

    #[test]
    fn join_reply_after_detach_is_stale() {
        let mut c = client();
        let _ = c.decide(vec![probe(1, 10, 24, 0)], SimTime::ZERO);
        // Node failure races ahead of the join reply.
        c.detach();
        let followup = join(&mut c, NodeId::new(1), true);
        assert_eq!(followup, JoinFollowup::Stale);
        assert_eq!(c.current_node(), None, "stale accept must not attach");
    }

    #[test]
    fn inflight_window_caps_sends() {
        let mut c = client();
        assert!(c.can_send_frame());
        for _ in 0..4 {
            let _ = c.next_frame_seq();
        }
        assert_eq!(c.outstanding(), 4);
        assert!(!c.can_send_frame(), "default window is 4 frames");
        c.on_frame_latency(
            SimDuration::from_millis(50),
            Narrator::at(&Tracer::disabled(), 0),
        );
        assert!(c.can_send_frame());
        assert_eq!(c.outstanding(), 3);
    }

    #[test]
    fn switching_nodes_clears_the_window() {
        let mut c = client();
        c.force_attach(NodeId::new(1), vec![]);
        for _ in 0..4 {
            let _ = c.next_frame_seq();
        }
        assert!(!c.can_send_frame());
        let _ = c.decide(vec![probe(2, 5, 20, 0)], SimTime::ZERO);
        join(&mut c, NodeId::new(2), true);
        assert!(
            c.can_send_frame(),
            "in-flight frames to the old node are written off"
        );
        assert_eq!(c.outstanding(), 0);
    }

    fn predictive_client() -> EdgeClient {
        EdgeClient::new(
            UserId::new(1),
            GeoPoint::new(44.98, -93.26),
            ClientConfig::default().with_selector(SelectorMode::Predictive),
        )
    }

    #[test]
    fn predictive_matches_reactive_on_flat_history() {
        let mut reactive = client();
        let mut predictive = predictive_client();
        let round = || {
            vec![
                probe(1, 30, 30, 0),
                probe(2, 10, 24, 5),
                probe(3, 20, 30, 0),
            ]
        };
        for i in 0..10u64 {
            let now = SimTime::from_secs(i * 10);
            let dr = reactive.decide(round(), now);
            let dp = predictive.decide(round(), now);
            assert_eq!(dr, dp, "round {i} diverged");
            assert_eq!(reactive.backups(), predictive.backups());
            if let ClientDecision::AttemptJoin { target, .. } = dr {
                join(&mut reactive, target, true);
                join(&mut predictive, target, true);
            }
        }
        let p = predictive.last_prediction().expect("summary recorded");
        assert_eq!(p.best, NodeId::new(2));
        assert_eq!(p.best_score, 1.0, "no failures: score exactly 1");
        assert!(!p.vetoed);
    }

    #[test]
    fn predictive_vetoes_transient_spike() {
        let mut c = predictive_client();
        // Long flat history: node 1 clearly best.
        for i in 0..10u64 {
            let now = SimTime::from_secs(i * 10);
            let d = c.decide(vec![probe(1, 10, 24, 0), probe(2, 30, 30, 0)], now);
            if let ClientDecision::AttemptJoin { target, .. } = d {
                join(&mut c, target, true);
            }
        }
        assert_eq!(c.current_node(), Some(NodeId::new(1)));
        // One round where node 1 spikes: raw measurement says node 2
        // wins outright, and even the forecast puts node 2 narrowly
        // ahead — but not by the hysteresis margin, so the predictor
        // vetoes the switch.
        let now = SimTime::from_secs(100);
        let d = c.decide(vec![probe(1, 90, 24, 0), probe(2, 30, 30, 0)], now);
        assert_eq!(d, ClientDecision::Stay, "transient spike must not switch");
        assert!(c.last_prediction().expect("summary").vetoed);
        assert_eq!(c.stats().switches, 0);
    }

    #[test]
    fn probe_failures_demote_a_node() {
        let mut c = predictive_client();
        let now = SimTime::from_secs(10);
        // Node 1 just dropped two probes; measurements are identical.
        lose(&mut c, 1, SimTime::from_secs(9));
        lose(&mut c, 1, now);
        let d = c.decide(vec![probe(1, 10, 24, 0), probe(2, 10, 24, 7)], now);
        assert_eq!(
            d,
            ClientDecision::AttemptJoin {
                target: NodeId::new(2),
                seq: 7
            },
            "equal measurements break toward the reliable node"
        );
        let score = c.selector().unwrap().score(NodeId::new(1), now);
        assert!(score < 1.0, "failures must depress the score, got {score}");
    }

    #[test]
    fn busy_demotes_less_than_a_probe_failure_and_decays() {
        let mut c = predictive_client();
        let now = SimTime::from_secs(10);
        c.on_busy(NodeId::new(1), now);
        lose(&mut c, 2, now);
        let score =
            |c: &EdgeClient, id: u64, at: SimTime| c.selector().unwrap().score(NodeId::new(id), at);
        let (shed, silent) = (score(&c, 1, now), score(&c, 2, now));
        assert!(shed < 1.0, "Busy must depress the score, got {shed}");
        assert!(
            silent < shed,
            "shedding ({shed}) is a lighter signal than silence ({silent})"
        );
        // Equal measurements break away from the node that shed us.
        let d = c.decide(vec![probe(1, 10, 24, 3), probe(3, 10, 24, 7)], now);
        assert_eq!(
            d,
            ClientDecision::AttemptJoin {
                target: NodeId::new(3),
                seq: 7
            }
        );
        let later = SimTime::from_secs(70);
        assert!(score(&c, 1, later) > shed, "the penalty decays");
        assert!(score(&c, 1, later) > 0.99, "six half-lives on: near 1");
    }

    #[test]
    fn busy_is_a_no_op_for_the_reactive_selector() {
        let mut c = client();
        c.on_busy(NodeId::new(1), SimTime::ZERO);
        assert!(c.selector().is_none());
        // Node 1 still wins the id tie-break it would have won anyway.
        let d = c.decide(
            vec![probe(1, 10, 24, 3), probe(2, 10, 24, 7)],
            SimTime::ZERO,
        );
        assert_eq!(
            d,
            ClientDecision::AttemptJoin {
                target: NodeId::new(1),
                seq: 3
            }
        );
    }

    #[test]
    fn current_node_never_in_backups() {
        let mut c = client();
        c.force_attach(NodeId::new(2), vec![NodeId::new(2), NodeId::new(3)]);
        assert!(!c.backups().contains(&NodeId::new(2)));
        let _ = c.decide(
            vec![
                probe(2, 10, 24, 0),
                probe(3, 20, 30, 0),
                probe(2, 12, 24, 0),
            ],
            SimTime::ZERO,
        );
        assert!(!c.backups().contains(&NodeId::new(2)));
    }

    fn client_with(selector: SelectorMode) -> EdgeClient {
        let config = ClientConfig::default().with_selector(selector);
        EdgeClient::new(UserId::new(1), GeoPoint::new(44.98, -93.26), config)
    }

    fn tracer() -> (Tracer, Arc<Mutex<String>>) {
        let sink = MemorySink::new();
        let buffer = sink.buffer();
        (Tracer::with_sink(Box::new(sink), Severity::Debug), buffer)
    }

    fn nodes(ids: &[u64]) -> Vec<NodeId> {
        ids.iter().map(|&id| NodeId::new(id)).collect()
    }

    fn reply(id: u64) -> ProbeResult {
        ProbeResult {
            node: NodeId::new(id),
            rtt: SimDuration::from_millis(10),
            whatif_proc: SimDuration::from_millis(24),
            current_proc: SimDuration::from_millis(24),
            attached_users: 0,
            seq_num: 0,
        }
    }

    /// Each written event as `kind round`.
    fn rounds(buffer: &Mutex<String>) -> Vec<String> {
        let events = inspect::parse_jsonl(&buffer.lock().unwrap()).expect("trace parses");
        let show = |e: &armada_trace::TraceEvent| format!("{} {:?}", e.kind, e.field_u64("round"));
        events.iter().map(show).collect()
    }

    /// Regression: concluding a round must close it; marking it done in
    /// place leaked one entry per user for the rest of a run.
    #[test]
    fn concluded_probe_rounds_are_pruned() {
        let (tracer, buffer) = tracer();
        let trace = Narrator::at(&tracer, 0);
        let mut c = client_with(SelectorMode::Reactive);
        let (round, probes) = c
            .start_probe_round(nodes(&[7]), |_| true, SimTime::ZERO, trace)
            .unwrap();
        assert_eq!((round, probes), (1, nodes(&[7])));
        assert_eq!(c.open_probe_round(), Some(1));
        assert!(c.on_probe_reply(round, reply(7)), "the only probe answered");
        let decision = c.conclude_probe_round(round, SimTime::ZERO, trace);
        assert!(matches!(decision, Some(ClientDecision::AttemptJoin { .. })));
        assert_eq!(c.open_probe_round(), None, "a concluded round stays open");
        assert_eq!(c.conclude_probe_round(round, SimTime::ZERO, trace), None);
        assert_eq!(c.stats().probe_rounds, 1);
        assert_eq!(
            rounds(&buffer),
            ["probe.round.start Some(1)", "probe.round.done Some(1)"]
        );
    }

    /// Stragglers arriving after their round concluded (or timed out)
    /// are dropped without reopening it or scoring the node.
    #[test]
    fn stragglers_after_conclusion_are_ignored() {
        let tracer = Tracer::disabled();
        let trace = Narrator::at(&tracer, 0);
        let mut c = client_with(SelectorMode::Predictive);
        let (round, _) = c
            .start_probe_round(nodes(&[7, 8]), |_| true, SimTime::ZERO, trace)
            .unwrap();
        assert!(!c.on_probe_reply(round, reply(7)), "one of two answered");
        // The second probe never resolves: the round concludes on its
        // timeout.
        assert!(c
            .conclude_probe_round(round, SimTime::ZERO, trace)
            .is_some());
        assert!(!c.on_probe_lost(round, NodeId::new(8), SimTime::ZERO));
        assert!(!c.on_probe_reply(round, reply(8)));
        assert_eq!(c.open_probe_round(), None);
        let score = c.selector().unwrap().score(NodeId::new(8), SimTime::ZERO);
        assert_eq!(score, 1.0, "a straggling loss is no evidence");
    }

    #[test]
    fn replies_to_a_superseded_round_are_ignored() {
        let (tracer, buffer) = tracer();
        let trace = Narrator::at(&tracer, 0);
        let mut c = client_with(SelectorMode::Reactive);
        let (old, _) = c
            .start_probe_round(nodes(&[7]), |_| true, SimTime::ZERO, trace)
            .unwrap();
        let (new, _) = c
            .start_probe_round(nodes(&[7, 8]), |_| true, SimTime::ZERO, trace)
            .unwrap();
        assert_eq!((old, new), (1, 2));
        assert!(!c.on_probe_reply(old, reply(7)), "round 1 is gone");
        assert!(!c.on_probe_lost(old, NodeId::new(7), SimTime::ZERO));
        assert_eq!(c.conclude_probe_round(old, SimTime::ZERO, trace), None);
        assert!(!c.on_probe_reply(new, reply(8)));
        assert!(c.on_probe_lost(new, NodeId::new(7), SimTime::ZERO));
        assert!(c.conclude_probe_round(new, SimTime::ZERO, trace).is_some());
        assert_eq!(c.stats().probes_sent, 3);
        let done = inspect::parse_jsonl(&buffer.lock().unwrap()).unwrap();
        let done = done.iter().find(|e| e.kind == "probe.round.done").unwrap();
        assert_eq!(done.field_u64("round"), Some(2));
        assert_eq!(done.field_u64("replies"), Some(1), "only round 2's reply");
        assert_eq!(done.field_u64("failed"), Some(1));
    }

    #[test]
    fn an_empty_shortlist_opens_no_round_counts_nothing_and_writes_nothing() {
        let (tracer, buffer) = tracer();
        let trace = Narrator::at(&tracer, 0);
        let mut c = client_with(SelectorMode::Reactive);
        c.force_attach(NodeId::new(3), Vec::new());
        assert_eq!(
            c.start_probe_round(Vec::new(), |_| true, SimTime::ZERO, trace),
            None
        );
        assert_eq!(c.open_probe_round(), None);
        assert_eq!(c.stats().probes_sent, 0);
        assert!(buffer.lock().unwrap().is_empty(), "nothing written");
        // The next round is still the first.
        let (round, _) = c
            .start_probe_round(nodes(&[7]), |_| true, SimTime::ZERO, trace)
            .unwrap();
        assert_eq!(round, 1);
    }

    #[test]
    fn the_serving_node_is_probed_unless_vetoed() {
        let tracer = Tracer::disabled();
        let trace = Narrator::at(&tracer, 0);
        let mut c = client_with(SelectorMode::Reactive);
        c.force_attach(NodeId::new(3), Vec::new());
        let (_, probes) = c
            .start_probe_round(nodes(&[7]), |_| false, SimTime::ZERO, trace)
            .unwrap();
        assert_eq!(probes, nodes(&[7]), "a node that is down is not probed");
        let (_, probes) = c
            .start_probe_round(nodes(&[7]), |_| true, SimTime::ZERO, trace)
            .unwrap();
        assert_eq!(probes, nodes(&[7, 3]));
        let (_, probes) = c
            .start_probe_round(nodes(&[3, 7]), |_| true, SimTime::ZERO, trace)
            .unwrap();
        assert_eq!(probes, nodes(&[3, 7]), "listed once");
        assert_eq!(c.stats().probes_sent, 5);
    }
}
