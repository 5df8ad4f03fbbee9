//! The [`EdgeNode`] state machine.

use std::collections::BTreeSet;

use armada_types::{
    ArmadaError, GeoPoint, HardwareProfile, NodeClass, NodeId, SimDuration, SimTime, UserId,
};
use armada_workload::{Frame, FrameResponse, PsExecutor};

use crate::monitor::{PerfMonitor, WhatIfCache};
use crate::probe::{NodeStatus, ProbeReply};

/// A frame inside the executor, remembering when processing started so
/// the node can measure pure processing delay.
#[derive(Debug, Clone, Copy)]
struct QueuedFrame {
    frame: Frame,
    admitted: SimTime,
}

/// An effect the node asks its runtime to perform.
///
/// The node itself is pure virtual-time logic; the scenario runner (or
/// the live TCP runtime) interprets these actions.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeAction {
    /// Run the synthetic test workload `after` this delay (the paper
    /// delays post-join refreshes by ~2× the common user RTT so the new
    /// user's live traffic is already flowing).
    InvokeTestWorkload {
        /// Delay before invocation.
        after: SimDuration,
    },
    /// Send a processed-frame response back to its user.
    Respond(FrameResponse),
}

/// Counters used by the evaluation (Fig. 9a/9b report probe and
/// test-workload volumes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeStats {
    /// `Process_probe()` requests served.
    pub probes_served: u64,
    /// Test-workload invocations actually run.
    pub test_invocations: u64,
    /// Live frames fully processed.
    pub frames_processed: u64,
    /// `Join()` requests accepted.
    pub joins_accepted: u64,
    /// `Join()` requests rejected by sequence mismatch.
    pub joins_rejected: u64,
    /// `Unexpected_join()` failover attaches.
    pub unexpected_joins: u64,
    /// `Leave()` notifications.
    pub leaves: u64,
}

/// An edge node participating in the volunteer edge cloud.
///
/// # Examples
///
/// ```
/// use armada_node::EdgeNode;
/// use armada_types::{HardwareProfile, NodeClass, NodeId, GeoPoint, SimDuration, SimTime, UserId};
///
/// let mut node = EdgeNode::new(
///     NodeId::new(1),
///     NodeClass::Volunteer,
///     HardwareProfile::new("Intel Core i7-9700", 8, 24.0),
///     GeoPoint::new(44.98, -93.26),
///     SimDuration::from_millis(40),
///     0.25,
/// );
/// // The node appends the effects it asks for to a buffer its runtime keeps.
/// let mut actions = Vec::new();
/// let reply = node.process_probe(SimTime::ZERO, &mut actions);
/// // Before any measurement the what-if falls back to the base time.
/// assert_eq!(reply.whatif_proc, SimDuration::from_millis(24));
/// let result = node.join(UserId::new(7), reply.seq_num, SimTime::ZERO, &mut actions);
/// assert!(result.is_ok());
/// assert!(!actions.is_empty()); // schedules the test-workload refresh
/// ```
#[derive(Debug, Clone)]
pub struct EdgeNode {
    id: NodeId,
    class: NodeClass,
    hw: HardwareProfile,
    location: GeoPoint,
    executor: PsExecutor<QueuedFrame>,
    seq_num: u64,
    attached: BTreeSet<UserId>,
    whatif: WhatIfCache,
    monitor: PerfMonitor,
    join_refresh_delay: SimDuration,
    stats: NodeStats,
    /// The executor's completions, lent to it at each step and empty
    /// between steps.
    completed: Vec<(QueuedFrame, SimTime)>,
}

impl EdgeNode {
    /// Creates an idle node.
    ///
    /// `join_refresh_delay` is how long after an accepted join the test
    /// workload re-runs (paper: 2× common user RTT); `drift_threshold`
    /// configures the performance monitor.
    pub fn new(
        id: NodeId,
        class: NodeClass,
        hw: HardwareProfile,
        location: GeoPoint,
        join_refresh_delay: SimDuration,
        drift_threshold: f64,
    ) -> Self {
        let executor = PsExecutor::new(&hw);
        EdgeNode {
            id,
            class,
            hw,
            location,
            executor,
            seq_num: 0,
            attached: BTreeSet::new(),
            whatif: WhatIfCache::new(),
            monitor: PerfMonitor::new(drift_threshold),
            join_refresh_delay,
            stats: NodeStats::default(),
            completed: Vec::new(),
        }
    }

    /// This node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Volunteer / dedicated / cloud.
    pub fn class(&self) -> NodeClass {
        self.class
    }

    /// The node's hardware profile.
    pub fn hardware(&self) -> &HardwareProfile {
        &self.hw
    }

    /// The node's position.
    pub fn location(&self) -> GeoPoint {
        self.location
    }

    /// Currently attached users (the paper's `S_j`).
    pub fn attached_users(&self) -> impl Iterator<Item = UserId> + '_ {
        self.attached.iter().copied()
    }

    /// Number of attached users.
    pub fn attached_count(&self) -> usize {
        self.attached.len()
    }

    /// `true` if `user` is attached.
    pub fn is_attached(&self, user: UserId) -> bool {
        self.attached.contains(&user)
    }

    /// The current join-synchronisation sequence number.
    pub fn seq_num(&self) -> u64 {
        self.seq_num
    }

    /// Evaluation counters.
    pub fn stats(&self) -> NodeStats {
        self.stats
    }

    /// Frames currently in the executor (live + test).
    pub fn in_flight(&self) -> usize {
        self.executor.in_flight()
    }

    /// Heartbeat payload for the Central Manager.
    pub fn status(&self) -> NodeStatus {
        // Offered-load proxy: attached users at the 20 FPS cap against
        // this node's capacity. The manager only needs a comparable
        // ordering, not an exact utilisation.
        let load_score = armada_workload::offered_load(&self.hw, self.attached.len(), 20.0);
        NodeStatus {
            node: self.id,
            class: self.class,
            location: self.location,
            attached_users: self.attached.len(),
            load_score,
        }
    }

    /// Serves a `Process_probe()` request from the what-if cache
    /// (paper §IV-C2): probes are cheap cache reads, never test-workload
    /// invocations.
    ///
    /// This and every other method that takes `actions` appends the
    /// effects it asks for there, in order, behind whatever the buffer
    /// already holds.
    pub fn process_probe(&mut self, now: SimTime, actions: &mut Vec<NodeAction>) -> ProbeReply {
        self.advance(now, actions);
        self.stats.probes_served += 1;
        let fallback = self.hw.base_frame_time();
        let current = self.monitor.current();
        let current = if current.is_zero() { fallback } else { current };
        ProbeReply {
            node: self.id,
            whatif_proc: self.whatif.get(fallback),
            current_proc: current,
            attached_users: self.attached.len(),
            seq_num: self.seq_num,
        }
    }

    /// `Join()` — Algorithm 1. Accepts iff `presented_seq` equals the
    /// node's current sequence number; on acceptance the sequence number
    /// advances and a delayed test-workload refresh is requested.
    ///
    /// # Errors
    ///
    /// Returns [`ArmadaError::JoinRejected`] on a stale sequence number,
    /// in which case the client must restart from edge discovery.
    pub fn join(
        &mut self,
        user: UserId,
        presented_seq: u64,
        now: SimTime,
        actions: &mut Vec<NodeAction>,
    ) -> Result<(), ArmadaError> {
        self.advance(now, actions);
        if presented_seq != self.seq_num {
            self.stats.joins_rejected += 1;
            return Err(ArmadaError::JoinRejected {
                node: self.id,
                presented: presented_seq,
                current: self.seq_num,
            });
        }
        self.seq_num += 1;
        self.attached.insert(user);
        self.stats.joins_accepted += 1;
        actions.push(NodeAction::InvokeTestWorkload {
            after: self.join_refresh_delay,
        });
        Ok(())
    }

    /// `Unexpected_join()` — failover attach after the user's serving
    /// node died. Cannot be rejected (paper Table I).
    pub fn unexpected_join(&mut self, user: UserId, now: SimTime, actions: &mut Vec<NodeAction>) {
        self.advance(now, actions);
        self.seq_num += 1;
        self.attached.insert(user);
        self.stats.unexpected_joins += 1;
        actions.push(NodeAction::InvokeTestWorkload {
            after: self.join_refresh_delay,
        });
    }

    /// `Leave()` — the user departs (switch or finish). Detaching an
    /// attached user (`true`) triggers an immediate test-workload
    /// refresh and a sequence bump; anyone else's leave changes nothing.
    pub fn leave(&mut self, user: UserId, now: SimTime, actions: &mut Vec<NodeAction>) -> bool {
        self.advance(now, actions);
        let detached = self.attached.remove(&user);
        if detached {
            self.seq_num += 1;
            self.stats.leaves += 1;
            actions.push(NodeAction::InvokeTestWorkload {
                after: SimDuration::ZERO,
            });
        }
        detached
    }

    /// Accepts a live frame for processing.
    pub fn offload(&mut self, frame: Frame, now: SimTime, actions: &mut Vec<NodeAction>) {
        debug_assert!(
            !frame.is_test(),
            "test frames enter via invoke_test_workload"
        );
        self.admit(frame, now, actions);
    }

    /// Runs the synthetic test workload, unless a refresh is already in
    /// flight (triggers coalesce).
    pub fn invoke_test_workload(&mut self, now: SimTime, actions: &mut Vec<NodeAction>) {
        self.advance(now, actions);
        if !self.whatif.begin_refresh() {
            return;
        }
        self.stats.test_invocations += 1;
        self.admit(Frame::test(now), now, actions);
    }

    /// Advances the executor to `now`, harvesting any completions. The
    /// runtime calls this from scheduled wake-ups; `epoch` (from
    /// [`EdgeNode::next_wakeup`]) lets stale wake-ups be ignored.
    pub fn on_wakeup(&mut self, epoch: u64, now: SimTime, actions: &mut Vec<NodeAction>) {
        if epoch == self.executor.epoch() {
            self.advance(now, actions);
        }
    }

    /// Advances the executor to `now` unconditionally.
    pub fn advance(&mut self, now: SimTime, actions: &mut Vec<NodeAction>) {
        self.executor.advance_into(now, &mut self.completed);
        self.handle_completions(actions);
    }

    /// When the executor next needs a wake-up: `(epoch, time)`.
    pub fn next_wakeup(&self, now: SimTime) -> Option<(u64, SimTime)> {
        self.executor.next_completion(now)
    }

    /// The executor's state-change counter: a wake-up armed for another
    /// epoch is stale (see [`EdgeNode::next_wakeup`]).
    pub fn epoch(&self) -> u64 {
        self.executor.epoch()
    }

    /// Admits `frame` to the executor at `now`, handling what completed
    /// before it.
    fn admit(&mut self, frame: Frame, now: SimTime, actions: &mut Vec<NodeAction>) {
        let queued = QueuedFrame {
            frame,
            admitted: now,
        };
        self.executor.admit_into(queued, now, &mut self.completed);
        self.handle_completions(actions);
    }

    /// Turns the executor's completions into actions, emptying them.
    fn handle_completions(&mut self, actions: &mut Vec<NodeAction>) {
        for (queued, at) in self.completed.drain(..) {
            let processing = at.saturating_since(queued.admitted);
            if queued.frame.is_test() {
                // The what-if measurement: how long one extra frame took
                // under the load present when it was invoked.
                self.whatif.store(processing, at);
                self.monitor.rebase_with(processing);
            } else {
                self.stats.frames_processed += 1;
                let drifted = self.monitor.observe(processing);
                actions.push(NodeAction::Respond(FrameResponse::for_frame(
                    &queued.frame,
                    at,
                )));
                if drifted && !self.whatif.refresh_pending() {
                    // Third trigger: noticeable processing-time change.
                    self.seq_num += 1;
                    actions.push(NodeAction::InvokeTestWorkload {
                        after: SimDuration::ZERO,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> EdgeNode {
        EdgeNode::new(
            NodeId::new(1),
            NodeClass::Volunteer,
            HardwareProfile::new("Intel Core i7-9700", 8, 24.0),
            GeoPoint::new(44.98, -93.26),
            SimDuration::from_millis(40),
            0.25,
        )
    }

    fn slow_node() -> EdgeNode {
        EdgeNode::new(
            NodeId::new(2),
            NodeClass::Volunteer,
            HardwareProfile::new("Intel Core i5-5250U", 2, 49.0),
            GeoPoint::new(44.95, -93.20),
            SimDuration::from_millis(40),
            0.25,
        )
    }

    #[test]
    fn join_with_matching_seq_succeeds_and_bumps() {
        let mut n = node();
        let reply = n.process_probe(SimTime::ZERO, &mut Vec::new());
        let mut actions = Vec::new();
        let res = n.join(UserId::new(1), reply.seq_num, SimTime::ZERO, &mut actions);
        assert!(res.is_ok());
        assert_eq!(n.seq_num(), reply.seq_num + 1);
        assert!(n.is_attached(UserId::new(1)));
        assert!(matches!(
            actions.last(),
            Some(NodeAction::InvokeTestWorkload { after }) if *after == SimDuration::from_millis(40)
        ));
    }

    #[test]
    fn join_with_stale_seq_is_rejected() {
        let mut n = node();
        let reply = n.process_probe(SimTime::ZERO, &mut Vec::new());
        let first = n.join(
            UserId::new(1),
            reply.seq_num,
            SimTime::ZERO,
            &mut Vec::new(),
        );
        assert!(first.is_ok());
        // Second client presents the same (now stale) seq — Algorithm 1
        // line 7-8: reject.
        let second = n.join(
            UserId::new(2),
            reply.seq_num,
            SimTime::ZERO,
            &mut Vec::new(),
        );
        assert!(matches!(second, Err(ArmadaError::JoinRejected { .. })));
        assert!(!n.is_attached(UserId::new(2)));
        assert_eq!(n.stats().joins_rejected, 1);
    }

    #[test]
    fn unexpected_join_cannot_be_rejected() {
        let mut n = node();
        // No probe, wildly stale view — still attaches.
        n.unexpected_join(UserId::new(9), SimTime::ZERO, &mut Vec::new());
        assert!(n.is_attached(UserId::new(9)));
        assert_eq!(n.stats().unexpected_joins, 1);
    }

    #[test]
    fn leave_detaches_and_triggers_refresh() {
        let mut n = node();
        let reply = n.process_probe(SimTime::ZERO, &mut Vec::new());
        n.join(
            UserId::new(1),
            reply.seq_num,
            SimTime::ZERO,
            &mut Vec::new(),
        )
        .unwrap();
        let seq = n.seq_num();
        let mut actions = Vec::new();
        let detached = n.leave(UserId::new(1), SimTime::from_millis(100), &mut actions);
        assert!(detached);
        assert!(!n.is_attached(UserId::new(1)));
        assert_eq!(n.seq_num(), seq + 1);
        assert!(actions
            .iter()
            .any(|a| matches!(a, NodeAction::InvokeTestWorkload { after } if after.is_zero())));
    }

    #[test]
    fn leave_of_unknown_user_is_a_noop() {
        let mut n = node();
        let seq = n.seq_num();
        let mut actions = Vec::new();
        let detached = n.leave(UserId::new(42), SimTime::ZERO, &mut actions);
        assert!(!detached);
        assert_eq!(n.seq_num(), seq);
        assert!(actions.is_empty());
        assert_eq!(n.stats().leaves, 0);
    }

    #[test]
    fn test_workload_measures_and_fills_cache() {
        let mut n = node();
        n.invoke_test_workload(SimTime::ZERO, &mut Vec::new());
        assert_eq!(n.stats().test_invocations, 1);
        // Idle node: test frame completes after the base 24 ms.
        let mut actions = Vec::new();
        n.advance(SimTime::from_millis(30), &mut actions);
        assert!(actions.is_empty(), "test completion is internal");
        let reply = n.process_probe(SimTime::from_millis(30), &mut Vec::new());
        assert_eq!(reply.whatif_proc, SimDuration::from_millis(24));
    }

    #[test]
    fn probes_do_not_invoke_test_workload() {
        let mut n = node();
        for i in 0..100 {
            n.process_probe(SimTime::from_millis(i), &mut Vec::new());
        }
        assert_eq!(n.stats().probes_served, 100);
        assert_eq!(n.stats().test_invocations, 0, "probes only read the cache");
    }

    #[test]
    fn concurrent_test_triggers_coalesce() {
        let mut n = node();
        n.invoke_test_workload(SimTime::ZERO, &mut Vec::new());
        n.invoke_test_workload(SimTime::ZERO, &mut Vec::new());
        n.invoke_test_workload(SimTime::from_millis(1), &mut Vec::new());
        assert_eq!(n.stats().test_invocations, 1);
        // After completion a new trigger runs again.
        n.advance(SimTime::from_millis(50), &mut Vec::new());
        n.invoke_test_workload(SimTime::from_millis(51), &mut Vec::new());
        assert_eq!(n.stats().test_invocations, 2);
    }

    #[test]
    fn offloaded_frame_comes_back_with_response() {
        let mut n = node();
        let frame = Frame::live(UserId::new(1), 0, SimTime::ZERO);
        let mut actions = Vec::new();
        n.offload(frame, SimTime::ZERO, &mut actions);
        n.advance(SimTime::from_millis(24), &mut actions);
        let responses: Vec<_> = actions
            .iter()
            .filter_map(|a| match a {
                NodeAction::Respond(r) => Some(r),
                _ => None,
            })
            .collect();
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].user, UserId::new(1));
        assert_eq!(responses[0].completed_at, SimTime::from_millis(24));
        assert_eq!(n.stats().frames_processed, 1);
    }

    #[test]
    fn whatif_reflects_contention() {
        let mut n = slow_node();
        // Saturate: 6 frames on a 2-core node.
        for seq in 0..6 {
            n.offload(
                Frame::live(UserId::new(1), seq, SimTime::ZERO),
                SimTime::ZERO,
                &mut Vec::new(),
            );
        }
        n.invoke_test_workload(SimTime::ZERO, &mut Vec::new());
        // Run everything to completion.
        n.advance(SimTime::from_secs(10), &mut Vec::new());
        let reply = n.process_probe(SimTime::from_secs(10), &mut Vec::new());
        assert!(
            reply.whatif_proc > SimDuration::from_millis(100),
            "what-if under 7-way contention on 2 cores must far exceed 49ms, got {}",
            reply.whatif_proc
        );
    }

    #[test]
    fn wakeup_with_stale_epoch_is_ignored() {
        let mut n = node();
        let mut actions = Vec::new();
        n.offload(
            Frame::live(UserId::new(1), 0, SimTime::ZERO),
            SimTime::ZERO,
            &mut actions,
        );
        let (epoch, at) = n.next_wakeup(SimTime::ZERO).unwrap();
        assert_eq!(epoch, n.epoch());
        // A second frame invalidates the scheduled wake-up.
        n.offload(
            Frame::live(UserId::new(1), 1, SimTime::from_millis(1)),
            SimTime::from_millis(1),
            &mut actions,
        );
        assert_ne!(epoch, n.epoch());
        n.on_wakeup(epoch, at, &mut actions);
        assert!(actions.is_empty(), "stale epoch must be dropped");
        // The fresh epoch works.
        let (epoch2, at2) = n.next_wakeup(SimTime::from_millis(1)).unwrap();
        n.on_wakeup(epoch2, at2, &mut actions);
        assert!(!actions.is_empty());
    }

    #[test]
    fn perf_drift_triggers_refresh_and_seq_bump() {
        let mut n = slow_node();
        // Establish a basis via a test workload on the idle node.
        n.invoke_test_workload(SimTime::ZERO, &mut Vec::new());
        n.advance(SimTime::from_millis(60), &mut Vec::new());
        // Feed steady light traffic to set the EWMA near 49 ms.
        let mut t = SimTime::from_millis(100);
        for seq in 0..10 {
            n.offload(Frame::live(UserId::new(1), seq, t), t, &mut Vec::new());
            t += SimDuration::from_millis(200);
            n.advance(t, &mut Vec::new());
        }
        let seq_before = n.seq_num();
        // Now heavy bursts: processing time drifts far above the basis.
        let mut drift_refresh_requested = false;
        for burst in 0..12 {
            let mut actions = Vec::new();
            for seq in 0..8 {
                n.offload(
                    Frame::live(UserId::new(2), burst * 8 + seq, t),
                    t,
                    &mut actions,
                );
            }
            t += SimDuration::from_secs(2);
            actions.clear();
            n.advance(t, &mut actions);
            drift_refresh_requested |= actions
                .iter()
                .any(|a| matches!(a, NodeAction::InvokeTestWorkload { .. }));
        }
        assert!(
            drift_refresh_requested,
            "drift must request a test-workload re-run"
        );
        assert!(n.seq_num() > seq_before, "drift bumps the sequence number");
    }

    #[test]
    fn status_reports_load() {
        let mut n = node();
        assert_eq!(n.status().attached_users, 0);
        assert_eq!(n.status().load_score, 0.0);
        let reply = n.process_probe(SimTime::ZERO, &mut Vec::new());
        n.join(
            UserId::new(1),
            reply.seq_num,
            SimTime::ZERO,
            &mut Vec::new(),
        )
        .unwrap();
        let s = n.status();
        assert_eq!(s.attached_users, 1);
        assert!(s.load_score > 0.0);
        assert_eq!(s.node, NodeId::new(1));
    }

    #[test]
    fn probe_reply_reports_current_proc_fallback_when_no_traffic() {
        let mut n = node();
        let reply = n.process_probe(SimTime::ZERO, &mut Vec::new());
        assert_eq!(reply.current_proc, SimDuration::from_millis(24));
        assert_eq!(reply.attached_users, 0);
    }
}
