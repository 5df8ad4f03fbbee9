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
/// let (reply, _) = node.process_probe(SimTime::ZERO);
/// // Before any measurement the what-if falls back to the base time.
/// assert_eq!(reply.whatif_proc, SimDuration::from_millis(24));
/// let (result, actions) = node.join(UserId::new(7), reply.seq_num, SimTime::ZERO);
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
    pub fn process_probe(&mut self, now: SimTime) -> (ProbeReply, Vec<NodeAction>) {
        let actions = self.advance(now);
        self.stats.probes_served += 1;
        let fallback = self.hw.base_frame_time();
        let current = self.monitor.current();
        let current = if current.is_zero() { fallback } else { current };
        let reply = ProbeReply {
            node: self.id,
            whatif_proc: self.whatif.get(fallback),
            current_proc: current,
            attached_users: self.attached.len(),
            seq_num: self.seq_num,
        };
        (reply, actions)
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
    ) -> (Result<(), ArmadaError>, Vec<NodeAction>) {
        let mut actions = self.advance(now);
        if presented_seq != self.seq_num {
            self.stats.joins_rejected += 1;
            let err = ArmadaError::JoinRejected {
                node: self.id,
                presented: presented_seq,
                current: self.seq_num,
            };
            return (Err(err), actions);
        }
        self.seq_num += 1;
        self.attached.insert(user);
        self.stats.joins_accepted += 1;
        actions.push(NodeAction::InvokeTestWorkload {
            after: self.join_refresh_delay,
        });
        (Ok(()), actions)
    }

    /// `Unexpected_join()` — failover attach after the user's serving
    /// node died. Cannot be rejected (paper Table I).
    pub fn unexpected_join(&mut self, user: UserId, now: SimTime) -> Vec<NodeAction> {
        let mut actions = self.advance(now);
        self.seq_num += 1;
        self.attached.insert(user);
        self.stats.unexpected_joins += 1;
        actions.push(NodeAction::InvokeTestWorkload {
            after: self.join_refresh_delay,
        });
        actions
    }

    /// `Leave()` — the user departs (switch or finish). Detaching an
    /// attached user (`true`) triggers an immediate test-workload
    /// refresh and a sequence bump; anyone else's leave changes nothing.
    pub fn leave(&mut self, user: UserId, now: SimTime) -> (bool, Vec<NodeAction>) {
        let mut actions = self.advance(now);
        let detached = self.attached.remove(&user);
        if detached {
            self.seq_num += 1;
            self.stats.leaves += 1;
            actions.push(NodeAction::InvokeTestWorkload {
                after: SimDuration::ZERO,
            });
        }
        (detached, actions)
    }

    /// Accepts a live frame for processing.
    pub fn offload(&mut self, frame: Frame, now: SimTime) -> Vec<NodeAction> {
        debug_assert!(
            !frame.is_test(),
            "test frames enter via invoke_test_workload"
        );
        let completed = self.executor.admit(
            QueuedFrame {
                frame,
                admitted: now,
            },
            now,
        );
        self.handle_completions(completed)
    }

    /// Runs the synthetic test workload, unless a refresh is already in
    /// flight (triggers coalesce).
    pub fn invoke_test_workload(&mut self, now: SimTime) -> Vec<NodeAction> {
        let mut actions = self.advance(now);
        if !self.whatif.begin_refresh() {
            return actions;
        }
        self.stats.test_invocations += 1;
        let completed = self.executor.admit(
            QueuedFrame {
                frame: Frame::test(now),
                admitted: now,
            },
            now,
        );
        actions.extend(self.handle_completions(completed));
        actions
    }

    /// Advances the executor to `now`, harvesting any completions. The
    /// runtime calls this from scheduled wake-ups; `epoch` (from
    /// [`EdgeNode::next_wakeup`]) lets stale wake-ups be ignored.
    pub fn on_wakeup(&mut self, epoch: u64, now: SimTime) -> Vec<NodeAction> {
        if epoch != self.executor.epoch() {
            return Vec::new();
        }
        self.advance(now)
    }

    /// Advances the executor to `now` unconditionally.
    pub fn advance(&mut self, now: SimTime) -> Vec<NodeAction> {
        let completed = self.executor.advance(now);
        self.handle_completions(completed)
    }

    /// When the executor next needs a wake-up: `(epoch, time)`.
    pub fn next_wakeup(&self, now: SimTime) -> Option<(u64, SimTime)> {
        self.executor.next_completion(now)
    }

    fn handle_completions(&mut self, completed: Vec<(QueuedFrame, SimTime)>) -> Vec<NodeAction> {
        let mut actions = Vec::new();
        for (queued, at) in completed {
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
        actions
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
        let (reply, _) = n.process_probe(SimTime::ZERO);
        let (res, actions) = n.join(UserId::new(1), reply.seq_num, SimTime::ZERO);
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
        let (reply, _) = n.process_probe(SimTime::ZERO);
        let (first, _) = n.join(UserId::new(1), reply.seq_num, SimTime::ZERO);
        assert!(first.is_ok());
        // Second client presents the same (now stale) seq — Algorithm 1
        // line 7-8: reject.
        let (second, _) = n.join(UserId::new(2), reply.seq_num, SimTime::ZERO);
        assert!(matches!(second, Err(ArmadaError::JoinRejected { .. })));
        assert!(!n.is_attached(UserId::new(2)));
        assert_eq!(n.stats().joins_rejected, 1);
    }

    #[test]
    fn unexpected_join_cannot_be_rejected() {
        let mut n = node();
        // No probe, wildly stale view — still attaches.
        n.unexpected_join(UserId::new(9), SimTime::ZERO);
        assert!(n.is_attached(UserId::new(9)));
        assert_eq!(n.stats().unexpected_joins, 1);
    }

    #[test]
    fn leave_detaches_and_triggers_refresh() {
        let mut n = node();
        let (reply, _) = n.process_probe(SimTime::ZERO);
        n.join(UserId::new(1), reply.seq_num, SimTime::ZERO)
            .0
            .unwrap();
        let seq = n.seq_num();
        let (detached, actions) = n.leave(UserId::new(1), SimTime::from_millis(100));
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
        let (detached, actions) = n.leave(UserId::new(42), SimTime::ZERO);
        assert!(!detached);
        assert_eq!(n.seq_num(), seq);
        assert!(actions.is_empty());
        assert_eq!(n.stats().leaves, 0);
    }

    #[test]
    fn test_workload_measures_and_fills_cache() {
        let mut n = node();
        n.invoke_test_workload(SimTime::ZERO);
        assert_eq!(n.stats().test_invocations, 1);
        // Idle node: test frame completes after the base 24 ms.
        let actions = n.advance(SimTime::from_millis(30));
        assert!(actions.is_empty(), "test completion is internal");
        let (reply, _) = n.process_probe(SimTime::from_millis(30));
        assert_eq!(reply.whatif_proc, SimDuration::from_millis(24));
    }

    #[test]
    fn probes_do_not_invoke_test_workload() {
        let mut n = node();
        for i in 0..100 {
            let _ = n.process_probe(SimTime::from_millis(i));
        }
        assert_eq!(n.stats().probes_served, 100);
        assert_eq!(n.stats().test_invocations, 0, "probes only read the cache");
    }

    #[test]
    fn concurrent_test_triggers_coalesce() {
        let mut n = node();
        n.invoke_test_workload(SimTime::ZERO);
        n.invoke_test_workload(SimTime::ZERO);
        n.invoke_test_workload(SimTime::from_millis(1));
        assert_eq!(n.stats().test_invocations, 1);
        // After completion a new trigger runs again.
        n.advance(SimTime::from_millis(50));
        n.invoke_test_workload(SimTime::from_millis(51));
        assert_eq!(n.stats().test_invocations, 2);
    }

    #[test]
    fn offloaded_frame_comes_back_with_response() {
        let mut n = node();
        let frame = Frame::live(UserId::new(1), 0, SimTime::ZERO);
        n.offload(frame, SimTime::ZERO);
        let actions = n.advance(SimTime::from_millis(24));
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
            );
        }
        n.invoke_test_workload(SimTime::ZERO);
        // Run everything to completion.
        n.advance(SimTime::from_secs(10));
        let (reply, _) = n.process_probe(SimTime::from_secs(10));
        assert!(
            reply.whatif_proc > SimDuration::from_millis(100),
            "what-if under 7-way contention on 2 cores must far exceed 49ms, got {}",
            reply.whatif_proc
        );
    }

    #[test]
    fn wakeup_with_stale_epoch_is_ignored() {
        let mut n = node();
        n.offload(Frame::live(UserId::new(1), 0, SimTime::ZERO), SimTime::ZERO);
        let (epoch, at) = n.next_wakeup(SimTime::ZERO).unwrap();
        // A second frame invalidates the scheduled wake-up.
        n.offload(
            Frame::live(UserId::new(1), 1, SimTime::from_millis(1)),
            SimTime::from_millis(1),
        );
        let actions = n.on_wakeup(epoch, at);
        assert!(actions.is_empty(), "stale epoch must be dropped");
        // The fresh epoch works.
        let (epoch2, at2) = n.next_wakeup(SimTime::from_millis(1)).unwrap();
        let actions = n.on_wakeup(epoch2, at2);
        assert!(!actions.is_empty());
    }

    #[test]
    fn perf_drift_triggers_refresh_and_seq_bump() {
        let mut n = slow_node();
        // Establish a basis via a test workload on the idle node.
        n.invoke_test_workload(SimTime::ZERO);
        n.advance(SimTime::from_millis(60));
        // Feed steady light traffic to set the EWMA near 49 ms.
        let mut t = SimTime::from_millis(100);
        for seq in 0..10 {
            n.offload(Frame::live(UserId::new(1), seq, t), t);
            t += SimDuration::from_millis(200);
            n.advance(t);
        }
        let seq_before = n.seq_num();
        // Now heavy bursts: processing time drifts far above the basis.
        let mut drift_refresh_requested = false;
        for burst in 0..12 {
            for seq in 0..8 {
                n.offload(Frame::live(UserId::new(2), burst * 8 + seq, t), t);
            }
            t += SimDuration::from_secs(2);
            drift_refresh_requested |= n
                .advance(t)
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
        let (reply, _) = n.process_probe(SimTime::ZERO);
        n.join(UserId::new(1), reply.seq_num, SimTime::ZERO)
            .0
            .unwrap();
        let s = n.status();
        assert_eq!(s.attached_users, 1);
        assert!(s.load_score > 0.0);
        assert_eq!(s.node, NodeId::new(1));
    }

    #[test]
    fn probe_reply_reports_current_proc_fallback_when_no_traffic() {
        let mut n = node();
        let (reply, _) = n.process_probe(SimTime::ZERO);
        assert_eq!(reply.current_proc, SimDuration::from_millis(24));
        assert_eq!(reply.attached_users, 0);
    }
}
