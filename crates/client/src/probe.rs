//! Probe results and the local selection policies (paper §IV-D).

use armada_types::{LocalSelectionPolicy, NodeId, QosRequirement, SimDuration};
use armada_wire::Response;

/// A probing round is concluded this long after it started, with what
/// answered by then (dead candidates fail fast, so this rarely fires).
pub const PROBE_TIMEOUT: SimDuration = SimDuration::from_millis(1_000);

/// The combined outcome of probing one edge candidate:
/// `RTT_probe()` + `Process_probe()`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeResult {
    /// The probed candidate.
    pub node: NodeId,
    /// Measured round-trip propagation delay (`D_prop`).
    pub rtt: SimDuration,
    /// The candidate's cached what-if processing delay
    /// (`D_proc_probing`).
    pub whatif_proc: SimDuration,
    /// The candidate's current measured processing delay for existing
    /// users (`D_proc_current`).
    pub current_proc: SimDuration,
    /// Number of users already attached to the candidate (`n`).
    pub attached_users: usize,
    /// The candidate's sequence number, to echo in `Join()`.
    pub seq_num: u64,
}

impl ProbeResult {
    /// Reads `node`'s answer to `Process_probe()`, the round trip `rtt`
    /// measured by the driver; `None` if `reply` is not a probe reply.
    pub fn from_reply(node: NodeId, rtt: SimDuration, reply: &Response) -> Option<ProbeResult> {
        let &Response::ProbeReply {
            whatif_us,
            current_us,
            attached,
            seq,
        } = reply
        else {
            return None;
        };
        Some(ProbeResult {
            node,
            rtt,
            whatif_proc: SimDuration::from_micros(whatif_us),
            current_proc: SimDuration::from_micros(current_us),
            attached_users: attached,
            seq_num: seq,
        })
    }

    /// The local-view overhead: `LO = D_prop + D_proc_probing`.
    pub fn lo(&self) -> SimDuration {
        self.rtt + self.whatif_proc
    }

    /// The global overhead:
    /// `GO = n · (D_proc_probing − D_proc_current) + LO` — the latency
    /// this client would see *plus* the aggregate degradation imposed on
    /// the candidate's existing users.
    ///
    /// A what-if below the current measurement (e.g. a stale cache after
    /// users left) contributes no negative interference: the penalty term
    /// saturates at zero.
    pub fn go(&self) -> SimDuration {
        let degradation = self.whatif_proc.saturating_sub(self.current_proc);
        degradation * self.attached_users as u64 + self.lo()
    }

    /// The overhead under `policy`.
    pub fn overhead(&self, policy: LocalSelectionPolicy) -> SimDuration {
        match policy {
            LocalSelectionPolicy::BestLocal => self.lo(),
            LocalSelectionPolicy::GlobalOverhead | LocalSelectionPolicy::QosFiltered => self.go(),
        }
    }
}

/// `SortLocalSelectionPolicy()` (Algorithm 2, line 11): orders probe
/// results best-first under the chosen policy.
///
/// With [`LocalSelectionPolicy::QosFiltered`], candidates whose `LO`
/// violates `qos.max_latency` are removed before ranking; the result may
/// therefore be empty, in which case the caller should treat the user as
/// unplaceable (or fall back to the cloud).
///
/// Ties break by `NodeId` for determinism.
pub fn rank_candidates(
    mut results: Vec<ProbeResult>,
    policy: LocalSelectionPolicy,
    qos: QosRequirement,
) -> Vec<ProbeResult> {
    if policy == LocalSelectionPolicy::QosFiltered {
        results.retain(|r| r.lo() <= qos.max_latency);
    }
    results.sort_by(|a, b| {
        a.overhead(policy)
            .cmp(&b.overhead(policy))
            .then(a.node.cmp(&b.node))
    });
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn probe(id: u64, rtt_ms: u64, whatif_ms: u64, current_ms: u64, users: usize) -> ProbeResult {
        ProbeResult {
            node: NodeId::new(id),
            rtt: SimDuration::from_millis(rtt_ms),
            whatif_proc: SimDuration::from_millis(whatif_ms),
            current_proc: SimDuration::from_millis(current_ms),
            attached_users: users,
            seq_num: 0,
        }
    }

    #[test]
    fn lo_is_rtt_plus_whatif() {
        let p = probe(1, 10, 30, 30, 2);
        assert_eq!(p.lo(), SimDuration::from_millis(40));
    }

    #[test]
    fn go_adds_interference_to_existing_users() {
        // 3 existing users, each degraded by 5 ms: GO = 15 + LO(40) = 55.
        let p = probe(1, 10, 30, 25, 3);
        assert_eq!(p.go(), SimDuration::from_millis(55));
    }

    #[test]
    fn go_equals_lo_on_idle_node() {
        let p = probe(1, 10, 24, 24, 0);
        assert_eq!(p.go(), p.lo());
    }

    #[test]
    fn go_never_rewards_negative_degradation() {
        // Stale cache: what-if (28) below current (35). The penalty term
        // clamps at zero rather than subtracting.
        let p = probe(1, 10, 28, 35, 4);
        assert_eq!(p.go(), p.lo());
    }

    #[test]
    fn best_local_ignores_interference() {
        // Node 1: LO 40 but big interference. Node 2: LO 45, idle.
        let loaded = probe(1, 10, 30, 20, 5);
        let idle = probe(2, 15, 30, 30, 0);
        let by_lo = rank_candidates(
            vec![loaded, idle],
            LocalSelectionPolicy::BestLocal,
            QosRequirement::default(),
        );
        assert_eq!(by_lo[0].node, NodeId::new(1));
        let by_go = rank_candidates(
            vec![loaded, idle],
            LocalSelectionPolicy::GlobalOverhead,
            QosRequirement::default(),
        );
        assert_eq!(
            by_go[0].node,
            NodeId::new(2),
            "GO accounts for the 5 degraded users"
        );
    }

    #[test]
    fn qos_filter_drops_violators() {
        let slow = probe(1, 100, 80, 80, 0); // LO = 180 > 150
        let ok = probe(2, 40, 60, 60, 0); // LO = 100
        let ranked = rank_candidates(
            vec![slow, ok],
            LocalSelectionPolicy::QosFiltered,
            QosRequirement::default(),
        );
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].node, NodeId::new(2));
    }

    #[test]
    fn qos_filter_can_empty_the_list() {
        let slow = probe(1, 200, 80, 80, 0);
        let ranked = rank_candidates(
            vec![slow],
            LocalSelectionPolicy::QosFiltered,
            QosRequirement::default(),
        );
        assert!(ranked.is_empty());
    }

    #[test]
    fn table3_shape_best_node_selected() {
        // Reproduce the Table III U1 row: V1 wins at 38 ms total.
        // (RTT components chosen so rtt+proc equals the paper's cells.)
        let results = vec![
            probe(1, 14, 24, 24, 0), // V1: 38
            probe(2, 15, 32, 32, 0), // V2: 47
            probe(3, 18, 31, 31, 0), // V3: 49
            probe(4, 20, 45, 45, 0), // V4: 65
            probe(5, 23, 49, 49, 0), // V5: 72
            probe(6, 12, 30, 30, 0), // D6: 42
            probe(7, 77, 30, 30, 0), // Cloud: 107
        ];
        let ranked = rank_candidates(
            results,
            LocalSelectionPolicy::GlobalOverhead,
            QosRequirement::default(),
        );
        assert_eq!(ranked[0].node, NodeId::new(1));
        assert_eq!(ranked[0].lo(), SimDuration::from_millis(38));
        assert_eq!(ranked[1].node, NodeId::new(6));
    }

    proptest! {
        #[test]
        fn ranking_is_sorted_by_policy_overhead(
            probes in proptest::collection::vec(
                (0u64..50, 1u64..200, 1u64..200, 1u64..200, 0usize..10),
                0..20,
            ),
            policy_idx in 0usize..3,
        ) {
            let policy = [
                LocalSelectionPolicy::BestLocal,
                LocalSelectionPolicy::GlobalOverhead,
                LocalSelectionPolicy::QosFiltered,
            ][policy_idx];
            let results: Vec<ProbeResult> = probes
                .iter()
                .map(|&(id, rtt, wi, cur, users)| probe(id, rtt, wi, cur, users))
                .collect();
            let ranked = rank_candidates(results, policy, QosRequirement::default());
            for pair in ranked.windows(2) {
                prop_assert!(pair[0].overhead(policy) <= pair[1].overhead(policy));
            }
            if policy == LocalSelectionPolicy::QosFiltered {
                for r in &ranked {
                    prop_assert!(r.lo() <= QosRequirement::default().max_latency);
                }
            }
        }

        #[test]
        fn go_is_at_least_lo(
            rtt in 0u64..500, wi in 0u64..500, cur in 0u64..500, users in 0usize..20,
        ) {
            let p = probe(1, rtt, wi, cur, users);
            prop_assert!(p.go() >= p.lo());
        }
    }
}
