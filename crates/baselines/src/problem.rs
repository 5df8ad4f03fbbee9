//! The static edge-assignment problem of paper §III-C.

use armada_types::{HardwareProfile, NodeId, SimDuration, UserId};
use armada_workload::estimate_response_time;

/// A user in the snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct UserSpec {
    /// The user's identity.
    pub id: UserId,
    /// Uplink transfer delay for one frame from this user, ms
    /// (`D_trans`; defaults to the 0.02 MB frame on a 20 Mbit/s uplink).
    pub transfer_ms: f64,
}

impl UserSpec {
    /// Creates a user with the default frame transfer delay.
    pub fn new(id: UserId) -> Self {
        UserSpec {
            id,
            transfer_ms: 8.0,
        }
    }

    /// Overrides the frame transfer delay.
    pub fn with_transfer_ms(mut self, ms: f64) -> Self {
        self.transfer_ms = ms.max(0.0);
        self
    }
}

/// A node in the snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// The node's identity.
    pub id: NodeId,
    /// The node's hardware.
    pub hw: HardwareProfile,
}

impl NodeSpec {
    /// Creates a node spec.
    pub fn new(id: NodeId, hw: HardwareProfile) -> Self {
        NodeSpec { id, hw }
    }
}

/// A users-to-nodes assignment: `node_index[user_index]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    nodes: Vec<usize>,
}

impl Assignment {
    /// Wraps a raw per-user node-index vector.
    pub fn new(nodes: Vec<usize>) -> Self {
        Assignment { nodes }
    }

    /// The node index serving user `user_index`.
    ///
    /// # Panics
    ///
    /// Panics if `user_index` is out of range.
    pub fn node_of(&self, user_index: usize) -> usize {
        self.nodes[user_index]
    }

    /// The raw per-user node indices.
    pub fn as_slice(&self) -> &[usize] {
        &self.nodes
    }

    /// Number of users covered.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when no users are assigned.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// How many users each of `node_count` nodes serves.
    pub fn loads(&self, node_count: usize) -> Vec<usize> {
        let mut loads = vec![0usize; node_count];
        for &n in &self.nodes {
            loads[n] += 1;
        }
        loads
    }
}

/// The static assignment problem: `n` users, `m` nodes, mean RTTs, and
/// the analytic processing model.
#[derive(Debug, Clone, PartialEq)]
pub struct AssignmentProblem {
    users: Vec<UserSpec>,
    nodes: Vec<NodeSpec>,
    /// `rtt_ms[user][node]` mean round-trip propagation delays.
    rtt_ms: Vec<Vec<f64>>,
    /// Nominal per-user frame rate (the paper's 20 FPS cap).
    fps: f64,
}

impl AssignmentProblem {
    /// Creates a problem; RTTs default to zero until
    /// [`AssignmentProblem::with_rtt_ms`] supplies them.
    ///
    /// # Panics
    ///
    /// Panics if there are no nodes, or `fps` is not positive and finite.
    pub fn new(users: Vec<UserSpec>, nodes: Vec<NodeSpec>, fps: f64) -> Self {
        assert!(!nodes.is_empty(), "assignment needs at least one node");
        assert!(fps.is_finite() && fps > 0.0, "fps must be positive");
        let rtt_ms = vec![vec![0.0; nodes.len()]; users.len()];
        AssignmentProblem {
            users,
            nodes,
            rtt_ms,
            fps,
        }
    }

    /// Supplies the `rtt_ms[user][node]` matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix shape does not match users × nodes.
    pub fn with_rtt_ms(mut self, rtt_ms: Vec<Vec<f64>>) -> Self {
        assert_eq!(rtt_ms.len(), self.users.len(), "rtt matrix row count");
        for row in &rtt_ms {
            assert_eq!(row.len(), self.nodes.len(), "rtt matrix column count");
        }
        self.rtt_ms = rtt_ms;
        self
    }

    /// The users.
    pub fn users(&self) -> &[UserSpec] {
        &self.users
    }

    /// The nodes.
    pub fn nodes(&self) -> &[NodeSpec] {
        &self.nodes
    }

    /// Nominal frame rate.
    pub fn fps(&self) -> f64 {
        self.fps
    }

    /// Mean RTT between a user and a node, ms.
    pub fn rtt_ms(&self, user: usize, node: usize) -> f64 {
        self.rtt_ms[user][node]
    }

    /// The objective `P(EA)`: mean end-to-end latency over all users.
    ///
    /// # Panics
    ///
    /// Panics if the assignment length differs from the user count.
    pub fn mean_latency_ms(&self, assignment: &Assignment) -> f64 {
        assert_eq!(
            assignment.len(),
            self.users.len(),
            "assignment covers every user"
        );
        if self.users.is_empty() {
            return 0.0;
        }
        let loads = assignment.loads(self.nodes.len());
        let total: f64 = (0..self.users.len())
            .map(|u| {
                let node = assignment.node_of(u);
                self.latency_with_load_ms(u, node, loads[node])
            })
            .sum();
        total / self.users.len() as f64
    }

    /// Latency for `user` on `node` given `load` users attached there.
    pub fn latency_with_load_ms(&self, user: usize, node: usize, load: usize) -> f64 {
        let proc: SimDuration = estimate_response_time(&self.nodes[node].hw, load, self.fps);
        self.rtt_ms[user][node] + self.users[user].transfer_ms + proc.as_millis_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn two_node_problem() -> AssignmentProblem {
        AssignmentProblem::new(
            vec![UserSpec::new(UserId::new(0)), UserSpec::new(UserId::new(1))],
            vec![
                NodeSpec::new(
                    NodeId::new(0),
                    HardwareProfile::new("fast", 8, 24.0).with_concurrency(4),
                ),
                NodeSpec::new(
                    NodeId::new(1),
                    HardwareProfile::new("cloud", 4, 30.0).with_concurrency(8),
                ),
            ],
            20.0,
        )
        .with_rtt_ms(vec![vec![10.0, 80.0], vec![12.0, 80.0]])
    }

    #[test]
    fn loads_count_users_per_node() {
        let a = Assignment::new(vec![0, 0, 1]);
        assert_eq!(a.loads(3), vec![2, 1, 0]);
    }

    #[test]
    fn mean_latency_includes_all_three_terms() {
        let p = two_node_problem();
        let a = Assignment::new(vec![0, 1]);
        // user0: 10 + 8 + proc(fast, 1 user) ; user1: 80 + 8 + proc(cloud, 1).
        let m = p.mean_latency_ms(&a);
        assert!(m > (10.0 + 8.0 + 24.0 + 80.0 + 8.0 + 30.0) / 2.0 - 1.0);
        assert!(m < 100.0);
    }

    #[test]
    fn contention_raises_latency() {
        let p = two_node_problem();
        let together = p.mean_latency_ms(&Assignment::new(vec![0, 0]));
        let single_user_lat = p.latency_with_load_ms(0, 0, 1);
        assert!(p.latency_with_load_ms(0, 0, 2) > single_user_lat);
        // With only 2 users on 8 cores, sharing is still cheap enough
        // that both stay on the fast local node.
        assert!(together < p.mean_latency_ms(&Assignment::new(vec![0, 1])));
    }

    #[test]
    #[should_panic(expected = "rtt matrix row count")]
    fn wrong_rtt_shape_rejected() {
        let p = two_node_problem();
        let _ = AssignmentProblem::new(p.users.clone(), p.nodes.clone(), 20.0)
            .with_rtt_ms(vec![vec![1.0, 2.0]]);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_nodes_rejected() {
        let _ = AssignmentProblem::new(vec![], vec![], 20.0);
    }
}
