//! Wire-visible probe and status payloads.

use armada_types::{GeoPoint, NodeClass, NodeId, SimDuration};
use armada_wire::WireNodeStatus;

/// The reply to a `Process_probe()` request (paper §IV-C2).
///
/// Carries everything Algorithm 2 needs: the cached what-if processing
/// delay, the node's join-synchronisation sequence number, and the
/// existing-workload information used by the global-overhead (`GO`)
/// selection policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeReply {
    /// The probed node.
    pub node: NodeId,
    /// Cached "what-if" processing delay for one additional user's frame.
    pub whatif_proc: SimDuration,
    /// Current measured processing delay experienced by the node's
    /// existing users (`D_proc_current`).
    pub current_proc: SimDuration,
    /// Number of users currently attached (`n` in the `GO` formula).
    pub attached_users: usize,
    /// The node's current sequence number; must be echoed in `Join()`.
    pub seq_num: u64,
}

/// Periodic node → manager heartbeat payload, feeding global edge
/// selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeStatus {
    /// Reporting node.
    pub node: NodeId,
    /// Volunteer / dedicated / cloud.
    pub class: NodeClass,
    /// Node position (for the geo-proximity filter).
    pub location: GeoPoint,
    /// Attached user count.
    pub attached_users: usize,
    /// Offered-load estimate in `[0, ∞)`: attached work per core-second.
    /// The manager's resource-availability sorter prefers lower values.
    pub load_score: f64,
}

impl From<NodeStatus> for WireNodeStatus {
    fn from(status: NodeStatus) -> Self {
        WireNodeStatus {
            id: status.node.as_u64(),
            class: status.class,
            location: status.location,
            attached_users: status.attached_users,
            load_score: status.load_score,
        }
    }
}

impl From<&WireNodeStatus> for NodeStatus {
    fn from(wire: &WireNodeStatus) -> Self {
        NodeStatus {
            node: NodeId::new(wire.id),
            class: wire.class,
            location: wire.location,
            attached_users: wire.attached_users,
            load_score: wire.load_score,
        }
    }
}
