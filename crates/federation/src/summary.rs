//! Compact node summaries exchanged between shards.

use armada_node::NodeStatus;
use armada_types::{ShardId, SimTime};

/// One node's state as advertised to peer shards: the latest status
/// payload plus enough liveness context for a *remote* shard to apply
/// the same heartbeat-deadline rule the home shard applies locally.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSummary {
    /// The node's most recent heartbeat payload.
    pub status: NodeStatus,
    /// The shard that owns this node's registration.
    pub home: ShardId,
    /// When the home shard last heard from the node (virtual time).
    pub last_heartbeat: SimTime,
}

/// One shard's push to a peer: every record it owns, each with the
/// time it was last heard — what a live manager ships every period.
///
/// Nothing is cut off and nothing is retracted: a record that stopped
/// heartbeating ages out at the receiver by the same deadline it ages
/// out at home, and a push that is lost is healed by the next one.
#[derive(Debug, Clone, PartialEq)]
pub struct SyncDelta {
    /// The sending shard.
    pub from: ShardId,
    /// The sender's own nodes, sorted by id.
    pub updated: Vec<NodeSummary>,
}
