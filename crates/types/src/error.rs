//! The crate-family error type.

use std::fmt;

use crate::id::{NodeId, UserId};

/// Convenience alias used across the Armada crates.
pub type Result<T> = std::result::Result<T, ArmadaError>;

/// Errors surfaced by the Armada system.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ArmadaError {
    /// The referenced edge node is not registered (or no longer alive).
    UnknownNode(NodeId),
    /// The referenced user is not known to the component.
    UnknownUser(UserId),
    /// A `join` was rejected because the node's state changed since the
    /// client's last probe (sequence-number mismatch, Algorithm 1).
    JoinRejected {
        /// The node that rejected the join.
        node: NodeId,
        /// The stale sequence number the client presented.
        presented: u64,
        /// The node's current sequence number.
        current: u64,
    },
    /// The node (or the network path to it) failed mid-operation.
    NodeUnreachable(NodeId),
    /// The Central Manager could not produce any candidate for the user.
    NoCandidates(UserId),
    /// A probing request timed out.
    ProbeTimeout(NodeId),
    /// An invalid configuration value was supplied.
    InvalidConfig(String),
    /// A wire-protocol or I/O failure in the live runtime.
    Protocol(String),
}

impl fmt::Display for ArmadaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArmadaError::UnknownNode(id) => write!(f, "unknown edge node {id}"),
            ArmadaError::UnknownUser(id) => write!(f, "unknown user {id}"),
            ArmadaError::JoinRejected {
                node,
                presented,
                current,
            } => write!(
                f,
                "join rejected by {node}: presented seq {presented}, node is at seq {current}"
            ),
            ArmadaError::NodeUnreachable(id) => write!(f, "edge node {id} is unreachable"),
            ArmadaError::NoCandidates(u) => {
                write!(f, "no edge candidates available for {u}")
            }
            ArmadaError::ProbeTimeout(id) => write!(f, "probe to {id} timed out"),
            ArmadaError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            ArmadaError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for ArmadaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = ArmadaError::JoinRejected {
            node: NodeId::new(4),
            presented: 7,
            current: 9,
        };
        let msg = e.to_string();
        assert!(msg.contains("node-4"));
        assert!(msg.contains('7'));
        assert!(msg.contains('9'));
        assert!(msg.starts_with(char::is_lowercase));
    }

    #[test]
    fn error_is_send_sync_static() {
        fn assert_bounds<T: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<ArmadaError>();
    }

    #[test]
    fn errors_compare() {
        assert_eq!(
            ArmadaError::UnknownNode(NodeId::new(1)),
            ArmadaError::UnknownNode(NodeId::new(1))
        );
        assert_ne!(
            ArmadaError::UnknownNode(NodeId::new(1)),
            ArmadaError::NodeUnreachable(NodeId::new(1))
        );
    }
}
