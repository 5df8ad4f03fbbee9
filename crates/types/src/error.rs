//! The crate-family error type.

use std::fmt;

use crate::id::NodeId;

/// Convenience alias used across the Armada crates.
pub type Result<T> = std::result::Result<T, ArmadaError>;

/// Errors surfaced by the Armada system.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ArmadaError {
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
}

impl fmt::Display for ArmadaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArmadaError::JoinRejected {
                node,
                presented,
                current,
            } => write!(
                f,
                "join rejected by {node}: presented seq {presented}, node is at seq {current}"
            ),
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
        let rejected = |node, presented| ArmadaError::JoinRejected {
            node: NodeId::new(node),
            presented,
            current: 9,
        };
        assert_eq!(rejected(1, 7), rejected(1, 7));
        assert_ne!(rejected(1, 7), rejected(2, 7));
        assert_ne!(rejected(1, 7), rejected(1, 8));
    }
}
