//! Strongly-typed identifiers for system entities.

use std::fmt;

/// Identifier of an edge node (volunteer, dedicated or cloud).
///
/// Newtype over `u64` so node and user identifiers can never be confused
/// at compile time.
///
/// # Examples
///
/// ```
/// use armada_types::NodeId;
///
/// let id = NodeId::new(3);
/// assert_eq!(id.as_u64(), 3);
/// assert_eq!(id.to_string(), "node-3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(u64);

impl NodeId {
    /// Creates a node identifier from its raw integer value.
    pub const fn new(raw: u64) -> Self {
        NodeId(raw)
    }

    /// Returns the raw integer value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node-{}", self.0)
    }
}

impl From<u64> for NodeId {
    fn from(raw: u64) -> Self {
        NodeId(raw)
    }
}

/// Identifier of an application user (client device).
///
/// # Examples
///
/// ```
/// use armada_types::UserId;
///
/// let id = UserId::new(12);
/// assert_eq!(id.to_string(), "user-12");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct UserId(u64);

impl UserId {
    /// Creates a user identifier from its raw integer value.
    pub const fn new(raw: u64) -> Self {
        UserId(raw)
    }

    /// Returns the raw integer value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "user-{}", self.0)
    }
}

impl From<u64> for UserId {
    fn from(raw: u64) -> Self {
        UserId(raw)
    }
}

/// Identifier of a manager shard in a geo-federated control plane.
///
/// Shards partition the world by geohash prefix; every node and user
/// has a *home shard* derived from its location.
///
/// # Examples
///
/// ```
/// use armada_types::ShardId;
///
/// let id = ShardId::new(2);
/// assert_eq!(id.as_u64(), 2);
/// assert_eq!(id.to_string(), "shard-2");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ShardId(u64);

impl ShardId {
    /// Creates a shard identifier from its raw integer value.
    pub const fn new(raw: u64) -> Self {
        ShardId(raw)
    }

    /// Returns the raw integer value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard-{}", self.0)
    }
}

impl From<u64> for ShardId {
    fn from(raw: u64) -> Self {
        ShardId(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let id = NodeId::new(42);
        assert_eq!(id.as_u64(), 42);
        assert_eq!(NodeId::from(42u64), id);
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId::new(1).to_string(), "node-1");
        assert_eq!(UserId::new(9).to_string(), "user-9");
        assert_eq!(ShardId::new(4).to_string(), "shard-4");
    }

    #[test]
    fn ids_are_ordered_by_raw_value() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert!(UserId::new(10) > UserId::new(2));
    }

    #[test]
    fn ids_usable_as_map_keys() {
        use std::collections::HashMap;
        let mut m = HashMap::new();
        m.insert(UserId::new(1), "a");
        m.insert(UserId::new(2), "b");
        assert_eq!(m[&UserId::new(2)], "b");
    }
}
