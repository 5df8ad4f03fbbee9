//! Network endpoints and their addresses.

use std::fmt;

use armada_types::{AccessNetwork, Bandwidth, GeoPoint, NodeId, UserId};

/// The address of an entity attached to the network.
///
/// Users, edge nodes and the Central Manager all communicate over the same
/// substrate, so the network keys endpoints by this sum type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Addr {
    /// A client device.
    User(UserId),
    /// An edge node.
    Node(NodeId),
    /// The Central Manager.
    Manager,
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Addr::User(u) => write!(f, "{u}"),
            Addr::Node(n) => write!(f, "{n}"),
            Addr::Manager => f.write_str("manager"),
        }
    }
}

impl From<UserId> for Addr {
    fn from(u: UserId) -> Self {
        Addr::User(u)
    }
}

impl From<NodeId> for Addr {
    fn from(n: NodeId) -> Self {
        Addr::Node(n)
    }
}

/// The network-relevant description of one attached entity.
///
/// # Examples
///
/// ```
/// use armada_net::Endpoint;
/// use armada_types::{AccessNetwork, Bandwidth, GeoPoint};
///
/// let ep = Endpoint::new(GeoPoint::new(44.98, -93.26), AccessNetwork::HomeWifi)
///     .with_uplink(Bandwidth::from_megabits_per_sec(15.0))
///     .with_extra_one_way_ms(2.0);
/// assert_eq!(ep.uplink().as_megabits_per_sec(), 15.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Endpoint {
    point: GeoPoint,
    access: AccessNetwork,
    uplink: Bandwidth,
    downlink: Bandwidth,
    /// Extra fixed one-way delay, e.g. the intra-ISP peering penalty the
    /// paper observed when reaching AWS Local Zone from residential
    /// networks.
    extra_one_way_ms: f64,
}

impl Endpoint {
    /// Creates an endpoint with the access technology's default link
    /// capacities and no extra fixed delay.
    pub fn new(point: GeoPoint, access: AccessNetwork) -> Self {
        Endpoint {
            point,
            access,
            uplink: access.default_uplink(),
            downlink: access.default_downlink(),
            extra_one_way_ms: 0.0,
        }
    }

    /// Geographic position.
    pub fn point(&self) -> GeoPoint {
        self.point
    }

    /// Access technology.
    pub fn access(&self) -> AccessNetwork {
        self.access
    }

    /// Uplink capacity (endpoint → network).
    pub fn uplink(&self) -> Bandwidth {
        self.uplink
    }

    /// Downlink capacity (network → endpoint).
    pub fn downlink(&self) -> Bandwidth {
        self.downlink
    }

    /// Extra fixed one-way delay in milliseconds.
    pub fn extra_one_way_ms(&self) -> f64 {
        self.extra_one_way_ms
    }

    /// Replaces the uplink capacity.
    pub fn with_uplink(mut self, uplink: Bandwidth) -> Self {
        self.uplink = uplink;
        self
    }

    /// Adds a fixed one-way delay (clamped to be non-negative).
    pub fn with_extra_one_way_ms(mut self, ms: f64) -> Self {
        self.extra_one_way_ms = if ms.is_finite() { ms.max(0.0) } else { 0.0 };
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_conversions_and_display() {
        let a: Addr = UserId::new(3).into();
        assert_eq!(a, Addr::User(UserId::new(3)));
        assert_eq!(a.to_string(), "user-3");
        let b: Addr = NodeId::new(4).into();
        assert_eq!(b.to_string(), "node-4");
        assert_eq!(Addr::Manager.to_string(), "manager");
    }

    #[test]
    fn endpoint_defaults_follow_access_network() {
        let ep = Endpoint::new(GeoPoint::new(0.0, 0.0), AccessNetwork::Fiber);
        assert_eq!(ep.uplink(), AccessNetwork::Fiber.default_uplink());
        assert_eq!(ep.downlink(), AccessNetwork::Fiber.default_downlink());
        assert_eq!(ep.extra_one_way_ms(), 0.0);
    }

    #[test]
    fn builder_overrides_apply() {
        let ep = Endpoint::new(GeoPoint::new(0.0, 0.0), AccessNetwork::HomeWifi)
            .with_uplink(Bandwidth::from_megabits_per_sec(5.0))
            .with_extra_one_way_ms(4.0);
        assert_eq!(ep.uplink().as_megabits_per_sec(), 5.0);
        assert_eq!(ep.extra_one_way_ms(), 4.0);
    }

    #[test]
    fn negative_extra_delay_clamps() {
        let ep = Endpoint::new(GeoPoint::new(0.0, 0.0), AccessNetwork::Campus)
            .with_extra_one_way_ms(-3.0);
        assert_eq!(ep.extra_one_way_ms(), 0.0);
        let ep = ep.with_extra_one_way_ms(f64::NAN);
        assert_eq!(ep.extra_one_way_ms(), 0.0);
    }
}
