//! Access-network characteristics.
//!
//! The paper's model stresses that client-to-edge connectivity is shaped by
//! local ISP infrastructure and access technology rather than raw distance
//! alone. [`AccessNetwork`] captures the access-technology component; the
//! full latency model lives in `armada-net`.

use std::fmt;

use crate::data::Bandwidth;

/// The access technology through which an endpoint reaches the network.
///
/// Each variant carries calibrated defaults for first-hop latency overhead,
/// jitter scale and uplink bandwidth, matching the ranges observed in the
/// paper's Minneapolis–St. Paul measurement campaign (Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessNetwork {
    /// Residential Wi-Fi behind a cable/DSL ISP: moderate overhead,
    /// noticeable jitter.
    HomeWifi,
    /// Fibre-to-the-home: low overhead, low jitter.
    Fiber,
    /// University/enterprise campus network: very low overhead.
    Campus,
    /// Cellular LTE: high overhead and jitter.
    Lte,
    /// Inside a data centre (dedicated edge or cloud instances).
    DataCenter,
}

impl AccessNetwork {
    /// Fixed first-hop latency overhead added to each direction, in
    /// milliseconds.
    pub fn base_overhead_ms(self) -> f64 {
        match self {
            AccessNetwork::HomeWifi => 2.5,
            AccessNetwork::Fiber => 1.0,
            AccessNetwork::Campus => 0.5,
            AccessNetwork::Lte => 15.0,
            AccessNetwork::DataCenter => 0.2,
        }
    }

    /// Scale of the lognormal jitter component, in milliseconds.
    pub fn jitter_scale_ms(self) -> f64 {
        match self {
            AccessNetwork::HomeWifi => 1.2,
            AccessNetwork::Fiber => 0.4,
            AccessNetwork::Campus => 0.3,
            AccessNetwork::Lte => 6.0,
            AccessNetwork::DataCenter => 0.1,
        }
    }

    /// Typical uplink bandwidth for this access technology.
    pub fn default_uplink(self) -> Bandwidth {
        let mbps = match self {
            AccessNetwork::HomeWifi => 20.0,
            AccessNetwork::Fiber => 100.0,
            AccessNetwork::Campus => 200.0,
            AccessNetwork::Lte => 10.0,
            AccessNetwork::DataCenter => 1_000.0,
        };
        Bandwidth::from_megabits_per_sec(mbps)
    }

    /// Typical downlink bandwidth for this access technology.
    pub fn default_downlink(self) -> Bandwidth {
        let mbps = match self {
            AccessNetwork::HomeWifi => 100.0,
            AccessNetwork::Fiber => 300.0,
            AccessNetwork::Campus => 500.0,
            AccessNetwork::Lte => 50.0,
            AccessNetwork::DataCenter => 1_000.0,
        };
        Bandwidth::from_megabits_per_sec(mbps)
    }
}

impl fmt::Display for AccessNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AccessNetwork::HomeWifi => "home-wifi",
            AccessNetwork::Fiber => "fiber",
            AccessNetwork::Campus => "campus",
            AccessNetwork::Lte => "lte",
            AccessNetwork::DataCenter => "datacenter",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [AccessNetwork; 5] = [
        AccessNetwork::HomeWifi,
        AccessNetwork::Fiber,
        AccessNetwork::Campus,
        AccessNetwork::Lte,
        AccessNetwork::DataCenter,
    ];

    #[test]
    fn overheads_are_positive() {
        for net in ALL {
            assert!(net.base_overhead_ms() > 0.0, "{net}");
            assert!(net.jitter_scale_ms() > 0.0, "{net}");
        }
    }

    #[test]
    fn lte_is_worst_datacenter_best() {
        for net in ALL {
            assert!(net.base_overhead_ms() <= AccessNetwork::Lte.base_overhead_ms());
            assert!(net.base_overhead_ms() >= AccessNetwork::DataCenter.base_overhead_ms());
        }
    }

    #[test]
    fn downlink_at_least_uplink() {
        for net in ALL {
            assert!(net.default_downlink() >= net.default_uplink(), "{net}");
        }
    }
}
