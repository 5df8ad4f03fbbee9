//! The edge-selection strategies a scenario can run.

use std::collections::HashMap;

use armada_types::{ClientConfig, NodeId, SelectorMode, UserId};

/// Which selection approach drives user-to-edge assignment.
#[derive(Debug, Clone, PartialEq)]
pub enum Strategy {
    /// The paper's contribution: 2-step client-centric selection with
    /// performance probing, `GO`-based local selection, periodic
    /// re-probing and proactive multi-edge connections.
    ClientCentric {
        /// Client-side configuration (`TopN`, `T_probing`, policy…).
        config: ClientConfig,
        /// `true` keeps warm backup connections (the paper's approach);
        /// `false` models the *reactive* re-connect comparison of
        /// Figs. 4/10a, where every failure forces full re-discovery.
        proactive: bool,
    },
    /// Locality baseline: each user is statically assigned its
    /// geographically closest alive node.
    GeoProximity,
    /// Load-balancing baseline: weighted round robin by node capacity
    /// and current attachment count.
    ResourceAwareWrr,
    /// Fixed dedicated-edge infrastructure only (Local Zone stand-ins).
    DedicatedOnly,
    /// Everything offloads to the closest cloud region.
    ClosestCloud,
    /// A fixed user→node assignment, used to *simulate* the optimal
    /// static assignment of Fig. 7 under the same dynamics as every
    /// other strategy.
    Pinned {
        /// The assignment to enforce.
        map: HashMap<UserId, NodeId>,
    },
}

impl Strategy {
    /// The paper's default configuration: client-centric, proactive,
    /// `TopN = 3`, 10 s probing period, global-overhead policy.
    pub fn client_centric() -> Strategy {
        Strategy::ClientCentric {
            config: ClientConfig::default(),
            proactive: true,
        }
    }

    /// Client-centric with a custom client configuration.
    pub fn client_centric_with(config: ClientConfig) -> Strategy {
        Strategy::ClientCentric {
            config,
            proactive: true,
        }
    }

    /// Client-centric but with reactive (re-connect) failure handling.
    pub fn client_centric_reactive() -> Strategy {
        Strategy::ClientCentric {
            config: ClientConfig::default(),
            proactive: false,
        }
    }

    /// The client configuration in effect (defaults for baselines).
    pub fn client_config(&self) -> ClientConfig {
        match self {
            Strategy::ClientCentric { config, .. } => *config,
            _ => ClientConfig::default(),
        }
    }

    /// `true` for the client-centric strategy.
    pub fn is_client_centric(&self) -> bool {
        matches!(self, Strategy::ClientCentric { .. })
    }

    /// `true` when warm backups absorb failures.
    pub fn is_proactive(&self) -> bool {
        matches!(
            self,
            Strategy::ClientCentric {
                proactive: true,
                ..
            }
        )
    }

    /// Short name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::ClientCentric { config, .. }
                if config.selector == SelectorMode::Predictive =>
            {
                "client-centric-predictive"
            }
            Strategy::ClientCentric {
                proactive: true, ..
            } => "client-centric",
            Strategy::ClientCentric {
                proactive: false, ..
            } => "client-centric-reactive",
            Strategy::GeoProximity => "geo-proximity",
            Strategy::ResourceAwareWrr => "resource-aware-wrr",
            Strategy::DedicatedOnly => "dedicated-only",
            Strategy::ClosestCloud => "closest-cloud",
            Strategy::Pinned { .. } => "pinned",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn predictive() -> Strategy {
        Strategy::client_centric_with(
            ClientConfig::default().with_selector(SelectorMode::Predictive),
        )
    }

    #[test]
    fn constructors_set_flags() {
        assert!(Strategy::client_centric().is_proactive());
        assert!(!Strategy::client_centric_reactive().is_proactive());
        assert!(Strategy::client_centric().is_client_centric());
        assert!(!Strategy::GeoProximity.is_client_centric());
        assert!(predictive().is_proactive());
        assert_eq!(
            Strategy::client_centric().client_config().selector,
            SelectorMode::Reactive
        );
        assert_eq!(
            predictive().client_config().selector,
            SelectorMode::Predictive
        );
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            Strategy::client_centric().name(),
            Strategy::client_centric_reactive().name(),
            predictive().name(),
            Strategy::GeoProximity.name(),
            Strategy::ResourceAwareWrr.name(),
            Strategy::DedicatedOnly.name(),
            Strategy::ClosestCloud.name(),
        ];
        let mut dedup = names.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    fn custom_config_is_exposed() {
        let cfg = ClientConfig::default().with_top_n(5);
        let s = Strategy::client_centric_with(cfg);
        assert_eq!(s.client_config().top_n, 5);
    }
}
