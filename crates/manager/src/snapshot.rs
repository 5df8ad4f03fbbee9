//! Epoch-numbered, incrementally-maintained discovery snapshots.
//!
//! A [`DiscoverySnapshot`] freezes everything a discovery query reads —
//! the merged registry (own and peer-advertised records), the proximity
//! index, the config and ranking policy — behind shared [`Arc`]s. Both
//! the registry ([`RegistryView`]) and the proximity index are
//! *sharded* copy-on-write structures, so taking a snapshot is
//! O(shards) reference bumps and a mutation performed while a snapshot
//! is outstanding copies only the one shard/segment it touches —
//! publishing epoch `N+1` costs O(changes), never O(fleet). Queries served off a snapshot therefore never
//! contend with heartbeat writes: a live manager can clone the `Arc`s
//! under its lock, drop the lock, and rank outside it (or share the
//! snapshot among worker threads: it is immutable).
//!
//! The `epoch` identifies which registry state the snapshot froze: the
//! manager bumps it on every mutation, so two snapshots with equal
//! epochs are views of identical state and must answer identically.

use std::sync::Arc;

use armada_geo::ProximityIndex;
use armada_node::NodeStatus;
use armada_types::{GeoPoint, NodeId, SimTime, SystemConfig};

use crate::discovery::{self, Engine};
use crate::registry::{NodeRecord, RegistryView};
use crate::selection::{GlobalSelectionPolicy, ScoredCandidate};

/// An immutable, epoch-numbered view of one manager's discovery state.
///
/// Produced by [`CentralManager::snapshot`](crate::CentralManager::snapshot)
/// — for a standalone manager and for a federated shard alike.
/// All query methods are `&self` and the view is immutable, so
/// snapshots can be fanned out across threads. A query allocates its
/// result; the flat pass nothing else, the ring scan its pending pool,
/// emitted list and seen-set as well.
#[derive(Debug, Clone)]
pub struct DiscoverySnapshot {
    pub(crate) epoch: u64,
    pub(crate) config: SystemConfig,
    pub(crate) policy: GlobalSelectionPolicy,
    pub(crate) records: RegistryView,
    pub(crate) index: Arc<ProximityIndex>,
}

impl DiscoverySnapshot {
    /// The registry mutation epoch this snapshot froze.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Total records in the frozen view, alive or not.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` if the frozen view holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The node's status iff it is alive at `now`:
    /// [`NodeRegistry::alive_status`](crate::NodeRegistry::alive_status)
    /// evaluated on the frozen records.
    pub fn alive_status(&self, node: NodeId, now: SimTime) -> Option<NodeStatus> {
        self.records.alive_status(node, now)
    }

    /// `true` iff `node` is alive in the frozen view at `now`.
    pub fn is_alive(&self, node: NodeId, now: SimTime) -> bool {
        self.alive_status(node, now).is_some()
    }

    /// The frozen record for `node`, if present (regardless of
    /// liveness). Exposed so differential suites can compare snapshots
    /// record by record.
    pub fn record(&self, node: NodeId) -> Option<&NodeRecord> {
        self.records.record(node)
    }

    /// Iterates every frozen `(id, record)` pair in unspecified order.
    pub fn records(&self) -> impl Iterator<Item = (NodeId, &NodeRecord)> {
        self.records.records()
    }

    /// Number of alive nodes in the frozen view at `now`. O(records);
    /// the fast query path never needs it — it exists for diagnostics
    /// and for feeding the reference oracle.
    pub fn alive_count(&self, now: SimTime) -> usize {
        self.records.alive_count(now)
    }

    /// Serves one discovery query off the frozen view with the
    /// generator [`DiscoverySnapshot::engine`] picks. Returns up to
    /// `top_n` scored candidates, best first.
    pub fn ranked(
        &self,
        user_loc: GeoPoint,
        affiliations: &[NodeId],
        top_n: usize,
        now: SimTime,
    ) -> Vec<ScoredCandidate> {
        match self.engine(user_loc) {
            Engine::Flat => discovery::flat_shortlist(
                self.config.proximity_radius_km,
                &self.policy,
                &self.records,
                now,
                user_loc,
                affiliations,
                top_n,
            ),
            Engine::Ring => discovery::ring_shortlist(
                self.config.proximity_radius_km,
                &self.policy,
                &self.index,
                |id| self.alive_status(id, now),
                user_loc,
                affiliations,
                top_n,
            ),
        }
    }

    /// The candidate generator a query at `user_loc` is served by: the
    /// flat pass where the starting disk holds a large share of the
    /// frozen fleet, the ring scan elsewhere. Both answer alike.
    pub fn engine(&self, user_loc: GeoPoint) -> Engine {
        discovery::engine_for(&self.index, self.config.proximity_radius_km, user_loc)
    }

    /// Like [`DiscoverySnapshot::ranked`] but returns node ids only —
    /// the candidate edge list handed to clients.
    pub fn discover(
        &self,
        user_loc: GeoPoint,
        affiliations: &[NodeId],
        top_n: usize,
        now: SimTime,
    ) -> Vec<NodeId> {
        self.ranked(user_loc, affiliations, top_n, now)
            .into_iter()
            .map(|c| c.node)
            .collect()
    }

    /// The same query answered by the retained reference oracle
    /// ([`crate::reference::widen_and_rank`]) on the *same* frozen view.
    /// Exists so differential tests can assert byte-identity without
    /// re-building state.
    pub fn reference_ranked(
        &self,
        user_loc: GeoPoint,
        affiliations: &[NodeId],
        top_n: usize,
        now: SimTime,
    ) -> Vec<ScoredCandidate> {
        crate::reference::widen_and_rank(
            &self.config,
            &self.policy,
            &self.index,
            self.alive_count(now),
            |id| self.alive_status(id, now),
            user_loc,
            affiliations,
            top_n,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CentralManager, GlobalSelectionPolicy};
    use armada_types::NodeClass;

    fn status(id: u64, loc: GeoPoint, load: f64) -> NodeStatus {
        NodeStatus {
            node: NodeId::new(id),
            class: NodeClass::Volunteer,
            location: loc,
            attached_users: 0,
            load_score: load,
        }
    }

    fn home() -> GeoPoint {
        GeoPoint::new(44.98, -93.26)
    }

    #[test]
    fn snapshot_answers_match_the_live_manager() {
        let mut mgr =
            CentralManager::new(SystemConfig::default(), GlobalSelectionPolicy::default());
        for i in 0..20u64 {
            mgr.register(
                status(i, home().offset_km(i as f64 * 5.0, 0.0), 0.1 * i as f64),
                SimTime::ZERO,
            );
        }
        let snap = mgr.snapshot();
        let now = SimTime::from_secs(1);
        assert_eq!(
            snap.ranked(home(), &[], 5, now),
            mgr.ranked_candidates(home(), &[], 5, now)
        );
        assert_eq!(snap.alive_count(now), mgr.alive_count(now));
    }

    #[test]
    fn snapshot_is_frozen_while_the_manager_moves_on() {
        let mut mgr =
            CentralManager::new(SystemConfig::default(), GlobalSelectionPolicy::default());
        mgr.register(status(1, home().offset_km(1.0, 0.0), 0.0), SimTime::ZERO);
        let snap = mgr.snapshot();
        let epoch_before = snap.epoch();
        mgr.register(status(2, home().offset_km(2.0, 0.0), 0.0), SimTime::ZERO);
        mgr.node_left(NodeId::new(1));
        // The snapshot still sees the old world…
        assert_eq!(
            snap.discover(home(), &[], 5, SimTime::ZERO),
            vec![NodeId::new(1)]
        );
        // …and the new snapshot sees the new one, at a later epoch.
        let snap2 = mgr.snapshot();
        assert!(snap2.epoch() > epoch_before);
        assert_eq!(
            snap2.discover(home(), &[], 5, SimTime::ZERO),
            vec![NodeId::new(2)]
        );
    }

    /// Satellite bugfix regression: near `SimTime::ZERO` the liveness
    /// deadline `now - budget` saturates; snapshot queries must match
    /// `NodeRegistry::is_alive` exactly at `now == 0`, `now == budget`
    /// and `now == budget + 1µs`.
    #[test]
    fn early_clock_liveness_matches_registry_at_the_boundaries() {
        let mut mgr =
            CentralManager::new(SystemConfig::default(), GlobalSelectionPolicy::default());
        mgr.register(status(1, home(), 0.0), SimTime::ZERO);
        let snap = mgr.snapshot();
        let budget = SystemConfig::default().heartbeat_period
            * u64::from(SystemConfig::default().heartbeat_miss_limit);
        let probes = [
            SimTime::ZERO,
            SimTime::ZERO + budget,
            SimTime::ZERO + budget + armada_types::SimDuration::from_micros(1),
        ];
        for now in probes {
            assert_eq!(
                snap.is_alive(NodeId::new(1), now),
                mgr.is_alive(NodeId::new(1), now),
                "snapshot and registry disagree at {now}"
            );
            assert_eq!(
                snap.alive_count(now),
                usize::from(mgr.is_alive(NodeId::new(1), now))
            );
        }
        // The node registered at t=0 must be alive at t=0 and exactly
        // at the budget, and dead one microsecond past it.
        assert!(snap.is_alive(NodeId::new(1), probes[0]));
        assert!(snap.is_alive(NodeId::new(1), probes[1]));
        assert!(!snap.is_alive(NodeId::new(1), probes[2]));
    }

    #[test]
    fn reference_ranked_agrees_on_the_same_view() {
        let mut mgr =
            CentralManager::new(SystemConfig::default(), GlobalSelectionPolicy::default());
        for i in 0..40u64 {
            mgr.register(
                status(i, home().offset_km((i as f64 * 31.0) % 700.0, 0.0), 0.0),
                SimTime::ZERO,
            );
        }
        // Half the fleet goes silent.
        let later = SimTime::from_secs(30);
        for i in 0..40u64 {
            if i % 2 == 0 {
                mgr.heartbeat(
                    status(i, home().offset_km((i as f64 * 31.0) % 700.0, 0.0), 0.0),
                    later,
                );
            }
        }
        let snap = mgr.snapshot();
        for top_n in [0usize, 1, 7, 20, 27] {
            assert_eq!(
                snap.ranked(home(), &[], top_n, later),
                snap.reference_ranked(home(), &[], top_n, later),
                "top_n={top_n}"
            );
        }
    }
}
