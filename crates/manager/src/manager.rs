//! The Central Manager facade.

use std::sync::Arc;

use armada_geo::ProximityIndex;
use armada_node::NodeStatus;
use armada_types::{GeoPoint, NodeId, SimTime, SystemConfig};

use crate::registry::{NodeRegistry, Pruned};
use crate::selection::{GlobalSelectionPolicy, ScoredCandidate};
use crate::snapshot::DiscoverySnapshot;

/// The Central Manager: registry + proximity index + global selection.
///
/// The registry is the merged one — a standalone manager simply never
/// hears from a peer, while a federated shard feeds it the records its
/// peers advertise ([`CentralManager::apply_peer`]); the proximity
/// index covers both.
///
/// Discovery is served off epoch-numbered, incrementally-maintained
/// snapshots ([`CentralManager::snapshot`]): the registry's record
/// table and the proximity index are both *sharded* copy-on-write
/// structures, so freezing a consistent view is O(shards) refcount
/// bumps and a mutation performed while snapshots are outstanding
/// copies only the shard/segment it touches — publishing epoch `N+1`
/// costs O(changes), never O(fleet).
///
/// [`CentralManager::published`] memoises the snapshot per epoch, so
/// steady-state query traffic between mutations shares one frozen
/// view (which any number of threads can also serve concurrently: it
/// is immutable).
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug, Clone)]
pub struct CentralManager {
    config: SystemConfig,
    policy: GlobalSelectionPolicy,
    registry: NodeRegistry,
    index: Arc<ProximityIndex>,
    /// Bumped on every registry/index mutation; snapshots carry the
    /// epoch they froze, so equal epochs mean identical views.
    epoch: u64,
    /// The memoised published snapshot; valid while its epoch matches.
    published: Option<Arc<DiscoverySnapshot>>,
}

impl CentralManager {
    /// Creates a manager with the given environment configuration and
    /// ranking policy.
    pub fn new(config: SystemConfig, policy: GlobalSelectionPolicy) -> Self {
        CentralManager {
            config,
            policy,
            registry: NodeRegistry::new(config.heartbeat_period, config.heartbeat_miss_limit),
            index: Arc::new(ProximityIndex::for_radius(config.proximity_radius_km)),
            epoch: 0,
            published: None,
        }
    }

    /// The environment configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The current registry mutation epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Read access to the merged registry.
    pub fn registry(&self) -> &NodeRegistry {
        &self.registry
    }

    /// Registers a node (or refreshes it after downtime).
    pub fn register(&mut self, status: NodeStatus, now: SimTime) {
        self.epoch += 1;
        Arc::make_mut(&mut self.index).insert(status.node, status.location);
        self.registry.register(status, now);
    }

    /// Records a periodic status heartbeat. Unknown senders are treated
    /// as (re-)registrations — a volunteer that silently died and came
    /// back should not be locked out.
    pub fn heartbeat(&mut self, status: NodeStatus, now: SimTime) {
        if !self.registry.heartbeat(status, now) {
            self.register(status, now);
        } else {
            self.epoch += 1;
            self.index_position(status);
        }
    }

    /// Handles a graceful departure notification from an own node.
    pub fn node_left(&mut self, node: NodeId) {
        self.epoch += 1;
        if self.registry.deregister(node).is_some() {
            Arc::make_mut(&mut self.index).remove(node);
        }
    }

    /// Records what a peer manager advertised about one of its nodes;
    /// returns `false` (and changes nothing) if this manager owns the
    /// node — its own registry is authoritative.
    pub fn apply_peer(&mut self, status: NodeStatus, last_heartbeat: SimTime) -> bool {
        let applied = self.registry.apply_peer(status, last_heartbeat);
        if applied {
            self.epoch += 1;
            self.index_position(status);
        }
        applied
    }

    /// Keeps the spatial index in sync with a (possibly mobile) node —
    /// but a report from where the node already is (the overwhelmingly
    /// common case) must not touch the index at all: writing it would
    /// clone index shards pointlessly whenever a snapshot is
    /// outstanding.
    fn index_position(&mut self, status: NodeStatus) {
        if self.index.position(status.node) != Some(status.location) {
            Arc::make_mut(&mut self.index).insert(status.node, status.location);
        }
    }

    /// Freezes the current discovery state into an epoch-numbered
    /// copy-on-write snapshot. O(shards) reference bumps; the manager
    /// stays fully mutable and later writes never show through the
    /// snapshot.
    pub fn snapshot(&self) -> DiscoverySnapshot {
        DiscoverySnapshot {
            epoch: self.epoch,
            config: self.config,
            policy: self.policy,
            records: self.registry.view(),
            index: Arc::clone(&self.index),
        }
    }

    /// The published snapshot for the current epoch, memoised: repeated
    /// calls between mutations return the *same* `Arc` (one refcount
    /// bump each), and the first call after a mutation publishes a
    /// fresh snapshot at O(shards) cost. This is the serve path —
    /// query traffic reads the published snapshot while mutations
    /// proceed against the live structures.
    pub fn published(&mut self) -> Arc<DiscoverySnapshot> {
        match &self.published {
            Some(snap) if snap.epoch() == self.epoch => Arc::clone(snap),
            _ => {
                let snap = Arc::new(self.snapshot());
                self.published = Some(Arc::clone(&snap));
                snap
            }
        }
    }

    /// Number of nodes alive at `now`, own and peer-advertised.
    pub fn alive_count(&self, now: SimTime) -> usize {
        self.registry.alive_count(now)
    }

    /// `true` if `node` is currently considered alive.
    pub fn is_alive(&self, node: NodeId, now: SimTime) -> bool {
        self.registry.is_alive(node, now)
    }

    /// Housekeeping: drops registry records (and spatial-index entries)
    /// for nodes dead longer than `grace`, own and peer-advertised,
    /// returning what it dropped. Volunteers that reappear simply
    /// re-register via heartbeat; a peer's node reappears with its next
    /// advertisement.
    pub fn prune_dead(&mut self, now: SimTime, grace: armada_types::SimDuration) -> Pruned {
        let pruned = self.registry.prune(now, grace);
        if !pruned.is_empty() {
            self.epoch += 1;
            let index = Arc::make_mut(&mut self.index);
            for id in pruned.ids() {
                index.remove(id);
            }
        }
        pruned
    }

    /// Total nodes in the registry, alive or not (housekeeping metric).
    pub fn registered_count(&self) -> usize {
        self.registry.len()
    }

    /// Serves an edge-discovery query: the first, global step of the
    /// 2-step selection. Returns up to `top_n` candidate node ids, best
    /// first.
    ///
    /// The geo-proximity filter starts at the configured radius and
    /// widens until at least `top_n` alive candidates are inside (or all
    /// alive nodes are), after which the ranking policy orders them.
    pub fn discover(
        &mut self,
        user_loc: GeoPoint,
        affiliations: &[NodeId],
        top_n: usize,
        now: SimTime,
    ) -> Vec<NodeId> {
        // Served off the memoised published snapshot: identical answers
        // to the live structures (same records, same index, same
        // liveness rule), but queries between mutations share one
        // frozen view and can be fanned out across threads.
        self.published()
            .discover(user_loc, affiliations, top_n, now)
    }

    /// Like [`CentralManager::discover`] but returns scores, for
    /// diagnostics and tests (it freezes a snapshot of its own per call).
    pub fn ranked_candidates(
        &self,
        user_loc: GeoPoint,
        affiliations: &[NodeId],
        top_n: usize,
        now: SimTime,
    ) -> Vec<ScoredCandidate> {
        self.snapshot().ranked(user_loc, affiliations, top_n, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn manager_with_nodes(n: u64) -> CentralManager {
        let mut mgr =
            CentralManager::new(SystemConfig::default(), GlobalSelectionPolicy::default());
        for i in 0..n {
            mgr.register(
                status(i, home().offset_km(i as f64 * 4.0, 0.0), 0.0),
                SimTime::ZERO,
            );
        }
        mgr
    }

    #[test]
    fn discover_returns_top_n_nearest_first() {
        let mut mgr = manager_with_nodes(6);
        let got = mgr.discover(home(), &[], 3, SimTime::ZERO);
        assert_eq!(got, vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)]);
    }

    #[test]
    fn discover_skips_dead_nodes() {
        let mut mgr = manager_with_nodes(3);
        // Node 0 stops heartbeating; others stay fresh.
        let late = SimTime::from_secs(30);
        for i in 1..3 {
            mgr.heartbeat(status(i, home().offset_km(i as f64 * 4.0, 0.0), 0.0), late);
        }
        let got = mgr.discover(home(), &[], 3, late);
        assert_eq!(got, vec![NodeId::new(1), NodeId::new(2)]);
    }

    #[test]
    fn discover_widens_to_remote_nodes_as_last_resort() {
        let mut mgr =
            CentralManager::new(SystemConfig::default(), GlobalSelectionPolicy::default());
        // One local node, two far outside the 80 km radius.
        mgr.register(status(0, home().offset_km(3.0, 0.0), 0.0), SimTime::ZERO);
        mgr.register(status(1, home().offset_km(400.0, 0.0), 0.0), SimTime::ZERO);
        mgr.register(status(2, home().offset_km(900.0, 0.0), 0.0), SimTime::ZERO);
        let got = mgr.discover(home(), &[], 3, SimTime::ZERO);
        assert_eq!(got.len(), 3, "widening must reach the remote nodes");
        assert_eq!(got[0], NodeId::new(0));
    }

    #[test]
    fn heartbeat_from_unknown_node_re_registers() {
        let mut mgr = manager_with_nodes(0);
        mgr.heartbeat(status(7, home(), 0.0), SimTime::from_secs(5));
        assert!(mgr.is_alive(NodeId::new(7), SimTime::from_secs(5)));
    }

    #[test]
    fn node_left_disappears_immediately() {
        let mut mgr = manager_with_nodes(2);
        mgr.node_left(NodeId::new(0));
        let got = mgr.discover(home(), &[], 2, SimTime::ZERO);
        assert_eq!(got, vec![NodeId::new(1)]);
        assert_eq!(mgr.alive_count(SimTime::ZERO), 1);
    }

    #[test]
    fn loaded_nodes_rank_below_idle_ones() {
        let mut mgr =
            CentralManager::new(SystemConfig::default(), GlobalSelectionPolicy::default());
        mgr.register(status(0, home().offset_km(1.0, 0.0), 3.0), SimTime::ZERO);
        mgr.register(status(1, home().offset_km(6.0, 0.0), 0.0), SimTime::ZERO);
        let got = mgr.discover(home(), &[], 2, SimTime::ZERO);
        assert_eq!(
            got[0],
            NodeId::new(1),
            "idle node outranks the loaded closer one"
        );
    }

    #[test]
    fn zero_top_n_yields_nothing() {
        let mut mgr = manager_with_nodes(3);
        assert!(mgr.discover(home(), &[], 0, SimTime::ZERO).is_empty());
    }

    #[test]
    fn empty_system_yields_nothing() {
        let mut mgr = manager_with_nodes(0);
        assert!(mgr.discover(home(), &[], 3, SimTime::ZERO).is_empty());
    }

    #[test]
    fn prune_dead_clears_registry_and_index() {
        let mut mgr = manager_with_nodes(2);
        // Node 0 silent; node 1 keeps heartbeating.
        let late = SimTime::from_secs(60);
        mgr.heartbeat(status(1, home().offset_km(4.0, 0.0), 0.0), late);
        let pruned = mgr.prune_dead(late, armada_types::SimDuration::from_secs(10));
        assert_eq!(pruned.own, vec![NodeId::new(0)]);
        assert_eq!(mgr.registered_count(), 1);
        // A pruned node that comes back simply re-registers.
        mgr.heartbeat(status(0, home(), 0.0), late);
        assert_eq!(mgr.registered_count(), 2);
    }

    /// Satellite bugfix regression: a heartbeat from a node that did
    /// not move must leave the proximity-index `Arc` untouched — the
    /// old code called `Arc::make_mut(..).insert(..)` unconditionally,
    /// cloning index state per heartbeat whenever a snapshot was
    /// outstanding.
    #[test]
    fn stationary_heartbeat_leaves_index_arc_untouched() {
        let mut mgr = manager_with_nodes(3);
        let snap = mgr.snapshot(); // keep a snapshot outstanding
        let before = Arc::clone(&mgr.index);
        let epoch_before = mgr.epoch();
        // Same location node 1 registered with; only load changes.
        mgr.heartbeat(
            status(1, home().offset_km(4.0, 0.0), 0.7),
            SimTime::from_secs(1),
        );
        assert!(
            Arc::ptr_eq(&before, &mgr.index),
            "no-move heartbeat must not write the index"
        );
        assert_eq!(mgr.epoch(), epoch_before + 1, "epoch still advances");
        // The registry update went through regardless.
        assert!(mgr.is_alive(NodeId::new(1), SimTime::from_secs(1)));
        // A moving heartbeat does replace the Arc…
        mgr.heartbeat(
            status(1, home().offset_km(90.0, 0.0), 0.7),
            SimTime::from_secs(2),
        );
        assert!(!Arc::ptr_eq(&before, &mgr.index), "moves must be indexed");
        // …and the old snapshot still sees the old world.
        assert_eq!(snap.len(), 3);
    }

    /// The publish path: repeated `published()` calls between mutations
    /// return the same snapshot (no rebuild), and a mutation triggers
    /// exactly one fresh publish at the next call.
    #[test]
    fn published_snapshot_is_memoised_per_epoch() {
        let mut mgr = manager_with_nodes(4);
        let a = mgr.published();
        let b = mgr.published();
        assert!(Arc::ptr_eq(&a, &b), "same epoch must reuse the snapshot");
        mgr.heartbeat(status(0, home(), 0.3), SimTime::from_secs(1));
        let c = mgr.published();
        assert!(!Arc::ptr_eq(&a, &c), "mutation must republish");
        assert!(c.epoch() > a.epoch());
        // And discover() serves off the same memoised snapshot.
        let got = mgr.discover(home(), &[], 2, SimTime::from_secs(1));
        assert_eq!(got, c.discover(home(), &[], 2, SimTime::from_secs(1)));
    }

    #[test]
    fn moving_node_updates_index_via_heartbeat() {
        let mut mgr = manager_with_nodes(2);
        // Node 1 moves far away; node 0 stays. Rediscover: node 0 first.
        mgr.heartbeat(
            status(1, home().offset_km(500.0, 0.0), 0.0),
            SimTime::from_secs(1),
        );
        mgr.heartbeat(status(0, home(), 0.0), SimTime::from_secs(1));
        let ranked = mgr.ranked_candidates(home(), &[], 2, SimTime::from_secs(1));
        assert_eq!(ranked[0].node, NodeId::new(0));
        assert!(ranked[1].distance_km > 400.0);
    }
}
