//! The Central Manager facade.

use std::sync::Arc;

use armada_geo::ProximityIndex;
use armada_node::NodeStatus;
use armada_types::{GeoPoint, NodeId, SimDuration, SimTime, SystemConfig};

use crate::registry::{NodeRecord, NodeRegistry, Pruned};
use crate::selection::{GlobalSelectionPolicy, ScoredCandidate};
use crate::snapshot::DiscoverySnapshot;

/// `true` for a load an honest node can report (`users·fps / capacity`,
/// in `[0, ∞)`). A negative load would head every shortlist and a NaN
/// unorders the ranking, so the manager takes no status that fails it.
pub fn admissible_load(load: f64) -> bool {
    (0.0..f64::INFINITY).contains(&load)
}

/// Per-manager operation counters — the registry-load surface the
/// federation tests read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardCounters {
    /// Registrations accepted (own nodes).
    pub registrations: u64,
    /// Heartbeats accepted (own nodes).
    pub heartbeats: u64,
    /// Discovery queries served (home or failover traffic).
    pub discoveries: u64,
    /// Sync rounds this manager participated in.
    pub sync_rounds: u64,
    /// Summaries sent to peers across all rounds.
    pub summaries_sent: u64,
    /// Summaries applied from peers across all rounds.
    pub summaries_applied: u64,
}

impl ShardCounters {
    /// Registration-tier operations handled by this manager (everything
    /// that touches its authoritative registry).
    pub fn registry_ops(&self) -> u64 {
        self.registrations + self.heartbeats
    }
}

/// The Central Manager: registry + proximity index + global selection.
///
/// It is the one manager role, standalone or one shard of a
/// federation. The registry is the merged one — a standalone manager
/// simply never hears from a peer, while a federated shard pushes its
/// own records ([`CentralManager::own_summaries`]) and takes the ones
/// its peers advertise ([`CentralManager::apply_peer`]); the proximity
/// index covers both.
///
/// Discovery is served off epoch-numbered, incrementally-maintained
/// snapshots ([`CentralManager::snapshot`]): the registry's record
/// tables and the proximity index are *sharded* copy-on-write
/// structures, each behind one `Arc`, so freezing a consistent view is
/// a few reference bumps and a mutation performed while snapshots are
/// outstanding copies only the shard/segment it touches — publishing
/// epoch `N+1` costs O(changes), never O(fleet).
///
/// [`CentralManager::published`] memoises the snapshot per epoch, so
/// steady-state query traffic between mutations shares one frozen
/// view (which any number of threads can also serve concurrently: it
/// is immutable). Every write first lets go of the memoised snapshot,
/// so a write with no query holding one copies nothing.
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
    counters: ShardCounters,
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
            counters: ShardCounters::default(),
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

    /// Operation counters.
    pub fn counters(&self) -> ShardCounters {
        self.counters
    }

    /// Registers a node (or refreshes it after downtime); returns
    /// `false` (and changes nothing) if its load is not
    /// [admissible](admissible_load). A node has one home: the
    /// registration supersedes any peer's record of it.
    pub fn register(&mut self, status: NodeStatus, now: SimTime) -> bool {
        if !admissible_load(status.load_score) {
            return false;
        }
        self.counters.registrations += 1;
        self.epoch += 1;
        self.index_mut().insert(status.node, status.location);
        self.registry_mut().register(status, now);
        true
    }

    /// Records a periodic status heartbeat; returns `false` (and changes
    /// nothing) if the sender is not registered here or its load is not
    /// [admissible](admissible_load). A refused sender must register.
    pub fn heartbeat(&mut self, status: NodeStatus, now: SimTime) -> bool {
        if !admissible_load(status.load_score) || !self.registry_mut().heartbeat(status, now) {
            return false;
        }
        self.counters.heartbeats += 1;
        self.epoch += 1;
        self.index_position(status);
        true
    }

    /// Handles a graceful departure notification from an own node.
    pub fn node_left(&mut self, node: NodeId) {
        self.epoch += 1;
        if self.registry_mut().deregister(node).is_some() {
            self.index_mut().remove(node);
        }
    }

    /// Records what a peer manager advertised about one of its nodes;
    /// returns `false` (and changes nothing) if this manager owns the
    /// node — its own registry is authoritative — or the load is not
    /// [admissible](admissible_load).
    pub fn apply_peer(&mut self, status: NodeStatus, last_heartbeat: SimTime) -> bool {
        let applied = admissible_load(status.load_score)
            && self.registry_mut().apply_peer(status, last_heartbeat);
        if applied {
            self.counters.summaries_applied += 1;
            self.epoch += 1;
            self.index_position(status);
        }
        applied
    }

    /// This round's push to the peers: every own record, alive or not,
    /// sorted by id, each with the time it was last heard. Nothing is
    /// retracted — a silent record ages out at the receiver by the
    /// deadline it ages out by here, and a lost push is healed by the
    /// next.
    pub fn own_summaries(&mut self) -> Vec<NodeRecord> {
        let mut push: Vec<NodeRecord> = self.registry.own_records().copied().collect();
        push.sort_by_key(|r| r.status.node);
        self.counters.summaries_sent += push.len() as u64;
        push
    }

    /// Notes participation in one sync round.
    pub fn note_sync_round(&mut self) {
        self.counters.sync_rounds += 1;
    }

    /// Keeps the spatial index in sync with a (possibly mobile) node —
    /// but a report from where the node already is (the overwhelmingly
    /// common case) must not touch the index at all: writing it would
    /// clone index shards pointlessly whenever a snapshot is
    /// outstanding.
    fn index_position(&mut self, status: NodeStatus) {
        if self.index.position(status.node) != Some(status.location) {
            self.index_mut().insert(status.node, status.location);
        }
    }

    /// The registry, writable. It and [`CentralManager::index_mut`] are
    /// the only ways to write, and both first let go of the memoised
    /// snapshot: unless a query still holds it, the write copies no
    /// shard.
    fn registry_mut(&mut self) -> &mut NodeRegistry {
        self.published = None;
        &mut self.registry
    }

    /// The proximity index, writable (see
    /// [`CentralManager::registry_mut`]).
    fn index_mut(&mut self) -> &mut ProximityIndex {
        self.published = None;
        Arc::make_mut(&mut self.index)
    }

    /// Freezes the current discovery state into an epoch-numbered
    /// copy-on-write snapshot: a reference bump per table and one for
    /// the index. The manager stays fully mutable and later writes
    /// never show through the snapshot.
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
    /// fresh snapshot at the cost of [`CentralManager::snapshot`]. This
    /// is the serve path — query traffic reads the published snapshot
    /// while mutations proceed against the live structures.
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

    /// Counts one discovery query and returns the
    /// [published](CentralManager::published) view it is answered from,
    /// for a driver that ranks outside its own lock. The next write lets
    /// go of the manager's hold on it, so once the query drops it the
    /// writes that land between queries copy no shard.
    pub fn serve_discovery(&mut self) -> Arc<DiscoverySnapshot> {
        self.counters.discoveries += 1;
        self.published()
    }

    /// Number of nodes alive at `now`, own and peer-advertised.
    pub fn alive_count(&self, now: SimTime) -> usize {
        self.registry.alive_count(now)
    }

    /// `true` if `node` is currently considered alive.
    pub fn is_alive(&self, node: NodeId, now: SimTime) -> bool {
        self.registry.is_alive(node, now)
    }

    /// Drops registry records (and spatial-index entries) for nodes
    /// dead longer than `grace`, own and peer-advertised, returning what
    /// it dropped. A forgotten own node's next heartbeat is refused and
    /// it registers again; a peer's node reappears with its next
    /// advertisement.
    pub fn prune_dead(&mut self, now: SimTime, grace: SimDuration) -> Pruned {
        let pruned = self.registry_mut().prune(now, grace);
        if !pruned.is_empty() {
            self.epoch += 1;
            let index = self.index_mut();
            for id in pruned.ids() {
                index.remove(id);
            }
        }
        pruned
    }

    /// Housekeeping by the manager's one forgetting rule: a record dead
    /// longer than one liveness budget goes. Drivers run it every
    /// [`NodeRegistry::liveness_budget`].
    pub fn forget_dead(&mut self, now: SimTime) -> Pruned {
        self.prune_dead(now, self.registry.liveness_budget())
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
        self.serve_discovery()
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

    /// A heartbeat carries no listen address, so the manager does not
    /// register its sender: the sender stays unknown, nothing is
    /// counted, and the refusal is the sender's cue to register.
    #[test]
    fn heartbeat_from_unknown_node_is_refused() {
        let mut mgr = manager_with_nodes(0);
        assert!(!mgr.heartbeat(status(7, home(), 0.0), SimTime::from_secs(5)));
        assert!(!mgr.is_alive(NodeId::new(7), SimTime::from_secs(5)));
        assert!(mgr.registry().is_empty());
        assert_eq!((mgr.counters().registry_ops(), mgr.epoch()), (0, 0));
        assert!(mgr.register(status(7, home(), 0.0), SimTime::from_secs(5)));
        assert!(mgr.heartbeat(status(7, home(), 0.0), SimTime::from_secs(6)));
        let c = mgr.counters();
        assert_eq!((c.heartbeats, c.registrations), (1, 1));
    }

    /// Loads an honest node never reports: `users·fps / capacity ≥ 0`.
    const BAD_LOADS: [f64; 4] = [f64::NEG_INFINITY, -0.5, f64::NAN, f64::INFINITY];

    #[test]
    fn a_dishonest_load_is_refused_on_every_write() {
        let mut mgr = manager_with_nodes(0);
        for (id, load) in (10..).zip(BAD_LOADS) {
            assert!(!mgr.register(status(id, home(), load), SimTime::ZERO));
        }
        assert!(mgr.registry().is_empty());
        assert!(mgr.register(status(1, home(), 0.5), SimTime::ZERO));
        let mut peer = manager_with_nodes(0);
        for (id, load) in (20..).zip(BAD_LOADS) {
            assert!(!mgr.heartbeat(status(1, home(), load), SimTime::from_secs(1)));
            assert!(!peer.apply_peer(status(id, home(), load), SimTime::ZERO));
        }
        assert!(peer.registry().is_empty());
        // Node 1 keeps the load and the heartbeat time it registered with.
        let record = mgr.registry().record(NodeId::new(1)).unwrap();
        assert_eq!(
            (record.status.load_score, record.last_heartbeat),
            (0.5, SimTime::ZERO)
        );
        let c = mgr.counters();
        assert_eq!(
            (
                c.registrations,
                c.heartbeats,
                peer.counters().summaries_applied
            ),
            (1, 0, 0)
        );
    }

    #[test]
    fn a_query_is_answered_with_at_most_64_ids() {
        let mut mgr = manager_with_nodes(100);
        assert_eq!(
            mgr.discover(home(), &[], usize::MAX, SimTime::ZERO).len(),
            64
        );
        assert_eq!(mgr.discover(home(), &[], 65, SimTime::ZERO).len(), 64);
        assert_eq!(mgr.discover(home(), &[], 8, SimTime::ZERO).len(), 8);
    }

    /// Forgetting takes one liveness budget (6 s by default) of being
    /// dead: 12 s after the last heartbeat, not a microsecond sooner.
    #[test]
    fn a_record_is_forgotten_one_budget_after_it_died() {
        let mut mgr = manager_with_nodes(1);
        let boundary = SimTime::from_secs(12);
        assert!(mgr.forget_dead(boundary).is_empty());
        let pruned = mgr.forget_dead(boundary + SimDuration::from_micros(1));
        assert_eq!(pruned.own, vec![NodeId::new(0)]);
        assert!(mgr.registry().is_empty());
    }

    /// What a peer's push carries to `to`: how many of its records `to`
    /// took.
    fn take(to: &mut CentralManager, push: &[NodeRecord]) -> u64 {
        push.iter()
            .filter(|r| to.apply_peer(r.status, r.last_heartbeat))
            .count() as u64
    }

    #[test]
    fn discovery_merges_own_and_synced_nodes() {
        let (mut a, mut b) = (manager_with_nodes(0), manager_with_nodes(0));
        a.register(status(0, home().offset_km(1.0, 0.0), 0.0), SimTime::ZERO);
        b.register(status(1, home().offset_km(2.0, 0.0), 0.0), SimTime::ZERO);
        take(&mut a, &b.own_summaries());
        let got = a.discover(home(), &[], 3, SimTime::from_secs(1));
        assert_eq!(got, vec![NodeId::new(0), NodeId::new(1)]);
    }

    #[test]
    fn stale_summaries_die_by_the_same_deadline_rule() {
        let (mut a, mut b) = (manager_with_nodes(0), manager_with_nodes(0));
        b.register(status(1, home(), 0.0), SimTime::ZERO);
        take(&mut a, &b.own_summaries());
        // Alive exactly at the 6 s budget, dead past it — identical to
        // the local registry's boundary.
        assert_eq!(a.discover(home(), &[], 1, SimTime::from_secs(6)).len(), 1);
        assert!(a.discover(home(), &[], 1, SimTime::from_secs(7)).is_empty());
    }

    /// A push is the whole own set, silent nodes included, each with the
    /// time it was last heard: a departure needs no retraction, the
    /// receiver ages the record out by the rule the home manager applies.
    #[test]
    fn a_push_carries_every_own_record_and_a_silent_one_ages_out_remotely() {
        let (mut a, mut b) = (manager_with_nodes(0), manager_with_nodes(0));
        b.register(status(1, home(), 0.0), SimTime::ZERO);
        b.register(status(2, home().offset_km(1.0, 0.0), 0.0), SimTime::ZERO);
        // Node 1 goes silent; node 2 keeps heartbeating.
        let two = status(2, home().offset_km(1.0, 0.0), 0.1);
        b.heartbeat(two, SimTime::from_secs(2));
        let push = b.own_summaries();
        let heard: Vec<(NodeId, SimTime)> = push
            .iter()
            .map(|r| (r.status.node, r.last_heartbeat))
            .collect();
        let expected = [
            (NodeId::new(1), SimTime::ZERO),
            (NodeId::new(2), SimTime::from_secs(2)),
        ];
        assert_eq!(heard, expected);
        assert_eq!(b.counters().summaries_sent, 2);
        assert_eq!(take(&mut a, &push), 2);
        assert_eq!(a.counters().summaries_applied, 2);
        let both = a.discover(home(), &[], 3, SimTime::from_secs(6));
        assert_eq!(both, vec![NodeId::new(1), NodeId::new(2)]);
        // Past node 1's deadline the same push, repeated, revives nothing.
        take(&mut a, &push);
        let got = a.discover(home(), &[], 3, SimTime::from_secs(7));
        assert_eq!(got, vec![NodeId::new(2)]);
    }

    #[test]
    fn own_registration_supersedes_a_peer_summary() {
        let (mut a, mut b) = (manager_with_nodes(0), manager_with_nodes(0));
        // Node 5 first appears via a peer summary with high load…
        b.register(status(5, home(), 9.0), SimTime::ZERO);
        take(&mut a, &b.own_summaries());
        // …then re-homes onto `a` with a fresh, idle status.
        a.register(status(5, home(), 0.0), SimTime::from_secs(1));
        let ranked = a.ranked_candidates(home(), &[], 1, SimTime::from_secs(1));
        assert!(ranked[0].score < 1.0, "authoritative status must win");
    }

    /// The owner's heartbeat is first-hand: a peer's word on an own
    /// node changes nothing and counts as no applied summary.
    #[test]
    fn a_summary_of_an_own_node_is_refused_and_not_counted() {
        let (mut a, mut b) = (manager_with_nodes(0), manager_with_nodes(0));
        a.register(status(5, home(), 0.0), SimTime::ZERO);
        b.register(status(5, home(), 9.0), SimTime::from_secs(1));
        assert_eq!(take(&mut a, &b.own_summaries()), 0);
        assert_eq!(a.counters().summaries_applied, 0);
        let ranked = a.ranked_candidates(home(), &[], 1, SimTime::from_secs(1));
        assert!(ranked[0].score < 1.0, "the own status stays");
    }

    #[test]
    fn counters_track_registry_load() {
        let mut a = manager_with_nodes(0);
        a.register(status(0, home(), 0.0), SimTime::ZERO);
        a.heartbeat(status(0, home(), 0.0), SimTime::from_secs(2));
        a.heartbeat(status(0, home(), 0.0), SimTime::from_secs(4));
        let _ = a.discover(home(), &[], 1, SimTime::from_secs(4));
        let _ = a.serve_discovery();
        a.note_sync_round();
        let c = a.counters();
        assert_eq!((c.registrations, c.heartbeats, c.registry_ops()), (1, 2, 3));
        assert_eq!((c.discoveries, c.sync_rounds), (2, 1));
    }

    #[test]
    fn prune_clears_both_views() {
        let (mut a, mut b) = (manager_with_nodes(0), manager_with_nodes(0));
        a.register(status(0, home(), 0.0), SimTime::ZERO);
        b.register(status(1, home(), 0.0), SimTime::ZERO);
        take(&mut a, &b.own_summaries());
        let late = SimTime::from_secs(60);
        let pruned = a.prune_dead(late, SimDuration::from_secs(10));
        assert_eq!(pruned.own, vec![NodeId::new(0)]);
        assert_eq!(pruned.peers, vec![NodeId::new(1)]);
        assert_eq!(a.alive_count(late), 0);
        assert!(a.discover(home(), &[], 3, late).is_empty());
        // The pruned own node is in no later push.
        assert!(a.own_summaries().is_empty());
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
        let pruned = mgr.prune_dead(late, SimDuration::from_secs(10));
        assert_eq!(pruned.own, vec![NodeId::new(0)]);
        assert_eq!(mgr.registry().len(), 1);
        // A pruned node that comes back is refused until it registers.
        assert!(!mgr.heartbeat(status(0, home(), 0.0), late));
        mgr.register(status(0, home(), 0.0), late);
        assert_eq!(mgr.registry().len(), 2);
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
        let now = SimTime::from_secs(1);
        let before = a.discover(home(), &[], 5, now);
        mgr.register(status(9, home(), 0.0), now);
        let c = mgr.published();
        assert!(!Arc::ptr_eq(&a, &c), "mutation must republish");
        assert!(c.epoch() > a.epoch());
        // The held snapshot keeps answering for its own epoch…
        assert_eq!(a.discover(home(), &[], 5, now), before);
        assert_eq!(c.discover(home(), &[], 5, now).len(), 5);
        // …and discover() serves off the same memoised snapshot.
        let got = mgr.discover(home(), &[], 2, now);
        assert_eq!(got, c.discover(home(), &[], 2, now));
    }

    /// A query drops its snapshot, and every write lets go of the
    /// memoised one: the writes after it copy no registry shard, shard
    /// list or index.
    #[test]
    fn a_write_after_a_served_query_copies_no_shard() {
        let mut mgr = manager_with_nodes(50);
        let now = SimTime::from_secs(1);
        assert_eq!(mgr.discover(home(), &[], 3, now).len(), 3);
        let (registry, index) = (mgr.registry.addresses(), Arc::as_ptr(&mgr.index));
        mgr.heartbeat(status(3, home().offset_km(12.0, 0.0), 0.4), now);
        mgr.register(status(60, home(), 0.0), now);
        mgr.node_left(NodeId::new(4));
        let after = mgr.registry.addresses();
        let copied = registry.iter().zip(&after).filter(|(a, b)| a != b).count();
        assert_eq!(copied, 0, "shard lists and shards copied");
        assert_eq!(Arc::as_ptr(&mgr.index), index);
        assert_eq!(mgr.counters().discoveries, 1);
    }

    /// A snapshot a query still holds keeps answering for the epoch it
    /// froze, whatever lands after it.
    #[test]
    fn a_held_snapshot_answers_for_its_own_epoch() {
        let mut mgr = manager_with_nodes(6);
        let now = SimTime::from_secs(1);
        let held = mgr.serve_discovery();
        let before = held.discover(home(), &[], 3, now);
        mgr.node_left(NodeId::new(0));
        mgr.heartbeat(status(1, home().offset_km(300.0, 0.0), 5.0), now);
        mgr.register(status(9, home(), 0.0), now);
        assert_eq!(held.discover(home(), &[], 3, now), before);
        assert_eq!(held.len(), 6);
        let after = mgr.serve_discovery();
        assert!(after.epoch() > held.epoch());
        assert_eq!(
            after.discover(home(), &[], 3, now),
            [9, 2, 3].map(NodeId::new)
        );
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
