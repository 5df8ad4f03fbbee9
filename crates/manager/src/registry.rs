//! The node registry with heartbeat-based liveness: a manager's own
//! registrations merged with the records its peers advertise.

use std::ops::Deref;

use armada_node::NodeStatus;
use armada_types::{NodeId, SimDuration, SimTime};

use crate::table::CowTable;

/// One registered node's latest state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeRecord {
    /// The most recent heartbeat payload.
    pub status: NodeStatus,
    /// When the node first registered (for a peer-advertised record:
    /// the heartbeat time it was last advertised with).
    pub registered_at: SimTime,
    /// When the last heartbeat arrived.
    pub last_heartbeat: SimTime,
}

/// The single liveness rule every discovery surface applies: a record
/// is alive at `now` iff its last heartbeat is at most `budget` old
/// (inclusive deadline).
///
/// Centralised here because the deadline `now - budget` saturates at
/// [`SimTime::ZERO`] (`SimTime - SimDuration` is saturating): early in
/// a run, while `now < budget`, *every* registered record is alive, and
/// every reader of the registry must agree on that — including exactly
/// at `now == budget`, where a heartbeat from `t = 0` is still within
/// the budget.
fn alive_at(last_heartbeat: SimTime, now: SimTime, budget: SimDuration) -> bool {
    last_heartbeat >= now - budget
}

/// What one [`NodeRegistry::prune`] pass dropped, each list sorted by
/// id.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Pruned {
    /// Own registrations dropped.
    pub own: Vec<NodeId>,
    /// Peer-advertised records dropped.
    pub peers: Vec<NodeId>,
}

impl Pruned {
    /// `true` if the pass dropped nothing.
    pub fn is_empty(&self) -> bool {
        self.own.is_empty() && self.peers.is_empty()
    }

    /// Every dropped id, own first.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.own.iter().chain(&self.peers).copied()
    }
}

/// A manager's view of every known edge node: the registrations it
/// owns plus the records peer managers advertise to it.
///
/// Liveness is heartbeat-driven: a node that misses
/// `miss_limit × heartbeat_period` of heartbeats is considered dead and
/// excluded from discovery until it reappears — volunteer nodes "can
/// join and leave the system anytime without notifications". A peer
/// record is judged by the same rule on the heartbeat time its home
/// manager advertised.
///
/// Own records are authoritative, so an id is never in both tables:
/// [`NodeRegistry::apply_peer`] refuses an id this registry owns and
/// [`NodeRegistry::register`] drops the peer record it shadows. A dead
/// own record therefore never falls through to a fresher-looking peer
/// record.
///
/// Both tables are sharded [`CowTable`]s, so discovery can freeze a
/// copy-on-write view ([`NodeRegistry::view`]) with a reference bump a
/// table, without cloning a million records — and writers mutating
/// while a view is outstanding copy only the one shard they touch (and
/// the first of them the shard list), never the table.
/// Each shard keeps its records packed, which is what makes
/// [`NodeRegistry::alive`] a walk over contiguous memory.
#[derive(Debug, Clone)]
pub struct NodeRegistry {
    own: CowTable<NodeRecord>,
    peers: CowTable<NodeRecord>,
    budget: SimDuration,
}

/// A frozen [`NodeRegistry`]: every read the registry offers, on the
/// state it held when [`NodeRegistry::view`] was called.
#[derive(Debug, Clone)]
pub struct RegistryView(NodeRegistry);

impl Deref for RegistryView {
    type Target = NodeRegistry;
    fn deref(&self) -> &NodeRegistry {
        &self.0
    }
}

impl NodeRegistry {
    /// Creates an empty registry.
    ///
    /// # Panics
    ///
    /// Panics if `miss_limit` is zero or the heartbeat period is zero.
    pub fn new(heartbeat_period: SimDuration, miss_limit: u32) -> Self {
        assert!(miss_limit > 0, "miss limit must be at least 1");
        assert!(
            !heartbeat_period.is_zero(),
            "heartbeat period must be positive"
        );
        NodeRegistry {
            own: CowTable::new(),
            peers: CowTable::new(),
            budget: heartbeat_period * u64::from(miss_limit),
        }
    }

    /// Freezes both tables. Cheap (one reference bump a table); the
    /// registry stays mutable and later writes do not show through.
    pub fn view(&self) -> RegistryView {
        RegistryView(self.clone())
    }

    /// The liveness budget, `heartbeat_period × miss_limit`: a heartbeat
    /// older than this at query time means the node is dead.
    pub fn liveness_budget(&self) -> SimDuration {
        self.budget
    }

    fn fresh(&self, record: &NodeRecord, now: SimTime) -> bool {
        alive_at(record.last_heartbeat, now, self.budget)
    }

    /// Registers a node or refreshes an existing registration, dropping
    /// the peer record it shadows (a node has one home).
    ///
    /// A node re-registering after it was declared dead starts a *new*
    /// registration: `registered_at` resets to `now` instead of carrying
    /// over from the expired incarnation.
    pub fn register(&mut self, status: NodeStatus, now: SimTime) {
        self.peers.remove(status.node);
        let registered_at = match self.own.get(status.node) {
            Some(r) if self.fresh(r, now) => r.registered_at,
            _ => now,
        };
        self.own.insert(
            status.node,
            NodeRecord {
                status,
                registered_at,
                last_heartbeat: now,
            },
        );
    }

    /// Records a heartbeat; returns `false` (and ignores it) if the node
    /// was never registered here.
    pub fn heartbeat(&mut self, status: NodeStatus, now: SimTime) -> bool {
        match self.own.get_mut(status.node) {
            Some(r) => {
                r.status = status;
                r.last_heartbeat = now;
                true
            }
            None => false,
        }
    }

    /// Records what a peer manager advertised about one of *its* nodes;
    /// returns `false` (and ignores it) if this registry owns the node.
    pub fn apply_peer(&mut self, status: NodeStatus, last_heartbeat: SimTime) -> bool {
        if self.owns(status.node) {
            return false;
        }
        self.peers.insert(
            status.node,
            NodeRecord {
                status,
                registered_at: last_heartbeat,
                last_heartbeat,
            },
        );
        true
    }

    /// Explicitly removes an own node (graceful departure).
    pub fn deregister(&mut self, node: NodeId) -> Option<NodeRecord> {
        self.own.remove(node)
    }

    /// `true` if `node` is registered here (alive or not).
    pub fn owns(&self, node: NodeId) -> bool {
        self.own.contains_key(node)
    }

    /// The record for `node`, own before peer, regardless of liveness.
    pub fn record(&self, node: NodeId) -> Option<&NodeRecord> {
        self.own.get(node).or_else(|| self.peers.get(node))
    }

    /// The node's status iff it is alive at `now`. An own record, alive
    /// or dead, decides alone.
    pub fn alive_status(&self, node: NodeId, now: SimTime) -> Option<NodeStatus> {
        self.record(node)
            .filter(|r| self.fresh(r, now))
            .map(|r| r.status)
    }

    /// `true` if the node is known and fresh at `now`.
    pub fn is_alive(&self, node: NodeId, now: SimTime) -> bool {
        self.alive_status(node, now).is_some()
    }

    /// Iterates every `(id, record)` pair, alive or not, own first.
    pub fn records(&self) -> impl Iterator<Item = (NodeId, &NodeRecord)> {
        self.own.iter().chain(self.peers.iter())
    }

    /// Iterates the records this registry owns, alive or not.
    pub fn own_records(&self) -> impl Iterator<Item = &NodeRecord> {
        self.own.values()
    }

    /// Iterates records considered alive at `now`, own first.
    ///
    /// This is the discovery flat pass's walk: it reads each table's
    /// packed shards slice by slice, own then peers, against one
    /// deadline `now − budget` computed up front — `alive_at`'s rule,
    /// not re-derived per record.
    pub fn alive(&self, now: SimTime) -> impl Iterator<Item = &NodeRecord> {
        let deadline = now - self.budget;
        let shards = self.own.slices().chain(self.peers.slices());
        shards
            .flatten()
            .map(|(_, record)| record)
            .filter(move |r| r.last_heartbeat >= deadline)
    }

    /// Number of alive nodes at `now`, own and peer-advertised.
    pub fn alive_count(&self, now: SimTime) -> usize {
        self.alive(now).count()
    }

    /// Number of peer-advertised nodes alive at `now`.
    pub fn peer_alive_count(&self, now: SimTime) -> usize {
        self.peers.values().filter(|r| self.fresh(r, now)).count()
    }

    /// Total known nodes (alive or not).
    pub fn len(&self) -> usize {
        self.own.len() + self.peers.len()
    }

    /// Nodes registered here (alive or not).
    pub fn own_len(&self) -> usize {
        self.own.len()
    }

    /// `true` if nothing is known.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Where both tables' shard lists and shards live (`CowTable`'s
    /// `addresses`, own then peers).
    #[cfg(test)]
    pub(crate) fn addresses(&self) -> Vec<usize> {
        let mut addresses = self.own.addresses();
        addresses.extend(self.peers.addresses());
        addresses
    }

    /// Drops records, own and peer-advertised, that have been dead
    /// longer than `grace`.
    pub fn prune(&mut self, now: SimTime, grace: SimDuration) -> Pruned {
        let cutoff = (now - self.budget) - grace;
        Pruned {
            own: prune_table(&mut self.own, cutoff),
            peers: prune_table(&mut self.peers, cutoff),
        }
    }
}

/// Removes every record last heard from before `cutoff`, returning the
/// ids sorted: shard iteration order is an implementation detail, and
/// callers (and the sim's event stream) get a deterministic order.
fn prune_table(table: &mut CowTable<NodeRecord>, cutoff: SimTime) -> Vec<NodeId> {
    let mut dead: Vec<NodeId> = table
        .iter()
        .filter(|(_, r)| r.last_heartbeat < cutoff)
        .map(|(id, _)| id)
        .collect();
    dead.sort_unstable();
    for id in &dead {
        table.remove(*id);
    }
    dead
}

#[cfg(test)]
mod tests {
    use super::*;
    use armada_types::{GeoPoint, NodeClass};

    fn status(id: u64) -> NodeStatus {
        NodeStatus {
            node: NodeId::new(id),
            class: NodeClass::Volunteer,
            location: GeoPoint::new(44.98, -93.26),
            attached_users: 0,
            load_score: 0.0,
        }
    }

    fn registry() -> NodeRegistry {
        NodeRegistry::new(SimDuration::from_secs(2), 3)
    }

    #[test]
    fn fresh_registration_is_alive() {
        let mut r = registry();
        r.register(status(1), SimTime::ZERO);
        assert!(r.is_alive(NodeId::new(1), SimTime::from_secs(1)));
        assert_eq!(r.alive_count(SimTime::from_secs(1)), 1);
    }

    #[test]
    fn missed_heartbeats_kill_liveness() {
        let mut r = registry();
        r.register(status(1), SimTime::ZERO);
        // 3 × 2 s budget: alive at 6 s, dead at 7 s.
        assert!(r.is_alive(NodeId::new(1), SimTime::from_secs(6)));
        assert!(!r.is_alive(NodeId::new(1), SimTime::from_secs(7)));
    }

    #[test]
    fn heartbeat_exactly_at_the_miss_budget_keeps_the_node_alive() {
        let mut r = registry();
        r.register(status(1), SimTime::ZERO);
        // The liveness budget is miss_limit × heartbeat_period = 6 s: a
        // heartbeat aged *exactly* the budget is still within it.
        let boundary = SimTime::from_secs(6);
        assert!(r.is_alive(NodeId::new(1), boundary));
        assert_eq!(r.alive_count(boundary), 1);
        // One microsecond past the budget the node is dead.
        let past = boundary + SimDuration::from_micros(1);
        assert!(!r.is_alive(NodeId::new(1), past));
        assert_eq!(r.alive_count(past), 0);
        // A heartbeat landing exactly on the boundary resets the budget.
        assert!(r.heartbeat(status(1), boundary));
        assert!(r.is_alive(NodeId::new(1), SimTime::from_secs(12)));
    }

    #[test]
    fn re_registration_after_death_resets_registered_at() {
        let mut r = registry();
        r.register(status(1), SimTime::ZERO);
        // Dead at 10 s (budget expired at 6 s), then the node comes back.
        let back = SimTime::from_secs(10);
        assert!(!r.is_alive(NodeId::new(1), back));
        r.register(status(1), back);
        let rec = r.record(NodeId::new(1)).unwrap();
        assert_eq!(
            rec.registered_at, back,
            "a dead node's re-registration starts a new incarnation"
        );
        assert!(r.is_alive(NodeId::new(1), back));
    }

    #[test]
    fn re_registration_while_alive_preserves_registered_at() {
        let mut r = registry();
        r.register(status(1), SimTime::ZERO);
        // Still alive at 5 s: a duplicate Register is a refresh, not a
        // new incarnation.
        r.register(status(1), SimTime::from_secs(5));
        let rec = r.record(NodeId::new(1)).unwrap();
        assert_eq!(rec.registered_at, SimTime::ZERO);
        assert_eq!(rec.last_heartbeat, SimTime::from_secs(5));
    }

    #[test]
    fn heartbeat_restores_liveness() {
        let mut r = registry();
        r.register(status(1), SimTime::ZERO);
        assert!(!r.is_alive(NodeId::new(1), SimTime::from_secs(10)));
        assert!(r.heartbeat(status(1), SimTime::from_secs(10)));
        assert!(r.is_alive(NodeId::new(1), SimTime::from_secs(11)));
    }

    #[test]
    fn heartbeat_from_unknown_node_is_rejected() {
        let mut r = registry();
        assert!(!r.heartbeat(status(5), SimTime::ZERO));
        assert!(r.is_empty());
    }

    #[test]
    fn heartbeat_updates_status_payload() {
        let mut r = registry();
        r.register(status(1), SimTime::ZERO);
        let mut s = status(1);
        s.attached_users = 4;
        s.load_score = 1.5;
        r.heartbeat(s, SimTime::from_secs(1));
        let rec = r.record(NodeId::new(1)).unwrap();
        assert_eq!(rec.status.attached_users, 4);
        assert_eq!(
            rec.registered_at,
            SimTime::ZERO,
            "registration time preserved"
        );
    }

    #[test]
    fn deregister_removes_immediately() {
        let mut r = registry();
        r.register(status(1), SimTime::ZERO);
        assert!(r.deregister(NodeId::new(1)).is_some());
        assert!(!r.is_alive(NodeId::new(1), SimTime::ZERO));
        assert!(r.deregister(NodeId::new(1)).is_none());
    }

    #[test]
    fn prune_drops_long_dead_nodes() {
        let mut r = registry();
        r.register(status(1), SimTime::ZERO);
        r.register(status(2), SimTime::from_secs(29));
        let pruned = r.prune(SimTime::from_secs(30), SimDuration::from_secs(10));
        assert_eq!(pruned.own, vec![NodeId::new(1)]);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn alive_iterator_filters() {
        let mut r = registry();
        r.register(status(1), SimTime::ZERO);
        r.register(status(2), SimTime::from_secs(8));
        let alive: Vec<NodeId> = r
            .alive(SimTime::from_secs(9))
            .map(|rec| rec.status.node)
            .collect();
        assert_eq!(alive, vec![NodeId::new(2)]);
    }

    #[test]
    #[should_panic(expected = "miss limit")]
    fn zero_miss_limit_rejected() {
        let _ = NodeRegistry::new(SimDuration::from_secs(1), 0);
    }

    #[test]
    fn register_at_the_deadline_boundary_is_a_refresh_not_a_new_incarnation() {
        // The pinned rule: a heartbeat aged *exactly*
        // miss_limit × heartbeat_period is alive (inclusive deadline),
        // and every entry point must agree. `register` at the boundary
        // therefore refreshes the existing incarnation.
        let mut r = registry();
        r.register(status(1), SimTime::ZERO);
        let boundary = SimTime::from_secs(6);
        assert!(r.is_alive(NodeId::new(1), boundary), "alive at the edge");
        r.register(status(1), boundary);
        let rec = r.record(NodeId::new(1)).unwrap();
        assert_eq!(
            rec.registered_at,
            SimTime::ZERO,
            "boundary re-registration must not start a new incarnation"
        );
        // One microsecond later the same call is a resurrection.
        let mut r2 = registry();
        r2.register(status(1), SimTime::ZERO);
        let past = boundary + SimDuration::from_micros(1);
        assert!(!r2.is_alive(NodeId::new(1), past));
        r2.register(status(1), past);
        assert_eq!(r2.record(NodeId::new(1)).unwrap().registered_at, past);
    }

    #[test]
    fn view_judges_liveness_on_the_frozen_heartbeat() {
        let mut r = registry();
        r.register(status(1), SimTime::ZERO);
        let view = r.view();
        r.heartbeat(status(1), SimTime::from_secs(60));
        // The view still holds the t = 0 heartbeat: alive exactly on the
        // 6 s deadline, dead one microsecond past it.
        let edge = SimTime::from_secs(6);
        assert!(view.is_alive(NodeId::new(1), edge));
        assert!(!view.is_alive(NodeId::new(1), edge + SimDuration::from_micros(1)));
        assert!(r.is_alive(NodeId::new(1), SimTime::from_secs(60)));
    }

    #[test]
    fn snapshot_is_isolated_from_later_writes() {
        let mut r = registry();
        r.register(status(1), SimTime::ZERO);
        let view = r.view();
        r.register(status(2), SimTime::from_secs(1));
        r.deregister(NodeId::new(1));
        assert_eq!(view.len(), 1, "view must not see later writes");
        assert!(view.record(NodeId::new(1)).is_some());
        assert_eq!(r.len(), 1);
        assert!(r.record(NodeId::new(2)).is_some());
    }

    #[test]
    fn alive_at_saturates_near_time_zero() {
        // While `now < budget` the deadline `now - budget` saturates to
        // t=0, so any recorded heartbeat (necessarily ≥ 0) is alive:
        // early-clock queries must never declare a fresh node dead.
        let budget = SimDuration::from_secs(6);
        assert!(alive_at(SimTime::ZERO, SimTime::ZERO, budget));
        assert!(alive_at(SimTime::ZERO, SimTime::from_secs(3), budget));
        // Exactly at the budget the heartbeat is still within it…
        assert!(alive_at(SimTime::ZERO, SimTime::from_secs(6), budget));
        // …one microsecond later it is not.
        assert!(!alive_at(
            SimTime::ZERO,
            SimTime::from_secs(6) + SimDuration::from_micros(1),
            budget
        ));
    }

    #[test]
    fn registry_is_alive_matches_alive_at_under_early_clock() {
        let mut r = registry();
        r.register(status(1), SimTime::ZERO);
        let budget = r.liveness_budget();
        for us in [0u64, 1, 5_999_999, 6_000_000, 6_000_001, 60_000_000] {
            let now = SimTime::from_micros(us);
            assert_eq!(
                r.is_alive(NodeId::new(1), now),
                alive_at(SimTime::ZERO, now, budget),
                "divergence at {us}µs"
            );
        }
    }

    #[test]
    fn prune_returns_sorted_ids() {
        let mut r = registry();
        for id in [9u64, 2, 7, 4] {
            r.register(status(id), SimTime::ZERO);
        }
        r.register(status(1), SimTime::from_secs(29));
        let pruned = r.prune(SimTime::from_secs(30), SimDuration::from_secs(10));
        assert_eq!(
            pruned.own,
            vec![
                NodeId::new(2),
                NodeId::new(4),
                NodeId::new(7),
                NodeId::new(9)
            ]
        );
        assert_eq!(r.len(), 1);
    }
    #[test]
    fn own_records_shadow_peer_records() {
        let mut r = registry();
        // Unknown here: the peer's advertisement is taken.
        assert!(r.apply_peer(status(5), SimTime::from_secs(1)));
        assert!(r.is_alive(NodeId::new(5), SimTime::from_secs(2)));
        assert_eq!((r.len(), r.own_len()), (1, 0));
        // A later registration drops the record it shadows…
        r.register(status(5), SimTime::from_secs(2));
        assert_eq!((r.len(), r.own_len()), (1, 1));
        assert_eq!(r.peer_alive_count(SimTime::from_secs(2)), 0);
        // …and an own record refuses the peer's word, alive…
        assert!(!r.apply_peer(status(5), SimTime::from_secs(3)));
        // …or dead: a fresher-looking advertisement must not revive it.
        let late = SimTime::from_secs(30);
        assert!(!r.is_alive(NodeId::new(5), late));
        assert!(!r.apply_peer(status(5), late));
        assert!(!r.is_alive(NodeId::new(5), late));
        assert_eq!(r.alive_status(NodeId::new(5), late), None);
        // Once the node leaves, the peer's word counts again.
        r.deregister(NodeId::new(5));
        assert!(r.apply_peer(status(5), late));
        assert!(r.is_alive(NodeId::new(5), late));
        assert_eq!((r.len(), r.own_len()), (1, 0));
    }

    #[test]
    fn alive_yields_each_id_once_with_own_first() {
        let mut r = registry();
        let now = SimTime::from_secs(1);
        for id in [7u64, 8, 9] {
            r.apply_peer(status(id), now);
        }
        for id in [1u64, 2, 8] {
            r.register(status(id), now);
        }
        r.apply_peer(status(3), SimTime::ZERO);
        let alive: Vec<u64> = r.alive(now).map(|rec| rec.status.node.as_u64()).collect();
        let (own, peers) = alive.split_at(3);
        let sorted = |ids: &[u64]| {
            let mut v = ids.to_vec();
            v.sort_unstable();
            v
        };
        assert_eq!(sorted(own), vec![1, 2, 8], "own records come first");
        assert_eq!(sorted(peers), vec![3, 7, 9], "node 8 is listed once");
        assert_eq!(r.alive_count(now), 6);
        // Node 3's advertised heartbeat ages out by the same deadline.
        let later = SimTime::from_secs(7);
        assert_eq!(r.alive_count(later), 5);
        assert_eq!(r.peer_alive_count(later), 2);
    }

    #[test]
    fn prune_drops_long_dead_records_on_both_sides() {
        let mut r = registry();
        for id in [9u64, 2] {
            r.register(status(id), SimTime::ZERO);
        }
        for id in [8u64, 3] {
            r.apply_peer(status(id), SimTime::ZERO);
        }
        r.register(status(1), SimTime::from_secs(29));
        r.apply_peer(status(4), SimTime::from_secs(29));
        let pruned = r.prune(SimTime::from_secs(30), SimDuration::from_secs(10));
        assert_eq!(pruned.own, vec![NodeId::new(2), NodeId::new(9)]);
        assert_eq!(pruned.peers, vec![NodeId::new(3), NodeId::new(8)]);
        assert_eq!(pruned.ids().count(), 4);
        assert_eq!((r.len(), r.own_len()), (2, 1));
        assert!(r
            .prune(SimTime::from_secs(30), SimDuration::from_secs(10))
            .is_empty());
    }

    /// The property a whole-map `Arc::make_mut` lacks: a write while a
    /// view is outstanding copies the one shard it touches, on the one
    /// side it touches.
    #[test]
    fn a_write_under_a_view_copies_one_shard() {
        let mut r = registry();
        for id in 0..2_000u64 {
            r.register(status(id), SimTime::ZERO);
            r.apply_peer(status(10_000 + id), SimTime::ZERO);
        }
        let view = r.view();
        let shards = r.own.shards_shared_with(&view.own);
        assert_eq!(shards, r.peers.shards_shared_with(&view.peers));
        r.heartbeat(status(17), SimTime::from_secs(1));
        assert_eq!(r.own.shards_shared_with(&view.own), shards - 1);
        assert_eq!(r.peers.shards_shared_with(&view.peers), shards);
        r.apply_peer(status(10_017), SimTime::from_secs(1));
        assert_eq!(r.peers.shards_shared_with(&view.peers), shards - 1);
        assert_eq!(
            view.record(NodeId::new(17)).unwrap().last_heartbeat,
            SimTime::ZERO
        );
    }
}
