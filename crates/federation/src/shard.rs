//! One manager shard: a [`CentralManager`] whose registry is
//! authoritative for its own region and also holds what every peer
//! advertises, plus the sync push and load counters that are
//! federation-specific.

use std::sync::Arc;

use armada_manager::{
    CentralManager, DiscoverySnapshot, GlobalSelectionPolicy, NodeRegistry, Pruned, ScoredCandidate,
};
use armada_node::NodeStatus;
use armada_types::{GeoPoint, NodeId, ShardId, SimDuration, SimTime, SystemConfig};

use crate::summary::{NodeSummary, SyncDelta};

/// Per-shard operation counters — the registry-load surface the
/// federation tests read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardCounters {
    /// Registrations accepted (own nodes).
    pub registrations: u64,
    /// Heartbeats accepted (own nodes).
    pub heartbeats: u64,
    /// Discovery queries served (home or failover traffic).
    pub discoveries: u64,
    /// Sync rounds this shard participated in.
    pub sync_rounds: u64,
    /// Summaries sent to peers across all rounds.
    pub summaries_sent: u64,
    /// Summaries applied from peers across all rounds.
    pub summaries_applied: u64,
}

impl ShardCounters {
    /// Registration-tier operations handled by this shard (everything
    /// that touches its authoritative registry).
    pub fn registry_ops(&self) -> u64 {
        self.registrations + self.heartbeats
    }
}

/// One geo-federated manager shard.
///
/// The shard *is* a [`CentralManager`] — registration, heartbeats,
/// liveness, own-over-peer precedence, the proximity index and the
/// published snapshot are that type's, not copies of them. Peer state
/// arrives as [`NodeSummary`] pushes and lands in the same merged
/// registry, so a shard with a fresh view produces the identical
/// shortlist the single manager would.
#[derive(Debug, Clone)]
pub struct FederatedShard {
    id: ShardId,
    manager: CentralManager,
    counters: ShardCounters,
}

impl FederatedShard {
    /// Creates an empty shard.
    pub fn new(id: ShardId, config: SystemConfig, policy: GlobalSelectionPolicy) -> Self {
        FederatedShard {
            id,
            manager: CentralManager::new(config, policy),
            counters: ShardCounters::default(),
        }
    }

    /// This shard's identity.
    pub fn id(&self) -> ShardId {
        self.id
    }

    /// Operation counters.
    pub fn counters(&self) -> ShardCounters {
        self.counters
    }

    /// Registers one of this shard's own nodes. A node can only have
    /// one home: the registration supersedes any stale peer summary.
    pub fn register(&mut self, status: NodeStatus, now: SimTime) {
        self.counters.registrations += 1;
        self.manager.register(status, now);
    }

    /// Records a heartbeat from one of this shard's own nodes. Unknown
    /// senders re-register, as at the central manager.
    pub fn heartbeat(&mut self, status: NodeStatus, now: SimTime) {
        self.counters.heartbeats += 1;
        self.manager.heartbeat(status, now);
    }

    /// Nodes registered at this shard (its authoritative slice).
    pub fn own_count(&self) -> usize {
        self.manager.registry().own_len()
    }

    /// Read access to the merged registry.
    pub fn registry(&self) -> &NodeRegistry {
        self.manager.registry()
    }

    /// Alive nodes across the merged view (own + synced summaries).
    ///
    /// O(nodes) — a diagnostics/observability surface; the discovery
    /// hot path terminates on scan exhaustion, not an alive census.
    pub fn merged_alive_count(&self, now: SimTime) -> usize {
        self.manager.alive_count(now)
    }

    /// This round's push: every own record, alive or not, with the
    /// time it was last heard.
    pub fn own_summaries(&mut self) -> SyncDelta {
        let mut updated: Vec<NodeSummary> = self
            .manager
            .registry()
            .own_records()
            .map(|r| NodeSummary {
                status: r.status,
                home: self.id,
                last_heartbeat: r.last_heartbeat,
            })
            .collect();
        updated.sort_by_key(|s| s.status.node);
        self.counters.summaries_sent += updated.len() as u64;
        SyncDelta {
            from: self.id,
            updated,
        }
    }

    /// Applies a peer's push to the merged registry, returning how many
    /// of its summaries were taken. Own nodes are never overwritten —
    /// the local registration is authoritative.
    pub fn apply_delta(&mut self, delta: &SyncDelta) -> u64 {
        delta
            .updated
            .iter()
            .map(|summary| u64::from(self.apply_summary(summary)))
            .sum()
    }

    /// Applies one summary of a peer's push; `false` (and nothing
    /// changes) if this shard owns the node.
    pub fn apply_summary(&mut self, summary: &NodeSummary) -> bool {
        let applied = self
            .manager
            .apply_peer(summary.status, summary.last_heartbeat);
        self.counters.summaries_applied += u64::from(applied);
        applied
    }

    /// Notes participation in one sync round.
    pub fn note_sync_round(&mut self) {
        self.counters.sync_rounds += 1;
    }

    /// Takes a fresh point-in-time snapshot of the merged view.
    ///
    /// O(shards) reference-count bumps — no record or bucket is copied.
    pub fn snapshot(&self) -> DiscoverySnapshot {
        self.manager.snapshot()
    }

    /// The published snapshot for the current epoch, memoised: repeated
    /// calls between mutations return the same `Arc`, and each mutation
    /// invalidates it so the next call republishes at O(shards) cost.
    pub fn published(&mut self) -> Arc<DiscoverySnapshot> {
        self.manager.published()
    }

    /// Serves a discovery query from the merged view. Same widening +
    /// ranking as the central manager; remote nodes are as alive as
    /// their last synced heartbeat says. Routed through the published
    /// snapshot, so sim traffic exercises the same frozen-view path a
    /// live worker pool would.
    pub fn discover(
        &mut self,
        user_loc: GeoPoint,
        affiliations: &[NodeId],
        top_n: usize,
        now: SimTime,
    ) -> Vec<NodeId> {
        self.counters.discoveries += 1;
        self.manager.discover(user_loc, affiliations, top_n, now)
    }

    /// Counts one discovery query and freezes the merged view it is
    /// answered from (O(shards) reference bumps), for a driver that
    /// ranks outside its own lock. Unlike [`FederatedShard::published`],
    /// nothing holds the view once the query drops it, so the writes
    /// that land between queries copy no shard.
    pub fn serve_discovery(&mut self) -> DiscoverySnapshot {
        self.counters.discoveries += 1;
        self.manager.snapshot()
    }

    /// Like [`FederatedShard::discover`] but returns scores, for tests
    /// and diagnostics.
    pub fn ranked_candidates(
        &self,
        user_loc: GeoPoint,
        affiliations: &[NodeId],
        top_n: usize,
        now: SimTime,
    ) -> Vec<ScoredCandidate> {
        self.manager
            .ranked_candidates(user_loc, affiliations, top_n, now)
    }

    /// Housekeeping: drops own registrations dead longer than `grace`
    /// and remote summaries equally stale, returning both lists.
    pub fn prune(&mut self, now: SimTime, grace: SimDuration) -> Pruned {
        self.manager.prune_dead(now, grace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use armada_types::NodeClass;

    fn home() -> GeoPoint {
        GeoPoint::new(44.98, -93.26)
    }

    fn status(id: u64, loc: GeoPoint, load: f64) -> NodeStatus {
        NodeStatus {
            node: NodeId::new(id),
            class: NodeClass::Volunteer,
            location: loc,
            attached_users: 0,
            load_score: load,
        }
    }

    fn shard(id: u64) -> FederatedShard {
        FederatedShard::new(
            ShardId::new(id),
            SystemConfig::default(),
            GlobalSelectionPolicy::default(),
        )
    }

    #[test]
    fn discovery_merges_own_and_synced_nodes() {
        let mut a = shard(0);
        let mut b = shard(1);
        a.register(status(0, home().offset_km(1.0, 0.0), 0.0), SimTime::ZERO);
        b.register(status(1, home().offset_km(2.0, 0.0), 0.0), SimTime::ZERO);
        a.apply_delta(&b.own_summaries());
        let got = a.discover(home(), &[], 3, SimTime::from_secs(1));
        assert_eq!(got, vec![NodeId::new(0), NodeId::new(1)]);
    }

    #[test]
    fn stale_summaries_die_by_the_same_deadline_rule() {
        let mut a = shard(0);
        let mut b = shard(1);
        b.register(status(1, home(), 0.0), SimTime::ZERO);
        a.apply_delta(&b.own_summaries());
        // Alive exactly at the 6 s budget, dead past it — identical to
        // the local registry's boundary.
        assert_eq!(a.discover(home(), &[], 1, SimTime::from_secs(6)).len(), 1);
        assert!(a.discover(home(), &[], 1, SimTime::from_secs(7)).is_empty());
    }

    /// A push is the whole own set, silent nodes included, each with the
    /// time it was last heard: a departure needs no retraction, the
    /// receiver ages the record out by the rule the home shard applies.
    #[test]
    fn a_push_carries_every_own_record_and_a_silent_one_ages_out_remotely() {
        let mut a = shard(0);
        let mut b = shard(1);
        b.register(status(1, home(), 0.0), SimTime::ZERO);
        b.register(status(2, home().offset_km(1.0, 0.0), 0.0), SimTime::ZERO);
        // Node 1 goes silent; node 2 keeps heartbeating.
        b.heartbeat(
            status(2, home().offset_km(1.0, 0.0), 0.1),
            SimTime::from_secs(2),
        );
        let push = b.own_summaries();
        let heard: Vec<(NodeId, SimTime)> = push
            .updated
            .iter()
            .map(|s| (s.status.node, s.last_heartbeat))
            .collect();
        assert_eq!(
            heard,
            vec![
                (NodeId::new(1), SimTime::ZERO),
                (NodeId::new(2), SimTime::from_secs(2))
            ]
        );
        assert_eq!(b.counters().summaries_sent, 2);
        a.apply_delta(&push);
        assert_eq!(a.counters().summaries_applied, 2);
        let both = a.discover(home(), &[], 3, SimTime::from_secs(6));
        assert_eq!(both, vec![NodeId::new(1), NodeId::new(2)]);
        // Past node 1's deadline the same push, repeated, revives nothing.
        a.apply_delta(&push);
        let got = a.discover(home(), &[], 3, SimTime::from_secs(7));
        assert_eq!(got, vec![NodeId::new(2)]);
    }

    #[test]
    fn own_registration_supersedes_a_peer_summary() {
        let mut a = shard(0);
        let mut b = shard(1);
        // Node 5 first appears via a peer summary with high load…
        b.register(status(5, home(), 9.0), SimTime::ZERO);
        a.apply_delta(&b.own_summaries());
        // …then re-homes onto shard 0 with a fresh, idle status.
        a.register(status(5, home(), 0.0), SimTime::from_secs(1));
        let ranked = a.ranked_candidates(home(), &[], 1, SimTime::from_secs(1));
        assert!(ranked[0].score < 1.0, "authoritative status must win");
    }

    #[test]
    fn counters_track_registry_load() {
        let mut a = shard(0);
        a.register(status(0, home(), 0.0), SimTime::ZERO);
        a.heartbeat(status(0, home(), 0.0), SimTime::from_secs(2));
        a.heartbeat(status(0, home(), 0.0), SimTime::from_secs(4));
        let _ = a.discover(home(), &[], 1, SimTime::from_secs(4));
        let c = a.counters();
        assert_eq!(c.registrations, 1);
        assert_eq!(c.heartbeats, 2);
        assert_eq!(c.registry_ops(), 3);
        assert_eq!(c.discoveries, 1);
    }

    /// The published shard snapshot is memoised per epoch, answers
    /// identically to the live merged view, and stays frozen while the
    /// shard keeps mutating.
    #[test]
    fn published_shard_snapshot_is_memoised_and_isolated() {
        let mut a = shard(0);
        let mut b = shard(1);
        a.register(status(0, home().offset_km(1.0, 0.0), 0.0), SimTime::ZERO);
        b.register(status(1, home().offset_km(2.0, 0.0), 0.0), SimTime::ZERO);
        a.apply_delta(&b.own_summaries());

        let now = SimTime::from_secs(1);
        let first = a.published();
        let again = a.published();
        assert!(
            Arc::ptr_eq(&first, &again),
            "no republish between mutations"
        );
        assert_eq!(
            first.ranked(home(), &[], 3, now),
            a.ranked_candidates(home(), &[], 3, now),
            "snapshot must answer exactly as the live merged view"
        );

        // A mutation invalidates the memo; the retained snapshot keeps
        // serving the old epoch's answer.
        a.register(status(2, home().offset_km(3.0, 0.0), 0.0), now);
        let fresh = a.published();
        assert!(!Arc::ptr_eq(&first, &fresh));
        assert!(fresh.epoch() > first.epoch());
        assert_eq!(
            first.discover(home(), &[], 3, now),
            vec![NodeId::new(0), NodeId::new(1)]
        );
        assert_eq!(
            fresh.discover(home(), &[], 3, now),
            vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)]
        );
    }

    #[test]
    fn prune_clears_both_views() {
        let mut a = shard(0);
        let mut b = shard(1);
        a.register(status(0, home(), 0.0), SimTime::ZERO);
        b.register(status(1, home(), 0.0), SimTime::ZERO);
        a.apply_delta(&b.own_summaries());
        let late = SimTime::from_secs(60);
        let pruned = a.prune(late, SimDuration::from_secs(10));
        assert_eq!(pruned.own, vec![NodeId::new(0)]);
        assert_eq!(pruned.peers, vec![NodeId::new(1)]);
        assert_eq!(a.merged_alive_count(late), 0);
        assert!(a.discover(home(), &[], 3, late).is_empty());
        // The pruned own node is in no later push.
        assert!(a.own_summaries().updated.is_empty());
    }
}
