//! The federated control plane: K shards, a shard map, summary sync,
//! and shard-level failure handling.

use std::collections::HashSet;

use armada_manager::GlobalSelectionPolicy;
use armada_node::NodeStatus;
use armada_types::{GeoPoint, NodeId, ShardId, SimDuration, SimTime, SystemConfig};

use crate::map::ShardMap;
use crate::shard::FederatedShard;
use crate::summary::SyncDelta;

/// Aggregate outcome of one sync round, for tracing and benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncStats {
    /// Ordinal of this round (1-based).
    pub round: u64,
    /// Up shards that exchanged deltas.
    pub participants: usize,
    /// Summaries shipped across all pairs this round.
    pub summaries: u64,
    /// Removal tombstones shipped this round.
    pub removals: u64,
    /// Delta messages lost in transit this round (fault injection via
    /// [`FederatedCluster::sync_round_filtered`]).
    pub dropped: u64,
}

/// One discovery served through the federation.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedDiscovery {
    /// The user's home shard (first in route order).
    pub home: ShardId,
    /// The shard that actually served the query.
    pub served_by: ShardId,
    /// The candidate shortlist, best first.
    pub candidates: Vec<NodeId>,
}

impl RoutedDiscovery {
    /// `true` if the home shard was down and a neighbour served.
    pub fn failed_over(&self) -> bool {
        self.home != self.served_by
    }
}

/// The geo-federated manager tier: a [`ShardMap`] plus one
/// [`FederatedShard`] per site.
///
/// Registration and heartbeats route to the node's home shard;
/// discovery routes to the user's home shard with nearest-first
/// failover when it is down. [`FederatedCluster::sync_round`] runs one
/// full delta exchange among the shards that are up.
#[derive(Debug, Clone)]
pub struct FederatedCluster {
    map: ShardMap,
    shards: Vec<FederatedShard>,
    down: HashSet<ShardId>,
    /// Cutoff for the next delta extraction.
    last_sync: SimTime,
    /// Shards revived since the last round: they receive a full resync.
    needs_full: HashSet<ShardId>,
    rounds: u64,
}

impl FederatedCluster {
    /// Builds the cluster for `map`, all shards up and empty.
    pub fn new(map: ShardMap, config: SystemConfig, policy: GlobalSelectionPolicy) -> Self {
        let shards = map
            .sites()
            .iter()
            .map(|site| FederatedShard::new(site.id, config, policy))
            .collect();
        FederatedCluster {
            map,
            shards,
            down: HashSet::new(),
            last_sync: SimTime::ZERO,
            needs_full: HashSet::new(),
            rounds: 0,
        }
    }

    /// The shard map.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Number of shards (up or down).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shards, in id order.
    pub fn shards(&self) -> &[FederatedShard] {
        &self.shards
    }

    /// One shard by id.
    pub fn shard(&self, id: ShardId) -> Option<&FederatedShard> {
        self.shards.get(id.as_u64() as usize)
    }

    /// `true` while `id` is serving.
    pub fn is_up(&self, id: ShardId) -> bool {
        !self.down.contains(&id)
    }

    /// Takes shard `id` down: it stops serving, syncing, and accepting
    /// registrations. Returns `false` if it was already down.
    pub fn kill(&mut self, id: ShardId) -> bool {
        self.down.insert(id)
    }

    /// Brings shard `id` back. Its registry is as it was at kill time;
    /// the next sync round sends it a full resync from every peer.
    /// Returns `false` if it was not down.
    pub fn revive(&mut self, id: ShardId) -> bool {
        let was_down = self.down.remove(&id);
        if was_down {
            self.needs_full.insert(id);
        }
        was_down
    }

    /// The home shard for a location.
    pub fn home(&self, loc: GeoPoint) -> ShardId {
        self.map.home(loc)
    }

    /// Routes a registration to the node's home shard. Returns the
    /// accepting shard, or `None` if it is down (the registration is
    /// lost, as a TCP connect to a dead manager would be).
    pub fn register(&mut self, status: NodeStatus, now: SimTime) -> Option<ShardId> {
        let home = self.map.home(status.location);
        if !self.is_up(home) {
            return None;
        }
        self.shards[home.as_u64() as usize].register(status, now);
        Some(home)
    }

    /// Routes a heartbeat to the node's home shard (`None`: dropped,
    /// shard down).
    pub fn heartbeat(&mut self, status: NodeStatus, now: SimTime) -> Option<ShardId> {
        let home = self.map.home(status.location);
        if !self.is_up(home) {
            return None;
        }
        self.shards[home.as_u64() as usize].heartbeat(status, now);
        Some(home)
    }

    /// Routes a graceful node departure to its home shard.
    pub fn node_left(&mut self, node: NodeId, location: GeoPoint, now: SimTime) {
        let home = self.map.home(location);
        if self.is_up(home) {
            self.shards[home.as_u64() as usize].node_left(node, now);
        }
    }

    /// Serves a discovery query: home shard first, then nearest-first
    /// failover across the remaining up shards. `None` means every
    /// shard is down.
    pub fn discover(
        &mut self,
        user_loc: GeoPoint,
        affiliations: &[NodeId],
        top_n: usize,
        now: SimTime,
    ) -> Option<RoutedDiscovery> {
        let order = self.map.route_order(user_loc);
        let home = order[0];
        let served_by = *order.iter().find(|id| self.is_up(**id))?;
        let candidates =
            self.shards[served_by.as_u64() as usize].discover(user_loc, affiliations, top_n, now);
        Some(RoutedDiscovery {
            home,
            served_by,
            candidates,
        })
    }

    /// Runs one sync round: every up shard sends its delta since the
    /// previous round to every other up shard. Revived shards receive a
    /// full resync. Down shards neither send nor receive.
    pub fn sync_round(&mut self, now: SimTime) -> SyncStats {
        self.sync_round_filtered(now, &mut |_, _| false)
    }

    /// Like [`FederatedCluster::sync_round`], except `drop` decides per
    /// `(sender, receiver)` pair whether that delta message is lost in
    /// transit (fault injection). A receiver that missed a delta gets a
    /// full resync from every peer next round, so lossy sync still
    /// converges once a round's messages to it all arrive.
    pub fn sync_round_filtered(
        &mut self,
        now: SimTime,
        drop: &mut dyn FnMut(ShardId, ShardId) -> bool,
    ) -> SyncStats {
        self.rounds += 1;
        let up: Vec<ShardId> = self
            .shards
            .iter()
            .map(|s| s.id())
            .filter(|id| self.is_up(*id))
            .collect();
        let mut stats = SyncStats {
            round: self.rounds,
            participants: up.len(),
            summaries: 0,
            removals: 0,
            dropped: 0,
        };
        let mut missed: HashSet<ShardId> = HashSet::new();
        if up.len() >= 2 {
            let since = self.last_sync;
            let deltas: Vec<SyncDelta> = up
                .iter()
                .map(|id| self.shards[id.as_u64() as usize].delta_since(since))
                .collect();
            for (si, &sender) in up.iter().enumerate() {
                for &receiver in &up {
                    if sender == receiver {
                        continue;
                    }
                    if drop(sender, receiver) {
                        stats.dropped += 1;
                        missed.insert(receiver);
                        continue;
                    }
                    let delta = if self.needs_full.contains(&receiver) {
                        // Rejoining shard: replay everything.
                        self.shards[sender.as_u64() as usize].delta_since(SimTime::ZERO)
                    } else {
                        deltas[si].clone()
                    };
                    stats.summaries += delta.updated.len() as u64;
                    stats.removals += delta.removed.len() as u64;
                    self.shards[receiver.as_u64() as usize].apply_delta(&delta);
                }
            }
            for id in &up {
                self.shards[id.as_u64() as usize].note_sync_round();
            }
        }
        self.needs_full.clear();
        self.needs_full.extend(missed);
        self.last_sync = now;
        stats
    }

    /// Housekeeping across all up shards; returns every pruned id.
    pub fn prune(&mut self, now: SimTime, grace: SimDuration) -> Vec<NodeId> {
        let mut pruned = Vec::new();
        for shard in &mut self.shards {
            if !self.down.contains(&shard.id()) {
                pruned.extend(shard.prune(now, grace));
            }
        }
        pruned.sort();
        pruned.dedup();
        pruned
    }

    /// Total discovery queries served across shards.
    pub fn discoveries_served(&self) -> u64 {
        self.shards.iter().map(|s| s.counters().discoveries).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use armada_types::NodeClass;

    fn west() -> GeoPoint {
        GeoPoint::new(44.98, -93.80)
    }

    fn east() -> GeoPoint {
        GeoPoint::new(44.98, -92.60)
    }

    fn status(id: u64, loc: GeoPoint) -> NodeStatus {
        NodeStatus {
            node: NodeId::new(id),
            class: NodeClass::Volunteer,
            location: loc,
            attached_users: 0,
            load_score: 0.0,
        }
    }

    /// Two shards, two nodes per side.
    fn two_shard_cluster() -> FederatedCluster {
        let sites = [
            west(),
            west().offset_km(2.0, 0.0),
            east(),
            east().offset_km(2.0, 0.0),
        ];
        let map = ShardMap::partition(&sites, 2);
        let mut cluster = FederatedCluster::new(
            map,
            SystemConfig::default(),
            GlobalSelectionPolicy::default(),
        );
        for (i, loc) in sites.into_iter().enumerate() {
            let accepted = cluster.register(status(i as u64, loc), SimTime::ZERO);
            assert!(accepted.is_some());
        }
        cluster
    }

    #[test]
    fn registrations_route_to_distinct_home_shards() {
        let cluster = two_shard_cluster();
        let counts: Vec<usize> = cluster.shards().iter().map(|s| s.own_count()).collect();
        assert_eq!(counts, vec![2, 2]);
    }

    #[test]
    fn border_discovery_sees_neighbour_nodes_after_sync() {
        let mut cluster = two_shard_cluster();
        cluster.sync_round(SimTime::ZERO);
        // A user midway between the regions asks for 4 candidates: both
        // shards' nodes must appear regardless of which side is home.
        let mid = GeoPoint::new(44.98, -93.20);
        let got = cluster
            .discover(mid, &[], 4, SimTime::from_secs(1))
            .unwrap();
        assert!(!got.failed_over());
        assert_eq!(got.candidates.len(), 4, "border merge must span shards");
    }

    #[test]
    fn discovery_fails_over_to_next_nearest_shard() {
        let mut cluster = two_shard_cluster();
        cluster.sync_round(SimTime::ZERO);
        let user = west().offset_km(0.5, 0.5);
        let home = cluster.home(user);
        assert!(cluster.kill(home));
        let got = cluster
            .discover(user, &[], 4, SimTime::from_secs(1))
            .unwrap();
        assert!(got.failed_over());
        assert_ne!(got.served_by, home);
        // Served entirely from synced summaries + the fallback's own
        // registry: all four nodes are still discoverable.
        assert_eq!(got.candidates.len(), 4);
    }

    #[test]
    fn all_shards_down_yields_none() {
        let mut cluster = two_shard_cluster();
        cluster.kill(ShardId::new(0));
        cluster.kill(ShardId::new(1));
        assert!(cluster
            .discover(west(), &[], 3, SimTime::from_secs(1))
            .is_none());
        assert!(cluster.register(status(9, west()), SimTime::ZERO).is_none());
    }

    #[test]
    fn revived_shard_gets_a_full_resync() {
        let mut cluster = two_shard_cluster();
        cluster.sync_round(SimTime::ZERO);
        let dead = ShardId::new(1);
        cluster.kill(dead);
        // Progress happens while shard 1 is away: node 4 registers west.
        cluster.register(status(4, west().offset_km(1.0, 1.0)), SimTime::from_secs(1));
        cluster.sync_round(SimTime::from_secs(2));
        cluster.revive(dead);
        cluster.sync_round(SimTime::from_secs(4));
        // Shard 1 now discovers node 4 even though it missed the round
        // where the registration was originally shipped.
        let east_user = east().offset_km(0.2, 0.2);
        let got = cluster
            .discover(east_user, &[], 5, SimTime::from_secs(5))
            .unwrap();
        assert_eq!(got.served_by, dead);
        assert!(
            got.candidates.contains(&NodeId::new(4)),
            "full resync must replay missed registrations, got {:?}",
            got.candidates
        );
    }

    #[test]
    fn heartbeats_to_a_dead_home_shard_are_dropped() {
        let mut cluster = two_shard_cluster();
        let home = cluster.home(west());
        cluster.kill(home);
        assert!(cluster
            .heartbeat(status(0, west()), SimTime::from_secs(2))
            .is_none());
    }

    #[test]
    fn sync_round_counters_accumulate() {
        let mut cluster = two_shard_cluster();
        // Sync strictly after the t=0 registrations: the delta cutoff is
        // inclusive, so a round at the exact registration instant would
        // (harmlessly but measurably) re-ship them next time.
        let stats = cluster.sync_round(SimTime::from_millis(1));
        assert_eq!(stats.round, 1);
        assert_eq!(stats.participants, 2);
        assert_eq!(stats.summaries, 4, "2 own nodes shipped each way");
        // Nothing changed since: the next round ships nothing.
        let stats = cluster.sync_round(SimTime::from_millis(2));
        assert_eq!(stats.round, 2);
        assert_eq!(stats.summaries, 0);
    }

    #[test]
    fn single_shard_cluster_needs_no_sync_to_discover() {
        let sites = [west(), east()];
        let map = ShardMap::partition(&sites, 1);
        let mut cluster = FederatedCluster::new(
            map,
            SystemConfig::default(),
            GlobalSelectionPolicy::default(),
        );
        cluster.register(status(0, west()), SimTime::ZERO);
        cluster.register(status(1, east()), SimTime::ZERO);
        let got = cluster
            .discover(west(), &[], 2, SimTime::from_secs(1))
            .unwrap();
        assert_eq!(got.candidates.len(), 2);
        let stats = cluster.sync_round(SimTime::from_secs(1));
        assert_eq!(stats.participants, 1);
        assert_eq!(stats.summaries, 0);
    }
}
