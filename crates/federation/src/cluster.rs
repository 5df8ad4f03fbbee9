//! The federated control plane: K shards, a shard map, summary sync,
//! and shard-level failure handling.

use std::collections::HashSet;

use armada_manager::{CentralManager, GlobalSelectionPolicy, Narrator};
use armada_node::NodeStatus;
use armada_trace::Tracer;
use armada_types::{GeoPoint, NodeId, ShardId, SimTime, SystemConfig};

use crate::map::ShardMap;

/// Aggregate outcome of one sync round, for tests and benches (the
/// trace has one `fed.sync` per delivered push instead).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncStats {
    /// Ordinal of this round (1-based).
    pub round: u64,
    /// Up shards that exchanged pushes.
    pub participants: usize,
    /// Summaries shipped across all pairs this round.
    pub summaries: u64,
    /// Pushes lost in transit this round (fault injection via
    /// [`FederatedCluster::sync_round_filtered`]).
    pub dropped: u64,
}

/// One discovery served by a user's home shard.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedDiscovery {
    /// The user's home shard (first in route order), which served.
    pub home: ShardId,
    /// The candidate shortlist, best first.
    pub candidates: Vec<NodeId>,
}

/// The geo-federated manager tier: a [`ShardMap`] plus one
/// [`CentralManager`] per site, indexed by [`ShardId`]. A standalone
/// manager is a federation of one.
///
/// Registration and heartbeats route to the node's home shard; a
/// discovery is served by the shard it is addressed to
/// ([`FederatedCluster::discover_at`]) — walking the route order past a
/// shard that is down is the client's job.
/// [`FederatedCluster::sync_round`] has every up shard push its own
/// records to every other.
#[derive(Debug, Clone)]
pub struct FederatedCluster {
    map: ShardMap,
    shards: Vec<CentralManager>,
    down: HashSet<ShardId>,
    rounds: u64,
}

impl FederatedCluster {
    /// Builds the cluster for `map`, all shards up and empty.
    pub fn new(map: ShardMap, config: SystemConfig, policy: GlobalSelectionPolicy) -> Self {
        let shards = map
            .sites()
            .iter()
            .map(|_| CentralManager::new(config, policy))
            .collect();
        FederatedCluster {
            map,
            shards,
            down: HashSet::new(),
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

    /// The shards' managers, indexed by [`ShardId`].
    pub fn shards(&self) -> &[CentralManager] {
        &self.shards
    }

    /// One shard's manager by id.
    pub fn shard(&self, id: ShardId) -> Option<&CentralManager> {
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
    /// the next sync round's pushes are its resync. Returns `false` if
    /// it was not down.
    pub fn revive(&mut self, id: ShardId) -> bool {
        self.down.remove(&id)
    }

    /// Routes a registration to the node's home shard. Returns the
    /// accepting shard, or `None` if it is down (the registration is
    /// lost, as a TCP connect to a dead manager would be) or refused
    /// the status ([`CentralManager::register`]).
    pub fn register(&mut self, status: NodeStatus, now: SimTime) -> Option<ShardId> {
        let home = self.map.home(status.location);
        (self.is_up(home) && self.shards[home.as_u64() as usize].register(status, now))
            .then_some(home)
    }

    /// Routes a heartbeat to the node's home shard: `None` if it is
    /// down (the heartbeat is dropped), else whether the shard took it
    /// ([`CentralManager::heartbeat`]; `false` asks the node to
    /// register).
    pub fn heartbeat(&mut self, status: NodeStatus, now: SimTime) -> Option<bool> {
        let home = self.map.home(status.location);
        self.is_up(home)
            .then(|| self.shards[home.as_u64() as usize].heartbeat(status, now))
    }

    /// Serves a discovery query at the user's home shard; `None` while
    /// that shard is down.
    pub fn discover(
        &mut self,
        user_loc: GeoPoint,
        affiliations: &[NodeId],
        top_n: usize,
        now: SimTime,
    ) -> Option<RoutedDiscovery> {
        let home = self.map.home(user_loc);
        let candidates = self.discover_at(home, user_loc, affiliations, top_n, now)?;
        Some(RoutedDiscovery { home, candidates })
    }

    /// Serves a discovery query at shard `id` from its merged view, as
    /// a client walking its route order addresses it; `None` while the
    /// shard is down.
    pub fn discover_at(
        &mut self,
        id: ShardId,
        user_loc: GeoPoint,
        affiliations: &[NodeId],
        top_n: usize,
        now: SimTime,
    ) -> Option<Vec<NodeId>> {
        self.is_up(id)
            .then(|| self.shards[id.as_u64() as usize].discover(user_loc, affiliations, top_n, now))
    }

    /// Runs one sync round: every up shard pushes every record it owns
    /// to every other up shard. Down shards neither send nor receive.
    /// (`_now` is when the round runs; a push is stamped with each
    /// record's own last-heard time, not with it.)
    pub fn sync_round(&mut self, _now: SimTime) -> SyncStats {
        self.sync_round_filtered(&mut |_, _| false, Narrator::at(&Tracer::disabled(), 0))
    }

    /// Like [`FederatedCluster::sync_round`], except `drop` decides per
    /// `(sender, receiver)` pair whether that push is lost in transit
    /// (fault injection), and every push that arrives is narrated as
    /// its receiver's `fed.sync`. The next round's push carries
    /// everything the lost one did, so lossy sync converges as soon as
    /// one arrives.
    pub fn sync_round_filtered(
        &mut self,
        drop: &mut dyn FnMut(ShardId, ShardId) -> bool,
        narrate: Narrator<'_>,
    ) -> SyncStats {
        self.rounds += 1;
        let up: Vec<ShardId> = (0..self.shards.len() as u64)
            .map(ShardId::new)
            .filter(|id| self.is_up(*id))
            .collect();
        let mut stats = SyncStats {
            round: self.rounds,
            participants: up.len(),
            summaries: 0,
            dropped: 0,
        };
        if up.len() >= 2 {
            for &sender in &up {
                let push = self.shards[sender.as_u64() as usize].own_summaries();
                for &receiver in &up {
                    if sender == receiver {
                        continue;
                    }
                    if drop(sender, receiver) {
                        stats.dropped += 1;
                        continue;
                    }
                    stats.summaries += push.len() as u64;
                    let shard = &mut self.shards[receiver.as_u64() as usize];
                    let applied = push
                        .iter()
                        .filter(|r| shard.apply_peer(r.status, r.last_heartbeat))
                        .count() as u64;
                    narrate.synced(receiver, sender, applied);
                }
            }
            for id in &up {
                self.shards[id.as_u64() as usize].note_sync_round();
            }
        }
        stats
    }

    /// Housekeeping across every shard by the manager's one forgetting
    /// rule ([`CentralManager::forget_dead`]); returns how many own
    /// records went. A down shard forgets too: forgetting is a rule of
    /// time, so a revived shard comes back having forgotten what died
    /// while it was away.
    pub fn forget_dead(&mut self, now: SimTime) -> usize {
        let forgotten = self.shards.iter_mut().map(|s| s.forget_dead(now));
        forgotten.map(|p| p.own.len()).sum()
    }

    /// Total discovery queries served across shards.
    pub fn discoveries_served(&self) -> u64 {
        self.shards.iter().map(|s| s.counters().discoveries).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use armada_types::{splitmix64, NodeClass, SimDuration};

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
        let counts: Vec<usize> = cluster
            .shards()
            .iter()
            .map(|s| s.registry().own_len())
            .collect();
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
        assert_eq!(got.home, cluster.map().home(mid));
        assert_eq!(got.candidates.len(), 4, "border merge must span shards");
    }

    #[test]
    fn the_next_shard_of_the_route_serves_a_dead_home_shards_user() {
        let mut cluster = two_shard_cluster();
        cluster.sync_round(SimTime::ZERO);
        let user = west().offset_km(0.5, 0.5);
        let route = cluster.map().route_order(user);
        assert!(cluster.kill(route[0]));
        let now = SimTime::from_secs(1);
        // The dead home serves nobody; walking on is the client's job.
        assert!(cluster.discover(user, &[], 4, now).is_none());
        assert!(cluster.discover_at(route[0], user, &[], 4, now).is_none());
        // Served entirely from synced summaries + the fallback's own
        // registry: all four nodes are still discoverable.
        let got = cluster.discover_at(route[1], user, &[], 4, now).unwrap();
        assert_eq!(got.len(), 4);
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
    fn the_next_push_resyncs_a_revived_shard() {
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
        assert_eq!(got.home, dead);
        assert!(
            got.candidates.contains(&NodeId::new(4)),
            "the push must carry the registration it missed, got {:?}",
            got.candidates
        );
    }

    #[test]
    fn heartbeats_to_a_dead_home_shard_are_dropped() {
        let mut cluster = two_shard_cluster();
        let home = cluster.map().home(west());
        cluster.kill(home);
        assert!(cluster
            .heartbeat(status(0, west()), SimTime::from_secs(2))
            .is_none());
    }

    #[test]
    fn sync_round_counters_accumulate() {
        let mut cluster = two_shard_cluster();
        let stats = cluster.sync_round(SimTime::from_millis(1));
        assert_eq!(stats.round, 1);
        assert_eq!(stats.participants, 2);
        assert_eq!(stats.summaries, 4, "2 own nodes shipped each way");
        // Every round ships the whole own set, changed or not.
        let stats = cluster.sync_round(SimTime::from_millis(2));
        assert_eq!(stats.round, 2);
        assert_eq!(stats.summaries, 4);
        let sent: Vec<u64> = cluster
            .shards()
            .iter()
            .map(|s| s.counters().summaries_sent)
            .collect();
        assert_eq!(sent, vec![4, 4]);
    }

    /// A lost push costs one round of freshness and nothing else.
    #[test]
    fn a_dropped_push_is_healed_by_the_next_round() {
        let mut cluster = two_shard_cluster();
        let (zero, one) = (ShardId::new(0), ShardId::new(1));
        let quiet = Tracer::disabled();
        let stats =
            cluster.sync_round_filtered(&mut |from, _| from == zero, Narrator::at(&quiet, 0));
        assert_eq!((stats.summaries, stats.dropped), (2, 1));
        let mid = GeoPoint::new(44.98, -93.20);
        let now = SimTime::from_secs(1);
        assert_eq!(
            cluster.discover_at(zero, mid, &[], 4, now).unwrap().len(),
            4
        );
        assert_eq!(cluster.discover_at(one, mid, &[], 4, now).unwrap().len(), 2);
        cluster.sync_round(now);
        assert_eq!(cluster.discover_at(one, mid, &[], 4, now).unwrap().len(), 4);
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

    /// The invariant the resync bookkeeping existed for, over seeded
    /// random schedules of registrations, heartbeats, shard kills and
    /// revivals, prunes and lossy rounds: once every shard is back and
    /// one round's pushes all arrive, every shard ranks exactly what a
    /// single manager fed the same accepted traffic ranks.
    #[test]
    fn one_loss_free_round_brings_every_shard_to_the_single_managers_view() {
        const NODES: u64 = 12;
        let mut served = 0;
        for seed in 0..60u64 {
            let k = [1, 2, 4][(seed % 3) as usize];
            let mut state = seed;
            let mut below = move |n: u64| {
                state = splitmix64(state);
                state % n
            };
            let spot = |below: &mut dyn FnMut(u64) -> u64| {
                let km = |r: u64| r as f64 / 10.0 - 40.0;
                west().offset_km(km(below(800)), km(below(800)) + 45.0)
            };
            let sites: Vec<GeoPoint> = (0..NODES).map(|_| spot(&mut below)).collect();
            let (config, policy) = (SystemConfig::default(), GlobalSelectionPolicy::default());
            let mut cluster = FederatedCluster::new(ShardMap::partition(&sites, k), config, policy);
            let mut single = CentralManager::new(config, policy);
            let mut now = SimTime::ZERO;
            for _ in 0..200 {
                now += SimDuration::from_millis(below(400));
                let shard = ShardId::new(below(k as u64));
                let node = below(NODES);
                let mut word = status(node, sites[node as usize]);
                word.load_score = below(30) as f64 / 10.0;
                match below(12) {
                    0 => {
                        if cluster.register(word, now).is_some() {
                            single.register(word, now);
                        }
                    }
                    1..=7 => {
                        if cluster.heartbeat(word, now).is_some() {
                            single.heartbeat(word, now);
                        }
                    }
                    8 => drop(cluster.kill(shard)),
                    9 => drop(cluster.revive(shard)),
                    10 => {
                        cluster.forget_dead(now);
                        single.forget_dead(now);
                    }
                    _ => {
                        let quiet = Tracer::disabled();
                        cluster.sync_round_filtered(
                            &mut |_, _| below(2) == 0,
                            Narrator::at(&quiet, 0),
                        );
                    }
                }
            }
            for id in 0..k as u64 {
                cluster.revive(ShardId::new(id));
            }
            cluster.sync_round(now);
            for _ in 0..8 {
                let (user, top_n) = (spot(&mut below), 1 + below(5) as usize);
                let expected = single.ranked_candidates(user, &[], top_n, now);
                served += expected.len();
                for (id, shard) in cluster.shards().iter().enumerate() {
                    assert_eq!(
                        shard.ranked_candidates(user, &[], top_n, now),
                        expected,
                        "seed {seed}, K = {k}, shard {id}"
                    );
                }
            }
        }
        assert!(
            served > 500,
            "the schedules left too little alive: {served}"
        );
    }
}
