//! The widening geo-filter + ranking step, shared between control-plane
//! tiers.
//!
//! Every manager serves discovery with exactly this procedure, through
//! one [`DiscoverySnapshot`](crate::DiscoverySnapshot): the simulated
//! [`CentralManager`](crate::CentralManager), the shards of a
//! geo-federated manager tier, and the live TCP manager, which drives
//! such a shard. Sharing the implementation (rather than the idea) is
//! what makes the federation's border-merge behaviour provably
//! identical to the single-manager baseline, and the live manager's
//! answers the simulator's: given the same view of alive nodes, all
//! produce byte-for-byte the same shortlist.
//!
//! The procedure: start at `proximity_radius_km`, take every alive node
//! with `d ≤ r`, double `r` while fewer than `top_n` alive nodes lie
//! inside (or until the disk covers every node), then keep the best
//! `top_n` by `(score, NodeId)`. The original implementation lives on in
//! [`crate::reference`] as the differential-test oracle;
//! `tests/discovery_equivalence.rs` holds the engines here byte-identical
//! to it over seeded random fleets.
//!
//! # Two candidate generators and a selector
//!
//! * The **ring scan** walks an incremental [`DiskScan`](armada_geo::DiskScan)
//!   over the proximity index: each geohash cell is visited at most once
//!   across all widening rounds, each node it reaches pays a haversine,
//!   and a bounded partial select replaces the full sort. Its cost
//!   follows the nodes *near* the user, so it wins on a sparse or
//!   clustered fleet.
//! * The **flat pass** ([`flat_shortlist`]) walks every alive record
//!   once per radius round through the score floors of
//!   [`GlobalSelectionPolicy`]'s bounded select: a candidate that cannot
//!   beat the worst one kept is dropped on its load alone or on its
//!   latitude gap, so few pay a haversine. Its cost follows the fleet,
//!   so it wins where the starting disk holds much of the fleet — a
//!   dense metro.
//!
//! A snapshot picks per query ([`engine_for`]): the flat pass when the
//! coarse index cells around the starting disk hold at least a quarter
//! of the indexed fleet, the ring scan otherwise. Both answer alike, so
//! the choice only moves time.
//!
//! # Why the outputs are identical
//!
//! All three follow the same radius schedule (`proximity_radius_km`,
//! doubling) and, per round, consider exactly the `within_km` member
//! set: the disk scan's cumulative emissions equal the full scan by
//! construction; the flat pass measures every alive record's distance
//! with the same formula (`GeoPoint::distance_km`, to which the index's
//! cached trig is bit-identical) and drops one only when its latitude
//! gap, a lower bound on that distance as computed, already exceeds the
//! radius — or when a floor places it behind `top_n` kept candidates,
//! which it could not displace. The loop exits differ in form but not in
//! effect:
//!
//! * the reference stops once `want = top_n.min(alive_total)` alive
//!   candidates are in view; the ring scan stops at `top_n` alive
//!   candidates *or* scan exhaustion, the flat pass at `top_n` *or* no
//!   alive record outside the disk. When `alive_total < top_n` these
//!   stop at different radii, but every alive node is already inside at
//!   the earliest of them, so any later round adds nothing alive and the
//!   ranked shortlist cannot change.
//! * the flat pass's shortlist fills exactly when `top_n` alive nodes
//!   lie inside: a floor drops candidates only once it is full, so a
//!   round that ends short of `top_n` has classified every record.
//! * ranking is input-order-insensitive (strict total order on
//!   `(score, id)`), so candidate arrival order is irrelevant, and the
//!   bounded partial-select provably equals full-sort + truncate under
//!   that same order, floors included.
//!
//! Both read the same frozen view: a [`CentralManager`](crate::CentralManager)
//! indexes exactly the records its registry holds, at their reported
//! locations. Neither needs `alive_total`, so no query pays an O(N)
//! census.

use armada_geo::{ProximityIndex, GLOBE_COVER_RADIUS_KM};
use armada_node::NodeStatus;
use armada_types::{GeoPoint, NodeId, SimTime};

use crate::registry::NodeRegistry;
use crate::selection::{GlobalSelectionPolicy, ScoredCandidate};

/// The candidate generator a query is served by: why there are two, and
/// how one is picked, is in `discovery.rs`'s module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// One floored walk over every alive record per radius round.
    Flat,
    /// The expanding ring scan over the proximity index.
    Ring,
}

/// The flat pass serves a query when the coarse cells around the
/// starting disk hold at least `1 / FLAT_SHARE` of the indexed fleet: it
/// walks every record at a few nanoseconds each, where the ring scan
/// pays over a hundred for each node its cover reaches.
const FLAT_SHARE: usize = 4;

/// Picks the generator for a query at `user_loc` from how crowded the
/// starting disk is ([`ProximityIndex::count_near`] against
/// [`ProximityIndex::len`]).
pub(crate) fn engine_for(index: &ProximityIndex, radius_km: f64, user_loc: GeoPoint) -> Engine {
    let near = index.count_near(user_loc, radius_km.max(0.1));
    if near.saturating_mul(FLAT_SHARE) >= index.len() {
        Engine::Flat
    } else {
        Engine::Ring
    }
}

/// Serves one discovery query with the flat pass: the best `top_n`
/// alive records of `records` at `now` within the widening radius
/// (starting at `radius_km`) of `user_loc`, ranked by `policy`, best
/// first.
///
/// Reads no proximity index, so widening walks the records again: a
/// dense fleet rarely widens. Byte-identical to
/// [`crate::reference::widen_and_rank`] on a view whose index holds the
/// same records; `discovery.rs`'s module docs give the argument.
pub(crate) fn flat_shortlist(
    radius_km: f64,
    policy: &GlobalSelectionPolicy,
    records: &NodeRegistry,
    now: SimTime,
    user_loc: GeoPoint,
    affiliations: &[NodeId],
    top_n: usize,
) -> Vec<ScoredCandidate> {
    let mut radius = radius_km.max(0.1);
    loop {
        let alive = records.alive(now).map(|record| &record.status);
        let (shortlist, beyond) = policy.rank_within(user_loc, radius, alive, affiliations, top_n);
        if shortlist.len() == top_n || !beyond || radius >= GLOBE_COVER_RADIUS_KM {
            return shortlist;
        }
        radius *= 2.0;
    }
}

/// Serves one discovery query with the ring scan, against an arbitrary
/// liveness view: `alive_status` returns the status for a node id iff
/// that node is currently considered alive (nodes the view holds but the
/// index doesn't are simply undiscoverable — the scan terminates
/// regardless).
///
/// The geo-proximity filter starts at `radius_km` and widens (doubling)
/// until at least `top_n` alive candidates are inside or the scan has
/// covered every indexed node. Candidates are then ranked by `policy`,
/// best first, keeping `top_n`.
pub(crate) fn ring_shortlist(
    radius_km: f64,
    policy: &GlobalSelectionPolicy,
    index: &ProximityIndex,
    alive_status: impl Fn(NodeId) -> Option<NodeStatus>,
    user_loc: GeoPoint,
    affiliations: &[NodeId],
    top_n: usize,
) -> Vec<ScoredCandidate> {
    if top_n == 0 {
        return Vec::new();
    }
    let mut radius = radius_km.max(0.1);
    let mut scan = index.disk_scan(user_loc);
    // Each alive candidate keeps the distance the scan measured, so the
    // ranking below never recomputes a haversine.
    let mut alive: Vec<(NodeStatus, f64)> = Vec::new();
    loop {
        for neighbor in scan.extend_to(radius) {
            if let Some(status) = alive_status(neighbor.id) {
                alive.push((status, neighbor.distance_km));
            }
        }
        if alive.len() >= top_n || scan.exhausted() || radius >= GLOBE_COVER_RADIUS_KM {
            break;
        }
        radius *= 2.0;
    }
    policy.rank_top_n_with_distances(alive, affiliations, top_n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CentralManager, DiscoverySnapshot};
    use armada_types::{NodeClass, SystemConfig};

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

    /// Both generators on one frozen view, each against the oracle.
    fn assert_both_match_the_oracle(
        snap: &DiscoverySnapshot,
        user: GeoPoint,
        affiliations: &[NodeId],
        top_n: usize,
        now: SimTime,
        case: &str,
    ) -> Vec<ScoredCandidate> {
        let oracle = snap.reference_ranked(user, affiliations, top_n, now);
        let ring = ring_shortlist(
            snap.config.proximity_radius_km,
            &snap.policy,
            &snap.index,
            |id| snap.alive_status(id, now),
            user,
            affiliations,
            top_n,
        );
        assert_eq!(ring, oracle, "ring scan, {case}, top_n {top_n}");
        let flat = flat_shortlist(
            snap.config.proximity_radius_km,
            &snap.policy,
            &snap.records,
            now,
            user,
            affiliations,
            top_n,
        );
        assert_eq!(flat, oracle, "flat pass, {case}, top_n {top_n}");
        oracle
    }

    /// `top_n` ∈ {0, 1, 3, 16, alive, alive + 7} for a view of `alive`
    /// alive nodes.
    fn top_ns(alive: usize) -> [usize; 6] {
        [0, 1, 3, 16, alive, alive + 7]
    }

    #[test]
    fn widens_until_the_view_is_exhausted() {
        let mut mgr =
            CentralManager::new(SystemConfig::default(), GlobalSelectionPolicy::default());
        for (i, km) in [3.0, 400.0, 900.0].into_iter().enumerate() {
            mgr.register(
                status(i as u64, home().offset_km(km, 0.0), 0.0),
                SimTime::ZERO,
            );
        }
        let snap = mgr.snapshot();
        for top_n in top_ns(3) {
            let got = assert_both_match_the_oracle(&snap, home(), &[], top_n, SimTime::ZERO, "far");
            assert_eq!(got.len(), top_n.min(3));
        }
        let got = snap.ranked(home(), &[], 3, SimTime::ZERO);
        assert_eq!(got[0].node, NodeId::new(0));
    }

    /// One to three widening rounds, a node exactly on a radius, dead
    /// nodes inside and outside the starting disk, scores pushed
    /// negative by affiliations, and exact ties at the cut.
    #[test]
    fn both_generators_match_the_oracle_at_every_edge() {
        let user = home();
        // The starting radius is exactly node 0's distance, so `d == r`
        // must count it in.
        let rim = home().offset_km(37.0, 21.0);
        let config = SystemConfig {
            proximity_radius_km: user.distance_km(rim),
            ..SystemConfig::default()
        };
        let r0 = config.proximity_radius_km;
        let mut mgr = CentralManager::new(config, GlobalSelectionPolicy::default());
        let mut fleet = vec![status(0, rim, 0.5)];
        // Inside r0: twins tied bit for bit (same spot, same load).
        for (id, east) in [(1, 5.0), (2, 5.0), (3, 12.0), (4, 12.0), (5, 20.0)] {
            fleet.push(status(id, home().offset_km(east, 0.0), 0.25));
        }
        // One, two and three rounds out: (r0, 2r0], (2r0, 4r0], (4r0, 8r0].
        for (id, scale) in [(6, 1.5), (7, 1.9), (8, 3.0), (9, 3.5), (10, 6.0), (11, 7.5)] {
            fleet.push(status(id, home().offset_km(0.0, -r0 * scale), 0.0));
        }
        // Dead nodes: 12–14 inside r0, 15–16 out in the second round.
        for (id, east) in [(12, 1.0), (13, 2.0), (14, 30.0)] {
            fleet.push(status(id, home().offset_km(east, 1.0), 0.0));
        }
        for (id, scale) in [(15, 1.2), (16, 2.5)] {
            fleet.push(status(id, home().offset_km(-r0 * scale, 0.0), 0.0));
        }
        for s in &fleet {
            mgr.register(*s, SimTime::ZERO);
        }
        let now = SimTime::from_secs(30);
        for s in fleet
            .iter()
            .filter(|s| !(12..=16).contains(&s.node.as_u64()))
        {
            mgr.heartbeat(*s, now);
        }
        let snap = mgr.snapshot();
        assert_eq!(snap.alive_count(now), 12);
        assert_eq!(
            user.distance_km(rim),
            r0,
            "fixture: node 0 sits on the radius"
        );

        for top_n in top_ns(12) {
            let got = assert_both_match_the_oracle(&snap, user, &[], top_n, now, "plain");
            assert!(got.iter().all(|c| c.node.as_u64() < 12), "dead node served");
        }
        // Alive inside r0, 2r0, 4r0, 8r0: 6, 8, 10, 12. So TopN 6 needs
        // no widening, 7 one round, 9 two and 11 three.
        let inside = assert_both_match_the_oracle(&snap, user, &[], 6, now, "no widening");
        assert!(
            inside.iter().any(|c| c.node == NodeId::new(0)),
            "d == r is inside"
        );
        for (top_n, rounds) in [(7, "one round"), (9, "two rounds"), (11, "three rounds")] {
            let got = assert_both_match_the_oracle(&snap, user, &[], top_n, now, rounds);
            assert_eq!(got.len(), top_n);
        }
        // Twins 1 and 2 tie exactly, and so do 3 and 4: a cut at one
        // (and at three, above) falls between twins and the id decides.
        let (a, b) = (
            snap.records.alive_status(NodeId::new(1), now),
            snap.records.alive_status(NodeId::new(2), now),
        );
        assert_eq!(
            a.map(|s| (s.location, s.load_score)),
            b.map(|s| (s.location, s.load_score))
        );
        let cut = assert_both_match_the_oracle(&snap, user, &[], 1, now, "tie at the cut");
        assert_eq!(cut[0].node, NodeId::new(1));
        // Affiliations: the bonus takes idle near nodes below zero, and
        // an affiliated dead node stays out.
        let affiliations = [NodeId::new(3), NodeId::new(9), NodeId::new(12)];
        for top_n in top_ns(12) {
            let got =
                assert_both_match_the_oracle(&snap, user, &affiliations, top_n, now, "affiliated");
            assert!(got.iter().all(|c| c.node != NodeId::new(12)));
        }
        let best = snap.ranked(user, &affiliations, 1, now);
        assert!(
            best[0].score < 0.0,
            "fixture: the bonus must push a score negative"
        );
        // Fewer alive nodes than TopN, everywhere on the map: from far
        // away every round but the last is empty.
        for far in [
            home().offset_km(-3_000.0, 500.0),
            GeoPoint::new(-44.0, 86.7),
        ] {
            for top_n in top_ns(12) {
                assert_both_match_the_oracle(&snap, far, &affiliations, top_n, now, "far user");
            }
        }
    }

    #[test]
    fn dead_entries_in_the_index_are_skipped() {
        let mut mgr =
            CentralManager::new(SystemConfig::default(), GlobalSelectionPolicy::default());
        for i in 0..3u64 {
            mgr.register(
                status(i, home().offset_km(i as f64 * 2.0, 0.0), 0.0),
                SimTime::ZERO,
            );
        }
        let now = SimTime::from_secs(30);
        for i in 1..3u64 {
            mgr.heartbeat(status(i, home().offset_km(i as f64 * 2.0, 0.0), 0.0), now);
        }
        let snap = mgr.snapshot();
        let got = assert_both_match_the_oracle(&snap, home(), &[], 3, now, "dead");
        assert_eq!(got.len(), 2, "the dead node must not appear");
        assert!(got.iter().all(|c| c.node != NodeId::new(0)));
    }

    #[test]
    fn matches_the_reference_oracle_on_a_small_fleet() {
        let mut mgr =
            CentralManager::new(SystemConfig::default(), GlobalSelectionPolicy::default());
        let now = SimTime::from_secs(30);
        let mut alive = 0;
        for i in 0..150u64 {
            let east = (i as f64 * 37.0) % 1800.0 - 900.0;
            let north = (i as f64 * 53.0) % 1200.0 - 600.0;
            let s = status(
                i,
                home().offset_km(east, north),
                f64::from(i as u32 % 5) * 0.3,
            );
            mgr.register(s, SimTime::ZERO);
            if i % 7 != 0 {
                mgr.heartbeat(s, now); // every 7th node is dead
                alive += 1;
            }
        }
        let snap = mgr.snapshot();
        let affiliations = [NodeId::new(12), NodeId::new(40)];
        for user in [home(), home().offset_km(700.0, -400.0)] {
            for top_n in top_ns(alive).into_iter().chain([128, 200]) {
                assert_both_match_the_oracle(&snap, user, &affiliations, top_n, now, "small");
            }
        }
    }

    /// SplitMix64 in `[0, 1)`, as the benchmarks draw their fleets.
    struct Rng(u64);

    impl Rng {
        fn unit(&mut self) -> f64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        }

        fn around(&mut self, at: GeoPoint, half_km: f64) -> GeoPoint {
            let east = half_km * (2.0 * self.unit() - 1.0);
            at.offset_km(east, half_km * (2.0 * self.unit() - 1.0))
        }

        fn anywhere(&mut self) -> GeoPoint {
            GeoPoint::new(170.0 * self.unit() - 85.0, 360.0 * self.unit() - 180.0)
        }
    }

    /// The share of `users` the selector sends to the flat pass, on an
    /// index of `nodes`.
    fn flat_share(nodes: &[GeoPoint], users: &[GeoPoint]) -> f64 {
        let mut index = ProximityIndex::new();
        for (i, &at) in nodes.iter().enumerate() {
            index.insert(NodeId::new(i as u64), at);
        }
        let radius = SystemConfig::default().proximity_radius_km;
        let flat = users
            .iter()
            .filter(|&&u| engine_for(&index, radius, u) == Engine::Flat)
            .count();
        flat as f64 / users.len() as f64
    }

    /// The reference fleets each land on their side: the benchmark's
    /// dense metros on the flat pass, `discover_scale`'s clustered world
    /// on the ring scan.
    #[test]
    fn the_selector_sends_dense_metros_flat_and_a_clustered_world_to_the_ring() {
        let anchor = GeoPoint::new(44.9778, -93.2650);
        let mut rng = Rng(29);
        // `sim_metro`: 400 nodes and the users over one 60 km disc.
        let disc = |rng: &mut Rng| {
            let (r, a) = (60.0 * rng.unit().sqrt(), std::f64::consts::TAU * rng.unit());
            anchor.offset_km(r * a.cos(), r * a.sin())
        };
        let metro: Vec<GeoPoint> = (0..400).map(|_| disc(&mut rng)).collect();
        let users: Vec<GeoPoint> = (0..400).map(|_| disc(&mut rng)).collect();
        assert_eq!(flat_share(&metro, &users), 1.0, "sim_metro");
        // `fleet_mixed`: 20 000 nodes and the queries over a 100 km box.
        let boxed: Vec<GeoPoint> = (0..20_000).map(|_| rng.around(anchor, 50.0)).collect();
        let users: Vec<GeoPoint> = (0..400).map(|_| rng.around(anchor, 50.0)).collect();
        assert_eq!(flat_share(&boxed, &users), 1.0, "fleet_mixed");
        // `discover_scale`: 80 % within 120 km of six world metros, the
        // rest anywhere; half the queries within 30 km of a metro.
        let metros = [
            (44.98, -93.26),
            (40.71, -74.00),
            (51.50, -0.12),
            (35.68, 139.69),
            (-33.87, 151.21),
            (-17.71, 178.06),
        ]
        .map(|(lat, lon)| GeoPoint::new(lat, lon));
        for n in [2_000, 20_000] {
            let world: Vec<GeoPoint> = (0..n)
                .map(|i| {
                    if rng.unit() < 0.8 {
                        rng.around(metros[i % 6], 120.0)
                    } else {
                        rng.anywhere()
                    }
                })
                .collect();
            let users: Vec<GeoPoint> = (0..400)
                .map(|i| {
                    if i % 2 == 0 {
                        rng.around(metros[i / 2 % 6], 30.0)
                    } else {
                        rng.anywhere()
                    }
                })
                .collect();
            assert_eq!(flat_share(&world, &users), 0.0, "discover_scale at {n}");
        }
    }
}
