//! Differential oracle suite for the discovery engine rewrite.
//!
//! The fast path (`discover_shortlist`: incremental disk scan + bounded
//! partial select, served off a copy-on-write snapshot) must be
//! byte-for-byte identical to the retained reference implementation
//! (`armada_manager::reference::widen_and_rank`: per-round full scans +
//! full sort). Both are asked every query here on the *same* frozen
//! snapshot, over seeded random fleets mixing node classes, dead
//! entries and clustered/uniform geography — more than 1000 queries in
//! total, and 300 more on each of two world-scale fleets (2 000 and
//! 20 000 nodes) — zero mismatches tolerated.

use armada::manager::{CentralManager, Engine, GlobalSelectionPolicy};
use armada::node::NodeStatus;
use armada::types::{GeoPoint, NodeClass, NodeId, SimTime, SystemConfig};

/// Deterministic splitmix64 — the same in-repo generator the benches
/// use; no external dependency, bit-stable across platforms.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// World metros the clustered layout gathers nodes around — spread
/// across hemispheres so the scan's date-line/pole handling is hit.
const METROS: [(f64, f64); 6] = [
    (44.98, -93.26),  // Minneapolis
    (40.71, -74.00),  // New York
    (51.50, -0.12),   // London
    (35.68, 139.69),  // Tokyo
    (-33.87, 151.21), // Sydney
    (-17.71, 178.06), // Suva — puts offsets across the antimeridian
];

fn node_class(r: u64) -> NodeClass {
    match r % 3 {
        0 => NodeClass::Volunteer,
        1 => NodeClass::Dedicated, // the paper's AWS Local Zone tier
        _ => NodeClass::Cloud,
    }
}

/// Where a fleet's nodes stand.
#[derive(Clone, Copy)]
enum Layout {
    /// Every node within 60 km of a metro.
    Clustered,
    /// Uniform over the globe.
    Uniform,
    /// The discovery-scale world: 80 % within 120 km of a metro, the
    /// rest uniform. A metro holds a sixth of the fleet spread over a
    /// 240 km box, sparse enough that the selector takes the ring scan.
    World,
}

struct Fleet {
    manager: CentralManager,
    /// Every registered id, alive or dead.
    all_ids: Vec<NodeId>,
    alive_total: usize,
    /// The instant queries are evaluated at.
    now: SimTime,
}

/// Builds a seeded fleet: register everything at t=0, heartbeat ~90% at
/// t=30 s, query at t=31 s — with a 2 s × 3 liveness budget the silent
/// 10% are dead at query time but still occupy the spatial index.
fn build_fleet(seed: u64, n: usize, layout: Layout) -> Fleet {
    let mut rng = Rng::new(seed);
    let mut manager =
        CentralManager::new(SystemConfig::default(), GlobalSelectionPolicy::default());
    let mut all_ids = Vec::with_capacity(n);
    let mut statuses = Vec::with_capacity(n);
    for i in 0..n {
        let half_width_km = match layout {
            Layout::Clustered => Some(60.0),
            Layout::World if rng.next_f64() < 0.8 => Some(120.0),
            _ => None,
        };
        let location = if let Some(half) = half_width_km {
            let (lat, lon) = METROS[rng.range(METROS.len() as u64) as usize];
            let center = GeoPoint::new(lat, lon);
            center.offset_km(
                rng.next_f64() * 2.0 * half - half,
                rng.next_f64() * 2.0 * half - half,
            )
        } else {
            GeoPoint::new(
                rng.next_f64() * 170.0 - 85.0,
                rng.next_f64() * 360.0 - 180.0,
            )
        };
        let status = NodeStatus {
            node: NodeId::new(i as u64),
            class: node_class(rng.next_u64()),
            location,
            attached_users: rng.range(8) as usize,
            load_score: (rng.range(13) as f64) * 0.25,
        };
        manager.register(status, SimTime::ZERO);
        all_ids.push(status.node);
        statuses.push(status);
    }
    let refresh = SimTime::from_secs(30);
    let mut alive_total = 0;
    for status in &statuses {
        if rng.next_f64() < 0.9 {
            manager.heartbeat(*status, refresh);
            alive_total += 1;
        }
    }
    Fleet {
        manager,
        all_ids,
        alive_total,
        now: SimTime::from_secs(31),
    }
}

/// A query point: near a metro half the time, anywhere otherwise.
fn query_point(rng: &mut Rng) -> GeoPoint {
    if rng.next_u64().is_multiple_of(2) {
        let (lat, lon) = METROS[rng.range(METROS.len() as u64) as usize];
        GeoPoint::new(lat, lon)
            .offset_km(rng.next_f64() * 60.0 - 30.0, rng.next_f64() * 60.0 - 30.0)
    } else {
        GeoPoint::new(
            rng.next_f64() * 170.0 - 85.0,
            rng.next_f64() * 360.0 - 180.0,
        )
    }
}

fn affiliations(rng: &mut Rng, ids: &[NodeId]) -> Vec<NodeId> {
    let count = rng.range(4) as usize;
    (0..count)
        .map(|_| ids[rng.range(ids.len() as u64) as usize])
        .collect()
}

/// Runs `queries` differential queries against one fleet, panicking on
/// the first mismatch; returns how many were checked.
fn differential_queries(fleet: &Fleet, seed: u64, queries: usize) -> usize {
    let mut rng = Rng::new(seed ^ 0xfeed_f00d);
    let snap = fleet.manager.snapshot();
    // The edge top_n values the satellite spec calls out, then random.
    let edge_top_n = [0usize, 1, fleet.alive_total, fleet.alive_total + 7];
    for q in 0..queries {
        let user_loc = query_point(&mut rng);
        let affiliated = affiliations(&mut rng, &fleet.all_ids);
        let top_n = if q < edge_top_n.len() {
            edge_top_n[q]
        } else {
            1 + rng.range(48) as usize
        };
        let fast = snap.ranked(user_loc, &affiliated, top_n, fleet.now);
        let oracle = snap.reference_ranked(user_loc, &affiliated, top_n, fleet.now);
        assert_eq!(
            fast, oracle,
            "shortlist mismatch: seed={seed} query={q} top_n={top_n} loc={user_loc}"
        );
        assert!(fast.len() <= top_n, "shortlist longer than requested");
    }
    queries
}

/// The headline acceptance check: ≥ 1000 seeded queries across mixed
/// fleets, zero shortlist mismatches between the fast engine and the
/// reference oracle.
#[test]
fn fast_engine_matches_reference_oracle_across_seeded_fleets() {
    let mut total = 0usize;
    for seed in 0..10u64 {
        let mixed = if seed % 2 == 0 {
            Layout::Clustered
        } else {
            Layout::Uniform
        };
        for (n, layout) in [
            (130, Layout::Clustered),
            (130, Layout::Uniform),
            (320, mixed),
        ] {
            let fleet = build_fleet(seed, n, layout);
            assert!(fleet.alive_total > 0, "degenerate fleet at seed {seed}");
            total += differential_queries(&fleet, seed, 36);
        }
    }
    assert!(total >= 1000, "only {total} differential queries ran");

    // The same identity at scale, where the ring scan serves.
    for n in [2_000, 20_000] {
        let fleet = build_fleet(1717, n, Layout::World);
        let mut rng = Rng::new(n as u64);
        let snap = fleet.manager.snapshot();
        let ring = (0..100)
            .filter(|_| snap.engine(query_point(&mut rng)) == Engine::Ring)
            .count();
        assert!(ring > 0, "no query took the ring scan at {n} nodes");
        differential_queries(&fleet, n as u64, 300);
    }
}

/// All-dead and empty fleets are legitimate states (mass churn, cold
/// start): both engines must agree on the empty answer too.
#[test]
fn engines_agree_when_nothing_is_alive() {
    let mut manager =
        CentralManager::new(SystemConfig::default(), GlobalSelectionPolicy::default());
    let home = GeoPoint::new(44.98, -93.26);
    // Empty manager first.
    let snap = manager.snapshot();
    assert_eq!(
        snap.ranked(home, &[], 5, SimTime::ZERO),
        snap.reference_ranked(home, &[], 5, SimTime::ZERO)
    );
    assert!(snap.ranked(home, &[], 5, SimTime::ZERO).is_empty());
    // Now a fleet that has entirely stopped heartbeating.
    for i in 0..50u64 {
        manager.register(
            NodeStatus {
                node: NodeId::new(i),
                class: node_class(i),
                location: home.offset_km(i as f64 * 7.0, 0.0),
                attached_users: 0,
                load_score: 0.0,
            },
            SimTime::ZERO,
        );
    }
    let late = SimTime::from_secs(600);
    let snap = manager.snapshot();
    for top_n in [0usize, 1, 8, 64] {
        let fast = snap.ranked(home, &[], top_n, late);
        let oracle = snap.reference_ranked(home, &[], top_n, late);
        assert_eq!(fast, oracle);
        assert!(fast.is_empty(), "dead fleet must yield nothing");
    }
}

/// Mutating the manager between snapshots must keep each frozen view
/// self-consistent: the differential identity holds on the old snapshot
/// even after the live registry has moved on.
#[test]
fn identity_holds_on_stale_snapshots() {
    let fleet = build_fleet(77, 160, Layout::Clustered);
    let mut manager = fleet.manager;
    let old = manager.snapshot();
    // Churn: kill a third, move a third, add newcomers.
    let churn_time = SimTime::from_secs(32);
    for i in 0..60u64 {
        manager.node_left(NodeId::new(i));
    }
    for i in 200..240u64 {
        manager.register(
            NodeStatus {
                node: NodeId::new(i),
                class: node_class(i),
                location: GeoPoint::new(10.0, 10.0 + i as f64 * 0.01),
                attached_users: 0,
                load_score: 0.1,
            },
            churn_time,
        );
    }
    let mut rng = Rng::new(4242);
    for _ in 0..40 {
        let loc = query_point(&mut rng);
        let top_n = 1 + rng.range(20) as usize;
        assert_eq!(
            old.ranked(loc, &[], top_n, fleet.now),
            old.reference_ranked(loc, &[], top_n, fleet.now),
            "stale snapshot diverged"
        );
    }
    let fresh = manager.snapshot();
    assert!(fresh.epoch() > old.epoch());
    for _ in 0..40 {
        let loc = query_point(&mut rng);
        let top_n = 1 + rng.range(20) as usize;
        assert_eq!(
            fresh.ranked(loc, &[], top_n, churn_time),
            fresh.reference_ranked(loc, &[], top_n, churn_time),
            "fresh snapshot diverged"
        );
    }
}
