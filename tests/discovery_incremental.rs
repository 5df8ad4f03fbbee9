//! Incremental-maintenance differential suite for discovery snapshots.
//!
//! The manager now publishes epoch-numbered snapshots that are
//! *incrementally maintained*: each mutation copies only the sharded
//! sub-structures it touches, and `published()` memoises the snapshot
//! per epoch. This suite interleaves registrations, heartbeats (moving
//! and stationary), departures and prunes with snapshot queries across
//! many epochs and checks, after every epoch, that the incrementally
//! published snapshot is indistinguishable from
//!
//! 1. a **from-scratch rebuild** — a fresh manager replaying the whole
//!    op log, whose snapshot never benefited from sharing; and
//! 2. the **reference oracle** (`reference_ranked`: per-round full
//!    scans + full sort) evaluated on the published snapshot itself.
//!
//! Retained early snapshots must also keep answering with their frozen
//! epoch's view, byte-for-byte, however much the manager mutates
//! afterwards.

use std::collections::BTreeMap;

use armada::manager::{CentralManager, GlobalSelectionPolicy, NodeRecord};
use armada::node::NodeStatus;
use armada::types::{GeoPoint, NodeClass, NodeId, SimDuration, SimTime, SystemConfig};

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
        1 => NodeClass::Dedicated,
        _ => NodeClass::Cloud,
    }
}

/// One entry of the seeded op log both managers replay.
#[derive(Debug, Clone, Copy)]
enum Op {
    Register(NodeStatus, SimTime),
    Heartbeat(NodeStatus, SimTime),
    Leave(NodeId),
    Prune(SimTime, SimDuration),
}

fn apply(manager: &mut CentralManager, op: Op) {
    match op {
        Op::Register(status, at) => {
            manager.register(status, at);
        }
        Op::Heartbeat(status, at) => {
            manager.heartbeat(status, at);
        }
        Op::Leave(node) => manager.node_left(node),
        Op::Prune(at, grace) => {
            manager.prune_dead(at, grace);
        }
    }
}

fn sample_location(rng: &mut Rng) -> GeoPoint {
    if rng.next_f64() < 0.8 {
        let (lat, lon) = METROS[rng.range(METROS.len() as u64) as usize];
        GeoPoint::new(lat, lon).offset_km(
            rng.next_f64() * 200.0 - 100.0,
            rng.next_f64() * 200.0 - 100.0,
        )
    } else {
        GeoPoint::new(
            rng.next_f64() * 170.0 - 85.0,
            rng.next_f64() * 360.0 - 180.0,
        )
    }
}

/// Generates one epoch's worth of ops against the evolving fleet.
/// `statuses` tracks every id ever registered so heartbeats can be
/// stationary (same location bit-for-bit) or moving.
fn epoch_ops(rng: &mut Rng, statuses: &mut Vec<NodeStatus>, now: SimTime, count: usize) -> Vec<Op> {
    let mut ops = Vec::with_capacity(count);
    for _ in 0..count {
        let roll = rng.range(100);
        if roll < 20 || statuses.is_empty() {
            let status = NodeStatus {
                node: NodeId::new(statuses.len() as u64),
                class: node_class(rng.next_u64()),
                location: sample_location(rng),
                attached_users: rng.range(8) as usize,
                load_score: (rng.range(13) as f64) * 0.25,
            };
            statuses.push(status);
            ops.push(Op::Register(status, now));
        } else if roll < 30 {
            let idx = rng.range(statuses.len() as u64) as usize;
            ops.push(Op::Leave(statuses[idx].node));
        } else {
            let idx = rng.range(statuses.len() as u64) as usize;
            let status = &mut statuses[idx];
            status.load_score = (rng.range(13) as f64) * 0.25;
            if rng.range(4) == 0 {
                // A moving heartbeat: the spatial index must follow.
                status.location = status
                    .location
                    .offset_km(rng.next_f64() * 8.0 - 4.0, rng.next_f64() * 8.0 - 4.0);
            }
            ops.push(Op::Heartbeat(*status, now));
        }
    }
    ops
}

/// One discovery request: user location, affiliations, `top_n`, instant.
type Query = (GeoPoint, Vec<NodeId>, usize, SimTime);

/// Probe queries evaluated at every epoch, including degenerate top_n.
fn probe_queries(rng: &mut Rng, fleet: usize, now: SimTime) -> Vec<Query> {
    let mut queries = Vec::new();
    for top_n in [0usize, 1, 7, 16] {
        let (lat, lon) = METROS[rng.range(METROS.len() as u64) as usize];
        let user_loc = GeoPoint::new(lat, lon)
            .offset_km(rng.next_f64() * 50.0 - 25.0, rng.next_f64() * 50.0 - 25.0);
        let affiliations: Vec<NodeId> = (0..rng.range(3) as usize)
            .map(|_| NodeId::new(rng.range(fleet.max(1) as u64)))
            .collect();
        queries.push((user_loc, affiliations, top_n, now));
    }
    queries
}

/// The frozen record table, sorted — the ground truth two snapshots of
/// the same logical state must agree on exactly.
fn sorted_records(snapshot: &armada::manager::DiscoverySnapshot) -> BTreeMap<u64, NodeRecord> {
    snapshot
        .records()
        .map(|(id, r)| (id.as_u64(), *r))
        .collect()
}

#[test]
fn interleaved_mutations_keep_published_snapshots_byte_identical() {
    const EPOCHS: usize = 48;
    const OPS_PER_EPOCH: usize = 40;

    let mut rng = Rng::new(0x1ecf_ea51);
    let mut live = CentralManager::new(SystemConfig::default(), GlobalSelectionPolicy::default());
    let mut statuses: Vec<NodeStatus> = Vec::new();
    let mut log: Vec<Op> = Vec::new();
    let mut retained = None;

    for epoch in 0..EPOCHS {
        // Virtual time advances half a second per epoch, so liveness
        // deadlines keep moving: un-heartbeated nodes age out and the
        // periodic prune has real work to do.
        let now = SimTime::from_millis(500 * epoch as u64);
        let mut ops = epoch_ops(&mut rng, &mut statuses, now, OPS_PER_EPOCH);
        if epoch > 0 && epoch % 8 == 0 {
            ops.push(Op::Prune(now, SimDuration::from_secs(2)));
        }
        for op in ops {
            apply(&mut live, op);
            log.push(op);
        }

        // The incrementally maintained published snapshot…
        let snap = live.published();
        // …must be indistinguishable from a from-scratch replay of the
        // identical op log into a fresh manager.
        let mut rebuilt =
            CentralManager::new(SystemConfig::default(), GlobalSelectionPolicy::default());
        for op in &log {
            apply(&mut rebuilt, *op);
        }
        let rebuilt_snap = rebuilt.snapshot();

        assert_eq!(snap.epoch(), rebuilt_snap.epoch(), "epoch {epoch}");
        assert_eq!(snap.len(), rebuilt_snap.len(), "epoch {epoch}");
        assert_eq!(
            sorted_records(&snap),
            sorted_records(&rebuilt_snap),
            "record tables diverged at epoch {epoch}"
        );
        assert_eq!(
            snap.alive_count(now),
            rebuilt_snap.alive_count(now),
            "epoch {epoch}"
        );

        for (q, (user_loc, affiliations, top_n, at)) in probe_queries(&mut rng, statuses.len(), now)
            .iter()
            .enumerate()
        {
            let fast = snap.ranked(*user_loc, affiliations, *top_n, *at);
            let rebuilt_answer = rebuilt_snap.ranked(*user_loc, affiliations, *top_n, *at);
            let oracle = snap.reference_ranked(*user_loc, affiliations, *top_n, *at);
            assert_eq!(fast, rebuilt_answer, "epoch {epoch} probe {q} vs rebuild");
            assert_eq!(fast, oracle, "epoch {epoch} probe {q} vs oracle");
        }

        // Freeze one mid-run snapshot together with its answers; later
        // epochs must not be able to reach into it.
        if epoch == EPOCHS / 3 {
            let queries = probe_queries(&mut rng, statuses.len(), now);
            let answers: Vec<_> = queries
                .iter()
                .map(|(user_loc, affiliations, top_n, at)| {
                    snap.ranked(*user_loc, affiliations, *top_n, *at)
                })
                .collect();
            retained = Some((snap, queries, answers));
        }
    }

    // The retained snapshot still serves its frozen epoch, unchanged
    // by dozens of epochs of later churn.
    let (snap, queries, answers) = retained.expect("retained one snapshot mid-run");
    for ((user_loc, affiliations, top_n, at), expected) in queries.iter().zip(&answers) {
        assert_eq!(
            snap.ranked(*user_loc, affiliations, *top_n, *at),
            *expected,
            "retained snapshot changed under later churn"
        );
    }

    // The final published snapshot is memoised: no mutations since the
    // last call, so the Arc is literally the same allocation.
    let a = live.published();
    let b = live.published();
    assert!(std::sync::Arc::ptr_eq(&a, &b));
}
