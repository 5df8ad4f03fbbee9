//! The original full-scan discovery procedure, retained as the test
//! oracle for the two discovery generators, the ring scan and the
//! flat pass.
//!
//! This is the transparent, obviously-correct implementation: every
//! widening round re-runs a complete `within_km` scan and the final
//! ranking fully sorts all candidates. The ring scan and the flat pass
//! must each produce byte-for-byte the same shortlist — the unit tests
//! beside them and the differential suite in
//! `tests/discovery_equivalence.rs` (up to 20 000 nodes) compare
//! against this module.
//!
//! One behavioural fix over the historical implementation: widening is
//! capped. The original loop doubled the radius until the number of
//! alive candidates reached `alive_total`; if the liveness view counted
//! a node the proximity index did not hold (a transient possible under
//! federation sync races, or simply a caller bug), that count was
//! unreachable and the radius doubled forever toward `f64::INFINITY`.
//! The loop now also stops when the scan covers every indexed node or
//! the radius exceeds [`GLOBE_COVER_RADIUS_KM`] — both conditions under
//! which further widening cannot change the candidate set, so the fix
//! is output-preserving.

use armada_geo::{ProximityIndex, GLOBE_COVER_RADIUS_KM};
use armada_node::NodeStatus;
use armada_types::{GeoPoint, NodeId, SystemConfig};

use crate::selection::{GlobalSelectionPolicy, ScoredCandidate};

/// Serves one discovery query against an arbitrary liveness view.
///
/// The geo-proximity filter starts at the configured radius and widens
/// (doubling) until at least `top_n` alive candidates are inside, or all
/// `alive_total` alive nodes are, or widening can no longer change the
/// candidate set. `alive_status` is the view: it returns the status for
/// a node id iff that node is currently considered alive.
///
/// Candidates are then ranked by `policy`, best first, and truncated to
/// `top_n`.
#[allow(clippy::too_many_arguments)] // free function shared across tiers; callers pass their own state
pub fn widen_and_rank(
    config: &SystemConfig,
    policy: &GlobalSelectionPolicy,
    index: &ProximityIndex,
    alive_total: usize,
    alive_status: impl Fn(NodeId) -> Option<NodeStatus>,
    user_loc: GeoPoint,
    affiliations: &[NodeId],
    top_n: usize,
) -> Vec<ScoredCandidate> {
    if top_n == 0 {
        return Vec::new();
    }
    let mut radius = config.proximity_radius_km.max(0.1);
    let want = top_n.min(alive_total);
    let candidates = loop {
        let nearby = index.within_km(user_loc, radius);
        let alive: Vec<NodeStatus> = nearby.iter().filter_map(|n| alive_status(n.id)).collect();
        // The two historical exits, plus the termination cap: once the
        // scan already covers the whole index (or the whole globe), a
        // wider radius cannot surface anything new.
        if alive.len() >= want
            || alive.len() == alive_total
            || nearby.len() == index.len()
            || radius >= GLOBE_COVER_RADIUS_KM
        {
            break alive;
        }
        radius *= 2.0;
    };
    let mut ranked = policy.rank(user_loc, candidates, affiliations);
    ranked.truncate(top_n);
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use armada_types::NodeClass;
    use std::collections::HashMap;

    fn status(id: u64, loc: GeoPoint) -> NodeStatus {
        NodeStatus {
            node: NodeId::new(id),
            class: NodeClass::Volunteer,
            location: loc,
            attached_users: 0,
            load_score: 0.0,
        }
    }

    #[test]
    fn widens_until_the_view_is_exhausted() {
        let home = GeoPoint::new(44.98, -93.26);
        let mut index = ProximityIndex::new();
        let mut view = HashMap::new();
        for (i, km) in [3.0, 400.0, 900.0].into_iter().enumerate() {
            let s = status(i as u64, home.offset_km(km, 0.0));
            index.insert(s.node, s.location);
            view.insert(s.node, s);
        }
        let got = widen_and_rank(
            &SystemConfig::default(),
            &GlobalSelectionPolicy::default(),
            &index,
            view.len(),
            |id| view.get(&id).copied(),
            home,
            &[],
            3,
        );
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].node, NodeId::new(0));
    }

    #[test]
    fn dead_entries_in_the_index_are_skipped() {
        let home = GeoPoint::new(44.98, -93.26);
        let mut index = ProximityIndex::new();
        let mut view = HashMap::new();
        for i in 0..3u64 {
            let s = status(i, home.offset_km(i as f64 * 2.0, 0.0));
            index.insert(s.node, s.location);
            if i != 0 {
                view.insert(s.node, s);
            }
        }
        let got = widen_and_rank(
            &SystemConfig::default(),
            &GlobalSelectionPolicy::default(),
            &index,
            view.len(),
            |id| view.get(&id).copied(),
            home,
            &[],
            3,
        );
        assert_eq!(got.len(), 2, "the dead node must not appear");
        assert!(got.iter().all(|c| c.node != NodeId::new(0)));
    }

    /// Regression: `alive_total` counting a node the index does not hold
    /// used to double the radius forever toward `f64::INFINITY`. The cap
    /// must terminate the query (in bounded time) with every reachable
    /// candidate still ranked.
    #[test]
    fn disagreeing_liveness_view_terminates_instead_of_hanging() {
        let home = GeoPoint::new(44.98, -93.26);
        let mut index = ProximityIndex::new();
        let mut view = HashMap::new();
        // One indexed, alive node…
        let s = status(0, home.offset_km(2.0, 0.0));
        index.insert(s.node, s.location);
        view.insert(s.node, s);
        // …and one phantom the view counts but the index never held.
        view.insert(NodeId::new(99), status(99, home));
        let got = widen_and_rank(
            &SystemConfig::default(),
            &GlobalSelectionPolicy::default(),
            &index,
            view.len(), // 2: unreachable through the index
            |id| view.get(&id).copied(),
            home,
            &[],
            5,
        );
        assert_eq!(got.len(), 1, "only the indexed node is discoverable");
        assert_eq!(got[0].node, NodeId::new(0));
    }

    /// The cap also covers the empty-index corner of the same hazard.
    #[test]
    fn empty_index_with_nonzero_alive_total_terminates() {
        let home = GeoPoint::new(44.98, -93.26);
        let index = ProximityIndex::new();
        let got = widen_and_rank(
            &SystemConfig::default(),
            &GlobalSelectionPolicy::default(),
            &index,
            3, // claims three alive nodes; none are indexed
            |id| Some(status(id.as_u64(), home)),
            home,
            &[],
            2,
        );
        assert!(got.is_empty());
    }
}
