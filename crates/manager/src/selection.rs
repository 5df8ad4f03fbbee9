//! Global edge selection: ranking alive candidates for one user.

use std::cmp::Ordering;

use armada_node::NodeStatus;
use armada_types::{GeoPoint, NodeId};

/// Selects the `n` smallest elements under `cmp` and returns them in
/// ascending order — the result is exactly `sort_by(cmp)` followed by
/// `truncate(n)`, provided `cmp` is a *strict* total order (no two
/// distinct elements compare `Equal`), but costs O(N log n) instead of
/// O(N log N).
pub fn partial_select_by<T>(
    items: impl IntoIterator<Item = T>,
    n: usize,
    cmp: impl FnMut(&T, &T) -> Ordering,
) -> Vec<T> {
    partial_select_filter_map(items, n, |item, _| Some(item), cmp)
}

/// [`partial_select_by`] over elements that are dear to build: `make`
/// turns each raw item into an element, or into `None` when it can tell
/// more cheaply that the element would not be selected. To tell, it is
/// shown `worst`, the largest element currently kept — `Some` only once
/// `n` are kept, so nothing can be skipped while there is still room.
///
/// The result is `partial_select_by` over every element `make` *could*
/// have built, provided it returns `None` only for an item whose
/// element would not compare `Less` than `worst`.
///
/// Internally a bounded max-heap of the best `n` seen so far: each
/// further element either loses to the heap root (worst survivor) and
/// is dropped, or replaces it.
fn partial_select_filter_map<R, T>(
    raw: impl IntoIterator<Item = R>,
    n: usize,
    mut make: impl FnMut(R, Option<&T>) -> Option<T>,
    mut cmp: impl FnMut(&T, &T) -> Ordering,
) -> Vec<T> {
    if n == 0 {
        return Vec::new();
    }
    let mut heap: Vec<T> = Vec::with_capacity(n.min(1024));
    for raw in raw {
        let full = heap.len() == n;
        let worst = if full { heap.first() } else { None };
        let Some(item) = make(raw, worst) else {
            continue;
        };
        if !full {
            heap.push(item);
            let mut i = heap.len() - 1;
            while i > 0 {
                let parent = (i - 1) / 2;
                if cmp(&heap[i], &heap[parent]) == Ordering::Greater {
                    heap.swap(i, parent);
                    i = parent;
                } else {
                    break;
                }
            }
        } else if cmp(&item, &heap[0]) == Ordering::Less {
            heap[0] = item;
            let mut i = 0;
            loop {
                let (l, r) = (2 * i + 1, 2 * i + 2);
                let mut largest = i;
                if l < heap.len() && cmp(&heap[l], &heap[largest]) == Ordering::Greater {
                    largest = l;
                }
                if r < heap.len() && cmp(&heap[r], &heap[largest]) == Ordering::Greater {
                    largest = r;
                }
                if largest == i {
                    break;
                }
                heap.swap(i, largest);
                i = largest;
            }
        }
    }
    heap.sort_by(&mut cmp);
    heap
}

/// Weights of the manager-side ranking (paper §IV-B: "prioritize the
/// local candidates based on resource availability, network affiliation
/// and user preferences").
///
/// Lower composite score ranks higher:
///
/// ```text
/// score = load_weight × load_score
///       + distance_weight_per_km × distance_km
///       − affinity_bonus  (if the user declared affiliation with the node)
/// ```
///
/// The ranking is intentionally coarse — clients re-evaluate candidates
/// by probing — so weights only need to produce a sensible shortlist.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlobalSelectionPolicy {
    /// Weight on the node's offered-load score.
    pub load_weight: f64,
    /// Weight per kilometre of user–node distance.
    pub distance_weight_per_km: f64,
    /// Flat bonus for network-affiliated nodes (existing LAN or preferred
    /// channel).
    pub affinity_bonus: f64,
}

impl Default for GlobalSelectionPolicy {
    fn default() -> Self {
        GlobalSelectionPolicy {
            load_weight: 10.0,
            distance_weight_per_km: 0.2,
            affinity_bonus: 5.0,
        }
    }
}

/// A ranked candidate produced by global selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredCandidate {
    /// The candidate node.
    pub node: NodeId,
    /// Composite score; lower ranks first.
    pub score: f64,
    /// Distance to the requesting user, km.
    pub distance_km: f64,
}

impl GlobalSelectionPolicy {
    /// Scores one candidate for a user at `user_loc`.
    pub fn score(
        &self,
        user_loc: GeoPoint,
        status: &NodeStatus,
        affiliated: bool,
    ) -> ScoredCandidate {
        self.score_with_distance(status, user_loc.distance_km(status.location), affiliated)
    }

    /// [`GlobalSelectionPolicy::score`] with the user–node distance
    /// already known. The discovery hot path computed that distance
    /// during the disk scan; recomputing the haversine here would
    /// double the per-candidate trig cost for nothing.
    pub fn score_with_distance(
        &self,
        status: &NodeStatus,
        distance_km: f64,
        affiliated: bool,
    ) -> ScoredCandidate {
        let mut score =
            self.load_weight * status.load_score + self.distance_weight_per_km * distance_km;
        if affiliated {
            score -= self.affinity_bonus;
        }
        ScoredCandidate {
            node: status.node,
            score,
            distance_km,
        }
    }

    /// Ranks `candidates` for the user, best first, breaking ties by
    /// `NodeId` for determinism.
    pub fn rank(
        &self,
        user_loc: GeoPoint,
        candidates: impl IntoIterator<Item = NodeStatus>,
        affiliations: &[NodeId],
    ) -> Vec<ScoredCandidate> {
        let mut scored: Vec<ScoredCandidate> = candidates
            .into_iter()
            .map(|status| {
                let affiliated = affiliations.contains(&status.node);
                self.score(user_loc, &status, affiliated)
            })
            .collect();
        scored.sort_by(rank_order);
        scored
    }

    /// Ranks the `candidates` within `radius_km` of the user (`d ≤ r`)
    /// and keeps only the best `top_n` — exactly
    /// [`GlobalSelectionPolicy::rank`] over those candidates +
    /// `truncate(top_n)`, for every input in any arrival order (the
    /// ranking comparator is a strict total order because node ids are
    /// unique, so the partial select is byte-identical to the full
    /// sort), but without sorting candidates that cannot make the
    /// shortlist and without measuring the distance to most of them.
    ///
    /// The second value is `true` if some candidate may lie beyond the
    /// radius. It is exact whenever the shortlist comes back short of
    /// `top_n`, since no floor drops anything before the shortlist is
    /// full; with a full one, a candidate a floor dropped counts.
    ///
    /// Each candidate passes three checks, cheapest first (see
    /// [`Screen`]). Once `top_n` candidates are kept, it is scored at a
    /// **floor**: the policy's own formula at a distance it cannot be
    /// nearer than — 0 km first (enough to drop a loaded node behind
    /// idle ones, before any geometry), then its latitude gap to the
    /// user ([`GeoPoint::lat_gap_km`]` <= distance_km`, which drops an
    /// idle node behind nearer idle ones). The same gap is held against
    /// the radius, and only a candidate that survives both pays a
    /// haversine: on a dense metro fleet (20 000 nodes in a 100 km box,
    /// loads in `[0, 2)`, `top_n` 3, 80 km) about 150 of the 20 000 do,
    /// and about 520 when every node is idle.
    ///
    /// * `floor <= score` because the same arithmetic on a smaller
    ///   distance rounds to a smaller-or-equal result — if the score
    ///   grows with distance. With a negative (or NaN)
    ///   `distance_weight_per_km` no floor is applied; the radius still
    ///   is, since the gap bounds the distance whatever the weights.
    /// * A candidate is skipped only when a floor is *strictly* worse
    ///   than the worst kept score: at an equal floor it may still tie
    ///   and win on `NodeId`.
    /// * A NaN load, weight or kept score fails that comparison, and the
    ///   candidate is scored in full, as without floors.
    pub(crate) fn rank_within<'a>(
        &self,
        user_loc: GeoPoint,
        radius_km: f64,
        candidates: impl IntoIterator<Item = &'a NodeStatus>,
        affiliations: &[NodeId],
        top_n: usize,
    ) -> (Vec<ScoredCandidate>, bool) {
        let mut beyond = false;
        let shortlist = partial_select_filter_map(
            candidates,
            top_n,
            |status, worst| {
                let affiliated = affiliations.contains(&status.node);
                match self.screen(user_loc, radius_km, status, affiliated, worst) {
                    Screen::Scored(candidate) => Some(candidate),
                    Screen::LoadFloor => None,
                    Screen::LatitudeGap | Screen::Outside => {
                        beyond = true;
                        None
                    }
                }
            },
            rank_order,
        );
        (shortlist, beyond)
    }

    /// Runs one candidate through [`GlobalSelectionPolicy::rank_within`]'s
    /// checks against `worst`, the last entry of a full shortlist.
    fn screen(
        &self,
        user_loc: GeoPoint,
        radius_km: f64,
        status: &NodeStatus,
        affiliated: bool,
        worst: Option<&ScoredCandidate>,
    ) -> Screen {
        let worst = worst.filter(|_| self.distance_weight_per_km >= 0.0);
        let beaten_at = |km: f64| {
            worst.is_some_and(|w| self.score_with_distance(status, km, affiliated).score > w.score)
        };
        if beaten_at(0.0) {
            return Screen::LoadFloor;
        }
        let gap = user_loc.lat_gap_km(status.location);
        if gap > radius_km || beaten_at(gap) {
            return Screen::LatitudeGap;
        }
        let distance = user_loc.distance_km(status.location);
        if distance <= radius_km {
            Screen::Scored(self.score_with_distance(status, distance, affiliated))
        } else {
            Screen::Outside
        }
    }

    /// [`GlobalSelectionPolicy::rank`] + `truncate(top_n)` over
    /// candidates whose user-distance is already known (the disk scan
    /// measured it while finding them), by a bounded partial select.
    /// Byte-identical to scoring from scratch because
    /// [`GlobalSelectionPolicy::score`] is the same arithmetic on the
    /// same distance bits.
    pub fn rank_top_n_with_distances(
        &self,
        candidates: impl IntoIterator<Item = (NodeStatus, f64)>,
        affiliations: &[NodeId],
        top_n: usize,
    ) -> Vec<ScoredCandidate> {
        partial_select_by(
            candidates.into_iter().map(|(status, distance_km)| {
                let affiliated = affiliations.contains(&status.node);
                self.score_with_distance(&status, distance_km, affiliated)
            }),
            top_n,
            rank_order,
        )
    }
}

/// Where [`GlobalSelectionPolicy::rank_within`] stopped with one
/// candidate, in the order its checks run.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Screen {
    /// Its 0 km floor loses to the worst kept: dropped on its load alone.
    LoadFloor,
    /// Its latitude gap puts it beyond the radius, or its latitude
    /// floor loses to the worst kept: dropped without trig.
    LatitudeGap,
    /// Its haversine puts it beyond the radius.
    Outside,
    /// Within the radius and scored in full.
    Scored(ScoredCandidate),
}

/// The shortlist order: composite score, ties broken by `NodeId`. A
/// strict total order over any candidate set with unique node ids.
fn rank_order(a: &ScoredCandidate, b: &ScoredCandidate) -> Ordering {
    a.score
        .partial_cmp(&b.score)
        .unwrap_or(Ordering::Equal)
        .then(a.node.cmp(&b.node))
}

#[cfg(test)]
mod tests {
    use super::*;
    use armada_types::{NodeClass, SystemConfig};

    fn status(id: u64, km_east: f64, load: f64) -> NodeStatus {
        NodeStatus {
            node: NodeId::new(id),
            class: NodeClass::Volunteer,
            location: GeoPoint::new(44.98, -93.26).offset_km(km_east, 0.0),
            attached_users: 0,
            load_score: load,
        }
    }

    fn user() -> GeoPoint {
        GeoPoint::new(44.98, -93.26)
    }

    #[test]
    fn idle_nearby_node_wins() {
        let p = GlobalSelectionPolicy::default();
        let ranked = p.rank(
            user(),
            vec![
                status(1, 30.0, 0.0),
                status(2, 2.0, 0.0),
                status(3, 10.0, 0.0),
            ],
            &[],
        );
        assert_eq!(ranked[0].node, NodeId::new(2));
        assert_eq!(ranked.last().unwrap().node, NodeId::new(1));
    }

    #[test]
    fn heavy_load_outweighs_proximity() {
        let p = GlobalSelectionPolicy::default();
        // Node 1 is adjacent but saturated (load 2.0 → 20 points);
        // node 2 is 40 km away but idle (8 points).
        let ranked = p.rank(user(), vec![status(1, 0.5, 2.0), status(2, 40.0, 0.0)], &[]);
        assert_eq!(ranked[0].node, NodeId::new(2));
    }

    #[test]
    fn affinity_bonus_breaks_near_ties() {
        let p = GlobalSelectionPolicy::default();
        let ranked = p.rank(
            user(),
            vec![status(1, 10.0, 0.0), status(2, 10.0, 0.0)],
            &[NodeId::new(2)],
        );
        assert_eq!(ranked[0].node, NodeId::new(2));
    }

    #[test]
    fn ties_break_by_node_id() {
        let p = GlobalSelectionPolicy::default();
        let ranked = p.rank(user(), vec![status(8, 5.0, 0.0), status(3, 5.0, 0.0)], &[]);
        assert_eq!(ranked[0].node, NodeId::new(3));
    }

    #[test]
    fn equal_composite_scores_from_different_inputs_rank_by_node_id() {
        let p = GlobalSelectionPolicy::default();
        // Different load/affinity mixes, identical composite score:
        // 10 × 0.5  ==  10 × 1.0 − 5 (affinity bonus)  ==  5.0, exactly
        // representable so the tie is bit-for-bit (a distance-based
        // fixture cannot be: offset_km then haversine never lands on a
        // round number).
        let a = status(9, 0.0, 0.5);
        let b = status(4, 0.0, 1.0);
        let sa = p.score(user(), &a, false);
        let sb = p.score(user(), &b, true);
        assert!(
            sa.score == sb.score,
            "fixture must produce a true tie: {} vs {}",
            sa.score,
            sb.score
        );
        let ranked = p.rank(user(), vec![a, b], &[NodeId::new(4)]);
        assert_eq!(ranked[0].node, NodeId::new(4), "ties order by NodeId");
        assert_eq!(ranked[1].node, NodeId::new(9));
    }

    #[test]
    fn rank_is_independent_of_candidate_input_order() {
        // Shard-merged candidate lists arrive in whatever order the
        // home and neighbour views were concatenated; the ranking must
        // not depend on it — including among tied candidates.
        let p = GlobalSelectionPolicy::default();
        let pool = vec![
            status(7, 5.0, 0.0),
            status(2, 5.0, 0.0),
            status(5, 0.0, 0.1), // ties with the two above (score 1.0)
            status(1, 30.0, 0.0),
            status(9, 2.0, 0.3),
        ];
        let baseline: Vec<NodeId> = p
            .rank(user(), pool.clone(), &[])
            .iter()
            .map(|c| c.node)
            .collect();
        // Every rotation (and the full reversal) yields the same order.
        for rot in 0..pool.len() {
            let mut shuffled = pool.clone();
            shuffled.rotate_left(rot);
            let got: Vec<NodeId> = p
                .rank(user(), shuffled, &[])
                .iter()
                .map(|c| c.node)
                .collect();
            assert_eq!(got, baseline, "rotation {rot} reordered the ranking");
        }
        let mut reversed = pool.clone();
        reversed.reverse();
        let got: Vec<NodeId> = p
            .rank(user(), reversed, &[])
            .iter()
            .map(|c| c.node)
            .collect();
        assert_eq!(got, baseline, "reversal reordered the ranking");
    }

    #[test]
    fn scores_expose_distance() {
        let p = GlobalSelectionPolicy::default();
        let s = p.score(user(), &status(1, 12.0, 0.0), false);
        assert!((s.distance_km - 12.0).abs() < 0.2);
    }

    #[test]
    fn partial_select_equals_sort_and_truncate() {
        // Deterministic pseudo-random keys (splitmix64), including
        // forced duplicates so the id tie-break matters.
        let mut state = 0x9e37_79b9_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for len in [0usize, 1, 2, 7, 64, 257] {
            let items: Vec<(u64, u64)> = (0..len as u64).map(|id| ((next() % 50), id)).collect();
            let cmp = |a: &(u64, u64), b: &(u64, u64)| a.0.cmp(&b.0).then(a.1.cmp(&b.1));
            let mut full = items.clone();
            full.sort_by(cmp);
            for n in [0usize, 1, 3, len / 2, len, len + 5] {
                let mut expected = full.clone();
                expected.truncate(n);
                let got = partial_select_by(items.clone(), n, cmp);
                assert_eq!(got, expected, "len={len} n={n}");
            }
        }
    }

    /// `rank` over the candidates within `radius_km` + `truncate`: what
    /// `rank_within` must return.
    fn rank_inside(
        p: &GlobalSelectionPolicy,
        user: GeoPoint,
        radius_km: f64,
        fleet: &[NodeStatus],
        affiliations: &[NodeId],
        top_n: usize,
    ) -> Vec<ScoredCandidate> {
        let inside = fleet
            .iter()
            .filter(|s| user.distance_km(s.location) <= radius_km)
            .copied();
        let mut ranked = p.rank(user, inside, affiliations);
        ranked.truncate(top_n);
        ranked
    }

    #[test]
    fn rank_with_precomputed_distances_matches_scoring_from_scratch() {
        let p = GlobalSelectionPolicy::default();
        let pool: Vec<NodeStatus> = (0..30)
            .map(|i| status(i, (i as f64 * 17.0) % 120.0, f64::from(i as u32 % 5) * 0.25))
            .collect();
        let affiliations = [NodeId::new(6)];
        let with_distances: Vec<(NodeStatus, f64)> = pool
            .iter()
            .map(|s| (*s, user().distance_km(s.location)))
            .collect();
        for top_n in [0usize, 1, 8, 30, 33] {
            assert_eq!(
                p.rank_top_n_with_distances(with_distances.clone(), &affiliations, top_n),
                rank_inside(&p, user(), f64::INFINITY, &pool, &affiliations, top_n),
                "top_n={top_n}"
            );
        }
    }

    #[test]
    fn rank_within_matches_rank_inside_then_truncate() {
        let p = GlobalSelectionPolicy::default();
        let pool: Vec<NodeStatus> = (0..40)
            .map(|i| status(i, (i as f64 * 13.0) % 90.0, f64::from(i as u32 % 4) * 0.5))
            .collect();
        let affiliations = [NodeId::new(3), NodeId::new(17)];
        // Node 4 sits at 52 km: a radius of exactly its distance keeps it.
        let rim = user().distance_km(pool[4].location);
        for radius in [f64::INFINITY, 60.0, rim, 10.0, 0.0] {
            let inside = pool
                .iter()
                .filter(|s| user().distance_km(s.location) <= radius)
                .count();
            for top_n in [0usize, 1, 5, 16, 40, 47] {
                let expected = rank_inside(&p, user(), radius, &pool, &affiliations, top_n);
                let (got, beyond) = p.rank_within(user(), radius, &pool, &affiliations, top_n);
                assert_eq!(got, expected, "radius {radius}, top_n {top_n}");
                if got.len() < top_n {
                    assert_eq!(
                        beyond,
                        inside < pool.len(),
                        "radius {radius}, top_n {top_n}"
                    );
                }
            }
        }
        let (at_rim, _) = p.rank_within(user(), rim, &pool, &[], 40);
        assert!(
            at_rim.iter().any(|c| c.node == NodeId::new(4)),
            "d == r is inside"
        );
    }

    /// SplitMix64, as `perfbench/src/gen.rs` draws `fleet_mixed` from.
    struct Rng(u64);

    impl Rng {
        fn unit(&mut self) -> f64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        }

        /// A point in a 100 km box centred on the metro anchor.
        fn point(&mut self) -> GeoPoint {
            let (east, north) = (100.0 * self.unit() - 50.0, 100.0 * self.unit() - 50.0);
            user().offset_km(east, north)
        }
    }

    /// The `fleet_mixed` shape: ids `1..=n`, seeded positions over a
    /// 100 km box, loads drawn by `load` (the benchmark's: `[0, 2)`).
    fn metro_fleet(seed: u64, n: u64, mut load: impl FnMut(&mut Rng) -> f64) -> Vec<NodeStatus> {
        let mut rng = Rng(seed);
        (1..=n)
            .map(|id| NodeStatus {
                node: NodeId::new(id),
                class: NodeClass::Volunteer,
                location: rng.point(),
                attached_users: 0,
                load_score: load(&mut rng),
            })
            .collect()
    }

    fn users(seed: u64, n: usize) -> Vec<GeoPoint> {
        let mut rng = Rng(seed);
        (0..n).map(|_| rng.point()).collect()
    }

    /// A shortlist bit for bit (and so that a NaN score equals itself).
    fn bits(list: &[ScoredCandidate]) -> Vec<(NodeId, u64, u64)> {
        list.iter()
            .map(|c| (c.node, c.score.to_bits(), c.distance_km.to_bits()))
            .collect()
    }

    /// The radii every floor case runs at: no radius, and one that cuts
    /// the 100 km box so candidates lie on both sides of it.
    const RADII: [f64; 2] = [f64::INFINITY, 40.0];

    /// Holds `rank_within` to `rank` over the candidates inside +
    /// `truncate` for every user, radius and `top_n`, over three
    /// rotations of the arrival order.
    fn assert_exact(
        p: &GlobalSelectionPolicy,
        fleet: &[NodeStatus],
        users: &[GeoPoint],
        affiliations: &[NodeId],
        top_ns: &[usize],
        case: &str,
    ) {
        let mut arrival = fleet.to_vec();
        for rotation in 0..3 {
            for radius in RADII {
                for (u, &user) in users.iter().enumerate() {
                    let full = rank_inside(p, user, radius, fleet, affiliations, usize::MAX);
                    for &top_n in top_ns {
                        let (got, _) = p.rank_within(user, radius, &arrival, affiliations, top_n);
                        assert_eq!(
                            bits(&got),
                            bits(&full[..top_n.min(full.len())]),
                            "{case}: user {u}, radius {radius}, top_n {top_n}, rotation {rotation}"
                        );
                    }
                }
            }
            arrival.rotate_left(fleet.len() / 3 + 1);
        }
    }

    #[test]
    fn score_floors_never_change_the_shortlist() {
        let p = GlobalSelectionPolicy::default();
        let top_ns = [1usize, 3, 8, 64];
        let users = users(11, 100);
        let mixed = metro_fleet(7, 2_000, |rng| 2.0 * rng.unit());
        assert_exact(&p, &mixed, &users, &[], &top_ns, "mixed loads");
        // All idle: the 0 km floor is 0 for everyone, the latitude floor
        // does all the work. All one load: the same, off zero.
        let idle = metro_fleet(7, 2_000, |_| 0.0);
        assert_exact(&p, &idle, &users, &[], &top_ns, "all idle");
        let level = metro_fleet(7, 2_000, |_| 0.7);
        assert_exact(&p, &level, &users, &[], &top_ns, "all one load");

        // Exact ties at the cut: four nodes to a site, one load a site
        // (a multiple of 1/4, so `10 × load` is exact), ids dealt so a
        // site's four are far apart in arrival order; users stand on
        // sites, where distance is 0 and a floor *equals* the kept score.
        let sites = metro_fleet(3, 500, |rng| (8.0 * rng.unit()).floor() / 4.0);
        let tied: Vec<NodeStatus> = (0..4)
            .flat_map(|copy| {
                sites.iter().map(move |site| NodeStatus {
                    node: NodeId::new(site.node.as_u64() + 500 * copy),
                    ..*site
                })
            })
            .collect();
        let on_sites: Vec<GeoPoint> = sites.iter().step_by(5).map(|s| s.location).collect();
        let idle_site = sites.iter().find(|s| s.load_score == 0.0).unwrap();
        let reversed: Vec<NodeStatus> = tied.iter().rev().copied().collect();
        let (at_home, _) = p.rank_within(idle_site.location, 80.0, &reversed, &[], 3);
        assert!(
            at_home
                .iter()
                .all(|c| c.score == 0.0 && c.distance_km == 0.0),
            "fixture must tie a floor with the kept score: {at_home:?}"
        );
        assert_exact(&p, &tied, &on_sites, &[], &top_ns, "exact ties");

        // The affinity bonus rides along in the floor (scores go negative).
        let affiliations: Vec<NodeId> = [17, 400, 401, 1_203, 1_999].map(NodeId::new).to_vec();
        assert_exact(&p, &mixed, &users, &affiliations, &top_ns, "affiliations");

        // `top_n` above the fleet size: the heap never fills.
        assert_exact(
            &p,
            &mixed[..50],
            &users,
            &[],
            &[50, 55, 64],
            "top_n over fleet",
        );

        // Farther is *better*: no floor is a floor, nothing may be skipped.
        let away = GlobalSelectionPolicy {
            distance_weight_per_km: -0.2,
            ..p
        };
        assert_exact(&away, &mixed, &users[..20], &[], &top_ns, "negative weight");
        assert_eq!(
            screened(&away, f64::INFINITY, &mixed, &users[..1]).haversines,
            mixed.len()
        );
    }

    #[test]
    fn a_nan_load_is_ranked_as_without_floors() {
        // A NaN score compares by id alone, so on the lowest or highest
        // id `rank_order` is still an order (the node is simply first,
        // or last) and `rank` is the reference as everywhere else. On
        // any other id it is not one — `rank`'s sort and the select's
        // may disagree or panic, with floors or without — which is why
        // the live manager refuses such a load at the door.
        let p = GlobalSelectionPolicy::default();
        let users = users(11, 100);
        let mut fleet = metro_fleet(7, 2_000, |rng| 2.0 * rng.unit());
        let honest = std::mem::replace(&mut fleet[0].load_score, f64::NAN);
        assert_exact(&p, &fleet, &users, &[], &[1, 3, 8, 64], "NaN first");
        fleet[0].load_score = honest;
        fleet[1_999].load_score = f64::NAN;
        assert_exact(&p, &fleet, &users, &[], &[1, 3, 8, 64], "NaN last");
    }

    /// Per query, how far `rank_within`'s checks took a candidate.
    struct Work {
        /// Candidates whose latitude gap was taken (past the 0 km floor).
        gaps: usize,
        /// Candidates that paid a haversine.
        haversines: usize,
    }

    /// Runs the select with `screen` counted through its constructor,
    /// `top_n` 3: counts, so they repeat exactly.
    fn screened(
        p: &GlobalSelectionPolicy,
        radius_km: f64,
        fleet: &[NodeStatus],
        users: &[GeoPoint],
    ) -> Work {
        let mut work = Work {
            gaps: 0,
            haversines: 0,
        };
        for &user in users {
            let got = partial_select_filter_map(
                fleet.iter(),
                3,
                |status, worst| {
                    let screen = p.screen(user, radius_km, status, false, worst);
                    work.gaps += usize::from(screen != Screen::LoadFloor);
                    work.haversines +=
                        usize::from(matches!(screen, Screen::Outside | Screen::Scored(_)));
                    match screen {
                        Screen::Scored(candidate) => Some(candidate),
                        _ => None,
                    }
                },
                rank_order,
            );
            assert_eq!(got, p.rank_within(user, radius_km, fleet, &[], 3).0);
        }
        Work {
            gaps: work.gaps / users.len(),
            haversines: work.haversines / users.len(),
        }
    }

    #[test]
    fn score_floors_spare_most_of_a_dense_fleet_its_haversines() {
        let p = GlobalSelectionPolicy::default();
        let users = users(11, 25);
        let radius = SystemConfig::default().proximity_radius_km;
        // `fleet_mixed`'s registry: 20 000 per query without floors.
        let mixed = metro_fleet(7, 20_000, |rng| 2.0 * rng.unit());
        let work = screened(&p, radius, &mixed, &users);
        assert!(
            work.haversines <= 400,
            "{} haversines per query",
            work.haversines
        );
        // The 0 km floor runs first: most of the fleet is dropped on its
        // load before its latitude gap is taken against the radius.
        assert!(work.gaps <= 2_000, "{} latitude gaps per query", work.gaps);
        // All idle the 0 km floor drops nobody; the latitude floor must.
        let idle = metro_fleet(7, 20_000, |_| 0.0);
        let work = screened(&p, radius, &idle, &users);
        assert!(
            work.haversines <= 1_000,
            "{} haversines per query",
            work.haversines
        );
    }
}
