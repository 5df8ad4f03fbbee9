//! Seeded input generation, the open-loop schedule and the discovery
//! oracle. Everything the programs under test receive comes from here,
//! and from `--seed` alone.

use armada_types::{GeoPoint, NodeClass};
use armada_wire::WireNodeStatus;

/// The Minneapolis–St. Paul anchor the canonical environments use.
pub const ANCHOR: (f64, f64) = (44.9778, -93.2650);

/// SplitMix64: the generator the repository's own benches use for
/// placements, so inputs do not depend on a platform RNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so that, say,
    /// node positions and query points do not share a sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn uniform(&mut self, low: f64, high: f64) -> f64 {
        low + self.next_f64() * (high - low)
    }

    /// A point in a `box_km`-wide square centred on the anchor.
    pub fn point_in_box(&mut self, box_km: f64) -> GeoPoint {
        let half = box_km / 2.0;
        let east = self.uniform(-half, half);
        let north = self.uniform(-half, half);
        GeoPoint::new(ANCHOR.0, ANCHOR.1).offset_km(east, north)
    }
}

/// `n` seeded points over a `box_km` square.
pub fn points(seed: u64, stream: u64, n: usize, box_km: f64) -> Vec<GeoPoint> {
    let mut rng = Rng::new(seed, stream);
    (0..n).map(|_| rng.point_in_box(box_km)).collect()
}

/// The `fleet_mixed` registry: ids `1..=n`, seeded positions over a
/// 100 km box, seeded loads in `[0, 2)`.
pub fn fleet(seed: u64, n: usize) -> Vec<WireNodeStatus> {
    let mut rng = Rng::new(seed, 1);
    (1..=n as u64)
        .map(|id| WireNodeStatus {
            id,
            class: NodeClass::Volunteer,
            location: rng.point_in_box(100.0),
            attached_users: (rng.next_u64() % 8) as usize,
            load_score: rng.uniform(0.0, 2.0),
        })
        .collect()
}

/// What a correct manager answers to `Discover`: the `top_n` statuses
/// of lowest `10·load + 0.2·km`, ties broken by id. Computed from the
/// benchmark's own copy of what it registered, by a full sort — the
/// slow, obviously right way.
pub fn oracle_top_n(fleet: &[WireNodeStatus], user: GeoPoint, top_n: usize) -> Vec<u64> {
    let mut scored: Vec<(f64, u64)> = fleet
        .iter()
        .map(|s| {
            (
                10.0 * s.load_score + 0.2 * user.distance_km(s.location),
                s.id,
            )
        })
        .collect();
    scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    scored.into_iter().take(top_n).map(|(_, id)| id).collect()
}

/// An open-loop schedule: `batch` operations fall due at every tick,
/// whatever happened to the earlier ones. Times are nanoseconds since
/// the schedule started.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    tick_ns: u64,
    batch: u64,
    /// Ticks already handed out.
    issued: u64,
}

impl OpenLoop {
    /// `rate_per_s` operations a second in `tick_ns` steps. The rate
    /// must fill every tick with a whole number of operations.
    pub fn new(rate_per_s: u64, tick_ns: u64) -> OpenLoop {
        let per_tick = rate_per_s as u128 * tick_ns as u128;
        assert!(
            per_tick > 0 && per_tick.is_multiple_of(1_000_000_000),
            "rate × tick must be a whole number of operations"
        );
        OpenLoop {
            tick_ns,
            batch: (per_tick / 1_000_000_000) as u64,
            issued: 0,
        }
    }

    /// Operations due at each tick.
    pub fn batch(&self) -> u64 {
        self.batch
    }

    /// When the next tick not yet handed out falls due.
    pub fn next_due_ns(&self) -> u64 {
        self.issued * self.tick_ns
    }

    /// Hands out the next tick if it is due at `now_ns`, returning its
    /// due time. A generator that fell behind gets the missed ticks
    /// one call at a time, each with its original due time: a stall
    /// delays operations, it never drops them.
    pub fn take_due(&mut self, now_ns: u64) -> Option<u64> {
        let due = self.next_due_ns();
        (due <= now_ns).then(|| {
            self.issued += 1;
            due
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_another_seed_changes_them() {
        let a = fleet(7, 50);
        assert_eq!(a, fleet(7, 50));
        assert_ne!(a, fleet(8, 50));
        assert_eq!(points(7, 2, 16, 100.0), points(7, 2, 16, 100.0));
        assert_ne!(points(7, 2, 16, 100.0), points(7, 3, 16, 100.0));
        let ids: Vec<u64> = a.iter().map(|s| s.id).collect();
        assert_eq!(ids, (1..=50).collect::<Vec<u64>>());
        assert!(a.iter().all(|s| (0.0..2.0).contains(&s.load_score)));
    }

    fn status(id: u64, load: f64, east_km: f64) -> WireNodeStatus {
        WireNodeStatus {
            id,
            class: NodeClass::Volunteer,
            location: GeoPoint::new(ANCHOR.0, ANCHOR.1).offset_km(east_km, 0.0),
            attached_users: 0,
            load_score: load,
        }
    }

    #[test]
    fn oracle_ranks_by_load_then_distance_then_id() {
        let user = GeoPoint::new(ANCHOR.0, ANCHOR.1);
        let fleet = vec![
            status(4, 0.5, 0.0),  // score 5
            status(3, 0.0, 50.0), // score ≈ 10
            status(2, 0.1, 0.0),  // score 1
            status(9, 0.1, 0.0),  // score 1, loses the id tie to 2
            status(1, 1.0, 0.0),  // score 10
        ];
        assert_eq!(oracle_top_n(&fleet, user, 3), vec![2, 9, 4]);
        assert_eq!(oracle_top_n(&fleet, user, 0), Vec::<u64>::new());
        assert_eq!(oracle_top_n(&fleet, user, 9).len(), 5);
        // One unit of load outweighs 49 km: 10·1.0 > 0.2·49.
        let near_busy = status(1, 1.0, 0.0);
        let far_idle = status(2, 0.0, 49.0);
        assert_eq!(oracle_top_n(&[near_busy, far_idle], user, 1), vec![2]);
    }

    #[test]
    fn open_loop_hands_out_every_tick_with_its_own_due_time() {
        let mut s = OpenLoop::new(10_000, 1_000_000);
        assert_eq!(s.batch(), 10);
        assert_eq!(s.take_due(0), Some(0));
        assert_eq!(s.take_due(999_999), None, "next tick is not due yet");
        assert_eq!(s.take_due(1_000_000), Some(1_000_000));
        // The generator stalls for 3.5 ms: the three missed ticks come
        // out back to back, each timed from when it should have gone.
        let now = 5_500_000;
        assert_eq!(s.take_due(now), Some(2_000_000));
        assert_eq!(s.take_due(now), Some(3_000_000));
        assert_eq!(s.take_due(now), Some(4_000_000));
        assert_eq!(s.take_due(now), Some(5_000_000));
        assert_eq!(s.take_due(now), None);
        assert_eq!(s.next_due_ns(), 6_000_000);
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn open_loop_rejects_a_rate_that_does_not_fill_ticks() {
        let _ = OpenLoop::new(1_500, 1_000_000);
    }
}
