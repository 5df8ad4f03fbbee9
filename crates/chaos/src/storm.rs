//! Seeded, deterministic connection-storm plans.
//!
//! Where [`crate::FaultPlan`] perturbs messages already in flight, a
//! [`StormPlan`] describes hostile *connection* behaviour against one
//! server: seeded floods of short-lived query connections, slow-loris
//! cohorts that trickle bytes without ever completing a frame, and
//! reconnect stampedes where a whole cohort dials back at the same
//! instant. The plan only records the schedule — a storm runner (the
//! live manager's storm-sweep test) translates it into real sockets.
//!
//! Every quantity a runner needs — when connection `i` opens, how long
//! a loris pauses between trickles, how long a flood worker waits
//! before reconnecting — is a pure hash of `(seed, role, index,
//! sequence)`, never a draw from a shared RNG stream. The same two
//! properties as fault plans fall out: a replay under the same seed
//! produces the identical schedule, and a zero-intensity storm is
//! provably a no-op.

use crate::hash::{mix, unit};

/// Draw salts; disjoint from the fault-plan salts (1–7) so a storm
/// plan and a fault plan under the same seed stay uncorrelated.
const SALT_CONNECT: u64 = 11;
const SALT_TRICKLE: u64 = 12;
const SALT_RECONNECT: u64 = 13;

/// Which hostile behaviour a storm connection exhibits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StormRole {
    /// Connect, issue one query, disconnect, reconnect — in a loop.
    Flood,
    /// Trickle bytes of a frame without ever completing it.
    Loris,
    /// Part of a cohort that reconnects at the same instant.
    Stampede,
}

impl StormRole {
    /// Stable lowercase name, for trace events and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            StormRole::Flood => "flood",
            StormRole::Loris => "loris",
            StormRole::Stampede => "stampede",
        }
    }

    /// Stable per-role stream discriminator for the decision hash.
    fn stream(self) -> u64 {
        match self {
            StormRole::Flood => 1,
            StormRole::Loris => 2,
            StormRole::Stampede => 3,
        }
    }
}

/// One scheduled connection opening.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StormEvent {
    /// When the connection opens, relative to storm start.
    pub at_us: u64,
    /// What the connection does once open.
    pub role: StormRole,
    /// Index within the role's cohort.
    pub index: u64,
}

/// A seeded, deterministic description of one connection storm.
///
/// # Examples
///
/// ```
/// use armada_chaos::StormPlan;
///
/// let storm = StormPlan::uniform(42, 0.5);
/// assert!(!storm.is_noop());
/// // Same seed: the identical opening schedule, every time.
/// assert_eq!(storm.schedule(), StormPlan::uniform(42, 0.5).schedule());
/// // Zero intensity: provably nothing happens.
/// assert!(StormPlan::uniform(42, 0.0).is_noop());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StormPlan {
    /// Seed every schedule hash is derived from.
    pub seed: u64,
    /// Flood connections (connect → one query → disconnect → repeat).
    pub flood: u64,
    /// Slow-loris connections (trickle, never complete a frame).
    pub loris: u64,
    /// Stampede cohort size (all dial at [`StormPlan::stampede_at_us`]).
    pub stampede: u64,
    /// Window over which flood and loris connections stagger open.
    pub ramp_us: u64,
    /// Mean pause between a loris connection's byte trickles.
    pub loris_trickle_us: u64,
    /// Mean pause between a flood worker's reconnects.
    pub reconnect_pause_us: u64,
    /// The instant the stampede cohort dials, relative to storm start.
    pub stampede_at_us: u64,
}

impl StormPlan {
    /// An empty (no-op) storm under `seed`.
    pub fn new(seed: u64) -> Self {
        StormPlan {
            seed,
            flood: 0,
            loris: 0,
            stampede: 0,
            ramp_us: 200_000,
            loris_trickle_us: 20_000,
            reconnect_pause_us: 10_000,
            stampede_at_us: 100_000,
        }
    }

    /// A blended storm scaled by one intensity knob in `[0, 1]`:
    /// intensity 0.5 means half of the "full storm" cohorts (64 flood
    /// workers, 16 lorises, a 64-connection stampede).
    pub fn uniform(seed: u64, intensity: f64) -> Self {
        let i = intensity.clamp(0.0, 1.0);
        StormPlan {
            flood: (64.0 * i).round() as u64,
            loris: (16.0 * i).round() as u64,
            stampede: (64.0 * i).round() as u64,
            ..StormPlan::new(seed)
        }
    }

    /// Replaces the flood cohort size.
    pub fn with_flood(mut self, conns: u64) -> Self {
        self.flood = conns;
        self
    }

    /// Replaces the slow-loris cohort size.
    pub fn with_loris(mut self, conns: u64) -> Self {
        self.loris = conns;
        self
    }

    /// Replaces the stampede cohort size.
    pub fn with_stampede(mut self, conns: u64) -> Self {
        self.stampede = conns;
        self
    }

    /// `true` if the storm opens no connections at all: running it is
    /// then provably a no-op (and consumes no randomness).
    pub fn is_noop(&self) -> bool {
        self.flood == 0 && self.loris == 0 && self.stampede == 0
    }

    fn draw(&self, role: StormRole, index: u64, seq: u64, salt: u64) -> u64 {
        mix(
            self.seed,
            role.stream(),
            index.wrapping_mul(1 << 20) ^ seq,
            salt,
        )
    }

    /// When connection `index` of `role` opens, relative to storm
    /// start. Flood and loris connections stagger uniformly across the
    /// ramp window (a storm is a crowd, not a metronome); the stampede
    /// cohort dials as one at [`StormPlan::stampede_at_us`] — that
    /// synchrony *is* the fault being injected.
    pub fn connect_at_us(&self, role: StormRole, index: u64) -> u64 {
        match role {
            StormRole::Stampede => self.stampede_at_us,
            _ if self.ramp_us == 0 => 0,
            _ => {
                let u = unit(self.draw(role, index, 0, SALT_CONNECT));
                (u * self.ramp_us as f64) as u64
            }
        }
    }

    /// Pause before loris connection `index` sends its `seq`-th
    /// trickle, in `[trickle/2, 3·trickle/2)` — jittered so a cohort's
    /// trickles don't arrive in lockstep.
    pub fn trickle_pause_us(&self, index: u64, seq: u64) -> u64 {
        jittered(
            self.loris_trickle_us,
            unit(self.draw(StormRole::Loris, index, seq, SALT_TRICKLE)),
        )
    }

    /// Pause before flood worker `index` makes its `attempt`-th
    /// reconnect, in `[pause/2, 3·pause/2)` — jittered so the flood
    /// doesn't self-synchronise into a stampede.
    pub fn reconnect_pause_us(&self, index: u64, attempt: u64) -> u64 {
        jittered(
            self.reconnect_pause_us,
            unit(self.draw(StormRole::Flood, index, attempt, SALT_RECONNECT)),
        )
    }

    /// The full opening schedule, sorted by time (ties broken by role
    /// then index, so the order itself is deterministic). Empty exactly
    /// when [`StormPlan::is_noop`].
    pub fn schedule(&self) -> Vec<StormEvent> {
        let mut events = Vec::with_capacity((self.flood + self.loris + self.stampede) as usize);
        for (role, count) in [
            (StormRole::Flood, self.flood),
            (StormRole::Loris, self.loris),
            (StormRole::Stampede, self.stampede),
        ] {
            for index in 0..count {
                events.push(StormEvent {
                    at_us: self.connect_at_us(role, index),
                    role,
                    index,
                });
            }
        }
        events.sort();
        events
    }
}

/// Maps a uniform draw in `[0, 1)` to `[mean/2, 3·mean/2)`.
fn jittered(mean_us: u64, u: f64) -> u64 {
    mean_us / 2 + (u * mean_us as f64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_intensity_storm_is_provably_a_noop() {
        let storm = StormPlan::uniform(9, 0.0);
        assert!(storm.is_noop());
        assert!(storm.schedule().is_empty());
        // The builders bring it back to life.
        assert!(!storm.clone().with_loris(1).is_noop());
        assert!(!StormPlan::new(9).with_stampede(4).is_noop());
    }

    #[test]
    fn same_seed_replays_the_identical_schedule() {
        let a = StormPlan::uniform(77, 0.8);
        let b = StormPlan::uniform(77, 0.8);
        // The full schedule and every per-connection draw replay
        // byte-identically.
        assert_eq!(a.schedule(), b.schedule());
        for index in 0..16 {
            for seq in 0..8 {
                assert_eq!(
                    a.trickle_pause_us(index, seq),
                    b.trickle_pause_us(index, seq)
                );
                assert_eq!(
                    a.reconnect_pause_us(index, seq),
                    b.reconnect_pause_us(index, seq)
                );
            }
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let a = StormPlan::uniform(1, 0.8);
        let b = StormPlan::uniform(2, 0.8);
        assert_ne!(a.schedule(), b.schedule());
    }

    #[test]
    fn cohort_sizes_and_roles_are_honoured() {
        let storm = StormPlan::new(5)
            .with_flood(10)
            .with_loris(3)
            .with_stampede(7);
        let schedule = storm.schedule();
        assert_eq!(schedule.len(), 20);
        let count = |role| schedule.iter().filter(|e| e.role == role).count();
        assert_eq!(count(StormRole::Flood), 10);
        assert_eq!(count(StormRole::Loris), 3);
        assert_eq!(count(StormRole::Stampede), 7);
    }

    #[test]
    fn floods_stagger_across_the_ramp_and_stampedes_dial_as_one() {
        let storm = StormPlan::new(5).with_flood(64).with_stampede(8);
        let schedule = storm.schedule();
        let flood_times: Vec<u64> = schedule
            .iter()
            .filter(|e| e.role == StormRole::Flood)
            .map(|e| e.at_us)
            .collect();
        assert!(flood_times.iter().all(|&t| t < storm.ramp_us));
        // A crowd, not a metronome: the 64 staggered openings take more
        // than a handful of distinct instants.
        let distinct: std::collections::HashSet<u64> = flood_times.iter().copied().collect();
        assert!(
            distinct.len() > 32,
            "only {} distinct times",
            distinct.len()
        );
        // The stampede is the opposite: one synchronized instant.
        assert!(schedule
            .iter()
            .filter(|e| e.role == StormRole::Stampede)
            .all(|e| e.at_us == storm.stampede_at_us));
    }

    #[test]
    fn pauses_are_jittered_around_the_mean() {
        let storm = StormPlan::new(13).with_flood(4).with_loris(4);
        for index in 0..4 {
            for seq in 0..32 {
                let t = storm.trickle_pause_us(index, seq);
                let lo = storm.loris_trickle_us / 2;
                let hi = storm.loris_trickle_us * 3 / 2;
                assert!((lo..hi).contains(&t), "trickle {t} outside [{lo}, {hi})");
                let r = storm.reconnect_pause_us(index, seq);
                let lo = storm.reconnect_pause_us / 2;
                let hi = storm.reconnect_pause_us * 3 / 2;
                assert!((lo..hi).contains(&r), "reconnect {r} outside [{lo}, {hi})");
            }
        }
    }
}
