//! Capped, jittered exponential backoff.

use std::time::Duration;

use crate::hash::{splitmix64, GAMMA};

/// A capped exponential backoff schedule with deterministic jitter.
///
/// The raw delay for attempt `n` is `min(cap, base · 2ⁿ)`; the jittered
/// delay is drawn uniformly from `[raw/2, raw]` by hashing
/// `(seed, attempt)`, so a given retry loop sleeps the same bounded
/// schedule every run — testable, reproducible, and immune to the
/// thundering-herd synchronization a fixed schedule invites.
///
/// # Examples
///
/// ```
/// use armada_types::Backoff;
///
/// const RETRY: Backoff = Backoff::from_millis(50, 1_000);
/// let d = RETRY.delay(3, 7);
/// assert!(d >= RETRY.delay_floor(3) && d <= RETRY.delay_ceiling(3));
/// assert_eq!(d, RETRY.delay(3, 7)); // deterministic
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    base_us: u64,
    cap_us: u64,
}

impl Backoff {
    /// A schedule starting at `base_ms`, doubling, capped at `cap_ms`.
    pub const fn from_millis(base_ms: u64, cap_ms: u64) -> Self {
        Backoff {
            base_us: base_ms * 1_000,
            cap_us: cap_ms * 1_000,
        }
    }

    /// The un-jittered delay for `attempt` (0-based), in microseconds.
    fn raw_us(&self, attempt: u32) -> u64 {
        let shift = attempt.min(32);
        let grown = self.base_us.saturating_mul(1u64 << shift);
        grown.min(self.cap_us)
    }

    /// Smallest delay attempt `attempt` can sleep.
    pub fn delay_floor(&self, attempt: u32) -> Duration {
        Duration::from_micros(self.raw_us(attempt) / 2)
    }

    /// Largest delay attempt `attempt` can sleep (never above the cap).
    pub fn delay_ceiling(&self, attempt: u32) -> Duration {
        Duration::from_micros(self.raw_us(attempt))
    }

    /// The jittered delay for `attempt`, deterministic in `(seed, attempt)`.
    pub fn delay(&self, attempt: u32, seed: u64) -> Duration {
        Duration::from_micros(self.delay_us(attempt, seed))
    }

    /// [`Backoff::delay`] in raw microseconds, for virtual-time callers.
    pub fn delay_us(&self, attempt: u32, seed: u64) -> u64 {
        let raw = self.raw_us(attempt);
        if raw == 0 {
            return 0;
        }
        let half = raw / 2;
        // The fault injector's `mix(splitmix64(seed), 0, attempt, 8)`,
        // written out: recorded schedules depend on these bits.
        let salted = u64::from(attempt) ^ 8u64.wrapping_mul(GAMMA);
        let draw = splitmix64(splitmix64(seed) ^ splitmix64(splitmix64(salted)));
        half + draw % (raw - half + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const B: Backoff = Backoff::from_millis(50, 1_000);

    #[test]
    fn schedule_is_bounded_and_capped() {
        for attempt in 0..64 {
            for seed in 0..16 {
                let d = B.delay(attempt, seed);
                assert!(d >= B.delay_floor(attempt));
                assert!(d <= B.delay_ceiling(attempt));
                assert!(d <= Duration::from_millis(1_000));
            }
        }
        // The exponential phase: ceilings double until the cap.
        assert_eq!(B.delay_ceiling(0), Duration::from_millis(50));
        assert_eq!(B.delay_ceiling(1), Duration::from_millis(100));
        assert_eq!(B.delay_ceiling(2), Duration::from_millis(200));
        assert_eq!(B.delay_ceiling(10), Duration::from_millis(1_000));
    }

    #[test]
    fn delay_is_deterministic_per_seed() {
        // Recorded retry schedules (EXPERIMENTS' chaos tables) hang on
        // the jitter's bits.
        let first_six: Vec<u64> = (0..6).map(|attempt| B.delay_us(attempt, 0)).collect();
        assert_eq!(
            first_six,
            [39_658, 66_658, 120_657, 381_161, 621_308, 884_964]
        );
        assert_eq!(B.delay(3, 42), B.delay(3, 42));
        let distinct = (0..32).filter(|s| B.delay(3, *s) != B.delay(3, 0)).count();
        assert!(distinct > 0, "jitter must actually vary with the seed");
    }

    #[test]
    fn huge_attempt_counts_do_not_overflow() {
        assert_eq!(B.delay_ceiling(u32::MAX), Duration::from_millis(1_000));
        assert!(B.delay(u32::MAX, 1) <= Duration::from_millis(1_000));
    }

    #[test]
    fn zero_base_sleeps_nothing() {
        let b = Backoff::from_millis(0, 0);
        assert_eq!(b.delay(5, 9), Duration::ZERO);
    }
}
