//! Seeded random-number streams.
//!
//! Experiments must be reproducible from a single seed, yet different
//! components (network jitter, churn, workload arrivals) must not perturb
//! one another's streams when code is added or reordered. [`SimRng`]
//! derives an independent deterministic stream per label.

use armada_types::{fnv1a, splitmix64};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A deterministic random-number generator with derivable sub-streams.
///
/// # Examples
///
/// ```
/// use armada_sim::SimRng;
/// use rand::Rng;
///
/// let mut a = SimRng::seed_from(7).stream("jitter");
/// let mut b = SimRng::seed_from(7).stream("jitter");
/// let mut c = SimRng::seed_from(7).stream("churn");
/// let (x, y, z): (u64, u64, u64) = (a.gen(), b.gen(), c.gen());
/// assert_eq!(x, y);   // same seed + label => same stream
/// assert_ne!(x, z);   // different label  => independent stream
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    seed: u64,
    inner: StdRng,
}

impl SimRng {
    /// Creates the root generator for a run.
    pub fn seed_from(seed: u64) -> Self {
        SimRng {
            seed,
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// The seed this generator (or its root) was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent deterministic sub-stream for `label`.
    /// The sub-stream depends only on the root seed and the label, not on
    /// how much randomness has been consumed elsewhere.
    pub fn stream(&self, label: &str) -> SimRng {
        let derived = splitmix64(self.seed ^ fnv1a(label.as_bytes()));
        SimRng {
            seed: derived,
            inner: StdRng::seed_from_u64(derived),
        }
    }

    /// Samples a uniform `f64` in `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high`.
    pub fn uniform(&mut self, low: f64, high: f64) -> f64 {
        self.inner.gen_range(low..high)
    }

    /// Samples `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.inner.gen_bool(p)
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    // Explicit import wins over the two glob-imported `RngCore`s
    // (rand via super::*, and proptest's re-export).
    use rand::RngCore;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::seed_from(123);
        let mut b = SimRng::seed_from(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn streams_are_independent_of_consumption_order() {
        let root = SimRng::seed_from(5);
        let mut jitter_first = root.stream("jitter");
        let j1 = jitter_first.next_u64();

        // Consume some other stream first; "jitter" must be unaffected.
        let root2 = SimRng::seed_from(5);
        let mut churn = root2.stream("churn");
        let _ = churn.next_u64();
        let mut jitter_second = root2.stream("jitter");
        let j2 = jitter_second.next_u64();
        assert_eq!(j1, j2);
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = SimRng::seed_from(1);
        for _ in 0..1000 {
            let x = rng.uniform(3.0, 7.0);
            assert!((3.0..7.0).contains(&x));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from(2);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        // Out-of-range probabilities are clamped rather than panicking.
        assert!(rng.chance(2.0));
        assert!(!rng.chance(-1.0));
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut rng = SimRng::seed_from(3);
        let hits = (0..10_000).filter(|_| rng.chance(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "got {hits}");
    }

    proptest! {
        #[test]
        fn distinct_labels_give_distinct_streams(seed in 0u64..1_000_000) {
            let root = SimRng::seed_from(seed);
            let a = root.stream("alpha").next_u64();
            let b = root.stream("beta").next_u64();
            // Not a strict guarantee for every seed, but collisions would
            // indicate broken derivation; none occur over this range.
            prop_assert_ne!(a, b);
        }

        #[test]
        fn uniform_stays_in_range(seed in 0u64..10_000, low in -100.0f64..100.0, span in 0.001f64..100.0) {
            let mut rng = SimRng::seed_from(seed);
            let x = rng.uniform(low, low + span);
            prop_assert!(x >= low && x < low + span);
        }
    }
}
