//! Pure hashing helpers behind every fault decision.
//!
//! Decisions must be functions of `(seed, link, sequence)` alone so a
//! plan replays identically and a zero-intensity plan perturbs
//! nothing.

use armada_types::splitmix64;

/// Mixes a seed, a link hash, a per-link sequence number and a draw
/// salt into one 64-bit value.
pub(crate) fn mix(seed: u64, link: u64, seq: u64, salt: u64) -> u64 {
    splitmix64(seed ^ splitmix64(link ^ splitmix64(seq ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))))
}

/// Maps a hash to a uniform float in `[0, 1)`.
pub(crate) fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_is_in_range() {
        for i in 0..1000 {
            let u = unit(splitmix64(i));
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn mix_is_pure() {
        assert_eq!(mix(1, 2, 3, 4), mix(1, 2, 3, 4));
        assert_ne!(mix(1, 2, 3, 4), mix(1, 2, 3, 5));
        assert_ne!(mix(1, 2, 3, 4), mix(2, 2, 3, 4));
    }
}
