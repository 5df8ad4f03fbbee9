//! The workspace's one 64-bit mixer: shard routing, the fast hasher for
//! id-keyed maps, fault decisions, labelled RNG streams and backoff
//! jitter all spread bits with splitmix64 and name things with FNV-1a.

use std::hash::{BuildHasherDefault, Hasher};

/// The golden-ratio increment of splitmix64.
pub(crate) const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The splitmix64 finaliser: spreads sequential ids and packed keys
/// across shards and segments (they would otherwise pile into a few).
#[inline]
pub fn mix64(x: u64) -> u64 {
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One round of splitmix64: the finaliser over `state + γ`.
#[inline]
pub fn splitmix64(state: u64) -> u64 {
    mix64(state.wrapping_add(GAMMA))
}

/// FNV-1a over a byte slice: turns labels and link names into seed
/// material for [`splitmix64`].
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A splitmix64-style hasher for maps whose keys are 64-bit and not
/// attacker-chosen (node ids, packed cell coordinates). The default
/// SipHash is DoS-hardened but costs several times more per lookup,
/// and these maps sit on the discovery hot path.
#[derive(Debug, Default)]
pub struct U64Hasher(u64);

impl Hasher for U64Hasher {
    #[inline]
    fn finish(&self) -> u64 {
        mix64(self.0)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(GAMMA);
    }
}

/// `BuildHasher` for [`U64Hasher`]-keyed maps and sets.
pub type U64BuildHasher = BuildHasherDefault<U64Hasher>;

#[cfg(test)]
mod tests {
    use super::*;

    /// Shard routing, fault plans and every byte-identity suite hang on
    /// these bits: the values are the ones the three former copies gave.
    #[test]
    fn outputs_are_pinned() {
        assert_eq!(mix64(0), 0);
        assert_eq!(mix64(1), 0x5692_161d_100b_05e5);
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(42), 0xbdd7_3226_2feb_6e95);
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
        let mut h = U64Hasher::default();
        h.write_u64(7);
        assert_eq!(h.finish(), mix64(7u64.wrapping_mul(GAMMA)));
        let mut bytes = U64Hasher::default();
        bytes.write(&7u64.to_le_bytes());
        assert_eq!(bytes.finish(), h.finish());
    }
}
