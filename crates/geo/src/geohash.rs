//! A from-scratch GeoHash codec (base-32, interleaved bit encoding).
//!
//! GeoHash maps a latitude/longitude to a short string such that shared
//! prefixes imply spatial proximity — the property the paper's manager
//! exploits for its widening geo-proximity search [32].

use std::fmt;

use armada_types::GeoPoint;

/// The standard GeoHash base-32 alphabet (no `a`, `i`, `l`, `o`).
const ALPHABET: &[u8; 32] = b"0123456789bcdefghjkmnpqrstuvwxyz";

/// Maximum supported precision (characters). Twelve characters resolve to
/// roughly 3.7 cm × 1.9 cm — far below anything edge selection needs.
pub const MAX_PRECISION: usize = 12;

/// Decodes a base-32 character to its 5-bit value.
fn decode_char(c: u8) -> Option<u8> {
    ALPHABET
        .iter()
        .position(|&a| a == c.to_ascii_lowercase())
        .map(|p| p as u8)
}

/// An encoded GeoHash cell.
///
/// # Examples
///
/// ```
/// use armada_geo::GeoHash;
/// use armada_types::GeoPoint;
///
/// let h = GeoHash::encode(GeoPoint::new(44.9778, -93.2650), 6);
/// let center = h.decode_center();
/// assert!(center.distance_km(GeoPoint::new(44.9778, -93.2650)) < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GeoHash(String);

impl GeoHash {
    /// Encodes `point` at the given precision (number of characters).
    ///
    /// # Panics
    ///
    /// Panics if `precision` is zero or greater than [`MAX_PRECISION`].
    pub fn encode(point: GeoPoint, precision: usize) -> Self {
        assert!(
            (1..=MAX_PRECISION).contains(&precision),
            "precision must be in 1..={MAX_PRECISION}"
        );
        let mut lat = (-90.0f64, 90.0f64);
        let mut lon = (-180.0f64, 180.0f64);
        let mut out = String::with_capacity(precision);
        let mut bits = 0u8;
        let mut bit_count = 0u8;
        let mut even = true; // longitude first, per the GeoHash spec

        while out.len() < precision {
            let (range, value) = if even {
                (&mut lon, point.lon())
            } else {
                (&mut lat, point.lat())
            };
            let mid = (range.0 + range.1) / 2.0;
            bits <<= 1;
            if value >= mid {
                bits |= 1;
                range.0 = mid;
            } else {
                range.1 = mid;
            }
            even = !even;
            bit_count += 1;
            if bit_count == 5 {
                out.push(ALPHABET[bits as usize] as char);
                bits = 0;
                bit_count = 0;
            }
        }
        GeoHash(out)
    }

    /// Parses an existing hash string.
    ///
    /// # Errors
    ///
    /// Returns `None` if the string is empty, longer than
    /// [`MAX_PRECISION`], or contains characters outside the GeoHash
    /// alphabet.
    pub fn parse(s: &str) -> Option<Self> {
        if s.is_empty() || s.len() > MAX_PRECISION {
            return None;
        }
        if s.bytes().all(|b| decode_char(b).is_some()) {
            Some(GeoHash(s.to_ascii_lowercase()))
        } else {
            None
        }
    }

    /// The hash string.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Number of characters (precision) of this hash.
    pub fn precision(&self) -> usize {
        self.0.len()
    }

    /// The bounding box of this cell as
    /// `((lat_min, lat_max), (lon_min, lon_max))`.
    pub fn bounds(&self) -> ((f64, f64), (f64, f64)) {
        let mut lat = (-90.0f64, 90.0f64);
        let mut lon = (-180.0f64, 180.0f64);
        let mut even = true;
        for b in self.0.bytes() {
            let value = decode_char(b).expect("validated at construction");
            for shift in (0..5).rev() {
                let bit = (value >> shift) & 1;
                let range = if even { &mut lon } else { &mut lat };
                let mid = (range.0 + range.1) / 2.0;
                if bit == 1 {
                    range.0 = mid;
                } else {
                    range.1 = mid;
                }
                even = !even;
            }
        }
        (lat, lon)
    }

    /// The centre point of this cell.
    pub fn decode_center(&self) -> GeoPoint {
        let ((lat_min, lat_max), (lon_min, lon_max)) = self.bounds();
        GeoPoint::new((lat_min + lat_max) / 2.0, (lon_min + lon_max) / 2.0)
    }

    /// Truncates to a coarser precision, producing the enclosing cell.
    ///
    /// # Panics
    ///
    /// Panics if `precision` is zero or greater than the current precision.
    pub fn truncate(&self, precision: usize) -> GeoHash {
        assert!(
            precision >= 1 && precision <= self.precision(),
            "cannot truncate {} chars to {precision}",
            self.precision()
        );
        GeoHash(self.0[..precision].to_string())
    }

    /// `true` if `other` lies inside this cell (i.e. this hash is a prefix
    /// of the other).
    pub fn contains(&self, other: &GeoHash) -> bool {
        other.0.starts_with(&self.0)
    }

    /// The eight neighbouring cells at the same precision (clockwise from
    /// north), computed by re-encoding offset centre points. Cells at the
    /// poles may produce fewer than eight distinct neighbours.
    pub fn neighbors(&self) -> Vec<GeoHash> {
        let ((lat_min, lat_max), (lon_min, lon_max)) = self.bounds();
        let dlat = lat_max - lat_min;
        let dlon = lon_max - lon_min;
        let center = self.decode_center();
        let mut out = Vec::with_capacity(8);
        for (dy, dx) in [
            (1.0, 0.0),
            (1.0, 1.0),
            (0.0, 1.0),
            (-1.0, 1.0),
            (-1.0, 0.0),
            (-1.0, -1.0),
            (0.0, -1.0),
            (1.0, -1.0),
        ] {
            let p = GeoPoint::new(center.lat() + dy * dlat, center.lon() + dx * dlon);
            let h = GeoHash::encode(p, self.precision());
            if h != *self && !out.contains(&h) {
                out.push(h);
            }
        }
        out
    }

    /// Number of leading characters this hash shares with `other`.
    ///
    /// Shared prefix length is the geohash notion of closeness a
    /// federated control plane routes on: the shard whose anchor shares
    /// the longest prefix with a point's hash is its *home* shard.
    pub fn common_prefix_len(&self, other: &GeoHash) -> usize {
        self.0
            .bytes()
            .zip(other.0.bytes())
            .take_while(|(a, b)| a == b)
            .count()
    }
}

impl fmt::Display for GeoHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_vector_ezs42() {
        // Classic reference vector: (42.605, -5.603) encodes to "ezs42".
        let h = GeoHash::encode(GeoPoint::new(42.605, -5.603), 5);
        assert_eq!(h.as_str(), "ezs42");
    }

    #[test]
    fn known_vector_minneapolis() {
        let h = GeoHash::encode(GeoPoint::new(44.9778, -93.2650), 7);
        assert!(h.as_str().starts_with("9zvxv"), "got {h}");
    }

    #[test]
    fn common_prefix_len_measures_shared_leading_chars() {
        let msp = GeoHash::encode(GeoPoint::new(44.9778, -93.2650), 8);
        let near = GeoHash::encode(GeoPoint::new(44.9800, -93.2600), 8);
        let far = GeoHash::encode(GeoPoint::new(-33.8688, 151.2093), 8);
        assert_eq!(msp.common_prefix_len(&msp), 8);
        assert!(
            msp.common_prefix_len(&near) >= 5,
            "nearby points share a deep prefix"
        );
        assert_eq!(msp.common_prefix_len(&far), 0);
        // Symmetric, and bounded by the shorter hash.
        assert_eq!(msp.common_prefix_len(&near), near.common_prefix_len(&msp));
        let short = msp.truncate(3);
        assert_eq!(msp.common_prefix_len(&short), 3);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(GeoHash::parse("").is_none());
        assert!(GeoHash::parse("abc").is_none()); // 'a' not in alphabet
        assert!(GeoHash::parse("9zvx!").is_none());
        assert!(GeoHash::parse(&"9".repeat(13)).is_none());
        assert!(GeoHash::parse("9ZVXV").is_some()); // case-insensitive
    }

    #[test]
    fn truncate_produces_prefix_cell() {
        let h = GeoHash::encode(GeoPoint::new(44.9778, -93.2650), 8);
        let t = h.truncate(4);
        assert_eq!(t.precision(), 4);
        assert!(t.contains(&h));
        assert!(!h.contains(&t));
    }

    #[test]
    fn bounds_contain_encoded_point() {
        let p = GeoPoint::new(44.9778, -93.2650);
        let h = GeoHash::encode(p, 6);
        let ((lat_min, lat_max), (lon_min, lon_max)) = h.bounds();
        assert!(lat_min <= p.lat() && p.lat() <= lat_max);
        assert!(lon_min <= p.lon() && p.lon() <= lon_max);
    }

    #[test]
    fn neighbors_are_distinct_and_adjacent() {
        let h = GeoHash::encode(GeoPoint::new(44.9778, -93.2650), 6);
        let ns = h.neighbors();
        assert_eq!(ns.len(), 8);
        let ((south, north), (west, east)) = h.bounds();
        let diagonal = GeoPoint::new(south, west).distance_km(GeoPoint::new(north, east));
        let max_dist = 2.0 * diagonal;
        for n in &ns {
            assert_ne!(n, &h);
            assert!(h.decode_center().distance_km(n.decode_center()) < max_dist);
        }
    }

    #[test]
    #[should_panic(expected = "precision must be")]
    fn zero_precision_panics() {
        let _ = GeoHash::encode(GeoPoint::new(0.0, 0.0), 0);
    }

    proptest! {
        #[test]
        fn encode_decode_roundtrip_stays_in_cell(
            lat in -89.0f64..89.0,
            lon in -179.0f64..179.0,
            precision in 1usize..=10,
        ) {
            let p = GeoPoint::new(lat, lon);
            let h = GeoHash::encode(p, precision);
            // Re-encoding the decoded centre must land in the same cell.
            let again = GeoHash::encode(h.decode_center(), precision);
            prop_assert_eq!(again, h);
        }

        #[test]
        fn prefix_property(
            lat in -89.0f64..89.0,
            lon in -179.0f64..179.0,
            coarse in 1usize..=5,
            extra in 1usize..=5,
        ) {
            let p = GeoPoint::new(lat, lon);
            let long = GeoHash::encode(p, coarse + extra);
            let short = GeoHash::encode(p, coarse);
            // Encoding at lower precision is exactly the prefix.
            prop_assert_eq!(long.truncate(coarse), short);
        }

        #[test]
        fn parse_accepts_all_encodings(
            lat in -89.0f64..89.0,
            lon in -179.0f64..179.0,
        ) {
            let h = GeoHash::encode(GeoPoint::new(lat, lon), 8);
            prop_assert_eq!(GeoHash::parse(h.as_str()), Some(h));
        }
    }
}
