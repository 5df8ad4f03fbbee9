//! Geographic coordinates.

use std::fmt;

use armada_json::{FromJson, Json, JsonError, ToJson};

/// Mean Earth radius in kilometres (IUGG).
///
/// Public so spatial indexes can derive conservative search bounds from
/// the *same* sphere [`GeoPoint::distance_km`] measures on.
pub const EARTH_RADIUS_KM: f64 = 6371.0088;

/// A WGS-84 latitude/longitude pair in decimal degrees.
///
/// Latitude is clamped to `[-90, 90]` and longitude normalised to
/// `[-180, 180)` at construction, so every held value is valid.
///
/// # Examples
///
/// ```
/// use armada_types::GeoPoint;
///
/// let minneapolis = GeoPoint::new(44.9778, -93.2650);
/// let saint_paul = GeoPoint::new(44.9537, -93.0900);
/// let km = minneapolis.distance_km(saint_paul);
/// assert!(km > 13.0 && km < 15.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GeoPoint {
    lat: f64,
    lon: f64,
}

impl GeoPoint {
    /// Creates a point, clamping latitude to `[-90, 90]` and wrapping
    /// longitude into `[-180, 180)`. Non-finite components become `0.0`.
    pub fn new(lat: f64, lon: f64) -> Self {
        let lat = if lat.is_finite() {
            lat.clamp(-90.0, 90.0)
        } else {
            0.0
        };
        let lon = if lon.is_finite() {
            let mut l = (lon + 180.0) % 360.0;
            if l < 0.0 {
                l += 360.0;
            }
            l - 180.0
        } else {
            0.0
        };
        GeoPoint { lat, lon }
    }

    /// Latitude in decimal degrees.
    pub fn lat(self) -> f64 {
        self.lat
    }

    /// Longitude in decimal degrees.
    pub fn lon(self) -> f64 {
        self.lon
    }

    /// Great-circle distance to `other` in kilometres (haversine formula).
    pub fn distance_km(self, other: GeoPoint) -> f64 {
        let (lat1, lon1) = (self.lat.to_radians(), self.lon.to_radians());
        let (lat2, lon2) = (other.lat.to_radians(), other.lon.to_radians());
        let dlat = lat2 - lat1;
        let dlon = lon2 - lon1;
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_KM * a.sqrt().asin()
    }

    /// The north–south part of the way to `other`, in kilometres: a
    /// lower bound on [`GeoPoint::distance_km`] that costs no trig.
    ///
    /// Contract: `a.lat_gap_km(b) <= a.distance_km(b)` for every pair of
    /// points, in floating point as computed, not only on paper — a
    /// caller may skip the haversine for a candidate that is already too
    /// far at this distance. On paper the haversine's `a` is at least
    /// `sin²(dlat/2)`, so the arc is at least `R·|dlat|`; in floats three
    /// things keep it true:
    ///
    /// * `dlat` is the same difference of `to_radians()` values
    ///   `distance_km` takes. A gap taken in degrees cancels differently
    ///   and overshoots the haversine by 1e-4 relative for points a few
    ///   microns apart.
    /// * The product is shaved by `1e-7` relative (a centimetre in
    ///   100 km). Up to a quarter turn the haversine loses under 1e-15;
    ///   between points near opposite poles `asin` is evaluated next to
    ///   1, where one ulp in `a` is worth up to 2e-8 of the arc
    ///   (a measured 2.8e-9 is in the tests, so 1e-9 is not enough).
    /// * A gap under 1e-150 rad reads 0: below ~1e-154 the haversine's
    ///   `sin²` is subnormal and `distance_km` itself reads 0.
    pub fn lat_gap_km(self, other: GeoPoint) -> f64 {
        let dlat = (other.lat.to_radians() - self.lat.to_radians()).abs();
        if dlat < 1e-150 {
            return 0.0;
        }
        dlat * EARTH_RADIUS_KM * (1.0 - 1e-7)
    }

    /// Great-circle distance to `other` in miles.
    pub fn distance_miles(self, other: GeoPoint) -> f64 {
        self.distance_km(other) * 0.621_371
    }

    /// Returns a point offset approximately `east_km`/`north_km` away,
    /// using a local flat-earth approximation (adequate for the metro-scale
    /// distances the paper studies).
    pub fn offset_km(self, east_km: f64, north_km: f64) -> GeoPoint {
        let dlat = north_km / 110.574;
        let cos_lat = self.lat.to_radians().cos().max(1e-9);
        let dlon = east_km / (111.320 * cos_lat);
        GeoPoint::new(self.lat + dlat, self.lon + dlon)
    }
}

impl fmt::Display for GeoPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.4}, {:.4})", self.lat, self.lon)
    }
}

impl ToJson for GeoPoint {
    fn to_json(&self) -> Json {
        Json::object(vec![
            ("lat", Json::Float(self.lat)),
            ("lon", Json::Float(self.lon)),
        ])
    }
}

impl FromJson for GeoPoint {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let lat = value
            .require("lat")?
            .as_f64()
            .ok_or_else(|| JsonError::new("GeoPoint: lat must be a number"))?;
        let lon = value
            .require("lon")?
            .as_f64()
            .ok_or_else(|| JsonError::new("GeoPoint: lon must be a number"))?;
        Ok(GeoPoint::new(lat, lon))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn distance_to_self_is_zero() {
        let p = GeoPoint::new(44.97, -93.26);
        assert!(p.distance_km(p) < 1e-9);
    }

    #[test]
    fn known_distance_msp_to_chicago() {
        let msp = GeoPoint::new(44.9778, -93.2650);
        let chi = GeoPoint::new(41.8781, -87.6298);
        let km = msp.distance_km(chi);
        assert!((km - 570.0).abs() < 15.0, "got {km}");
    }

    #[test]
    fn latitude_clamps_longitude_wraps() {
        let p = GeoPoint::new(95.0, 190.0);
        assert_eq!(p.lat(), 90.0);
        assert!((p.lon() - (-170.0)).abs() < 1e-9);
        let q = GeoPoint::new(-100.0, -190.0);
        assert_eq!(q.lat(), -90.0);
        assert!((q.lon() - 170.0).abs() < 1e-9);
    }

    #[test]
    fn non_finite_components_become_zero() {
        let p = GeoPoint::new(f64::NAN, f64::INFINITY);
        assert_eq!(p.lat(), 0.0);
        assert_eq!(p.lon(), 0.0);
    }

    #[test]
    fn offset_km_moves_roughly_right_distance() {
        let p = GeoPoint::new(44.97, -93.26);
        let q = p.offset_km(10.0, 0.0);
        let d = p.distance_km(q);
        assert!((d - 10.0).abs() < 0.1, "got {d}");
        let r = p.offset_km(0.0, -7.0);
        let d = p.distance_km(r);
        assert!((d - 7.0).abs() < 0.1, "got {d}");
    }

    #[test]
    fn miles_conversion() {
        let p = GeoPoint::new(0.0, 0.0);
        let q = p.offset_km(16.09, 0.0); // ~10 miles
        assert!((p.distance_miles(q) - 10.0).abs() < 0.1);
    }

    /// Holds one pair to `lat_gap_km`'s contract, both ways round.
    fn check_gap(a: GeoPoint, b: GeoPoint) {
        let gap = a.lat_gap_km(b);
        let km = a.distance_km(b).min(b.distance_km(a));
        assert!(
            (0.0..=km).contains(&gap),
            "{a:?} → {b:?}: gap {gap:e} km, distance {km:e} km"
        );
        assert_eq!(gap, b.lat_gap_km(a), "{a:?} ↔ {b:?}");
        if a.lat() == b.lat() {
            assert_eq!(gap, 0.0, "{a:?} → {b:?}");
        } else if (a.lat() - b.lat()).abs() > 1e-12 {
            assert!(gap > 0.0, "{a:?} → {b:?}: a real gap read as none");
        }
    }

    /// SplitMix64, uniform in `[0, 1)`.
    fn unit(state: &mut u64) -> f64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn lat_gap_never_exceeds_distance_at_the_edges() {
        let msp = GeoPoint::new(44.9778, -93.2650);
        check_gap(msp, msp);
        assert_eq!(msp.lat_gap_km(msp), 0.0);
        // One ulp apart in latitude, from the equator to the pole.
        for lat in [0.0f64, 1e-200, 1e-9, 0.5, 44.9778, 89.999_999, 90.0] {
            let next = f64::from_bits(lat.to_bits() + 1).min(90.0);
            let prev = f64::from_bits(lat.to_bits().saturating_sub(1));
            for lon in [-93.2650, -93.2650 + 1e-9, 86.735] {
                check_gap(GeoPoint::new(lat, -93.2650), GeoPoint::new(next, lon));
                check_gap(GeoPoint::new(lat, -93.2650), GeoPoint::new(prev, lon));
                check_gap(GeoPoint::new(-lat, -93.2650), GeoPoint::new(-next, lon));
            }
        }
        // A gap too small for the haversine to see is no gap.
        let (a, b) = (GeoPoint::new(0.0, 0.0), GeoPoint::new(1e-200, 0.0));
        assert_eq!((a.distance_km(b), a.lat_gap_km(b)), (0.0, 0.0));
        // Pole to pole, along a meridian and across all of them.
        for dlon in [0.0, 1e-9, 45.0, 90.0, 179.999_999] {
            check_gap(GeoPoint::new(90.0, 10.0), GeoPoint::new(-90.0, 10.0 + dlon));
            check_gap(
                GeoPoint::new(89.999_999, 10.0),
                GeoPoint::new(-90.0, 10.0 + dlon),
            );
        }
        // Across the antimeridian the longitudes are 359.8° apart as
        // numbers and 0.2° apart on the ground.
        for dlat in [0.0, 1e-7, 0.1, 3.0] {
            check_gap(
                GeoPoint::new(10.0, 179.9),
                GeoPoint::new(10.0 + dlat, -179.9),
            );
            check_gap(
                GeoPoint::new(-60.0, -179.999),
                GeoPoint::new(-60.0 - dlat, 179.999),
            );
        }
        // One latitude, every longitude difference: no gap at all.
        for lat in [-89.0, -45.0, 0.0, 44.9778, 90.0] {
            for dlon in 0..=360 {
                let (a, b) = (
                    GeoPoint::new(lat, -180.0),
                    GeoPoint::new(lat, -180.0 + f64::from(dlon)),
                );
                check_gap(a, b);
                assert_eq!(a.lat_gap_km(b), 0.0);
            }
        }
    }

    #[test]
    fn lat_gap_never_exceeds_distance_over_seeded_pairs() {
        let mut rng = 0x5eed_u64;
        // Metro (the 100 km box discovery ranks over), continental and
        // global spans, and pairs microns apart.
        for span_km in [1e-9, 1e-3, 100.0, 4_000.0] {
            for _ in 0..100_000 {
                let a = GeoPoint::new(
                    180.0 * unit(&mut rng) - 90.0,
                    360.0 * unit(&mut rng) - 180.0,
                );
                let east = span_km * (unit(&mut rng) - 0.5);
                let north = span_km * (unit(&mut rng) - 0.5);
                check_gap(a, a.offset_km(east, north));
            }
        }
        for _ in 0..100_000 {
            let a = GeoPoint::new(
                180.0 * unit(&mut rng) - 90.0,
                360.0 * unit(&mut rng) - 180.0,
            );
            let b = GeoPoint::new(
                180.0 * unit(&mut rng) - 90.0,
                360.0 * unit(&mut rng) - 180.0,
            );
            check_gap(a, b);
        }
        // Metres to microns short of opposite poles, where the haversine
        // is at its worst: the unshaved gap is up to 2.8e-9 over it here.
        for _ in 0..100_000 {
            let south = -90.0 + 10f64.powf(-4.0 - 6.0 * unit(&mut rng));
            let north = 90.0 - 10f64.powf(-4.0 - 6.0 * unit(&mut rng));
            let dlon = 360.0 * unit(&mut rng);
            check_gap(GeoPoint::new(south, 0.0), GeoPoint::new(north, 0.0));
            check_gap(GeoPoint::new(south, 0.0), GeoPoint::new(north, dlon));
        }
    }

    proptest! {
        #[test]
        fn distance_is_symmetric(
            lat1 in -80.0f64..80.0, lon1 in -179.0f64..179.0,
            lat2 in -80.0f64..80.0, lon2 in -179.0f64..179.0,
        ) {
            let a = GeoPoint::new(lat1, lon1);
            let b = GeoPoint::new(lat2, lon2);
            prop_assert!((a.distance_km(b) - b.distance_km(a)).abs() < 1e-6);
        }

        #[test]
        fn distance_is_nonnegative_and_bounded(
            lat1 in -90.0f64..90.0, lon1 in -180.0f64..180.0,
            lat2 in -90.0f64..90.0, lon2 in -180.0f64..180.0,
        ) {
            let d = GeoPoint::new(lat1, lon1).distance_km(GeoPoint::new(lat2, lon2));
            // Half the Earth's circumference is the max great-circle distance.
            prop_assert!((0.0..=20_016.0).contains(&d));
        }

        #[test]
        fn triangle_inequality(
            lat1 in -80.0f64..80.0, lon1 in -179.0f64..179.0,
            lat2 in -80.0f64..80.0, lon2 in -179.0f64..179.0,
            lat3 in -80.0f64..80.0, lon3 in -179.0f64..179.0,
        ) {
            let a = GeoPoint::new(lat1, lon1);
            let b = GeoPoint::new(lat2, lon2);
            let c = GeoPoint::new(lat3, lon3);
            prop_assert!(a.distance_km(c) <= a.distance_km(b) + b.distance_km(c) + 1e-6);
        }
    }
}
