//! Data volumes and link capacities.

use std::fmt;
use std::ops::{Add, Mul};

use crate::time::SimDuration;

/// A quantity of data, stored in bytes.
///
/// # Examples
///
/// ```
/// use armada_types::DataSize;
///
/// let frame = DataSize::from_megabytes(0.02);
/// assert_eq!(frame.as_bytes(), 20_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DataSize(u64);

impl DataSize {
    /// The empty payload.
    pub const ZERO: DataSize = DataSize(0);

    /// Creates a size from raw bytes.
    pub const fn from_bytes(bytes: u64) -> Self {
        DataSize(bytes)
    }

    /// Creates a size from fractional megabytes (10^6 bytes), rounding to
    /// the nearest byte. Negative and non-finite inputs clamp to zero.
    pub fn from_megabytes(mb: f64) -> Self {
        if !mb.is_finite() || mb <= 0.0 {
            return DataSize::ZERO;
        }
        DataSize((mb * 1_000_000.0).round() as u64)
    }

    /// Raw byte count.
    pub const fn as_bytes(self) -> u64 {
        self.0
    }

    /// Size in fractional megabytes.
    pub fn as_megabytes(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Number of data bits (8 per byte).
    pub const fn as_bits(self) -> u64 {
        self.0 * 8
    }
}

impl fmt::Display for DataSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.2}MB", self.as_megabytes())
        } else if self.0 >= 1_000 {
            write!(f, "{:.1}KB", self.0 as f64 / 1_000.0)
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

impl Add for DataSize {
    type Output = DataSize;
    fn add(self, rhs: DataSize) -> DataSize {
        DataSize(self.0.saturating_add(rhs.0))
    }
}

impl Mul<u64> for DataSize {
    type Output = DataSize;
    fn mul(self, rhs: u64) -> DataSize {
        DataSize(self.0.saturating_mul(rhs))
    }
}

/// A link capacity, stored in bits per second.
///
/// # Examples
///
/// ```
/// use armada_types::{Bandwidth, DataSize};
///
/// let link = Bandwidth::from_megabits_per_sec(8.0);
/// let t = link.transfer_time(DataSize::from_bytes(1_000_000)); // 1 MB
/// assert!((t.as_secs_f64() - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bandwidth(u64);

impl Bandwidth {
    /// Creates a bandwidth from fractional megabits per second. Negative
    /// and non-finite inputs clamp to zero.
    pub fn from_megabits_per_sec(mbps: f64) -> Self {
        if !mbps.is_finite() || mbps <= 0.0 {
            return Bandwidth(0);
        }
        Bandwidth((mbps * 1_000_000.0).round() as u64)
    }

    /// Capacity in fractional megabits per second.
    pub fn as_megabits_per_sec(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Time to push `size` onto the wire at this capacity.
    ///
    /// A zero bandwidth yields [`SimDuration::ZERO`]: links with unknown
    /// capacity are treated as infinitely fast rather than blocking the
    /// simulation forever; model explicit outages via link failure instead.
    pub fn transfer_time(self, size: DataSize) -> SimDuration {
        if self.0 == 0 || size.as_bytes() == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_secs_f64(size.as_bits() as f64 / self.0 as f64)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}Mbps", self.as_megabits_per_sec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn frame_size_from_paper() {
        // The AR application sends 0.02 MB frames.
        let frame = DataSize::from_megabytes(0.02);
        assert_eq!(frame.as_bytes(), 20_000);
        assert_eq!(frame.as_bits(), 160_000);
    }

    #[test]
    fn transfer_time_is_linear_in_size() {
        let bw = Bandwidth::from_megabits_per_sec(10.0);
        let one = bw.transfer_time(DataSize::from_bytes(100_000));
        let two = bw.transfer_time(DataSize::from_bytes(200_000));
        assert_eq!(two.as_micros(), one.as_micros() * 2);
    }

    #[test]
    fn zero_bandwidth_means_instant() {
        let bw = Bandwidth::from_megabits_per_sec(0.0);
        assert_eq!(
            bw.transfer_time(DataSize::from_megabytes(5.0)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn zero_size_is_instant() {
        let bw = Bandwidth::from_megabits_per_sec(1.0);
        assert_eq!(bw.transfer_time(DataSize::ZERO), SimDuration::ZERO);
    }

    #[test]
    fn display_picks_sane_units() {
        assert_eq!(DataSize::from_bytes(12).to_string(), "12B");
        assert_eq!(DataSize::from_bytes(20_000).to_string(), "20.0KB");
        assert_eq!(DataSize::from_megabytes(1.5).to_string(), "1.50MB");
        assert_eq!(
            Bandwidth::from_megabits_per_sec(20.0).to_string(),
            "20.00Mbps"
        );
    }

    #[test]
    fn negative_inputs_clamp() {
        assert_eq!(DataSize::from_megabytes(-1.0), DataSize::ZERO);
        assert_eq!(Bandwidth::from_megabits_per_sec(-5.0), Bandwidth::default());
    }

    proptest! {
        #[test]
        fn faster_links_are_never_slower(
            bytes in 1u64..10_000_000,
            slow_mbps in 1.0f64..100.0,
            boost in 1.0f64..10.0,
        ) {
            let size = DataSize::from_bytes(bytes);
            let slow = Bandwidth::from_megabits_per_sec(slow_mbps);
            let fast = Bandwidth::from_megabits_per_sec(slow_mbps * boost);
            prop_assert!(fast.transfer_time(size) <= slow.transfer_time(size));
        }

        #[test]
        fn size_addition_is_commutative(a in 0u64..u64::MAX / 2, b in 0u64..u64::MAX / 2) {
            let (a, b) = (DataSize::from_bytes(a), DataSize::from_bytes(b));
            prop_assert_eq!(a + b, b + a);
        }
    }
}
