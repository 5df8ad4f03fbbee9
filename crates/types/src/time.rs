//! Virtual time types used by the discrete-event simulator and all
//! latency accounting.
//!
//! The simulator advances an integer microsecond clock, which keeps event
//! ordering total and deterministic ([`SimTime`] is `Ord`). Reporting code
//! converts to floating-point milliseconds at the edges.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point on the simulation's virtual timeline, in integer microseconds
/// since the start of the run.
///
/// # Examples
///
/// ```
/// use armada_types::{SimTime, SimDuration};
///
/// let t = SimTime::ZERO + SimDuration::from_millis(3);
/// assert_eq!(t.as_micros(), 3_000);
/// assert_eq!((t - SimTime::ZERO).as_millis_f64(), 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The origin of the virtual timeline.
    pub const ZERO: SimTime = SimTime(0);

    /// A time later than any reachable simulation time.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time point from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Creates a time point from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Creates a time point from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Raw microsecond value.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This time point expressed in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This time point expressed in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}ms", self.as_millis_f64())
    }
}

/// A span of virtual time, in integer microseconds.
///
/// # Examples
///
/// ```
/// use armada_types::SimDuration;
///
/// let d = SimDuration::from_millis_f64(1.5) * 2;
/// assert_eq!(d.as_millis_f64(), 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Creates a duration from fractional milliseconds, rounding to the
    /// nearest microsecond. Negative and non-finite inputs clamp to zero.
    pub fn from_millis_f64(ms: f64) -> Self {
        if !ms.is_finite() || ms <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((ms * 1_000.0).round() as u64)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// microsecond. Negative and non-finite inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((s * 1_000_000.0).round() as u64)
    }

    /// Raw microsecond value.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This duration expressed in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This duration expressed in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// `true` if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies by a non-negative floating-point factor, rounding to the
    /// nearest microsecond.
    pub fn mul_f64(self, factor: f64) -> Self {
        SimDuration::from_millis_f64(self.as_millis_f64() * factor)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> Self {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`; use
    /// [`SimTime::saturating_since`] when that can happen.
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction underflow");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimDuration subtraction underflow");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_units_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1_000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1_000));
        assert_eq!(
            SimDuration::from_secs(2),
            SimDuration::from_micros(2_000_000)
        );
    }

    #[test]
    fn arithmetic_roundtrip() {
        let t0 = SimTime::from_millis(10);
        let d = SimDuration::from_millis_f64(2.5);
        let t1 = t0 + d;
        assert_eq!(t1 - t0, d);
        assert_eq!(t1 - d, t0);
    }

    #[test]
    fn fractional_millis_round_to_microsecond() {
        let d = SimDuration::from_millis_f64(0.0004);
        assert_eq!(d.as_micros(), 0);
        let d = SimDuration::from_millis_f64(0.0006);
        assert_eq!(d.as_micros(), 1);
    }

    #[test]
    fn negative_and_nan_clamp_to_zero() {
        assert_eq!(SimDuration::from_millis_f64(-3.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_millis_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs_f64(f64::NEG_INFINITY),
            SimDuration::ZERO
        );
    }

    #[test]
    fn saturating_since_handles_future_times() {
        let early = SimTime::from_millis(5);
        let late = SimTime::from_millis(9);
        assert_eq!(late.saturating_since(early), SimDuration::from_millis(4));
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total, SimDuration::from_millis(10));
    }

    #[test]
    fn display_is_millis() {
        assert_eq!(SimDuration::from_micros(1500).to_string(), "1.500ms");
        assert_eq!(SimTime::from_micros(250).to_string(), "t=0.250ms");
    }

    proptest! {
        #[test]
        fn add_then_sub_is_identity(base in 0u64..1_000_000_000, delta in 0u64..1_000_000) {
            let t = SimTime::from_micros(base);
            let d = SimDuration::from_micros(delta);
            prop_assert_eq!((t + d) - d, t);
            prop_assert_eq!((t + d) - t, d);
        }

        #[test]
        fn millis_f64_roundtrip(us in 0u64..10_000_000_000) {
            let d = SimDuration::from_micros(us);
            let back = SimDuration::from_millis_f64(d.as_millis_f64());
            // f64 has 52 bits of mantissa; values in range roundtrip exactly.
            prop_assert_eq!(back, d);
        }

        #[test]
        fn ordering_matches_raw(a in 0u64..u64::MAX / 2, b in 0u64..u64::MAX / 2) {
            prop_assert_eq!(
                SimTime::from_micros(a).cmp(&SimTime::from_micros(b)),
                a.cmp(&b)
            );
        }
    }
}
