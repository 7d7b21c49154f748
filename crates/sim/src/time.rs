//! Virtual time: instants and durations in integer nanoseconds.

#![expect(
    clippy::expect_used,
    reason = "checked arithmetic made loud: an overflowing instant or a negative span is a simulator bug, and wrapping would silently reorder events"
)]

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation's virtual clock, in nanoseconds since the
/// start of the run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Constructs an instant from nanoseconds since simulation start.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Nanoseconds since simulation start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since simulation start, as a float (for reporting).
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Seconds since simulation start, as a float (for reporting).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// The duration elapsed since `earlier`.
    ///
    /// # Panics
    /// Panics if `earlier` is later than `self`.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime::since: earlier instant is in the future"),
        )
    }

    /// Saturating difference; zero if `earlier` is later than `self`.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Constructs a duration from nanoseconds.
    #[inline]
    pub const fn nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Constructs a duration from microseconds.
    #[inline]
    pub const fn micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Constructs a duration from milliseconds.
    #[inline]
    pub const fn millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Constructs a duration from seconds.
    #[inline]
    pub const fn secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Constructs a duration from fractional microseconds, rounding to the
    /// nearest nanosecond. Useful for calibrated hardware parameters.
    #[inline]
    pub fn micros_f64(us: f64) -> Self {
        debug_assert!(us >= 0.0, "negative duration");
        SimDuration((us * 1_000.0).round() as u64)
    }

    /// The span in nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span in fractional microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The span in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Time to move `bytes` at `bytes_per_sec`, rounded up to whole
    /// nanoseconds (serialization/DMA cost model).
    #[inline]
    pub fn for_bytes(bytes: u64, bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0, "zero rate");
        // ceil(bytes * 1e9 / rate) without overflow for realistic sizes.
        let ns = (bytes as u128 * 1_000_000_000u128).div_ceil(bytes_per_sec as u128);
        SimDuration(ns as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration underflow"))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}ns", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimDuration::micros(3).as_nanos(), 3_000);
        assert_eq!(SimDuration::millis(2).as_nanos(), 2_000_000);
        assert_eq!(SimDuration::secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(SimDuration::micros_f64(1.5).as_nanos(), 1_500);
        assert_eq!(SimTime::from_nanos(42).as_nanos(), 42);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_nanos(100) + SimDuration::nanos(50);
        assert_eq!(t.as_nanos(), 150);
        assert_eq!(t.since(SimTime::from_nanos(100)).as_nanos(), 50);
        assert_eq!(
            (SimDuration::nanos(10) + SimDuration::nanos(5)).as_nanos(),
            15
        );
        assert_eq!((SimDuration::nanos(10) * 3).as_nanos(), 30);
        assert_eq!((SimDuration::nanos(10) / 3).as_nanos(), 3);
    }

    #[test]
    fn for_bytes_rounds_up() {
        // 1 byte at 1 GB/s = 1 ns exactly.
        assert_eq!(SimDuration::for_bytes(1, 1_000_000_000).as_nanos(), 1);
        // 1 byte at 3 GB/s = 1/3 ns, rounded up to 1.
        assert_eq!(SimDuration::for_bytes(1, 3_000_000_000).as_nanos(), 1);
        // 2048 bytes at 1 GB/s = 2048 ns.
        assert_eq!(SimDuration::for_bytes(2048, 1_000_000_000).as_nanos(), 2048);
        // Zero bytes costs zero regardless of rate.
        assert_eq!(SimDuration::for_bytes(0, 7).as_nanos(), 0);
    }

    #[test]
    fn saturating_since_clamps() {
        let early = SimTime::from_nanos(10);
        let late = SimTime::from_nanos(20);
        assert_eq!(early.saturating_since(late).as_nanos(), 0);
        assert_eq!(late.saturating_since(early).as_nanos(), 10);
    }

    #[test]
    #[should_panic(expected = "future")]
    fn since_panics_on_negative() {
        let _ = SimTime::from_nanos(1).since(SimTime::from_nanos(2));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimTime::from_nanos(1_500)), "1.500us");
        assert_eq!(format!("{}", SimDuration::nanos(250)), "0.250us");
        assert_eq!(format!("{:?}", SimDuration::nanos(250)), "250ns");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::nanos).sum();
        assert_eq!(total.as_nanos(), 10);
    }
}
