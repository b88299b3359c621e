//! Simulated time.
//!
//! The simulator counts microseconds in a `u64`, which covers more than half
//! a million simulated years — overflow is treated as a programming error
//! and panics in debug builds via the standard checked arithmetic.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant on the simulated clock (microseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (microseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from microseconds since the epoch.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant from milliseconds since the epoch.
    ///
    /// # Panics
    ///
    /// Panics if `ms` is negative, not finite, or past [`SimTime::MAX`].
    pub fn from_ms(ms: f64) -> Self {
        SimTime(SimDuration::from_ms(ms).0)
    }

    /// Microseconds since the epoch.
    pub const fn as_micros(&self) -> u64 {
        self.0
    }

    /// Milliseconds since the epoch.
    pub fn as_ms(&self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn since(&self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("`earlier` must not be later than `self`"),
        )
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a duration from milliseconds, rounded to whole microseconds;
    /// `None` when `ms` is negative, not finite, or more than `u64::MAX` µs.
    pub fn checked_from_ms(ms: f64) -> Option<Self> {
        let micros = (ms * 1_000.0).round();
        // `u64::MAX as f64` rounds up to 2^64, the first value off the clock.
        (ms >= 0.0 && micros < u64::MAX as f64).then_some(SimDuration(micros as u64))
    }

    /// Creates a duration from milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `ms` is negative, not finite, or more than `u64::MAX` µs.
    pub fn from_ms(ms: f64) -> Self {
        Self::checked_from_ms(ms).unwrap_or_else(|| {
            panic!("duration must be finite, non-negative and at most u64::MAX µs, got {ms}")
        })
    }

    /// Creates a duration from seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, not finite, or more than `u64::MAX` µs.
    pub fn from_secs(secs: f64) -> Self {
        Self::from_ms(secs * 1_000.0)
    }

    /// Microseconds in this duration.
    pub const fn as_micros(&self) -> u64 {
        self.0
    }

    /// Milliseconds in this duration.
    pub fn as_ms(&self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Multiplies the duration by an integer factor (checked).
    ///
    /// # Panics
    ///
    /// Panics on overflow.
    pub fn mul(&self, factor: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(factor).expect("duration overflow"))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("simulated clock overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("duration overflow"))
    }
}

impl Sub for SimTime {
    type Output = SimDuration;

    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}ms", self.as_ms())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_ms())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ms_micros_roundtrip() {
        let t = SimTime::from_ms(12.345);
        assert_eq!(t.as_micros(), 12_345);
        assert_eq!(t.as_ms(), 12.345);
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(SimTime::from_ms(1.0) < SimTime::from_ms(2.0));
        assert!(SimTime::ZERO < SimTime::MAX);
    }

    #[test]
    fn add_duration() {
        let t = SimTime::from_ms(10.0) + SimDuration::from_ms(5.5);
        assert_eq!(t.as_ms(), 15.5);
        let mut u = SimTime::ZERO;
        u += SimDuration::from_micros(7);
        assert_eq!(u.as_micros(), 7);
    }

    #[test]
    fn since_and_sub() {
        let a = SimTime::from_ms(3.0);
        let b = SimTime::from_ms(10.0);
        assert_eq!(b.since(a).as_ms(), 7.0);
        assert_eq!((b - a).as_ms(), 7.0);
    }

    #[test]
    #[should_panic(expected = "must not be later")]
    fn since_panics_when_reversed() {
        let _ = SimTime::from_ms(1.0).since(SimTime::from_ms(2.0));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_ms_rejected() {
        let _ = SimDuration::from_ms(-1.0);
    }

    /// A finite value past the clock is rejected like a negative one, not
    /// clamped to `u64::MAX` µs.
    #[test]
    #[should_panic(expected = "non-negative")]
    fn ms_beyond_the_clock_rejected() {
        assert!(SimDuration::checked_from_ms(1.8e16).is_some());
        assert_eq!(SimDuration::checked_from_ms(1e20), None);
        let _ = SimTime::from_ms(1e20);
    }

    #[test]
    fn duration_arithmetic() {
        let d = SimDuration::from_ms(2.0) + SimDuration::from_ms(3.0);
        assert_eq!(d.as_ms(), 5.0);
        assert_eq!(d.mul(4).as_ms(), 20.0);
        assert_eq!(SimDuration::from_secs(1.5).as_ms(), 1_500.0);
    }

    /// Regression for the latent large-horizon overflow: arithmetic at
    /// `SimTime::MAX`-adjacent instants must either stay exact, report
    /// `None`, or saturate — never wrap.
    #[test]
    fn max_adjacent_arithmetic_never_wraps() {
        let brink = SimTime::from_micros(u64::MAX - 1);
        // Exact landing on MAX is representable.
        assert_eq!(brink + SimDuration::from_micros(1), SimTime::MAX);
        // Adding zero at the brink is exact on every path.
        assert_eq!(SimTime::MAX + SimDuration::ZERO, SimTime::MAX);
        assert_eq!(SimTime::MAX.since(brink).as_micros(), 1);
    }

    #[test]
    #[should_panic(expected = "simulated clock overflow")]
    fn unchecked_add_past_max_panics_rather_than_wrapping() {
        let _ = SimTime::MAX + SimDuration::from_micros(1);
    }

    /// A multi-day horizon at microsecond granularity is far inside the
    /// representable range (u64 µs covers > 500k years).
    #[test]
    fn multi_day_horizons_fit_comfortably() {
        let thirty_days = SimDuration::from_secs(30.0 * 24.0 * 3_600.0);
        let t = SimTime::ZERO + thirty_days.mul(1_000);
        assert_eq!(t.as_micros(), 30 * 24 * 3_600 * 1_000_000 * 1_000);
        assert!(t < SimTime::MAX);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_ms(1.5).to_string(), "t=1.500ms");
        assert_eq!(SimDuration::from_ms(0.25).to_string(), "0.250ms");
    }
}
