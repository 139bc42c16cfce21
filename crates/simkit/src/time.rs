//! Simulation time.
//!
//! Time is measured in whole seconds from the simulation epoch (the
//! `UnixStartTime` of the workload), exactly like the Standard Workload
//! Format. All durations are plain `u64` seconds; [`SimTime`] is a newtype so
//! instants and durations cannot be mixed up silently.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// One minute in seconds.
pub(crate) const MINUTE: u64 = 60;
/// One hour in seconds.
pub const HOUR: u64 = 3600;
/// One day in seconds.
pub const DAY: u64 = 86_400;

/// An instant in simulation time (seconds since the simulation epoch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Seconds since the epoch.
    #[inline]
    pub fn secs(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch as `f64` (for rate computations).
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Duration from `earlier` to `self`, saturating at zero.
    #[inline]
    pub fn since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// `self + secs`, saturating at `SimTime::MAX`.
    #[inline]
    pub fn after(self, secs: u64) -> SimTime {
        SimTime(self.0.saturating_add(secs))
    }

    /// Calendar day index since the epoch (for per-day series).
    #[inline]
    pub fn day(self) -> u64 {
        self.0 / DAY
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: u64) -> SimTime {
        self.after(rhs)
    }
}

impl AddAssign<u64> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        *self = self.after(rhs);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = u64;
    #[inline]
    fn sub(self, rhs: SimTime) -> u64 {
        self.since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.0 / DAY;
        let h = (self.0 % DAY) / HOUR;
        let m = (self.0 % HOUR) / MINUTE;
        let s = self.0 % MINUTE;
        if d > 0 {
            write!(f, "{d}d {h:02}:{m:02}:{s:02}")
        } else {
            write!(f, "{h:02}:{m:02}:{s:02}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let t = SimTime(100);
        assert_eq!((t + 50).secs(), 150);
        assert_eq!(t.after(50) - t, 50);
        assert_eq!(t.since(SimTime(200)), 0, "since saturates");
    }

    #[test]
    fn saturating_add_never_wraps() {
        assert_eq!(SimTime::MAX + 1, SimTime::MAX);
        assert_eq!(SimTime::MAX.after(u64::MAX), SimTime::MAX);
    }

    #[test]
    fn day_index() {
        assert_eq!(SimTime(0).day(), 0);
        assert_eq!(SimTime(DAY - 1).day(), 0);
        assert_eq!(SimTime(DAY).day(), 1);
        assert_eq!(SimTime(10 * DAY + 5).day(), 10);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime(0).to_string(), "00:00:00");
        assert_eq!(SimTime(3661).to_string(), "01:01:01");
        assert_eq!(SimTime(DAY + 60).to_string(), "1d 00:01:00");
    }

    #[test]
    fn ordering_is_by_instant() {
        assert!(SimTime(1) < SimTime(2));
        assert!(SimTime::ZERO < SimTime::MAX);
    }
}
