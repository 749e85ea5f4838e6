//! Virtual time.
//!
//! The paper measures algorithm performance in *network delays*: a message
//! takes one delay, a memory operation takes two (its hardware implementation
//! is a round trip). We represent virtual time as integer *ticks* with
//! [`TICKS_PER_DELAY`] ticks per network delay, so that sub-delay timer
//! granularity (e.g. polling loops) is expressible while delay accounting
//! stays exact.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Number of ticks in one network delay (the paper's unit of latency).
pub const TICKS_PER_DELAY: u64 = 1_000;

/// An instant of virtual time, measured in ticks since the start of the run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

impl Time {
    /// The origin of virtual time.
    pub const ZERO: Time = Time(0);

    /// Constructs a time from a whole number of network delays.
    ///
    /// ```
    /// use simnet::{Time, TICKS_PER_DELAY};
    /// assert_eq!(Time::from_delays(2).0, 2 * TICKS_PER_DELAY);
    /// ```
    pub fn from_delays(delays: u64) -> Time {
        Time(delays * TICKS_PER_DELAY)
    }

    /// This instant expressed in (possibly fractional) network delays.
    pub fn as_delays(self) -> f64 {
        self.0 as f64 / TICKS_PER_DELAY as f64
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}d", self.as_delays())
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.as_delays())
    }
}

/// A span of virtual time, in ticks.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl Duration {
    /// A zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// One network delay.
    pub const DELAY: Duration = Duration(TICKS_PER_DELAY);

    /// Constructs a duration from a whole number of network delays.
    pub fn from_delays(delays: u64) -> Duration {
        Duration(delays * TICKS_PER_DELAY)
    }

    /// This span expressed in (possibly fractional) network delays.
    pub fn as_delays(self) -> f64 {
        self.0 as f64 / TICKS_PER_DELAY as f64
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}d", self.as_delays())
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    fn add(self, rhs: Duration) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Time {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl Sub for Time {
    type Output = Duration;
    fn sub(self, rhs: Time) -> Duration {
        Duration(self.0.checked_sub(rhs.0).expect("time went backwards"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_round_trip() {
        assert_eq!(Time::from_delays(3).as_delays(), 3.0);
        assert_eq!(Duration::from_delays(5).as_delays(), 5.0);
    }

    #[test]
    fn arithmetic() {
        let t = Time::from_delays(2) + Duration::from_delays(3);
        assert_eq!(t, Time::from_delays(5));
        assert_eq!(t - Time::from_delays(2), Duration::from_delays(3));
    }
}
