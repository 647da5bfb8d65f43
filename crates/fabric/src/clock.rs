//! Monotonic clocks behind one [`Time`] type.
//!
//! The simulator *is* its own clock (virtual time advances at event
//! boundaries), so it never needs this trait. Real-time drivers do: a
//! [`NodeDriver`](crate::NodeDriver) reads a [`Clock`] once per loop
//! iteration and feeds node callbacks the same integer-nanosecond [`Time`]
//! the simulator would — the reading itself for packets, and for timers
//! the instant each was due (see [`Fabric::now`](crate::Fabric::now)) —
//! so protocol code (NACK timeouts, pacing gaps) is written once against
//! `Time` and never learns whether nanoseconds are virtual or wall.

use crate::time::Time;
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// A monotonic source of fabric [`Time`].
pub trait Clock {
    /// Nanoseconds since this clock's epoch. Must never go backwards.
    fn now(&self) -> Time;
}

/// A shared handle reads the clock it points at, so a test can keep
/// cranking a [`ManualClock`] after handing a clone to a driver.
impl<C: Clock + ?Sized> Clock for Rc<C> {
    fn now(&self) -> Time {
        (**self).now()
    }
}

/// Wall-clock time from [`std::time::Instant`], with the epoch fixed at
/// construction so values start near zero (like a fresh simulation).
#[derive(Debug, Clone)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A clock whose epoch is now.
    pub fn new() -> WallClock {
        WallClock { origin: Instant::now() }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> Time {
        // 2^64 ns ≈ 584 years of process uptime: the cast cannot wrap.
        Time(self.origin.elapsed().as_nanos() as u64)
    }
}

/// A hand-cranked clock for deterministic driver and timer-wheel tests.
#[derive(Debug, Default)]
pub struct ManualClock {
    now: Cell<u64>,
}

impl ManualClock {
    /// A clock frozen at the epoch.
    pub fn new() -> ManualClock {
        ManualClock { now: Cell::new(0) }
    }

    /// Advances the clock by `ns` nanoseconds.
    pub fn advance(&self, ns: u64) {
        self.now.set(self.now.get() + ns);
    }

    /// Sets the clock to an absolute instant; must not move backwards.
    pub fn set(&self, t: Time) {
        assert!(t.0 >= self.now.get(), "ManualClock must be monotonic");
        self.now.set(t.0);
    }
}

impl Clock for ManualClock {
    fn now(&self) -> Time {
        Time(self.now.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotonic_and_starts_near_zero() {
        let c = WallClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
        // Construction-to-first-read is far below a second.
        assert!(a.as_secs_f64() < 1.0);
    }

    #[test]
    fn manual_clock_advances_on_demand() {
        let c = ManualClock::new();
        assert_eq!(c.now(), Time::ZERO);
        c.advance(250);
        assert_eq!(c.now(), Time(250));
        c.set(Time(1_000));
        assert_eq!(c.now(), Time(1_000));
    }
}
