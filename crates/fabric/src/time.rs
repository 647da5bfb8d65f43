//! Fabric time: integer nanoseconds since an epoch.
//!
//! One [`Time`] type serves both backends. Under the discrete-event
//! simulator the epoch is simulation start and the clock advances only at
//! event boundaries; under the real-time UDP backend the epoch is the
//! moment the driver's [`Clock`](crate::Clock) was created and the values
//! track a monotonic wall clock. Integer time (rather than `f64` seconds)
//! keeps event ordering exact and simulated runs reproducible — two events
//! can only tie at the *same* nanosecond, in which case the simulator
//! queue's sequence counter breaks the tie.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// An instant in fabric time (nanoseconds since the backend's epoch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

/// A span of fabric time (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl Time {
    /// The epoch.
    pub const ZERO: Time = Time(0);

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration elapsed since `earlier`; saturates at zero.
    pub fn duration_since(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// From nanoseconds.
    pub const fn from_nanos(ns: u64) -> Duration {
        Duration(ns)
    }

    /// From microseconds.
    pub const fn from_micros(us: u64) -> Duration {
        Duration(us * 1_000)
    }

    /// From milliseconds.
    pub const fn from_millis(ms: u64) -> Duration {
        Duration(ms * 1_000_000)
    }

    /// From seconds.
    pub const fn from_secs(s: u64) -> Duration {
        Duration(s * 1_000_000_000)
    }

    /// Nanoseconds in this duration.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The wire time for `bytes` at `bits_per_sec`, rounded up to a whole
    /// nanosecond so transmission never takes zero time.
    ///
    /// Every link transmission calls this, so the common case stays in
    /// `u64`: `bytes · 8 · 10⁹` fits for any frame up to about 2.3 GB,
    /// and only larger inputs take the 128-bit division (a runtime call,
    /// not an instruction). Both paths round identically.
    pub fn for_bytes(bytes: usize, bits_per_sec: u64) -> Duration {
        const BIT_NS: u64 = 8 * 1_000_000_000;
        let ns = match (bytes as u64).checked_mul(BIT_NS) {
            Some(bit_ns) => bit_ns.div_ceil(bits_per_sec),
            None => (bytes as u128 * u128::from(BIT_NS)).div_ceil(u128::from(bits_per_sec)) as u64,
        };
        Duration(ns)
    }

    /// Scales the duration by an integer factor.
    pub const fn saturating_mul(self, factor: u64) -> Duration {
        Duration(self.0.saturating_mul(factor))
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

impl Sub<Time> for Time {
    type Output = Duration;
    fn sub(self, rhs: Time) -> Duration {
        self.duration_since(rhs)
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.2}us", self.0 as f64 / 1e3)
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.2}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_behaves() {
        let t = Time::ZERO + Duration::from_micros(3);
        assert_eq!(t.as_nanos(), 3_000);
        let later = t + Duration::from_millis(1);
        assert_eq!(later - t, Duration::from_millis(1));
        // Saturating subtraction for out-of-order comparison.
        assert_eq!(t - later, Duration::ZERO);
    }

    #[test]
    fn wire_time_rounds_up() {
        // 1500 bytes at 10 Gbps = 1.2 us exactly.
        assert_eq!(
            Duration::for_bytes(1500, 10_000_000_000),
            Duration::from_nanos(1_200)
        );
        // 1 byte at 1 Tbps would be 0.008 ns; must round up to 1 ns.
        assert_eq!(
            Duration::for_bytes(1, 1_000_000_000_000),
            Duration::from_nanos(1)
        );
    }

    /// The `u64` fast path agrees bit for bit with the 128-bit formula
    /// over every frame size at the usual line rates, and at the edges
    /// where the product stops fitting in `u64`.
    #[test]
    fn wire_time_fast_path_matches_wide_formula() {
        fn wide(bytes: usize, bps: u64) -> Duration {
            let ns = (bytes as u128 * 8 * 1_000_000_000).div_ceil(u128::from(bps));
            Duration(ns as u64)
        }
        let rates = [
            1_000_000_000,
            10_000_000_000,
            40_000_000_000,
            100_000_000_000,
        ];
        for bps in rates {
            for bytes in 0..=65_535 {
                assert_eq!(
                    Duration::for_bytes(bytes, bps),
                    wide(bytes, bps),
                    "{bytes} B at {bps}"
                );
            }
        }
        let fits = (u64::MAX / 8_000_000_000) as usize;
        for bytes in [fits - 1, fits, fits + 1, usize::MAX / 2, usize::MAX] {
            for bps in [1, 3, 1_000_000_007, u64::MAX].into_iter().chain(rates) {
                assert_eq!(
                    Duration::for_bytes(bytes, bps),
                    wide(bytes, bps),
                    "{bytes} B at {bps}"
                );
            }
        }
    }

    #[test]
    fn display_units_scale() {
        assert_eq!(Duration::from_nanos(12).to_string(), "12ns");
        assert_eq!(Duration::from_micros(12).to_string(), "12.00us");
        assert_eq!(Duration::from_millis(12).to_string(), "12.00ms");
        assert_eq!(Duration::from_secs(2).to_string(), "2.000s");
        assert_eq!(Time(1_500_000).to_string(), "0.001500s");
    }

    #[test]
    fn conversion_constructors() {
        assert_eq!(Duration::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(Duration::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(Duration::from_micros(1).as_nanos(), 1_000);
        assert!((Duration::from_secs(2).as_secs_f64() - 2.0).abs() < 1e-12);
    }
}
