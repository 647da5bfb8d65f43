//! A hashed timer wheel for the real-time backend.
//!
//! [`Fabric::schedule`](crate::Fabric::schedule) under a driver cannot use
//! the simulator's global event heap — there is no global anything; each
//! process owns its timers. A classic hashed wheel gives O(1) insertion
//! and cheap "what's due?" scans at driver-loop granularity: the horizon
//! is split into `slots` buckets of `granularity` nanoseconds each, a
//! timer lands in the bucket of its due instant, and timers beyond one
//! full rotation wait in an overflow list that is rechecked as the wheel
//! turns. Sub-granularity precision is preserved because expiry compares
//! the timer's exact due time against `now`, never the bucket boundary.
//!
//! Within one expiry batch, timers fire ordered by `(due, insertion
//! sequence)` — the same deterministic tie-break discipline the simulator
//! uses, so a node cannot observe two backends firing same-instant timers
//! in different relative orders. Each expired timer comes back with its
//! due instant, which a driver hands to the timer callback as `now()`.

use crate::time::{Duration, Time};

/// One pending timer.
#[derive(Debug, Clone, Copy)]
struct Pending {
    due: Time,
    seq: u64,
    token: u64,
}

/// A fixed-horizon hashed timer wheel (see module docs).
#[derive(Debug)]
pub struct TimerWheel {
    granularity_ns: u64,
    slots: Vec<Vec<Pending>>,
    /// Every timer below this instant has already been expired.
    cursor_time: Time,
    /// Timers due beyond one rotation from `cursor_time`.
    overflow: Vec<Pending>,
    next_seq: u64,
    len: usize,
}

impl TimerWheel {
    /// A wheel with `slots` buckets of `granularity` each. The horizon
    /// (`slots × granularity`) should comfortably cover the common timer
    /// range — e.g. 256 × 64 µs ≈ 16 ms for NACK timeouts of a few ms.
    pub fn new(granularity: Duration, slots: usize) -> TimerWheel {
        assert!(granularity.as_nanos() > 0, "granularity must be positive");
        assert!(slots > 0, "wheel needs at least one slot");
        TimerWheel {
            granularity_ns: granularity.as_nanos(),
            slots: (0..slots).map(|_| Vec::new()).collect(),
            cursor_time: Time::ZERO,
            overflow: Vec::new(),
            next_seq: 0,
            len: 0,
        }
    }

    /// A wheel sized for driver loops: 256 slots of 64 µs (≈16 ms horizon).
    pub fn for_driver() -> TimerWheel {
        TimerWheel::new(Duration::from_micros(64), 256)
    }

    /// Number of pending timers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no timers are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn slot_of(&self, due: Time) -> usize {
        (due.as_nanos() / self.granularity_ns) as usize % self.slots.len()
    }

    fn horizon_ns(&self) -> u64 {
        self.granularity_ns * self.slots.len() as u64
    }

    /// Arms a timer for `due`; `token` comes back from
    /// [`expire`](Self::expire). A `due` in the past fires on the next
    /// expiry scan.
    pub fn schedule(&mut self, due: Time, token: u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let p = Pending { due, seq, token };
        let base = self.cursor_time.as_nanos();
        if due.as_nanos() >= base + self.horizon_ns() {
            self.overflow.push(p);
        } else {
            // A due instant already behind the cursor would land in a slot
            // the scan has passed; park it in the cursor's slot so the next
            // expiry finds it immediately.
            let slot = self.slot_of(due.max(self.cursor_time));
            self.slots[slot].push(p);
        }
        self.len += 1;
    }

    /// Removes and returns every timer with `due <= now` as `(due, token)`
    /// pairs, ordered by `(due, schedule order)`. Also migrates overflow
    /// timers that the advancing cursor has brought within the horizon.
    pub fn expire(&mut self, now: Time) -> Vec<(Time, u64)> {
        if now < self.cursor_time {
            return Vec::new(); // clock glitch: nothing can be due
        }
        let mut due: Vec<Pending> = Vec::new();
        // Walk every bucket the cursor passes over, inclusive of now's.
        let g = self.granularity_ns;
        let from_tick = self.cursor_time.as_nanos() / g;
        let to_tick = now.as_nanos() / g;
        let n_slots = self.slots.len() as u64;
        let ticks = (to_tick - from_tick + 1).min(n_slots);
        for t in 0..ticks {
            let idx = ((from_tick + t) % n_slots) as usize;
            self.slots[idx].retain(|p| {
                if p.due <= now {
                    due.push(*p);
                    false
                } else {
                    true
                }
            });
        }
        // Overflow: rarely populated, scan it whole.
        self.overflow.retain(|p| {
            if p.due <= now {
                due.push(*p);
                false
            } else {
                true
            }
        });
        // Re-home overflow timers now inside the horizon.
        let horizon_end = now.as_nanos().saturating_add(self.horizon_ns());
        let mut rehome: Vec<Pending> = Vec::new();
        self.overflow.retain(|p| {
            if p.due.as_nanos() < horizon_end {
                rehome.push(*p);
                false
            } else {
                true
            }
        });
        for p in rehome {
            let slot = self.slot_of(p.due);
            self.slots[slot].push(p);
        }
        self.cursor_time = now;
        due.sort_by_key(|p| (p.due, p.seq));
        self.len -= due.len();
        due.into_iter().map(|p| (p.due, p.token)).collect()
    }

    /// The earliest pending due instant, if any (drives the driver's
    /// sleep). O(slots + overflow).
    pub fn next_due(&self) -> Option<Time> {
        self.slots
            .iter()
            .flatten()
            .chain(self.overflow.iter())
            .map(|p| p.due)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_due_order_with_insertion_tiebreak() {
        let mut w = TimerWheel::new(Duration::from_micros(10), 8);
        w.schedule(Time(25_000), 2);
        w.schedule(Time(5_000), 1);
        w.schedule(Time(25_000), 3); // same instant as token 2, armed later
        assert_eq!(w.len(), 3);
        assert_eq!(w.expire(Time(4_999)), Vec::<(Time, u64)>::new());
        assert_eq!(w.expire(Time(5_000)), vec![(Time(5_000), 1)]);
        assert_eq!(w.expire(Time(30_000)), vec![(Time(25_000), 2), (Time(25_000), 3)]);
        assert!(w.is_empty());
    }

    #[test]
    fn sub_granularity_precision_is_kept() {
        // Two timers in the same bucket must not fire together.
        let mut w = TimerWheel::new(Duration::from_micros(10), 8);
        w.schedule(Time(1_000), 1);
        w.schedule(Time(9_000), 2);
        assert_eq!(w.expire(Time(1_000)), vec![(Time(1_000), 1)]);
        assert_eq!(w.expire(Time(8_999)), Vec::<(Time, u64)>::new());
        assert_eq!(w.expire(Time(9_000)), vec![(Time(9_000), 2)]);
    }

    #[test]
    fn overflow_beyond_one_rotation_still_fires() {
        // Horizon is 80 µs; schedule 1 ms out.
        let mut w = TimerWheel::new(Duration::from_micros(10), 8);
        w.schedule(Time(1_000_000), 9);
        assert_eq!(w.next_due(), Some(Time(1_000_000)));
        // Crank the wheel forward in small steps: nothing fires early.
        for step in 1..10 {
            assert!(w.expire(Time(step * 80_000)).is_empty());
        }
        assert_eq!(w.expire(Time(1_000_000)), vec![(Time(1_000_000), 9)]);
        assert_eq!(w.next_due(), None);
    }

    #[test]
    fn past_due_timers_fire_immediately_on_next_scan() {
        let mut w = TimerWheel::for_driver();
        assert!(w.expire(Time(500_000)).is_empty());
        w.schedule(Time(100), 7); // already in the past
        assert_eq!(w.expire(Time(500_001)), vec![(Time(100), 7)]);
    }

    #[test]
    fn wrap_around_reuses_buckets_without_cross_rotation_firing() {
        let mut w = TimerWheel::new(Duration::from_micros(10), 4);
        // Two timers that hash to the same bucket, one rotation apart.
        w.schedule(Time(15_000), 1);
        w.schedule(Time(55_000), 2); // 15 µs + 40 µs (one rotation)
        assert_eq!(w.expire(Time(15_000)), vec![(Time(15_000), 1)]);
        assert_eq!(w.expire(Time(54_999)), Vec::<(Time, u64)>::new());
        assert_eq!(w.expire(Time(55_000)), vec![(Time(55_000), 2)]);
    }
}
