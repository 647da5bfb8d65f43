//! The [`Node`] trait implemented by every dataplane participant (host
//! NIC stack, switch, middlebox) and the [`Fabric`] handle its callbacks
//! use to act on the world.
//!
//! # The fabric boundary
//!
//! A node never names its backend. Everything it can do — read the clock,
//! transmit a frame, arm a timer, borrow the frame pool — goes through
//! `&mut dyn Fabric`, so the *same* `Node` implementation runs unchanged
//! under the discrete-event simulator (`daiet-netsim`, where the fabric is
//! the simulator's dispatch context) and under the real-time UDP backend
//! (this crate's [`NodeDriver`](crate::NodeDriver), where `send` writes a
//! datagram to a nonblocking socket and `schedule` arms a slot in a timer
//! wheel). The trait is deliberately minimal: five required methods and
//! one defaulted (`port_free_at`), no backend-specific escape hatch.

use crate::frame::{Frame, FramePool};
use crate::time::{Duration, Time};
use std::any::Any;

/// Identifies a node within one fabric (simulator or driver cluster).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// Identifies a port on a node. Ports are numbered 0.. in the order links
/// were attached (the simulator's `connect` order, or the peer-table order
/// handed to a [`NodeDriver`](crate::NodeDriver)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(pub usize);

/// A dataplane device, driven by some [`Fabric`] backend.
///
/// Handlers receive a `&mut dyn Fabric` through which they interact with
/// the world (send frames, arm timers, read the clock). The `Any`
/// supertrait lets callers recover the concrete type after a run, e.g.
/// via the simulator's `node_ref` or
/// [`NodeDriver::node_ref`](crate::NodeDriver::node_ref).
pub trait Node: Any {
    /// A frame arrived on `port`.
    fn on_packet(&mut self, ctx: &mut dyn Fabric, port: PortId, frame: Frame);

    /// A timer armed via [`Fabric::schedule`] fired. `ctx.now()` is the
    /// instant the timer was due, so a timer re-armed here with
    /// `schedule(gap)` lands on the grid `start + k·gap` on either backend
    /// (see [`Fabric::now`] for the one exception).
    fn on_timer(&mut self, _ctx: &mut dyn Fabric, _token: u64) {}

    /// Called once before the first event; the usual place to kick off
    /// transmissions or arm the first timer. The simulator fires it for
    /// every node in node-id order before time starts; a driver fires it
    /// when its loop starts.
    fn on_start(&mut self, _ctx: &mut dyn Fabric) {}

    /// A scripted failure (see the simulator's `NodeScript`) killed this
    /// node: volatile state — registers, rings, trackers, pending work —
    /// must be dropped here, exactly as a power cycle would. No fabric
    /// handle is provided: a dead node cannot send or schedule. Events
    /// addressed to the node while it is down are discarded by the
    /// backend.
    fn on_fail(&mut self) {}

    /// The node revived after a scripted failure. It comes back *cold*
    /// (whatever `on_fail` dropped stays dropped); this hook is the place
    /// to re-arm timers or restart periodic work.
    fn on_revive(&mut self, _ctx: &mut dyn Fabric) {}

    /// Human-readable name for traces and panics.
    fn name(&self) -> String {
        "node".to_string()
    }
}

/// What a [`Node`] callback may do to the world, independent of backend.
///
/// The simulator's dispatch context implements this over its event queue
/// and virtual clock; the UDP [`NodeDriver`](crate::NodeDriver) implements
/// it over a socket, a timer wheel and a monotonic [`Clock`](crate::Clock).
/// Handlers hold it only for the duration of one callback.
pub trait Fabric {
    /// Current fabric time (virtual under the simulator, monotonic
    /// wall-clock under a driver).
    ///
    /// In [`Node::on_timer`] this is the instant the timer was due. That
    /// holds exactly under the simulator. Under a
    /// [`NodeDriver`](crate::NodeDriver) it holds unless the driver ran
    /// more than one poll interval late: then `now()` is the wall clock
    /// less that interval, so a long stall re-anchors instead of bursting
    /// the whole backlog. Across one node's callbacks, `now()` never
    /// decreases, so a timer that fires after a packet callback saw a
    /// later instant sees that instant.
    fn now(&self) -> Time;

    /// Transmits `frame` out of `port`. Fire-and-forget, exactly like
    /// handing a frame to NIC hardware: it may still be dropped downstream
    /// (queue overflow, injected fault, lossy socket) with no feedback.
    ///
    /// Sending on an unconnected port is a programming error and panics:
    /// the topology is static, so a bad port can never be data-dependent.
    fn send(&mut self, port: PortId, frame: Frame);

    /// Arms a one-shot timer `delay` from now; `token` is returned to
    /// [`Node::on_timer`].
    fn schedule(&mut self, delay: Duration, token: u64);

    /// The backend's [`FramePool`]: build outgoing frames from
    /// [`FramePool::buffer`]s so their storage recycles instead of
    /// churning the allocator.
    fn pool(&self) -> &FramePool;

    /// Number of ports connected to this node.
    fn port_count(&self) -> usize;

    /// When `port` has finished sending everything handed to it so far:
    /// the instant a frame sent there would start on the wire. A node
    /// that paces its output (a switch draining its registers one frame
    /// per pass) wakes at this instant to send the next frame, so the
    /// frame departs exactly when it would have behind a burst.
    ///
    /// The default is [`now`](Fabric::now): a backend with no model of
    /// its own transmitters (sockets hand frames to the kernel at once)
    /// reports every port free, and paced output runs back to back.
    fn port_free_at(&self, _port: PortId) -> Time {
        self.now()
    }
}

/// Subtracts monotonic counters, loudly: fabric counters only ever grow,
/// so `later < earlier` means the caller paired snapshots from different
/// runs (or swapped the arguments) — a bug that `saturating_sub` would
/// silently flatten to 0 and `wrapping_sub` would turn into a
/// near-`u64::MAX` "delta". Panic instead, in release too: per-round
/// deltas feed acceptance numbers, so a quiet lie is worse than a crash.
/// Every per-round delta in the workspace (simulator stats, collector
/// stats) shares this one subtraction policy.
#[inline]
pub fn counter_delta(later: u64, earlier: u64, what: &str) -> u64 {
    later.checked_sub(earlier).unwrap_or_else(|| {
        panic!("{what} went backwards ({later} < {earlier}): snapshots are from different runs or swapped")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;
    impl Node for Echo {
        fn on_packet(&mut self, ctx: &mut dyn Fabric, port: PortId, frame: Frame) {
            ctx.send(port, frame);
        }
    }

    /// A minimal in-memory fabric: records sends and timers.
    struct TestFabric {
        now: Time,
        pool: FramePool,
        sent: Vec<(PortId, Frame)>,
        timers: Vec<(Time, u64)>,
    }

    impl Fabric for TestFabric {
        fn now(&self) -> Time {
            self.now
        }
        fn send(&mut self, port: PortId, frame: Frame) {
            self.sent.push((port, frame));
        }
        fn schedule(&mut self, delay: Duration, token: u64) {
            self.timers.push((self.now + delay, token));
        }
        fn pool(&self) -> &FramePool {
            &self.pool
        }
        fn port_count(&self) -> usize {
            1
        }
    }

    #[test]
    fn nodes_run_against_any_fabric_impl() {
        let mut fab = TestFabric {
            now: Time(7),
            pool: FramePool::new(),
            sent: Vec::new(),
            timers: Vec::new(),
        };
        let mut echo = Echo;
        echo.on_packet(&mut fab, PortId(0), Frame::from_slice(b"ping"));
        assert_eq!(fab.sent.len(), 1);
        assert_eq!(&fab.sent[0].1[..], b"ping");
        // A backend with no transmitter model reports every port free.
        assert_eq!(fab.port_free_at(PortId(0)), Time(7));
    }

    #[test]
    fn counter_delta_subtracts() {
        assert_eq!(counter_delta(10, 4, "x"), 6);
    }

    #[test]
    #[should_panic(expected = "went backwards")]
    fn counter_delta_panics_on_regression() {
        counter_delta(3, 4, "frames");
    }
}
