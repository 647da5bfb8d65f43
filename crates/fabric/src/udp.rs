//! The real-time backend: one [`Node`] driven from a nonblocking UDP
//! socket loop.
//!
//! A [`NodeDriver`] is the wall-clock counterpart of one simulator slot:
//! it owns a `Node`, a socket, a peer table (port index → peer address, in
//! the same attach order the simulator's `connect` would use), a
//! [`TimerWheel`], a [`FramePool`] and a [`FaultShim`]. Its run loop is
//! the event loop a real DAIET host or software switch would run:
//!
//! 1. read the clock once, then fire every timer due by that reading
//!    ([`Node::on_timer`]), each seeing the instant it was due as
//!    `now()`, as it would under the simulator — floored at the reading
//!    less one poll interval, and at the last instant the node saw;
//! 2. drain the socket — each datagram's bytes are copied into a pooled
//!    [`Frame`] and delivered via [`Node::on_packet`] with the [`PortId`]
//!    the source address maps to, at the clock reading;
//! 3. check the caller's completion predicate / stop flag / deadline;
//! 4. sleep until the next timer is due (capped so new datagrams are
//!    noticed promptly), or go round at once if one already is.
//!
//! Because a timer sees its due instant, a node that re-arms
//! `schedule(gap)` from `on_timer` paces on the absolute grid
//! `start + k·gap`: a sleep that overshoots delays one frame but does not
//! push back every frame after it, and the loop catches up. The floor
//! bounds that catch-up: a driver descheduled for many gaps re-anchors
//! to the wall clock, sending at most about one poll interval's worth of
//! timers back to back.
//!
//! Frames never cross the socket edge by reference: sending copies the
//! frame's bytes into a datagram, receiving copies the datagram into a
//! frame freshly leased from *this* driver's pool, which is why
//! `Rc`-backed frames stay sound with no atomics anywhere.

use crate::clock::{Clock, WallClock};
use crate::frame::{Frame, FramePool};
use crate::node::{Fabric, Node, PortId};
use crate::shim::{FaultShim, ShimDecision};
use crate::time::{Duration, Time};
use crate::wheel::TimerWheel;
use std::any::Any;
use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Largest datagram a driver will send or accept. Comfortably above the
/// DAIET maximal frame (252 B) and the simulator's MTU-scale frames.
pub const MAX_DATAGRAM: usize = 2048;

/// How long the loop may sleep even with no timer pending, so fresh
/// datagrams are picked up promptly without spinning a core.
const IDLE_POLL: std::time::Duration = std::time::Duration::from_micros(200);

/// Counters a driver maintains at the socket edge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriverStats {
    /// Datagrams handed to the node.
    pub frames_in: u64,
    /// Bytes handed to the node.
    pub bytes_in: u64,
    /// Datagrams written to the socket (after the shim).
    pub frames_out: u64,
    /// Bytes written to the socket.
    pub bytes_out: u64,
    /// Egress frames the fault shim dropped.
    pub shim_dropped: u64,
    /// Egress frames the fault shim duplicated.
    pub shim_duplicated: u64,
    /// Datagrams from addresses not in the peer table (discarded).
    pub unknown_peer: u64,
    /// Socket write errors (counted, not fatal — UDP has no delivery
    /// contract anyway).
    pub send_errors: u64,
    /// Timer callbacks fired.
    pub timers_fired: u64,
    /// Socket read errors other than "would block" (each ends that drain
    /// early; the next loop iteration reads again).
    pub recv_errors: u64,
}

/// Why [`NodeDriver::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitReason {
    /// The completion predicate returned true.
    Done,
    /// The wall-clock deadline elapsed first.
    Deadline,
    /// The shared stop flag was raised (another driver finished or the
    /// harness is tearing the cluster down).
    Stopped,
}

/// The [`Fabric`] a driver hands to its node's callbacks.
struct DriverCtx<'a> {
    now: Time,
    socket: &'a UdpSocket,
    peers: &'a [SocketAddr],
    wheel: &'a mut TimerWheel,
    pool: &'a FramePool,
    shim: &'a mut FaultShim,
    stats: &'a mut DriverStats,
}

impl DriverCtx<'_> {
    fn write(&mut self, addr: SocketAddr, frame: &Frame) {
        match self.socket.send_to(frame, addr) {
            Ok(n) => {
                self.stats.frames_out += 1;
                self.stats.bytes_out += n as u64;
            }
            Err(_) => self.stats.send_errors += 1,
        }
    }
}

impl Fabric for DriverCtx<'_> {
    fn now(&self) -> Time {
        self.now
    }

    fn send(&mut self, port: PortId, frame: Frame) {
        let addr = *self
            .peers
            .get(port.0)
            .unwrap_or_else(|| panic!("send on unconnected port {}", port.0));
        match self.shim.decide() {
            ShimDecision::Drop => {
                self.stats.shim_dropped += 1;
            }
            ShimDecision::Deliver => self.write(addr, &frame),
            ShimDecision::Duplicate => {
                self.stats.shim_duplicated += 1;
                self.write(addr, &frame);
                self.write(addr, &frame);
            }
        }
    }

    fn schedule(&mut self, delay: Duration, token: u64) {
        self.wheel.schedule(self.now + delay, token);
    }

    fn pool(&self) -> &FramePool {
        self.pool
    }

    fn port_count(&self) -> usize {
        self.peers.len()
    }
}

/// Drives one [`Node`] from a nonblocking UDP socket (see module docs).
pub struct NodeDriver {
    node: Box<dyn Node>,
    socket: UdpSocket,
    peers: Vec<SocketAddr>,
    addr_to_port: BTreeMap<SocketAddr, usize>,
    clock: Box<dyn Clock>,
    wheel: TimerWheel,
    pool: FramePool,
    shim: FaultShim,
    stats: DriverStats,
    stop: Option<Arc<AtomicBool>>,
    started: bool,
    /// The latest `now()` any callback of this node has seen.
    last_seen: Time,
}

impl NodeDriver {
    /// Binds a fresh socket on `addr` (use `127.0.0.1:0` to let the OS
    /// pick a free port) and wraps `node`. Peers must be attached with
    /// [`set_peers`](Self::set_peers) before running.
    pub fn bind(node: Box<dyn Node>, addr: &str) -> io::Result<NodeDriver> {
        let socket = UdpSocket::bind(addr)?;
        NodeDriver::from_socket(node, socket)
    }

    /// Wraps an already-bound socket. Useful when the address must be
    /// known (and advertised) before the node — which is not `Send` — can
    /// be built on its driver thread: bind on the coordinator, move the
    /// socket (sockets are `Send`; drivers and nodes are not).
    pub fn from_socket(node: Box<dyn Node>, socket: UdpSocket) -> io::Result<NodeDriver> {
        socket.set_nonblocking(true)?;
        Ok(NodeDriver {
            node,
            socket,
            peers: Vec::new(),
            addr_to_port: BTreeMap::new(),
            clock: Box::new(WallClock::new()),
            wheel: TimerWheel::for_driver(),
            pool: FramePool::new(),
            shim: FaultShim::none(),
            stats: DriverStats::default(),
            stop: None,
            started: false,
            last_seen: Time::ZERO,
        })
    }

    /// The socket's bound address (to advertise to peers).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// Installs the peer table: `peers[p]` is the address behind
    /// [`PortId`]`(p)`, mirroring the simulator's link-attach order.
    /// Ingress datagrams from addresses outside the table are discarded
    /// (and counted), like frames from an unpatched switch port.
    pub fn set_peers(&mut self, peers: Vec<SocketAddr>) {
        self.addr_to_port = peers.iter().enumerate().map(|(i, a)| (*a, i)).collect();
        self.peers = peers;
    }

    /// Routes egress through `shim` (default: transparent).
    pub fn set_fault_shim(&mut self, shim: FaultShim) {
        self.shim = shim;
    }

    /// Replaces the wall clock (tests inject an `Rc` of a
    /// [`ManualClock`](crate::ManualClock) through this and keep a clone
    /// to crank it).
    pub fn set_clock(&mut self, clock: Box<dyn Clock>) {
        self.clock = clock;
    }

    /// A shared flag that makes [`run`](Self::run) return
    /// [`ExitReason::Stopped`] when raised — how a cluster harness stops
    /// open-ended nodes (switches, idle hosts) once the interesting ones
    /// finish.
    pub fn set_stop_flag(&mut self, stop: Arc<AtomicBool>) {
        self.stop = Some(stop);
    }

    /// Socket-edge counters so far.
    pub fn stats(&self) -> DriverStats {
        let mut s = self.stats;
        s.shim_dropped = self.shim.dropped;
        s.shim_duplicated = self.shim.duplicated;
        s
    }

    /// Borrows the node downcast to its concrete type.
    pub fn node_ref<T: Any>(&self) -> Option<&T> {
        (self.node.as_ref() as &dyn Any).downcast_ref::<T>()
    }

    /// Mutably borrows the node downcast to its concrete type.
    pub fn node_mut<T: Any>(&mut self) -> Option<&mut T> {
        (self.node.as_mut() as &mut dyn Any).downcast_mut::<T>()
    }

    /// Consumes the driver, returning the node (for result extraction).
    pub fn into_node(self) -> Box<dyn Node> {
        self.node
    }

    fn ctx<'a>(
        now: Time,
        socket: &'a UdpSocket,
        peers: &'a [SocketAddr],
        wheel: &'a mut TimerWheel,
        pool: &'a FramePool,
        shim: &'a mut FaultShim,
        stats: &'a mut DriverStats,
    ) -> DriverCtx<'a> {
        DriverCtx { now, socket, peers, wheel, pool, shim, stats }
    }

    /// Runs the loop until `done(&node)` is true, `deadline` elapses, or
    /// the stop flag is raised. May be called again after returning (the
    /// node's `on_start` fires only once).
    pub fn run(
        &mut self,
        deadline: std::time::Duration,
        mut done: impl FnMut(&dyn Node) -> bool,
    ) -> ExitReason {
        // lint:allow(det-clock): run() enforces the caller's real-time deadline on
        // the blocking socket loop; this backend lives in the wall-clock domain.
        let t0 = std::time::Instant::now();
        let mut buf = [0u8; MAX_DATAGRAM];
        if !self.started {
            self.started = true;
            self.last_seen = self.clock.now();
            let mut ctx = Self::ctx(
                self.last_seen,
                &self.socket,
                &self.peers,
                &mut self.wheel,
                &self.pool,
                &mut self.shim,
                &mut self.stats,
            );
            self.node.on_start(&mut ctx);
        }
        loop {
            let now = self.clock.now();
            // 1. Due timers, in deterministic (due, armed) order, each at
            //    its due instant within the catch-up floor.
            let floor = Time(now.as_nanos().saturating_sub(IDLE_POLL.as_nanos() as u64));
            for (due, token) in self.wheel.expire(now) {
                self.stats.timers_fired += 1;
                self.last_seen = due.max(floor).max(self.last_seen);
                let mut ctx = Self::ctx(
                    self.last_seen,
                    &self.socket,
                    &self.peers,
                    &mut self.wheel,
                    &self.pool,
                    &mut self.shim,
                    &mut self.stats,
                );
                self.node.on_timer(&mut ctx, token);
            }
            // 2. Drain the socket.
            loop {
                match self.socket.recv_from(&mut buf) {
                    Ok((n, from)) => {
                        let Some(&port) = self.addr_to_port.get(&from) else {
                            self.stats.unknown_peer += 1;
                            continue;
                        };
                        self.stats.frames_in += 1;
                        self.stats.bytes_in += n as u64;
                        self.last_seen = now;
                        let frame = self.pool.copy_from_slice(&buf[..n]);
                        let mut ctx = Self::ctx(
                            now,
                            &self.socket,
                            &self.peers,
                            &mut self.wheel,
                            &self.pool,
                            &mut self.shim,
                            &mut self.stats,
                        );
                        self.node.on_packet(&mut ctx, PortId(port), frame);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    // Loopback quirk: a send to a not-yet-open peer port can
                    // surface as ECONNREFUSED on a later recv. Not fatal,
                    // but counted.
                    Err(_) => {
                        self.stats.recv_errors += 1;
                        break;
                    }
                }
            }
            // 3. Exit conditions.
            if done(self.node.as_ref()) {
                return ExitReason::Done;
            }
            if self.stop.as_ref().is_some_and(|s| s.load(Ordering::Relaxed)) {
                return ExitReason::Stopped;
            }
            if t0.elapsed() >= deadline {
                return ExitReason::Deadline;
            }
            // 4. Sleep until the next timer (capped by the poll interval).
            let nap = match self.wheel.next_due() {
                Some(due) if due > now => {
                    std::time::Duration::from_nanos((due - now).as_nanos()).min(IDLE_POLL)
                }
                Some(_) => continue, // a timer is already due: go again
                None => IDLE_POLL,
            };
            std::thread::sleep(nap);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use std::rc::Rc;

    /// Replies to every datagram with its bytes reversed.
    struct Reverser {
        seen: u64,
    }
    impl Node for Reverser {
        fn on_packet(&mut self, ctx: &mut dyn Fabric, port: PortId, frame: Frame) {
            self.seen += 1;
            let mut buf = ctx.pool().buffer();
            buf.extend(frame.iter().rev());
            let out = ctx.pool().frame(buf);
            ctx.send(port, out);
        }
    }

    /// Sends one probe on start, counts echoes, re-probes on timer until
    /// an answer arrives (loss-tolerant).
    struct Prober {
        answers: Vec<Vec<u8>>,
    }
    impl Node for Prober {
        fn on_packet(&mut self, _ctx: &mut dyn Fabric, _port: PortId, frame: Frame) {
            self.answers.push(frame.to_vec());
        }
        fn on_start(&mut self, ctx: &mut dyn Fabric) {
            ctx.send(PortId(0), Frame::from_slice(b"abc"));
            ctx.schedule(Duration::from_millis(5), 0);
        }
        fn on_timer(&mut self, ctx: &mut dyn Fabric, _token: u64) {
            if self.answers.is_empty() {
                ctx.send(PortId(0), Frame::from_slice(b"abc"));
                ctx.schedule(Duration::from_millis(5), 0);
            }
        }
    }

    /// Runs a Reverser driver on its own thread (nodes are not `Send`,
    /// so the socket is bound here and the driver built in-thread) and a
    /// Prober on this one; returns `(probe_exit, probe_driver, rev_stats)`.
    fn probe_against_reverser(probe_shim: FaultShim) -> (ExitReason, NodeDriver, DriverStats) {
        let rev_socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        let rev_addr = rev_socket.local_addr().unwrap();
        let mut probe = NodeDriver::bind(Box::new(Prober { answers: Vec::new() }), "127.0.0.1:0")
            .unwrap();
        let probe_addr = probe.local_addr().unwrap();
        probe.set_peers(vec![rev_addr]);
        probe.set_fault_shim(probe_shim);

        let stop = Arc::new(AtomicBool::new(false));
        let rev_stop = stop.clone();
        let handle = std::thread::spawn(move || {
            let mut rev =
                NodeDriver::from_socket(Box::new(Reverser { seen: 0 }), rev_socket).unwrap();
            rev.set_peers(vec![probe_addr]);
            rev.set_stop_flag(rev_stop);
            rev.run(std::time::Duration::from_secs(10), |_| false);
            rev.stats()
        });
        let reason = probe.run(std::time::Duration::from_secs(10), |n| {
            !(n as &dyn Any).downcast_ref::<Prober>().unwrap().answers.is_empty()
        });
        stop.store(true, Ordering::Relaxed);
        let rev_stats = handle.join().unwrap();
        (reason, probe, rev_stats)
    }

    #[test]
    fn two_drivers_echo_over_loopback() {
        let (reason, probe, rev_stats) = probe_against_reverser(FaultShim::none());
        assert_eq!(reason, ExitReason::Done);
        assert_eq!(probe.node_ref::<Prober>().unwrap().answers[0], b"cba");
        assert!(rev_stats.frames_in >= 1);
        assert!(probe.stats().frames_in >= 1);
        assert_eq!((rev_stats.recv_errors, probe.stats().recv_errors), (0, 0));
    }

    #[test]
    fn scripted_egress_drop_is_recovered_by_retry() {
        // Drop the probe's first egress frame; the 5 ms re-probe timer
        // must recover the exchange.
        let (reason, probe, _) =
            probe_against_reverser(FaultShim::none().with_scripted_drops([0]));
        assert_eq!(reason, ExitReason::Done);
        let stats = probe.stats();
        assert_eq!(stats.shim_dropped, 1);
        assert!(stats.frames_out >= 1, "retry must reach the wire");
    }

    #[test]
    fn unknown_peers_are_discarded_and_counted() {
        let mut lone = NodeDriver::bind(Box::new(Reverser { seen: 0 }), "127.0.0.1:0").unwrap();
        lone.set_peers(vec![]); // knows nobody
        let addr = lone.local_addr().unwrap();
        let stranger = UdpSocket::bind("127.0.0.1:0").unwrap();
        stranger.send_to(b"hi", addr).unwrap();
        lone.run(std::time::Duration::from_millis(50), |_| false);
        assert!(lone.stats().unknown_peer >= 1);
        assert_eq!(lone.node_ref::<Reverser>().unwrap().seen, 0);
    }

    const GAP: Duration = Duration::from_micros(50);

    /// Re-arms a [`GAP`] timer from `on_start` on, logging the `now()`
    /// each callback saw.
    struct Ticker {
        seen: Vec<(&'static str, Time)>,
    }
    impl Node for Ticker {
        fn on_packet(&mut self, ctx: &mut dyn Fabric, _port: PortId, _frame: Frame) {
            self.seen.push(("packet", ctx.now()));
        }
        fn on_start(&mut self, ctx: &mut dyn Fabric) {
            ctx.schedule(GAP, 0);
        }
        fn on_timer(&mut self, ctx: &mut dyn Fabric, _token: u64) {
            self.seen.push(("timer", ctx.now()));
            ctx.schedule(GAP, 0);
        }
    }

    /// One loop iteration: due timers, one drain, no sleep.
    fn step(d: &mut NodeDriver) {
        d.run(std::time::Duration::ZERO, |_| false);
    }

    /// A started [`Ticker`] on a manual clock still at the epoch, and a
    /// handle to crank that clock.
    fn ticker(peers: Vec<SocketAddr>) -> (NodeDriver, Rc<ManualClock>) {
        let node = Ticker { seen: Vec::new() };
        let mut d = NodeDriver::bind(Box::new(node), "127.0.0.1:0").unwrap();
        let clock = Rc::new(ManualClock::new());
        d.set_clock(Box::new(clock.clone()));
        d.set_peers(peers);
        step(&mut d);
        (d, clock)
    }

    fn seen(d: &NodeDriver) -> Vec<(&'static str, Time)> {
        d.node_ref::<Ticker>().unwrap().seen.clone()
    }

    fn timer_instants(d: &NodeDriver) -> Vec<Time> {
        seen(d).into_iter().filter(|&(kind, _)| kind == "timer").map(|(_, t)| t).collect()
    }

    #[test]
    fn late_wakeup_fires_each_timer_at_its_due_instant() {
        let (mut d, clock) = ticker(vec![]);
        clock.set(Time(175_000));
        for _ in 0..5 {
            step(&mut d);
        }
        // The chain stays on its 50 µs grid; the timer due at 200 µs waits.
        assert_eq!(timer_instants(&d), [Time(50_000), Time(100_000), Time(150_000)]);
    }

    #[test]
    fn catch_up_after_a_long_stall_is_bounded_by_the_poll_interval() {
        let (mut d, clock) = ticker(vec![]);
        let wall = Time(10_000_000);
        clock.set(wall);
        for _ in 0..20 {
            step(&mut d);
        }
        let fired = timer_instants(&d);
        assert_eq!(fired[0], Time(wall.as_nanos() - IDLE_POLL.as_nanos() as u64));
        assert_eq!(fired.last(), Some(&wall), "the re-anchored chain reaches the wall clock");
        let behind = fired.iter().filter(|&&t| t < wall).count() as u64;
        let bound = IDLE_POLL.as_nanos() as u64 / GAP.as_nanos() + 1;
        assert!(behind <= bound, "{behind} timers fired behind the wall clock, bound {bound}");
        assert!(fired.windows(2).all(|w| w[1] - w[0] == GAP));
    }

    #[test]
    fn timer_due_before_a_handled_datagram_sees_the_datagram_instant() {
        let peer = UdpSocket::bind("127.0.0.1:0").unwrap();
        let (mut d, clock) = ticker(vec![peer.local_addr().unwrap()]);
        let t = Time(1_000_000);
        clock.set(t);
        peer.send_to(b"x", d.local_addr().unwrap()).unwrap();
        // Loopback queues the datagram at once; the pause only makes sure.
        std::thread::sleep(std::time::Duration::from_millis(1));
        step(&mut d); // the timer due at 800 µs, then the datagram at 1 ms
        step(&mut d); // the timer due at 850 µs, behind what the node saw
        assert_eq!(seen(&d), [("timer", Time(800_000)), ("packet", t), ("timer", t)]);
        assert_eq!(d.stats().recv_errors, 0);
    }
}
