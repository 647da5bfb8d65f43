//! The simulator: owns nodes, links, the event queue and the clock, and
//! runs the event loop to completion on the calling thread.
//!
//! Runs are a pure function of the seed: events fire in the explicit
//! `(time, source, per-source seq)` order (see the `event` module) and
//! fault decisions draw from per-direction streams (see the `link`
//! module), so no draw or tie-break depends on what unrelated nodes
//! happen to do. The simulator itself draws nothing: nodes get no
//! random stream, since protocol nodes must run unchanged on the
//! real-socket backend.

use crate::event::{Event, EventKind, EventQueue};
use crate::frame::{Frame, FramePool};
use crate::link::{LinkSpec, PortTable};
use crate::node::{Context, Node, NodeId, NodeScript, PortId};
use crate::stats::{LinkStats, NodeStats, StatsSnapshot, StatsTable};
use crate::time::SimTime;
use std::any::Any;

/// A discrete-event network simulator.
///
/// Typical lifecycle: construct with a seed, [`add_node`](Self::add_node)
/// devices, [`connect`](Self::connect) them, [`run`](Self::run), then read
/// results back out of the nodes with [`node_ref`](Self::node_ref) and out
/// of [`node_stats`](Self::node_stats)/[`link_stats`](Self::link_stats).
///
/// ```
/// use daiet_netsim::{Fabric, Frame, LinkSpec, Node, PortId, SimTime, Simulator};
///
/// /// Counts every frame it receives.
/// #[derive(Default)]
/// struct Sink(usize);
/// impl Node for Sink {
///     fn on_packet(&mut self, _ctx: &mut dyn Fabric, _port: PortId, _frame: Frame) {
///         self.0 += 1;
///     }
/// }
///
/// let mut sim = Simulator::new(42);
/// let sink = sim.add_node(Box::new(Sink::default()));
/// // Frames can be injected without links (unit-test style)…
/// sim.inject(SimTime(10), sink, PortId(0), Frame::from_slice(b"hello"));
/// sim.inject(SimTime(20), sink, PortId(0), Frame::from_slice(b"world"));
/// let end = sim.run();
/// assert_eq!(end, SimTime(20));
/// assert_eq!(sim.node_ref::<Sink>(sink).unwrap().0, 2);
/// assert_eq!(sim.node_stats(sink).frames_in, 2);
/// ```
pub struct Simulator {
    /// Indexed by node id; a slot is `None` only while its node is out
    /// for dispatch.
    nodes: Vec<Option<Box<dyn Node>>>,
    queue: EventQueue,
    ports: PortTable,
    stats: StatsTable,
    pool: FramePool,
    now: SimTime,
    events_processed: u64,
    /// Scripted kill/revive schedules, indexed by node id.
    node_scripts: Vec<Option<NodeScript>>,
    started: bool,
    /// Safety valve against runaway simulations; `run` panics past this.
    pub max_events: u64,
}

impl Simulator {
    /// Creates an empty simulator; all randomness derives from `seed`.
    pub fn new(seed: u64) -> Simulator {
        Simulator {
            nodes: Vec::new(),
            queue: EventQueue::new(),
            ports: PortTable::with_seed(seed),
            stats: StatsTable::default(),
            pool: FramePool::new(),
            now: SimTime::ZERO,
            events_processed: 0,
            node_scripts: Vec::new(),
            started: false,
            max_events: 2_000_000_000,
        }
    }

    /// Registers a node, returning its id. Ids are dense and start at 0.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Some(node));
        id
    }

    /// Connects two nodes with a link, assigning the next free port on
    /// each side; returns `(port on a, port on b)`.
    pub fn connect(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> (PortId, PortId) {
        assert!(a.0 < self.nodes.len() && b.0 < self.nodes.len(), "connect before add_node");
        assert_ne!(a, b, "self-links are not supported");
        self.ports.connect(a, b, spec)
    }

    /// The peer `(node, port)` across the link attached at `(node, port)`.
    pub fn peer(&self, node: NodeId, port: PortId) -> Option<(NodeId, PortId)> {
        self.ports.peer(node, port)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The simulation's frame pool, for callers that build pooled frames
    /// outside node callbacks. Nodes reach the same pool through
    /// [`Fabric::pool`](crate::Fabric::pool).
    pub fn pool(&self) -> &FramePool {
        &self.pool
    }

    /// Replaces the frame pool — pass [`FramePool::disabled`] to force
    /// every frame onto the global allocator (used by the determinism
    /// cross-check tests), or a clone of a longer-lived pool to keep its
    /// buffers warm across simulations.
    pub fn set_frame_pool(&mut self, pool: FramePool) {
        self.pool = pool;
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Counters for `node`.
    pub fn node_stats(&self, node: NodeId) -> NodeStats {
        self.stats.node(node)
    }

    /// Counters for link `idx` (links are numbered in connect order).
    pub fn link_stats(&self, idx: usize) -> LinkStats {
        self.stats.link(idx)
    }

    /// Installs a deterministic per-frame fault script on one direction of
    /// link `idx` (`dir` 0 = the a→b direction of [`Simulator::connect`]).
    /// Each admitted frame consumes one decision; after the script runs
    /// out, the link reverts to its probabilistic
    /// [`FaultProfile`](crate::FaultProfile).
    pub fn script_link(&mut self, idx: usize, dir: usize, script: crate::LinkScript) {
        assert!(idx < self.link_count(), "script_link on unknown link {idx}");
        assert!(dir < 2, "link direction must be 0 or 1");
        self.ports.set_script(idx, dir, script);
    }

    /// Installs a scripted kill/revive schedule on `node` — the
    /// node-level sibling of [`script_link`](Self::script_link). At each
    /// scripted kill the node's [`Node::on_fail`] runs (volatile state is
    /// torn down); while down, every frame and timer addressed to the node
    /// is discarded (counted in [`NodeStats::dead_drops`]); at each revive
    /// [`Node::on_revive`] runs and traffic flows again. The transition
    /// events are keyed to the node's own source counter. Replaces any
    /// prior script; call before the first `run_until`.
    pub fn script_node(&mut self, node: NodeId, script: NodeScript) {
        assert!(node.0 < self.nodes.len(), "script_node before add_node");
        for (t, is_kill) in script.transitions() {
            let kind = if is_kill {
                EventKind::NodeFail { node }
            } else {
                EventKind::NodeRevive { node }
            };
            self.queue.push(t, node, kind);
        }
        if self.node_scripts.len() <= node.0 {
            self.node_scripts.resize_with(node.0 + 1, || None);
        }
        self.node_scripts[node.0] = Some(script);
    }

    /// Number of links created.
    pub fn link_count(&self) -> usize {
        self.ports.link_count()
    }

    /// Borrows a node downcast to its concrete type.
    pub fn node_ref<T: Any>(&self, id: NodeId) -> Option<&T> {
        self.node_any(id)?.downcast_ref::<T>()
    }

    /// Borrows a node for a reader that accepts several concrete types.
    pub fn node_any(&self, id: NodeId) -> Option<&dyn Any> {
        Some(self.nodes.get(id.0)?.as_deref()? as &dyn Any)
    }

    /// Mutably borrows a node downcast to its concrete type.
    pub fn node_mut<T: Any>(&mut self, id: NodeId) -> Option<&mut T> {
        let node = self.nodes.get_mut(id.0)?.as_deref_mut()?;
        (node as &mut dyn Any).downcast_mut::<T>()
    }

    /// Injects a frame delivery from outside the topology (useful in unit
    /// tests that exercise a single node without links). The event is
    /// attributed to the receiving node's own source counter.
    pub fn inject(&mut self, at: SimTime, node: NodeId, port: PortId, frame: Frame) {
        self.queue.push(at, node, EventKind::Deliver { node, port, frame });
    }

    /// Arms a timer on `node` from outside the topology — the external
    /// counterpart of [`Fabric::schedule`](crate::Fabric::schedule). This is how a round-driven
    /// harness (e.g. `daiet::tenant::JobScheduler`) restarts a node
    /// whose internal timer chain ran dry at a round barrier: mutate the
    /// node via [`node_mut`](Self::node_mut), then schedule a wake-up.
    /// `at` must not lie in the simulator's past.
    pub fn schedule_timer(&mut self, at: SimTime, node: NodeId, token: u64) {
        assert!(at >= self.now, "timer scheduled in the past");
        self.queue.push(at, node, EventKind::Timer { node, token });
    }

    /// A copy of every per-node and per-link counter at this instant.
    /// Subtract two with [`crate::stats::StatsSnapshot::delta`] to read
    /// one round's traffic out of a long-running simulation.
    pub fn snapshot(&self) -> StatsSnapshot {
        self.stats.snapshot(self.nodes.len(), self.link_count())
    }

    /// Runs until the event queue drains; returns the final time.
    pub fn run(&mut self) -> SimTime {
        self.run_until(SimTime(u64::MAX))
    }

    /// Runs until the queue drains or the next event lies beyond
    /// `deadline`; returns the time reached. Events sharing one instant
    /// are drained as a batch.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        if !self.started {
            self.started = true;
            // `on_start` fires for every node, in node-id order.
            for i in 0..self.nodes.len() {
                self.dispatch(NodeId(i), |node, ctx| node.on_start(ctx));
            }
        }
        let horizon = deadline.0.saturating_add(1);
        let max_events = self.max_events;
        while let Some(t) = self.queue.peek_time() {
            if t.0 >= horizon {
                break;
            }
            debug_assert!(t >= self.now, "time went backwards");
            self.now = t;
            while let Some(ev) = self.queue.pop_at(t) {
                self.events_processed += 1;
                assert!(
                    self.events_processed <= max_events,
                    "simulation exceeded {max_events} events — runaway?"
                );
                self.handle(ev);
            }
        }
        self.now
    }

    fn dispatch<F>(&mut self, node_id: NodeId, f: F)
    where
        F: FnOnce(&mut dyn Node, &mut Context<'_>),
    {
        // Temporarily take the node out of its slot so it can borrow both
        // itself and the world.
        let mut node = match self.nodes.get_mut(node_id.0).and_then(Option::take) {
            Some(n) => n,
            None => return, // unknown node: drop the event
        };
        {
            let mut ctx = Context {
                node: node_id,
                now: self.now,
                queue: &mut self.queue,
                ports: &mut self.ports,
                stats: &mut self.stats,
                pool: &self.pool,
            };
            f(node.as_mut(), &mut ctx);
        }
        self.nodes[node_id.0] = Some(node);
    }

    /// True when `node` is scripted down at `t`. A pure function of
    /// `(node, t)`, so the drop decision is identical under any same-tick
    /// event ordering.
    fn is_down(&self, node: NodeId, t: SimTime) -> bool {
        self.node_scripts
            .get(node.0)
            .and_then(Option::as_ref)
            .is_some_and(|s| s.is_down_at(t))
    }

    fn handle(&mut self, ev: Event) {
        match ev.kind {
            EventKind::Deliver { node, port, frame } => {
                if self.is_down(node, ev.time) {
                    // Dead NIC: the frame dies on arrival, uncounted as
                    // received. (Timers die silently below; only frames
                    // are worth a counter.)
                    self.stats.node_dead_drop(node);
                    return;
                }
                self.stats.node_received(node, frame.len());
                self.dispatch(node, |n, ctx| n.on_packet(ctx, port, frame));
            }
            EventKind::Timer { node, token } => {
                if self.is_down(node, ev.time) {
                    return;
                }
                self.dispatch(node, |n, ctx| n.on_timer(ctx, token));
            }
            EventKind::TxDone { link, dir, bytes } => {
                self.ports.tx_done(link, dir, bytes);
            }
            EventKind::NodeFail { node } => {
                // No Context: a dead node cannot send or schedule.
                if let Some(n) = self.nodes.get_mut(node.0).and_then(Option::as_mut) {
                    n.on_fail();
                }
            }
            EventKind::NodeRevive { node } => {
                self.dispatch(node, |n, ctx| n.on_revive(ctx));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Fabric;
    use crate::time::SimDuration;

    /// Sends `count` frames to port 0 on start, spaced by a timer.
    struct Blaster {
        count: usize,
        sent: usize,
        frame_len: usize,
    }

    impl Blaster {
        fn new(count: usize, frame_len: usize) -> Blaster {
            Blaster { count, sent: 0, frame_len }
        }
    }

    impl Node for Blaster {
        fn on_packet(&mut self, _ctx: &mut dyn Fabric, _port: PortId, _frame: Frame) {}
        fn on_start(&mut self, ctx: &mut dyn Fabric) {
            ctx.schedule(SimDuration::from_nanos(1), 0);
        }
        fn on_timer(&mut self, ctx: &mut dyn Fabric, _token: u64) {
            if self.sent < self.count {
                let mut buf = ctx.pool().buffer();
                buf.resize(self.frame_len, 0);
                let frame = ctx.pool().frame(buf);
                ctx.send(PortId(0), frame);
                self.sent += 1;
                ctx.schedule(SimDuration::from_micros(1), 0);
            }
        }
    }

    /// Records arrival times and first payload bytes.
    #[derive(Default)]
    struct Sink {
        arrivals: Vec<SimTime>,
    }

    impl Node for Sink {
        fn on_packet(&mut self, ctx: &mut dyn Fabric, _port: PortId, _frame: Frame) {
            self.arrivals.push(ctx.now());
        }
    }

    /// `port_free_at` is the transmitter's `busy_until`: two 1 250-byte
    /// frames at 10 Gb/s hold the port for 2 µs; later it reads now.
    #[test]
    fn port_free_at_tracks_the_transmitter() {
        #[derive(Default)]
        struct Probe(Vec<(SimTime, SimTime)>);
        impl Node for Probe {
            fn on_packet(&mut self, _: &mut dyn Fabric, _: PortId, _: Frame) {}
            fn on_start(&mut self, ctx: &mut dyn Fabric) {
                for _ in 0..2 {
                    ctx.send(PortId(0), Frame::from(vec![0u8; 1_250]));
                }
                self.0.push((ctx.now(), ctx.port_free_at(PortId(0))));
                ctx.schedule(SimDuration::from_micros(5), 0);
            }
            fn on_timer(&mut self, ctx: &mut dyn Fabric, _: u64) {
                self.0.push((ctx.now(), ctx.port_free_at(PortId(0))));
            }
        }
        let mut sim = Simulator::new(1);
        let a = sim.add_node(Box::new(Probe::default()));
        let b = sim.add_node(Box::new(Sink::default()));
        sim.connect(a, b, LinkSpec::fast());
        sim.run();
        let seen = &sim.node_ref::<Probe>(a).unwrap().0;
        assert_eq!(
            seen,
            &[
                (SimTime(0), SimTime(2_000)),
                (SimTime(5_000), SimTime(5_000))
            ]
        );
    }

    #[test]
    fn frames_flow_end_to_end() {
        let mut sim = Simulator::new(42);
        let src = sim.add_node(Box::new(Blaster::new(5, 500)));
        let dst = sim.add_node(Box::new(Sink::default()));
        sim.connect(src, dst, LinkSpec::fast());
        sim.run();
        let sink = sim.node_ref::<Sink>(dst).unwrap();
        assert_eq!(sink.arrivals.len(), 5);
        // Arrival times strictly increase.
        assert!(sink.arrivals.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(sim.node_stats(dst).frames_in, 5);
        assert_eq!(sim.node_stats(src).frames_out, 5);
        assert_eq!(sim.node_stats(src).bytes_out, 2500);
    }

    #[test]
    fn identical_seeds_reproduce_runs() {
        let run = |seed| {
            let mut sim = Simulator::new(seed);
            let src = sim.add_node(Box::new(Blaster::new(50, 700)));
            let dst = sim.add_node(Box::new(Sink::default()));
            sim.connect(
                src,
                dst,
                LinkSpec::fast().with_faults(crate::FaultProfile::loss(0.3)),
            );
            sim.run();
            sim.node_ref::<Sink>(dst).unwrap().arrivals.clone()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2), "different seeds should diverge under loss");
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Simulator::new(0);
        let src = sim.add_node(Box::new(Blaster::new(100, 100)));
        let dst = sim.add_node(Box::new(Sink::default()));
        sim.connect(src, dst, LinkSpec::fast());
        let reached = sim.run_until(SimTime(10_000)); // 10 us
        assert!(reached <= SimTime(10_000));
        let partial = sim.node_ref::<Sink>(dst).unwrap().arrivals.len();
        assert!(partial < 100, "deadline should cut the run short");
        sim.run();
        assert_eq!(sim.node_ref::<Sink>(dst).unwrap().arrivals.len(), 100);
    }

    #[test]
    fn inject_delivers_without_links() {
        let mut sim = Simulator::new(0);
        let dst = sim.add_node(Box::new(Sink::default()));
        sim.inject(SimTime(500), dst, PortId(0), Frame::from_slice(b"hi"));
        sim.run();
        assert_eq!(sim.node_ref::<Sink>(dst).unwrap().arrivals, vec![SimTime(500)]);
    }

    #[test]
    fn downcast_to_wrong_type_is_none() {
        let mut sim = Simulator::new(0);
        let dst = sim.add_node(Box::new(Sink::default()));
        assert!(sim.node_ref::<Blaster>(dst).is_none());
        assert!(sim.node_mut::<Sink>(dst).is_some());
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn self_link_panics() {
        let mut sim = Simulator::new(0);
        let n = sim.add_node(Box::new(Sink::default()));
        sim.connect(n, n, LinkSpec::fast());
    }

    /// The tie-break regression at the simulator level: two nodes whose
    /// timers are armed at the same instant in *different call orders*
    /// fire in node-id order either way, so their same-tick transmissions
    /// toward a shared sink arrive identically. (Insertion-order
    /// tie-breaking made the firing order follow the `schedule_timer`
    /// call order instead.)
    #[test]
    fn same_tick_firing_order_ignores_scheduling_order() {
        /// Sends one tagged frame when its timer fires.
        struct Tagged(u8);
        impl Node for Tagged {
            fn on_packet(&mut self, _ctx: &mut dyn Fabric, _port: PortId, _frame: Frame) {}
            fn on_timer(&mut self, ctx: &mut dyn Fabric, _token: u64) {
                ctx.send(PortId(0), Frame::from(vec![self.0; 64]));
            }
        }
        /// Records the first byte of each arrival.
        #[derive(Default)]
        struct TagSink(Vec<u8>);
        impl Node for TagSink {
            fn on_packet(&mut self, _ctx: &mut dyn Fabric, _port: PortId, frame: Frame) {
                self.0.push(frame[0]);
            }
        }
        let run = |swap: bool| {
            let mut sim = Simulator::new(3);
            let a = sim.add_node(Box::new(Tagged(b'a')));
            let b = sim.add_node(Box::new(Tagged(b'b')));
            let sink = sim.add_node(Box::new(TagSink::default()));
            sim.connect(a, sink, LinkSpec::fast());
            sim.connect(b, sink, LinkSpec::fast());
            let t = SimTime(1_000);
            if swap {
                sim.schedule_timer(t, b, 0);
                sim.schedule_timer(t, a, 0);
            } else {
                sim.schedule_timer(t, a, 0);
                sim.schedule_timer(t, b, 0);
            }
            sim.run();
            sim.node_ref::<TagSink>(sink).unwrap().0.clone()
        };
        let forward = run(false);
        let swapped = run(true);
        assert_eq!(forward, vec![b'a', b'b']);
        assert_eq!(forward, swapped, "delivery order depended on scheduling order");
    }

    /// Two flows with lossy links, run twice at one seed: arrivals,
    /// counters and event totals must be bit-identical.
    #[test]
    fn same_seed_run_is_bit_identical() {
        let run = || {
            let mut sim = Simulator::new(9);
            let lossy = LinkSpec::fast().with_faults(crate::FaultProfile::loss(0.2));
            let src0 = sim.add_node(Box::new(Blaster::new(30, 400)));
            let dst0 = sim.add_node(Box::new(Sink::default()));
            let src1 = sim.add_node(Box::new(Blaster::new(20, 200)));
            let dst1 = sim.add_node(Box::new(Sink::default()));
            sim.connect(src0, dst0, lossy);
            sim.connect(src1, dst1, lossy);
            sim.run();
            let snap = sim.snapshot();
            (
                sim.node_ref::<Sink>(dst0).unwrap().arrivals.clone(),
                sim.node_ref::<Sink>(dst1).unwrap().arrivals.clone(),
                snap.nodes,
                snap.links,
                sim.events_processed(),
                sim.now(),
            )
        };
        let first = run();
        assert!(!first.0.is_empty() && first.0.len() < 30, "loss should be partial");
        assert_eq!(first, run());
    }

    /// Counts arrivals and the fail/revive hook calls.
    #[derive(Default)]
    struct MortalSink {
        arrivals: Vec<SimTime>,
        failed: usize,
        revived: usize,
    }

    impl Node for MortalSink {
        fn on_packet(&mut self, ctx: &mut dyn Fabric, _port: PortId, _frame: Frame) {
            self.arrivals.push(ctx.now());
        }
        fn on_fail(&mut self) {
            self.failed += 1;
        }
        fn on_revive(&mut self, _ctx: &mut dyn Fabric) {
            self.revived += 1;
        }
    }

    /// A scripted node death drops every frame addressed to the node
    /// during `[kill, revive)`, fires the fail/revive hooks exactly once
    /// each, and replays bit-identically at the same seed.
    #[test]
    fn scripted_node_death_drops_frames_then_revives() {
        let run = || {
            let mut sim = Simulator::new(11);
            // Blaster sends at t = 1, 1001, 2001, … ns; each 100-byte
            // frame arrives 1080 ns after its send (80 ns serialization +
            // 1 µs propagation): arrivals at 1081 + k·1000.
            let src = sim.add_node(Box::new(Blaster::new(10, 100)));
            let dst = sim.add_node(Box::new(MortalSink::default()));
            sim.connect(src, dst, LinkSpec::fast());
            sim.script_node(
                dst,
                crate::NodeScript::down_between(SimTime(3_000), SimTime(6_000)),
            );
            sim.run();
            let sink = sim.node_ref::<MortalSink>(dst).unwrap();
            (sink.arrivals.clone(), sink.failed, sink.revived, sim.node_stats(dst))
        };
        let (arrivals, failed, revived, stats) = run();
        // Arrivals at 3081, 4081, 5081 fall inside the down window.
        assert_eq!(arrivals.len(), 7);
        assert!(arrivals.iter().all(|t| t.0 < 3_000 || t.0 >= 6_000));
        assert_eq!((failed, revived), (1, 1));
        assert_eq!(stats.dead_drops, 3);
        assert_eq!(stats.frames_in, 7);
        assert_eq!(run(), (arrivals, failed, revived, stats));
    }

    /// Down intervals are half-open: an injected frame at exactly the
    /// kill instant dies; one at exactly the revive instant lives.
    #[test]
    fn node_down_window_boundaries_are_kill_inclusive_revive_exclusive() {
        let mut sim = Simulator::new(0);
        let dst = sim.add_node(Box::new(MortalSink::default()));
        sim.script_node(dst, crate::NodeScript::down_between(SimTime(100), SimTime(200)));
        for t in [99, 100, 199, 200] {
            sim.inject(SimTime(t), dst, PortId(0), Frame::from_slice(b"x"));
        }
        sim.run();
        let sink = sim.node_ref::<MortalSink>(dst).unwrap();
        assert_eq!(sink.arrivals, vec![SimTime(99), SimTime(200)]);
        assert_eq!(sim.node_stats(dst).dead_drops, 2);
    }

    /// A permanent kill (no revive) silences the node for good, and
    /// pending timers die with it.
    #[test]
    fn permanent_kill_silences_timers_too() {
        /// Re-arms its own timer forever; counts firings.
        struct Ticker(usize);
        impl Node for Ticker {
            fn on_packet(&mut self, _ctx: &mut dyn Fabric, _port: PortId, _frame: Frame) {}
            fn on_start(&mut self, ctx: &mut dyn Fabric) {
                ctx.schedule(SimDuration::from_nanos(10), 0);
            }
            fn on_timer(&mut self, ctx: &mut dyn Fabric, _token: u64) {
                self.0 += 1;
                ctx.schedule(SimDuration::from_nanos(10), 0);
            }
        }
        let mut sim = Simulator::new(0);
        let t = sim.add_node(Box::new(Ticker(0)));
        sim.script_node(t, crate::NodeScript::kill_at(SimTime(55)));
        sim.run(); // would never drain without the kill
        // Fires at 10, 20, 30, 40, 50; the tick armed for 60 dies.
        assert_eq!(sim.node_ref::<Ticker>(t).unwrap().0, 5);
    }
}
