//! The simulator: owns nodes, links, event queues and the clock, and runs
//! the event loop to completion — on one thread, or sharded across worker
//! threads by a [`PartitionMap`].
//!
//! # Partitioned execution
//!
//! [`Simulator::with_partitions`] splits the topology into partitions
//! (typically one per switch/rack — see
//! [`TopologyPlan::partition_map`](crate::TopologyPlan::partition_map)).
//! Each partition owns its own event heap, [`FramePool`], stats table and
//! node set, and runs on its own worker thread during `run_until`.
//!
//! Synchronization is conservative lookahead (classic
//! Chandy–Misra–Bryant-style windows): let `L` be the minimum propagation
//! latency over links that cross a partition boundary. A frame transmitted
//! by partition `q` at time `t` cannot arrive in another partition before
//! `t + L`, so every partition may safely execute all events strictly below
//! `T_min + L`, where `T_min` is the minimum next-event time over **all**
//! partitions — including its own. (The bound must be global: a
//! partition's own transmissions can return to it through a relay
//! partition, so "min over the *others*" is unsound — an idle-looking
//! relay would let its neighbours run arbitrarily far ahead of frames
//! still to be forwarded.) Workers run barrier-to-barrier: ingest
//! cross-partition deliveries, publish their next event time, agree on the
//! window, process it, deposit outgoing deliveries, repeat.
//!
//! Only plain bytes cross threads: pooled `Rc` frames stay strictly
//! partition-local, and a cross-partition delivery is serialized into a
//! `RemoteEvent` and re-pooled on the receiving side. Determinism across
//! partition counts rests on the explicit `(time, source, per-source seq)`
//! event key (see the `event` module) and on per-direction fault streams
//! (see the `link` module): partitioned runs are bit-identical to
//! single-threaded ones, which `tests/partition_properties.rs` pins.

use crate::event::{Event, EventKind, EventQueue, RemoteEvent};
use crate::frame::{Frame, FramePool};
use crate::link::{stream_seed, LinkSpec, PortTable};
use crate::node::{Context, Node, NodeId, NodeScript, PortId};
use crate::stats::{LinkStats, NodeStats, StatsSnapshot, StatsTable};
use crate::time::SimTime;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// Stream tag for per-node `Context::rng` streams (see
/// [`stream_seed`]).
const STREAM_NODE_RNG: u64 = 2;

/// Assigns every node to a partition. Build one by hand with
/// [`PartitionMap::new`], or derive one from a topology with
/// [`TopologyPlan::partition_map`](crate::TopologyPlan::partition_map).
#[derive(Debug, Clone)]
pub struct PartitionMap {
    parts: u32,
    assign: Vec<u32>,
}

impl PartitionMap {
    /// Everything in one partition — the single-threaded simulator.
    pub fn single() -> PartitionMap {
        PartitionMap { parts: 1, assign: Vec::new() }
    }

    /// `assign[node] = partition`; nodes beyond the assignment default to
    /// partition 0. Panics if an assignment references a partition ≥
    /// `parts`.
    pub fn new(parts: usize, assign: Vec<u32>) -> PartitionMap {
        assert!(parts >= 1, "at least one partition required");
        assert!(
            assign.iter().all(|&p| (p as usize) < parts),
            "assignment references a partition out of range"
        );
        PartitionMap { parts: parts as u32, assign }
    }

    /// Number of partitions.
    pub fn parts(&self) -> usize {
        self.parts as usize
    }

    /// The partition owning `node`.
    pub fn part_of(&self, node: usize) -> u32 {
        self.assign.get(node).copied().unwrap_or(0)
    }
}

/// One shard of the simulation: the nodes it owns, their events, frames,
/// counters and random streams. Everything `Rc`-backed stays inside.
struct Partition {
    /// Global-indexed; `Some` only for nodes this partition owns.
    nodes: Vec<Option<Box<dyn Node>>>,
    queue: EventQueue,
    /// Full mirror of the wiring (identical indices/seeds in every
    /// partition); only directions transmitted by owned nodes ever
    /// advance their state.
    ports: PortTable,
    stats: StatsTable,
    pool: FramePool,
    /// Per-node deterministic streams (global-indexed; only owned nodes'
    /// streams advance).
    node_rngs: Vec<SmallRng>,
    now: SimTime,
    events_processed: u64,
    /// Cross-partition deliveries staged per target partition, drained
    /// into the shared mailboxes at each synchronization.
    outboxes: Vec<Vec<RemoteEvent>>,
    /// Scripted kill/revive schedules, global-indexed; set only in the
    /// partition owning the node (the only place its events are handled).
    node_scripts: Vec<Option<NodeScript>>,
}

impl Partition {
    fn dispatch<F>(&mut self, me: u32, part_of: &[u32], node_id: NodeId, f: F)
    where
        F: FnOnce(&mut dyn Node, &mut Context<'_>),
    {
        // Temporarily take the node out of its slot so it can borrow both
        // itself and the world.
        let mut node = match self.nodes.get_mut(node_id.0).and_then(Option::take) {
            Some(n) => n,
            None => return, // node removed or not owned here: drop the event
        };
        {
            let mut ctx = Context {
                node: node_id,
                now: self.now,
                queue: &mut self.queue,
                ports: &mut self.ports,
                stats: &mut self.stats,
                rng: &mut self.node_rngs[node_id.0],
                pool: &self.pool,
                part_of,
                my_part: me,
                outboxes: &mut self.outboxes,
            };
            f(node.as_mut(), &mut ctx);
        }
        self.nodes[node_id.0] = Some(node);
    }

    /// Fires `on_start` for every owned node, in node-id order.
    fn start_nodes(&mut self, me: u32, part_of: &[u32]) {
        for i in 0..self.nodes.len() {
            self.dispatch(me, part_of, NodeId(i), |node, ctx| node.on_start(ctx));
        }
    }

    /// True when `node` is scripted down at `t`. A pure function of
    /// `(node, t)`, so the drop decision is identical under any
    /// partitioning and any same-tick event ordering.
    fn is_down(&self, node: NodeId, t: SimTime) -> bool {
        self.node_scripts
            .get(node.0)
            .and_then(Option::as_ref)
            .is_some_and(|s| s.is_down_at(t))
    }

    fn handle(&mut self, me: u32, part_of: &[u32], ev: Event) {
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
                self.dispatch(me, part_of, node, |n, ctx| n.on_packet(ctx, port, frame));
            }
            EventKind::Timer { node, token } => {
                if self.is_down(node, ev.time) {
                    return;
                }
                self.dispatch(me, part_of, node, |n, ctx| n.on_timer(ctx, token));
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
                self.dispatch(me, part_of, node, |n, ctx| n.on_revive(ctx));
            }
        }
    }

    /// Processes every local event with `time < horizon` (exclusive).
    /// Events sharing one instant are drained as a batch. The per-event
    /// count check is a local backstop; the authoritative global
    /// `max_events` check sums all partitions at each barrier.
    fn process_window(&mut self, me: u32, part_of: &[u32], horizon: u64, max_events: u64) {
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
                self.handle(me, part_of, ev);
            }
        }
    }

    /// Merges deliveries from other partitions into the local heap,
    /// re-homing the bytes in this partition's pool. The carried
    /// `(src, seq)` keys place each event exactly where a single-threaded
    /// run would have.
    fn ingest(&mut self, remotes: Vec<RemoteEvent>) {
        for r in remotes {
            // The lookahead window guarantees arrival ≥ t_min + L > now;
            // a violation means the synchronization protocol is broken,
            // and clamping it forward would silently corrupt timing.
            assert!(
                r.time >= self.now,
                "cross-partition frame arrived in the receiver's past \
                 ({:?} < {:?}) — lookahead window too wide",
                r.time,
                self.now
            );
            let frame = self.pool.copy_from_slice(&r.bytes);
            self.queue.push_keyed(
                r.time,
                r.src,
                r.seq,
                EventKind::Deliver { node: r.node, port: r.port, frame },
            );
        }
    }
}

/// A reusable barrier that can be poisoned: a panicking worker marks it,
/// and every current and future waiter returns `false` instead of
/// blocking forever on a thread that will never arrive.
struct PoisonBarrier {
    n: usize,
    state: Mutex<BarrierState>,
    cv: Condvar,
}

struct BarrierState {
    arrived: usize,
    generation: u64,
    poisoned: bool,
}

impl PoisonBarrier {
    fn new(n: usize) -> PoisonBarrier {
        PoisonBarrier {
            n,
            state: Mutex::new(BarrierState { arrived: 0, generation: 0, poisoned: false }),
            cv: Condvar::new(),
        }
    }

    /// Blocks until all `n` workers arrive; returns `false` if the
    /// barrier was poisoned instead.
    fn wait(&self) -> bool {
        let mut g = self.state.lock().unwrap();
        if g.poisoned {
            return false;
        }
        let gen = g.generation;
        g.arrived += 1;
        if g.arrived == self.n {
            g.arrived = 0;
            g.generation += 1;
            self.cv.notify_all();
            return true;
        }
        while g.generation == gen && !g.poisoned {
            g = self.cv.wait(g).unwrap();
        }
        if g.generation == gen {
            g.arrived -= 1; // poisoned before release: withdraw arrival
            return false;
        }
        true
    }

    fn poison(&self) {
        let mut g = self.state.lock().unwrap();
        g.poisoned = true;
        self.cv.notify_all();
    }
}

/// Cross-thread synchronization state for one `run_until` call.
struct SyncState {
    barrier: PoisonBarrier,
    /// Each partition's next pending event time (`u64::MAX` when idle),
    /// republished at every barrier.
    next_time: Vec<AtomicU64>,
    /// Each partition's cumulative event count, for the global
    /// `max_events` check.
    processed: Vec<AtomicU64>,
    /// Per-partition inbound mailboxes of cross-partition deliveries.
    mailboxes: Vec<Mutex<Vec<RemoteEvent>>>,
}

impl SyncState {
    fn new(k: usize) -> SyncState {
        SyncState {
            barrier: PoisonBarrier::new(k),
            next_time: (0..k).map(|_| AtomicU64::new(0)).collect(),
            processed: (0..k).map(|_| AtomicU64::new(0)).collect(),
            mailboxes: (0..k).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }
}

/// Moves one partition's `&mut` into its worker thread. Safety: each
/// pointer is handed to exactly one thread, the partitions are distinct
/// elements of one `Vec`, and the main thread does not touch them while
/// the scope runs — so the `Rc`-backed internals never cross threads.
struct PartCell(*mut Partition);
#[allow(unsafe_code)]
// lint:allow(part-unsafe-send): each PartCell pointer is moved into exactly
// one scoped worker thread; partitions are distinct Vec elements and the
// main thread is parked at the scope join while workers run.
unsafe impl Send for PartCell {}

fn flush_outboxes(part: &mut Partition, sync: &SyncState) {
    for (q, out) in part.outboxes.iter_mut().enumerate() {
        if !out.is_empty() {
            sync.mailboxes[q].lock().unwrap().append(out);
        }
    }
}

/// The per-partition worker loop: barrier-synchronized conservative
/// lookahead windows (module docs). Every worker computes the identical
/// exit/window decision from the identical published snapshot, so exits
/// are unanimous and no worker is left at a barrier.
#[allow(clippy::too_many_arguments)]
fn run_worker(
    part: &mut Partition,
    me: usize,
    sync: &SyncState,
    part_of: &[u32],
    deadline: SimTime,
    lookahead_ns: u64,
    max_events: u64,
    do_start: bool,
) {
    if do_start {
        part.start_nodes(me as u32, part_of);
        flush_outboxes(part, sync);
    }
    loop {
        // Barrier A: all deposits from the previous window are in the
        // mailboxes; ingest ours and publish our horizon inputs.
        if !sync.barrier.wait() {
            return;
        }
        let incoming = std::mem::take(&mut *sync.mailboxes[me].lock().unwrap());
        part.ingest(incoming);
        let next = part.queue.peek_time().map_or(u64::MAX, |t| t.0);
        sync.next_time[me].store(next, Ordering::SeqCst);
        sync.processed[me].store(part.events_processed, Ordering::SeqCst);

        // Barrier B: all inputs published; everyone computes the same
        // global decision.
        if !sync.barrier.wait() {
            return;
        }
        let k = sync.next_time.len();
        let mut t_min = u64::MAX;
        let mut total: u64 = 0;
        for q in 0..k {
            let t = sync.next_time[q].load(Ordering::SeqCst);
            total = total.saturating_add(sync.processed[q].load(Ordering::SeqCst));
            t_min = t_min.min(t);
        }
        // The runaway valve sums events across partitions at the barrier
        // — a per-partition check would let k partitions run to k times
        // the budget.
        assert!(
            total <= max_events,
            "simulation exceeded {max_events} events across {k} partitions — runaway?"
        );
        if t_min == u64::MAX || t_min > deadline.0 {
            return; // drained, or nothing left inside the deadline
        }
        // Conservative window: every frame generated anywhere from here on
        // is generated at ≥ t_min and arrives at ≥ t_min + L (L = minimum
        // cross-partition latency). The bound must use the *global* min —
        // not the min over other partitions — because our own sends can
        // come back to us through a relay partition (A→B→A takes 2L, but
        // B's forward is generated at ≥ t_min + L and could target any
        // partition, including one whose own queue looked idle).
        let horizon = t_min
            .saturating_add(lookahead_ns)
            .min(deadline.0.saturating_add(1));
        part.process_window(me as u32, part_of, horizon, max_events);
        flush_outboxes(part, sync);
    }
}

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
///
/// [`with_partitions`](Self::with_partitions) shards the same simulation
/// across worker threads with bit-identical results (module docs).
pub struct Simulator {
    seed: u64,
    map: PartitionMap,
    parts: Vec<Partition>,
    /// node id → owning partition, for every node added so far.
    part_of: Vec<u32>,
    now: SimTime,
    started: bool,
    /// Safety valve against runaway simulations; `run` panics past this
    /// (summed across partitions).
    pub max_events: u64,
}

impl Simulator {
    /// Creates an empty single-threaded simulator; all randomness derives
    /// from `seed`.
    pub fn new(seed: u64) -> Simulator {
        Simulator::with_partitions(seed, PartitionMap::single())
    }

    /// Creates an empty simulator sharded by `map`: each partition gets
    /// its own event heap, frame pool, stats table and (during runs)
    /// worker thread. Results are bit-identical to [`Simulator::new`] with
    /// the same seed — partitioning is an execution strategy, not a model
    /// change.
    pub fn with_partitions(seed: u64, map: PartitionMap) -> Simulator {
        let k = map.parts();
        let parts = (0..k)
            .map(|_| Partition {
                nodes: Vec::new(),
                queue: EventQueue::new(),
                ports: PortTable::with_seed(seed),
                stats: StatsTable::default(),
                pool: FramePool::new(),
                node_rngs: Vec::new(),
                now: SimTime::ZERO,
                events_processed: 0,
                outboxes: (0..k).map(|_| Vec::new()).collect(),
                node_scripts: Vec::new(),
            })
            .collect();
        Simulator {
            seed,
            map,
            parts,
            part_of: Vec::new(),
            now: SimTime::ZERO,
            started: false,
            max_events: 2_000_000_000,
        }
    }

    /// Number of partitions (1 for [`Simulator::new`]).
    pub fn partition_count(&self) -> usize {
        self.parts.len()
    }

    /// Registers a node, returning its id. Ids are dense and start at 0.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        let id = NodeId(self.part_of.len());
        let owner = self.map.part_of(id.0);
        let rng_seed = stream_seed(self.seed, [STREAM_NODE_RNG, id.0 as u64, 0, 0]);
        for part in &mut self.parts {
            part.nodes.push(None);
            part.node_rngs.push(SmallRng::seed_from_u64(rng_seed));
        }
        self.parts[owner as usize].nodes[id.0] = Some(node);
        self.part_of.push(owner);
        id
    }

    /// Connects two nodes with a link, assigning the next free port on
    /// each side; returns `(port on a, port on b)`. Every partition
    /// mirrors the wiring (identical link indices and fault streams);
    /// only the partition owning a direction's transmitter ever uses it.
    pub fn connect(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> (PortId, PortId) {
        assert!(a.0 < self.part_of.len() && b.0 < self.part_of.len(), "connect before add_node");
        assert_ne!(a, b, "self-links are not supported");
        let mut result = None;
        for part in &mut self.parts {
            let r = part.ports.connect(a, b, spec);
            debug_assert!(result.is_none() || result == Some(r), "partition wiring diverged");
            result = Some(r);
        }
        result.expect("at least one partition")
    }

    /// The peer `(node, port)` across the link attached at `(node, port)`.
    pub fn peer(&self, node: NodeId, port: PortId) -> Option<(NodeId, PortId)> {
        self.parts[0].ports.peer(node, port)
    }

    /// Current simulated time (the furthest any partition has reached;
    /// all partitions agree at run boundaries).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The frame pool of partition 0, for single-partition callers that
    /// build pooled frames outside node callbacks. Nodes build theirs
    /// from [`Fabric::pool`](crate::Fabric::pool), which is always
    /// the pool of the partition they run on (pooled buffers are
    /// `Rc`-backed and strictly partition-local).
    pub fn pool(&self) -> &FramePool {
        &self.parts[0].pool
    }

    /// Replaces the frame pool — pass [`FramePool::disabled`] to force
    /// every frame onto the global allocator (used by the determinism
    /// cross-check tests). Single-partition simulators only; partitioned
    /// ones must use [`set_frame_pool_for`](Self::set_frame_pool_for) per
    /// partition (one pool must never be shared across worker threads).
    pub fn set_frame_pool(&mut self, pool: FramePool) {
        assert_eq!(self.parts.len(), 1, "use set_frame_pool_for on a partitioned simulator");
        self.parts[0].pool = pool;
    }

    /// Replaces the frame pool of one partition.
    pub fn set_frame_pool_for(&mut self, part: usize, pool: FramePool) {
        self.parts[part].pool = pool;
    }

    /// Number of events processed so far, summed over partitions.
    pub fn events_processed(&self) -> u64 {
        self.parts.iter().map(|p| p.events_processed).sum()
    }

    /// Counters for `node`.
    pub fn node_stats(&self, node: NodeId) -> NodeStats {
        let mut total = NodeStats::default();
        for p in &self.parts {
            let s = p.stats.node(node);
            total.frames_in += s.frames_in;
            total.bytes_in += s.bytes_in;
            total.frames_out += s.frames_out;
            total.bytes_out += s.bytes_out;
            total.dead_drops += s.dead_drops;
        }
        total
    }

    /// Counters for link `idx` (links are numbered in connect order).
    pub fn link_stats(&self, idx: usize) -> LinkStats {
        let mut total = LinkStats::default();
        for p in &self.parts {
            let s = p.stats.link(idx);
            for d in 0..2 {
                let a = &mut total.dirs[d];
                let b = &s.dirs[d];
                a.tx_frames += b.tx_frames;
                a.tx_bytes += b.tx_bytes;
                a.drops_overflow += b.drops_overflow;
                a.drops_fault += b.drops_fault;
                a.corrupted += b.corrupted;
                a.duplicated += b.duplicated;
                a.reordered += b.reordered;
                a.ecn_marked += b.ecn_marked;
            }
        }
        total
    }

    /// Installs a deterministic per-frame fault script on one direction of
    /// link `idx` (`dir` 0 = the a→b direction of [`Simulator::connect`]).
    /// Each admitted frame consumes one decision; after the script runs
    /// out, the link reverts to its probabilistic
    /// [`FaultProfile`](crate::FaultProfile). The script lands in the
    /// partition owning the transmitting endpoint — the only place it can
    /// be consumed.
    pub fn script_link(&mut self, idx: usize, dir: usize, script: crate::LinkScript) {
        assert!(idx < self.link_count(), "script_link on unknown link {idx}");
        assert!(dir < 2, "link direction must be 0 or 1");
        let tx = self.parts[0].ports.transmitter(idx, dir);
        let owner = self.part_of[tx.0] as usize;
        self.parts[owner].ports.set_script(idx, dir, script);
    }

    /// Installs a scripted kill/revive schedule on `node` — the
    /// node-level sibling of [`script_link`](Self::script_link). At each
    /// scripted kill the node's [`Node::on_fail`] runs (volatile state is
    /// torn down); while down, every frame and timer addressed to the node
    /// is discarded (counted in [`NodeStats::dead_drops`]); at each revive
    /// [`Node::on_revive`] runs and traffic flows again. The transition
    /// events are keyed to the node's own source counter, so runs are
    /// bit-identical under any partitioning. Replaces any prior script;
    /// call before the first `run_until`.
    pub fn script_node(&mut self, node: NodeId, script: NodeScript) {
        assert!(node.0 < self.part_of.len(), "script_node before add_node");
        let owner = self.part_of[node.0] as usize;
        let part = &mut self.parts[owner];
        for (t, is_kill) in script.transitions() {
            let kind = if is_kill {
                EventKind::NodeFail { node }
            } else {
                EventKind::NodeRevive { node }
            };
            part.queue.push(t, node, kind);
        }
        if part.node_scripts.len() <= node.0 {
            part.node_scripts.resize_with(node.0 + 1, || None);
        }
        part.node_scripts[node.0] = Some(script);
    }

    /// Number of links created.
    pub fn link_count(&self) -> usize {
        self.parts[0].ports.link_count()
    }

    /// Borrows a node downcast to its concrete type.
    pub fn node_ref<T: Any>(&self, id: NodeId) -> Option<&T> {
        let owner = *self.part_of.get(id.0)? as usize;
        let node = self.parts[owner].nodes.get(id.0)?.as_deref()?;
        (node as &dyn Any).downcast_ref::<T>()
    }

    /// Mutably borrows a node downcast to its concrete type.
    pub fn node_mut<T: Any>(&mut self, id: NodeId) -> Option<&mut T> {
        let owner = *self.part_of.get(id.0)? as usize;
        let node = self.parts[owner].nodes.get_mut(id.0)?.as_deref_mut()?;
        (node as &mut dyn Any).downcast_mut::<T>()
    }

    /// Injects a frame delivery from outside the topology (useful in unit
    /// tests that exercise a single node without links). The event is
    /// attributed to the receiving node's own source counter, so the
    /// resulting ordering key is the same under any partitioning.
    pub fn inject(&mut self, at: SimTime, node: NodeId, port: PortId, frame: Frame) {
        let owner = self.part_of.get(node.0).copied().unwrap_or(0) as usize;
        let frame = if self.parts.len() > 1 {
            // Rc-backed frames are partition-local; re-home the bytes in
            // the owning partition's pool.
            self.parts[owner].pool.copy_from_slice(&frame)
        } else {
            frame
        };
        self.parts[owner].queue.push(at, node, EventKind::Deliver { node, port, frame });
    }

    /// Arms a timer on `node` from outside the topology — the external
    /// counterpart of [`Context::schedule`]. This is how a round-driven
    /// harness (e.g. `daiet::worker::IterativeRunner`) restarts a node
    /// whose internal timer chain ran dry at a round barrier: mutate the
    /// node via [`node_mut`](Self::node_mut), then schedule a wake-up.
    /// `at` must not lie in the simulator's past.
    pub fn schedule_timer(&mut self, at: SimTime, node: NodeId, token: u64) {
        assert!(at >= self.now, "timer scheduled in the past");
        let owner = self.part_of.get(node.0).copied().unwrap_or(0) as usize;
        self.parts[owner].queue.push(at, node, EventKind::Timer { node, token });
    }

    /// A copy of every per-node and per-link counter at this instant,
    /// merged across partitions (whose tables are disjoint — each counter
    /// is only ever written by its owner, so the merge is an element-wise
    /// sum and equals the single-threaded table exactly). Subtract two
    /// with [`crate::stats::StatsSnapshot::delta`] to read one round's
    /// traffic out of a long-running simulation; the snapshot remembers
    /// its partition count and `delta` refuses to mix different ones.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut snap = StatsSnapshot {
            nodes: vec![NodeStats::default(); self.part_of.len()],
            links: vec![LinkStats::default(); self.link_count()],
            partitions: self.parts.len(),
        };
        for p in &self.parts {
            p.stats.accumulate_into(&mut snap);
        }
        snap
    }

    /// Runs until the event queue drains; returns the final time.
    pub fn run(&mut self) -> SimTime {
        self.run_until(SimTime(u64::MAX))
    }

    /// Runs until every queue drains or the next event lies beyond
    /// `deadline`; returns the time reached.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        if self.parts.len() == 1 {
            self.run_until_single(deadline)
        } else {
            self.run_until_parallel(deadline)
        }
    }

    /// The single-partition fast path: the classic in-thread event loop,
    /// no barriers, no byte copies.
    fn run_until_single(&mut self, deadline: SimTime) -> SimTime {
        let part = &mut self.parts[0];
        let part_of = self.part_of.as_slice();
        if !self.started {
            self.started = true;
            part.start_nodes(0, part_of);
        }
        let max_events = self.max_events;
        part.process_window(0, part_of, deadline.0.saturating_add(1), max_events);
        self.now = self.now.max(part.now);
        self.now
    }

    /// The parallel path: one worker thread per partition, synchronized
    /// with conservative-lookahead windows (module docs).
    fn run_until_parallel(&mut self, deadline: SimTime) -> SimTime {
        let lookahead_ns = match self.parts[0].ports.min_cross_latency(&self.part_of) {
            Some(d) => {
                assert!(
                    d.as_nanos() > 0,
                    "cross-partition links must have positive latency (zero lookahead cannot make progress)"
                );
                d.as_nanos()
            }
            // No link crosses a partition: every partition is independent
            // and may run straight to the deadline.
            None => u64::MAX,
        };
        let do_start = !self.started;
        self.started = true;
        let max_events = self.max_events;
        let sync = SyncState::new(self.parts.len());
        let part_of = self.part_of.as_slice();
        let parts = &mut self.parts;
        let panic_payload = std::thread::scope(|s| {
            let handles: Vec<_> = parts
                .iter_mut()
                .enumerate()
                .map(|(me, part)| {
                    let cell = PartCell(part);
                    let sync = &sync;
                    s.spawn(move || {
                        // Capture the whole `PartCell` (not just its field)
                        // so the closure is `Send`.
                        let cell = cell;
                        #[allow(unsafe_code)]
                        // Safety: see `PartCell` — exclusive handoff of one
                        // partition to exactly one thread for the scope.
                        let part = unsafe { &mut *cell.0 };
                        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            run_worker(
                                part, me, sync, part_of, deadline, lookahead_ns, max_events,
                                do_start,
                            );
                        }));
                        if let Err(payload) = result {
                            // Unblock peers before propagating, or they
                            // wait forever for our barrier arrival.
                            sync.barrier.poison();
                            std::panic::resume_unwind(payload);
                        }
                    })
                })
                .collect();
            let mut first_panic = None;
            for h in handles {
                if let Err(payload) = h.join() {
                    first_panic.get_or_insert(payload);
                }
            }
            first_panic
        });
        if let Some(payload) = panic_payload {
            // Re-raise with the original payload so `should_panic`
            // expectations and error messages survive partitioning.
            std::panic::resume_unwind(payload);
        }
        self.now = self.parts.iter().map(|p| p.now).max().unwrap_or(self.now).max(self.now);
        self.now
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

    /// Two flows with lossy links, run single-threaded and split across
    /// two partitions (both links crossing the boundary): arrivals,
    /// counters and event totals must be bit-identical.
    #[test]
    fn partitioned_run_is_bit_identical_to_single() {
        let run = |parts: usize, assign: Vec<u32>| {
            let mut sim = Simulator::with_partitions(9, PartitionMap::new(parts, assign));
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
        let single = run(1, vec![0, 0, 0, 0]);
        // Both links cross the boundary: src0→dst0 spans 0→1, src1→dst1
        // spans 1→0.
        let dual = run(2, vec![0, 1, 1, 0]);
        assert!(!single.0.is_empty() && single.0.len() < 30, "loss should be partial");
        assert_eq!(single, dual);
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
    /// each, and produces bit-identical results under partitioning.
    #[test]
    fn scripted_node_death_drops_frames_then_revives() {
        let run = |parts: usize, assign: Vec<u32>| {
            let mut sim = Simulator::with_partitions(11, PartitionMap::new(parts, assign));
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
        let (arrivals, failed, revived, stats) = run(1, vec![0, 0]);
        // Arrivals at 3081, 4081, 5081 fall inside the down window.
        assert_eq!(arrivals.len(), 7);
        assert!(arrivals.iter().all(|t| t.0 < 3_000 || t.0 >= 6_000));
        assert_eq!((failed, revived), (1, 1));
        assert_eq!(stats.dead_drops, 3);
        assert_eq!(stats.frames_in, 7);
        // Bit-identical when the link crosses a partition boundary.
        let dual = run(2, vec![0, 1]);
        assert_eq!(dual, (arrivals, failed, revived, stats));
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

    /// The runaway valve fires on the *global* event count: two
    /// partitions may each stay under the budget while their sum exceeds
    /// it.
    #[test]
    #[should_panic(expected = "events across 2 partitions")]
    fn max_events_sums_across_partitions() {
        let mut sim = Simulator::with_partitions(1, PartitionMap::new(2, vec![0, 0, 1, 1]));
        let src0 = sim.add_node(Box::new(Blaster::new(60, 64)));
        let dst0 = sim.add_node(Box::new(Sink::default()));
        let src1 = sim.add_node(Box::new(Blaster::new(60, 64)));
        let dst1 = sim.add_node(Box::new(Sink::default()));
        sim.connect(src0, dst0, LinkSpec::fast());
        sim.connect(src1, dst1, LinkSpec::fast());
        // Each flow costs ~121 events — under the budget per partition,
        // so only the summed check at the barrier can catch the total
        // (~242) blowing through it.
        sim.max_events = 150;
        sim.run();
    }
}
