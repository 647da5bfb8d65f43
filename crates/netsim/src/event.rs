//! The event queue: an index-based binary heap ordered by the explicit
//! deterministic key `(time, source node, per-source sequence)`.
//!
//! # The ordering key
//!
//! Same-tick ordering used to lean on a *global* insertion sequence —
//! whichever event happened to be pushed first fired first. That makes
//! every tie-break depend on the order unrelated callers happened to
//! push in (`schedule_timer(a)` before `schedule_timer(b)` or after), so
//! the key is explicit instead:
//!
//! 1. **time** — the firing instant;
//! 2. **source node id** — the node whose callback scheduled the event
//!    (the transmitter for `Deliver`/`TxDone`, the owner for `Timer`);
//! 3. **per-source sequence** — a counter private to that source,
//!    incremented on every event it schedules.
//!
//! Each node's callbacks execute in key order, so each node assigns the
//! same sequence numbers to the same events on every run — the order is
//! a function of what was scheduled, never of who pushed first.
//!
//! Causality makes the key safe to execute in sorted order: an event
//! pushed from inside node `s`'s callback at time `t` carries source `s`
//! and a fresh (strictly larger) sequence number, so its key is strictly
//! greater than the key currently executing — the sorted order can never
//! be violated retroactively.
//!
//! # Layout
//!
//! Event payloads ([`EventKind`]) live in a slab (`Vec<Option<EventKind>>`
//! with a free list) and never move after insertion; the heap itself holds
//! only 24-byte `(time, src, seq, slot)` entries, so every sift-up/down
//! moves a small POD instead of a payload carrying a [`Frame`]. Slab slots
//! are recycled, so a steady-state simulation stops allocating entirely.

use crate::frame::Frame;
use crate::node::{NodeId, PortId};
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What happens when an event fires.
#[derive(Debug, Clone)]
pub enum EventKind {
    /// A frame finishes propagation and is delivered to a node's port.
    Deliver {
        /// Receiving node.
        node: NodeId,
        /// Ingress port on that node.
        port: PortId,
        /// The frame (shared, pooled — see [`crate::FramePool`]).
        frame: Frame,
    },
    /// A node timer fires.
    Timer {
        /// The owning node.
        node: NodeId,
        /// Opaque token the node passed to `schedule`.
        token: u64,
    },
    /// A link transmitter finishes serializing a frame (frees queue space).
    TxDone {
        /// Index into the simulator's link table.
        link: usize,
        /// Direction within the link (0 = a→b, 1 = b→a).
        dir: usize,
        /// Size of the frame leaving the queue.
        bytes: usize,
    },
    /// A scripted node failure fires: the node's volatile state is torn
    /// down ([`crate::Node::on_fail`]) and deliveries/timers addressed to
    /// it are dropped until it revives (see
    /// [`crate::Simulator::script_node`]).
    NodeFail {
        /// The failing node.
        node: NodeId,
    },
    /// A scripted node revival fires: the node comes back cold
    /// ([`crate::Node::on_revive`]) and receives traffic again.
    NodeRevive {
        /// The reviving node.
        node: NodeId,
    },
}

/// A scheduled event, as returned by [`EventQueue::pop`].
#[derive(Debug, Clone)]
pub struct Event {
    /// Firing time.
    pub time: SimTime,
    /// The node whose callback scheduled this event.
    pub src: NodeId,
    /// Per-source sequence; third component of the ordering key.
    pub seq: u64,
    /// Payload.
    pub kind: EventKind,
}

/// A heap entry: ordering key plus the slab slot of its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HeapEntry {
    time: SimTime,
    seq: u64,
    src: u32,
    slot: u32,
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the smallest key pops first.
        (other.time, other.src, other.seq).cmp(&(self.time, self.src, self.seq))
    }
}

/// A deterministic priority queue of events, ordered by
/// `(time, source node, per-source seq)` — see the module docs for why
/// this key (and not insertion order) is the tie-breaking rule.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<HeapEntry>,
    /// Payload slab; `heap` indexes into it.
    slots: Vec<Option<EventKind>>,
    /// Recycled slab indices.
    free: Vec<u32>,
    /// The instant of the most recently popped event — the queue's notion
    /// of "now"; pushes at or before it are clamped to it.
    now: SimTime,
    /// Per-source sequence counters, indexed by source node id.
    next_seq: Vec<u64>,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> EventQueue {
        EventQueue::default()
    }

    fn store(&mut self, kind: EventKind) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(kind);
                slot
            }
            None => {
                self.slots.push(Some(kind));
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Schedules `kind` at absolute time `time`, sourced by `src` (the
    /// node whose callback is doing the scheduling). A `time` at or before
    /// the current instant fires at the current instant; its place among
    /// other events of that instant follows the `(source, seq)` key, not
    /// push order.
    pub fn push(&mut self, time: SimTime, src: NodeId, kind: EventKind) {
        if src.0 >= self.next_seq.len() {
            self.next_seq.resize(src.0 + 1, 0);
        }
        let seq = self.next_seq[src.0];
        self.next_seq[src.0] = seq + 1;
        let time = time.max(self.now);
        let slot = self.store(kind);
        self.heap.push(HeapEntry { time, seq, src: src.0 as u32, slot });
    }

    fn take(&mut self, slot: u32) -> EventKind {
        let kind = self.slots[slot as usize].take().expect("slot occupied");
        self.free.push(slot);
        kind
    }

    /// Pops the earliest event, if any, in strict
    /// `(time, source, seq)` order.
    pub fn pop(&mut self) -> Option<Event> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.time >= self.now, "time went backwards");
        self.now = entry.time;
        let kind = self.take(entry.slot);
        Some(Event {
            time: entry.time,
            src: NodeId(entry.src as usize),
            seq: entry.seq,
            kind,
        })
    }

    /// Pops the next event only if it fires exactly at `time` (the batch
    /// primitive the simulator's inner per-instant loop uses).
    pub fn pop_at(&mut self, time: SimTime) -> Option<Event> {
        if self.heap.peek().map(|e| e.time) == Some(time) {
            self.pop()
        } else {
            None
        }
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(node: usize, token: u64) -> EventKind {
        EventKind::Timer { node: NodeId(node), token }
    }

    fn token_of(ev: &Event) -> u64 {
        match ev.kind {
            EventKind::Timer { token, .. } => token,
            _ => unreachable!(),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(30), NodeId(0), timer(0, 3));
        q.push(SimTime(10), NodeId(0), timer(0, 1));
        q.push(SimTime(20), NodeId(0), timer(0, 2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| token_of(&e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_source_then_per_source_seq() {
        let mut q = EventQueue::new();
        // Interleaved pushes from three sources at one instant: the pop
        // order must follow (src, per-src seq), not push order.
        q.push(SimTime(42), NodeId(2), timer(2, 20));
        q.push(SimTime(42), NodeId(0), timer(0, 0));
        q.push(SimTime(42), NodeId(1), timer(1, 10));
        q.push(SimTime(42), NodeId(0), timer(0, 1));
        q.push(SimTime(42), NodeId(2), timer(2, 21));
        q.push(SimTime(42), NodeId(1), timer(1, 11));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| token_of(&e)).collect();
        assert_eq!(order, vec![0, 1, 10, 11, 20, 21]);
    }

    /// The tie-break regression: two queues receiving the same events
    /// in *different push orders* pop identically — the key is the
    /// push-order-free tie-break. Per-source relative order is preserved
    /// (a source's events are pushed in its own callback order).
    #[test]
    fn insertion_order_does_not_change_pop_order() {
        // Per-source streams: src3 → [a, b]; src1 → [c, d]; src0 → [e, f];
        // src2 → [g]. Any interleaving that keeps each source's own order
        // must pop identically.
        let events: Vec<(usize, u64)> =
            vec![(3, 0), (1, 0), (1, 1), (0, 0), (2, 0), (3, 1), (0, 1)];
        let pop_all = |order: &[usize]| {
            let mut q = EventQueue::new();
            for &i in order {
                let (src, token) = events[i];
                q.push(SimTime(7), NodeId(src), timer(src, token));
            }
            std::iter::from_fn(move || q.pop())
                .map(|e| (e.src.0, token_of(&e)))
                .collect::<Vec<_>>()
        };
        // Two different interleavings of the same per-source streams.
        let a = pop_all(&[0, 1, 2, 3, 4, 5, 6]);
        let b = pop_all(&[1, 0, 3, 4, 2, 5, 6]);
        assert_eq!(a, b, "pop order depended on push order");
        assert_eq!(a, vec![(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (3, 0), (3, 1)]);
    }

    #[test]
    fn peek_time_tracks_minimum() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime(50), NodeId(0), timer(0, 0));
        q.push(SimTime(5), NodeId(0), timer(0, 1));
        assert_eq!(q.peek_time(), Some(SimTime(5)));
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }

    #[test]
    fn past_pushes_clamp_to_the_current_instant() {
        let mut q = EventQueue::new();
        q.push(SimTime(10), NodeId(0), timer(0, 0));
        assert_eq!(token_of(&q.pop().unwrap()), 0); // now = 10
        q.push(SimTime(3), NodeId(0), timer(0, 1)); // in the past: fires now
        let ev = q.pop().unwrap();
        assert_eq!(ev.time, SimTime(10));
        assert_eq!(token_of(&ev), 1);
    }

    #[test]
    fn same_tick_pushes_merge_by_key_not_arrival() {
        let mut q = EventQueue::new();
        q.push(SimTime(10), NodeId(5), timer(5, 50));
        q.push(SimTime(10), NodeId(1), timer(1, 10));
        assert_eq!(token_of(&q.pop().unwrap()), 10); // now = 10, src 1 first
        // A same-tick push from a source *below* the pending one fires
        // before it — key order, not FIFO.
        q.push(SimTime(10), NodeId(2), timer(2, 20));
        assert_eq!(token_of(&q.pop().unwrap()), 20);
        assert_eq!(token_of(&q.pop().unwrap()), 50);
        assert!(q.pop().is_none());
    }

    #[test]
    fn pop_at_only_pops_matching_instant() {
        let mut q = EventQueue::new();
        q.push(SimTime(10), NodeId(0), timer(0, 0));
        q.push(SimTime(20), NodeId(0), timer(0, 1));
        assert!(q.pop_at(SimTime(5)).is_none());
        assert_eq!(token_of(&q.pop_at(SimTime(10)).unwrap()), 0);
        assert!(q.pop_at(SimTime(10)).is_none());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn slab_slots_are_recycled() {
        let mut q = EventQueue::new();
        for round in 0..10 {
            for t in 0..100u64 {
                q.push(SimTime(round * 1000 + t + 1), NodeId(0), timer(0, t));
            }
            while q.pop().is_some() {}
        }
        assert!(q.slots.len() <= 100, "slab grew past peak occupancy: {}", q.slots.len());
    }
}
