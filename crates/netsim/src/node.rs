//! The simulator's side of the fabric boundary: [`Node`] and the id
//! types are re-exported from `daiet-fabric` (handlers are written
//! against `&mut dyn Fabric` and never name a backend), while
//! [`Context`] — the simulator's [`Fabric`] implementation — and
//! [`NodeScript`] live here.

use crate::event::EventKind;
use crate::frame::{Frame, FramePool};
use crate::link::{NetCtx, PortTable};
use crate::stats::StatsTable;
use crate::time::{SimDuration, SimTime};
use rand::rngs::SmallRng;

pub use daiet_fabric::{Fabric, Node, NodeId, PortId};

/// A scripted kill/revive schedule for one node — the node-level sibling
/// of [`crate::LinkScript`]. While a node is down, the simulator drops
/// every frame and timer addressed to it (frames already in flight on a
/// wire still propagate, but die at the dead NIC) and the node's
/// [`Node::on_fail`]/[`Node::on_revive`] hooks fire at the scripted
/// instants. Down intervals are half-open `[kill, revive)`: an event at
/// exactly the kill instant is dropped, one at the revive instant is
/// delivered. Attach with [`crate::Simulator::script_node`].
#[derive(Debug, Clone, Default)]
pub struct NodeScript {
    /// Sorted, disjoint `(kill, revive)` intervals; `None` = never revives.
    downs: Vec<(crate::time::SimTime, Option<crate::time::SimTime>)>,
}

impl NodeScript {
    /// Kills the node at `at`, permanently.
    pub fn kill_at(at: crate::time::SimTime) -> NodeScript {
        NodeScript { downs: vec![(at, None)] }
    }

    /// Kills the node at `kill` and revives it at `revive`.
    pub fn down_between(kill: crate::time::SimTime, revive: crate::time::SimTime) -> NodeScript {
        assert!(kill < revive, "revive must come after kill");
        NodeScript { downs: vec![(kill, Some(revive))] }
    }

    /// Appends another down interval; must start after every prior
    /// interval ended (intervals are disjoint and ordered).
    pub fn and_down_between(
        mut self,
        kill: crate::time::SimTime,
        revive: crate::time::SimTime,
    ) -> NodeScript {
        assert!(kill < revive, "revive must come after kill");
        if let Some(&(_, last_revive)) = self.downs.last() {
            let end = last_revive.expect("cannot add intervals after a permanent kill");
            assert!(kill >= end, "down intervals must be disjoint and ordered");
        }
        self.downs.push((kill, Some(revive)));
        self
    }

    /// True when the node is down at `t` (kill inclusive, revive
    /// exclusive).
    pub fn is_down_at(&self, t: crate::time::SimTime) -> bool {
        self.downs
            .iter()
            .any(|&(kill, revive)| t >= kill && revive.is_none_or(|r| t < r))
    }

    /// Every scripted transition as `(time, is_kill)`, in order.
    pub(crate) fn transitions(&self) -> Vec<(crate::time::SimTime, bool)> {
        let mut out = Vec::new();
        for &(kill, revive) in &self.downs {
            out.push((kill, true));
            if let Some(r) = revive {
                out.push((r, false));
            }
        }
        out
    }
}

/// The world as visible from inside a node callback.
///
/// Splitting this out of the simulator (which also owns the nodes) is what
/// lets a node mutate itself while scheduling work: the simulator
/// temporarily removes the node from its slot during dispatch.
pub struct Context<'a> {
    pub(crate) node: NodeId,
    pub(crate) now: SimTime,
    pub(crate) queue: &'a mut crate::event::EventQueue,
    pub(crate) ports: &'a mut PortTable,
    pub(crate) stats: &'a mut StatsTable,
    pub(crate) rng: &'a mut SmallRng,
    pub(crate) pool: &'a FramePool,
}

impl Context<'_> {
    /// The id of the node being called.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Transmits `frame` out of `port`. The frame enters the link's egress
    /// queue; it may be dropped there (queue overflow or injected fault) —
    /// exactly like handing a frame to real NIC hardware, no feedback.
    ///
    /// Sending on an unconnected port is a programming error and panics:
    /// the topology is static, so a bad port can never be data-dependent.
    pub fn send(&mut self, port: PortId, frame: Frame) {
        self.stats.node_sent(self.node, frame.len());
        let mut net = NetCtx {
            queue: &mut *self.queue,
            stats: &mut *self.stats,
            pool: self.pool,
        };
        self.ports.transmit(self.node, port, frame, self.now, &mut net);
    }

    /// The simulation's [`FramePool`]: build outgoing frames from
    /// [`FramePool::buffer`]s so their storage recycles instead of
    /// churning the allocator.
    pub fn pool(&self) -> &FramePool {
        self.pool
    }

    /// Arms a one-shot timer `delay` from now; `token` is returned to
    /// [`Node::on_timer`].
    pub fn schedule(&mut self, delay: SimDuration, token: u64) {
        self.queue.push(
            self.now + delay,
            self.node,
            EventKind::Timer { node: self.node, token },
        );
    }

    /// Number of ports connected to this node.
    pub fn port_count(&self) -> usize {
        self.ports.port_count(self.node)
    }

    /// This node's private deterministic random stream, derived from the
    /// simulation seed and the node id. Streams are per-node (never
    /// shared) so one node's draws cannot shift another's.
    ///
    /// Deliberately *not* part of [`Fabric`]: randomness is a simulation
    /// concern (fault scripts, synthetic workloads), not a protocol one,
    /// and keeping it here is what guarantees protocol nodes stay
    /// backend-portable.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }
}

/// The simulator's dispatch context *is* a fabric: node handlers written
/// against `&mut dyn Fabric` run under the discrete-event engine with no
/// adapter. Each method delegates to the inherent one above.
impl Fabric for Context<'_> {
    fn now(&self) -> SimTime {
        Context::now(self)
    }

    fn send(&mut self, port: PortId, frame: Frame) {
        Context::send(self, port, frame);
    }

    fn schedule(&mut self, delay: SimDuration, token: u64) {
        Context::schedule(self, delay, token);
    }

    fn pool(&self) -> &FramePool {
        Context::pool(self)
    }

    fn port_count(&self) -> usize {
        Context::port_count(self)
    }
}
