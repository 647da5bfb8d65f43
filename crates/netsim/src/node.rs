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
    pub(crate) pool: &'a FramePool,
}

/// The simulator's dispatch context *is* a fabric: node handlers written
/// against `&mut dyn Fabric` run under the discrete-event engine with no
/// adapter.
impl Fabric for Context<'_> {
    fn now(&self) -> SimTime {
        self.now
    }

    /// The frame enters the link's egress queue; it may be dropped there
    /// (queue overflow or injected fault) — exactly like handing a frame
    /// to real NIC hardware, no feedback. Sending on an unconnected port
    /// is a programming error and panics: the topology is static, so a
    /// bad port can never be data-dependent.
    fn send(&mut self, port: PortId, frame: Frame) {
        self.stats.node_sent(self.node, frame.len());
        let mut net = NetCtx {
            queue: &mut *self.queue,
            stats: &mut *self.stats,
            pool: self.pool,
        };
        self.ports.transmit(self.node, port, frame, self.now, &mut net);
    }

    fn schedule(&mut self, delay: SimDuration, token: u64) {
        self.queue.push(
            self.now + delay,
            self.node,
            EventKind::Timer { node: self.node, token },
        );
    }

    fn pool(&self) -> &FramePool {
        self.pool
    }

    fn port_count(&self) -> usize {
        self.ports.port_count(self.node)
    }

    /// The transmitter's `busy_until`, or now if that lies in the past.
    fn port_free_at(&self, port: PortId) -> SimTime {
        self.ports.busy_until(self.node, port).max(self.now)
    }
}
