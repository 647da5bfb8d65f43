//! # daiet-netsim — deterministic discrete-event network simulator
//!
//! The substrate on which the DAIET reproduction runs: hosts and switches
//! are [`Node`]s exchanging Ethernet frames over [`link`]s with bandwidth,
//! propagation delay, bounded drop-tail queues and optional fault injection
//! (loss, corruption, duplication). A binary-heap event queue with
//! deterministic tie-breaking makes every run reproducible from a seed.
//!
//! Execution is single-threaded: one event loop on the calling thread
//! (see the [`sim`] module docs). The workload is CPU-bound simulation, so
//! a plain loop beats a task scheduler.
//!
//! Frames are pooled: the [`FramePool`] recycles every buffer that
//! crosses the event loop, so the steady-state hot path performs no heap
//! allocation (see the [`frame`] module and `ARCHITECTURE.md`).
//!
//! Nodes are written against the backend-agnostic `daiet-fabric` traits
//! ([`Node`] callbacks take `&mut dyn Fabric`), so the same
//! implementations also run on that crate's real-time UDP backend; this
//! simulator is the virtual-time [`Fabric`] implementation.
//!
//! ```
//! use daiet_netsim::{Simulator, Node, Fabric, Frame, PortId, LinkSpec};
//!
//! struct Echo;
//! impl Node for Echo {
//!     fn on_packet(&mut self, ctx: &mut dyn Fabric, port: PortId, frame: Frame) {
//!         ctx.send(port, frame); // bounce it straight back (no copy)
//!     }
//! }
//!
//! struct Counter(usize);
//! impl Node for Counter {
//!     fn on_packet(&mut self, _ctx: &mut dyn Fabric, _port: PortId, _frame: Frame) {
//!         self.0 += 1;
//!     }
//!     fn on_start(&mut self, ctx: &mut dyn Fabric) {
//!         // Outgoing frames are built in pooled buffers.
//!         let mut buf = ctx.pool().buffer();
//!         buf.resize(64, 0);
//!         let frame = ctx.pool().frame(buf);
//!         ctx.send(PortId(0), frame);
//!     }
//! }
//!
//! let mut sim = Simulator::new(1);
//! let echo = sim.add_node(Box::new(Echo));
//! let counter = sim.add_node(Box::new(Counter(0)));
//! sim.connect(echo, counter, LinkSpec::fast());
//! sim.run();
//! assert_eq!(sim.node_ref::<Counter>(counter).unwrap().0, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod frame;
pub mod link;
pub mod node;
pub mod sim;
pub mod stats;
pub mod time;
pub mod topology;

pub use frame::{Frame, FramePool, PoolStats};
pub use link::{FaultDecision, FaultProfile, LinkScript, LinkSpec};
pub use node::{Context, Fabric, Node, NodeId, NodeScript, PortId};
pub use sim::Simulator;
pub use stats::{LinkStats, NodeStats, StatsSnapshot};
pub use time::{SimDuration, SimTime};
pub use topology::{Role, TopologyPlan};
