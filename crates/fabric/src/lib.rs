//! # daiet-fabric — one dataplane API over two backends
//!
//! The crates above this one (`daiet` core, `daiet-dataplane`, the
//! workload runners) implement protocol behaviour as [`Node`]s: packet
//! handlers, timer handlers, a start hook. This crate defines the world
//! those handlers see — the [`Fabric`] trait (read the clock, send a
//! frame, arm a timer, borrow the [`FramePool`]) — plus the wall-clock
//! backend that drives the *same* nodes over real UDP sockets:
//!
//! * [`Node`] / [`Fabric`] — the trait boundary. The discrete-event
//!   simulator (`daiet-netsim`) implements `Fabric` on its dispatch
//!   context; nothing protocol-side ever names the simulator.
//! * [`Time`] / [`Duration`] — integer-nanosecond time, virtual or wall,
//!   unified behind one type; [`Clock`] + [`WallClock`] supply the
//!   monotonic wall variant.
//! * [`Frame`] / [`FramePool`] — pooled, `Rc`-backed frame buffers.
//!   Frames never cross a thread or socket by reference: both backends
//!   copy bytes at the boundary and re-pool on ingest.
//! * [`NodeDriver`] — a nonblocking UDP socket loop with a hashed
//!   [`TimerWheel`], driving one node per process (or per thread, via
//!   [`cluster`]).
//! * [`FaultShim`] — seeded, deterministic loss/duplication at the socket
//!   edge, so recovery tests over real sockets reproduce bit-for-bit.
//!
//! The simulator depends on this crate (for the shared types), never the
//! reverse: `daiet-fabric` knows nothing about events or links.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod cluster;
pub mod frame;
pub mod node;
pub mod shim;
pub mod time;
pub mod udp;
pub mod wheel;

pub use clock::{Clock, ManualClock, WallClock};
pub use cluster::{run_cluster, NodeSpec, SlotOutcome};
pub use frame::{Frame, FramePool, PoolStats};
pub use node::{counter_delta, Fabric, Node, NodeId, PortId};
pub use shim::{FaultShim, ShimDecision};
pub use time::{Duration, Time};
pub use udp::{DriverStats, ExitReason, NodeDriver, MAX_DATAGRAM};
pub use wheel::TimerWheel;
