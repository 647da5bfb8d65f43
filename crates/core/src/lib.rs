//! # daiet — in-network data aggregation
//!
//! Reproduction of the system proposed in *"In-Network Computation is a
//! Dumb Idea Whose Time Has Come"* (Sapio et al., HotNets-XVI 2017):
//! **DAIET**, which offloads the aggregation step of partition/aggregate
//! applications (MapReduce shuffles, parameter-server updates, Pregel
//! message combining) onto programmable switches.
//!
//! The moving parts map one-to-one onto the paper's §4:
//!
//! * [`agg`] — commutative/associative aggregation functions applied to
//!   32-bit value lanes (sum, min, max, …) plus fixed-point helpers for
//!   ML gradients;
//! * [`tree`] — *aggregation trees* (Figure 2): per-reducer spanning trees
//!   covering all mappers, derived from the topology;
//! * [`switch_agg`] — **Algorithm 1**, the per-packet switch logic: hashed
//!   key/value register arrays with single-entry buckets, a spillover
//!   bucket for collisions, an index stack for cheap flushes, and
//!   END-driven child counting — implemented as a
//!   [`daiet_dataplane::SwitchExtern`] so it lives under real resource
//!   budgets;
//! * [`controller`] — the network controller: takes the job placement,
//!   builds the trees, installs flow rules and per-tree register state on
//!   every switch;
//! * [`worker`] — the thin end-host library: mapper-side packetization
//!   (fixed-size pairs, END markers) and reducer-side collection
//!   (unordered merge + final sort, the trade-off §4 discusses);
//! * [`reliability`] — the paper's *future work* (packet loss handling)
//!   as an optional extension: sequence numbers, switch-side duplicate
//!   suppression and a reducer-driven retransmission protocol.
//!
//! ## Quickstart
//!
//! ```
//! use daiet::worker::Packetizer;
//! use daiet::config::DaietConfig;
//! use daiet_wire::daiet::{Key, Pair};
//!
//! // Packetize a map output partition...
//! let config = DaietConfig::default();
//! let pairs = vec![
//!     Pair::new(Key::from_str_key("cat").unwrap(), 2),
//!     Pair::new(Key::from_str_key("dog").unwrap(), 1),
//! ];
//! let packets = Packetizer::new(&config).packets(7, &pairs);
//! // ... last packet is always the END marker.
//! assert_eq!(packets.last().unwrap().packet_type, daiet_wire::daiet::PacketType::End);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agg;
pub mod config;
pub mod controller;
pub mod loopback;
pub mod reliability;
pub mod switch_agg;
pub mod tenant;
pub mod tree;
pub mod worker;

pub use agg::AggFn;
pub use config::DaietConfig;
pub use controller::{Controller, Deployment, JobPlacement};
pub use switch_agg::{DaietEngine, DrainRefusal, EngineStats};
pub use tenant::{
    poisson_offsets, run_mix, run_solo, JobId, JobOutcome, JobRequest, JobScheduler, JobUsage,
    MixOptions, MixOutcome, TenantSpec, TenantWorkload,
};
pub use tree::AggregationTree;
pub use worker::{Collector, Packetizer};
