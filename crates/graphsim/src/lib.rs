//! # daiet-graphsim — the Figure-1(c) workload
//!
//! Reproduces the paper's §3 graph-analytics analysis: PageRank, SSSP and
//! WCC run on a Pregel-style vertex-centric engine (the paper used GPS, a
//! Pregel clone, on the LiveJournal graph: 4.8 M vertices, 68 M edges).
//! Each algorithm's messages combine with a commutative/associative
//! function (sum for PageRank, min for SSSP and WCC), so "the traffic
//! reduction ratio is calculated by combining all the messages sent to
//! the same destination into a single message by applying the aggregation
//! function used by the algorithm … inside the network".
//!
//! * [`graph`] — CSR graphs;
//! * [`generate`] — R-MAT power-law generator (LiveJournal-shaped at
//!   configurable scale) plus small deterministic graphs for tests;
//! * [`pregel`] — the BSP engine with combiners and a per-superstep
//!   message census;
//! * [`algos`] — PageRank, SSSP, WCC as vertex programs;
//! * [`traffic`] — the Figure-1(c) reduction-ratio series;
//! * [`netrun`] — vertex keys on the wire and the all-integer PageRank a
//!   switch combines exactly;
//! * [`tenant`] — Pregel supersteps carried by the real dataplane as a
//!   [`daiet::tenant`] job (one DAIET round per superstep, in-network
//!   combiners), bit-identical to the analytic engine even under link
//!   faults.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algos;
pub mod generate;
pub mod graph;
pub mod netrun;
pub mod pregel;
pub mod tenant;
pub mod traffic;

pub use graph::Graph;
pub use netrun::FixedPageRank;
pub use tenant::PregelTenant;
pub use traffic::{reduction_series, AlgoKind, SuperstepTraffic};
