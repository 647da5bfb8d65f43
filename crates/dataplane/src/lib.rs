//! # daiet-dataplane — a software model of an RMT-style programmable switch
//!
//! The paper (§2, "Judicious network computing") grounds DAIET in the
//! architectural constraints of reconfigurable match-action ASICs
//! (RMT/Tofino):
//!
//! * **Limited memory** — lookups hit SRAM/TCAM measured in tens of MB;
//! * **Limited action set** — simple arithmetic, data manipulation, hashes;
//! * **Few operations per packet** — tens of nanoseconds per packet, no
//!   loops; bounded parse depth (≈200–300 B per packet).
//!
//! This crate models exactly those constraints in software so that systems
//! built on top (the DAIET aggregation logic in the `daiet` crate) are
//! forced into the same design space as a real P4 program:
//!
//! * [`resources`] — per-switch budgets (stages, SRAM, parse depth, per-
//!   packet operations) with byte-accurate allocation accounting;
//! * [`register`] — stateful register arrays charged against SRAM;
//! * [`parser`] — a bounded-depth parser producing [`parser::ParsedPacket`];
//!   headers beyond the budget stay opaque (a DAIET packet with more
//!   entries than the parser can reach is marked *truncated* and must be
//!   forwarded unaggregated — this is why the paper caps packets at 10
//!   pairs);
//! * [`table`] — exact-match tables keyed on one field, populated by flow
//!   rules, as a controller would install them;
//! * [`pipeline`] — the staged match-action pipeline plus the [`pipeline::SwitchExtern`]
//!   hook through which bounded stateful programs (like DAIET's Algorithm 1)
//!   attach;
//! * [`switch`] — a [`daiet_fabric::Node`] wrapping a pipeline, with packet
//!   and operation statistics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod parser;
pub mod pipeline;
pub mod register;
pub mod resources;
pub mod switch;
pub mod table;

pub use parser::{ParsedPacket, ParserConfig};
pub use pipeline::{ActionSpec, ExternId, ExternOutput, PacketCtx, Pipeline, SwitchExtern};
pub use register::RegisterArray;
pub use resources::{ResourceError, Resources, SramTracker};
pub use switch::{Switch, SwitchStats};
pub use table::{Field, Table};
