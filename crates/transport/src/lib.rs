//! # daiet-transport — end-host transports over the simulator
//!
//! The Figure-3 evaluation compares DAIET against "the original TCP-based
//! data exchange". This crate provides that baseline: a simplified but
//! standards-shaped TCP ([`tcp`]) with three-way handshake, MSS
//! segmentation, a sliding window, cumulative + delayed ACKs,
//! out-of-order reassembly, RTO retransmission with exponential backoff
//! and FIN teardown — enough that byte counts, segment counts and loss
//! behaviour look like a real kernel's bulk transfer, which is what the
//! packet/byte-reduction metrics measure.
//!
//! Design notes (per the session guides): protocol logic is a pure state
//! machine ([`tcp::TcpStack`]) driven by explicit `on_frame`/`on_tick`
//! calls and polled for output frames — no hidden time, no threads — with
//! thin [`daiet_netsim::Node`] adapters ([`tcp::BulkSenderNode`],
//! [`tcp::SinkReceiverNode`]) on top.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod tcp;

pub use tcp::{BulkSenderNode, SinkReceiverNode, SocketEvent, TcpStack};
