//! # daiet-mlsim — the Figure-1(a,b) workload
//!
//! Reproduces the paper's §3 machine-learning analysis: "a Soft-Max Neural
//! Network using mini-batch Stochastic Gradient Descent (SGD) and Adam
//! optimization … trained to correctly identify the digits" on MNIST,
//! with "one parameter server … five machines run as many worker
//! processes", measuring **the overlap of the tensor updates, i.e., the
//! portion of tensor elements that are updated by multiple workers at the
//! same time" — the quantity that bounds the data reduction in-network
//! aggregation could achieve on parameter-server traffic.
//!
//! MNIST itself is substituted with a calibrated synthetic generator
//! ([`data`]): centre-biased stroke images with MNIST-like per-image
//! active-pixel density, which is the only property the overlap metric
//! depends on (the gradient of a softmax layer touches exactly the rows
//! of active input pixels in the mini-batch union).
//!
//! * [`data`] — synthetic digit generator;
//! * [`model`] — softmax regression with cross-entropy loss;
//! * [`optimizer`] — SGD and Adam;
//! * [`psworker`] — parameter-server/worker simulation producing sparse
//!   updates per step, summed in memory or taken from the network;
//! * [`overlap`] — the Figure-1 overlap metric and experiment driver;
//! * [`netrun`] — fixed-point gradients as wire pairs, and the in-memory
//!   reference their in-network sums are bit-identical to;
//! * [`tenant`] — the same training loop as a [`daiet::tenant`] job, one
//!   DAIET round per step, which the scheduler's driver runs alone or in
//!   a mix, even under link faults.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod data;
pub mod model;
pub mod netrun;
pub mod optimizer;
pub mod overlap;
pub mod psworker;
pub mod tenant;

pub use overlap::{OverlapPoint, OverlapRun};
pub use tenant::SgdTenant;
