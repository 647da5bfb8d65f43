//! # daiet-mapreduce — the Figure-3 workload
//!
//! A MapReduce shuffle with pluggable transports, reproducing the paper's
//! §5 evaluation: "The 12 workers execute a WordCount benchmark on an
//! implementation of MapReduce adapted to send the map results using
//! DAIET", compared against two baselines — "(i) using the original
//! TCP-based data exchange and (ii) using UDP and the DAIET protocol, but
//! without executing data aggregation in the switch."
//!
//! * [`wordcount`] — the corpus generator (collision-free words, per-word
//!   mapper multiplicity, word-length distribution — the knobs that set
//!   the reduction ratios) and ground-truth computation;
//! * [`serialize`] — the baseline's variable-length record codec, over
//!   the fixed 16 B + 4 B pairs the corpus holds (whose padding the paper
//!   reports as measured overhead);
//! * [`metrics`] — the reducer compute-time model (merge of pre-sorted
//!   runs vs full sort of unordered aggregates — §4's trade-off) and
//!   box-plot statistics;
//! * [`runner`] — drives a complete job over the simulator in each of the
//!   three shuffle modes and collects per-reducer measurements, or runs a
//!   UDP mode's same node list over loopback sockets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod runner;
pub mod serialize;
pub mod tenant;
pub mod wordcount;

pub use metrics::{BoxStats, CostModel, ReducerMetrics};
pub use runner::{RunOutcome, Runner, ShuffleMode};
pub use tenant::WordCountTenant;
pub use wordcount::{Corpus, CorpusSpec, Word};
