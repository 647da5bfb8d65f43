//! # daiet-querysim — SQL-style GROUP BY on the aggregation path
//!
//! The paper's §1 lists "the aggregation functions of SQL queries"
//! alongside MapReduce combiners as the partition/aggregate workloads
//! DAIET targets; this crate is that workload. It runs multi-aggregate
//! `GROUP BY` queries (`COUNT`, `SUM`, `MIN`, `MAX`, and `AVG` decomposed
//! into SUM+COUNT lanes) over the simulated fabric in three execution
//! modes and proves them **bit-identical**:
//!
//! * a TCP shuffle-to-coordinator baseline (the classic distributed-SQL
//!   final-aggregation plan),
//! * the DAIET protocol without in-network aggregation (UDP baseline),
//! * full DAIET in-network partial aggregation, one tree per value lane.
//!
//! The moving parts:
//!
//! * [`table`] — deterministic sharded-table generator (configurable
//!   rows, group cardinality, Zipf skew);
//! * [`query`] — the query model and the in-memory reference executor
//!   every network mode is checked against;
//! * [`plan`] — the planner mapping aggregates onto deduplicated value
//!   *lanes*, each a DAIET tree with its own
//!   [`AggFn`](daiet::agg::AggFn), plus the lane-recombination step
//!   (`AVG = SUM/COUNT`);
//! * [`exec`] — the simulator harness: worker combiners, the multi-lane
//!   coordinator, and the three modes, with optional NACK recovery
//!   riding the reliability extension; the UDP modes' node list also
//!   runs over loopback sockets.
//!
//! ```
//! use daiet_querysim::prelude::*;
//!
//! let table = Table::generate(&TableSpec::tiny(1));
//! let query = Query::new(vec![Aggregate::Count, Aggregate::Avg(0)]);
//! let truth = query.reference(&table);
//! let runner = QueryRunner::new(table, query);
//! let out = runner.run(QueryMode::DaietAgg);
//! assert!(out.complete);
//! assert_eq!(out.result, truth); // bit-identical to the in-memory answer
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod plan;
pub mod query;
pub mod table;
pub mod tenant;

/// One-stop imports for examples and benches.
pub mod prelude {
    pub use crate::exec::{QueryMode, QueryOutcome, QueryRunner};
    pub use crate::plan::QueryPlan;
    pub use crate::query::{AggOut, Aggregate, Query, QueryResult};
    pub use crate::table::{Table, TableSpec};
}

pub use exec::{QueryMode, QueryOutcome, QueryRunner};
pub use plan::QueryPlan;
pub use query::{AggOut, Aggregate, Query, QueryResult};
pub use table::{Table, TableSpec};
pub use tenant::GroupByTenant;
