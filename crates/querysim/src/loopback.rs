//! GROUP BY execution over the real-time UDP loopback backend.
//!
//! The same planner, worker combiners, switch engine and multi-lane
//! coordinator as [`QueryRunner::run`](crate::QueryRunner::run) in the
//! UDP modes — but every slot is a [`daiet_fabric::NodeDriver`] thread
//! exchanging genuine datagrams over `127.0.0.1`. Workers and switches
//! reuse [`daiet::loopback::LoopbackJob`]'s per-role specs verbatim; only
//! the coordinator spec is query-specific (one collector per value lane
//! instead of one [`ReducerHost`](daiet::worker::ReducerHost)).
//!
//! The backend-equivalence claim — the loopback run's assembled
//! [`QueryResult`] is **bit-identical** to both the simulator's and the
//! in-memory reference executor's — is asserted in
//! `tests/fabric_properties.rs`.

use crate::exec::{QueryCoordinatorNode, QueryRunner};
use crate::query::QueryResult;
use daiet::controller::{AggregationMode, Controller};
use daiet::loopback::{wall_clock_config, LoopbackJob};
use daiet::AggFn;
use daiet_fabric::{DriverStats, Duration, ExitReason, FaultShim, Node, NodeSpec};
use std::any::Any;
use std::collections::BTreeMap;

/// One loopback query execution's results.
#[derive(Debug)]
pub struct QueryLoopbackOutcome {
    /// The assembled GROUP BY result (compare to
    /// [`Query::reference`](crate::Query::reference) and to the
    /// simulator's [`QueryOutcome::result`](crate::QueryOutcome)).
    pub result: QueryResult,
    /// Per-lane merged group maps, pre-assembly.
    pub lane_maps: Vec<BTreeMap<u32, u32>>,
    /// Whether every lane saw all its ENDs.
    pub complete: bool,
    /// Whether NACK recovery (if armed) finished with no gaps owing.
    pub recovery_satisfied: bool,
    /// NACK frames the coordinator emitted.
    pub nacks_emitted: u64,
    /// Frames the coordinator suppressed as duplicates.
    pub duplicates_suppressed: u64,
    /// Partial-aggregate pairs delivered to the coordinator (pre-merge).
    pub records_received: u64,
    /// Frames dropped by fault shims across all slots.
    pub shim_dropped: u64,
    /// Per-slot driver socket counters.
    pub driver_stats: Vec<DriverStats>,
    /// Whether any driver hit the wall-clock deadline (a wedged run).
    pub deadlined: bool,
}

/// The coordinator's `Send` distillate, carried across the driver-thread
/// boundary by the spec's finish hook.
struct CoordReport {
    lane_maps: Vec<BTreeMap<u32, u32>>,
    complete: bool,
    recovery_satisfied: bool,
    nacks_emitted: u64,
    duplicates_suppressed: u64,
    records_received: u64,
}

/// Runs the query over loopback UDP sockets with in-network aggregation
/// (`agg_mode` picks DAIET vs pass-through, mirroring the simulator's two
/// UDP modes). `shim_for(slot)` supplies each slot's egress fault
/// injection; `deadline` bounds wall-clock run time. The runner's
/// `daiet_config` is rescaled with [`wall_clock_config`].
pub fn run_query_loopback(
    runner: &QueryRunner,
    agg_mode: AggregationMode,
    shim_for: impl FnMut(usize) -> FaultShim,
    deadline: std::time::Duration,
) -> QueryLoopbackOutcome {
    let mut shim_for = shim_for;
    let (plan, workers, coord) = runner.make_plan();
    let placement = runner.placement(&workers, coord);
    let config = wall_clock_config(runner.daiet_config);
    let controller = Controller::with_per_tree_agg(config, AggFn::Sum, runner.plan.lane_aggs());
    let job = LoopbackJob::deploy(controller, plan, placement, runner.resources, agg_mode)
        .expect("deployment fits");
    let dep = job.deployment();

    let lane_aggs = runner.plan.lane_aggs();
    let expected_ends: Vec<u32> = (0..runner.plan.lane_count())
        .map(|l| dep.expected_ends(l, workers.len()))
        .collect();
    let sources: Vec<(u16, u32)> = if config.nack_recovery {
        // One NACK roster across every lane: the coordinator is the
        // reducer of all of them.
        (0..runner.plan.lane_count()).flat_map(|l| dep.nack_sources(l, &workers)).collect()
    } else {
        Vec::new()
    };

    // See the mapreduce loopback runner for the pacing floor rationale.
    let pacing = Duration::from_nanos(runner.pacing.as_nanos().max(50_000));
    let specs: Vec<NodeSpec> = (0..job.plan().len())
        .map(|slot| {
            let shim = shim_for(slot);
            if let Some(w) = workers.iter().position(|&s| s == slot) {
                let shards = runner.plan.worker_partials(&runner.table.shards[w]);
                job.sender_spec(w, shards, pacing, shim)
            } else if slot == coord {
                coordinator_spec(&lane_aggs, &expected_ends, config, &sources, slot, shim)
            } else {
                job.switch_spec(slot, shim)
            }
        })
        .collect();
    let out = daiet_fabric::run_cluster(specs, &job.links(), deadline);

    let deadlined = out.iter().any(|o| o.exit == ExitReason::Deadline);
    let shim_dropped = out.iter().map(|o| o.stats.shim_dropped).sum();
    let driver_stats: Vec<DriverStats> = out.iter().map(|o| o.stats).collect();
    let report = out
        .into_iter()
        .nth(coord)
        .expect("coordinator slot exists")
        .result
        .downcast::<CoordReport>()
        .expect("coordinator produces a report");
    QueryLoopbackOutcome {
        result: runner.plan.assemble(&report.lane_maps),
        lane_maps: report.lane_maps,
        complete: report.complete,
        recovery_satisfied: report.recovery_satisfied,
        nacks_emitted: report.nacks_emitted,
        duplicates_suppressed: report.duplicates_suppressed,
        records_received: report.records_received,
        shim_dropped,
        driver_stats,
        deadlined,
    }
}

/// The coordinator's [`NodeSpec`]: builds a [`QueryCoordinatorNode`]
/// in-thread from `Send` ingredients, done once complete **and** gapless,
/// finishing into a [`CoordReport`].
fn coordinator_spec(
    lane_aggs: &[AggFn],
    expected_ends: &[u32],
    config: daiet::DaietConfig,
    sources: &[(u16, u32)],
    slot: usize,
    shim: FaultShim,
) -> NodeSpec {
    let lane_aggs = lane_aggs.to_vec();
    let expected_ends = expected_ends.to_vec();
    let sources = sources.to_vec();
    NodeSpec {
        build: Box::new(move || {
            let mut node = QueryCoordinatorNode::new(&lane_aggs, &expected_ends);
            if config.nack_recovery {
                node = node.with_nack_recovery(slot as u32, &config, sources);
            }
            Box::new(node)
        }),
        shim,
        done: Some(Box::new(|n: &dyn Node| {
            let coord = (n as &dyn Any)
                .downcast_ref::<QueryCoordinatorNode>()
                .expect("coordinator slot holds a QueryCoordinatorNode");
            coord.is_complete() && coord.recovery_satisfied()
        })),
        finish: Box::new(|n| {
            let coord = (n as Box<dyn Any>)
                .downcast::<QueryCoordinatorNode>()
                .expect("coordinator slot holds a QueryCoordinatorNode");
            Box::new(CoordReport {
                lane_maps: coord.lane_maps(),
                complete: coord.is_complete(),
                recovery_satisfied: coord.recovery_satisfied(),
                nacks_emitted: coord.nacks_emitted(),
                duplicates_suppressed: coord.duplicates_suppressed(),
                records_received: coord.pairs_received(),
            })
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Aggregate, Query};
    use crate::table::{Table, TableSpec};

    /// A multi-aggregate GROUP BY over real sockets, in-network
    /// aggregation, no injected loss: bit-identical to the in-memory
    /// reference executor.
    #[test]
    fn group_by_over_loopback_matches_reference() {
        let table = Table::generate(&TableSpec::tiny(11));
        let query = Query::new(vec![Aggregate::Count, Aggregate::Sum(0), Aggregate::Avg(1)]);
        let truth = query.reference(&table);
        let runner = QueryRunner::new(table, query);
        let out = run_query_loopback(
            &runner,
            AggregationMode::InNetwork,
            |_| FaultShim::none(),
            std::time::Duration::from_secs(60),
        );
        assert!(!out.deadlined, "run hit the deadline");
        assert!(out.complete && out.recovery_satisfied);
        assert_eq!(out.result, truth, "loopback diverged from the reference");
        assert_eq!(out.shim_dropped, 0);
    }

    /// Switch-egress loss with full reliability armed: the flush frames
    /// carrying the in-network partials get dropped and must come back
    /// via NACK recovery — and the answer still lands exactly.
    #[test]
    fn lossy_group_by_recovers_over_loopback() {
        let table = Table::generate(&TableSpec::tiny(13));
        let query = Query::new(vec![Aggregate::Sum(0), Aggregate::Min(1)]);
        let truth = query.reference(&table);
        let mut runner = QueryRunner::new(table, query);
        runner.daiet_config.nack_recovery = true;
        runner.daiet_config = runner.daiet_config.with_rtx_sized_for_flush();
        let switch_slot = runner.table.spec.n_workers + 1;
        let out = run_query_loopback(
            &runner,
            AggregationMode::InNetwork,
            |slot| {
                if slot == switch_slot {
                    FaultShim::seeded(3, 0.10, 0.0).with_scripted_drops([0])
                } else {
                    FaultShim::none()
                }
            },
            std::time::Duration::from_secs(60),
        );
        assert!(!out.deadlined, "recovery never converged");
        assert!(out.complete && out.recovery_satisfied);
        assert_eq!(out.result, truth, "loss leaked into the result");
        assert!(out.shim_dropped > 0, "shim injected no loss — test is vacuous");
        assert!(out.nacks_emitted > 0, "loss was repaired without NACKs?");
    }
}
