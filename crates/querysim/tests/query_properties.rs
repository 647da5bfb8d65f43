//! Property tests for the GROUP BY workload: for **arbitrary tables and
//! query shapes**, the TCP baseline, the UDP no-aggregation mode and the
//! DAIET in-network mode must produce results bit-identical to the
//! in-memory reference executor — including when links lose and
//! duplicate frames under NACK recovery
//! (`QueryRunner::with_full_reliability`).

use daiet_netsim::FaultProfile;
use daiet_querysim::prelude::*;
use proptest::prelude::*;

/// Builds a query from a shape vector: each entry selects an aggregate
/// kind (0..5) and a column, reduced modulo the table width.
fn query_from_shape(shape: &[(u8, usize)], n_columns: usize) -> Query {
    let aggregates = shape
        .iter()
        .map(|&(kind, col)| {
            let c = col % n_columns;
            match kind % 5 {
                0 => Aggregate::Count,
                1 => Aggregate::Sum(c),
                2 => Aggregate::Min(c),
                3 => Aggregate::Max(c),
                _ => Aggregate::Avg(c),
            }
        })
        .collect();
    Query::new(aggregates)
}

fn spec_from(
    n_workers: usize,
    rows_per_worker: usize,
    n_groups: usize,
    n_columns: usize,
    skewed: bool,
    seed: u64,
) -> TableSpec {
    TableSpec {
        n_workers,
        rows_per_worker,
        n_groups,
        n_columns,
        zipf_s: if skewed { 1.2 } else { 0.0 },
        max_value: 1_000_000,
        seed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The core claim, quantified over workload shape: every execution
    /// mode computes exactly the reference answer on a clean fabric.
    #[test]
    fn all_modes_bit_identical_to_reference(
        dims in (2usize..5, 5usize..50, 1usize..40, 1usize..4),
        shape in prop::collection::vec((any::<u8>(), 0usize..4), 1..5),
        skewed: bool,
        seed: u64,
    ) {
        let (n_workers, rows, n_groups, n_columns) = dims;
        let spec = spec_from(n_workers, rows, n_groups, n_columns, skewed, seed);
        let table = Table::generate(&spec);
        let query = query_from_shape(&shape, n_columns);
        let truth = query.reference(&table);
        prop_assert_eq!(truth.len(), table.groups_present());

        let runner = QueryRunner::new(table, query);
        for mode in [QueryMode::TcpBaseline, QueryMode::UdpNoAgg, QueryMode::DaietAgg] {
            let out = runner.run(mode);
            prop_assert!(out.complete, "{:?} did not complete", mode);
            prop_assert_eq!(out.frames_dropped, 0, "{:?} dropped frames", mode);
            prop_assert_eq!(&out.result, &truth, "{:?} diverged from reference", mode);
        }
    }

    /// Same quantification under injected faults: every link loses 5%
    /// and duplicates 20% of frames, each frame is sent once, and NACK
    /// recovery at the switch and coordinator repairs the losses while
    /// its bitmaps absorb the duplicates. Both DAIET modes must still
    /// answer bit-exactly.
    #[test]
    fn faulty_links_with_reliability_stay_bit_identical(
        dims in (2usize..5, 5usize..40, 1usize..25),
        shape in prop::collection::vec((any::<u8>(), 0usize..3), 1..4),
        seed: u64,
    ) {
        let (n_workers, rows, n_groups) = dims;
        let spec = spec_from(n_workers, rows, n_groups, 3, true, seed);
        let table = Table::generate(&spec);
        let query = query_from_shape(&shape, 3);
        let truth = query.reference(&table);
        let runner = QueryRunner::new(table, query)
            .with_full_reliability(FaultProfile { drop: 0.05, duplicate: 0.2, ..FaultProfile::NONE });
        for mode in [QueryMode::UdpNoAgg, QueryMode::DaietAgg] {
            let out = runner.run(mode);
            prop_assert!(
                out.complete,
                "{:?} did not complete (loss outran NACK recovery?)",
                mode
            );
            prop_assert_eq!(&out.result, &truth, "{:?} diverged under faults", mode);
        }
    }

    /// The planner's lane algebra holds for any shape: folding worker
    /// partials lane-wise and assembling equals the reference — without
    /// any simulation (fast, so quantified over many more cases).
    #[test]
    fn lane_decomposition_is_exact(
        dims in (1usize..6, 1usize..80, 1usize..60, 1usize..4),
        shape in prop::collection::vec((any::<u8>(), 0usize..4), 1..6),
        seed: u64,
    ) {
        let (n_workers, rows, n_groups, n_columns) = dims;
        let spec = spec_from(n_workers, rows, n_groups, n_columns, false, seed);
        let table = Table::generate(&spec);
        let query = query_from_shape(&shape, n_columns);
        let plan = QueryPlan::of(&query);
        let mut per_lane = plan.empty_lane_maps();
        for shard in &table.shards {
            for (l, pairs) in plan.worker_partials(shard).into_iter().enumerate() {
                for pair in pairs {
                    let g = daiet_querysim::table::group_of_key(&pair.key).unwrap();
                    plan.merge_record(&mut per_lane, l, g, pair.value);
                }
            }
        }
        prop_assert_eq!(plan.assemble(&per_lane), query.reference(&table));
    }
}
