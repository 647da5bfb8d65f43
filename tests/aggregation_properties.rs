//! Property-based integration tests of the core correctness claim:
//! **in-network aggregation must never change the application's answer**
//! (§2: "in-network computation must not affect the application
//! correctness"). For arbitrary workloads, topologies and register
//! sizes, the reducer's merged output equals a host-side aggregation of
//! the same pairs.

use daiet_repro::daiet::agg::AggFn;
use daiet_repro::daiet::controller::{AggregationMode, Controller, JobPlacement};
use daiet_repro::daiet::loopback::LoopbackJob;
use daiet_repro::daiet::worker::ReducerHost;
use daiet_repro::daiet::DaietConfig;
use daiet_repro::dataplane::Resources;
use daiet_repro::netsim::topology::TopologyPlan;
use daiet_repro::netsim::{LinkSpec, SimDuration, Simulator};
use daiet_repro::wire::daiet::{Key, Pair};
use proptest::prelude::*;
use std::collections::HashMap;

/// Runs one deployment with the given per-mapper pair lists and returns
/// the reducer's merged map.
fn aggregate_via_network(
    partitions: &[Vec<Pair>],
    agg: AggFn,
    register_cells: usize,
    leaf_spine: bool,
) -> HashMap<Key, u32> {
    let n_mappers = partitions.len();
    let config = DaietConfig { register_cells, ..DaietConfig::default() };

    let (plan, mappers, reducer) = if leaf_spine {
        // Enough hosts for the mappers plus the reducer, over 2 leaves.
        let per_leaf = n_mappers.div_ceil(2) + 1;
        let plan = TopologyPlan::leaf_spine(per_leaf, 2, 2, LinkSpec::fast());
        let hosts = plan.hosts();
        (plan, hosts[..n_mappers].to_vec(), hosts[n_mappers])
    } else {
        let plan = TopologyPlan::star(n_mappers + 1, LinkSpec::fast());
        (plan, (0..n_mappers).collect::<Vec<_>>(), n_mappers)
    };

    let placement = JobPlacement { mappers, reducers: vec![reducer] };
    let controller = Controller::new(config, agg);
    let job = LoopbackJob::deploy(
        controller,
        plan,
        placement,
        Resources::tofino_like(),
        AggregationMode::InNetwork,
    )
    .expect("deployment fits");

    // The job's node list; hosts beyond the placement idle.
    let shards = partitions.iter().map(|pairs| vec![pairs.clone()]).collect();
    let mut sim = Simulator::new(7);
    let specs = job.specs::<Vec<Pair>>(shards, SimDuration::from_micros(1), 1);
    let ids = job.plan().instantiate(&mut sim, specs);
    sim.run();
    let r = sim.node_ref::<ReducerHost>(ids[reducer]).unwrap();
    assert!(r.collector.is_complete(), "reducer starved of ENDs");
    r.collector.get_all().collect()
}

/// Host-side reference aggregation.
fn aggregate_locally(partitions: &[Vec<Pair>], agg: AggFn) -> HashMap<Key, u32> {
    let mut out: HashMap<Key, u32> = HashMap::new();
    for part in partitions {
        for p in part {
            out.entry(p.key)
                .and_modify(|v| *v = agg.apply(*v, p.value))
                .or_insert(p.value);
        }
    }
    out
}

fn arb_pairs() -> impl Strategy<Value = Vec<Vec<Pair>>> {
    // 2..5 mappers, each with up to 40 pairs over a 12-word vocabulary
    // (small vocabulary forces heavy cross-mapper overlap and, with tiny
    // registers below, hash collisions).
    let pair = (0u8..12, 1u32..1000).prop_map(|(w, v)| {
        Pair::new(Key::from_str_key(&format!("word{w:02}")).unwrap(), v)
    });
    prop::collection::vec(prop::collection::vec(pair, 0..40), 2..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn network_aggregation_equals_host_aggregation(parts in arb_pairs()) {
        let via_net = aggregate_via_network(&parts, AggFn::Sum, 1024, false);
        let local = aggregate_locally(&parts, AggFn::Sum);
        prop_assert_eq!(via_net, local);
    }

    #[test]
    fn tiny_registers_spill_but_stay_correct(parts in arb_pairs()) {
        // 4 cells for a 12-word vocabulary: collisions guaranteed; the
        // spillover path must preserve the sums.
        let via_net = aggregate_via_network(&parts, AggFn::Sum, 4, false);
        let local = aggregate_locally(&parts, AggFn::Sum);
        prop_assert_eq!(via_net, local);
    }

    #[test]
    fn min_aggregation_is_exact_too(parts in arb_pairs()) {
        let via_net = aggregate_via_network(&parts, AggFn::Min, 64, false);
        let local = aggregate_locally(&parts, AggFn::Min);
        prop_assert_eq!(via_net, local);
    }

    #[test]
    fn hierarchical_trees_preserve_results(parts in arb_pairs()) {
        let via_net = aggregate_via_network(&parts, AggFn::Sum, 256, true);
        let local = aggregate_locally(&parts, AggFn::Sum);
        prop_assert_eq!(via_net, local);
    }
}
