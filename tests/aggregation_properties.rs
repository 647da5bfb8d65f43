//! Property-based integration tests of the core correctness claim:
//! **in-network aggregation must never change the application's answer**
//! (§2: "in-network computation must not affect the application
//! correctness"). For arbitrary workloads, topologies and register
//! sizes, the reducer's merged output equals a host-side aggregation of
//! the same pairs.

use daiet_repro::daiet::agg::AggFn;
use daiet_repro::daiet::controller::{AggregationMode, Controller, JobPlacement};
use daiet_repro::daiet::worker::{one_shot_sender, ReducerHost};
use daiet_repro::daiet::DaietConfig;
use daiet_repro::dataplane::Resources;
use daiet_repro::netsim::topology::{Role, TopologyPlan};
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
        (plan.clone(), hosts[..n_mappers].to_vec(), hosts[n_mappers])
    } else {
        let plan = TopologyPlan::star(n_mappers + 1, LinkSpec::fast());
        ((plan.clone()), (0..n_mappers).collect::<Vec<_>>(), n_mappers)
    };

    let placement = JobPlacement { mappers: mappers.clone(), reducers: vec![reducer] };
    let controller = Controller::new(config, agg);
    let (dep, mut switches) = controller
        .deploy(&plan, &placement, Resources::tofino_like(), AggregationMode::InNetwork)
        .expect("deployment fits");

    let sender = |slot: usize, tree: u16, pairs: Vec<Pair>| {
        let part = [(tree, dep.endpoints(slot, 0), pairs)];
        Box::new(one_shot_sender(&config, slot, part, SimDuration::from_micros(1), "sender"))
    };
    let mut sim = Simulator::new(7);
    let mut ids = Vec::new();
    for slot in 0..plan.len() {
        let id = match plan.role(slot) {
            Role::Host => {
                if let Some(m) = mappers.iter().position(|&s| s == slot) {
                    sim.add_node(sender(slot, dep.tree_id(0), partitions[m].clone()))
                } else if slot == reducer {
                    sim.add_node(Box::new(ReducerHost::new(
                        agg,
                        dep.expected_ends(0, n_mappers),
                    )))
                } else {
                    // Unused host slot: a quiet sender with no pairs that
                    // still exists so plan wiring lines up.
                    // (tree nobody routes; it sends only an END for an
                    // unknown tree).
                    sim.add_node(sender(slot, u16::MAX, Vec::new()))
                }
            }
            Role::Switch => sim.add_node(Box::new(switches.remove(&slot).unwrap())),
        };
        ids.push(id);
    }
    plan.wire(&mut sim, &ids);
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
