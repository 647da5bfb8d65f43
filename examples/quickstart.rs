//! Quickstart: the smallest complete DAIET deployment.
//!
//! Three mapper hosts send word counts toward one reducer through a
//! single programmable switch; the switch runs Algorithm 1 and the
//! reducer receives one aggregated, END-terminated stream.
//!
//! Run with: `cargo run --example quickstart`

use daiet_repro::daiet::agg::AggFn;
use daiet_repro::daiet::controller::{AggregationMode, Controller, JobPlacement};
use daiet_repro::daiet::worker::{one_shot_sender, ReducerHost};
use daiet_repro::daiet::DaietConfig;
use daiet_repro::dataplane::Resources;
use daiet_repro::netsim::topology::{Role, TopologyPlan};
use daiet_repro::netsim::{LinkSpec, SimDuration, Simulator};
use daiet_repro::wire::daiet::{Key, Pair};

fn main() {
    // 1. Topology: 3 mappers + 1 reducer behind one switch.
    let plan = TopologyPlan::star(4, LinkSpec::fast());
    let placement = JobPlacement { mappers: vec![0, 1, 2], reducers: vec![3] };

    // 2. The controller computes the aggregation tree and builds the
    //    switch (flow rules + Algorithm-1 register state).
    let config = DaietConfig::default();
    let controller = Controller::new(config, AggFn::Sum);
    let (dep, mut switches) = controller
        .deploy(&plan, &placement, Resources::tofino_like(), AggregationMode::InNetwork)
        .expect("deployment fits the chip");

    // 3. Hosts: each mapper contributes partial counts for shared words.
    let word = |s: &str| Key::from_str_key(s).unwrap();
    let partitions = [
        vec![Pair::new(word("cat"), 3), Pair::new(word("dog"), 1)],
        vec![Pair::new(word("cat"), 2), Pair::new(word("fish"), 7)],
        vec![Pair::new(word("dog"), 4), Pair::new(word("cat"), 1)],
    ];

    let mut sim = Simulator::new(1);
    let mut ids = Vec::new();
    for slot in 0..plan.len() {
        let id = match (plan.role(slot), partitions.get(slot)) {
            (Role::Host, Some(part)) => sim.add_node(Box::new(one_shot_sender(
                &config,
                slot,
                [(dep.tree_id(0), dep.endpoints(slot, 0), part.clone())],
                SimDuration::from_micros(1),
                "mapper",
            ))),
            (Role::Host, None) => sim.add_node(Box::new(ReducerHost::new(
                AggFn::Sum,
                dep.expected_ends(0, 3),
            ))),
            (Role::Switch, _) => sim.add_node(Box::new(switches.remove(&slot).unwrap())),
        };
        ids.push(id);
    }
    plan.wire(&mut sim, &ids);

    // 4. Run and read the aggregated result off the reducer.
    sim.run();
    let reducer = sim.node_ref::<ReducerHost>(ids[3]).unwrap();
    println!("reducer complete: {}", reducer.collector.is_complete());
    for (key, count) in reducer.collector.get_all().collect::<std::collections::BTreeMap<_, _>>() {
        println!("  {:<6} {}", key.display_lossy(), count);
    }
    let stats = reducer.collector.stats();
    println!(
        "network did the reduction: {} DATA packet(s), {} pairs arrived for {} distinct words",
        stats.data_packets,
        stats.pairs_received,
        reducer.collector.len(),
    );
    assert_eq!(reducer.collector.get(&word("cat")), Some(6));
    assert_eq!(reducer.collector.get(&word("dog")), Some(5));
    assert_eq!(reducer.collector.get(&word("fish")), Some(7));
}
