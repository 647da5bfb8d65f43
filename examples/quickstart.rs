//! Quickstart: the smallest complete DAIET deployment.
//!
//! Three mapper hosts send word counts toward one reducer through a
//! single programmable switch; the switch runs Algorithm 1 and the
//! reducer receives one aggregated, END-terminated stream.
//!
//! Run with: `cargo run --example quickstart`

use daiet_repro::daiet::agg::AggFn;
use daiet_repro::daiet::controller::{AggregationMode, Controller, JobPlacement};
use daiet_repro::daiet::loopback::LoopbackJob;
use daiet_repro::daiet::worker::ReducerHost;
use daiet_repro::daiet::DaietConfig;
use daiet_repro::dataplane::Resources;
use daiet_repro::netsim::topology::TopologyPlan;
use daiet_repro::netsim::{LinkSpec, SimDuration, Simulator};
use daiet_repro::wire::daiet::{Key, Pair};

fn main() {
    // 1. Topology: 3 mappers + 1 reducer behind one switch.
    let plan = TopologyPlan::star(4, LinkSpec::fast());
    let placement = JobPlacement { mappers: vec![0, 1, 2], reducers: vec![3] };

    // 2. The controller computes the aggregation tree and programs the
    //    switch (flow rules + Algorithm-1 register state).
    let controller = Controller::new(DaietConfig::default(), AggFn::Sum);
    let job = LoopbackJob::deploy(
        controller,
        plan,
        placement,
        Resources::tofino_like(),
        AggregationMode::InNetwork,
    )
    .expect("deployment fits the chip");

    // 3. Hosts: each mapper contributes partial counts for shared words
    //    (one shard per mapper, for the job's one tree).
    let word = |s: &str| Key::from_str_key(s).unwrap();
    let partitions = vec![
        vec![vec![Pair::new(word("cat"), 3), Pair::new(word("dog"), 1)]],
        vec![vec![Pair::new(word("cat"), 2), Pair::new(word("fish"), 7)]],
        vec![vec![Pair::new(word("dog"), 4), Pair::new(word("cat"), 1)]],
    ];

    // The job's node list — mappers, reducer, switch, in plan-slot
    // order — runs as is on the simulator (or, via `run_cluster`, over
    // real UDP sockets).
    let mut sim = Simulator::new(1);
    let specs = job.specs(partitions, SimDuration::from_micros(1), 1);
    let ids = job.plan().instantiate(&mut sim, specs);

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
