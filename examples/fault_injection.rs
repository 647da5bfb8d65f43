//! Fault injection: what happens to in-network aggregation on a lossy or
//! duplicating fabric — and how the reliability extension (sequence
//! numbers + NACK recovery, whose reception bitmaps also drop
//! duplicates) restores exactness under both.
//!
//! The paper's prototype explicitly leaves packet loss to future work;
//! this example demonstrates both the failure mode and the extension.
//!
//! Run with: `cargo run --release --example fault_injection`

use daiet_repro::daiet::agg::AggFn;
use daiet_repro::daiet::controller::{AggregationMode, Controller, JobPlacement};
use daiet_repro::daiet::loopback::LoopbackJob;
use daiet_repro::daiet::worker::ReducerHost;
use daiet_repro::daiet::DaietConfig;
use daiet_repro::dataplane::Resources;
use daiet_repro::netsim::topology::TopologyPlan;
use daiet_repro::netsim::{FaultProfile, LinkSpec, SimDuration, Simulator};
use daiet_repro::wire::daiet::{Key, Pair};

fn run(config: DaietConfig, faults: FaultProfile) -> (bool, Option<u32>) {
    let link = LinkSpec::fast().with_faults(faults);
    let plan = TopologyPlan::star(4, link);
    let placement = JobPlacement { mappers: vec![0, 1, 2], reducers: vec![3] };
    let job = LoopbackJob::deploy(
        Controller::new(config, AggFn::Sum),
        plan,
        placement,
        Resources::tofino_like(),
        AggregationMode::InNetwork,
    )
    .unwrap();

    // Each of the three mappers sends ("total", 10) to the one tree.
    let word = Key::from_str_key("total").unwrap();
    let shards = vec![vec![vec![Pair::new(word, 10)]]; 3];
    let mut sim = Simulator::new(99);
    let specs = job.specs(shards, SimDuration::from_micros(1), 1);
    let ids = job.plan().instantiate(&mut sim, specs);
    sim.run();
    let r = sim.node_ref::<ReducerHost>(ids[3]).unwrap();
    (r.collector.is_complete(), r.collector.get(&word))
}

fn main() {
    let base = DaietConfig::default();
    let reliable = DaietConfig { nack_recovery: true, ..base };

    println!("expected: total = 30 (3 mappers x 10)\n");

    let (done, v) = run(base, FaultProfile::NONE);
    println!("clean fabric,        prototype:  complete={done}, total={v:?}");

    let (done, v) = run(base, FaultProfile { duplicate: 0.3, ..FaultProfile::NONE });
    println!("30% duplication,     prototype:  complete={done}, total={v:?}   <- DOUBLE COUNTED");

    let (done, v) = run(reliable, FaultProfile { duplicate: 0.3, ..FaultProfile::NONE });
    println!("30% duplication,     + recovery: complete={done}, total={v:?}   <- exact again");

    let (done, v) = run(base, FaultProfile::loss(0.4));
    println!("40% loss,            prototype:  complete={done}, total={v:?}   <- data missing / stuck");

    let (done, v) = run(reliable, FaultProfile::loss(0.4));
    println!("40% loss,            + recovery: complete={done}, total={v:?}   <- exact again");
}
