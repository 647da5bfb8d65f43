//! Failure injection across the stack: corruption is detected by
//! checksums and dropped (never aggregated), duplication is suppressed by
//! NACK recovery's gap trackers, TCP survives everything, and the
//! prototype's known loss limitation behaves exactly as documented.

use daiet_repro::daiet::agg::AggFn;
use daiet_repro::daiet::controller::{AggregationMode, Controller, JobPlacement};
use daiet_repro::daiet::loopback::LoopbackJob;
use daiet_repro::daiet::worker::ReducerHost;
use daiet_repro::daiet::DaietConfig;
use daiet_repro::dataplane::{Resources, Switch};
use daiet_repro::netsim::topology::TopologyPlan;
use daiet_repro::netsim::{FaultProfile, LinkSpec, SimDuration, Simulator};
use daiet_repro::wire::daiet::{Key, Pair};

struct Outcome {
    complete: bool,
    total: Option<u32>,
    checksum_drops: u64,
    duplicates_suppressed: u64,
}

fn run(config: DaietConfig, faults: FaultProfile, seed: u64) -> Outcome {
    let link = LinkSpec::fast().with_faults(faults);
    let plan = TopologyPlan::star(4, link);
    let placement = JobPlacement { mappers: vec![0, 1, 2], reducers: vec![3] };
    let controller = Controller::new(config, AggFn::Sum);
    let job = LoopbackJob::deploy(
        controller,
        plan,
        placement,
        Resources::tofino_like(),
        AggregationMode::InNetwork,
    )
    .unwrap();

    // Each of the three mappers sends ("w", 5).
    let word = Key::from_str_key("w").unwrap();
    let mut sim = Simulator::new(seed);
    let specs = job.specs(vec![vec![vec![Pair::new(word, 5)]]; 3], SimDuration::from_micros(1), 1);
    let ids = job.plan().instantiate(&mut sim, specs);
    sim.run();

    let r = sim.node_ref::<ReducerHost>(ids[3]).unwrap();
    let sw = sim.node_ref::<Switch>(ids[4]).unwrap();
    let engine = sw
        .extern_ref::<daiet_repro::daiet::DaietEngine>(daiet_repro::dataplane::ExternId(0))
        .expect("engine registered");
    Outcome {
        complete: r.collector.is_complete(),
        total: r.collector.get(&word),
        checksum_drops: sw.stats().checksum_drops,
        duplicates_suppressed: engine.duplicates_suppressed(),
    }
}

#[test]
fn clean_fabric_is_exact() {
    let o = run(DaietConfig::default(), FaultProfile::NONE, 1);
    assert!(o.complete);
    assert_eq!(o.total, Some(15));
    assert_eq!(o.checksum_drops, 0);
}

#[test]
fn corruption_is_detected_never_aggregated() {
    // Heavy corruption: frames are damaged in flight; UDP checksums catch
    // them at the switch, so the aggregate contains only intact packets —
    // it may be incomplete (dropped DATA/END) but never *wrong* in the
    // sense of containing corrupted values. With seed chosen so at least
    // one frame is corrupted, the counter must show drops.
    let o = run(
        DaietConfig::default(),
        FaultProfile { corrupt: 0.5, ..FaultProfile::NONE },
        3,
    );
    assert!(o.checksum_drops > 0, "expected corrupted frames to be caught");
    if let Some(total) = o.total {
        // Any value present is a sum of genuine 5s.
        assert!(total % 5 == 0 && total <= 15, "corrupt data leaked: {total}");
    }
}

#[test]
fn duplication_breaks_the_prototype_but_not_the_extension() {
    let faults = FaultProfile { duplicate: 0.5, ..FaultProfile::NONE };
    // Prototype (paper-faithful): duplicates double-count. With seed 5
    // and 50% duplication, some duplicate survives with near certainty;
    // assert the failure mode actually shows.
    let proto = run(DaietConfig::default(), faults, 5);
    assert!(proto.complete);
    let total = proto.total.unwrap();
    assert!(total > 15, "expected over-counting, got {total}");

    // Extension: NACK recovery's reception bitmaps restore exactness.
    let fixed = run(DaietConfig { nack_recovery: true, ..DaietConfig::default() }, faults, 5);
    assert!(fixed.complete);
    assert_eq!(fixed.total, Some(15));
    assert!(fixed.duplicates_suppressed > 0);
}

#[test]
fn loss_starves_the_prototype_as_documented() {
    // 70% loss: with three senders of 2 frames each, some END almost
    // surely dies; the reducer must not complete (the paper's documented
    // limitation — no loss recovery).
    let o = run(DaietConfig::default(), FaultProfile::loss(0.7), 7);
    assert!(!o.complete, "expected starvation under heavy loss");
}

#[test]
fn tcp_baseline_survives_all_fault_kinds() {
    use daiet_repro::transport::tcp::{BulkSenderNode, SinkReceiverNode};
    let faults = FaultProfile { drop: 0.1, corrupt: 0.05, duplicate: 0.1, ..FaultProfile::NONE };
    let mut sim = Simulator::new(11);
    let data: Vec<u8> = (0..40_000).map(|i| (i % 241) as u8).collect();
    let tx = sim.add_node(Box::new(BulkSenderNode::new(1, vec![(2, 9000, data.clone())])));
    let rx = sim.add_node(Box::new(SinkReceiverNode::new(2, 9000)));
    sim.connect(tx, rx, LinkSpec::fast().with_faults(faults));
    sim.run_until(daiet_repro::netsim::SimTime(
        daiet_repro::netsim::SimDuration::from_secs(60).as_nanos(),
    ));
    let r = sim.node_ref::<SinkReceiverNode>(rx).unwrap();
    let got = r.received.values().next().cloned().unwrap_or_default();
    assert_eq!(got, data, "TCP must deliver byte-exact under faults");
}
