//! Backend equivalence: the simulator and the real-socket UDP backend
//! must produce **byte-identical** application results for the same job.
//!
//! The job tests open real kernel sockets and spawn one driver thread per
//! plan slot, so they are gated out of the default `cargo test` tier:
//! set `DAIET_LOOPBACK=1` to run them (CI's `loopback-matrix` job does).
//! The pacing parity test binds one socket and steps a manual clock on
//! this thread, so it runs in every tier.

use daiet_repro::daiet::controller::AggregationMode;
use daiet_repro::daiet::worker::PacedSenderNode;
use daiet_repro::fabric::{
    Duration, Fabric, FaultShim, Frame, FramePool, ManualClock, Node, NodeDriver, PortId, Time,
};
use daiet_repro::mapreduce::{Corpus, CorpusSpec, Runner, ShuffleMode};
use daiet_repro::netsim::{LinkSpec, Simulator};
use daiet_repro::querysim::{Aggregate, Query, QueryMode, QueryRunner, Table, TableSpec};
use std::rc::Rc;

const DEADLINE: std::time::Duration = std::time::Duration::from_secs(120);

/// True when the loopback tier is enabled; otherwise the test records a
/// visible skip and passes vacuously.
fn loopback_enabled(test: &str) -> bool {
    if std::env::var("DAIET_LOOPBACK").as_deref() == Ok("1") {
        true
    } else {
        eprintln!("{test}: skipped (set DAIET_LOOPBACK=1 to run real-socket tests)");
        false
    }
}

/// The Figure-3 WordCount shuffle, simulator vs loopback UDP, running
/// the same node list. Both backends' reducer outputs are checked by the
/// same exact comparison against the same ground truth
/// (`Corpus::expected_reduction`), so passing on both sides is
/// byte-identity between the backends.
#[test]
fn fig3_wordcount_is_byte_identical_across_backends() {
    if !loopback_enabled("fig3_wordcount_is_byte_identical_across_backends") {
        return;
    }
    let runner = Runner::new(Corpus::generate(&CorpusSpec::tiny(17)));
    let plan = runner.star_plan();

    let sim = runner.run_on(&plan, ShuffleMode::DaietAgg);
    assert_eq!(sim.frames_dropped, 0, "sim reference run must be loss-free");
    assert!(sim.all_correct(), "simulator diverged from ground truth");

    let udp = runner.run_sockets(
        &plan,
        AggregationMode::InNetwork,
        |_| FaultShim::none(),
        DEADLINE,
    );
    assert!(!udp.deadlined, "loopback run hit the deadline");
    assert!(
        runner.reports_correct(&udp.reports),
        "loopback diverged from the bytes the simulator matched"
    );
}

/// A multi-aggregate GROUP BY, simulator vs loopback UDP: the assembled
/// `QueryResult`s are compared directly (and both against the in-memory
/// reference executor).
#[test]
fn group_by_is_byte_identical_across_backends() {
    if !loopback_enabled("group_by_is_byte_identical_across_backends") {
        return;
    }
    let table = Table::generate(&TableSpec::tiny(29));
    let query = Query::new(vec![
        Aggregate::Count,
        Aggregate::Sum(0),
        Aggregate::Min(1),
        Aggregate::Max(1),
        Aggregate::Avg(2),
    ]);
    let truth = query.reference(&table);
    let runner = QueryRunner::new(table, query);

    let sim = runner.run(QueryMode::DaietAgg);
    assert!(sim.complete && sim.frames_dropped == 0);
    assert_eq!(sim.result, truth, "simulator diverged from the reference");

    let udp = runner.run_sockets(
        &runner.star_plan(),
        AggregationMode::InNetwork,
        |_| FaultShim::none(),
        DEADLINE,
    );
    assert!(!udp.run.deadlined && udp.run.reports[0].complete);
    assert_eq!(udp.result, sim.result, "backends disagree byte-for-byte");
    assert_eq!(udp.result, truth);
}

/// The regression the reliability extension exists for, over *real*
/// sockets: the switch's first egress frame — a flush frame carrying
/// in-network aggregates, sent exactly once — is scripted away at the
/// socket edge. Only reducer-driven NACK recovery can repair it, and the
/// final output must still be exact.
#[test]
fn dropped_flush_frame_is_nack_recovered_over_real_sockets() {
    if !loopback_enabled("dropped_flush_frame_is_nack_recovered_over_real_sockets") {
        return;
    }
    let mut runner = Runner::new(Corpus::generate(&CorpusSpec::tiny(23)));
    runner.daiet_config.nack_recovery = true;
    runner.daiet_config = runner.daiet_config.with_rtx_sized_for_flush();
    let plan = runner.star_plan();
    let switch_slot = plan.switches()[0];

    let udp = runner.run_sockets(
        &plan,
        AggregationMode::InNetwork,
        |slot| {
            if slot == switch_slot {
                // No probabilistic loss: exactly the scripted frame dies,
                // so the recovery path alone explains a correct result.
                FaultShim::none().with_scripted_drops([0])
            } else {
                FaultShim::none()
            }
        },
        DEADLINE,
    );
    assert!(!udp.deadlined, "recovery never converged");
    assert_eq!(udp.shim_dropped, 1, "exactly the scripted flush frame must die");
    assert!(runner.reports_correct(&udp.reports), "the dropped flush frame was not repaired");
    let nacks: u64 = udp.reports.iter().map(|r| r.nacks_emitted).sum();
    assert!(nacks > 0, "repair happened without NACKs — shim hit a retransmittable frame?");
}

/// Wraps a node and logs `now()` at every frame it sends.
struct Stamped<N> {
    inner: N,
    sends: Vec<Time>,
}

/// The fabric a [`Stamped`] node's inner node sees: the backend's own,
/// with every send logged.
struct StampFabric<'a> {
    inner: &'a mut dyn Fabric,
    sends: &'a mut Vec<Time>,
}

impl Fabric for StampFabric<'_> {
    fn now(&self) -> Time {
        self.inner.now()
    }
    fn send(&mut self, port: PortId, frame: Frame) {
        self.sends.push(self.inner.now());
        self.inner.send(port, frame);
    }
    fn schedule(&mut self, delay: Duration, token: u64) {
        self.inner.schedule(delay, token);
    }
    fn pool(&self) -> &FramePool {
        self.inner.pool()
    }
    fn port_count(&self) -> usize {
        self.inner.port_count()
    }
}

impl<N: Node> Node for Stamped<N> {
    fn on_packet(&mut self, ctx: &mut dyn Fabric, port: PortId, frame: Frame) {
        let mut ctx = StampFabric { inner: ctx, sends: &mut self.sends };
        self.inner.on_packet(&mut ctx, port, frame);
    }
    fn on_timer(&mut self, ctx: &mut dyn Fabric, token: u64) {
        let mut ctx = StampFabric { inner: ctx, sends: &mut self.sends };
        self.inner.on_timer(&mut ctx, token);
    }
    fn on_start(&mut self, ctx: &mut dyn Fabric) {
        let mut ctx = StampFabric { inner: ctx, sends: &mut self.sends };
        self.inner.on_start(&mut ctx);
    }
}

struct Sink;

impl Node for Sink {
    fn on_packet(&mut self, _ctx: &mut dyn Fabric, _port: PortId, _frame: Frame) {}
}

/// Five frames 30 µs apart: the whole schedule, including the last tick
/// that finds the queue empty, fits inside one driver poll interval.
fn parity_sender() -> Stamped<PacedSenderNode> {
    let frames = (0..5u8).map(|i| Frame::from_slice(&[i; 64])).collect();
    Stamped {
        inner: PacedSenderNode::new(frames, Duration::from_micros(30), "parity"),
        sends: Vec::new(),
    }
}

/// A paced sender transmits at the same instants on both backends: on a
/// driver whose clock jumps past the whole schedule at once, each frame
/// still goes out at the tick the simulator gives it, not at the late
/// wakeup.
#[test]
fn paced_sender_transmit_instants_match_across_backends() {
    let mut sim = Simulator::new(1);
    let sender = sim.add_node(Box::new(parity_sender()));
    let sink = sim.add_node(Box::new(Sink));
    sim.connect(sender, sink, LinkSpec::fast());
    sim.run();
    let on_sim = sim.node_ref::<Stamped<PacedSenderNode>>(sender).unwrap().sends.clone();
    assert_eq!(on_sim.len(), 5);

    let peer = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind loopback socket");
    let mut driver =
        NodeDriver::bind(Box::new(parity_sender()), "127.0.0.1:0").expect("bind loopback socket");
    driver.set_peers(vec![peer.local_addr().unwrap()]);
    let clock = Rc::new(ManualClock::new());
    driver.set_clock(Box::new(clock.clone()));
    let step = |d: &mut NodeDriver| d.run(std::time::Duration::ZERO, |_| false);
    step(&mut driver); // on_start at the epoch
    clock.set(Time(200_000));
    for _ in 0..20 {
        step(&mut driver);
    }
    let stamped = driver.node_ref::<Stamped<PacedSenderNode>>().unwrap();
    assert_eq!(stamped.inner.pending(), 0);
    assert_eq!(stamped.sends, on_sim);
    assert_eq!(driver.stats().frames_out, 5);
}
