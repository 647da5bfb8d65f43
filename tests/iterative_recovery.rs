//! Iterative workloads on the real dataplane: multi-round flows,
//! round-scoped NACK recovery, and bit-identical results against the
//! analytic models — loss-free and under every-link chaos at k = 1.
//!
//! SGD and Pregel run as one-tenant jobs under the scheduler's own driver
//! (`run_solo`) on the leaf-spine fabric [`fabric`] builds; the
//! workloads' `verify` replays their host-side references, and the tests
//! read the workloads back afterwards.
//!
//! The chaos cases read their simulation seed from `ITER_SEED` (default
//! 11) so CI can pin a small seed matrix without recompiling.

use daiet_repro::daiet::agg::AggFn;
use daiet_repro::daiet::controller::{AggregationMode, Controller, JobPlacement};
use daiet_repro::daiet::reliability::WINDOW;
use daiet_repro::daiet::tenant::{
    run_solo, JobOutcome, JobRequest, JobScheduler, MixOptions, TenantSpec, TenantWorkload,
};
use daiet_repro::daiet::worker::{PacedSenderNode, Packetizer, ReducerHost};
use daiet_repro::daiet::{DaietConfig, DaietEngine};
use daiet_repro::dataplane::{Resources, Switch};
use daiet_repro::graphsim::generate::{rmat, RmatSpec};
use daiet_repro::graphsim::pregel::run as run_analytic;
use daiet_repro::graphsim::{FixedPageRank, PregelTenant};
use daiet_repro::mlsim::data::{DataSpec, Dataset};
use daiet_repro::mlsim::netrun::{quantize_grad, reference_sums};
use daiet_repro::mlsim::optimizer::Sgd;
use daiet_repro::mlsim::psworker::PsCluster;
use daiet_repro::mlsim::SgdTenant;
use daiet_repro::netsim::topology::{Role, TopologyPlan};
use daiet_repro::netsim::{
    FaultDecision, FaultProfile, LinkScript, LinkSpec, SimDuration, Simulator,
};
use daiet_repro::wire::daiet::{Key, Pair};

/// The pinned-seed knob the CI matrix turns (two seeds, see
/// `.github/workflows/ci.yml`).
fn iter_seed() -> u64 {
    std::env::var("ITER_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(11)
}

fn chaos() -> FaultProfile {
    FaultProfile::chaos(0.05, 0.05, 0.05, 20_000)
}

/// A one-job fabric for `workers` senders and one reducer (plan slot
/// `workers`): leaves of 3 hosts, at least 2 of them, under 2 spines;
/// `faults` on every link, NACK recovery armed.
fn fabric(workers: usize, faults: FaultProfile) -> JobScheduler {
    let leaves = (workers + 1).div_ceil(3).max(2);
    let link = LinkSpec::fast().with_queue_bytes(4 * 1024 * 1024).with_faults(faults);
    let plan = TopologyPlan::leaf_spine(3, leaves, 2, link);
    let config =
        DaietConfig { register_cells: 8192, nack_recovery: true, ..DaietConfig::default() }
            .with_rtx_sized_for_flush();
    let mut spec = TenantSpec::new(config, plan, (0..workers).collect(), vec![workers]);
    spec.seed = iter_seed();
    JobScheduler::build(spec).expect("the fabric builds")
}

/// What a packet run left on the fabric besides its workload's state:
/// fault drops, the reducer's NACKs and the frames delivered to it, all
/// over the whole run.
struct Packet {
    outcome: JobOutcome,
    fault_drops: u64,
    nacks_emitted: u64,
    reducer_frames: u64,
}

/// Runs `wl` alone on a fresh [`fabric`] through the scheduler's driver,
/// which verifies it before it departs.
fn run_packet(wl: &mut dyn TenantWorkload, faults: FaultProfile) -> Packet {
    let workers = wl.senders();
    let mut sched = fabric(workers, faults);
    let outcome =
        run_solo(&mut sched, Box::new(wl), &MixOptions::default()).expect("the run completes");
    let reducer = sched.node_id(workers);
    let snapshot = sched.sim().snapshot();
    Packet {
        outcome,
        fault_drops: snapshot.fault_drops(),
        nacks_emitted: sched
            .sim()
            .node_ref::<ReducerHost>(reducer)
            .expect("the reducer slot holds a ReducerHost")
            .nacks_emitted(),
        reducer_frames: snapshot.nodes[reducer.0].frames_in,
    }
}

fn sgd_data() -> DataSpec {
    DataSpec { n: 300, ..DataSpec::default() }
}

/// The paper's training shape: 5 workers, batch 3, lr 0.1, 300 samples.
fn sgd(steps: u64) -> SgdTenant {
    SgdTenant::new(5, 3, steps, 0.1, sgd_data())
}

/// Pairs the workers of [`sgd`] ship over `steps` steps, counted on the
/// in-memory reference (the same gradients a bit-identical run ships).
fn sgd_pairs_shipped(steps: u64) -> u64 {
    let data = Dataset::generate(&sgd_data());
    let mut cluster = PsCluster::new(5, 3, Sgd::new(0.1));
    (0..steps)
        .map(|_| {
            let updates = cluster.compute_updates(&data);
            cluster.apply_sums(&reference_sums(&updates));
            updates.iter().map(|u| quantize_grad(&u.grad).len() as u64).sum::<u64>()
        })
        .sum()
}

/// The headline mlsim acceptance: a 10-step SGD run whose gradient
/// aggregation rides the dataplane produces, step for step, the **same
/// model** as the in-memory reference — the network is computationally
/// invisible. (`SgdTenant::verify`, which the driver runs, compares every
/// per-step model digest with the reference's.)
#[test]
fn mlsim_packet_training_is_bit_identical_to_reference() {
    let mut job = sgd(10);
    let packet = run_packet(&mut job, FaultProfile::NONE);
    job.verify().expect("per-step model divergence: the network changed the math");
    assert_eq!(packet.outcome.rounds, 10);
    assert_eq!(job.step_digests().len(), 10);
    assert_eq!(job.accuracy(), 296.0 / 300.0, "the reference's accuracy, pinned in mlsim");
    assert_eq!(packet.fault_drops, 0);
    // Clean links: no frame is ever replayed. (A handful of *probe*
    // NACKs is by-design — rostered flows idle past the timeout are
    // chased, and the very first flush takes longer than one timeout to
    // assemble — but they must find nothing to recover.)
    assert!(
        packet.nacks_emitted <= 2,
        "loss-free run NACKed {} times",
        packet.nacks_emitted
    );
    // In-network aggregation earns its keep: the server sees well under
    // the frames that forwarding alone must deliver — every shipped pair
    // in full frames — since the 5 workers' updates overlap. (A bound
    // against shipped *pairs* cannot tell the two apart: forwarding
    // packs 10 pairs a frame and passes any bound looser than that.)
    let shipped = sgd_pairs_shipped(10);
    let forwarded = shipped.div_ceil(DaietConfig::default().pairs_per_packet as u64);
    assert!(
        packet.reducer_frames * 3 < forwarded * 2,
        "server saw {} frames for {shipped} shipped pairs; forwarding delivers at least {forwarded}",
        packet.reducer_frames
    );
}

/// Same training run with loss + duplication + reordering on **every**
/// link at k = 1: NACK recovery alone must keep every step bit-identical.
#[test]
fn mlsim_packet_training_is_exact_under_chaos_at_k1() {
    let mut job = sgd(10);
    let packet = run_packet(&mut job, chaos());
    assert!(packet.fault_drops > 0, "faults never fired — the test proved nothing");
    assert!(packet.nacks_emitted > 0, "recovery must have gone through the NACK path");
    job.verify().expect("chaos at k=1 must be invisible behind NACK recovery");
    assert_eq!(job.step_digests().len(), 10);
    assert_eq!(job.accuracy(), 296.0 / 300.0);
}

/// Chaos runs are replayable: same seed, same faults, bit-identical
/// outcome — the property the CI seed matrix relies on.
#[test]
fn mlsim_chaos_runs_are_deterministic() {
    let (mut a, mut b) = (sgd(3), sgd(3));
    let pa = run_packet(&mut a, chaos());
    let pb = run_packet(&mut b, chaos());
    assert_eq!(a.step_digests(), b.step_digests());
    assert_eq!(pa.outcome.digest, pb.outcome.digest);
    assert_eq!(pa.fault_drops, pb.fault_drops);
    assert_eq!(pa.nacks_emitted, pb.nacks_emitted);
    assert_eq!(pa.reducer_frames, pb.reducer_frames);
    assert_eq!(pa.outcome.finished_at, pb.outcome.finished_at);
}

/// The graphsim acceptance: 10 PageRank supersteps (plus the initial
/// broadcast) carried by the dataplane reproduce the analytic engine's
/// final ranks AND its per-superstep message census exactly.
#[test]
fn graphsim_pagerank_packet_matches_analytic_engine() {
    let g = rmat(&RmatSpec::livejournal_like(7, 11));
    let (ranks, census) = run_analytic(&FixedPageRank::default(), &g, 10);
    let mut job = PregelTenant::new(FixedPageRank::default(), g, 4, AggFn::Sum, 10);
    let packet = run_packet(&mut job, FaultProfile::NONE);
    assert_eq!(job.states(), ranks.as_slice(), "packet-level ranks diverged");
    assert_eq!(job.census(), census.as_slice(), "message census diverged");
    assert_eq!(packet.outcome.rounds, census.len() as u64, "one network round per superstep");
    assert_eq!(packet.fault_drops, 0);
    // PageRank on a power-law graph: in-network combining must be
    // substantial (many messages share destinations).
    let c0 = &job.census()[0];
    assert!(c0.distinct_destinations < c0.produced);
}

/// PageRank under every-link chaos at k = 1: the census and the ranks
/// must not move.
#[test]
fn graphsim_pagerank_packet_exact_under_chaos_at_k1() {
    let g = rmat(&RmatSpec::livejournal_like(7, 11));
    let (ranks, census) = run_analytic(&FixedPageRank::default(), &g, 10);
    let mut job = PregelTenant::new(FixedPageRank::default(), g, 4, AggFn::Sum, 10);
    let packet = run_packet(&mut job, chaos());
    assert!(packet.fault_drops > 0, "faults never fired — the test proved nothing");
    assert!(packet.nacks_emitted > 0, "recovery must have gone through the NACK path");
    assert_eq!(job.states(), ranks.as_slice());
    assert_eq!(job.census(), census.as_slice());
}

/// The MIN combiner rides the same driver: WCC over the dataplane equals
/// the analytic engine, labels and census both. (Also exercises early
/// termination — WCC converges and the round count must match.)
#[test]
fn graphsim_wcc_packet_matches_analytic_engine() {
    use daiet_repro::graphsim::algos::Wcc;
    let g = rmat(&RmatSpec::livejournal_like(6, 5)).undirected();
    let (labels, census) = run_analytic(&Wcc, &g, 20);
    let mut job = PregelTenant::new(Wcc, g, 4, AggFn::Min, 20);
    let packet = run_packet(&mut job, FaultProfile::NONE);
    assert_eq!(job.states(), labels.as_slice());
    assert_eq!(job.census(), census.as_slice());
    assert_eq!(packet.outcome.rounds, census.len() as u64);
}

/// Cross-round recovery, the tentpole's sharpest edge: a round-`r` flush
/// DATA frame is dropped on the switch→reducer link while the sender
/// streams straight into round `r+1` (continuous schedule, no barrier).
/// The reducer's NACK for the round-`r` gap necessarily fires *after*
/// round-`r+1` traffic has begun arriving (the stream is continuous and
/// the NACK waits out its timeout), and the switch's ring must still
/// hold the dead round's frame — retention spans the round boundary.
#[test]
fn lost_round_flush_is_nacked_after_next_round_traffic_started() {
    const KEYS_PER_ROUND: usize = 30;
    let config = DaietConfig {
        register_cells: 256,
        nack_recovery: true,
        rtx_frames: 64,
        nack_timeout_ns: 20_000,
        ..DaietConfig::default()
    };
    let plan = TopologyPlan::star(2, LinkSpec::fast());
    let placement = JobPlacement { mappers: vec![0], reducers: vec![1] };
    let controller = Controller::new(config, AggFn::Sum);
    let (dep, mut switches) = controller
        .deploy(&plan, &placement, Resources::tofino_like(), AggregationMode::InNetwork)
        .unwrap();

    // Two rounds of disjoint keys in ONE continuous paced schedule; the
    // second round's sequence numbers continue the first's.
    let pool = daiet_repro::netsim::FramePool::new();
    let packetizer = Packetizer::new(&config);
    let tree = dep.tree_id(0);
    let ep = dep.endpoints(0, 0);
    let round_pairs = |round: usize| -> Vec<Pair> {
        (0..KEYS_PER_ROUND)
            .map(|i| {
                Pair::new(
                    Key::from_str_key(&format!("r{round}k{i}")).unwrap(),
                    1 + (round * KEYS_PER_ROUND + i) as u32,
                )
            })
            .collect()
    };
    let (mut frames, next) = packetizer.frames_from_seq(
        tree,
        &round_pairs(0),
        &ep,
        daiet_repro::wire::udp::DAIET_PORT,
        0,
        &pool,
    );
    let (round2, _) = packetizer.frames_from_seq(
        tree,
        &round_pairs(1),
        &ep,
        daiet_repro::wire::udp::DAIET_PORT,
        next,
        &pool,
    );
    frames.extend(round2);

    let mut sim = Simulator::new(iter_seed());
    let mut ids = Vec::new();
    for slot in 0..plan.len() {
        let id = match plan.role(slot) {
            Role::Host if slot == 0 => sim.add_node(Box::new(PacedSenderNode::new(
                frames.clone(),
                SimDuration::from_micros(1),
                "two-round-sender",
            ))),
            Role::Host => {
                let sources = dep
                    .reducer_sources(0, &placement.mappers)
                    .into_iter()
                    .map(|src| (tree, src));
                sim.add_node(Box::new(
                    // Two rounds → two switch ENDs before completion.
                    ReducerHost::new(AggFn::Sum, 2).with_nack_recovery(
                        slot as u32,
                        &config,
                        sources,
                    ),
                ))
            }
            Role::Switch => sim.add_node(Box::new(switches.remove(&slot).unwrap())),
        };
        ids.push(id);
    }
    plan.wire(&mut sim, &ids);
    // Drop the first switch-originated frame: round 0's first flush DATA.
    // Its END survives (the silent-corruption shape), and the sender's
    // round-1 frames keep streaming — by the time the 20 µs NACK timeout
    // expires, round 1's flush has already reached the reducer.
    sim.script_link(1, 1, LinkScript::nth_frame(0, FaultDecision::Drop));
    sim.run();

    let r = sim.node_ref::<ReducerHost>(ids[1]).unwrap();
    let sw = sim.node_ref::<Switch>(ids[2]).unwrap();
    let engine = sw.extern_ref::<DaietEngine>(dep.engine_externs[&2]).unwrap();
    assert_eq!(engine.stats().flushes, 2, "two rounds, two flushes");
    assert!(r.nacks_emitted() > 0, "the gap must have been NACKed");
    let (_, _, replayed, misses, _) = engine.rtx_stats(tree).unwrap();
    assert!(replayed > 0, "the ring must have served the dead round's frame");
    assert_eq!(misses, 0, "cross-round retention must span the boundary");
    assert!(r.collector.is_complete());
    assert!(r.recovery_satisfied());
    for round in 0..2 {
        for i in 0..KEYS_PER_ROUND {
            let k = Key::from_str_key(&format!("r{round}k{i}")).unwrap();
            assert_eq!(
                r.collector.get(&k),
                Some(1 + (round * KEYS_PER_ROUND + i) as u32),
                "key r{round}k{i} lost or double-counted"
            );
        }
    }
}

/// Hundreds of rounds on one simulation: per-round retirement keeps host
/// replay retention empty at every barrier, the pacing queue drained, and
/// the switch ring bounded — while the sequence space sails past the
/// receive-window size (the regime where stale state would bite).
#[test]
fn long_iterative_run_stays_bounded_and_exact() {
    const ROUNDS: u32 = 600; // × 2 seqs/round ≫ WINDOW
    let config = DaietConfig {
        register_cells: 64,
        nack_recovery: true,
        // Deliberately deeper than the receive WINDOW: eviction alone
        // would never clean this ring, so dead rounds survive in it
        // exactly until end-of-round retirement reaps them — the
        // behavior under test.
        rtx_frames: 2048,
        ..DaietConfig::default()
    };
    // star(2): sender 0, reducer 1, switch 2.
    let plan = TopologyPlan::star(2, LinkSpec::fast());
    let mut sched = JobScheduler::build(TenantSpec::new(config, plan, vec![0], vec![1])).unwrap();
    let job = sched
        .admit(JobRequest { label: "long".into(), senders: 1, aggs: vec![AggFn::Sum] })
        .unwrap();
    let k = Key::from_str_key("x").unwrap();
    for round in 0..ROUNDS {
        let out = sched
            .run_round(job, &[vec![vec![Pair::new(k, round + 1)]]])
            .expect("loss-free round");
        assert_eq!(out[0], vec![(k, round + 1)], "round {round} drifted");
        let sender = sched.sim().node_ref::<PacedSenderNode>(sched.node_id(0)).unwrap();
        assert_eq!(sender.pending(), 0);
        assert_eq!(sender.replay_retained(), 0, "retention leaked");
    }
    // The switch ring was retired along the way, not grown forever.
    let tree = sched.job_trees(job).unwrap()[0].tree_id;
    let (held, _, _, _, retired) = sched.engine(2).rtx_stats(tree).unwrap();
    assert!(retired > 0, "dead rounds must have been retired from the ring");
    assert!(held <= WINDOW as usize, "ring pins {held} frames");
    // And nothing ever read as a duplicate: sequence spaces stayed sound
    // across 600 reopenings of the same flow.
    let reducer = sched.sim().node_ref::<ReducerHost>(sched.node_id(1)).unwrap();
    assert_eq!(reducer.duplicates_suppressed(), 0);
}
