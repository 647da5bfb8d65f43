//! Iterative workloads on the real dataplane (ISSUE 5): multi-round
//! flows, round-scoped NACK recovery, and bit-identical results against
//! the analytic models — loss-free and under every-link chaos at k = 1.
//!
//! The chaos cases read their simulation seed from `ITER_SEED` (default
//! 11) so CI can pin a small seed matrix without recompiling.

use daiet_repro::daiet::agg::AggFn;
use daiet_repro::daiet::controller::{AggregationMode, Controller, JobPlacement};
use daiet_repro::daiet::reliability::WINDOW;
use daiet_repro::daiet::tenant::{JobRequest, JobScheduler, TenantSpec};
use daiet_repro::daiet::worker::{PacedSenderNode, Packetizer, ReducerHost};
use daiet_repro::daiet::{DaietConfig, DaietEngine};
use daiet_repro::dataplane::{Resources, Switch};
use daiet_repro::graphsim::generate::{rmat, RmatSpec};
use daiet_repro::graphsim::netrun::{run_packet, FixedPageRank, PacketPregelSpec};
use daiet_repro::graphsim::pregel::run as run_analytic;
use daiet_repro::mlsim::NetTrainSpec;
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

/// The headline mlsim acceptance: a 10-step SGD run whose gradient
/// aggregation rides the dataplane produces, step for step, the **same
/// model** as the in-memory reference — the network is computationally
/// invisible.
#[test]
fn mlsim_packet_training_is_bit_identical_to_reference() {
    let spec = NetTrainSpec { seed: iter_seed(), ..NetTrainSpec::default() };
    let reference = spec.run_reference();
    let packet = spec.run_packet().expect("loss-free run must complete");
    assert_eq!(packet.digests.len(), 10);
    assert_eq!(
        packet.digests, reference.digests,
        "per-step model divergence: the network changed the math"
    );
    assert_eq!(packet.accuracy, reference.accuracy);
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
    // In-network aggregation earns its keep: the server sees far fewer
    // frames than the workers shipped pairs (5 workers' updates overlap).
    let server_frames: u64 = packet.server_frames_per_round.iter().sum();
    assert!(
        server_frames * 5 < packet.pairs_shipped,
        "server saw {server_frames} frames for {} shipped pairs",
        packet.pairs_shipped
    );
    // Per-round frame counts are genuine deltas: no round reports the
    // cumulative run.
    let first = packet.server_frames_per_round[0];
    for &f in &packet.server_frames_per_round {
        assert!(f < first * 3, "per-round counter looks cumulative: {:?}",
            packet.server_frames_per_round);
    }
}

/// Same training run with loss + duplication + reordering on **every**
/// link at k = 1: NACK recovery alone must keep every step bit-identical.
#[test]
fn mlsim_packet_training_is_exact_under_chaos_at_k1() {
    let spec = NetTrainSpec { seed: iter_seed(), ..NetTrainSpec::default() };
    let reference = spec.run_reference();
    let stormy = NetTrainSpec { faults: chaos(), ..spec };
    let packet = stormy.run_packet().expect("recovery must carry the run");
    assert!(packet.fault_drops > 0, "faults never fired — the test proved nothing");
    assert!(packet.nacks_emitted > 0, "recovery must have gone through the NACK path");
    assert_eq!(
        packet.digests, reference.digests,
        "chaos at k=1 must be invisible behind NACK recovery"
    );
    assert_eq!(packet.accuracy, reference.accuracy);
}

/// Chaos runs are replayable: same seed, same faults, bit-identical
/// outcome — the property the CI seed matrix relies on.
#[test]
fn mlsim_chaos_runs_are_deterministic() {
    let spec = NetTrainSpec {
        steps: 3,
        seed: iter_seed(),
        faults: chaos(),
        ..NetTrainSpec::default()
    };
    let a = spec.run_packet().unwrap();
    let b = spec.run_packet().unwrap();
    assert_eq!(a.digests, b.digests);
    assert_eq!(a.fault_drops, b.fault_drops);
    assert_eq!(a.nacks_emitted, b.nacks_emitted);
    assert_eq!(a.server_frames_per_round, b.server_frames_per_round);
}

/// The graphsim acceptance: 10 PageRank supersteps (plus the initial
/// broadcast) carried by the dataplane reproduce the analytic engine's
/// final ranks AND its per-superstep message census exactly.
#[test]
fn graphsim_pagerank_packet_matches_analytic_engine() {
    let g = rmat(&RmatSpec::livejournal_like(7, 11));
    let program = FixedPageRank::default();
    let (ranks, census) = run_analytic(&program, &g, 10);
    let spec = PacketPregelSpec { seed: iter_seed(), ..PacketPregelSpec::default() };
    let packet = run_packet(&program, &g, 10, &spec).expect("loss-free run completes");
    assert_eq!(packet.states, ranks, "packet-level ranks diverged");
    assert_eq!(packet.census, census, "message census diverged");
    assert_eq!(packet.rounds, census.len() as u64, "one network round per superstep");
    assert_eq!(packet.fault_drops, 0);
    // PageRank on a power-law graph: in-network combining must be
    // substantial (many messages share destinations).
    let c0 = &packet.census[0];
    assert!(c0.distinct_destinations < c0.produced);
}

/// PageRank under every-link chaos at k = 1: the census and the ranks
/// must not move.
#[test]
fn graphsim_pagerank_packet_exact_under_chaos_at_k1() {
    let g = rmat(&RmatSpec::livejournal_like(7, 11));
    let program = FixedPageRank::default();
    let (ranks, census) = run_analytic(&program, &g, 10);
    let spec = PacketPregelSpec {
        seed: iter_seed(),
        faults: chaos(),
        ..PacketPregelSpec::default()
    };
    let packet = run_packet(&program, &g, 10, &spec).expect("recovery must carry the run");
    assert!(packet.fault_drops > 0, "faults never fired — the test proved nothing");
    assert!(packet.nacks_emitted > 0, "recovery must have gone through the NACK path");
    assert_eq!(packet.states, ranks);
    assert_eq!(packet.census, census);
}

/// The MIN combiner rides the same driver: WCC over the dataplane equals
/// the analytic engine, labels and census both. (Also exercises early
/// termination — WCC converges and the round count must match.)
#[test]
fn graphsim_wcc_packet_matches_analytic_engine() {
    use daiet_repro::graphsim::algos::Wcc;
    let g = rmat(&RmatSpec::livejournal_like(6, 5)).undirected();
    let (labels, census) = run_analytic(&Wcc, &g, 20);
    let spec = PacketPregelSpec {
        agg: AggFn::Min,
        seed: iter_seed(),
        ..PacketPregelSpec::default()
    };
    let packet = run_packet(&Wcc, &g, 20, &spec).expect("loss-free run completes");
    assert_eq!(packet.states, labels);
    assert_eq!(packet.census, census);
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
