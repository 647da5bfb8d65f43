//! End-to-end NACK recovery: the switch→receiver segment that PR 3 left
//! unprotected (ROADMAP's open reliability item), exercised with the
//! deterministic adversarial-link harness.
//!
//! The headline regression: dropping one switch-originated flush DATA
//! frame while its END survives used to *silently corrupt* the result —
//! the reducer saw every END it expected, reported completion, and simply
//! missed the aggregated pairs the lost frame carried. With
//! `DaietConfig::nack_recovery` the reducer notices the sequence gap,
//! NACKs the switch, and the switch replays from its SRAM-bounded
//! retransmit ring.

use daiet_repro::daiet::agg::AggFn;
use daiet_repro::daiet::controller::{AggregationMode, Controller, Deployment, JobPlacement};
use daiet_repro::daiet::loopback::LoopbackJob;
use daiet_repro::daiet::worker::ReducerHost;
use daiet_repro::daiet::{DaietConfig, DaietEngine};
use daiet_repro::dataplane::{Resources, Switch};
use daiet_repro::mapreduce::runner::{Runner, ShuffleMode};
use daiet_repro::mapreduce::wordcount::{Corpus, CorpusSpec};
use daiet_repro::netsim::topology::TopologyPlan;
use daiet_repro::netsim::{
    FaultDecision, FaultProfile, LinkScript, LinkSpec, NodeId, SimDuration, Simulator,
};
use daiet_repro::wire::daiet::{Key, Pair};

const N_MAPPERS: usize = 3;
const KEYS_PER_MAPPER: usize = 12;

/// Wires the star job this file drives — mapper `m` sends
/// `keys_per_mapper` disjoint keys `m{m}k{i}` ↦ `1 + i` to the one
/// reducer — on a simulator, from the job's node list. Returns the
/// unstarted simulator, the node ids by plan slot, and the deployment.
fn wire_star(config: DaietConfig, keys_per_mapper: usize) -> (Simulator, Vec<NodeId>, Deployment) {
    let plan = TopologyPlan::star(N_MAPPERS + 1, LinkSpec::fast());
    let placement =
        JobPlacement { mappers: (0..N_MAPPERS).collect(), reducers: vec![N_MAPPERS] };
    let controller = Controller::new(config, AggFn::Sum);
    let mode = AggregationMode::InNetwork;
    let job = LoopbackJob::deploy(controller, plan, placement, Resources::tofino_like(), mode)
        .unwrap();
    let shards = (0..N_MAPPERS)
        .map(|m| {
            let key = |i: usize| Key::from_str_key(&format!("m{m}k{i}")).unwrap();
            vec![(0..keys_per_mapper).map(|i| Pair::new(key(i), 1 + i as u32)).collect()]
        })
        .collect();
    let mut sim = Simulator::new(5);
    let specs = job.specs::<Vec<Pair>>(shards, SimDuration::from_micros(1), 1);
    let ids = job.plan().instantiate(&mut sim, specs);
    (sim, ids, job.deployment().clone())
}

struct FlushLossOutcome {
    complete: bool,
    distinct_keys: usize,
    correct: bool,
    nacks_from_reducer: u64,
    frames_replayed: u64,
}

/// Runs the flush-loss scenario: a star of three mappers with disjoint
/// key sets (36 distinct keys → a 4-DATA-frame + END flush), with the
/// first flush DATA frame on the switch→reducer link dropped by a
/// deterministic script. `recover` arms NACK recovery.
fn run_flush_loss(recover: bool) -> FlushLossOutcome {
    let config = DaietConfig {
        register_cells: 256,
        nack_recovery: recover,
        rtx_frames: 64,
        ..DaietConfig::default()
    };
    // Disjoint keys: every flushed pair is irreplaceable, so a lost
    // flush frame provably corrupts the result.
    let (mut sim, ids, dep) = wire_star(config, KEYS_PER_MAPPER);
    // Link 3 is reducer↔switch (links are made in plan order; star wires
    // hosts 0..n then the reducer last); direction 1 is switch→reducer.
    // Drop exactly the first flush DATA frame, deliver everything else —
    // including the END that makes the loss silent.
    sim.script_link(N_MAPPERS, 1, LinkScript::nth_frame(0, FaultDecision::Drop));
    sim.run();

    let r = sim.node_ref::<ReducerHost>(ids[N_MAPPERS]).unwrap();
    let sw = sim.node_ref::<Switch>(ids[N_MAPPERS + 1]).unwrap();
    let engine = sw
        .extern_ref::<DaietEngine>(dep.engine_externs[&(N_MAPPERS + 1)])
        .expect("engine registered");
    let mut correct = true;
    for slot in 0..N_MAPPERS {
        for i in 0..KEYS_PER_MAPPER {
            let k = Key::from_str_key(&format!("m{slot}k{i}")).unwrap();
            correct &= r.collector.get(&k) == Some(1 + i as u32);
        }
    }
    FlushLossOutcome {
        complete: r.collector.is_complete(),
        distinct_keys: r.collector.len(),
        correct,
        nacks_from_reducer: r.nacks_emitted(),
        frames_replayed: engine.stats().frames_replayed,
    }
}

/// The documented failure mode this PR closes: without recovery the run
/// *completes* — every END arrived — while the result silently misses the
/// pairs of the dropped flush frame. This is worse than starvation: there
/// is no signal anything went wrong.
#[test]
fn flush_loss_silently_corrupts_without_recovery() {
    let o = run_flush_loss(false);
    assert!(o.complete, "the END survived, so the reducer believes it is done");
    assert!(!o.correct, "the dropped flush frame's pairs must be missing");
    assert!(
        o.distinct_keys < N_MAPPERS * KEYS_PER_MAPPER,
        "expected missing keys, got all {}",
        o.distinct_keys
    );
    assert_eq!(o.nacks_from_reducer, 0);
}

/// Identical scenario, recovery armed: the reducer's gap tracker NACKs
/// the switch, the switch replays from its retransmit ring, and the
/// result is exact.
#[test]
fn flush_loss_is_recovered_with_nacks() {
    let o = run_flush_loss(true);
    assert!(o.complete);
    assert!(o.correct, "NACK recovery must restore the exact aggregate");
    assert_eq!(o.distinct_keys, N_MAPPERS * KEYS_PER_MAPPER);
    assert!(o.nacks_from_reducer > 0, "recovery must have gone through the NACK path");
    assert!(o.frames_replayed > 0, "the switch must have replayed from its ring");
}

/// Prompt NACKs: a **mid-round spillover** frame is dropped while the
/// stream keeps flowing, and the total emissions of the round exceed the
/// retransmit ring's depth. Recovery only works because an open gap is
/// NACKed within ~one timeout even on an active flow (fresh data beyond
/// the gap does not postpone it) — waiting for the stream to go idle
/// would find the frame already evicted. Asserts zero ring misses: the
/// replay came from the ring, not luck.
#[test]
fn mid_round_spillover_loss_is_recovered_while_stream_is_hot() {
    const KEYS_PER_MAPPER_SPILL: usize = 200;
    let config = DaietConfig {
        register_cells: 64, // 200-key mappers collide constantly → many spills
        nack_recovery: true,
        rtx_frames: 32, // < the round's total emissions, ≥ the flush demand (8)
        // The ring retains ~32/3 ≈ 11 µs of emissions at this workload's
        // ~3 frames/µs spill rate, so the NACK latency must undercut
        // that — the retention ≥ NACK-latency inequality documented in
        // docs/RELIABILITY.md. (At the 50 µs default the whole ~45 µs
        // round outruns the first NACK and recovery must miss.)
        nack_timeout_ns: 5_000,
        ..DaietConfig::default()
    };
    let (mut sim, ids, dep) = wire_star(config, KEYS_PER_MAPPER_SPILL);
    // Drop the second switch-originated frame (an early spillover flush)
    // on the switch→reducer link; everything after it is delivered.
    sim.script_link(N_MAPPERS, 1, LinkScript::nth_frame(1, FaultDecision::Drop));
    sim.run();

    let r = sim.node_ref::<ReducerHost>(ids[N_MAPPERS]).unwrap();
    let sw = sim.node_ref::<Switch>(ids[N_MAPPERS + 1]).unwrap();
    let engine = sw
        .extern_ref::<DaietEngine>(dep.engine_externs[&(N_MAPPERS + 1)])
        .expect("engine registered");
    let (_, evicted, replayed, misses, _retired) = engine.rtx_stats(dep.tree_id(0)).unwrap();
    assert!(
        evicted > 0,
        "the round must overflow the ring, or this test proves nothing"
    );
    assert!(r.nacks_emitted() > 0, "recovery must have gone through the NACK path");
    assert!(replayed > 0, "the switch must have replayed from its ring");
    assert_eq!(misses, 0, "the prompt NACK must beat the ring's eviction horizon");
    assert!(r.collector.is_complete());
    for slot in 0..N_MAPPERS {
        for i in 0..KEYS_PER_MAPPER_SPILL {
            let k = Key::from_str_key(&format!("m{slot}k{i}")).unwrap();
            assert_eq!(
                r.collector.get(&k),
                Some(1 + i as u32),
                "key m{slot}k{i} lost or double-counted"
            );
        }
    }
}

/// Multi-hop recovery: chaos (loss + duplication + reordering) on every
/// link of a leaf-spine fabric at k = 1. Covers all three segments —
/// mapper→leaf, leaf→spine/spine→leaf (switch→switch), and leaf→reducer —
/// each protected by its parent's NACKs against its sender's
/// ring/schedule.
#[test]
fn leaf_spine_chaos_on_every_link_is_exact_at_k1() {
    let spec = CorpusSpec { n_mappers: 4, n_reducers: 2, ..CorpusSpec::tiny(23) };
    let corpus = Corpus::generate(&spec);
    let runner =
        Runner::new(corpus).with_recovery(FaultProfile::chaos(0.06, 0.06, 0.06, 20_000));
    let plan = TopologyPlan::leaf_spine(3, 2, 2, runner.link);
    let out = runner.run_on(&plan, ShuffleMode::DaietAgg);
    assert!(out.frames_dropped > 0, "faults did not fire");
    assert!(out.all_correct(), "multi-hop recovery diverged at k=1");
}

/// Determinism: the adversarial harness makes fault runs replayable —
/// same seed, same script, bit-identical reducer metrics.
#[test]
fn chaos_runs_are_reproducible() {
    let run = || {
        let spec = CorpusSpec::tiny(11);
        let corpus = Corpus::generate(&spec);
        let runner =
            Runner::new(corpus).with_recovery(FaultProfile::chaos(0.1, 0.1, 0.1, 15_000));
        let out = runner.run(ShuffleMode::DaietAgg);
        (
            out.all_correct(),
            out.frames_dropped,
            out.finished_at,
            out.reducers.iter().map(|r| r.nic_frames_in).collect::<Vec<_>>(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "identical seeds must reproduce identical runs");
    assert!(a.0, "and the run must be correct");
}

/// The pinned-seed knob the CI matrix turns.
fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(23)
}

/// Recovery only ever adds work: a paced sender retransmits what it has
/// sent and sends the rest on its own ticks, so no fault draw can finish
/// the job before the loss-free run does. Fig3's default WordCount
/// (2 048 words per reducer, 2 048 cells) under 5 % drop, duplication
/// and reordering on every link, at the `CHAOS_SEED` draw and at seed 41.
#[test]
fn chaos_never_finishes_before_the_loss_free_run() {
    let runner = |faults: FaultProfile, seed: u64| {
        let spec = CorpusSpec { register_cells: 2048, ..CorpusSpec::paper_scaled(2048 * 12, 42) };
        let mut runner = Runner::new(Corpus::generate(&spec));
        runner.daiet_config.register_cells = 2048;
        let mut runner = runner.with_recovery(faults);
        runner.seed = seed;
        runner
    };
    let clean = runner(FaultProfile::NONE, 42).run(ShuffleMode::DaietAgg);
    assert!(clean.all_correct());
    let mut seeds = vec![chaos_seed(), 41];
    seeds.dedup();
    for seed in seeds {
        let chaos = FaultProfile::chaos(0.05, 0.05, 0.05, 20_000);
        let out = runner(chaos, seed).run(ShuffleMode::DaietAgg);
        assert!(out.frames_dropped > 0, "seed {seed}: faults did not fire");
        assert!(out.all_correct(), "seed {seed}: recovery diverged");
        assert!(
            out.data_done_at >= clean.data_done_at,
            "seed {seed}: chaos finished at {} ns, before the loss-free {} ns",
            out.data_done_at.as_nanos(),
            clean.data_done_at.as_nanos()
        );
    }
}
