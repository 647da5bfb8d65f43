//! Cross-crate integration: full WordCount shuffles over the simulator in
//! all three modes, on single- and multi-switch topologies, asserting
//! both correctness (outputs equal ground truth) and the ordering
//! relations Figure 3 depends on.

use daiet_repro::mapreduce::runner::{Fig3Summary, Runner, ShuffleMode};
use daiet_repro::mapreduce::wordcount::{Corpus, CorpusSpec};
use daiet_repro::netsim::topology::TopologyPlan;
use daiet_repro::netsim::FaultProfile;

fn small_corpus(seed: u64) -> Corpus {
    Corpus::generate(&CorpusSpec {
        n_mappers: 8,
        n_reducers: 4,
        distinct_words: 400,
        mean_multiplicity: 5.0,
        sd_multiplicity: 1.0,
        min_len: 4,
        max_len: 12,
        register_cells: 512,
        seed,
    })
}

#[test]
fn all_three_modes_compute_identical_results() {
    let corpus = small_corpus(1);
    let truth: Vec<Vec<(String, u32)>> =
        (0..4).map(|r| corpus.expected_reduction(r).to_vec()).collect();
    let mut runner = Runner::new(corpus);
    runner.daiet_config.register_cells = 512;

    for mode in [ShuffleMode::TcpBaseline, ShuffleMode::UdpNoAgg, ShuffleMode::DaietAgg] {
        let out = runner.run(mode);
        assert!(out.all_correct(), "{mode:?} diverged from ground truth");
        assert_eq!(out.frames_dropped, 0, "{mode:?} lost frames");
        // Re-assert against the independently computed truth (not just
        // the runner's own flag).
        for (r, t) in truth.iter().enumerate() {
            assert_eq!(out.reducers[r].distinct_keys, t.len(), "{mode:?} reducer {r}");
        }
    }
}

#[test]
fn aggregation_strictly_dominates_the_baselines() {
    let corpus = small_corpus(2);
    let mut runner = Runner::new(corpus);
    runner.daiet_config.register_cells = 512;
    let tcp = runner.run(ShuffleMode::TcpBaseline);
    let udp = runner.run(ShuffleMode::UdpNoAgg);
    let daiet = runner.run(ShuffleMode::DaietAgg);

    for r in 0..4 {
        // DAIET delivers fewer records than the UDP baseline (which sees
        // every partial count) and fewer application bytes than TCP.
        assert!(daiet.reducers[r].records < udp.reducers[r].records);
        assert!(daiet.reducers[r].app_bytes < tcp.reducers[r].app_bytes);
        assert!(daiet.reducers[r].nic_frames_observed < udp.reducers[r].nic_frames_observed);
        assert!(daiet.reducers[r].reduce_time_ns < tcp.reducers[r].reduce_time_ns);
    }

    let fig = Fig3Summary::from_runs(&tcp, &udp, &daiet);
    // Mean multiplicity 5 → pair-level reduction ≈ 1 − 1/5 = 80 %.
    assert!(
        (60.0..95.0).contains(&fig.packets_vs_udp.median),
        "packets vs UDP median {:?}",
        fig.packets_vs_udp
    );
    assert!(fig.data_volume.median > 50.0);
}

#[test]
fn multi_switch_fabric_reproduces_the_same_results() {
    // 4 mappers + 2 reducers across two leaves and two spines: the
    // aggregation tree spans three switches (Figure 2's scenario).
    let corpus = Corpus::generate(&CorpusSpec {
        n_mappers: 4,
        n_reducers: 2,
        distinct_words: 200,
        mean_multiplicity: 3.0,
        sd_multiplicity: 0.5,
        min_len: 4,
        max_len: 12,
        register_cells: 512,
        seed: 3,
    });
    let mut runner = Runner::new(corpus);
    runner.daiet_config.register_cells = 512;
    let plan = TopologyPlan::leaf_spine(3, 2, 2, runner.link);

    let star = runner.run(ShuffleMode::DaietAgg);
    let fabric = runner.run_on(&plan, ShuffleMode::DaietAgg);
    assert!(star.all_correct());
    assert!(fabric.all_correct());
    // Hierarchical aggregation must deliver the same distinct keys.
    for r in 0..2 {
        assert_eq!(star.reducers[r].distinct_keys, fabric.reducers[r].distinct_keys);
    }
}

#[test]
fn deterministic_across_identical_runs() {
    let corpus = small_corpus(4);
    let mut runner = Runner::new(corpus);
    runner.daiet_config.register_cells = 512;
    let a = runner.run(ShuffleMode::DaietAgg);
    let b = runner.run(ShuffleMode::DaietAgg);
    for (x, y) in a.reducers.iter().zip(&b.reducers) {
        assert_eq!(x.app_bytes, y.app_bytes);
        assert_eq!(x.nic_frames_observed, y.nic_frames_observed);
        assert_eq!(x.records, y.records);
    }
    assert_eq!(a.finished_at, b.finished_at);
}

/// Replay-a-chaos-seed pin: fig3 `DaietAgg` with drop, duplicate and
/// reorder on every link and NACK recovery carrying the run. The same
/// seed replays every fault draw, retransmission and timer identically;
/// another seed draws different faults.
#[test]
fn chaos_run_replays_bit_identically_at_the_same_seed() {
    let chaos = FaultProfile::chaos(0.06, 0.06, 0.06, 20_000);
    let run = |seed: u64| {
        let corpus = Corpus::generate(&CorpusSpec {
            n_mappers: 6,
            n_reducers: 3,
            register_cells: 256,
            ..CorpusSpec::paper_scaled(3 * 64, 7)
        });
        let mut runner = Runner::new(corpus).with_recovery(chaos);
        runner.daiet_config.register_cells = 256;
        runner.seed = seed;
        runner.run(ShuffleMode::DaietAgg)
    };
    let first = run(42);
    assert!(first.all_correct(), "recovery must carry the chaos run");
    assert!(first.frames_dropped > 0, "chaos should actually bite");
    let replay = run(42);
    assert_eq!(first.finished_at, replay.finished_at);
    assert_eq!(first.frames_dropped, replay.frames_dropped);
    assert_eq!(format!("{:?}", first.reducers), format!("{:?}", replay.reducers));
    let other = run(43);
    assert!(
        other.frames_dropped != first.frames_dropped || other.finished_at != first.finished_at,
        "a different seed must draw different faults"
    );
}

/// Golden outcomes of the one-shot runners in all three modes, pinned at
/// the values these runs have always produced: how a runner brings its
/// job up must leave every simulated number bit-identical. Times are in ns.
#[test]
fn one_shot_runners_reproduce_their_golden_outcomes() {
    use daiet_repro::querysim::prelude::*;
    let modes = [ShuffleMode::TcpBaseline, ShuffleMode::UdpNoAgg, ShuffleMode::DaietAgg];

    // WordCount on the star, then on a leaf-spine plan with one idle host:
    // (finished_at, data_done_at, Σ app_bytes, Σ nic_frames_in, Σ records).
    let star = Runner::new(Corpus::generate(&CorpusSpec::tiny(3)));
    let spec = CorpusSpec { n_mappers: 3, n_reducers: 2, ..CorpusSpec::tiny(4) };
    let spare = Runner::new(Corpus::generate(&spec));
    for (runner, plan, golden) in [
        (&star, star.star_plan(), [
            [1_206_918, 7_722, 1_733, 40, 156],
            [18_084, 18_084, 3_400, 28, 156],
            [18_748, 18_748, 1_290, 9, 60],
        ]),
        (&spare, TopologyPlan::leaf_spine(3, 2, 2, spare.link), [
            [1_214_517, 15_367, 1_755, 30, 148],
            [20_210, 20_210, 3_190, 23, 148],
            [22_400, 22_400, 1_290, 9, 60],
        ]),
    ] {
        for (mode, want) in modes.into_iter().zip(golden) {
            let out = runner.run_on(&plan, mode);
            assert!(out.all_correct() && out.frames_dropped == 0, "{mode:?}");
            let sum = |f: fn(&_) -> u64| out.reducers.iter().map(f).sum::<u64>();
            let got = [
                out.finished_at.as_nanos(),
                out.data_done_at.as_nanos(),
                sum(|r| r.app_bytes),
                sum(|r| r.nic_frames_in),
                sum(|r| r.records as u64),
            ];
            assert_eq!(got, want, "{mode:?}");
        }
    }

    // GROUP BY with every aggregate: (completed_at, finished_at,
    // coord_app_bytes, coord NIC frames_in and bytes_in, records_received).
    let aggs = vec![
        Aggregate::Count,
        Aggregate::Sum(0),
        Aggregate::Min(1),
        Aggregate::Max(1),
        Aggregate::Avg(2),
    ];
    let runner = QueryRunner::new(Table::generate(&TableSpec::tiny(7)), Query::new(aggs));
    for (mode, want) in [
        (QueryMode::TcpBaseline, [8_424, 1_207_000, 1_800, 20, 2_880, 200]),
        (QueryMode::UdpNoAgg, [32_084, 32_084, 4_450, 45, 6_340, 200]),
        (QueryMode::DaietAgg, [32_360, 32_360, 1_350, 15, 1_980, 60]),
    ] {
        let out = runner.run(mode);
        assert!(out.complete && out.frames_dropped == 0, "{mode:?}");
        let got = [
            out.completed_at.expect("complete runs record their instant").as_nanos(),
            out.finished_at.as_nanos(),
            out.coord_app_bytes,
            out.coord_nic.frames_in,
            out.coord_nic.bytes_in,
            out.records_received,
        ];
        assert_eq!(got, want, "{mode:?}");
    }
}
