//! Iterative workloads on the real dataplane (ISSUE 5): what round-scoped
//! NACK recovery costs when nothing is lost, and what it carries under
//! chaos — on the paper's flagship iterative traffic (fig-1 workloads run
//! packet-level, one DAIET round per step/superstep).
//!
//! Three configurations per workload:
//!
//! * `prototype` — the paper-faithful path: no reliability state at all;
//! * `recovery_off_path` — full round-scoped recovery (gap trackers,
//!   retransmit rings with end-of-round retirement, host replay
//!   retention, NACK timers) on clean links;
//! * `recovery_chaos` — loss + duplication + reordering on every link,
//!   each frame sent once, recovery carrying the run to bit-exactness.
//!
//! The loss-free recovery overhead vs `prototype` is printed directly as
//! a **median over interleaved rounds** (A, B, A, B, …), so machine
//! drift hits both configurations equally; `BENCH_JSON_DIR` records per-sample JSON
//! including `rounds_per_iter`/`per_round_samples` (one benchmark
//! iteration runs a whole multi-round job).

use criterion::{criterion_group, criterion_main, Criterion};
use daiet_bench::interleaved_medians;
use daiet_graphsim::generate::{rmat, RmatSpec};
use daiet_graphsim::netrun::{run_packet, FixedPageRank, PacketPregelSpec};
use daiet_mlsim::NetTrainSpec;
use daiet_netsim::FaultProfile;
use std::hint::black_box;

const SGD_STEPS: usize = 10;
const PR_ITERS: usize = 10;

fn chaos() -> FaultProfile {
    FaultProfile::chaos(0.05, 0.05, 0.05, 20_000)
}

#[derive(Clone, Copy)]
enum Rig {
    Prototype,
    Recovery { faulty: bool },
}

fn sgd_spec(rig: Rig) -> NetTrainSpec {
    let mut spec = NetTrainSpec { steps: SGD_STEPS, seed: 42, ..NetTrainSpec::default() };
    match rig {
        Rig::Prototype => spec.recovery = false,
        Rig::Recovery { faulty } => {
            spec.recovery = true;
            if faulty {
                spec.faults = chaos();
            }
        }
    }
    spec
}

fn pagerank_spec(rig: Rig) -> PacketPregelSpec {
    let mut spec = PacketPregelSpec { seed: 42, ..PacketPregelSpec::default() };
    match rig {
        Rig::Prototype => spec.recovery = false,
        Rig::Recovery { faulty } => {
            spec.recovery = true;
            if faulty {
                spec.faults = chaos();
            }
        }
    }
    spec
}

fn bench_iter(c: &mut Criterion) {
    let rigs = [
        ("prototype", Rig::Prototype),
        ("recovery_off_path", Rig::Recovery { faulty: false }),
        ("recovery_chaos", Rig::Recovery { faulty: true }),
    ];

    let mut group = c.benchmark_group("fig_iter");
    group.sample_size(10);
    group.rounds_per_iter(SGD_STEPS as u64);
    for (name, rig) in rigs {
        let spec = sgd_spec(rig);
        group.bench_function(format!("mlsim_sgd_10steps/{name}"), move |b| {
            b.iter(|| black_box(spec.run_packet().expect("round must complete")));
        });
    }
    group.rounds_per_iter(PR_ITERS as u64 + 1); // supersteps + initial broadcast
    let graph = rmat(&RmatSpec::livejournal_like(7, 11));
    for (name, rig) in rigs {
        let spec = pagerank_spec(rig);
        let g = graph.clone();
        group.bench_function(format!("graph_pagerank_10iters/{name}"), move |b| {
            b.iter(|| {
                black_box(
                    run_packet(&FixedPageRank::default(), &g, PR_ITERS, &spec)
                        .expect("round must complete"),
                )
            });
        });
    }
    group.finish();

    // Per-round traffic shape (one probe run, recovery on, clean links):
    // the numbers are round deltas, not cumulative — the counters this
    // PR's Snapshot::delta machinery exists for.
    let probe = sgd_spec(Rig::Recovery { faulty: false }).run_packet().unwrap();
    println!(
        "fig_iter: mlsim per-round server frames: {:?} (pairs shipped whole-run: {})",
        probe.server_frames_per_round, probe.pairs_shipped,
    );

    // The acceptance readout: loss-free overhead of round-scoped
    // recovery vs the prototype, median over interleaved rounds (31,
    // matching fig_reliability — at this margin the median
    // needs the extra rounds to shrug off shared-runner noise).
    let rounds = 31;
    for workload in ["mlsim_sgd_10steps", "graph_pagerank_10iters"] {
        let medians = if workload == "mlsim_sgd_10steps" {
            let p = sgd_spec(Rig::Prototype);
            let n = sgd_spec(Rig::Recovery { faulty: false });
            interleaved_medians(
                &mut [
                    &mut || drop(black_box(p.run_packet().unwrap())),
                    &mut || drop(black_box(n.run_packet().unwrap())),
                ],
                rounds,
            )
        } else {
            let p = pagerank_spec(Rig::Prototype);
            let n = pagerank_spec(Rig::Recovery { faulty: false });
            let (ga, gb) = (graph.clone(), graph.clone());
            interleaved_medians(
                &mut [
                    &mut || {
                        drop(black_box(
                            run_packet(&FixedPageRank::default(), &ga, PR_ITERS, &p).unwrap(),
                        ));
                    },
                    &mut || {
                        drop(black_box(
                            run_packet(&FixedPageRank::default(), &gb, PR_ITERS, &n).unwrap(),
                        ));
                    },
                ],
                rounds,
            )
        };
        let (base, rec) = (medians[0], medians[1]);
        println!(
            "fig_iter: {workload} loss-free recovery overhead (median of {rounds} \
             interleaved rounds): {:+.2}% vs prototype \
             (prototype {:.3} ms, recovery {:.3} ms)",
            100.0 * (rec - base) / base,
            base * 1e3,
            rec * 1e3,
        );
    }
}

criterion_group!(benches, bench_iter);
criterion_main!(benches);
