//! Quantifies what the NACK-recovery machinery costs on the **loss-free**
//! hot path, and what recovery buys under injected chaos.
//!
//! Three configurations per workload (the fig3 WordCount shuffle and the
//! fig_query GROUP BY), all on `daiet_agg`:
//!
//! * `prototype`    — the paper-faithful path: no reliability state at
//!   all (PR 1/2's configuration);
//! * `recovery_off_path` — the full machinery (gap trackers + retransmit
//!   rings + NACK timers) on clean links: every frame is recorded and
//!   tracked but no NACK ever fires. The delta to `prototype` is what
//!   the whole reliability story costs the hot path.
//! * `recovery_chaos` — the machinery earning its keep: loss +
//!   duplication + reordering on every link, each frame sent once.
//!
//! After the timed entries, the bench prints the measured loss-free
//! overheads directly (median over interleaved rounds, robust to noisy
//! neighbours on shared runners) so the <5 % criterion can be read off
//! without external arithmetic; the per-sample JSON (`BENCH_JSON_DIR`)
//! records the raw distributions.

use criterion::{criterion_group, criterion_main, Criterion};
use daiet_bench::interleaved_medians;
use daiet_mapreduce::runner::{Runner, ShuffleMode};
use daiet_mapreduce::wordcount::{Corpus, CorpusSpec};
use daiet_netsim::FaultProfile;
use daiet_querysim::prelude::*;
use std::hint::black_box;

fn chaos() -> FaultProfile {
    FaultProfile::chaos(0.05, 0.05, 0.05, 20_000)
}

#[derive(Clone, Copy)]
enum Rig {
    Prototype,
    Recovery { faulty: bool },
}

fn fig3_runner(rig: Rig) -> Runner {
    let spec = CorpusSpec { register_cells: 512, ..CorpusSpec::paper_scaled(12 * 256, 42) };
    let corpus = Corpus::generate(&spec);
    let mut runner = Runner::new(corpus);
    runner.daiet_config.register_cells = 512;
    match rig {
        Rig::Prototype => {}
        Rig::Recovery { faulty } => {
            let faults = if faulty { chaos() } else { FaultProfile::NONE };
            runner = runner.with_recovery(faults);
        }
    }
    runner
}

fn query_runner(rig: Rig) -> QueryRunner {
    let table = Table::generate(&TableSpec {
        n_workers: 8,
        rows_per_worker: 2048,
        n_groups: 256,
        n_columns: 3,
        zipf_s: 1.05,
        max_value: 100_000,
        seed: 42,
    });
    let query = Query::new(vec![
        Aggregate::Count,
        Aggregate::Sum(0),
        Aggregate::Min(1),
        Aggregate::Max(1),
        Aggregate::Avg(2),
    ]);
    let mut runner = QueryRunner::new(table, query);
    match rig {
        Rig::Prototype => {}
        Rig::Recovery { faulty } => {
            let faults = if faulty { chaos() } else { FaultProfile::NONE };
            runner = runner.with_full_reliability(faults);
        }
    }
    runner
}

fn bench_reliability(c: &mut Criterion) {
    let rigs = [
        ("prototype", Rig::Prototype),
        ("recovery_off_path", Rig::Recovery { faulty: false }),
        ("recovery_chaos", Rig::Recovery { faulty: true }),
    ];

    let mut group = c.benchmark_group("fig_reliability");
    group.sample_size(10);
    for (name, rig) in rigs {
        let runner = fig3_runner(rig);
        group.bench_function(format!("fig3_daiet/{name}"), move |b| {
            b.iter(|| black_box(runner.run(ShuffleMode::DaietAgg)));
        });
    }
    for (name, rig) in rigs {
        let runner = query_runner(rig);
        group.bench_function(format!("fig_query_daiet/{name}"), move |b| {
            b.iter(|| black_box(runner.run(QueryMode::DaietAgg)));
        });
    }
    group.finish();

    // Direct loss-free overhead readout: the cost of the whole
    // reliability story over the paper-faithful prototype.
    let rounds = 31;
    for workload in ["fig3_daiet", "fig_query_daiet"] {
        let means = if workload == "fig3_daiet" {
            let p = fig3_runner(Rig::Prototype);
            let r = fig3_runner(Rig::Recovery { faulty: false });
            interleaved_medians(
                &mut [
                    &mut || drop(black_box(p.run(ShuffleMode::DaietAgg))),
                    &mut || drop(black_box(r.run(ShuffleMode::DaietAgg))),
                ],
                rounds,
            )
        } else {
            let p = query_runner(Rig::Prototype);
            let r = query_runner(Rig::Recovery { faulty: false });
            interleaved_medians(
                &mut [
                    &mut || drop(black_box(p.run(QueryMode::DaietAgg))),
                    &mut || drop(black_box(r.run(QueryMode::DaietAgg))),
                ],
                rounds,
            )
        };
        let (proto, rec) = (means[0], means[1]);
        println!(
            "fig_reliability: {workload} loss-free overhead (median of {rounds} rounds): \
             {:+.2}% vs prototype (prototype {:.3} ms, recovery {:.3} ms)",
            100.0 * (rec - proto) / proto,
            proto * 1e3,
            rec * 1e3,
        );
    }
}

criterion_group!(benches, bench_reliability);
criterion_main!(benches);
