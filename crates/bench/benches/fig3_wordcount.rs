//! Criterion bench for the Figure-3 pipeline: one full simulated shuffle
//! per mode at reduced scale (the figure binary runs the full thing).

use criterion::{criterion_group, criterion_main, Criterion};
use daiet_mapreduce::runner::{Runner, ShuffleMode};
use daiet_mapreduce::wordcount::{Corpus, CorpusSpec};
use std::hint::black_box;

fn bench_wordcount(c: &mut Criterion) {
    let spec = CorpusSpec {
        register_cells: 512,
        ..CorpusSpec::paper_scaled(12 * 256, 42)
    };
    let corpus = Corpus::generate(&spec);
    let mut runner = Runner::new(corpus);
    runner.daiet_config.register_cells = 512;

    let mut group = c.benchmark_group("fig3_wordcount");
    group.sample_size(10);
    for (name, mode) in [
        ("tcp_baseline", ShuffleMode::TcpBaseline),
        ("udp_no_agg", ShuffleMode::UdpNoAgg),
        ("daiet_agg", ShuffleMode::DaietAgg),
    ] {
        group.bench_function(name, |b| b.iter(|| black_box(runner.run(mode))));
    }
    group.finish();
}

criterion_group!(benches, bench_wordcount);
criterion_main!(benches);
