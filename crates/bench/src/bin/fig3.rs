//! Figure 3: WordCount shuffle reductions, DAIET vs the two baselines.
//!
//! Paper (24 mappers, 12 reducers, collision-free corpus, 16 K-pair
//! registers, bmv2):
//!
//! * data volume at reducers: 86.9–89.3 % reduction vs TCP;
//! * reduce time: median ≈83.6 % decrease;
//! * packets at reducers vs UDP baseline: median/max 90.5 %, min 88.1 %;
//! * packets vs TCP baseline: median ≈42 %.
//!
//! Default scale is 1/8 of the paper's (2 K distinct words per reducer,
//! 2 K-cell registers) so the run completes in seconds; pass
//! `--words-per-reducer=16384 --cells=16384` for paper scale.

use daiet_bench::arg;
use daiet_mapreduce::runner::{Fig3Summary, Runner, ShuffleMode};
use daiet_mapreduce::wordcount::{Corpus, CorpusSpec};

fn main() {
    let words_per_reducer = arg::<usize>("words-per-reducer", 2048);
    let cells = arg::<usize>("cells", 2048);
    let seed = arg::<u64>("seed", 42);

    let spec = CorpusSpec {
        register_cells: cells,
        ..CorpusSpec::paper_scaled(words_per_reducer * 12, seed)
    };
    eprintln!("generating corpus: {} distinct words...", spec.distinct_words);
    let corpus = Corpus::generate(&spec);
    eprintln!(
        "corpus: {} records, realized multiplicity {:.2}",
        corpus.total_records(),
        corpus.realized_multiplicity()
    );

    let mut runner = Runner::new(corpus);
    runner.daiet_config.register_cells = cells;

    eprintln!("running TCP baseline...");
    let tcp = runner.run(ShuffleMode::TcpBaseline);
    eprintln!("running UDP (no aggregation) baseline...");
    let udp = runner.run(ShuffleMode::UdpNoAgg);
    eprintln!("running DAIET (in-network aggregation)...");
    let daiet = runner.run(ShuffleMode::DaietAgg);

    for (name, out) in [("tcp", &tcp), ("udp", &udp), ("daiet", &daiet)] {
        assert!(out.all_correct(), "{name} run produced wrong reductions");
        eprintln!(
            "{name:>6}: correct, {} frames dropped, finished at {}",
            out.frames_dropped, out.finished_at
        );
    }

    let fig = Fig3Summary::from_runs(&tcp, &udp, &daiet);
    println!("# Figure 3 — reduction at reducers (percent), box statistics over 12 reducers");
    println!("{:<28} min     q1     med     q3     max   (paper)", "panel");
    println!("{:<28} {}   (86.9-89.3%)", "data volume vs TCP", fig.data_volume);
    println!("{:<28} {}   (median ~83.6%)", "reduce time vs TCP", fig.reduce_time);
    println!("{:<28} {}   (88.1-90.5%, med 90.5%)", "packets vs UDP baseline", fig.packets_vs_udp);
    println!("{:<28} {}   (median ~42%)", "packets vs TCP baseline", fig.packets_vs_tcp);
}
