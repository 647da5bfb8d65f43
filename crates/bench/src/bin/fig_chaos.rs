//! Completion time vs failure-injection rate: the chaos figure.
//!
//! Sweeps a symmetric fault profile (drop = duplicate = reorder = rate,
//! on every link) over the fig3 WordCount shuffle and runs the two
//! transports that survive it — `tcp_baseline` (retransmission +
//! congestion control) and `daiet_agg` (in-network aggregation with
//! NACK recovery). Each point is the **simulated completion time**
//! (`data_done_at`: last reducer's complete input, not trailing
//! retransmission-timer tails) over a pool of fault seeds, printed as
//! the mean with `[min .. max]`: how much longer the job takes as the
//! network degrades.
//!
//! Every run is checked for correctness: a transport that survives
//! chaos by dropping data doesn't get to look fast.
//!
//! ```text
//! cargo run -p daiet-bench --release --bin fig_chaos
//! ```

use daiet_bench::SeedPool;
use daiet_mapreduce::runner::{Runner, ShuffleMode};
use daiet_mapreduce::wordcount::{Corpus, CorpusSpec};
use daiet_netsim::FaultProfile;

/// The failure-injection sweep: loss-free through heavily degraded.
const RATES: [f64; 4] = [0.0, 0.02, 0.05, 0.10];

/// Simulation seeds each point pools over — each draws an independent
/// fault pattern over the same corpus.
const FAULT_SEEDS: [u64; 5] = [7, 23, 41, 59, 83];

fn profile(rate: f64) -> FaultProfile {
    if rate == 0.0 {
        FaultProfile::NONE
    } else {
        FaultProfile::chaos(rate, rate, rate, 20_000)
    }
}

fn chaos_runner(rate: f64) -> Runner {
    let spec = CorpusSpec { register_cells: 512, ..CorpusSpec::paper_scaled(12 * 256, 42) };
    let corpus = Corpus::generate(&spec);
    let mut runner = Runner::new(corpus);
    runner.daiet_config.register_cells = 512;
    // Recovery armed at every rate (including 0.0) so the sweep varies
    // exactly one thing: the injected failure rate.
    runner.with_recovery(profile(rate))
}

fn main() {
    let modes = [("tcp_baseline", ShuffleMode::TcpBaseline), ("daiet_agg", ShuffleMode::DaietAgg)];

    println!("fig_chaos: simulated completion time vs failure-injection rate");
    println!("ms, mean [min .. max] over fault seeds {FAULT_SEEDS:?}");
    println!("{:>6}  {:>28}  {:>28}  {:>8}", "rate", "tcp_baseline", "daiet_agg", "speedup");
    for rate in RATES {
        let [tcp, daiet] = modes.map(|(name, mode)| {
            let samples = FAULT_SEEDS.map(|seed| {
                let mut runner = chaos_runner(rate);
                runner.seed = seed;
                let out = runner.run(mode);
                assert!(
                    out.all_correct(),
                    "{name} at rate {rate} (seed {seed}) survived by losing data — figure void"
                );
                out.data_done_at.as_nanos() as f64 / 1e6
            });
            SeedPool::of(&samples)
        });
        println!(
            "{rate:>6.2}  {:>28}  {:>28}  {:>7.2}x",
            tcp.to_string(),
            daiet.to_string(),
            tcp.mean / daiet.mean
        );
    }
}
