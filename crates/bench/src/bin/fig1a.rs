//! Figure 1(a): SGD tensor-update overlap per training step.
//!
//! Paper: softmax NN on MNIST, mini-batch 3, 5 workers + 1 PS; overlap
//! oscillates in the ≈34–50 % band, average ≈42.5 %, flat over 200 steps.

use daiet_bench::{arg, series_table};
use daiet_mlsim::overlap::{mean_overlap, OverlapRun};

fn main() {
    let mut run = OverlapRun::fig1a();
    run.steps = arg::<usize>("steps", 200);
    run.workers = arg::<usize>("workers", 5);
    run.seed = arg::<u64>("seed", 7);
    let points = run.run();
    let rows: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (p.step as f64, p.overlap_pct))
        .collect();
    print!(
        "{}",
        series_table(
            "Figure 1(a) — Stochastic Gradient Descent: overlap (%) vs step",
            "step",
            "overlap_pct",
            &rows
        )
    );
    println!("\nmean overlap: {:.1}%   (paper: ~42.5%, band 34-50%)", mean_overlap(&points));
}
