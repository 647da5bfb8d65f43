//! Figure 1(b): Adam tensor-update overlap per training step.
//!
//! Paper: softmax NN on MNIST, Adam with mini-batch 100, 5 workers + 1
//! PS; overlap in the ≈62–72 % band, average ≈66.5 %.

use daiet_bench::{arg, series_table};
use daiet_mlsim::overlap::{mean_overlap, OverlapRun};

fn main() {
    let mut run = OverlapRun::fig1b();
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
            "Figure 1(b) — Adam optimization: overlap (%) vs step",
            "step",
            "overlap_pct",
            &rows
        )
    );
    println!("\nmean overlap: {:.1}%   (paper: ~66.5%, band 62-72%)", mean_overlap(&points));
}
