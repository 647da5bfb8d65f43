//! Figure 1(c): potential traffic reduction ratio per iteration for
//! PageRank, SSSP and WCC on a LiveJournal-shaped graph.
//!
//! Paper (GPS on LiveJournal, 4.8 M vertices / 68 M edges): PageRank flat
//! near the top; SSSP rising as the frontier explodes; WCC starting high
//! and decaying as it converges; overall range ≈0.48–0.93.

use daiet_bench::{arg, multi_series_table};
use daiet_graphsim::generate::{rmat, RmatSpec};
use daiet_graphsim::{reduction_series, AlgoKind};

fn main() {
    // scale 17 → 131 K vertices / 1.8 M edges by default; push toward 22
    // (4.2 M / 59 M, LiveJournal scale) with --scale=22.
    let scale = arg::<u32>("scale", 17);
    let iterations = arg::<usize>("iterations", 10);
    let seed = arg::<u64>("seed", 11);

    let graph = rmat(&RmatSpec::livejournal_like(scale, seed));
    eprintln!(
        "graph: 2^{scale} = {} vertices, {} edges (avg degree {:.1})",
        graph.vertices(),
        graph.edges(),
        graph.avg_degree()
    );

    let algos = [AlgoKind::PageRank, AlgoKind::Sssp, AlgoKind::Wcc];
    let series: Vec<Vec<(usize, f64)>> = algos
        .iter()
        .map(|&a| {
            reduction_series(a, &graph, iterations)
                .into_iter()
                .map(|s| (s.iteration, s.reduction))
                .collect()
        })
        .collect();

    let rows: Vec<(f64, Vec<Option<f64>>)> = (1..=iterations)
        .map(|it| {
            let ys = series
                .iter()
                .map(|s| s.iter().find(|(i, _)| *i == it).map(|(_, r)| *r))
                .collect();
            (it as f64, ys)
        })
        .collect();

    print!(
        "{}",
        multi_series_table(
            "Figure 1(c) — Graph analytics: traffic reduction ratio vs iteration",
            "iteration",
            &["PageRank", "SSSP", "WCC"],
            &rows
        )
    );
    println!("\n(paper: PageRank flat ~0.93; SSSP rising; WCC decaying; range 0.48-0.93)");
}
