//! §3 prose experiment: "we also experimented while increasing the number
//! of workers from two to five (without changing the mini-batch size), and
//! observed that the overlap increases."

use daiet_bench::{arg, series_table};
use daiet_mlsim::overlap::{mean_overlap, OverlapRun, Which};

fn main() {
    let steps = arg::<usize>("steps", 50);
    let seed = arg::<u64>("seed", 7);
    for which in [Which::Sgd, Which::Adam] {
        let rows: Vec<(f64, f64)> = (2..=5)
            .map(|w| {
                let run = OverlapRun {
                    which,
                    workers: w,
                    steps,
                    seed,
                    ..OverlapRun::fig1a()
                };
                (w as f64, mean_overlap(&run.run()))
            })
            .collect();
        print!(
            "{}",
            series_table(
                &format!("{which:?}: mean overlap (%) vs worker count (mini-batch fixed)"),
                "workers",
                "overlap_pct",
                &rows
            )
        );
        let increases = rows.last().unwrap().1 > rows.first().unwrap().1;
        println!("overlap grows from 2 to 5 workers: {increases}\n");
    }
}
