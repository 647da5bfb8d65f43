//! # daiet-bench — the harness that regenerates every figure
//!
//! One binary per figure (run with `cargo run -p daiet-bench --release
//! --bin <name>`):
//!
//! | binary         | paper artifact                                         |
//! |----------------|--------------------------------------------------------|
//! | `fig1a`        | Fig 1(a): SGD tensor-update overlap per step           |
//! | `fig1b`        | Fig 1(b): Adam tensor-update overlap per step          |
//! | `fig1_workers` | §3 prose: overlap vs worker count (2→5)                |
//! | `fig1c`        | Fig 1(c): graph traffic reduction per iteration        |
//! | `fig3`         | Fig 3: WordCount reductions (4 box-plot panels)        |
//! | `resources`    | §5 prose: switch SRAM budget for 16 K pairs × 12 trees |
//!
//! Criterion benches (`cargo bench -p daiet-bench`) cover the same
//! workloads at micro scale plus the ablations called out in DESIGN.md.

use std::fmt::Write as _;

/// Renders a two-column series as an aligned text table.
pub fn series_table(title: &str, x_label: &str, y_label: &str, rows: &[(f64, f64)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {title}");
    let _ = writeln!(out, "{x_label:>12}  {y_label:>14}");
    for (x, y) in rows {
        let _ = writeln!(out, "{x:>12.0}  {y:>14.3}");
    }
    out
}

/// Renders labelled multi-series rows (e.g. one column per algorithm).
pub fn multi_series_table(
    title: &str,
    x_label: &str,
    series_names: &[&str],
    rows: &[(f64, Vec<Option<f64>>)],
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {title}");
    let _ = write!(out, "{x_label:>10}");
    for name in series_names {
        let _ = write!(out, "  {name:>12}");
    }
    let _ = writeln!(out);
    for (x, ys) in rows {
        let _ = write!(out, "{x:>10.0}");
        for y in ys {
            match y {
                Some(v) => {
                    let _ = write!(out, "  {v:>12.3}");
                }
                None => {
                    let _ = write!(out, "  {:>12}", "-");
                }
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// The value of the first `--key=value` argument in `args`: `Ok(None)`
/// when no argument names `key`, `Err` with the offending argument when
/// its value does not parse as a `T`.
pub fn parse_arg<T: std::str::FromStr>(
    args: impl IntoIterator<Item = String>,
    key: &str,
) -> Result<Option<T>, String> {
    let prefix = format!("--{key}=");
    match args.into_iter().find(|a| a.starts_with(&prefix)) {
        Some(arg) => arg[prefix.len()..].parse().map(Some).map_err(|_| arg),
        None => Ok(None),
    }
}

/// `--key=value` from the process arguments, `default` when absent. A
/// value that is present but does not parse ends the process with status
/// 2: a figure printed at the default scale under a mistyped one reads
/// like a result.
pub fn arg<T: std::str::FromStr>(key: &str, default: T) -> T {
    match parse_arg(std::env::args(), key) {
        Ok(value) => value.unwrap_or(default),
        Err(bad) => {
            eprintln!("cannot parse argument `{bad}`");
            std::process::exit(2);
        }
    }
}

/// Robust statistics over per-seed **simulated** measurements — the
/// shared path behind the `fig_chaos` and `fig_multitenant` figure
/// tables, so completion-time and slowdown claims are outlier-rejected
/// means with bootstrap CI95s (the same `criterion::analyze` treatment
/// wall-clock samples get), not raw single-run points. When
/// `BENCH_JSON_DIR` is set, a JSON record mirroring the criterion shim's
/// schema is written as `SIM_<figure>_<id>.json` for post-hoc auditing.
pub fn sim_stats(figure: &str, id: &str, samples: &[f64]) -> criterion::SampleStats {
    let stats = criterion::analyze(samples);
    if let Ok(dir) = std::env::var("BENCH_JSON_DIR") {
        if let Err(e) = write_sim_json(std::path::Path::new(&dir), figure, id, samples, &stats) {
            eprintln!("{figure}: could not write BENCH json for {id}: {e}");
        }
    }
    stats
}

fn write_sim_json(
    dir: &std::path::Path,
    figure: &str,
    id: &str,
    samples: &[f64],
    stats: &criterion::SampleStats,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let sanitize = |s: &str| -> String {
        s.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect()
    };
    let rendered: Vec<String> = samples.iter().map(|s| format!("{s:e}")).collect();
    let json = format!(
        concat!(
            "{{\"figure\":\"{}\",\"id\":\"{}\",\"samples_s\":[{}],",
            "\"mean_s\":{:e},\"sd_s\":{:e},\"min_s\":{:e},\"max_s\":{:e},",
            "\"kept\":{},\"outliers\":{},\"ci95_lo_s\":{:e},\"ci95_hi_s\":{:e}}}\n"
        ),
        figure,
        id,
        rendered.join(","),
        stats.mean,
        stats.sd,
        stats.min,
        stats.max,
        stats.kept,
        stats.outliers,
        stats.ci95_lo,
        stats.ci95_hi,
    );
    std::fs::write(dir.join(format!("SIM_{}_{}.json", sanitize(figure), sanitize(id))), json)
}

/// **Median** seconds per call for each closure, measured in interleaved
/// rounds (A, B, C, A, B, C, …) after one unrecorded warm-up call each.
/// The shared acceptance-measurement harness of `fig_reliability` and
/// `fig_iter`: interleaving makes slow machine-level drift hit every
/// configuration equally instead of biasing whichever ran last, and the
/// median (unlike the mean) shrugs off the occasional round where a
/// noisy neighbour steals the CPU mid-call — the dominant residual noise
/// on shared single-core runners.
pub fn interleaved_medians(fns: &mut [&mut dyn FnMut()], rounds: u32) -> Vec<f64> {
    for f in fns.iter_mut() {
        f(); // warm-up
    }
    let mut samples = vec![Vec::with_capacity(rounds as usize); fns.len()];
    for _ in 0..rounds {
        for (f, s) in fns.iter_mut().zip(&mut samples) {
            // lint:allow(det-clock): this is the benchmark timer itself — measuring
            // wall time is the whole point; results never feed a simulation.
            let start = std::time::Instant::now();
            f();
            s.push(start.elapsed().as_secs_f64());
        }
    }
    samples
        .into_iter()
        .map(|mut s| {
            s.sort_unstable_by(f64::total_cmp);
            s[s.len() / 2]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_table_formats() {
        let t = series_table("T", "x", "y", &[(1.0, 2.5), (2.0, 3.5)]);
        assert!(t.contains("# T"));
        assert!(t.contains("2.500"));
        assert!(t.lines().count() == 4);
    }

    #[test]
    fn multi_series_handles_missing_points() {
        let t = multi_series_table("M", "it", &["a", "b"], &[(1.0, vec![Some(0.5), None])]);
        assert!(t.contains('-'));
        assert!(t.contains("0.500"));
    }

    #[test]
    fn parse_arg_distinguishes_absent_from_unparsable() {
        let args = |list: &[&str]| list.iter().map(ToString::to_string).collect::<Vec<_>>();
        let given = args(&["fig3", "--cells=4096", "--words-per-reducer=16k", "--seed=-1"]);
        assert_eq!(parse_arg::<usize>(given.clone(), "cells"), Ok(Some(4096)));
        assert_eq!(parse_arg::<usize>(given.clone(), "steps"), Ok(None));
        // A prefix of another key is a different key.
        assert_eq!(parse_arg::<usize>(given.clone(), "cell"), Ok(None));
        assert_eq!(
            parse_arg::<usize>(given.clone(), "words-per-reducer"),
            Err("--words-per-reducer=16k".to_string())
        );
        assert_eq!(parse_arg::<u64>(given.clone(), "seed"), Err("--seed=-1".to_string()));
        assert_eq!(parse_arg::<i64>(given, "seed"), Ok(Some(-1)));
        assert_eq!(parse_arg::<u64>(args(&["--seed="]), "seed"), Err("--seed=".to_string()));
        // The first occurrence decides, parsable or not.
        assert_eq!(
            parse_arg::<u64>(args(&["--seed=x", "--seed=3"]), "seed"),
            Err("--seed=x".to_string())
        );
    }

    #[test]
    fn arg_parsers_default() {
        assert_eq!(arg("definitely-not-passed", 7usize), 7);
        assert_eq!(arg("also-not-passed", 9u64), 9);
    }

    #[test]
    fn interleaved_medians_returns_one_median_per_closure() {
        let mut calls = [0u32, 0];
        let [a, b] = &mut calls;
        let meds = interleaved_medians(
            &mut [&mut || *a += 1, &mut || *b += 1],
            5,
        );
        assert_eq!(meds.len(), 2);
        assert!(meds.iter().all(|&m| m >= 0.0));
        // warm-up + 5 measured rounds each.
        assert_eq!(calls, [6, 6]);
    }
}
