//! # daiet-bench — the harness that regenerates every figure
//!
//! One binary per figure (run with `cargo run -p daiet-bench --release
//! --bin <name>`):
//!
//! | binary            | paper artifact                                         |
//! |-------------------|--------------------------------------------------------|
//! | `fig1a`           | Fig 1(a): SGD tensor-update overlap per step           |
//! | `fig1b`           | Fig 1(b): Adam tensor-update overlap per step          |
//! | `fig1_workers`    | §3 prose: overlap vs worker count (2→5)                |
//! | `fig1c`           | Fig 1(c): graph traffic reduction per iteration        |
//! | `fig3`            | Fig 3: WordCount reductions (4 box-plot panels)        |
//! | `resources`       | §5 prose: switch SRAM budget for 16 K pairs × 12 trees |
//! | `fig_chaos`       | none: completion time vs failure-injection rate        |
//! | `fig_multitenant` | none: tenant-mix throughput and per-job slowdown       |
//!
//! The last two run in simulated time over a fixed seed pool, take no
//! arguments, and print each point as a [`SeedPool`].

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

/// One figure point summarised over its seed pool: the mean with the
/// smallest and largest sample. Every sample counts — each is a
/// deterministic simulation, so a seed rejected as an outlier would be a
/// hidden result, not noise. Displays as `mean [min .. max]` at the
/// formatter's precision (3 places by default).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeedPool {
    pub mean: f64,
    pub min: f64,
    pub max: f64,
}

impl SeedPool {
    /// Summarises one sample per seed. Panics on an empty pool: a figure
    /// point with no runs behind it is a bug, not a value.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "a figure point needs at least one seed");
        Self {
            mean: samples.iter().sum::<f64>() / samples.len() as f64,
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

impl std::fmt::Display for SeedPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let p = f.precision().unwrap_or(3);
        write!(f, "{:.p$} [{:.p$} .. {:.p$}]", self.mean, self.min, self.max)
    }
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
    fn seed_pool_summarises_a_known_pool() {
        let pool = SeedPool::of(&[2.0, 4.0, 6.0, 8.0]);
        assert_eq!(pool, SeedPool { mean: 5.0, min: 2.0, max: 8.0 });
        assert_eq!(pool.to_string(), "5.000 [2.000 .. 8.000]");
        assert_eq!(format!("{pool:.1}"), "5.0 [2.0 .. 8.0]");
        assert_eq!(SeedPool::of(&[3.5]), SeedPool { mean: 3.5, min: 3.5, max: 3.5 });
    }

    #[test]
    fn seed_pool_keeps_a_far_outlier() {
        let pool = SeedPool::of(&[1.0, 1.0, 1.0, 1.0, 1000.0]);
        assert_eq!(pool.max, 1000.0);
        assert_eq!(pool.min, 1.0);
        assert_eq!(pool.mean, 1004.0 / 5.0);
    }
}
