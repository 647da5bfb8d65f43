//! `daiet-ledger` — the tracked benchmark of the DAIET reproduction.
//!
//! ```text
//! daiet-ledger                                  every workload, both passes
//! daiet-ledger --workload shuffle_agg --seed 42 --seconds 12 --trace 0
//! daiet-ledger --out ledger.json                … and keep the results
//! daiet-ledger --compare a.json b.json          hold ledger b against a
//! ```
//!
//! One workload per process: with no `--workload` the binary runs itself
//! once per workload and pass, with `DAIET_PARTITIONS` removed from the
//! child's environment. Every job's result is checked against the
//! host-side reference; the last line of a single-workload run is the JSON
//! object the benchmark contract prescribes. See `README.md` beside this
//! file for what each workload stresses and what every metric means.

mod compare;
mod host;
mod job;
mod json;
mod measure;
mod probes;
mod registry;
mod report;
mod simrun;
mod span;
mod stats;
mod tenants;
mod udp;
mod workload;

use json::Value;
use measure::Request;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workload::Scale;

/// What the command line asked for.
#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    scale: Scale,
    trace: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    compare: Option<(String, String)>,
}

const USAGE: &str = "usage: daiet-ledger [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--scale full|smoke] [--out FILE] [--trace-out FILE] | --compare A.json B.json";

/// Parses `--key value` and `--key=value` alike. Anything unrecognised is
/// an error: a typo must not silently run the default.
fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: registry::RUN_SECONDS as f64,
        scale: Scale::Full,
        trace: false,
        out: None,
        trace_out: None,
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let (key, inline) = match arg.split_once('=') {
            Some((k, v)) => (k, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        let mut value = || {
            inline
                .clone()
                .or_else(|| it.next().cloned())
                .ok_or_else(|| format!("{key} needs a value"))
        };
        match key {
            "--workload" => {
                let name = value()?;
                if registry::workload(&name).is_none() {
                    let known: Vec<&str> = registry::WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!(
                        "unknown workload `{name}`; known: {}",
                        known.join(", ")
                    ));
                }
                args.workload = Some(name);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&args.seconds) {
                    return Err("--seconds must lie in 0..=3600".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--scale" => {
                args.scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    other => return Err(format!("--scale takes full or smoke, not `{other}`")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--compare" => {
                let a = value()?;
                let b = it.next().cloned().ok_or("--compare needs two files")?;
                args.compare = Some((a, b));
            }
            other => return Err(format!("unrecognised argument `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Where a traced pass leaves its span tree when not told otherwise: beside
/// the executable, in the build directory, which no source tree tracks.
fn default_trace_path(workload: &str) -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    Some(exe.parent()?.join(format!("trace-{workload}.json")))
}

fn run_one(args: &Args, workload: &str) -> Result<bool, String> {
    let request = Request {
        seed: args.seed,
        seconds: args.seconds,
        scale: args.scale,
        trace: args.trace,
        trace_out: args
            .trace_out
            .clone()
            .or_else(|| default_trace_path(workload)),
        ..Request::new(workload)
    };
    let outcome = measure::run(&request)?;
    print!("{}", report::render(&outcome));
    if let (true, Some(path)) = (request.trace, &request.trace_out) {
        eprintln!("daiet-ledger: span tree written to {}", path.display());
    }
    Ok(outcome.correct())
}

/// Runs every workload, untraced then traced, each in a child process of
/// this same executable, and gathers their detail lines into one ledger.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
    let scale = match args.scale {
        Scale::Full => "full",
        Scale::Smoke => "smoke",
    };
    let mut runs = Vec::new();
    let mut all_correct = true;
    for w in &registry::WORKLOADS {
        for trace in ["0", "1"] {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", w.name, "--trace", trace, "--scale", scale])
                .args([
                    "--seed",
                    &args.seed.to_string(),
                    "--seconds",
                    &args.seconds.to_string(),
                ])
                .env_remove("DAIET_PARTITIONS")
                .stdout(Stdio::piped());
            let output = child
                .output()
                .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
            let text = String::from_utf8_lossy(&output.stdout);
            let mut detail = None;
            for line in text.lines() {
                match line.strip_prefix(report::DETAIL_PREFIX) {
                    Some(d) => {
                        detail = Some(json::parse(d).map_err(|e| format!("{}: {e}", w.name))?);
                    }
                    None if line.starts_with('{') => {}
                    None => println!("{line}"),
                }
            }
            // 0 is measured and correct, 1 measured with a failure its detail
            // line records; anything else measured nothing.
            if !matches!(output.status.code(), Some(0 | 1)) {
                return Err(format!(
                    "{} (trace {trace}) exited with {}",
                    w.name, output.status
                ));
            }
            let detail = detail.ok_or_else(|| format!("{} printed no detail line", w.name))?;
            all_correct &= detail.get("correct").and_then(Value::as_bool) == Some(true);
            runs.push(detail);
        }
    }
    if let Some(path) = &args.out {
        let cores = std::thread::available_parallelism().map_or(0, usize::from);
        let ledger = Value::obj(vec![
            ("ledger", Value::Num(1.0)),
            ("seed", Value::Num(args.seed as f64)),
            ("seconds", Value::Num(args.seconds)),
            ("cores", Value::Num(cores as f64)),
            ("runs", Value::Arr(runs)),
        ]);
        std::fs::write(path, ledger.render() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("daiet-ledger: ledger written to {}", path.display());
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("daiet-ledger: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match (&args.compare, &args.workload) {
        (Some((a, b)), _) => compare::run(a, b).map(|breached| !breached),
        (None, Some(workload)) => run_one(&args, workload),
        (None, None) => run_all(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        // Measured, but an operation failed or a bound was breached: the
        // numbers are printed and the exit code says not to trust them.
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("daiet-ledger: {e}");
            ExitCode::from(3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::Outcome;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| (*w).to_string()).collect()
    }

    #[test]
    fn both_argument_spellings_parse_and_typos_do_not() {
        let spaced = parse_args(&argv(&[
            "--workload",
            "shuffle_fwd",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (
                spaced.workload.as_deref(),
                spaced.seed,
                spaced.seconds,
                spaced.trace
            ),
            (Some("shuffle_fwd"), 7, 3.0, true)
        );
        let joined = parse_args(&argv(&[
            "--workload=tenant_mix",
            "--seed=9",
            "--scale=smoke",
            "--out=x.json",
        ]))
        .unwrap();
        assert_eq!(
            (joined.workload.as_deref(), joined.seed, joined.scale),
            (Some("tenant_mix"), 9, Scale::Smoke)
        );
        assert_eq!(joined.out, Some(PathBuf::from("x.json")));
        let defaults = parse_args(&[]).unwrap();
        assert_eq!(
            (defaults.seed, defaults.seconds, defaults.trace),
            (42, registry::RUN_SECONDS as f64, false)
        );
        let cmp = parse_args(&argv(&["--compare", "a.json", "b.json"])).unwrap();
        assert_eq!(cmp.compare, Some(("a.json".into(), "b.json".into())));
        for bad in [
            &["--workload", "shuffle_tcp"][..],
            &["--sed", "7"],
            &["--seed"],
            &["--seed", "-1"],
            &["--trace", "2"],
            &["--seconds", "1e9"],
            &["--compare", "a.json"],
            &["extra"],
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
    }

    fn smoke(workload: &str, seed: u64, trace: bool) -> Outcome {
        let request = Request {
            seed,
            seconds: 0.0,
            scale: Scale::Smoke,
            trace,
            ..Request::new(workload)
        };
        measure::run(&request).unwrap_or_else(|e| panic!("{workload}: {e}"))
    }

    fn value(outcome: &Outcome, name: &str) -> f64 {
        outcome
            .metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("no {name}"))
            .value
    }

    /// Every sim workload at smoke scale: every declared metric is emitted,
    /// no operation fails, and a second run of the same seed prints the
    /// same deterministic metrics and digest.
    #[test]
    fn sim_workloads_emit_every_declared_metric_and_repeat_per_seed() {
        for w in registry::WORKLOADS
            .iter()
            .filter(|w| w.name != "udp_shuffle")
        {
            let first = smoke(w.name, 11, false);
            assert!(first.correct(), "{}: {:?}", w.name, first.problems);
            let names: Vec<&str> = first.metrics.iter().map(|m| m.name).collect();
            assert_eq!(names, registry::END_TO_END.map(|m| m.name), "{}", w.name);
            assert!(
                first
                    .metrics
                    .iter()
                    .all(|m| m.value.is_finite() && m.value > 0.0),
                "{}",
                w.name
            );

            let again = smoke(w.name, 11, false);
            assert_eq!(again.digest, first.digest, "{}", w.name);
            for m in registry::END_TO_END.iter().filter(|m| m.exact) {
                assert_eq!(
                    value(&again, m.name),
                    value(&first, m.name),
                    "{} {}",
                    w.name,
                    m.name
                );
            }
            assert_ne!(
                smoke(w.name, 12, false).digest,
                first.digest,
                "{}: the seed makes the inputs",
                w.name
            );
        }
    }

    /// The traced pass at smoke scale: every per-layer metric is emitted,
    /// the in-situ run is the job (same digest, same simulated time), and
    /// the mechanism and bypass workloads differ where they should.
    #[test]
    fn traced_pass_emits_every_layer_metric_and_pairs_mechanism_with_bypass() {
        let traced = |name: &str| {
            let outcome = smoke(name, 11, true);
            assert!(outcome.correct(), "{name}: {:?}", outcome.problems);
            let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
            assert_eq!(names, registry::PER_LAYER.map(|m| m.name), "{name}");
            assert!(
                outcome.metrics.iter().all(|m| m.value.is_finite()),
                "{name}"
            );
            outcome
        };
        let agg = traced("shuffle_agg");
        let fwd = traced("shuffle_fwd");
        let spill = traced("shuffle_spill");
        let chaos = traced("shuffle_chaos");
        let mix = traced("tenant_mix");

        assert_eq!(
            value(&fwd, "core.alg1_pairs_in"),
            0.0,
            "forwarding bypasses Algorithm 1"
        );
        assert!(value(&agg, "core.alg1_pairs_in") > 0.0);
        assert_eq!(
            value(&agg, "core.alg1_pairs_in"),
            value(&spill, "core.alg1_pairs_in"),
            "same corpus"
        );
        assert_eq!(
            value(&agg, "core.alg1_collisions"),
            0.0,
            "the corpus is collision-free"
        );
        assert!(value(&spill, "core.alg1_collisions") > 0.0);
        assert!(
            value(&chaos, "netsim.fault_drops") > 0.0 && value(&chaos, "core.nacks_emitted") > 0.0
        );
        for quiet in [&agg, &fwd, &spill, &mix] {
            assert_eq!(
                value(quiet, "netsim.fault_drops") + value(quiet, "core.nacks_emitted"),
                0.0
            );
        }
        assert!(value(&mix, "core.sched_rejections") >= 1.0);
        assert!(value(&mix, "core.sched_rounds") > value(&agg, "core.sched_rounds"));
        assert_eq!(
            value(&traced("shuffle_agg"), "netsim.events"),
            value(&agg, "netsim.events")
        );
    }

    #[test]
    fn socket_workload_smoke() {
        if !std::env::var("DAIET_LOOPBACK").is_ok_and(|v| v == "1") {
            return;
        }
        let run = smoke("udp_shuffle", 11, false);
        assert!(run.correct(), "{:?}", run.problems);
        assert!(run
            .metrics
            .iter()
            .all(|m| m.value.is_finite() && m.value > 0.0));
        let traced = smoke("udp_shuffle", 11, true);
        assert!(traced.correct(), "{:?}", traced.problems);
        assert_eq!(traced.metrics.len(), registry::PER_LAYER.len());
        assert!(value(&traced, "fabric.udp_frames_out") > 0.0);
    }
}
