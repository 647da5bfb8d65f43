//! `--compare a.json b.json`: holds ledger `b` against ledger `a`. A timed
//! end-to-end metric may be worse by its bound and no more; a simulated or
//! counted one must be identical, and so must every result digest. A metric
//! within its bound whose own quartiles are wider than the bound is listed
//! as unresolved, not as unchanged.

use crate::json::{self, Value};
use crate::registry::{self, Better};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Within,
    Unresolved,
    Breach,
    /// A per-layer timing: reported, not judged.
    Info,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Within => "within bound",
            Verdict::Unresolved => "UNRESOLVED",
            Verdict::Breach => "BREACH",
            Verdict::Info => "",
        }
    }
}

/// One compared number.
#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    pub verdict: Verdict,
    pub why: String,
}

/// The rule a metric is compared by.
enum Rule {
    Exact,
    Bounded { better: Better, bound: f64 },
    Info,
}

fn rule_for(name: &str) -> Rule {
    if let Some(m) = registry::end_to_end(name) {
        return if m.exact {
            Rule::Exact
        } else {
            Rule::Bounded {
                better: m.better,
                bound: m.bound,
            }
        };
    }
    // Counts and the ratios of counts come out of a seeded simulation (or,
    // over the sockets, a loss-free deterministic protocol).
    match registry::PER_LAYER.iter().find(|m| m.name == name) {
        Some(m) if matches!(m.unit, "count" | "ratio") => Rule::Exact,
        _ => Rule::Info,
    }
}

/// Interquartile range over the value, where the run recorded quartiles.
fn spread_of(metric: &Value) -> Option<f64> {
    let q1 = metric.get("q1")?.as_f64()?;
    let q3 = metric.get("q3")?.as_f64()?;
    let value = metric.get("value")?.as_f64()?;
    (value != 0.0).then(|| (q3 - q1).abs() / value.abs())
}

fn judge(name: &str, a: &Value, b: &Value) -> Result<(f64, f64, Verdict, String), String> {
    let value = |m: &Value| {
        m.get("value")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{name}: no numeric value"))
    };
    let (va, vb) = (value(a)?, value(b)?);
    Ok(match rule_for(name) {
        Rule::Exact if va == vb => (va, vb, Verdict::Same, String::new()),
        Rule::Exact => (va, vb, Verdict::Breach, "must repeat exactly".into()),
        Rule::Info => (va, vb, Verdict::Info, String::new()),
        Rule::Bounded { better, bound } => {
            let worse = match better {
                Better::Lower => (vb - va) / va.abs(),
                Better::Higher => (va - vb) / va.abs(),
            };
            let spread = spread_of(a)
                .into_iter()
                .chain(spread_of(b))
                .fold(0.0, f64::max);
            if worse > bound {
                (
                    va,
                    vb,
                    Verdict::Breach,
                    format!("worse by {:.1}% > {:.1}%", worse * 100.0, bound * 100.0),
                )
            } else if spread > bound {
                let why = format!(
                    "quartile spread {:.1}% > bound {:.1}%",
                    spread * 100.0,
                    bound * 100.0
                );
                (va, vb, Verdict::Unresolved, why)
            } else {
                (va, vb, Verdict::Within, format!("{:+.1}%", -worse * 100.0))
            }
        }
    })
}

fn runs(doc: &Value) -> Result<Vec<(String, bool, &Value)>, String> {
    doc.get("runs")
        .and_then(Value::as_arr)
        .ok_or("not a ledger: no `runs` array")?
        .iter()
        .map(|run| {
            let workload = run
                .get("workload")
                .and_then(Value::as_str)
                .ok_or("a run without a workload")?;
            let trace = run
                .get("trace")
                .and_then(Value::as_bool)
                .ok_or("a run without a trace flag")?;
            Ok((workload.to_string(), trace, run))
        })
        .collect()
}

/// Compares two parsed ledgers, `b` against `a`.
pub fn compare(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let (runs_a, runs_b) = (runs(a)?, runs(b)?);
    let mut rows = Vec::new();
    for (workload, trace, run_a) in &runs_a {
        let row = |metric: &str, a: f64, b: f64, verdict, why: &str| Row {
            workload: workload.clone(),
            metric: metric.to_string(),
            a,
            b,
            verdict,
            why: why.to_string(),
        };
        let Some((_, _, run_b)) = runs_b.iter().find(|(w, t, _)| w == workload && t == trace)
        else {
            rows.push(row(
                "(run)",
                1.0,
                0.0,
                Verdict::Breach,
                "missing from the second ledger",
            ));
            continue;
        };
        let field =
            |run: &Value, key: &str| run.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
        let (failed_a, failed_b) = (field(run_a, "failed"), field(run_b, "failed"));
        let verdict = if failed_b > failed_a || failed_b.is_nan() {
            Verdict::Breach
        } else {
            Verdict::Same
        };
        rows.push(row(
            "(failed operations)",
            failed_a,
            failed_b,
            verdict,
            "more operations fail",
        ));
        let digest = |run: &Value| {
            run.get("digest")
                .and_then(Value::as_str)
                .map(str::to_string)
        };
        if digest(run_a) != digest(run_b) || digest(run_a).is_none() {
            rows.push(row(
                "(result digest)",
                0.0,
                1.0,
                Verdict::Breach,
                "result digests differ",
            ));
        }
        let metrics_a = run_a
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or("a run without metrics")?;
        for (name, metric_a) in metrics_a {
            match run_b.get("metrics").and_then(|m| m.get(name)) {
                Some(metric_b) => {
                    let (va, vb, verdict, why) = judge(name, metric_a, metric_b)?;
                    rows.push(row(name, va, vb, verdict, &why));
                }
                None => rows.push(row(
                    name,
                    1.0,
                    0.0,
                    Verdict::Breach,
                    "missing from the second ledger",
                )),
            }
        }
    }
    Ok(rows)
}

/// Reads, compares and prints. Returns whether any row is a breach.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let read = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare(&read(path_a)?, &read(path_b)?)?;
    println!("# daiet-ledger --compare {path_a} {path_b}");
    for r in &rows {
        // The per-run checks (failures, digest) only speak up when they fail.
        let passed_check = r.metric.starts_with('(') && r.verdict != Verdict::Breach;
        if !passed_check {
            println!(
                "{:<14} {:<34} {:>18.6} {:>18.6}  {} {}",
                r.workload,
                r.metric,
                r.a,
                r.b,
                r.verdict.as_str(),
                r.why
            );
        }
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} same, {} within bound, {} unresolved, {} breached, {} per-layer timings reported",
        count(Verdict::Same),
        count(Verdict::Within),
        count(Verdict::Unresolved),
        count(Verdict::Breach),
        count(Verdict::Info)
    );
    Ok(count(Verdict::Breach) > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger(
        p50: (f64, f64, f64),
        sim_done: f64,
        events: f64,
        digest: &str,
        failed: f64,
    ) -> Value {
        let metric = |value: f64, quartiles: Option<(f64, f64)>| {
            let mut fields = vec![("value", Value::Num(value)), ("unit", Value::str("x"))];
            if let Some((q1, q3)) = quartiles {
                fields.extend([("q1", Value::Num(q1)), ("q3", Value::Num(q3))]);
            }
            Value::obj(fields)
        };
        let run = |trace: bool, metrics: Vec<(&str, Value)>| {
            Value::obj(vec![
                ("workload", Value::str("shuffle_agg")),
                ("trace", Value::Bool(trace)),
                ("failed", Value::Num(failed)),
                ("digest", Value::str(digest)),
                ("metrics", Value::obj(metrics)),
            ])
        };
        Value::obj(vec![(
            "runs",
            Value::Arr(vec![
                run(
                    false,
                    vec![
                        ("job_ms_p50", metric(p50.1, Some((p50.0, p50.2)))),
                        ("sim_done_us", metric(sim_done, None)),
                    ],
                ),
                run(
                    true,
                    vec![
                        ("netsim.events", metric(events, None)),
                        ("netsim.ns_per_event", metric(41.5, None)),
                    ],
                ),
            ]),
        )])
    }

    fn verdict_of<'a>(rows: &'a [Row], metric: &str) -> &'a Row {
        rows.iter()
            .find(|r| r.metric == metric)
            .unwrap_or_else(|| panic!("no row {metric}"))
    }

    #[test]
    fn a_ledger_compares_clean_against_itself_both_ways() {
        let a = ledger((355.0, 360.0, 366.0), 3051.5, 2.5e6, "0x01", 0.0);
        let b = ledger((357.0, 364.0, 369.0), 3051.5, 2.5e6, "0x01", 0.0);
        for (x, y) in [(&a, &b), (&b, &a)] {
            let rows = compare(x, y).unwrap();
            assert!(
                rows.iter().all(|r| r.verdict != Verdict::Breach),
                "{rows:?}"
            );
            assert_eq!(verdict_of(&rows, "job_ms_p50").verdict, Verdict::Within);
            assert_eq!(verdict_of(&rows, "sim_done_us").verdict, Verdict::Same);
            assert_eq!(verdict_of(&rows, "netsim.events").verdict, Verdict::Same);
            assert_eq!(
                verdict_of(&rows, "netsim.ns_per_event").verdict,
                Verdict::Info
            );
        }
    }

    #[test]
    fn bounds_apply_one_way_and_exact_metrics_both_ways() {
        let a = ledger((355.0, 360.0, 366.0), 3051.5, 2.5e6, "0x01", 0.0);
        let past = 360.0 * (1.0 + registry::end_to_end("job_ms_p50").unwrap().bound + 0.02);
        let slower = ledger((past - 5.0, past, past + 5.0), 3051.5, 2.5e6, "0x01", 0.0);
        assert_eq!(
            verdict_of(&compare(&a, &slower).unwrap(), "job_ms_p50").verdict,
            Verdict::Breach
        );
        assert_eq!(
            verdict_of(&compare(&slower, &a).unwrap(), "job_ms_p50").verdict,
            Verdict::Within
        );
        // A simulated time that moved at all is a breach, in either direction.
        let sooner = ledger((355.0, 360.0, 366.0), 3051.4, 2.5e6, "0x01", 0.0);
        assert_eq!(
            verdict_of(&compare(&a, &sooner).unwrap(), "sim_done_us").verdict,
            Verdict::Breach
        );
        assert_eq!(
            verdict_of(&compare(&sooner, &a).unwrap(), "sim_done_us").verdict,
            Verdict::Breach
        );
        let fewer = ledger((355.0, 360.0, 366.0), 3051.5, 2.4e6, "0x01", 0.0);
        assert_eq!(
            verdict_of(&compare(&a, &fewer).unwrap(), "netsim.events").verdict,
            Verdict::Breach
        );
    }

    #[test]
    fn wide_quartiles_are_unresolved_not_unchanged() {
        let a = ledger((355.0, 360.0, 366.0), 3051.5, 2.5e6, "0x01", 0.0);
        let noisy = ledger((300.0, 361.0, 420.0), 3051.5, 2.5e6, "0x01", 0.0);
        let rows = compare(&a, &noisy).unwrap();
        assert_eq!(verdict_of(&rows, "job_ms_p50").verdict, Verdict::Unresolved);
        assert!(rows.iter().all(|r| r.verdict != Verdict::Breach));
    }

    #[test]
    fn digests_failures_and_missing_runs_breach() {
        let a = ledger((355.0, 360.0, 366.0), 3051.5, 2.5e6, "0x01", 0.0);
        let other = ledger((355.0, 360.0, 366.0), 3051.5, 2.5e6, "0x02", 0.0);
        assert_eq!(
            verdict_of(&compare(&a, &other).unwrap(), "(result digest)").verdict,
            Verdict::Breach
        );
        let failing = ledger((355.0, 360.0, 366.0), 3051.5, 2.5e6, "0x01", 1.0);
        assert_eq!(
            verdict_of(&compare(&a, &failing).unwrap(), "(failed operations)").verdict,
            Verdict::Breach
        );
        assert_eq!(
            verdict_of(&compare(&failing, &a).unwrap(), "(failed operations)").verdict,
            Verdict::Same
        );
        let empty = Value::obj(vec![("runs", Value::Arr(Vec::new()))]);
        assert_eq!(
            verdict_of(&compare(&a, &empty).unwrap(), "(run)").verdict,
            Verdict::Breach
        );
        assert!(compare(&a, &Value::Null).is_err());
    }
}
