//! How a run's outcome is printed: a table for people, one `detail` line
//! for the ledger file, and last the line the benchmark contract asks for.

use crate::json::Value;
use crate::measure::{Metric, Outcome};
use crate::registry::{self, Better};
use crate::stats;

/// The contract's result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric a value and a unit.
pub fn contract_line(outcome: &Outcome) -> String {
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            let entry = Value::obj(vec![
                ("value", Value::Num(m.value)),
                ("unit", Value::str(m.unit)),
            ]);
            (m.name.to_string(), entry)
        })
        .collect();
    Value::obj(vec![
        ("correct", Value::Bool(outcome.correct())),
        ("attempted", Value::Num(outcome.attempted as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ])
    .render()
}

/// Everything `--compare` needs from one run. A digest does not fit a JSON
/// number, so it travels as hex.
pub fn detail(outcome: &Outcome) -> Value {
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            let mut fields = vec![("value", Value::Num(m.value)), ("unit", Value::str(m.unit))];
            if let Some((q1, q3)) = m.quartiles {
                fields.push(("q1", Value::Num(q1)));
                fields.push(("q3", Value::Num(q3)));
            }
            if m.samples > 0 {
                fields.push(("samples", Value::Num(m.samples as f64)));
            }
            (m.name.to_string(), Value::obj(fields))
        })
        .collect();
    Value::obj(vec![
        ("workload", Value::str(&outcome.request.workload)),
        ("seed", Value::Num(outcome.request.seed as f64)),
        ("trace", Value::Bool(outcome.request.trace)),
        ("correct", Value::Bool(outcome.correct())),
        ("attempted", Value::Num(outcome.attempted as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        ("digest", Value::Str(format!("{:#018x}", outcome.digest))),
        (
            "problems",
            Value::Arr(outcome.problems.iter().map(|p| Value::str(p)).collect()),
        ),
        ("metrics", Value::Obj(metrics)),
    ])
}

/// The prefix of the detail line in a run's output.
pub const DETAIL_PREFIX: &str = "detail ";

fn note(m: &Metric) -> String {
    match (m.name, m.quartiles) {
        ("job_ms_p90", _) => {
            let beyond = stats::beyond(m.samples, 90.0);
            let verdict = match stats::highest_supported_percentile(m.samples) {
                Some(pct) if pct >= 90.0 => String::new(),
                Some(pct) => format!(": tail unresolved, these samples support p{pct}"),
                None => ": tail unresolved".to_string(),
            };
            format!("{beyond} of {} samples beyond{verdict}", m.samples)
        }
        (_, Some((q1, q3))) => format!("quartiles {q1:.6} .. {q3:.6}, {} samples", m.samples),
        (name, None) => registry::PER_LAYER
            .iter()
            .find(|l| l.name == name)
            .map_or_else(String::new, |l| format!("moves {}", l.moves)),
    }
}

/// The whole output of one run, the contract's line last.
pub fn render(outcome: &Outcome) -> String {
    let r = &outcome.request;
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let mut out = format!(
        "# daiet-ledger {} seed={} seconds={} trace={} cores={cores}\n",
        r.workload,
        r.seed,
        r.seconds,
        u8::from(r.trace)
    );
    if let Some(w) = registry::workload(&r.workload) {
        out.push_str(&format!("# {}\n", w.why));
    }
    for m in &outcome.metrics {
        let better = registry::end_to_end(m.name)
            .map(|e| e.better)
            .or_else(|| {
                registry::PER_LAYER
                    .iter()
                    .find(|l| l.name == m.name)
                    .map(|l| l.better)
            })
            .map_or("", Better::as_str);
        out.push_str(&format!(
            "{:<14} {:<34} {:>18.6} {:<12} {:<6} {}\n",
            r.workload,
            m.name,
            m.value,
            m.unit,
            better,
            note(m)
        ));
    }
    out.push_str(&format!(
        "{:<14} operations: {} attempted, {} failed; result digest {:#018x}\n",
        r.workload, outcome.attempted, outcome.failed, outcome.digest
    ));
    for problem in &outcome.problems {
        out.push_str(&format!("{:<14} problem: {problem}\n", r.workload));
    }
    out.push_str(DETAIL_PREFIX);
    out.push_str(&detail(outcome).render());
    out.push('\n');
    out.push_str(&contract_line(outcome));
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::measure::Request;

    fn outcome() -> Outcome {
        Outcome {
            request: Request::new("shuffle_agg"),
            attempted: 27,
            failed: 0,
            problems: Vec::new(),
            metrics: vec![
                Metric {
                    name: "job_ms_p50",
                    unit: "ms",
                    value: 361.25,
                    quartiles: Some((355.0, 370.5)),
                    samples: 27,
                },
                Metric {
                    name: "job_ms_p90",
                    unit: "ms",
                    value: 380.0,
                    quartiles: None,
                    samples: 27,
                },
            ],
            digest: 0xfeed_face_cafe_beef,
        }
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_comes_last() {
        let o = outcome();
        let text = render(&o);
        let last = text.lines().last().unwrap();
        assert_eq!(last, contract_line(&o));
        let doc = json::parse(last).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").unwrap().as_bool(), Some(true));
        let p50 = doc.get("metrics").unwrap().get("job_ms_p50").unwrap();
        let keys: Vec<&str> = p50
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["value", "unit"]);
        assert_eq!(p50.get("value").unwrap().as_f64(), Some(361.25));
        assert!(text.contains("2 of 27 samples beyond: tail unresolved, these samples support p50"));
    }

    #[test]
    fn a_problem_makes_the_run_incorrect_and_the_digest_travels_as_hex() {
        let mut o = outcome();
        o.problems.push("the in-situ run is not the job".into());
        assert!(!o.correct());
        let text = render(&o);
        let line = text
            .lines()
            .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
            .unwrap();
        let doc = json::parse(line).unwrap();
        assert_eq!(
            doc.get("digest").unwrap().as_str(),
            Some("0xfeedfacecafebeef")
        );
        assert_eq!(doc.get("correct").unwrap().as_bool(), Some(false));
        assert_eq!(
            doc.get("metrics")
                .unwrap()
                .get("job_ms_p50")
                .unwrap()
                .get("q3")
                .unwrap()
                .as_f64(),
            Some(370.5)
        );
    }
}
