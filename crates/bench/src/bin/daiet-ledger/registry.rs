//! The names every later performance claim is made with: the workloads, the
//! end-to-end metrics with their bounds, and the per-layer metrics with the
//! end-to-end number each is expected to move. `BENCHMARK.json` at the
//! repository root repeats the names, units, directions and bounds; a test
//! below fails if the two ever differ.

/// Seconds one run measures for unless `--seconds` says otherwise; also
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 12;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "shuffle_agg",
        why: "Paper-scale fig3 WordCount aggregated in the switch: Algorithm 1's hit path, the parser and frame building do the work; the paper's headline configuration.",
    },
    Workload {
        name: "shuffle_fwd",
        why: "Same corpus, switches only forward: Algorithm 1 is bypassed, so the simulator, parser and reducer collector do the work; bare forwarding at the smallest frame.",
    },
    Workload {
        name: "shuffle_spill",
        why: "Same corpus on a quarter of the registers: Algorithm 1's collision, spillover and forced-flush branch, which the collision-free corpus never reaches otherwise.",
    },
    Workload {
        name: "shuffle_chaos",
        why: "Quarter-scale fig3 under seeded drop, duplicate and reorder on every link: the only workload where NACK recovery, dedup windows and retransmit rings do real work.",
    },
    Workload {
        name: "tenant_mix",
        why: "Twelve Poisson arrivals of WordCount, GROUP BY and SGD tenants on one leaf-spine fabric: admission, teardown, many short rounds and the tenants' own compute, not the packet path.",
    },
    Workload {
        name: "udp_shuffle",
        why: "A loadgen-shaped job over real loopback sockets, one thread per node: socket I/O, timer wheel, pacing sleeps and thread spawn; traffic crosses loopback, not a link.",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// A pure function of workload and seed: two runs of one seed must
    /// print the same value to the last digit, whatever the bound says.
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

/// Simulated and counted metrics repeat exactly at a fixed seed, and
/// `--compare` holds them to that. Their bound here only has to clear how
/// much they move from one seed's inputs to the next, which is what the
/// driver's spread check sees; `shuffle_chaos`, where the seed also draws
/// the faults, sets each of them.
const fn exact(name: &'static str, unit: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better: Better::Lower,
        bound,
        exact: true,
    }
}

/// Bounds are two to three times the widest spread seen over ten seeds on
/// the 2-core sandbox this was sized on, whose own speed steps by 7 % for
/// minutes at a time; the README has the measurements.
pub const END_TO_END: [EndToEnd; 8] = [
    timed("setup_s", "s", Better::Lower, 0.25),
    timed("pairs_per_s", "pairs/s", Better::Higher, 0.2),
    timed("job_ms_p50", "ms", Better::Lower, 0.2),
    timed("job_ms_p90", "ms", Better::Lower, 0.25),
    exact("sim_done_us", "sim_us", 0.08),
    exact("reducer_frames_per_kpair", "frames/kpair", 0.06),
    exact("reducer_bytes_per_pair", "B/pair", 0.02),
    timed("peak_rss_mb", "MB", Better::Lower, 0.08),
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload a change to this number should
    /// move; everywhere else the prediction is no change.
    pub moves: &'static str,
}

const fn cost(name: &'static str, unit: &'static str, moves: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
        moves,
    }
}

const fn count(name: &'static str, moves: &'static str) -> Layer {
    Layer {
        name,
        unit: "count",
        better: Better::Lower,
        moves,
    }
}

const fn higher(name: &'static str, unit: &'static str, moves: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
        moves,
    }
}

const SHUFFLES_BUILD: &str = "pairs_per_s on shuffle_fwd, shuffle_agg, shuffle_spill";
const ALG1_TIME: &str = "pairs_per_s on shuffle_agg, shuffle_spill; none on shuffle_fwd";
const ALG1_TRAFFIC: &str =
    "reducer_frames_per_kpair, reducer_bytes_per_pair on shuffle_agg, shuffle_spill";
const SCHED: &str = "pairs_per_s, sim_done_us on tenant_mix only";
const RECOVERY_TIME: &str = "pairs_per_s on shuffle_chaos only";
const RECOVERY_COUNT: &str = "sim_done_us, reducer_frames_per_kpair on shuffle_chaos";
const UDP_JOB: &str = "job_ms_p50, job_ms_p90, pairs_per_s on udp_shuffle";
const UDP_FAILS: &str = "failed operations on udp_shuffle";
const TENANT: &str = "pairs_per_s on tenant_mix (the share that is not fabric)";

pub const PER_LAYER: [Layer; 67] = [
    count("wire.frames_built", SHUFFLES_BUILD),
    cost("wire.build_ns_per_frame", "ns/frame", SHUFFLES_BUILD),
    cost(
        "wire.checksum_ns_per_frame",
        "ns/frame",
        "pairs_per_s on the shuffles, most on shuffle_fwd",
    ),
    cost("wire.crc32_ns_per_key", "ns/key", ALG1_TIME),
    cost(
        "dataplane.parse_ns_per_frame",
        "ns/frame",
        "pairs_per_s on shuffle_fwd most",
    ),
    count(
        "dataplane.parse_rejects",
        "pairs_per_s on shuffle_fwd most; must stay 0",
    ),
    cost(
        "dataplane.table_ns_per_lookup",
        "ns/lookup",
        "pairs_per_s on shuffle_fwd",
    ),
    cost(
        "dataplane.switch_ns_per_frame",
        "ns/frame",
        "pairs_per_s on all four shuffles",
    ),
    count(
        "dataplane.switch_frames_in",
        "pairs_per_s on all four shuffles",
    ),
    count(
        "dataplane.switch_frames_out",
        "pairs_per_s on all four shuffles",
    ),
    count(
        "dataplane.recirculations",
        "pairs_per_s on all four shuffles",
    ),
    cost("core.alg1_ns_per_pair", "ns/pair", ALG1_TIME),
    count("core.alg1_pairs_in", ALG1_TRAFFIC),
    higher("core.alg1_hit_ratio", "ratio", ALG1_TRAFFIC),
    count("core.alg1_collisions", ALG1_TRAFFIC),
    count("core.alg1_spill_flushes", ALG1_TRAFFIC),
    count("core.alg1_pairs_out", ALG1_TRAFFIC),
    cost(
        "core.flush_ns_per_frame",
        "ns/frame",
        "pairs_per_s on shuffle_spill, tenant_mix",
    ),
    count("core.sender_frames", "pairs_per_s on every workload"),
    cost(
        "core.sender_ns_per_frame",
        "ns/frame",
        "pairs_per_s on shuffles; job_ms_p50 on udp_shuffle",
    ),
    count(
        "core.reducer_frames",
        "reducer_frames_per_kpair on every workload",
    ),
    cost(
        "core.reducer_ns_per_frame",
        "ns/frame",
        "pairs_per_s on shuffle_fwd, shuffle_spill; little on shuffle_agg",
    ),
    cost(
        "core.collector_ns_per_pair",
        "ns/pair",
        "pairs_per_s on shuffle_fwd, shuffle_spill; little on shuffle_agg",
    ),
    cost(
        "core.deploy_us",
        "us",
        "pairs_per_s on shuffle_chaos; job_ms_p50 on udp_shuffle",
    ),
    cost("core.sched_build_us", "us", SCHED),
    cost("core.sched_admit_us", "us", SCHED),
    cost("core.sched_depart_us", "us", SCHED),
    cost("core.sched_begin_round_us", "us", SCHED),
    cost("core.sched_collect_round_us", "us", SCHED),
    count("core.sched_rejections", SCHED),
    count("core.sched_rounds", SCHED),
    cost("core.flowrecv_ns_per_note", "ns/note", RECOVERY_TIME),
    cost("core.nacktracker_ns_per_note", "ns/note", RECOVERY_TIME),
    cost("core.dedup_ns_per_accept", "ns/accept", RECOVERY_TIME),
    cost("core.rtx_ns_per_record", "ns/record", RECOVERY_TIME),
    cost("core.rtx_ns_per_replayed_frame", "ns/frame", RECOVERY_TIME),
    count("core.nacks_emitted", RECOVERY_COUNT),
    count("core.frames_replayed", RECOVERY_COUNT),
    count("core.dups_suppressed", RECOVERY_COUNT),
    count(
        "netsim.events",
        "pairs_per_s on shuffle_fwd most, then every sim workload",
    ),
    cost(
        "netsim.ns_per_event",
        "ns/event",
        "pairs_per_s on shuffle_fwd most, then every sim workload",
    ),
    cost(
        "netsim.evq_ns_per_op",
        "ns/op",
        "through netsim.ns_per_event",
    ),
    count(
        "netsim.fault_drops",
        "sim_done_us on shuffle_chaos; must be 0 elsewhere",
    ),
    count(
        "netsim.overflow_drops",
        "sim_done_us on shuffle_chaos; must be 0 elsewhere",
    ),
    cost(
        "fabric.pool_ns_per_cycle",
        "ns/cycle",
        "pairs_per_s everywhere a little",
    ),
    higher(
        "fabric.pool_reuse_ratio",
        "ratio",
        "pairs_per_s everywhere a little; peak_rss_mb",
    ),
    cost(
        "fabric.wheel_ns_per_timer",
        "ns/timer",
        "job_ms_p50 on udp_shuffle",
    ),
    cost(
        "fabric.udp_ns_per_datagram",
        "ns/datagram",
        "fabric.udp_cpu_us_per_frame, then pairs_per_s on udp_shuffle once pacing stops dominating",
    ),
    cost("fabric.udp_cpu_us_per_frame", "us/frame", UDP_JOB),
    cost("fabric.udp_pace_lag_us_per_frame", "us/frame", UDP_JOB),
    cost("fabric.udp_spawn_ms", "ms", UDP_JOB),
    count("fabric.udp_frames_out", UDP_FAILS),
    count("fabric.udp_timers_fired", UDP_FAILS),
    count("fabric.udp_send_errors", UDP_FAILS),
    count("fabric.udp_unknown_peer", UDP_FAILS),
    cost("mapreduce.corpus_gen_ms", "ms", "setup_s"),
    cost(
        "mapreduce.to_pairs_ns_per_record",
        "ns/record",
        "pairs_per_s on shuffles",
    ),
    cost("mapreduce.shards_ms", "ms", TENANT),
    cost("querysim.shards_ms", "ms", TENANT),
    cost("mlsim.shards_ms", "ms", TENANT),
    cost("mapreduce.absorb_verify_ms", "ms", TENANT),
    cost("querysim.absorb_verify_ms", "ms", TENANT),
    cost("mlsim.absorb_verify_ms", "ms", TENANT),
    higher(
        "attrib.explained_pct",
        "pct",
        "none: the check that the table sums",
    ),
    cost(
        "attrib.residual_ms",
        "ms",
        "none: the part of a job no row explains",
    ),
    cost(
        "attrib.job_ms",
        "ms",
        "none: the job wall the two rows above are shares of",
    ),
    cost(
        "trace.overhead_pct",
        "pct",
        "none: traced job wall against untraced",
    ),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use std::collections::BTreeSet;

    /// The contract's rule for a workload or metric name.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// The contract's rule for a unit.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    /// `BENCHMARK.json` sits at the repository root: some directories above
    /// this package, whichever package is building this file.
    fn benchmark_json() -> Value {
        let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        loop {
            let candidate = dir.join("BENCHMARK.json");
            if candidate.is_file() {
                let text = std::fs::read_to_string(&candidate).expect("readable BENCHMARK.json");
                return json::parse(&text).expect("BENCHMARK.json parses");
            }
            assert!(
                dir.pop(),
                "no BENCHMARK.json above {}",
                env!("CARGO_MANIFEST_DIR")
            );
        }
    }

    fn str_of<'a>(entry: &'a Value, key: &str) -> &'a str {
        entry
            .get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("{key} missing in {entry:?}"))
    }

    fn keys_of(entry: &Value) -> Vec<&str> {
        entry
            .as_obj()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect()
    }

    #[test]
    fn names_and_units_follow_the_contract_and_are_used_once() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(valid_unit(unit), "{unit}");
        }
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128);
        assert!(
            !valid_name(".x") && !valid_name("") && !valid_name("a b") && valid_name("9a.b-c_d")
        );
        assert!(
            !valid_unit("")
                && !valid_unit("a b")
                && !valid_unit("seventeen-letters")
                && valid_unit("1/s")
        );
    }

    #[test]
    fn benchmark_json_lists_exactly_this_registry() {
        let doc = benchmark_json();
        assert_eq!(
            keys_of(&doc),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(RUN_SECONDS as f64)
        );
        let paths = doc.get("paths").and_then(Value::as_arr).expect("paths");
        assert_eq!(paths, [Value::str("crates/bench/src/bin/daiet-ledger")]);

        let workloads = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (entry, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(keys_of(entry), ["name", "why"]);
            assert_eq!(
                (str_of(entry, "name"), str_of(entry, "why")),
                (w.name, w.why)
            );
        }

        let e2e = doc
            .get("end_to_end")
            .and_then(Value::as_arr)
            .expect("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(keys_of(entry), ["name", "unit", "better", "bound"]);
            assert_eq!(str_of(entry, "name"), m.name);
            assert_eq!(str_of(entry, "unit"), m.unit, "{}", m.name);
            assert_eq!(str_of(entry, "better"), m.better.as_str(), "{}", m.name);
            assert_eq!(
                entry.get("bound").and_then(Value::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
        }
        let setup = end_to_end("setup_s").expect("the contract requires setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );

        let layers = doc
            .get("per_layer")
            .and_then(Value::as_arr)
            .expect("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(keys_of(entry), ["name", "unit", "better"]);
            assert_eq!(str_of(entry, "name"), m.name);
            assert_eq!(str_of(entry, "unit"), m.unit, "{}", m.name);
            assert_eq!(str_of(entry, "better"), m.better.as_str(), "{}", m.name);
        }
    }

    /// Prints `BENCHMARK.json` from the registry, for pasting after a
    /// registry edit: `cargo test print_benchmark_json -- --ignored --nocapture`.
    #[test]
    #[ignore = "a generator, not a check"]
    fn print_benchmark_json() {
        let entry = |fields: Vec<(&str, Value)>| format!("    {}", Value::obj(fields).render());
        let block = |rows: Vec<String>| rows.join(",\n");
        println!("{{");
        println!("  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"crates/bench/src/bin/daiet-ledger/Cargo.toml\", \"--\"],");
        println!("  \"paths\": [\"crates/bench/src/bin/daiet-ledger\"],");
        println!("  \"run_seconds\": {RUN_SECONDS},");
        println!(
            "  \"workloads\": [\n{}\n  ],",
            block(
                WORKLOADS
                    .iter()
                    .map(|w| entry(vec![
                        ("name", Value::str(w.name)),
                        ("why", Value::str(w.why))
                    ]))
                    .collect()
            )
        );
        println!(
            "  \"end_to_end\": [\n{}\n  ],",
            block(
                END_TO_END
                    .iter()
                    .map(|m| entry(vec![
                        ("name", Value::str(m.name)),
                        ("unit", Value::str(m.unit)),
                        ("better", Value::str(m.better.as_str())),
                        ("bound", Value::Num(m.bound))
                    ]))
                    .collect()
            )
        );
        println!(
            "  \"per_layer\": [\n{}\n  ]",
            block(
                PER_LAYER
                    .iter()
                    .map(|m| entry(vec![
                        ("name", Value::str(m.name)),
                        ("unit", Value::str(m.unit)),
                        ("better", Value::str(m.better.as_str()))
                    ]))
                    .collect()
            )
        );
        println!("}}");
    }
}
