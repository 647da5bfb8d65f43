//! One run of one workload: the untraced pass that yields the end-to-end
//! metrics, and the separate traced pass that yields the per-layer ones.

use crate::host;
use crate::job::{Backend, Round};
use crate::probes::{self, Probes};
use crate::registry::{self, RUN_SECONDS};
use crate::simrun::InSitu;
use crate::span::Trace;
use crate::stats::{self, Summary};
use crate::tenants::{self, MixInputs, MixShape, Probed, SchedTimes, SharedTally, KINDS};
use crate::udp;
use crate::workload::{self, Facts, Instance, Scale};
use daiet::AggFn;
use daiet_fabric::FramePool;
use daiet_mapreduce::{serialize, Corpus};
use daiet_wire::daiet::Pair;
use std::collections::BTreeMap;

/// What a run is asked to do.
#[derive(Debug, Clone)]
pub struct Request {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    pub trace: bool,
    /// Where the traced pass writes its span tree; `None` writes nothing.
    pub trace_out: Option<std::path::PathBuf>,
}

impl Request {
    pub fn new(workload: &str) -> Request {
        Request {
            workload: workload.to_string(),
            seed: 42,
            seconds: RUN_SECONDS as f64,
            scale: Scale::Full,
            trace: false,
            trace_out: None,
        }
    }
}

/// One printed metric. Quartiles and sample count accompany a value that
/// is the median of per-job samples.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub quartiles: Option<(f64, f64)>,
    pub samples: usize,
}

impl Metric {
    fn plain(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            quartiles: None,
            samples: 0,
        }
    }
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub request: Request,
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed or a cross-check did not hold.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    pub digest: u64,
}

impl Outcome {
    fn start(request: &Request, warm: &Facts) -> Outcome {
        Outcome {
            request: request.clone(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: Vec::new(),
            digest: warm.digest,
        }
    }

    /// Counts one job, and records why if it failed or did not repeat the
    /// warm-up's facts. Returns whether it counts as completed.
    fn count_job(&mut self, result: Result<Facts, String>, warm: &Facts) -> bool {
        self.attempted += 1;
        let problem = match result {
            Ok(facts) if facts == *warm => return true,
            Ok(facts) => format!("gave {facts:?}, the warm-up {warm:?}"),
            Err(e) => e,
        };
        self.failed += 1;
        self.problems
            .push(format!("job {}: {problem}", self.attempted));
        false
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Set-up is executed this many times from scratch; `setup_s` is the median.
const SETUPS: usize = 3;

/// Timed jobs every run completes however short `--seconds` is.
fn min_jobs(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 15,
        Scale::Smoke => 3,
    }
}

/// A run whose every job fails stops after this many.
const GIVE_UP_AFTER: u64 = 20;

pub fn run(request: &Request) -> Result<Outcome, String> {
    if request.trace {
        traced(request)
    } else {
        untraced(request)
    }
}

fn end_to_end_unit(name: &str) -> &'static str {
    registry::end_to_end(name)
        .expect("a registered end-to-end metric")
        .unit
}

fn untraced(request: &Request) -> Result<Outcome, String> {
    let name = request.workload.as_str();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut ready: Option<(Box<dyn Instance>, Facts)> = None;
    for _ in 0..SETUPS {
        // Free the previous instance first: peak memory is one instance's.
        drop(ready.take());
        let start = host::now();
        let mut instance = workload::setup(name, request.seed, request.scale)?;
        let warm = instance
            .rep()
            .map_err(|e| format!("warm-up job failed: {e}"))?;
        setup_s.push(host::secs_since(start));
        ready = Some((instance, warm));
    }
    let (mut instance, warm) = ready.expect("SETUPS is at least one");

    let mut outcome = Outcome::start(request, &warm);
    let mut walls = Vec::new();
    let start = host::now();
    while outcome.attempted < min_jobs(request.scale) || host::secs_since(start) < request.seconds {
        let job = host::now();
        let result = instance.rep();
        let wall = host::secs_since(job);
        if outcome.count_job(result, &warm) {
            walls.push(wall);
        }
        if walls.is_empty() && outcome.failed >= GIVE_UP_AFTER {
            return Err(format!(
                "every job failed; the last: {}",
                outcome.problems.last().map_or("", String::as_str)
            ));
        }
    }
    if walls.is_empty() {
        return Err("no job completed".into());
    }

    let wall = Summary::of(&walls);
    let pairs = warm.input_pairs as f64;
    let [setup_q1, setup, setup_q3] = stats::quartiles(&setup_s);
    let sampled = |name: &'static str, value: f64, q1: f64, q3: f64, n: usize| Metric {
        name,
        unit: end_to_end_unit(name),
        value,
        quartiles: Some((q1, q3)),
        samples: n,
    };
    let plain = |name: &'static str, value: f64| Metric::plain(name, end_to_end_unit(name), value);
    outcome.metrics = vec![
        sampled("setup_s", setup, setup_q1, setup_q3, SETUPS),
        // Faster jobs are the lower quartile of wall, the upper of rate.
        sampled(
            "pairs_per_s",
            pairs / wall.median,
            pairs / wall.q3,
            pairs / wall.q1,
            wall.n,
        ),
        sampled(
            "job_ms_p50",
            wall.median * 1e3,
            wall.q1 * 1e3,
            wall.q3 * 1e3,
            wall.n,
        ),
        Metric {
            samples: wall.n,
            ..plain("job_ms_p90", wall.p90 * 1e3)
        },
        plain("sim_done_us", warm.sim_done_ns as f64 / 1e3),
        plain(
            "reducer_frames_per_kpair",
            warm.reducer_frames as f64 * 1e3 / pairs,
        ),
        plain(
            "reducer_bytes_per_pair",
            warm.reducer_app_bytes as f64 / pairs,
        ),
        plain("peak_rss_mb", host::peak_rss_mb()?),
    ];
    Ok(outcome)
}

/// Jobs the traced pass runs each way (plain and instrumented) to price the
/// instrumentation and to have a job wall for the attribution.
fn traced_job_pairs(scale: Scale) -> usize {
    match scale {
        Scale::Full => 3,
        Scale::Smoke => 1,
    }
}

/// A sim workload lends the socket probes its first pairs, cycled to one
/// loadgen job's length. Few distinct keys, many pairs: the switch's
/// END-time flush must stay a burst a loopback socket buffer can hold.
const UDP_SAMPLE_KEYS: usize = 512;
const UDP_SAMPLE_PAIRS: usize = 9_600;

/// What the socket backend costs on (a sample of) the workload's pairs.
#[derive(Default)]
struct UdpCosts {
    cpu_us_per_frame: f64,
    lag_us_per_frame: f64,
    spawn_ms: f64,
    worker_frames: u64,
    frames_out: u64,
    timers_fired: u64,
    send_errors: u64,
    unknown_peer: u64,
}

fn udp_costs(config: daiet::DaietConfig, pairs: &[Pair], jobs: usize) -> Result<UdpCosts, String> {
    let reference = Round {
        aggs: vec![AggFn::Sum],
        shards: vec![vec![pairs.to_vec()]],
    }
    .reference()
    .remove(0);
    let mut lags = Vec::new();
    let mut costs = UdpCosts::default();
    let (mut datagrams, mut cpu_ns) = (0u64, 0u64);
    for _ in 0..jobs {
        let run = udp::run_job(config, pairs)?;
        if run.result != reference {
            return Err("a socket job's pairs differ from the host reference".into());
        }
        let paced = run.worker.frames_out as f64;
        lags.push((run.wall_s - paced * udp::PACING.as_secs_f64()) / paced * 1e6);
        datagrams += run.total.frames_out;
        cpu_ns += run.cpu_ns;
        costs.worker_frames = run.worker.frames_out;
        costs.frames_out = run.total.frames_out;
        costs.timers_fired = run.total.timers_fired;
        costs.send_errors += run.total.send_errors;
        costs.unknown_peer += run.total.unknown_peer;
    }
    costs.cpu_us_per_frame = cpu_ns as f64 / 1e3 / datagrams as f64;
    costs.lag_us_per_frame = stats::median(&lags);
    // An empty job is three threads, three sockets, one END each way.
    let spawns: Result<Vec<f64>, String> = (0..jobs)
        .map(|_| udp::run_job(config, &[]).map(|r| r.wall_s * 1e3))
        .collect();
    costs.spawn_ms = stats::median(&spawns?);
    Ok(costs)
}

fn traced(request: &Request) -> Result<Outcome, String> {
    let name = request.workload.as_str();
    let scale = request.scale;
    let mut trace = Trace::new();
    let root = trace.enter(name);

    let span = trace.enter("setup");
    let mut instance = workload::setup(name, request.seed, scale)?;
    let warm = instance
        .rep()
        .map_err(|e| format!("warm-up job failed: {e}"))?;
    trace.exit(span, 1);
    let mut outcome = Outcome::start(request, &warm);

    // The real job, alternately plain and with the decorators on (only the
    // mix has any): the job wall the attribution explains, and what the
    // instrumentation costs.
    let tally = SharedTally::default();
    let (mut plain, mut instrumented) = (Vec::new(), Vec::new());
    let n = traced_job_pairs(scale);
    for _ in 0..n {
        let start = host::now();
        let result = instance.rep();
        plain.push(host::secs_since(start));
        outcome.count_job(result, &warm);

        let span = trace.enter("job");
        let start = host::now();
        let result = instance.rep_traced(&tally);
        instrumented.push(host::secs_since(start));
        trace.exit(span, warm.input_pairs);
        outcome.count_job(result, &warm);
    }
    let job_ms = stats::median(&plain) * 1e3;
    let overhead_pct =
        (stats::median(&instrumented) - stats::median(&plain)) / stats::median(&plain) * 100.0;

    let job = instance.job()?;
    if job.pairs() != warm.input_pairs {
        outcome.problems.push(format!(
            "the probes see {} pairs, the job {}",
            job.pairs(),
            warm.input_pairs
        ));
    }

    let pool = FramePool::new();
    let span = trace.enter("in_situ");
    let (situ, situ_digest) = instance.in_situ(&job, &pool)?;
    trace.exit(span, situ.events);
    if situ_digest != warm.digest {
        outcome
            .problems
            .push("the in-situ run's result digest differs from the job's".into());
    }
    if (
        situ.sim_done_ns,
        situ.reducer_frames,
        situ.reducer_app_bytes,
    ) != (
        warm.sim_done_ns,
        warm.reducer_frames,
        warm.reducer_app_bytes,
    ) {
        outcome.problems.push(format!(
            "the in-situ run is not the job: done at {} ns with {} frames, {} bytes at the reducers; the job {} ns, {}, {}",
            situ.sim_done_ns, situ.reducer_frames, situ.reducer_app_bytes,
            warm.sim_done_ns, warm.reducer_frames, warm.reducer_app_bytes
        ));
    }

    let span = trace.enter("probes");
    let probed = probes::run(
        &job,
        situ.mean_queue_occupancy(&job.link),
        &pool,
        &mut trace,
    )?;
    trace.exit(span, probed.build.items);

    // One tenant of each kind alone on an empty fabric: the scheduler's own
    // calls, and the tenant's compute where the workload has no tenants.
    let span = trace.enter("sched_solo");
    let shape = match scale {
        Scale::Full => MixShape::FULL,
        Scale::Smoke => MixShape::SMOKE,
    };
    let inputs = MixInputs::generate(
        MixShape {
            jobs_per_kind: 1,
            ..shape
        },
        request.seed,
    );
    let solo_tally = SharedTally::default();
    let mut sched = SchedTimes::default();
    for kind in 0..KINDS.len() {
        let mut tenant = Probed::new(inputs.solo(kind), kind, &solo_tally);
        tenants::drive_solo(
            tenants::fabric(&shape, request.seed),
            &mut tenant,
            &mut sched,
        )?;
    }
    trace.exit(span, KINDS.len() as u64);
    // Milliseconds per tenant of each kind: in the mix where there is one.
    let tenant_ms = |ns: [f64; 3], tenants: usize| ns.map(|v| v / 1e6 / tenants as f64);
    let (shards_ms, absorb_verify_ms) = if job.backend == Backend::Scheduler {
        let t = tally.borrow();
        let tenants = n * shape.jobs_per_kind;
        (
            tenant_ms(t.shards_ns, tenants),
            tenant_ms(t.absorb_verify_ns, tenants),
        )
    } else {
        let t = solo_tally.borrow();
        (tenant_ms(t.shards_ns, 1), tenant_ms(t.absorb_verify_ns, 1))
    };

    let span = trace.enter("udp_jobs");
    let sample: Vec<Pair> = job.rounds[0]
        .shards
        .iter()
        .flatten()
        .find(|s| !s.is_empty())
        .map(|s| {
            s.iter()
                .take(UDP_SAMPLE_KEYS)
                .cycle()
                .take(UDP_SAMPLE_PAIRS)
                .copied()
                .collect()
        })
        .unwrap_or_default();
    let sockets = if job.backend == Backend::Sockets {
        udp_costs(job.config, &job.rounds[0].shards[0][0], 2 * n - 1)?
    } else {
        udp_costs(udp::config(job.config.register_cells), &sample, 2 * n - 1)?
    };
    trace.exit(span, sockets.frames_out);

    let spec = instance.corpus_spec();
    let (corpus, corpus_ns) =
        trace.measure("mapreduce.corpus_gen", || (Corpus::generate(&spec), 1));
    let records = corpus.total_records() as u64;
    let ((), to_pairs_ns) = trace.measure("mapreduce.to_pairs", || {
        for partition in corpus.partitions.iter().flatten() {
            std::hint::black_box(serialize::to_pairs(partition));
        }
        ((), records)
    });
    let to_pairs_ns_per_record = to_pairs_ns / records.max(1) as f64;
    drop(corpus);

    let explained_ms = explain(&Explain {
        backend: job.backend,
        situ: &situ,
        probed: &probed,
        sched: &sched,
        pairs: warm.input_pairs,
        to_pairs_ns_per_record,
        tenant_ms_per_job: (0..KINDS.len())
            .map(|k| (shards_ms[k] + absorb_verify_ms[k]) * shape.jobs_per_kind as f64)
            .sum(),
        sockets: &sockets,
    });
    trace.exit(root, warm.input_pairs);

    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let e = &situ.engine;
    let values: BTreeMap<&str, f64> = BTreeMap::from([
        ("wire.frames_built", probed.build.items as f64),
        ("wire.build_ns_per_frame", probed.build.per_item()),
        ("wire.checksum_ns_per_frame", probed.checksum.per_item()),
        ("wire.crc32_ns_per_key", probed.crc32.per_item()),
        ("dataplane.parse_ns_per_frame", probed.parse.per_item()),
        (
            "dataplane.parse_rejects",
            (situ.switch.parse_errors + situ.switch.checksum_drops) as f64,
        ),
        ("dataplane.table_ns_per_lookup", probed.table.per_item()),
        ("dataplane.switch_ns_per_frame", probed.switch.per_item()),
        ("dataplane.switch_frames_in", situ.switch.packets_in as f64),
        (
            "dataplane.switch_frames_out",
            (situ.switch.forwarded + situ.switch.extern_emissions) as f64,
        ),
        (
            "dataplane.recirculations",
            situ.switch.recirculations as f64,
        ),
        ("core.alg1_ns_per_pair", probed.alg1.per_item()),
        ("core.alg1_pairs_in", e.pairs_in as f64),
        (
            "core.alg1_hit_ratio",
            ratio(e.pairs_inserted + e.pairs_aggregated, e.pairs_in),
        ),
        ("core.alg1_collisions", e.collisions as f64),
        ("core.alg1_spill_flushes", e.spill_flushes as f64),
        ("core.alg1_pairs_out", e.pairs_out as f64),
        ("core.flush_ns_per_frame", probed.flush.per_item()),
        ("core.sender_frames", situ.sender_frames as f64),
        ("core.sender_ns_per_frame", probed.sender.per_item()),
        ("core.reducer_frames", situ.reducer_frames as f64),
        ("core.reducer_ns_per_frame", probed.reducer.per_item()),
        ("core.collector_ns_per_pair", probed.collector.per_item()),
        ("core.deploy_us", stats::median(&probed.deploy_us)),
        ("core.sched_build_us", stats::median(&sched.build_us)),
        ("core.sched_admit_us", stats::median(&sched.admit_us)),
        ("core.sched_depart_us", stats::median(&sched.depart_us)),
        (
            "core.sched_begin_round_us",
            stats::median(&sched.begin_round_us),
        ),
        (
            "core.sched_collect_round_us",
            stats::median(&sched.collect_round_us),
        ),
        ("core.sched_rejections", situ.rejections as f64),
        ("core.sched_rounds", situ.rounds as f64),
        ("core.flowrecv_ns_per_note", probed.flowrecv.per_item()),
        (
            "core.nacktracker_ns_per_note",
            probed.nacktracker.per_item(),
        ),
        ("core.dedup_ns_per_accept", probed.dedup.per_item()),
        ("core.rtx_ns_per_record", probed.rtx_record.per_item()),
        (
            "core.rtx_ns_per_replayed_frame",
            probed.rtx_replay.per_item(),
        ),
        ("core.nacks_emitted", situ.nacks() as f64),
        ("core.frames_replayed", situ.replays() as f64),
        ("core.dups_suppressed", situ.dups() as f64),
        ("netsim.events", situ.events as f64),
        ("netsim.ns_per_event", probed.null_sim.per_item()),
        ("netsim.evq_ns_per_op", probed.evq.per_item()),
        ("netsim.fault_drops", situ.fault_drops as f64),
        ("netsim.overflow_drops", situ.overflow_drops as f64),
        ("fabric.pool_ns_per_cycle", probed.pool.per_item()),
        (
            "fabric.pool_reuse_ratio",
            ratio(situ.pool.reused, situ.pool.reused + situ.pool.fresh),
        ),
        ("fabric.wheel_ns_per_timer", probed.wheel.per_item()),
        ("fabric.udp_ns_per_datagram", probed.relay_ns_per_datagram),
        ("fabric.udp_cpu_us_per_frame", sockets.cpu_us_per_frame),
        ("fabric.udp_pace_lag_us_per_frame", sockets.lag_us_per_frame),
        ("fabric.udp_spawn_ms", sockets.spawn_ms),
        ("fabric.udp_frames_out", sockets.frames_out as f64),
        ("fabric.udp_timers_fired", sockets.timers_fired as f64),
        ("fabric.udp_send_errors", sockets.send_errors as f64),
        ("fabric.udp_unknown_peer", sockets.unknown_peer as f64),
        ("mapreduce.corpus_gen_ms", corpus_ns / 1e6),
        ("mapreduce.to_pairs_ns_per_record", to_pairs_ns_per_record),
        ("mapreduce.shards_ms", shards_ms[0]),
        ("querysim.shards_ms", shards_ms[1]),
        ("mlsim.shards_ms", shards_ms[2]),
        ("mapreduce.absorb_verify_ms", absorb_verify_ms[0]),
        ("querysim.absorb_verify_ms", absorb_verify_ms[1]),
        ("mlsim.absorb_verify_ms", absorb_verify_ms[2]),
        ("attrib.explained_pct", explained_ms / job_ms * 100.0),
        ("attrib.residual_ms", job_ms - explained_ms),
        ("attrib.job_ms", job_ms),
        ("trace.overhead_pct", overhead_pct),
    ]);
    for layer in &registry::PER_LAYER {
        let value = *values
            .get(layer.name)
            .ok_or_else(|| format!("the traced pass did not measure {}", layer.name))?;
        outcome
            .metrics
            .push(Metric::plain(layer.name, layer.unit, value));
    }

    if let Some(path) = &request.trace_out {
        let doc = crate::json::Value::obj(vec![
            ("workload", crate::json::Value::str(name)),
            ("seed", crate::json::Value::Num(request.seed as f64)),
            ("spans", trace.to_json()),
        ]);
        std::fs::write(path, doc.render() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(outcome)
}

/// The inputs of the attribution: every layer cost with the in-situ count
/// it applies to.
struct Explain<'a> {
    backend: Backend,
    situ: &'a InSitu,
    probed: &'a Probes,
    sched: &'a SchedTimes,
    pairs: u64,
    to_pairs_ns_per_record: f64,
    tenant_ms_per_job: f64,
    sockets: &'a UdpCosts,
}

/// Milliseconds of one job the layer table accounts for: each cost times
/// the number of times the job incurred it, with no fitted factor. The
/// switch row already holds its parser, tables and Algorithm 1, and the
/// reducer row its collector, so those are not added again.
fn explain(x: &Explain) -> f64 {
    let (situ, probed, sched) = (x.situ, x.probed, x.sched);
    if x.backend == Backend::Sockets {
        // The job sleeps between frames: its wall is the paced schedule
        // plus bringing the threads up; CPU rows would count time the
        // pacing already covers.
        let paced_ms = x.sockets.worker_frames as f64 * udp::PACING.as_secs_f64() * 1e3;
        return paced_ms + x.sockets.spawn_ms + stats::median(&probed.deploy_us) / 1e3;
    }
    let frames_ns = probed.build.per_item() * situ.sender_frames as f64
        + probed.sender.per_item() * situ.sender_frames as f64
        + probed.switch.per_item() * situ.switch.packets_in as f64
        + probed.reducer.per_item() * situ.reducer_frames as f64
        + probed.null_sim.per_item() * situ.events as f64
        + situ.extract_ns;
    let control_us = if x.backend == Backend::Scheduler {
        stats::median(&sched.build_us)
            + situ.jobs as f64 * (stats::median(&sched.admit_us) + stats::median(&sched.depart_us))
            + situ.rounds as f64
                * (stats::median(&sched.begin_round_us) + stats::median(&sched.collect_round_us))
    } else {
        stats::median(&probed.deploy_us) * situ.jobs as f64
    };
    // The shuffle runner converts its records to pairs inside every job;
    // the mix's tenants do their own conversion inside `shards`.
    let inputs_ms = if x.backend == Backend::Scheduler {
        x.tenant_ms_per_job
    } else {
        x.to_pairs_ns_per_record * x.pairs as f64 / 1e6
    };
    frames_ns / 1e6 + control_us / 1e3 + inputs_ms
}
