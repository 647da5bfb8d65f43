//! Multi-tenant contention: aggregate throughput and per-job slowdown.
//!
//! Runs the three-way tenant mix (WordCount + GROUP BY + iterative SGD,
//! deterministic Poisson arrivals) over one shared leaf-spine fabric and
//! compares each job against the same job run solo on an empty fabric.
//! The figure is in **simulated** time over a pool of arrival seeds,
//! each point printed as the mean with `[min .. max]`: aggregate result
//! throughput of the mix and each job's request-to-finish slowdown vs
//! its solo baseline.
//!
//! Every run is digest-checked against its solo twin: a fabric that goes
//! fast by corrupting a tenant's results doesn't get to look fast.
//!
//! ```text
//! cargo run -p daiet-bench --release --bin fig_multitenant
//! ```

use daiet::tenant::{
    poisson_offsets, run_mix, run_solo, JobScheduler, MixOptions, TenantSpec, TenantWorkload,
};
use daiet::DaietConfig;
use daiet_bench::SeedPool;
use daiet_fabric::Duration;
use daiet_mapreduce::WordCountTenant;
use daiet_mlsim::SgdTenant;
use daiet_netsim::{LinkSpec, TopologyPlan};
use daiet_querysim::GroupByTenant;

/// Arrival seeds each point pools over — each draws an independent
/// Poisson arrival process (and workload inputs).
const ARRIVAL_SEEDS: [u64; 5] = [11, 12, 13, 14, 15];

const KINDS: [&str; 3] = ["wordcount", "groupby", "sgd"];

fn make(kind: &str, seed: u64) -> Box<dyn TenantWorkload> {
    match kind {
        "wordcount" => Box::new(WordCountTenant::tiny(seed)),
        "groupby" => Box::new(GroupByTenant::tiny(seed.wrapping_add(1))),
        "sgd" => Box::new(SgdTenant::tiny(seed.wrapping_add(2))),
        other => panic!("unknown workload kind {other}"),
    }
}

/// The shared fabric: a 4-leaf/2-spine pod with room for all three tiny
/// workloads concurrently (11 senders + 6 reducers at peak).
fn fabric_sched() -> JobScheduler {
    let link = LinkSpec::fast().with_queue_bytes(4 * 1024 * 1024);
    let plan = TopologyPlan::leaf_spine(5, 4, 2, link);
    let hosts = plan.hosts();
    let senders = hosts[..12].to_vec();
    let reducers = hosts[12..18].to_vec();
    JobScheduler::build(TenantSpec::new(DaietConfig::default(), plan, senders, reducers))
        .expect("tenant fabric must build")
}

struct MixPoint {
    /// Result pairs per simulated second across the whole mix.
    throughput: f64,
    /// Per-kind request-to-finish latency in the mix, seconds.
    mixed_latency: [f64; 3],
    /// Per-kind digest in the mix (checked against solo).
    digests: [u64; 3],
}

fn run_one_mix(seed: u64) -> MixPoint {
    let mut sched = fabric_sched();
    let offsets = poisson_offsets(seed, Duration::from_micros(30), KINDS.len());
    let arrivals: Vec<(Duration, Box<dyn TenantWorkload>)> = KINDS
        .iter()
        .zip(&offsets)
        .map(|(&k, &off)| (off, make(k, seed)))
        .collect();
    let out = run_mix(&mut sched, arrivals, &MixOptions::default()).expect("mix must complete");
    let mut mixed_latency = [0.0; 3];
    let mut digests = [0u64; 3];
    for (i, job) in out.jobs.iter().enumerate() {
        mixed_latency[i] =
            (job.finished_at.0.saturating_sub(job.requested_at.0)) as f64 / 1e9;
        digests[i] = job.digest;
    }
    MixPoint {
        throughput: out.result_pairs as f64 / (out.makespan.as_nanos() as f64 / 1e9),
        mixed_latency,
        digests,
    }
}

/// Solo baseline for one kind: request-to-finish latency and digest on
/// an empty fabric.
fn run_one_solo(kind: &str, seed: u64) -> (f64, u64) {
    let mut sched = fabric_sched();
    let out = run_solo(&mut sched, make(kind, seed), &MixOptions::default())
        .expect("solo run must complete");
    ((out.finished_at.0.saturating_sub(out.requested_at.0)) as f64 / 1e9, out.digest)
}

fn main() {
    let mut throughput = Vec::new();
    let mut slowdown: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for &seed in &ARRIVAL_SEEDS {
        let mix = run_one_mix(seed);
        for (i, &kind) in KINDS.iter().enumerate() {
            let (solo_latency, solo_digest) = run_one_solo(kind, seed);
            assert_eq!(
                mix.digests[i], solo_digest,
                "{kind} (seed {seed}): mixed result diverged from solo — figure void"
            );
            slowdown[i].push(mix.mixed_latency[i] / solo_latency);
        }
        throughput.push(mix.throughput);
    }

    println!("fig_multitenant: {} jobs/mix over seeds {ARRIVAL_SEEDS:?}, digests all solo-identical", KINDS.len());
    println!("mean [min .. max] over the seeds");
    println!("aggregate throughput: {:.0} result pairs/s", SeedPool::of(&throughput));
    println!("{:>10}  slowdown vs solo (x)", "job");
    for (kind, samples) in KINDS.iter().zip(&slowdown) {
        println!("{kind:>10}  {:.2}", SeedPool::of(samples));
    }
}
