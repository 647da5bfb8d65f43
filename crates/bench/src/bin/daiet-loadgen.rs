//! `daiet-loadgen` — drive many small flows through the real-socket
//! backend.
//!
//! The simulator benches measure the protocol at event-queue speed; this
//! binary loads the *real-time* fabric instead. It generates `--flows`
//! small key/value flows (each a batch of `--pairs` updates bound for one
//! aggregation tree), multiplexes them round-robin onto `--workers`
//! worker shards, and runs the whole job over kernel UDP sockets on
//! `127.0.0.1` — one [`NodeDriver`](daiet_fabric::NodeDriver) thread per
//! plan slot, exactly the deployment `tests/fabric_properties.rs`
//! verifies. The final aggregates are checked against ground truth, so a
//! run that loses data (beyond what NACK recovery repairs) fails loudly.
//!
//! ```text
//! cargo run -p daiet-bench --release --bin daiet-loadgen -- \
//!     --flows=500 --workers=8 --reducers=4 --pairs=16 --loss-pct=2
//! ```
//!
//! `--loss-pct` injects seeded switch-egress loss and arms the
//! reliability extension (NACK recovery) to survive it.

use std::collections::BTreeMap;
use std::time::Instant;

use daiet::controller::{AggregationMode, Controller, JobPlacement};
use daiet::loopback::{wall_clock_config, LoopbackJob, ReducerReport};
use daiet::{AggFn, DaietConfig};
use daiet_bench::arg;
use daiet_dataplane::Resources;
use daiet_fabric::{run_cluster, Duration, FaultShim};
use daiet_netsim::topology::TopologyPlan;
use daiet_netsim::LinkSpec;
use daiet_wire::daiet::{Key, Pair};

fn main() {
    let flows = arg::<usize>("flows", 200);
    let workers = arg::<usize>("workers", 4);
    let reducers = arg::<usize>("reducers", 2);
    let pairs_per_flow = arg::<usize>("pairs", 8);
    let loss_pct = arg::<u64>("loss-pct", 0);
    let seed = arg::<u64>("seed", 42);

    let mut config = DaietConfig { register_cells: 4096, ..DaietConfig::default() };
    if loss_pct > 0 {
        config.nack_recovery = true;
        config = config.with_rtx_sized_for_flush();
    }
    let config = wall_clock_config(config);

    // One star: worker hosts, then reducer hosts, then the switch.
    let plan = TopologyPlan::star(workers + reducers, LinkSpec::fast());
    let switch_slot = plan.switches()[0];
    let placement = JobPlacement {
        mappers: (0..workers).collect(),
        reducers: (workers..workers + reducers).collect(),
    };
    let job = LoopbackJob::deploy(
        Controller::new(config, AggFn::Sum),
        plan,
        placement,
        Resources::tofino_like(),
        AggregationMode::InNetwork,
    )
    .expect("deployment fits the chip");

    // Generate the flows and multiplex them onto the worker shards:
    // flow f lands on shard `f % workers`, its updates on tree
    // `f % reducers`. Ground truth accumulates alongside.
    let mut shards: Vec<Vec<Vec<Pair>>> = vec![vec![Vec::new(); reducers]; workers];
    let mut truth: Vec<BTreeMap<String, u32>> = vec![BTreeMap::new(); reducers];
    let mut total_pairs = 0usize;
    for f in 0..flows {
        let w = f % workers;
        let r = f % reducers;
        for j in 0..pairs_per_flow {
            // Key space shared across flows on the same tree, so the
            // switch genuinely aggregates cross-flow.
            let word = format!("k{:04}", (f / reducers + j) % 500);
            let value = ((f * 31 + j * 7) % 97 + 1) as u32;
            shards[w][r].push(Pair::new(Key::from_str_key(&word).expect("short key"), value));
            *truth[r].entry(word).or_insert(0) += value;
            total_pairs += 1;
        }
    }

    let mut specs = job.specs(shards, Duration::from_micros(50), 1);
    if loss_pct > 0 {
        specs[switch_slot].shim = FaultShim::seeded(seed, loss_pct as f64 / 100.0, 0.0);
    }

    eprintln!(
        "loadgen: {flows} flows x {pairs_per_flow} pairs over {workers} workers, \
         {reducers} trees, switch loss {loss_pct}%"
    );
    // lint:allow(det-clock): loadgen measures real wall-clock throughput of the
    // UDP backend; the timing is reported, never fed back into the protocol.
    let t0 = Instant::now();
    let out = run_cluster(specs, &job.links(), std::time::Duration::from_secs(120));
    let wall = t0.elapsed();

    let mut correct = true;
    let mut nacks = 0u64;
    for (r, &slot) in job.placement().reducers.iter().enumerate() {
        let report = out[slot].result.downcast_ref::<ReducerReport>().expect("reducer report");
        nacks += report.nacks_emitted;
        let got: Vec<(String, u32)> =
            report.pairs.iter().map(|(k, v)| (k.display_lossy(), *v)).collect();
        let want: Vec<(String, u32)> =
            truth[r].iter().map(|(k, &v)| (k.clone(), v)).collect();
        if !report.complete || got != want {
            eprintln!("tree {r}: INCORRECT (complete={})", report.complete);
            correct = false;
        }
    }
    let frames_out: u64 = out.iter().map(|o| o.stats.frames_out).sum();
    let bytes_out: u64 = out.iter().map(|o| o.stats.bytes_out).sum();
    let dropped: u64 = out.iter().map(|o| o.stats.shim_dropped).sum();

    println!("# daiet-loadgen");
    println!("{:>16}  {:>12}", "metric", "value");
    println!("{:>16}  {:>12}", "flows", flows);
    println!("{:>16}  {:>12}", "pairs", total_pairs);
    println!("{:>16}  {:>12.1}", "wall_ms", wall.as_secs_f64() * 1e3);
    println!("{:>16}  {:>12.0}", "flows_per_sec", flows as f64 / wall.as_secs_f64());
    println!("{:>16}  {:>12}", "frames_sent", frames_out);
    println!("{:>16}  {:>12}", "bytes_sent", bytes_out);
    println!("{:>16}  {:>12}", "shim_dropped", dropped);
    println!("{:>16}  {:>12}", "nacks", nacks);
    println!("{:>16}  {:>12}", "correct", correct);
    if !correct {
        std::process::exit(1);
    }
}
