//! The real-socket backend: one loadgen-shaped job over loopback UDP, and a
//! single-threaded three-driver relay that prices the socket path with no
//! sleeps in it. Traffic crosses the host's loopback interface, not a link.

use crate::host;
use daiet::controller::{AggregationMode, Controller, JobPlacement};
use daiet::loopback::{wall_clock_config, LoopbackJob};
use daiet::worker::ReducerHost;
use daiet::{AggFn, DaietConfig};
use daiet_dataplane::Resources;
use daiet_fabric::{
    run_cluster, DriverStats, Duration, ExitReason, Fabric, Frame, Node, NodeDriver, PortId,
    SlotOutcome,
};
use daiet_netsim::{LinkSpec, TopologyPlan};
use daiet_wire::daiet::{Key, Pair};
use std::any::Any;

/// The gap between a worker's frames, as `daiet-loadgen` paces them.
pub const PACING: Duration = Duration::from_micros(50);

/// Wall-clock limit on one job; a job that reaches it is a failed
/// operation.
const JOB_DEADLINE: std::time::Duration = std::time::Duration::from_secs(5);

/// The socket jobs' configuration: `daiet-loadgen`'s loss-free one (no
/// reliability extension), NACK timeout rescaled for the wall clock.
pub fn config(register_cells: usize) -> DaietConfig {
    wall_clock_config(DaietConfig {
        register_cells,
        ..DaietConfig::default()
    })
}

/// What one job over the sockets produced.
#[derive(Debug)]
pub struct UdpRun {
    pub wall_s: f64,
    /// Socket-edge counters summed over the three drivers.
    pub total: DriverStats,
    /// The worker's alone (its `frames_out` is the paced schedule).
    pub worker: DriverStats,
    /// The reducer's alone.
    pub reducer: DriverStats,
    pub reducer_app_bytes: u64,
    pub result: Vec<(Key, u32)>,
    /// On-CPU nanoseconds of the three driver threads, each read by the
    /// thread itself as it finished.
    pub cpu_ns: u64,
}

/// What the reducer thread hands back: `LoopbackJob`'s own report has no
/// byte count, so the benchmark reads the host itself.
struct ReducerOut {
    complete: bool,
    app_bytes: u64,
    pairs: Vec<(Key, u32)>,
    cpu_ns: Result<u64, String>,
}

fn add(into: &mut DriverStats, s: &DriverStats) {
    into.frames_in += s.frames_in;
    into.bytes_in += s.bytes_in;
    into.frames_out += s.frames_out;
    into.bytes_out += s.bytes_out;
    into.shim_dropped += s.shim_dropped;
    into.shim_duplicated += s.shim_duplicated;
    into.unknown_peer += s.unknown_peer;
    into.send_errors += s.send_errors;
    into.timers_fired += s.timers_fired;
}

/// Deploys and runs one job on the minimum deployment — one worker, one
/// switch, one reducer: three driver threads, which is what two cores can
/// carry without the threads themselves becoming the workload. `pairs` go
/// from the worker, are aggregated in the switch, and collected by the reducer. Spawn to joined threads is the
/// measured wall. An incomplete reducer or a deadline is an error.
pub fn run_job(config: DaietConfig, pairs: &[Pair]) -> Result<UdpRun, String> {
    let start = host::now();
    let plan = TopologyPlan::star(2, LinkSpec::fast());
    let placement = JobPlacement {
        mappers: vec![0],
        reducers: vec![1],
    };
    let job = LoopbackJob::deploy(
        Controller::new(config, AggFn::Sum),
        plan,
        placement,
        Resources::tofino_like(),
        AggregationMode::InNetwork,
    )?;
    let mut specs = job.specs(vec![vec![pairs.to_vec()]], PACING, 1);
    for slot in [0, 2] {
        specs[slot].finish = Box::new(|_| Box::new(host::thread_cpu_ns()));
    }
    specs[1].finish = Box::new(|node| {
        let host = (node as Box<dyn Any>)
            .downcast::<ReducerHost>()
            .expect("the reducer slot holds a ReducerHost");
        Box::new(ReducerOut {
            complete: host.collector.is_complete() && host.recovery_satisfied(),
            app_bytes: host.collector.stats().app_bytes,
            pairs: host.collector.into_sorted(),
            cpu_ns: host::thread_cpu_ns(),
        })
    });
    let out = run_cluster(specs, &job.links(), JOB_DEADLINE);
    let wall_s = host::secs_since(start);

    if out[1].exit != ExitReason::Done {
        return Err(format!(
            "the reducer's driver exited with {:?}",
            out[1].exit
        ));
    }
    let mut total = DriverStats::default();
    for slot in &out {
        add(&mut total, &slot.stats);
    }
    let (worker, reducer) = (out[0].stats, out[1].stats);
    let [worker_slot, reducer_slot, switch_slot]: [SlotOutcome; 3] =
        out.try_into().map_err(|_| "the cluster has three slots")?;
    let thread_cpu = |slot: SlotOutcome| -> Result<u64, String> {
        *slot
            .result
            .downcast::<Result<u64, String>>()
            .map_err(|_| "a driver thread returned no CPU time")?
    };
    let reduced = reducer_slot
        .result
        .downcast::<ReducerOut>()
        .map_err(|_| "the reducer returned no result")?;
    if !reduced.complete {
        return Err("the reducer finished incomplete".into());
    }
    Ok(UdpRun {
        wall_s,
        total,
        worker,
        reducer,
        reducer_app_bytes: reduced.app_bytes,
        result: reduced.pairs,
        cpu_ns: thread_cpu(worker_slot)? + reduced.cpu_ns? + thread_cpu(switch_slot)?,
    })
}

/// Emits its frames in bursts, one burst per timer, rearming at once.
struct Source {
    frames: Vec<Frame>,
    next: usize,
}

/// Datagrams the source releases per step of the relay loop: small enough
/// that the loopback socket buffers never fill.
const BURST: usize = 16;

impl Node for Source {
    fn on_packet(&mut self, _ctx: &mut dyn Fabric, _port: PortId, _frame: Frame) {}

    fn on_start(&mut self, ctx: &mut dyn Fabric) {
        ctx.schedule(Duration::ZERO, 0);
    }

    fn on_timer(&mut self, ctx: &mut dyn Fabric, _token: u64) {
        let end = (self.next + BURST).min(self.frames.len());
        for frame in &self.frames[self.next..end] {
            ctx.send(PortId(0), frame.clone());
        }
        self.next = end;
        if self.next < self.frames.len() {
            ctx.schedule(Duration::ZERO, 0);
        }
    }
}

struct Relay;

impl Node for Relay {
    fn on_packet(&mut self, ctx: &mut dyn Fabric, _port: PortId, frame: Frame) {
        ctx.send(PortId(1), frame);
    }
}

struct Sink;

impl Node for Sink {
    fn on_packet(&mut self, _ctx: &mut dyn Fabric, _port: PortId, _frame: Frame) {}
}

/// Pushes `frames` source → relay → sink through three `NodeDriver`s
/// stepped round-robin on this thread with a zero deadline, so each step
/// runs due timers and drains the socket and never sleeps. Returns host
/// nanoseconds per datagram handled (each frame is two datagrams: one per
/// hop, each a `send_to`, a `recv_from`, a pool copy and an `on_packet`).
pub fn relay_ns_per_datagram(frames: Vec<Frame>) -> Result<f64, String> {
    let n = frames.len() as u64;
    if n == 0 {
        return Err("no frames to relay".into());
    }
    let bind = |node: Box<dyn Node>| {
        NodeDriver::bind(node, "127.0.0.1:0").map_err(|e| format!("bind loopback socket: {e}"))
    };
    let mut source = bind(Box::new(Source { frames, next: 0 }))?;
    let mut relay = bind(Box::new(Relay))?;
    let mut sink = bind(Box::new(Sink))?;
    let addr = |d: &NodeDriver| d.local_addr().map_err(|e| format!("local address: {e}"));
    let (a, b, c) = (addr(&source)?, addr(&relay)?, addr(&sink)?);
    source.set_peers(vec![b]);
    relay.set_peers(vec![a, c]);
    sink.set_peers(vec![b]);

    let zero = std::time::Duration::ZERO;
    let start = host::now();
    // A datagram the kernel dropped would never arrive; stop waiting after
    // many idle steps and report it rather than spin.
    let mut idle_steps = 0u32;
    while sink.stats().frames_in < n {
        let before = sink.stats().frames_in;
        source.run(zero, |_| false);
        relay.run(zero, |_| false);
        sink.run(zero, |_| false);
        idle_steps = if sink.stats().frames_in == before {
            idle_steps + 1
        } else {
            0
        };
        if idle_steps > 100_000 {
            return Err(format!(
                "loopback lost datagrams: {} of {n} arrived",
                sink.stats().frames_in
            ));
        }
    }
    let ns = host::secs_since(start) * 1e9;
    let errors = source.stats().send_errors + relay.stats().send_errors;
    if errors > 0 {
        return Err(format!("{errors} socket send errors in the relay"));
    }
    Ok(ns / (2 * n) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loopback_enabled() -> bool {
        std::env::var("DAIET_LOOPBACK").is_ok_and(|v| v == "1")
    }

    #[test]
    fn job_over_sockets_aggregates_exactly() {
        if !loopback_enabled() {
            return;
        }
        let key = |i: usize| Key::from_str_key(&format!("k{i:03}")).unwrap();
        let pairs: Vec<Pair> = (0..200)
            .map(|i| Pair::new(key(i % 50), 1 + (i % 3) as u32))
            .collect();
        let run = run_job(config(256), &pairs).expect("job completes");
        let mut want = std::collections::BTreeMap::new();
        for p in &pairs {
            *want.entry(p.key).or_insert(0u32) += p.value;
        }
        assert_eq!(run.result, want.into_iter().collect::<Vec<_>>());
        assert_eq!(run.worker.frames_out, 21, "20 DATA frames and the END");
        assert_eq!(run.reducer.frames_in, 6, "50 pairs in 5 frames and the END");
        assert!(run.reducer_app_bytes > 0 && run.total.send_errors == 0 && run.cpu_ns > 0);
    }

    #[test]
    fn relay_prices_every_datagram() {
        if !loopback_enabled() {
            return;
        }
        let frames = (0..500)
            .map(|i| Frame::from_slice(&[i as u8; 120]))
            .collect();
        let ns = relay_ns_per_datagram(frames).expect("no loss on loopback");
        assert!(ns > 0.0);
    }
}
