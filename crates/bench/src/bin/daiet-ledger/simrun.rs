//! Running one round on the simulator from the benchmark's own files, so
//! counts the runners do not return can be read afterwards: the real
//! protocol nodes on a star (the in-situ pass), and a null-protocol replay
//! of the same frames that prices the simulator alone.

use crate::host;
use crate::job::{JobData, Round, Star};
use daiet::worker::{multi_tree_sender, reducer_host, PacedSenderNode, ReducerHost};
use daiet::{DaietEngine, EngineStats};
use daiet_dataplane::{Switch, SwitchStats};
use daiet_fabric::{Duration, Fabric, Frame, FramePool, Node, PoolStats, PortId};
use daiet_netsim::{NodeId, Role, SimDuration, SimTime, Simulator, StatsSnapshot};
use daiet_wire::daiet::{Key, Pair};

/// Simulated-time valve on every run: far beyond any workload here, and
/// the same the workload runners use.
const SIM_DEADLINE: SimDuration = SimDuration::from_secs(120);

/// What one job left behind in the simulator, the switches and the hosts.
/// Every field is a count or a sum, so several runs add up.
#[derive(Debug, Clone, Default)]
pub struct InSitu {
    pub events: u64,
    /// When the last reducer had its complete input.
    pub sim_done_ns: u64,
    /// When the last event of any kind fired.
    pub quiescent_ns: u64,
    pub fault_drops: u64,
    pub overflow_drops: u64,
    /// Frames and bytes transmitted over all links, both directions.
    pub link_frames: u64,
    pub link_bytes: u64,
    pub switch: SwitchStats,
    pub engine: EngineStats,
    pub engine_dups: u64,
    pub pool: PoolStats,
    pub sender_frames: u64,
    pub sender_replays: u64,
    pub reducer_frames: u64,
    pub reducer_app_bytes: u64,
    pub reducer_nacks: u64,
    pub reducer_dups: u64,
    pub pacing_ns: u64,
    /// Per-tree results, sorted by key; empty for a mix (its tenants hold
    /// their own). Fault draws added later leave it alone: every draw must
    /// give the same result, which the caller checks before adding.
    pub results: Vec<Vec<(Key, u32)>>,
    pub complete: bool,
    /// Host nanoseconds spent reading results out of the reducers.
    pub extract_ns: f64,
    /// Jobs admitted, rounds run and admissions refused: 1, 1 and 0 for a
    /// single job on a star.
    pub jobs: u64,
    pub rounds: u64,
    pub rejections: u64,
}

impl InSitu {
    pub fn nacks(&self) -> u64 {
        self.engine.nacks_out + self.reducer_nacks
    }

    pub fn replays(&self) -> u64 {
        self.engine.frames_replayed + self.sender_replays
    }

    pub fn dups(&self) -> u64 {
        self.engine_dups + self.reducer_dups
    }

    /// Records the link counters of a finished run's snapshot.
    pub fn read_links(&mut self, net: &StatsSnapshot) {
        self.fault_drops += net.fault_drops();
        self.overflow_drops += net.overflow_drops();
        for dir in net.links.iter().flat_map(|l| &l.dirs) {
            self.link_frames += dir.tx_frames;
            self.link_bytes += dir.tx_bytes;
        }
    }

    /// Adds a later run of the same job (another fault draw) to this one.
    pub fn absorb(&mut self, later: &InSitu) {
        self.events += later.events;
        self.sim_done_ns += later.sim_done_ns;
        self.quiescent_ns += later.quiescent_ns;
        self.fault_drops += later.fault_drops;
        self.overflow_drops += later.overflow_drops;
        self.link_frames += later.link_frames;
        self.link_bytes += later.link_bytes;
        add_switch_stats(&mut self.switch, &later.switch);
        add_engine_stats(&mut self.engine, &later.engine);
        self.engine_dups += later.engine_dups;
        self.pool.fresh += later.pool.fresh;
        self.pool.reused += later.pool.reused;
        self.pool.returned += later.pool.returned;
        self.sender_frames += later.sender_frames;
        self.sender_replays += later.sender_replays;
        self.reducer_frames += later.reducer_frames;
        self.reducer_app_bytes += later.reducer_app_bytes;
        self.reducer_nacks += later.reducer_nacks;
        self.reducer_dups += later.reducer_dups;
        self.complete &= later.complete;
        self.extract_ns += later.extract_ns;
        self.jobs += later.jobs;
        self.rounds += later.rounds;
        self.rejections += later.rejections;
    }

    /// Mean event-queue occupancy by Little's law from the link counters:
    /// every transmitted frame keeps a `TxDone` pending for its
    /// serialization time and a `Deliver` for serialization plus
    /// propagation, and every paced frame a timer for one pacing gap.
    /// Queueing delay is not in the counters, so this is a lower estimate.
    pub fn mean_queue_occupancy(&self, link: &daiet_netsim::LinkSpec) -> f64 {
        if self.quiescent_ns == 0 {
            return 1.0;
        }
        let ser_ns = self.link_bytes as f64 * 8.0 * 1e9 / link.bandwidth_bps as f64;
        let resident_ns = 2.0 * ser_ns
            + self.link_frames as f64 * link.latency.as_nanos() as f64
            + self.sender_frames as f64 * self.pacing_ns as f64;
        (resident_ns / self.quiescent_ns as f64).max(1.0)
    }
}

pub fn add_switch_stats(into: &mut SwitchStats, s: &SwitchStats) {
    into.packets_in += s.packets_in;
    into.parse_errors += s.parse_errors;
    into.checksum_drops += s.checksum_drops;
    into.pipeline_drops += s.pipeline_drops;
    into.forwarded += s.forwarded;
    into.consumed += s.consumed;
    into.extern_emissions += s.extern_emissions;
    into.recirculations += s.recirculations;
    into.ops_violations += s.ops_violations;
    into.max_ops_seen = into.max_ops_seen.max(s.max_ops_seen);
}

pub fn add_engine_stats(into: &mut EngineStats, e: &EngineStats) {
    into.data_packets_in += e.data_packets_in;
    into.pairs_in += e.pairs_in;
    into.pairs_inserted += e.pairs_inserted;
    into.pairs_aggregated += e.pairs_aggregated;
    into.collisions += e.collisions;
    into.spill_flushes += e.spill_flushes;
    into.ends_in += e.ends_in;
    into.flushes += e.flushes;
    into.frames_out += e.frames_out;
    into.pairs_out += e.pairs_out;
    into.unknown_tree += e.unknown_tree;
    into.spurious_ends += e.spurious_ends;
    into.flushes_deferred += e.flushes_deferred;
    into.nacks_in += e.nacks_in;
    into.nacks_out += e.nacks_out;
    into.frames_replayed += e.frames_replayed;
}

pub fn pool_delta(after: PoolStats, before: PoolStats) -> PoolStats {
    PoolStats {
        fresh: after.fresh - before.fresh,
        reused: after.reused - before.reused,
        returned: after.returned - before.returned,
    }
}

/// Reads what a finished sender or reducer host holds into `out`.
pub fn read_host(sim: &Simulator, id: NodeId, out: &mut InSitu) {
    if let Some(sender) = sim.node_ref::<PacedSenderNode>(id) {
        out.sender_frames += sim.node_stats(id).frames_out;
        out.sender_replays += sender.frames_replayed;
    } else if let Some(reducer) = sim.node_ref::<ReducerHost>(id) {
        let stats = reducer.collector.stats();
        out.reducer_frames += sim.node_stats(id).frames_in;
        out.reducer_app_bytes += stats.app_bytes;
        out.reducer_nacks += reducer.nacks_emitted();
        out.reducer_dups += reducer.duplicates_suppressed();
    }
}

/// Runs `round` with the real protocol nodes — the same
/// `Controller::deploy`, `multi_tree_sender` and `reducer_host` wiring the
/// workload runners use — on a simulator this file owns, seeded `seed`.
pub fn run_star(job: &JobData, round: &Round, seed: u64, pool: &FramePool) -> InSitu {
    let star = Star::deploy(job.config, job.link, job.mode, round);
    let Star {
        plan,
        placement,
        controller,
        deployment,
        switch_slot,
        switch,
    } = star;
    let pool_before = pool.stats();
    let mut sim = Simulator::new(seed);
    sim.set_frame_pool(pool.clone());

    let mut switch = Some(switch);
    let mut ids: Vec<NodeId> = Vec::with_capacity(plan.len());
    for slot in 0..plan.len() {
        let node: Box<dyn Node> = match plan.role(slot) {
            Role::Switch => Box::new(switch.take().expect("the star has one switch")),
            Role::Host if slot < round.senders() => {
                let parts: Vec<(u16, _, Vec<Pair>)> = round.shards[slot]
                    .iter()
                    .enumerate()
                    .map(|(t, pairs)| {
                        (
                            deployment.tree_id(t),
                            deployment.endpoints(slot, t),
                            pairs.clone(),
                        )
                    })
                    .collect();
                Box::new(multi_tree_sender(
                    &job.config,
                    slot,
                    &parts,
                    1,
                    job.pacing,
                    pool,
                    "ledger-mapper",
                ))
            }
            Role::Host => {
                let r = slot - round.senders();
                Box::new(reducer_host(
                    &job.config,
                    controller.agg_for(r),
                    &deployment,
                    r,
                    slot,
                    &placement.mappers,
                ))
            }
        };
        ids.push(sim.add_node(node));
    }
    plan.wire(&mut sim, &ids);
    let quiescent = sim.run_until(SimTime(SIM_DEADLINE.as_nanos()));

    let mut out = InSitu {
        events: sim.events_processed(),
        quiescent_ns: quiescent.as_nanos(),
        pacing_ns: job.pacing.as_nanos(),
        complete: true,
        jobs: 1,
        rounds: 1,
        ..InSitu::default()
    };
    out.read_links(&sim.snapshot());
    let sw = sim
        .node_ref::<Switch>(ids[switch_slot])
        .expect("the switch slot holds a Switch");
    out.switch = sw.stats();
    if let Some(engine) = deployment
        .engine_externs
        .get(&switch_slot)
        .and_then(|&e| sw.extern_ref::<DaietEngine>(e))
    {
        out.engine = engine.stats();
        out.engine_dups = engine.duplicates_suppressed();
    }
    for &id in &ids {
        read_host(&sim, id, &mut out);
    }
    let extract = host::now();
    for &slot in &placement.reducers {
        let reducer = sim
            .node_ref::<ReducerHost>(ids[slot])
            .expect("reducer slot");
        out.complete &= reducer.collector.is_complete() && reducer.recovery_satisfied();
        out.sim_done_ns = out.sim_done_ns.max(
            reducer
                .completed_at
                .map_or(out.quiescent_ns, daiet_fabric::Time::as_nanos),
        );
        let mut pairs: Vec<(Key, u32)> = reducer.collector.get_all().collect();
        pairs.sort_unstable_by_key(|p| p.0);
        out.results.push(pairs);
    }
    out.extract_ns = host::secs_since(extract) * 1e9;
    drop(sim);
    out.pool = pool_delta(pool.stats(), pool_before);
    out
}

/// Sends a prebuilt schedule, one frame per pacing gap: the paced sender
/// with the protocol taken out.
struct NullSender {
    frames: Vec<Frame>,
    next: usize,
    gap: Duration,
}

impl Node for NullSender {
    fn on_packet(&mut self, _ctx: &mut dyn Fabric, _port: PortId, _frame: Frame) {}

    fn on_start(&mut self, ctx: &mut dyn Fabric) {
        if !self.frames.is_empty() {
            ctx.schedule(self.gap, 0);
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn Fabric, _token: u64) {
        if let Some(frame) = self.frames.get(self.next) {
            ctx.send(PortId(0), frame.clone());
            self.next += 1;
            ctx.schedule(self.gap, 0);
        }
    }
}

/// Stands in for the switch by replaying what the real one did: after the
/// `i`-th frame in, the frames the real switch had emitted by then go out,
/// whether it forwarded each frame or swallowed them and flushed later.
struct NullSwitch {
    emissions: std::vec::IntoIter<(PortId, Frame)>,
    emitted_by: Vec<usize>,
    seen: usize,
    sent: usize,
}

impl Node for NullSwitch {
    fn on_packet(&mut self, ctx: &mut dyn Fabric, _port: PortId, _frame: Frame) {
        let due = self.emitted_by.get(self.seen).copied().unwrap_or(self.sent);
        self.seen += 1;
        while self.sent < due {
            match self.emissions.next() {
                Some((port, frame)) => ctx.send(port, frame),
                None => return,
            }
            self.sent += 1;
        }
    }
}

struct NullSink;

impl Node for NullSink {
    fn on_packet(&mut self, _ctx: &mut dyn Fabric, _port: PortId, _frame: Frame) {}
}

/// Replays a round through protocol-free nodes on the same star: the
/// senders' real schedules at the real pacing, and out of the switch
/// `switch_out`, what the real switch emitted, `emitted_by[i]` of it by the
/// time input frame `i` was in. Returns host nanoseconds and events
/// processed.
pub fn null_replay(
    job: &JobData,
    star: &Star,
    schedules: Vec<Vec<Frame>>,
    switch_out: Vec<(PortId, Frame)>,
    emitted_by: Vec<usize>,
    pool: &FramePool,
) -> (f64, u64) {
    let mut sim = Simulator::new(job.seed);
    sim.set_frame_pool(pool.clone());
    let mut schedules = schedules.into_iter();
    let mut switch = Some(NullSwitch {
        emissions: switch_out.into_iter(),
        emitted_by,
        seen: 0,
        sent: 0,
    });
    let mut ids = Vec::with_capacity(star.plan.len());
    for slot in 0..star.plan.len() {
        let node: Box<dyn Node> = match star.plan.role(slot) {
            Role::Switch => Box::new(switch.take().expect("the star has one switch")),
            Role::Host if slot < star.placement.mappers.len() => Box::new(NullSender {
                frames: schedules.next().expect("one schedule per sender"),
                next: 0,
                gap: job.pacing,
            }),
            Role::Host => Box::new(NullSink),
        };
        ids.push(sim.add_node(node));
    }
    star.plan.wire(&mut sim, &ids);
    let start = host::now();
    sim.run_until(SimTime(SIM_DEADLINE.as_nanos()));
    (host::secs_since(start) * 1e9, sim.events_processed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{arrival_order, schedules};
    use daiet::controller::AggregationMode;
    use daiet::{AggFn, DaietConfig};
    use daiet_netsim::LinkSpec;

    fn small_job(mode: AggregationMode) -> JobData {
        let key = |i: usize| Key::from_str_key(&format!("word{i:03}")).unwrap();
        let shards = (0..3)
            .map(|m| {
                (0..2)
                    .map(|t| {
                        (0..40)
                            .map(|i| Pair::new(key(i + 7 * t), 1 + m as u32))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        JobData {
            backend: crate::job::Backend::Simulator,
            config: DaietConfig {
                register_cells: 1024,
                ..DaietConfig::default()
            },
            mode,
            link: LinkSpec::fast(),
            pacing: Duration::from_micros(2),
            seed: 5,
            rounds: vec![Round {
                aggs: vec![AggFn::Sum, AggFn::Sum],
                shards,
            }],
            fault_draws: 1,
        }
    }

    #[test]
    fn in_situ_run_delivers_the_reference_and_exposes_the_engine() {
        let pool = FramePool::new();
        for mode in [AggregationMode::InNetwork, AggregationMode::PassThrough] {
            let job = small_job(mode);
            let got = run_star(&job, &job.rounds[0], job.seed, &pool);
            assert!(got.complete);
            assert_eq!(got.results, job.rounds[0].reference());
            assert_eq!(
                got.sender_frames,
                3 * 2 * 5,
                "4 DATA + END per sender per tree"
            );
            assert!(got.sim_done_ns > 0 && got.sim_done_ns <= got.quiescent_ns);
            assert!(got.mean_queue_occupancy(&job.link) >= 1.0);
            if mode == AggregationMode::InNetwork {
                assert_eq!(got.engine.pairs_in, 240);
                assert!(got.reducer_frames < got.sender_frames);
            } else {
                assert_eq!(got.engine.pairs_in, 0, "pass-through bypasses Algorithm 1");
                assert_eq!(got.reducer_frames, got.sender_frames);
            }
        }
    }

    #[test]
    fn null_replay_moves_the_same_frames_without_the_protocol() {
        let job = small_job(AggregationMode::PassThrough);
        let round = &job.rounds[0];
        let star = Star::deploy(job.config, job.link, job.mode, round);
        let pool = FramePool::new();
        let per_sender: Vec<_> = (0..3)
            .map(|m| star.sender_frames(round, m, 0, &pool))
            .collect();
        let schedules = schedules(&per_sender);
        let arrivals = arrival_order(&schedules);
        let total = arrivals.len() as u64;
        // Forwarding: each frame goes out as it came in, toward reducer 0 or 1.
        let forwarded: Vec<(PortId, Frame)> = arrivals
            .iter()
            .enumerate()
            .map(|(i, (_, f))| (PortId(3 + i % 2), f.clone()))
            .collect();
        let emitted_by = (1..=forwarded.len()).collect();
        let (ns, events) = null_replay(&job, &star, schedules, forwarded, emitted_by, &pool);
        assert!(ns > 0.0);
        // Per frame at least a pacing timer and a delivery on each of two hops.
        assert!(events >= total * 3, "{events} events for {total} frames");
    }
}
