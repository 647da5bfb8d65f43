//! Executes a planned GROUP BY query over the simulator in the three
//! modes of the paper's §5 evaluation, transplanted from WordCount to
//! SQL:
//!
//! * [`QueryMode::TcpBaseline`] — every worker streams its combined
//!   partial aggregates to the coordinator over TCP (the classic
//!   shuffle-to-one-node plan of a distributed SQL engine);
//! * [`QueryMode::UdpNoAgg`] — the same partials as DAIET packets, one
//!   tree per lane, switches merely forwarding;
//! * [`QueryMode::DaietAgg`] — full DAIET: the switch merges each lane's
//!   partials on-path, so the coordinator receives one pair per
//!   `(lane, group)` instead of one per `(lane, group, worker)`.
//!
//! All three assemble their lanes through [`QueryPlan::assemble`] and
//! must produce **bit-identical** [`QueryResult`]s (the integration and
//! property tests enforce this against [`Query::reference`]).
//!
//! All three modes run the one-shot job's node list —
//! [`LoopbackJob::specs`] for the workers and the switch, plus the
//! multi-lane coordinator's spec — brought up on the simulator by
//! [`TopologyPlan::instantiate`]; the TCP baseline swaps its worker and
//! coordinator specs for TCP hosts. [`QueryRunner::run_sockets`] runs the
//! same list in a UDP mode over loopback UDP sockets instead of the
//! simulator.
//!
//! The optional reliability harness
//! ([`QueryRunner::with_full_reliability`]) arms NACK recovery at the
//! switch and the coordinator; every link can then be given loss,
//! duplication and reordering faults while the query still answers
//! exactly.

// lint:allow-file(layer-netsim): GROUP BY executor harness — builds the
// Simulator, places scan/reduce nodes, and compares backends. The DAIET
// aggregation path under test remains fabric-only.
use crate::plan::QueryPlan;
use crate::query::{Query, QueryResult};
use crate::table::{group_of_key, Table};
use daiet::agg::AggFn;
use daiet::controller::{AggregationMode, Controller, JobPlacement};
use daiet::loopback::{wall_clock_config, wall_clock_pacing, LoopbackJob};
use daiet::worker::{receive_daiet, Collector};
use daiet::DaietConfig;
use daiet_dataplane::Resources;
use daiet_fabric::{DriverStats, ExitReason, FaultShim, NodeSpec};
use daiet_netsim::topology::TopologyPlan;
use daiet_netsim::{
    Fabric, FaultProfile, Frame, LinkSpec, Node, NodeId, NodeStats, PortId,
    SimDuration, SimTime, Simulator,
};
use daiet_transport::tcp::{BulkSenderNode, SinkReceiverNode};
use std::any::Any;
use std::collections::BTreeMap;

/// The execution strategy under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryMode {
    /// TCP shuffle of worker partials to the coordinator.
    TcpBaseline,
    /// DAIET packets without in-network aggregation.
    UdpNoAgg,
    /// DAIET with in-network aggregation.
    DaietAgg,
}

/// TCP port the coordinator listens on in the baseline.
const QUERY_PORT: u16 = 9100;

/// Encodes one worker's per-lane partials for the TCP baseline:
/// `u8 lane ‖ u32 group ‖ u32 value` per record (the compact varlen-style
/// framing a row-oriented engine would ship).
fn encode_partials(partials: &[Vec<daiet_wire::daiet::Pair>]) -> Vec<u8> {
    // The lane byte would silently wrap past 256 lanes, folding records
    // into the wrong lanes' aggregation functions; QueryRunner::new
    // rejects such plans up front, this is the last line of defense.
    assert!(partials.len() <= 256, "lane index does not fit the u8 encoding");
    let mut out = Vec::new();
    for (lane, pairs) in partials.iter().enumerate() {
        for pair in pairs {
            let g = group_of_key(&pair.key).expect("planner emits group keys");
            out.push(lane as u8);
            out.extend_from_slice(&g.to_be_bytes());
            out.extend_from_slice(&pair.value.to_be_bytes());
        }
    }
    out
}

/// Decodes an [`encode_partials`] stream; `None` on a truncated tail.
fn decode_partials(mut data: &[u8]) -> Option<Vec<(u8, u32, u32)>> {
    let mut out = Vec::with_capacity(data.len() / 9);
    while !data.is_empty() {
        if data.len() < 9 {
            return None;
        }
        let lane = data[0];
        let group = u32::from_be_bytes([data[1], data[2], data[3], data[4]]);
        let value = u32::from_be_bytes([data[5], data[6], data[7], data[8]]);
        out.push((lane, group, value));
        data = &data[9..];
    }
    Some(out)
}


/// The coordinator for the UDP modes: one [`Collector`] per lane (frames
/// are demultiplexed by tree id), optional receive-side NACK recovery
/// (which also suppresses duplicates), completion when every lane saw
/// all its ENDs.
pub struct QueryCoordinatorNode {
    collectors: Vec<Collector>,
    /// Receive-side NACK recovery — the same shared driver `ReducerHost`
    /// uses, so the workloads cannot drift.
    guard: daiet::reliability::ReceiverGuard,
    /// Simulated time all lanes completed, once reached.
    pub completed_at: Option<SimTime>,
}

impl QueryCoordinatorNode {
    /// A coordinator expecting `expected_ends[l]` END packets on lane `l`,
    /// merging lane `l` with `lane_aggs[l]`.
    pub fn new(lane_aggs: &[AggFn], expected_ends: &[u32]) -> QueryCoordinatorNode {
        assert_eq!(lane_aggs.len(), expected_ends.len());
        QueryCoordinatorNode {
            collectors: lane_aggs
                .iter()
                .zip(expected_ends)
                .map(|(&agg, &ends)| Collector::new(agg, ends))
                .collect(),
            guard: daiet::reliability::ReceiverGuard::new(),
            completed_at: None,
        }
    }

    /// Arms NACK recovery: the coordinator (simulator id `self_id`)
    /// watches one flow per `(lane tree, source)` in `sources` and NACKs
    /// delinquent ones per `config`'s timeout and budget.
    pub fn with_nack_recovery(
        mut self,
        self_id: u32,
        config: &DaietConfig,
        sources: impl IntoIterator<Item = (u16, u32)>,
    ) -> QueryCoordinatorNode {
        self.guard.arm_nack_recovery(self_id, config, sources);
        self
    }

    /// NACK frames this coordinator has sent (0 without recovery).
    pub fn nacks_emitted(&self) -> u64 {
        self.guard.nacks_emitted()
    }

    /// True once every lane's partition completed.
    pub fn is_complete(&self) -> bool {
        self.collectors.iter().all(Collector::is_complete)
    }

    /// True when NACK recovery (if armed) owes nothing: every tracked
    /// flow is gapless through its newest END (vacuously true without
    /// recovery). The loopback harness gates completion on this so a
    /// run cannot stop while a repair is still outstanding.
    pub fn recovery_satisfied(&self) -> bool {
        self.guard.all_satisfied()
    }

    /// Application payload bytes received across all lanes.
    pub fn app_bytes(&self) -> u64 {
        self.collectors.iter().map(|c| c.stats().app_bytes).sum()
    }

    /// Pairs received across all lanes (pre-merge).
    pub fn pairs_received(&self) -> u64 {
        self.collectors.iter().map(|c| c.stats().pairs_received).sum()
    }

    /// Frames the gap tracker's bitmaps suppressed as duplicates (0
    /// without recovery).
    pub fn duplicates_suppressed(&self) -> u64 {
        self.guard.duplicates_suppressed()
    }

    /// The merged per-lane group maps, decoded back to group ids.
    pub fn lane_maps(&self) -> Vec<BTreeMap<u32, u32>> {
        self.collectors
            .iter()
            .map(|c| {
                c.get_all()
                    .filter_map(|(k, v)| group_of_key(&k).map(|g| (g, v)))
                    .collect()
            })
            .collect()
    }
}

impl Node for QueryCoordinatorNode {
    fn on_packet(&mut self, ctx: &mut dyn Fabric, _port: PortId, frame: Frame) {
        let Some((hdr, src, parsed)) = receive_daiet(frame) else {
            return;
        };
        let lane = hdr.tree_id as usize;
        if lane >= self.collectors.len() {
            return; // foreign tree id — discarded before it can charge tracker state
        }
        if !self.guard.admit(&hdr, src, ctx) {
            return;
        }
        self.collectors[lane].on_parts(&hdr, parsed.daiet_pairs());
        if self.is_complete() && self.completed_at.is_none() {
            self.completed_at = Some(ctx.now());
        }
        self.guard.arm(ctx);
    }

    fn on_start(&mut self, ctx: &mut dyn Fabric) {
        self.guard.arm(ctx);
    }

    fn on_timer(&mut self, ctx: &mut dyn Fabric, _token: u64) {
        self.guard.on_timer(ctx);
    }

    fn name(&self) -> String {
        "query-coordinator".into()
    }
}

/// One complete query execution's results and measurements.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The strategy that produced this outcome.
    pub mode: QueryMode,
    /// The assembled GROUP BY result.
    pub result: QueryResult,
    /// Whether the execution terminated cleanly (all streams finished /
    /// all lanes saw their ENDs). An incomplete run's `result` is partial.
    pub complete: bool,
    /// Application-payload bytes delivered to the coordinator.
    pub coord_app_bytes: u64,
    /// The coordinator's NIC counters straight from the simulator's
    /// `StatsTable` (frames/bytes in either direction).
    pub coord_nic: NodeStats,
    /// Partial-aggregate records delivered to the coordinator (pre final
    /// merge).
    pub records_received: u64,
    /// Frames dropped anywhere in the fabric (queue overflow + faults).
    pub frames_dropped: u64,
    /// Duplicates suppressed by NACK gap trackers (switch + coordinator).
    pub duplicates_suppressed: u64,
    /// Simulated instant the coordinator's result became complete (all
    /// streams finished / all lanes saw their ENDs); `None` when the run
    /// never completed. Compare mode latencies with this.
    pub completed_at: Option<SimTime>,
    /// Simulated instant the event queue drained — later than
    /// [`completed_at`](Self::completed_at) whenever post-completion
    /// traffic (e.g. duplicated frames) was still in flight.
    pub finished_at: SimTime,
}

/// Orchestrates executions of one query over one table.
pub struct QueryRunner {
    /// The sharded input table.
    pub table: Table,
    /// The query.
    pub query: Query,
    /// Its lane plan (derived once in [`QueryRunner::new`]).
    pub plan: QueryPlan,
    /// DAIET parameters (register sizing defaults to the group count).
    pub daiet_config: DaietConfig,
    /// Link parameters for every edge.
    pub link: LinkSpec,
    /// Extra faults applied to worker→switch links only.
    pub worker_faults: Option<FaultProfile>,
    /// Extra faults applied to the switch→coordinator link — only
    /// survivable with NACK recovery
    /// ([`with_full_reliability`](Self::with_full_reliability)), since
    /// switch-originated flush frames are sent exactly once.
    pub coordinator_faults: Option<FaultProfile>,
    /// Switch chip profile.
    pub resources: Resources,
    /// Gap between UDP frames at each worker.
    pub pacing: SimDuration,
    /// Simulation seed.
    pub seed: u64,
    /// The frame pool shared across this runner's runs (see `make_sim`).
    pool: daiet_netsim::FramePool,
}

impl QueryRunner {
    /// A runner over `table` for `query`, panicking on an invalid query
    /// or a plan of more than 256 lanes (the TCP baseline's record format
    /// carries the lane index in one byte, and no realistic chip fits
    /// that many trees anyway).
    pub fn new(table: Table, query: Query) -> QueryRunner {
        query.validate(table.spec.n_columns).expect("query matches table");
        let plan = QueryPlan::of(&query);
        assert!(
            plan.lane_count() <= 256,
            "query plans {} lanes; at most 256 are supported",
            plan.lane_count()
        );
        // Registers sized well past the GROUP BY cardinality: group keys
        // hash into cells by CRC-32, so at 2× headroom a birthday-bound
        // ~n²/2m of the groups collide and spill unaggregated; 8× keeps
        // the spill fraction in the low percents. Collisions stay *exact*
        // either way (the spillover bucket forwards victims), this is a
        // reduction-ratio knob, not correctness.
        let register_cells = (table.spec.n_groups * 8).next_power_of_two().clamp(64, 16_384);
        QueryRunner {
            table,
            query,
            plan,
            daiet_config: DaietConfig { register_cells, ..DaietConfig::default() },
            link: LinkSpec::fast().with_queue_bytes(4 * 1024 * 1024),
            worker_faults: None,
            coordinator_faults: None,
            resources: Resources::tofino_like(),
            pacing: SimDuration::from_micros(2),
            seed: 42,
            pool: daiet_netsim::FramePool::new(),
        }
    }

    /// Arms NACK recovery on every segment and `faults` on **every** link
    /// (worker→switch and switch→coordinator). Each frame is sent once —
    /// recovery alone must carry the query to the exact answer.
    pub fn with_full_reliability(mut self, faults: FaultProfile) -> QueryRunner {
        self.daiet_config.nack_recovery = true;
        self.daiet_config = self.daiet_config.with_rtx_sized_for_flush();
        self.worker_faults = Some(faults);
        self.coordinator_faults = Some(faults);
        self
    }

    /// The star topology: workers, the coordinator, one switch. Worker
    /// links carry [`QueryRunner::worker_faults`], the coordinator link
    /// [`QueryRunner::coordinator_faults`].
    fn make_plan(&self) -> (TopologyPlan, Vec<usize>, usize) {
        let mut plan = TopologyPlan::new();
        let workers: Vec<usize> =
            (0..self.table.spec.n_workers).map(|_| plan.add_host()).collect();
        let coord = plan.add_host();
        let sw = plan.add_switch();
        let worker_link = match self.worker_faults {
            Some(f) => self.link.with_faults(f),
            None => self.link,
        };
        for &w in &workers {
            plan.link(w, sw, worker_link);
        }
        let coord_link = match self.coordinator_faults {
            Some(f) => self.link.with_faults(f),
            None => self.link,
        };
        plan.link(coord, sw, coord_link);
        (plan, workers, coord)
    }

    fn make_sim(&self) -> Simulator {
        let mut sim = Simulator::new(self.seed);
        // One pool across this runner's runs: repeated runs recycle the
        // previous run's buffers instead of growing a cold pool each time
        // (see `daiet_mapreduce::Runner::make_sim`). Semantics-neutral.
        sim.set_frame_pool(self.pool.clone());
        sim
    }

    /// Runs the query under `mode`: the job's node list brought up by
    /// [`TopologyPlan::instantiate`]. The TCP baseline swaps its hosts in
    /// (`tcp_hosts`) over a pass-through deployment's L2 tables.
    pub fn run(&self, mode: QueryMode) -> QueryOutcome {
        let agg_mode = match mode {
            QueryMode::DaietAgg => AggregationMode::InNetwork,
            QueryMode::TcpBaseline | QueryMode::UdpNoAgg => AggregationMode::PassThrough,
        };
        let (job, mut specs, coord) = self.job(self.daiet_config, agg_mode, self.pacing);
        if mode == QueryMode::TcpBaseline {
            self.tcp_hosts(&job.placement().mappers, coord, &mut specs);
        }
        let mut sim = self.make_sim();
        let ids = job.plan().instantiate(&mut sim, specs);
        let finished_at = sim.run_until(SimTime(SimDuration::from_secs(120).as_nanos()));

        let report = match mode {
            QueryMode::TcpBaseline => self.read_tcp(&sim, ids[coord]),
            QueryMode::UdpNoAgg | QueryMode::DaietAgg => read_daiet(&job, &sim, &ids, coord),
        };
        let net = sim.snapshot();
        QueryOutcome {
            mode,
            result: self.plan.assemble(&report.lane_maps),
            complete: report.complete,
            coord_app_bytes: report.app_bytes,
            coord_nic: sim.node_stats(ids[coord]),
            records_received: report.records_received,
            frames_dropped: net.fault_drops() + net.overflow_drops(),
            duplicates_suppressed: report.duplicates_suppressed,
            completed_at: report.completed_at,
            finished_at,
        }
    }

    /// The one-shot job, deployed under `config`, and its node list — the
    /// one both backends run: [`LoopbackJob::specs`] over the workers'
    /// per-lane partials, with the coordinator's spec at its slot.
    /// Returns the job, the list and the coordinator's slot.
    fn job(
        &self,
        config: DaietConfig,
        agg_mode: AggregationMode,
        pacing: SimDuration,
    ) -> (LoopbackJob, Vec<NodeSpec>, usize) {
        let (plan, mappers, coord) = self.make_plan();
        // One tree per lane, all rooted at the coordinator.
        let placement = JobPlacement { mappers, reducers: vec![coord; self.plan.lane_count()] };
        let controller = Controller::with_per_tree_agg(config, AggFn::Sum, self.plan.lane_aggs());
        let job = LoopbackJob::deploy(controller, plan, placement, self.resources, agg_mode)
            .expect("deployment fits");
        let partials = self.table.shards.iter().map(|shard| self.plan.worker_partials(shard));
        let mut specs = job.specs(partials.collect(), pacing, 1);
        specs[coord] = coordinator_spec(&job, self.plan.lane_aggs(), coord);
        (job, specs, coord)
    }

    /// Swaps the job's worker and coordinator specs for the TCP
    /// baseline's hosts: each worker streams its encoded per-lane
    /// partials to the coordinator, which is a TCP sink.
    fn tcp_hosts(&self, workers: &[usize], coord: usize, specs: &mut [NodeSpec]) {
        for (w, &slot) in workers.iter().enumerate() {
            let payload = encode_partials(&self.plan.worker_partials(&self.table.shards[w]));
            let jobs = vec![(coord as u32, QUERY_PORT, payload)];
            specs[slot] =
                NodeSpec::plain(Box::new(move || Box::new(BulkSenderNode::new(slot as u32, jobs))));
        }
        specs[coord] = NodeSpec::plain(Box::new(move || {
            Box::new(SinkReceiverNode::new(coord as u32, QUERY_PORT))
        }));
    }

    /// The coordinator's read-out off its TCP sink `id`: every worker's
    /// stream decoded and merged per lane.
    fn read_tcp(&self, sim: &Simulator, id: NodeId) -> CoordReport {
        let node = sim.node_ref::<SinkReceiverNode>(id).expect("coordinator node");
        let mut lane_maps = self.plan.empty_lane_maps();
        let mut records_received = 0u64;
        let mut app_bytes = 0u64;
        let mut all_decoded = true;
        for stream in node.received.values() {
            app_bytes += stream.len() as u64;
            // TCP delivers byte-exact, but a run that hit the simulation
            // deadline mid-stream leaves a truncated stream. Decoding is
            // all-or-nothing: the whole torn stream is discarded and the
            // run reported incomplete rather than panicking.
            let Some(recs) = decode_partials(stream) else {
                all_decoded = false;
                continue;
            };
            records_received += recs.len() as u64;
            for (lane, group, value) in recs {
                self.plan.merge_record(&mut lane_maps, lane as usize, group, value);
            }
        }
        let complete = all_decoded && node.finished.len() == self.table.spec.n_workers;
        CoordReport {
            lane_maps,
            complete,
            recovery_satisfied: true,
            nacks_emitted: 0,
            duplicates_suppressed: 0,
            records_received,
            app_bytes,
            completed_at: if complete { node.last_fin_at } else { None },
        }
    }

    /// Runs the query over loopback UDP sockets instead of the
    /// simulator: the same node list as [`run`](Self::run) in a UDP mode
    /// (`agg_mode` picks DAIET vs pass-through), each node on its own
    /// [`daiet_fabric::NodeDriver`] thread exchanging genuine datagrams
    /// over `127.0.0.1`. `shim_for(slot)` supplies each slot's egress
    /// fault injection; `deadline` bounds wall-clock run time. The
    /// configuration and pacing are rescaled with [`wall_clock_config`]
    /// and [`wall_clock_pacing`].
    ///
    /// The backend-equivalence claim — the assembled [`QueryResult`] is
    /// **bit-identical** to both the simulator's and the in-memory
    /// reference executor's — is asserted in `tests/fabric_properties.rs`.
    pub fn run_sockets(
        &self,
        agg_mode: AggregationMode,
        mut shim_for: impl FnMut(usize) -> FaultShim,
        deadline: std::time::Duration,
    ) -> QueryLoopbackOutcome {
        let config = wall_clock_config(self.daiet_config);
        let (job, mut specs, coord) = self.job(config, agg_mode, wall_clock_pacing(self.pacing));
        for (slot, spec) in specs.iter_mut().enumerate() {
            spec.shim = shim_for(slot);
        }
        let out = daiet_fabric::run_cluster(specs, &job.links(), deadline);

        let deadlined = out.iter().any(|o| o.exit == ExitReason::Deadline);
        let shim_dropped = out.iter().map(|o| o.stats.shim_dropped).sum();
        let driver_stats: Vec<DriverStats> = out.iter().map(|o| o.stats).collect();
        let report = out
            .into_iter()
            .nth(coord)
            .expect("coordinator slot exists")
            .result
            .downcast::<CoordReport>()
            .expect("coordinator produces a report");
        QueryLoopbackOutcome {
            result: self.plan.assemble(&report.lane_maps),
            lane_maps: report.lane_maps,
            complete: report.complete,
            recovery_satisfied: report.recovery_satisfied,
            nacks_emitted: report.nacks_emitted,
            duplicates_suppressed: report.duplicates_suppressed,
            records_received: report.records_received,
            shim_dropped,
            driver_stats,
            deadlined,
        }
    }
}

/// One [`QueryRunner::run_sockets`] execution's results.
#[derive(Debug)]
pub struct QueryLoopbackOutcome {
    /// The assembled GROUP BY result (compare to
    /// [`Query::reference`] and to the simulator's
    /// [`QueryOutcome::result`]).
    pub result: QueryResult,
    /// Per-lane merged group maps, pre-assembly.
    pub lane_maps: Vec<BTreeMap<u32, u32>>,
    /// Whether every lane saw all its ENDs.
    pub complete: bool,
    /// Whether NACK recovery (if armed) finished with no gaps owing.
    pub recovery_satisfied: bool,
    /// NACK frames the coordinator emitted.
    pub nacks_emitted: u64,
    /// Frames the coordinator suppressed as duplicates.
    pub duplicates_suppressed: u64,
    /// Partial-aggregate pairs delivered to the coordinator (pre-merge).
    pub records_received: u64,
    /// Frames dropped by fault shims across all slots.
    pub shim_dropped: u64,
    /// Per-slot driver socket counters.
    pub driver_stats: Vec<DriverStats>,
    /// Whether any driver hit the wall-clock deadline (a wedged run).
    pub deadlined: bool,
}

/// The coordinator's read-out: what a socket run's finish hook carries
/// across the driver-thread boundary, and what the simulator's readers
/// return.
struct CoordReport {
    lane_maps: Vec<BTreeMap<u32, u32>>,
    complete: bool,
    recovery_satisfied: bool,
    nacks_emitted: u64,
    duplicates_suppressed: u64,
    records_received: u64,
    app_bytes: u64,
    completed_at: Option<SimTime>,
}

impl CoordReport {
    fn of(coord: &QueryCoordinatorNode) -> CoordReport {
        CoordReport {
            lane_maps: coord.lane_maps(),
            complete: coord.is_complete(),
            recovery_satisfied: coord.recovery_satisfied(),
            nacks_emitted: coord.nacks_emitted(),
            duplicates_suppressed: coord.duplicates_suppressed(),
            records_received: coord.pairs_received(),
            app_bytes: coord.app_bytes(),
            completed_at: coord.completed_at,
        }
    }
}

/// The coordinator's read-out off its DAIET endpoint at plan slot
/// `coord`, with the duplicates the switches' engines suppressed added
/// to its own.
fn read_daiet(job: &LoopbackJob, sim: &Simulator, ids: &[NodeId], coord: usize) -> CoordReport {
    let node = sim.node_ref::<QueryCoordinatorNode>(ids[coord]).expect("coordinator node");
    let mut report = CoordReport::of(node);
    for (&slot, &ext) in &job.deployment().engine_externs {
        let sw = sim.node_ref::<daiet_dataplane::Switch>(ids[slot]).expect("switch node");
        report.duplicates_suppressed += sw
            .extern_ref::<daiet::DaietEngine>(ext)
            .expect("deployment registered the engine at this id")
            .duplicates_suppressed();
    }
    report
}

/// The coordinator's [`NodeSpec`] for `job` at plan slot `coord`: a
/// [`QueryCoordinatorNode`] with one collector per lane (merging with
/// `lane_aggs`), NACK-armed under recovery, done once complete **and**
/// gapless, finishing into a [`CoordReport`].
fn coordinator_spec(job: &LoopbackJob, lane_aggs: Vec<AggFn>, coord: usize) -> NodeSpec {
    let dep = job.deployment();
    let config = dep.config;
    let workers = &job.placement().mappers;
    let expected_ends: Vec<u32> =
        (0..lane_aggs.len()).map(|l| dep.expected_ends(l, workers.len())).collect();
    // One NACK roster across every lane: the coordinator is the reducer
    // of all of them.
    let sources: Vec<(u16, u32)> =
        (0..lane_aggs.len()).flat_map(|l| dep.nack_sources(l, workers)).collect();
    NodeSpec {
        build: Box::new(move || {
            let mut node = QueryCoordinatorNode::new(&lane_aggs, &expected_ends);
            if config.nack_recovery {
                node = node.with_nack_recovery(coord as u32, &config, sources);
            }
            Box::new(node)
        }),
        shim: FaultShim::none(),
        done: Some(Box::new(|n: &dyn Node| {
            let coord = (n as &dyn Any)
                .downcast_ref::<QueryCoordinatorNode>()
                .expect("coordinator slot holds a QueryCoordinatorNode");
            coord.is_complete() && coord.recovery_satisfied()
        })),
        finish: Box::new(|n| {
            let coord = (n as Box<dyn Any>)
                .downcast::<QueryCoordinatorNode>()
                .expect("coordinator slot holds a QueryCoordinatorNode");
            Box::new(CoordReport::of(&coord))
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Aggregate;
    use crate::table::TableSpec;

    fn full_query() -> Query {
        Query::new(vec![
            Aggregate::Count,
            Aggregate::Sum(0),
            Aggregate::Min(1),
            Aggregate::Max(1),
            Aggregate::Avg(2),
        ])
    }

    #[test]
    fn tcp_codec_round_trips() {
        let table = Table::generate(&TableSpec::tiny(1));
        let plan = QueryPlan::of(&full_query());
        let partials = plan.worker_partials(&table.shards[0]);
        let bytes = encode_partials(&partials);
        let recs = decode_partials(&bytes).unwrap();
        let total: usize = partials.iter().map(Vec::len).sum();
        assert_eq!(recs.len(), total);
        assert!(decode_partials(&bytes[..bytes.len() - 1]).is_none());
        assert_eq!(decode_partials(&[]).unwrap(), vec![]);
    }

    #[test]
    fn all_three_modes_agree_with_the_reference() {
        let table = Table::generate(&TableSpec::tiny(7));
        let query = full_query();
        let truth = query.reference(&table);
        let runner = QueryRunner::new(table, query);
        for mode in [QueryMode::TcpBaseline, QueryMode::UdpNoAgg, QueryMode::DaietAgg] {
            let out = runner.run(mode);
            assert!(out.complete, "{mode:?} did not complete");
            assert_eq!(out.frames_dropped, 0, "{mode:?} dropped frames");
            assert_eq!(out.result, truth, "{mode:?} diverged from the reference");
            let done = out.completed_at.expect("complete runs record their instant");
            assert!(done <= out.finished_at);
        }
    }

    #[test]
    fn daiet_reduces_coordinator_traffic() {
        // Moderate size so group multiplicity across 8 workers is high.
        let table = Table::generate(&TableSpec {
            n_workers: 8,
            rows_per_worker: 600,
            n_groups: 64,
            ..TableSpec::tiny(3)
        });
        let runner = QueryRunner::new(table, full_query());
        let tcp = runner.run(QueryMode::TcpBaseline);
        let udp = runner.run(QueryMode::UdpNoAgg);
        let daiet = runner.run(QueryMode::DaietAgg);
        assert!(tcp.complete && udp.complete && daiet.complete);
        assert_eq!(tcp.result, daiet.result);
        assert_eq!(udp.result, daiet.result);
        // The aggregation path must measurably shrink what the
        // coordinator's NIC sees (StatsTable numbers, not app claims).
        assert!(
            daiet.coord_nic.bytes_in < tcp.coord_nic.bytes_in,
            "DAIET {} B vs TCP {} B at the coordinator NIC",
            daiet.coord_nic.bytes_in,
            tcp.coord_nic.bytes_in
        );
        assert!(
            daiet.coord_nic.bytes_in < udp.coord_nic.bytes_in,
            "DAIET {} B vs UDP {} B at the coordinator NIC",
            daiet.coord_nic.bytes_in,
            udp.coord_nic.bytes_in
        );
        assert!(daiet.coord_nic.frames_in < udp.coord_nic.frames_in);
        // Records collapse from (lane, group, worker) to (lane, group).
        assert!(daiet.records_received < udp.records_received);
    }

    #[test]
    fn duplication_faults_are_survived_with_recovery() {
        let table = Table::generate(&TableSpec::tiny(9));
        let query = full_query();
        let truth = query.reference(&table);
        let runner = QueryRunner::new(table, query)
            .with_full_reliability(FaultProfile { duplicate: 0.4, ..FaultProfile::NONE });
        for mode in [QueryMode::UdpNoAgg, QueryMode::DaietAgg] {
            let out = runner.run(mode);
            assert!(out.complete, "{mode:?} did not complete");
            assert_eq!(out.result, truth, "{mode:?} over-counted under duplication");
            assert!(out.duplicates_suppressed > 0, "{mode:?} suppressed nothing");
        }
    }

    #[test]
    fn loss_is_survived_with_redundancy() {
        let table = Table::generate(&TableSpec::tiny(13));
        let query = full_query();
        let truth = query.reference(&table);
        let runner = QueryRunner::new(table, query).with_full_reliability(FaultProfile::loss(0.1));
        let out = runner.run(QueryMode::DaietAgg);
        assert!(out.frames_dropped > 0, "faults did not fire");
        assert!(out.complete, "NACK recovery should survive 10% loss");
        assert_eq!(out.result, truth);
    }

    /// The segment PR 3 could not protect: switch-originated flush frames
    /// lost on the switch→coordinator link. NACK recovery closes it.
    #[test]
    fn coordinator_link_loss_is_recovered_by_nacks() {
        let table = Table::generate(&TableSpec::tiny(29));
        let query = full_query();
        let truth = query.reference(&table);
        let mut runner =
            QueryRunner::new(table, query).with_full_reliability(FaultProfile::loss(0.15));
        // Confine the faults to the coordinator link so the recovered
        // losses are provably flush-frame losses.
        runner.worker_faults = None;
        let out = runner.run(QueryMode::DaietAgg);
        assert!(out.frames_dropped > 0, "faults did not fire");
        assert!(out.complete, "NACK recovery should complete the query");
        assert_eq!(out.result, truth);
    }

    /// The PR-4 acceptance scenario for the query workload: loss +
    /// duplication + reordering on every link at k = 1, results
    /// bit-identical to the in-memory reference executor.
    #[test]
    fn full_chaos_on_every_link_is_exact_at_k1() {
        let table = Table::generate(&TableSpec::tiny(31));
        let query = full_query();
        let truth = query.reference(&table);
        let chaos = FaultProfile::chaos(0.08, 0.08, 0.08, 20_000);
        let runner = QueryRunner::new(table, query).with_full_reliability(chaos);
        let mut any_drops = false;
        for mode in [QueryMode::UdpNoAgg, QueryMode::DaietAgg] {
            let out = runner.run(mode);
            any_drops |= out.frames_dropped > 0;
            assert!(out.complete, "{mode:?} did not complete under chaos");
            assert_eq!(out.result, truth, "{mode:?} diverged under chaos at k=1");
        }
        assert!(any_drops, "faults never fired — the test proved nothing");
    }

    #[test]
    #[should_panic(expected = "at most 256 are supported")]
    fn over_256_lanes_are_rejected_up_front() {
        // 300 distinct SUM columns → 300 lanes: the u8 lane byte of the
        // TCP record format cannot address them, so construction fails
        // loudly instead of corrupting results.
        let table = Table::generate(&TableSpec {
            n_workers: 2,
            rows_per_worker: 2,
            n_groups: 2,
            n_columns: 300,
            zipf_s: 0.0,
            max_value: 10,
            seed: 1,
        });
        let query = Query::new((0..300).map(Aggregate::Sum).collect());
        let _ = QueryRunner::new(table, query);
    }

    /// A multi-aggregate GROUP BY over real sockets, in-network
    /// aggregation, no injected loss: bit-identical to the in-memory
    /// reference executor.
    #[test]
    fn group_by_over_loopback_matches_reference() {
        let table = Table::generate(&TableSpec::tiny(11));
        let query = Query::new(vec![Aggregate::Count, Aggregate::Sum(0), Aggregate::Avg(1)]);
        let truth = query.reference(&table);
        let runner = QueryRunner::new(table, query);
        let out = runner.run_sockets(
            AggregationMode::InNetwork,
            |_| FaultShim::none(),
            std::time::Duration::from_secs(60),
        );
        assert!(!out.deadlined, "run hit the deadline");
        assert!(out.complete && out.recovery_satisfied);
        assert_eq!(out.result, truth, "loopback diverged from the reference");
        assert_eq!(out.shim_dropped, 0);
    }

    /// Switch-egress loss with full reliability armed: the flush frames
    /// carrying the in-network partials get dropped and must come back
    /// via NACK recovery — and the answer still lands exactly.
    #[test]
    fn lossy_group_by_recovers_over_loopback() {
        let table = Table::generate(&TableSpec::tiny(13));
        let query = Query::new(vec![Aggregate::Sum(0), Aggregate::Min(1)]);
        let truth = query.reference(&table);
        let mut runner = QueryRunner::new(table, query);
        runner.daiet_config.nack_recovery = true;
        runner.daiet_config = runner.daiet_config.with_rtx_sized_for_flush();
        let switch_slot = runner.table.spec.n_workers + 1;
        let out = runner.run_sockets(
            AggregationMode::InNetwork,
            |slot| {
                if slot == switch_slot {
                    FaultShim::seeded(3, 0.10, 0.0).with_scripted_drops([0])
                } else {
                    FaultShim::none()
                }
            },
            std::time::Duration::from_secs(60),
        );
        assert!(!out.deadlined, "recovery never converged");
        assert!(out.complete && out.recovery_satisfied);
        assert_eq!(out.result, truth, "loss leaked into the result");
        assert!(out.shim_dropped > 0, "shim injected no loss — test is vacuous");
        assert!(out.nacks_emitted > 0, "loss was repaired without NACKs?");
    }

    #[test]
    fn single_aggregate_queries_work() {
        let table = Table::generate(&TableSpec::tiny(21));
        for query in [
            Query::new(vec![Aggregate::Count]),
            Query::new(vec![Aggregate::Min(0)]),
            Query::new(vec![Aggregate::Avg(1)]),
        ] {
            let truth = query.reference(&table);
            let runner = QueryRunner::new(table.clone(), query);
            let out = runner.run(QueryMode::DaietAgg);
            assert!(out.complete);
            assert_eq!(out.result, truth);
        }
    }
}
