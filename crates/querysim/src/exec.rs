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
//! The optional reliability harness ([`QueryRunner::with_reliability`])
//! pairs `k`-redundant senders with dedup windows at the switch and the
//! coordinator; worker→switch links can then be given loss/duplication
//! faults while the query still answers exactly.

// lint:allow-file(layer-netsim): GROUP BY executor harness — builds the
// Simulator, places scan/reduce nodes, and compares backends. The DAIET
// aggregation path under test remains fabric-only.
use crate::plan::QueryPlan;
use crate::query::{Query, QueryResult};
use crate::table::{group_of_key, Table};
use daiet::agg::AggFn;
use daiet::controller::{AggregationMode, Controller, JobPlacement};
use daiet::worker::{receive_daiet, Collector};
use daiet::DaietConfig;
use daiet_dataplane::Resources;
use daiet_netsim::topology::{Role, TopologyPlan};
use daiet_netsim::{
    Fabric, FaultProfile, Frame, LinkSpec, Node, NodeId, NodeStats, PortId,
    SimDuration, SimTime, Simulator,
};
use daiet_transport::tcp::{BulkSenderNode, SinkReceiverNode, TcpConfig};
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
/// are demultiplexed by tree id), optional receive-side duplicate
/// suppression and NACK recovery, completion when every lane saw all its
/// ENDs.
pub struct QueryCoordinatorNode {
    collectors: Vec<Collector>,
    /// Receive-side reliability (dedup and/or NACK recovery) — the same
    /// shared driver `ReducerHost` uses, so the workloads cannot drift.
    guard: daiet::reliability::ReceiverGuard,
    /// Simulated time all lanes completed, once reached.
    pub completed_at: Option<SimTime>,
}

impl QueryCoordinatorNode {
    /// A coordinator expecting `expected_ends[l]` END packets on lane `l`,
    /// merging lane `l` with `lane_aggs[l]`.
    pub fn new(lane_aggs: &[AggFn], expected_ends: &[u32], dedup: bool) -> QueryCoordinatorNode {
        assert_eq!(lane_aggs.len(), expected_ends.len());
        let mut guard = daiet::reliability::ReceiverGuard::new();
        if dedup {
            // Host-side table: unbounded (DRAM), unlike the switch's.
            guard.enable_dedup();
        }
        QueryCoordinatorNode {
            collectors: lane_aggs
                .iter()
                .zip(expected_ends)
                .map(|(&agg, &ends)| Collector::new(agg, ends))
                .collect(),
            guard,
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

    /// Frames suppressed as duplicates (0 without dedup), whichever
    /// filter did it — the dedup window or the gap tracker's bitmaps.
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
            return; // foreign tree id — discarded before it can charge dedup state
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
    /// Duplicates suppressed by dedup windows (switch + coordinator).
    pub duplicates_suppressed: u64,
    /// Simulated instant the coordinator's result became complete (all
    /// streams finished / all lanes saw their ENDs); `None` when the run
    /// never completed. Compare mode latencies with this.
    pub completed_at: Option<SimTime>,
    /// Simulated instant the event queue drained — later than
    /// [`completed_at`](Self::completed_at) whenever post-completion
    /// traffic (e.g. redundant copies) was still in flight.
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
    /// Extra faults applied to worker→switch links only (the segment the
    /// redundancy harness protects; see the module docs).
    pub worker_faults: Option<FaultProfile>,
    /// Extra faults applied to the switch→coordinator link — only
    /// survivable with NACK recovery
    /// ([`with_full_reliability`](Self::with_full_reliability)), since
    /// switch-originated flush frames are sent exactly once.
    pub coordinator_faults: Option<FaultProfile>,
    /// Copies of each frame workers transmit (1 = no redundancy).
    pub redundancy: u32,
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
            redundancy: 1,
            resources: Resources::tofino_like(),
            pacing: SimDuration::from_micros(2),
            seed: 42,
            pool: daiet_netsim::FramePool::new(),
        }
    }

    /// Arms the reliability harness: `k`-redundant transmission, dedup
    /// windows at switch and coordinator, and `faults` on the
    /// worker→switch links.
    pub fn with_reliability(mut self, k: u32, faults: FaultProfile) -> QueryRunner {
        self.daiet_config.reliability = true;
        self.redundancy = k;
        self.worker_faults = Some(faults);
        self
    }

    /// Arms the *full* reliability story: dedup + NACK recovery on every
    /// segment, `faults` on **every** link (worker→switch and
    /// switch→coordinator), redundancy left at `k = 1` — recovery alone
    /// must carry the query to the exact answer.
    pub fn with_full_reliability(mut self, faults: FaultProfile) -> QueryRunner {
        self.daiet_config.reliability = true;
        self.daiet_config.nack_recovery = true;
        self.daiet_config = self.daiet_config.with_rtx_sized_for_flush();
        self.worker_faults = Some(faults);
        self.coordinator_faults = Some(faults);
        self
    }

    /// The star topology: workers, the coordinator, one switch. Worker
    /// links carry [`QueryRunner::worker_faults`]; the coordinator link is
    /// clean (switch-originated flush frames are sent once, so loss there
    /// needs a reverse channel — out of scope exactly as in the paper).
    pub(crate) fn make_plan(&self) -> (TopologyPlan, Vec<usize>, usize) {
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

    pub(crate) fn placement(&self, workers: &[usize], coord: usize) -> JobPlacement {
        JobPlacement {
            mappers: workers.to_vec(),
            // One tree per lane, all rooted at the coordinator.
            reducers: vec![coord; self.plan.lane_count()],
        }
    }

    fn make_sim(&self) -> Simulator {
        let mut sim = Simulator::new(self.seed);
        // One pool across this runner's runs: repeated runs recycle the
        // previous run's buffers instead of growing a cold pool each time
        // (see `daiet_mapreduce::Runner::make_sim`). Semantics-neutral.
        sim.set_frame_pool(self.pool.clone());
        sim
    }

    /// Runs the query under `mode`.
    pub fn run(&self, mode: QueryMode) -> QueryOutcome {
        match mode {
            QueryMode::TcpBaseline => self.run_tcp(),
            QueryMode::UdpNoAgg => self.run_udp(AggregationMode::PassThrough),
            QueryMode::DaietAgg => self.run_udp(AggregationMode::InNetwork),
        }
    }

    fn run_tcp(&self) -> QueryOutcome {
        let (plan, workers, coord) = self.make_plan();
        let placement = self.placement(&workers, coord);
        // PassThrough still installs the L2 forwarding tables.
        let controller =
            Controller::with_per_tree_agg(self.daiet_config, AggFn::Sum, self.plan.lane_aggs());
        let (_dep, mut switches) = controller
            .deploy(&plan, &placement, self.resources, AggregationMode::PassThrough)
            .expect("deployment fits");

        let mut sim = self.make_sim();
        let tcp_cfg = TcpConfig::default();
        let mut ids: Vec<NodeId> = Vec::with_capacity(plan.len());
        for slot in 0..plan.len() {
            let id = match plan.role(slot) {
                Role::Host if slot != coord => {
                    let w = workers.iter().position(|&s| s == slot).expect("worker slot");
                    let payload = encode_partials(&self.plan.worker_partials(&self.table.shards[w]));
                    sim.add_node(Box::new(BulkSenderNode::new(
                        slot as u32,
                        tcp_cfg,
                        vec![(coord as u32, QUERY_PORT, payload)],
                    )))
                }
                Role::Host => sim.add_node(Box::new(SinkReceiverNode::new(
                    slot as u32,
                    tcp_cfg,
                    QUERY_PORT,
                ))),
                Role::Switch => sim.add_node(Box::new(
                    switches.remove(&slot).expect("controller built every switch"),
                )),
            };
            ids.push(id);
        }
        plan.wire(&mut sim, &ids);
        let finished_at = sim.run_until(SimTime(SimDuration::from_secs(120).as_nanos()));

        let node = sim.node_ref::<SinkReceiverNode>(ids[coord]).expect("coordinator node");
        let mut per_lane = self.plan.empty_lane_maps();
        let mut records = 0u64;
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
            records += recs.len() as u64;
            for (lane, group, value) in recs {
                self.plan.merge_record(&mut per_lane, lane as usize, group, value);
            }
        }
        let complete = all_decoded && node.finished.len() == workers.len();
        QueryOutcome {
            mode: QueryMode::TcpBaseline,
            result: self.plan.assemble(&per_lane),
            complete,
            coord_app_bytes: app_bytes,
            coord_nic: sim.node_stats(ids[coord]),
            records_received: records,
            frames_dropped: total_drops(&sim),
            duplicates_suppressed: 0,
            completed_at: if complete { node.last_fin_at } else { None },
            finished_at,
        }
    }

    fn run_udp(&self, agg_mode: AggregationMode) -> QueryOutcome {
        let (plan, workers, coord) = self.make_plan();
        let placement = self.placement(&workers, coord);
        let controller =
            Controller::with_per_tree_agg(self.daiet_config, AggFn::Sum, self.plan.lane_aggs());
        let (dep, mut switches) = controller
            .deploy(&plan, &placement, self.resources, agg_mode)
            .expect("deployment fits");

        let lane_aggs = self.plan.lane_aggs();
        let expected_ends: Vec<u32> = (0..self.plan.lane_count())
            .map(|l| dep.expected_ends(l, workers.len()))
            .collect();

        let mut sim = self.make_sim();
        let mut ids: Vec<NodeId> = Vec::with_capacity(plan.len());
        for slot in 0..plan.len() {
            let id = match plan.role(slot) {
                Role::Host if slot != coord => {
                    let w = workers.iter().position(|&s| s == slot).expect("worker slot");
                    let partials = self.plan.worker_partials(&self.table.shards[w]);
                    let lanes = partials
                        .into_iter()
                        .enumerate()
                        .map(|(l, pairs)| (dep.tree_id(l), dep.endpoints(slot, l), pairs));
                    sim.add_node(Box::new(daiet::worker::one_shot_sender(
                        &self.daiet_config,
                        w,
                        lanes,
                        self.redundancy,
                        self.pacing,
                        "query-worker",
                    )))
                }
                Role::Host => {
                    let mut node = QueryCoordinatorNode::new(
                        &lane_aggs,
                        &expected_ends,
                        self.daiet_config.reliability,
                    );
                    if self.daiet_config.nack_recovery {
                        // One NACK roster across every lane: the
                        // coordinator is the reducer of all of them.
                        let sources: Vec<(u16, u32)> = (0..self.plan.lane_count())
                            .flat_map(|l| dep.nack_sources(l, &workers))
                            .collect();
                        node = node.with_nack_recovery(
                            slot as u32,
                            &self.daiet_config,
                            sources,
                        );
                    }
                    sim.add_node(Box::new(node))
                }
                Role::Switch => sim.add_node(Box::new(
                    switches.remove(&slot).expect("controller built every switch"),
                )),
            };
            ids.push(id);
        }
        plan.wire(&mut sim, &ids);
        let finished_at = sim.run_until(SimTime(SimDuration::from_secs(120).as_nanos()));

        let mode = match agg_mode {
            AggregationMode::InNetwork => QueryMode::DaietAgg,
            AggregationMode::PassThrough => QueryMode::UdpNoAgg,
        };
        let switch_dups: u64 = dep
            .engine_externs
            .iter()
            .map(|(&slot, &ext)| {
                let sw = sim
                    .node_ref::<daiet_dataplane::Switch>(ids[slot])
                    .expect("switch node");
                sw.extern_ref::<daiet::DaietEngine>(ext)
                    .expect("deployment registered the engine at this id")
                    .duplicates_suppressed()
            })
            .sum();
        let node = sim
            .node_ref::<QueryCoordinatorNode>(ids[coord])
            .expect("coordinator node");
        QueryOutcome {
            mode,
            result: self.plan.assemble(&node.lane_maps()),
            complete: node.is_complete(),
            coord_app_bytes: node.app_bytes(),
            coord_nic: sim.node_stats(ids[coord]),
            records_received: node.pairs_received(),
            frames_dropped: total_drops(&sim),
            duplicates_suppressed: switch_dups + node.duplicates_suppressed(),
            completed_at: node.completed_at,
            finished_at,
        }
    }
}

fn total_drops(sim: &Simulator) -> u64 {
    (0..sim.link_count())
        .map(|l| {
            let s = sim.link_stats(l);
            s.dirs[0].drops_overflow + s.dirs[0].drops_fault + s.dirs[1].drops_overflow
                + s.dirs[1].drops_fault
        })
        .sum()
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
    fn duplication_faults_are_survived_with_reliability() {
        let table = Table::generate(&TableSpec::tiny(9));
        let query = full_query();
        let truth = query.reference(&table);
        let runner = QueryRunner::new(table, query).with_reliability(
            1,
            FaultProfile { duplicate: 0.4, ..FaultProfile::NONE },
        );
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
        let runner = QueryRunner::new(table, query)
            .with_reliability(3, FaultProfile::loss(0.1));
        let out = runner.run(QueryMode::DaietAgg);
        assert!(out.frames_dropped > 0, "faults did not fire");
        assert!(out.complete, "redundancy k=3 should survive 10% loss");
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
