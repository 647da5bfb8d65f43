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
//! The runner has the WordCount runner's shape: it runs on any
//! [`TopologyPlan`] whose first hosts are the workers and the next one
//! the coordinator, the star by default. All three modes run
//! the one-shot job's node list, [`LoopbackJob::specs`], brought up on
//! the simulator by [`TopologyPlan::instantiate`]; every lane's tree is
//! rooted at the coordinator, so its slot holds the job's multi-tree
//! receiver, and this module only decodes group keys off its report.
//! The TCP baseline swaps its worker and coordinator specs for TCP
//! hosts. [`QueryRunner::run_sockets`] runs the same list in a UDP mode
//! over loopback UDP sockets instead of the simulator.
//!
//! [`QueryRunner::with_recovery`] arms NACK recovery at the switches and
//! the coordinator and puts loss, duplication and reordering faults on
//! every link; the query must still answer exactly.

// lint:allow-file(layer-netsim): GROUP BY executor harness — builds the
// Simulator, places scan/reduce nodes, and compares backends. The DAIET
// aggregation path under test remains fabric-only.
use crate::plan::QueryPlan;
use crate::query::{Query, QueryResult};
use crate::table::{group_of_key, Table};
use daiet::agg::AggFn;
use daiet::controller::{AggregationMode, Controller, JobPlacement};
use daiet::loopback::{wall_clock_config, wall_clock_pacing, LoopbackJob, ReducerReport, SocketRun};
use daiet::DaietConfig;
use daiet_dataplane::Resources;
use daiet_fabric::{FaultShim, NodeSpec};
use daiet_netsim::topology::TopologyPlan;
use daiet_netsim::{FaultProfile, LinkSpec, NodeId, NodeStats, SimDuration, SimTime, Simulator};
use daiet_transport::tcp::{BulkSenderNode, SinkReceiverNode};
use std::collections::BTreeMap;

/// The execution strategy under test: the one-shot job's
/// [`Mode`](daiet::loopback::Mode).
pub use daiet::loopback::Mode as QueryMode;

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

/// The coordinator's lanes, decoded back to group ids: one map per tree
/// the report holds, in tree-id (= lane) order.
fn lane_maps(report: &ReducerReport) -> Vec<BTreeMap<u32, u32>> {
    report
        .trees
        .iter()
        .map(|pairs| pairs.iter().filter_map(|(k, v)| group_of_key(k).map(|g| (g, *v))).collect())
        .collect()
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
    /// Link parameters for every edge of [`star_plan`](Self::star_plan).
    pub link: LinkSpec,
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
            resources: Resources::tofino_like(),
            pacing: SimDuration::from_micros(2),
            seed: 42,
            pool: daiet_netsim::FramePool::new(),
        }
    }

    /// Arms NACK recovery for the UDP modes on every segment
    /// (worker→switch, switch→switch, switch→coordinator) and `faults`
    /// on **every** link — each frame is sent once, so recovery alone
    /// must carry the query to the exact answer.
    pub fn with_recovery(mut self, faults: FaultProfile) -> QueryRunner {
        self.daiet_config.nack_recovery = true;
        self.daiet_config = self.daiet_config.with_rtx_sized_for_flush();
        self.link = self.link.with_faults(faults);
        self
    }

    fn make_sim(&self) -> Simulator {
        let mut sim = Simulator::new(self.seed);
        // One pool across this runner's runs: repeated runs recycle the
        // previous run's buffers instead of growing a cold pool each time
        // (see `daiet_mapreduce::Runner::make_sim`). Semantics-neutral.
        sim.set_frame_pool(self.pool.clone());
        sim
    }

    /// The star topology: the workers, then the coordinator, on one
    /// switch.
    pub fn star_plan(&self) -> TopologyPlan {
        TopologyPlan::star(self.table.spec.n_workers + 1, self.link)
    }

    /// Runs the query under `mode` on the star topology.
    pub fn run(&self, mode: QueryMode) -> QueryOutcome {
        self.run_on(&self.star_plan(), mode)
    }

    /// Runs the query under `mode` on an arbitrary topology plan: the
    /// job's node list brought up by [`TopologyPlan::instantiate`]. The
    /// TCP baseline swaps its hosts in (`tcp_hosts`) over a pass-through
    /// deployment's L2 tables.
    pub fn run_on(&self, plan: &TopologyPlan, mode: QueryMode) -> QueryOutcome {
        let job = self.job(plan, self.daiet_config, mode.aggregation());
        let coord = job.placement().reducers[0];
        let mut specs = job.specs(self.partials(), self.pacing, 1);
        if mode == QueryMode::TcpBaseline {
            self.tcp_hosts(job.placement(), &mut specs);
        }
        let mut sim = self.make_sim();
        let ids = plan.instantiate(&mut sim, specs);
        let finished_at = sim.run_until(SimTime(SimDuration::from_secs(120).as_nanos()));

        let (lanes, mut report) = if mode == QueryMode::TcpBaseline {
            self.read_tcp(&sim, ids[coord])
        } else {
            let node = sim.node_any(ids[coord]).expect("coordinator node");
            let report = ReducerReport::of(node).expect("the coordinator roots every lane");
            (lane_maps(&report), report)
        };
        // Add the duplicates the switches' engines suppressed.
        for (&slot, &ext) in &job.deployment().engine_externs {
            let sw = sim.node_ref::<daiet_dataplane::Switch>(ids[slot]).expect("switch node");
            report.duplicates_suppressed += sw
                .extern_ref::<daiet::DaietEngine>(ext)
                .expect("deployment registered the engine at this id")
                .duplicates_suppressed();
        }
        let net = sim.snapshot();
        QueryOutcome {
            mode,
            result: self.plan.assemble(&lanes),
            complete: report.complete,
            coord_app_bytes: report.app_bytes,
            coord_nic: sim.node_stats(ids[coord]),
            records_received: report.pairs_received,
            frames_dropped: net.fault_drops() + net.overflow_drops(),
            duplicates_suppressed: report.duplicates_suppressed,
            completed_at: report.completed_at,
            finished_at,
        }
    }

    /// Each worker's per-lane partials, the shards its mapper sends.
    fn partials(&self) -> Vec<Vec<Vec<daiet_wire::daiet::Pair>>> {
        self.table.shards.iter().map(|shard| self.plan.worker_partials(shard)).collect()
    }

    /// The one-shot job on `plan`, deployed under `config`: the workers
    /// on its first hosts and one tree per lane, every one rooted at the
    /// next host, the coordinator; any host after it idles.
    fn job(&self, plan: &TopologyPlan, config: DaietConfig, mode: AggregationMode) -> LoopbackJob {
        let hosts = plan.hosts();
        let n = self.table.spec.n_workers;
        assert!(hosts.len() > n, "plan too small");
        let placement = JobPlacement {
            mappers: hosts[..n].to_vec(),
            reducers: vec![hosts[n]; self.plan.lane_count()],
        };
        let controller = Controller::with_per_tree_agg(config, AggFn::Sum, self.plan.lane_aggs());
        LoopbackJob::deploy(controller, plan.clone(), placement, self.resources, mode)
            .expect("deployment fits")
    }

    /// Swaps the job's worker and coordinator specs for the TCP
    /// baseline's hosts: each worker streams its encoded per-lane
    /// partials to the coordinator, which is a TCP sink.
    fn tcp_hosts(&self, placement: &JobPlacement, specs: &mut [NodeSpec]) {
        let coord = placement.reducers[0];
        for (w, &slot) in placement.mappers.iter().enumerate() {
            let payload = encode_partials(&self.plan.worker_partials(&self.table.shards[w]));
            let jobs = vec![(coord as u32, QUERY_PORT, payload)];
            specs[slot] =
                NodeSpec::plain(Box::new(move || Box::new(BulkSenderNode::new(slot as u32, jobs))));
        }
        specs[coord] = NodeSpec::plain(Box::new(move || {
            Box::new(SinkReceiverNode::new(coord as u32, QUERY_PORT))
        }));
    }

    /// The coordinator's lanes and report off its TCP sink `id`: every
    /// worker's stream decoded and merged per lane. The report holds no
    /// pairs and no reliability counters.
    fn read_tcp(&self, sim: &Simulator, id: NodeId) -> (Vec<BTreeMap<u32, u32>>, ReducerReport) {
        let node = sim.node_ref::<SinkReceiverNode>(id).expect("coordinator node");
        let mut lanes = self.plan.empty_lane_maps();
        let mut pairs_received = 0u64;
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
            pairs_received += recs.len() as u64;
            for (lane, group, value) in recs {
                self.plan.merge_record(&mut lanes, lane as usize, group, value);
            }
        }
        let complete = all_decoded && node.finished.len() == self.table.spec.n_workers;
        let report = ReducerReport {
            trees: Vec::new(),
            complete,
            recovery_satisfied: true,
            nacks_emitted: 0,
            duplicates_suppressed: 0,
            pairs_received,
            app_bytes,
            completed_at: if complete { node.last_fin_at } else { None },
        };
        (lanes, report)
    }

    /// Runs the query over loopback UDP sockets instead of the
    /// simulator: the same node list as [`run_on`](Self::run_on) in a UDP
    /// mode (`mode` picks DAIET vs pass-through), handed to
    /// [`LoopbackJob::run_sockets`]. `shim_for(slot)` supplies each
    /// slot's egress fault injection; `deadline` bounds wall-clock run
    /// time. The configuration and pacing are rescaled with
    /// [`wall_clock_config`] and [`wall_clock_pacing`]. The run's one
    /// report is the coordinator's.
    ///
    /// The backend-equivalence claim — the assembled [`QueryResult`] is
    /// **bit-identical** to both the simulator's and the in-memory
    /// reference executor's — is asserted in `tests/fabric_properties.rs`.
    pub fn run_sockets(
        &self,
        plan: &TopologyPlan,
        mode: AggregationMode,
        shim_for: impl FnMut(usize) -> FaultShim,
        deadline: std::time::Duration,
    ) -> QueryLoopbackOutcome {
        let job = self.job(plan, wall_clock_config(self.daiet_config), mode);
        let specs = job.specs(self.partials(), wall_clock_pacing(self.pacing), 1);
        let run = job.run_sockets(specs, shim_for, deadline);
        QueryLoopbackOutcome { result: self.plan.assemble(&lane_maps(&run.reports[0])), run }
    }
}

/// One [`QueryRunner::run_sockets`] execution's results.
#[derive(Debug)]
pub struct QueryLoopbackOutcome {
    /// The assembled GROUP BY result (compare to
    /// [`Query::reference`] and to the simulator's
    /// [`QueryOutcome::result`]).
    pub result: QueryResult,
    /// The socket run; its one report is the coordinator's.
    pub run: SocketRun,
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

    /// GROUP BY on a two-leaf, two-spine fabric: the workers and the
    /// coordinator span both leaves, so lanes cross the spines.
    #[test]
    fn group_by_on_a_leaf_spine_matches_the_reference_in_every_mode() {
        let table = Table::generate(&TableSpec::tiny(7));
        let query = full_query();
        let truth = query.reference(&table);
        let runner = QueryRunner::new(table, query);
        let plan = TopologyPlan::leaf_spine(3, 2, 2, runner.link);
        for mode in [QueryMode::TcpBaseline, QueryMode::UdpNoAgg, QueryMode::DaietAgg] {
            let out = runner.run_on(&plan, mode);
            assert!(out.complete, "{mode:?} did not complete");
            assert_eq!(out.frames_dropped, 0, "{mode:?} dropped frames");
            assert_eq!(out.result, truth, "{mode:?} diverged from the reference");
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
            .with_recovery(FaultProfile { duplicate: 0.4, ..FaultProfile::NONE });
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
        let runner = QueryRunner::new(table, query).with_recovery(FaultProfile::loss(0.1));
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
        let runner = QueryRunner::new(table, query).with_recovery(FaultProfile::NONE);
        // Confine the faults to the coordinator link so the recovered
        // losses are provably flush-frame losses: the star, with only the
        // coordinator's link lossy.
        let mut plan = TopologyPlan::new();
        let workers: Vec<usize> =
            (0..runner.table.spec.n_workers).map(|_| plan.add_host()).collect();
        let coord = plan.add_host();
        let sw = plan.add_switch();
        for w in workers {
            plan.link(w, sw, runner.link);
        }
        plan.link(coord, sw, runner.link.with_faults(FaultProfile::loss(0.15)));
        let out = runner.run_on(&plan, QueryMode::DaietAgg);
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
        let runner = QueryRunner::new(table, query).with_recovery(chaos);
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
            &runner.star_plan(),
            AggregationMode::InNetwork,
            |_| FaultShim::none(),
            std::time::Duration::from_secs(60),
        );
        assert!(!out.run.deadlined, "run hit the deadline");
        assert!(out.run.reports[0].complete && out.run.reports[0].recovery_satisfied);
        assert_eq!(out.result, truth, "loopback diverged from the reference");
        assert_eq!(out.run.shim_dropped, 0);
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
        let plan = runner.star_plan();
        let switch_slot = plan.switches()[0];
        let out = runner.run_sockets(
            &plan,
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
        let coord = &out.run.reports[0];
        assert!(!out.run.deadlined, "recovery never converged");
        assert!(coord.complete && coord.recovery_satisfied);
        assert_eq!(out.result, truth, "loss leaked into the result");
        assert!(out.run.shim_dropped > 0, "shim injected no loss — test is vacuous");
        assert!(coord.nacks_emitted > 0, "loss was repaired without NACKs?");
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
