//! Drives a complete WordCount shuffle over the simulator in each of the
//! three modes of §5 and collects the Figure-3 measurements.
//!
//! * [`ShuffleMode::TcpBaseline`] — "the original TCP-based data
//!   exchange": every mapper opens a TCP connection per reducer and
//!   streams its (pre-sorted, variable-length) partition;
//! * [`ShuffleMode::UdpNoAgg`] — "using UDP and the DAIET protocol, but
//!   without executing data aggregation in the switch": same DAIET
//!   packets, switches merely forward;
//! * [`ShuffleMode::DaietAgg`] — full DAIET: switches aggregate on-path.
//!
//! The topology mirrors the paper's testbed: one switch, every mapper and
//! reducer on its own port (they ran 24 mapper + 12 reducer containers
//! behind one bmv2 switch). The runner is topology-generic — pass any
//! [`TopologyPlan`] — so multi-switch trees are exercised in the
//! integration tests.

// lint:allow-file(layer-netsim): end-to-end WordCount runner — constructs the
// Simulator and TCP-baseline nodes directly. It is the experiment harness;
// the map/reduce/aggregation logic it exercises stays fabric-only.
use crate::metrics::{BoxStats, CostModel, ReducerMetrics};
use crate::serialize;
use crate::wordcount::Corpus;
use daiet::agg::AggFn;
use daiet::controller::{AggregationMode, Controller, JobPlacement};
use daiet::worker::ReducerHost;
use daiet::DaietConfig;
use daiet_dataplane::Resources;
use daiet_netsim::topology::{Role, TopologyPlan};
use daiet_netsim::{FramePool, LinkSpec, NodeId, SimDuration, SimTime, Simulator};
use daiet_transport::tcp::{BulkSenderNode, SinkReceiverNode, TcpConfig};
use std::sync::Arc;
use daiet_wire::daiet::Key;
use daiet_wire::fnv::FnvHashMap;

/// The shuffle transport under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShuffleMode {
    /// TCP streams, mapper-side sort, reducer-side k-way merge.
    TcpBaseline,
    /// DAIET packets without in-network aggregation.
    UdpNoAgg,
    /// DAIET with in-network aggregation.
    DaietAgg,
}

/// TCP port reducers listen on in the baseline.
const SHUFFLE_PORT: u16 = 9000;


/// One complete run's results.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The transport that produced these numbers.
    pub mode: ShuffleMode,
    /// Per-reducer measurements, indexed by reducer.
    pub reducers: Vec<ReducerMetrics>,
    /// Frames dropped anywhere in the network (must be 0 in the loss-free
    /// configurations for the UDP modes to be meaningful).
    pub frames_dropped: u64,
    /// Simulated quiescence time: when the last event of any kind fired.
    /// Under injected faults this includes trailing retransmission-timer
    /// tails long after the data landed.
    pub finished_at: SimTime,
    /// Simulated time the last reducer received its complete input — the
    /// application-level completion the figures plot. Falls back to
    /// `finished_at` when a receiver never tracked it.
    pub data_done_at: SimTime,
}

impl RunOutcome {
    /// True when every reducer produced the ground-truth output.
    pub fn all_correct(&self) -> bool {
        self.reducers.iter().all(|r| r.correct)
    }
}

/// Orchestrates runs of one corpus over one topology.
pub struct Runner {
    /// The generated workload.
    pub corpus: Corpus,
    /// DAIET parameters.
    pub daiet_config: DaietConfig,
    /// Reduce-time model.
    pub cost: CostModel,
    /// Link parameters for every edge.
    pub link: LinkSpec,
    /// Switch chip profile.
    pub resources: Resources,
    /// Gap between UDP frames at each mapper.
    pub pacing: SimDuration,
    /// Simulation seed.
    pub seed: u64,
    /// Recycle frame buffers through the simulator's [`FramePool`]
    /// (default). Disable to force plain allocation — results must be
    /// bit-identical either way, which `tests/` asserts.
    pub pooling: bool,
    /// Inert: the partitioned execution engine is gone and nothing reads
    /// this. It survives only because the tracked benchmark assigns it;
    /// the next `benchmark` issue removes both (ROADMAP item 1).
    pub partitions: usize,
    /// The frame pool shared across this runner's runs (see `make_sim`).
    /// Every node builds its frames from it (`Fabric::pool`), mappers
    /// included, at the tick a frame is sent — the runner itself never
    /// takes a buffer.
    pool: FramePool,
    /// Copies of each frame mappers transmit (1 = no redundancy; pair
    /// with `daiet_config.reliability` so duplicates are suppressed).
    pub redundancy: u32,
}

impl Runner {
    /// A runner with paper-shaped defaults over `corpus`.
    pub fn new(corpus: Corpus) -> Runner {
        let register_cells = corpus.spec.register_cells;
        Runner {
            corpus,
            daiet_config: DaietConfig { register_cells, ..DaietConfig::default() },
            cost: CostModel::default(),
            // Generous queues: the paper's bmv2 testbed was not
            // loss-limited, and the UDP prototype has no loss recovery.
            link: LinkSpec::fast().with_queue_bytes(4 * 1024 * 1024),
            resources: Resources::tofino_like(),
            pacing: SimDuration::from_micros(2),
            seed: 42,
            pooling: true,
            partitions: 1,
            pool: FramePool::new(),
            redundancy: 1,
        }
    }

    /// Arms the full reliability story for the UDP modes: dedup windows
    /// everywhere, NACK recovery on every segment (mapper→switch,
    /// switch→switch, switch→reducer) and `faults` on **every** link —
    /// redundancy stays at `k = 1`, recovery alone must carry the run.
    pub fn with_recovery(mut self, faults: daiet_netsim::FaultProfile) -> Runner {
        self.daiet_config.reliability = true;
        self.daiet_config.nack_recovery = true;
        self.daiet_config = self.daiet_config.with_rtx_sized_for_flush();
        self.link = self.link.with_faults(faults);
        self
    }

    fn make_sim(&self) -> Simulator {
        let mut sim = Simulator::new(self.seed);
        // One pool across this runner's runs: repeated runs (benches,
        // multi-mode comparisons) recycle the previous run's buffers
        // instead of growing a cold pool from scratch each time — which
        // matters once retransmit rings hold frames long enough that a
        // run's working set exceeds the in-flight population. Buffer
        // reuse is semantics-neutral (`tests/pool_properties`).
        sim.set_frame_pool(if self.pooling { self.pool.clone() } else { FramePool::disabled() });
        sim
    }

    /// Allocation and recycling counters of this runner's frame pool,
    /// over every run so far.
    pub fn pool_stats(&self) -> daiet_netsim::PoolStats {
        self.pool.stats()
    }

    /// The star topology of the paper's testbed for this corpus.
    pub fn star_plan(&self) -> TopologyPlan {
        let spec = &self.corpus.spec;
        TopologyPlan::star(spec.n_mappers + spec.n_reducers, self.link)
    }

    /// Mapper plan slots (hosts `0..n_mappers` in the star plan).
    pub(crate) fn placement(&self, plan: &TopologyPlan) -> JobPlacement {
        let hosts = plan.hosts();
        let spec = &self.corpus.spec;
        assert!(hosts.len() >= spec.n_mappers + spec.n_reducers, "plan too small");
        JobPlacement {
            mappers: hosts[..spec.n_mappers].to_vec(),
            reducers: hosts[spec.n_mappers..spec.n_mappers + spec.n_reducers].to_vec(),
        }
    }

    /// Runs `mode` on the star topology.
    pub fn run(&self, mode: ShuffleMode) -> RunOutcome {
        let plan = self.star_plan();
        self.run_on(&plan, mode)
    }

    /// Runs `mode` on an arbitrary topology plan.
    pub fn run_on(&self, plan: &TopologyPlan, mode: ShuffleMode) -> RunOutcome {
        match mode {
            ShuffleMode::TcpBaseline => self.run_tcp(plan),
            ShuffleMode::UdpNoAgg => self.run_udp(plan, AggregationMode::PassThrough),
            ShuffleMode::DaietAgg => self.run_udp(plan, AggregationMode::InNetwork),
        }
    }

    fn run_tcp(&self, plan: &TopologyPlan) -> RunOutcome {
        let placement = self.placement(plan);
        let spec = &self.corpus.spec;
        // PassThrough deployment still builds the L2 forwarding tables.
        let controller = Controller::new(self.daiet_config, AggFn::Sum);
        let (_dep, mut switches) = controller
            .deploy(plan, &placement, self.resources, AggregationMode::PassThrough)
            .expect("deployment fits");

        let mut sim = self.make_sim();
        let mut ids: Vec<NodeId> = Vec::with_capacity(plan.len());
        let tcp_cfg = TcpConfig::default();

        for slot in 0..plan.len() {
            let id = match plan.role(slot) {
                Role::Host => {
                    if let Some(m) = placement.mappers.iter().position(|&s| s == slot) {
                        // Jobs: one stream per reducer, sorted records
                        // (mappers sort in the baseline; zero-padded keys
                        // order like the words they hold).
                        let jobs: Vec<(u32, u16, Vec<u8>)> = (0..spec.n_reducers)
                            .map(|r| {
                                let mut pairs = self.corpus.partitions[m][r].to_vec();
                                pairs.sort_unstable_by_key(|p| p.key);
                                (
                                    placement.reducers[r] as u32,
                                    SHUFFLE_PORT,
                                    serialize::encode_varlen(&pairs),
                                )
                            })
                            .collect();
                        sim.add_node(Box::new(BulkSenderNode::new(slot as u32, tcp_cfg, jobs)))
                    } else {
                        sim.add_node(Box::new(SinkReceiverNode::new(slot as u32, tcp_cfg, SHUFFLE_PORT)))
                    }
                }
                Role::Switch => sim.add_node(Box::new(
                    switches.remove(&slot).expect("controller built every switch"),
                )),
            };
            ids.push(id);
        }
        plan.wire(&mut sim, &ids);
        let finished_at = sim.run_until(SimTime(SimDuration::from_secs(120).as_nanos()));

        let mut reducers = Vec::with_capacity(spec.n_reducers);
        for (r, &slot) in placement.reducers.iter().enumerate() {
            let node = sim.node_ref::<SinkReceiverNode>(ids[slot]).expect("reducer node");
            let mut merged: FnvHashMap<Key, u32> = FnvHashMap::default();
            let mut records = 0usize;
            let mut app_bytes = 0u64;
            for stream in node.received.values() {
                app_bytes += stream.len() as u64;
                let pairs = serialize::decode_varlen(stream).expect("TCP delivers byte-exact");
                records += pairs.len();
                for pair in pairs {
                    *merged.entry(pair.key).or_insert(0) += pair.value;
                }
            }
            let correct = node.finished.len() == spec.n_mappers
                && matches_reference(
                    merged.iter().map(|(k, v)| (*k, *v)),
                    self.corpus.expected_reduction(r),
                );
            let nic = sim.node_stats(ids[slot]);
            reducers.push(ReducerMetrics {
                reducer: r,
                app_bytes,
                nic_frames_in: nic.frames_in,
                nic_frames_observed: nic.frames_observed(),
                records,
                distinct_keys: merged.len(),
                reduce_time_ns: self.cost.baseline_reduce_ns(records, spec.n_mappers),
                correct,
            });
        }
        let data_done_at = placement
            .reducers
            .iter()
            .map(|&slot| {
                sim.node_ref::<SinkReceiverNode>(ids[slot])
                    .and_then(|n| n.last_fin_at)
                    .unwrap_or(finished_at)
            })
            .max()
            .unwrap_or(finished_at);
        RunOutcome {
            mode: ShuffleMode::TcpBaseline,
            reducers,
            frames_dropped: total_drops(&sim),
            finished_at,
            data_done_at,
        }
    }

    fn run_udp(&self, plan: &TopologyPlan, agg: AggregationMode) -> RunOutcome {
        let placement = self.placement(plan);
        let spec = &self.corpus.spec;
        let controller = Controller::new(self.daiet_config, AggFn::Sum);
        let (dep, mut switches) = controller
            .deploy(plan, &placement, self.resources, agg)
            .expect("deployment fits");

        let mut sim = self.make_sim();
        let mut ids: Vec<NodeId> = Vec::with_capacity(plan.len());
        for slot in 0..plan.len() {
            let id = match plan.role(slot) {
                Role::Host => {
                    if let Some(m) = placement.mappers.iter().position(|&s| s == slot) {
                        let partitions = (0..spec.n_reducers).map(|r| {
                            (
                                dep.tree_id(r),
                                dep.endpoints(slot, r),
                                Arc::clone(&self.corpus.partitions[m][r]),
                            )
                        });
                        sim.add_node(Box::new(daiet::worker::one_shot_sender(
                            &self.daiet_config,
                            m,
                            partitions,
                            self.redundancy,
                            self.pacing,
                            "udp-mapper",
                        )))
                    } else {
                        let r = placement
                            .reducers
                            .iter()
                            .position(|&s| s == slot)
                            .expect("host is mapper or reducer");
                        sim.add_node(Box::new(daiet::worker::reducer_host(
                            &self.daiet_config,
                            AggFn::Sum,
                            &dep,
                            r,
                            slot,
                            &placement.mappers,
                        )))
                    }
                }
                Role::Switch => sim.add_node(Box::new(
                    switches.remove(&slot).expect("controller built every switch"),
                )),
            };
            ids.push(id);
        }
        plan.wire(&mut sim, &ids);
        let finished_at = sim.run_until(SimTime(SimDuration::from_secs(120).as_nanos()));

        let mode = match agg {
            AggregationMode::InNetwork => ShuffleMode::DaietAgg,
            AggregationMode::PassThrough => ShuffleMode::UdpNoAgg,
        };
        let mut reducers = Vec::with_capacity(spec.n_reducers);
        for (r, &slot) in placement.reducers.iter().enumerate() {
            let node = sim.node_ref::<ReducerHost>(ids[slot]).expect("reducer node");
            let stats = node.collector.stats();
            let correct = node.collector.is_complete()
                && matches_reference(node.collector.get_all(), self.corpus.expected_reduction(r));
            let nic = sim.node_stats(ids[slot]);
            reducers.push(ReducerMetrics {
                reducer: r,
                app_bytes: stats.app_bytes,
                nic_frames_in: nic.frames_in,
                nic_frames_observed: nic.frames_observed(),
                records: stats.pairs_received as usize,
                distinct_keys: node.collector.len(),
                reduce_time_ns: self.cost.daiet_reduce_ns(stats.pairs_received as usize),
                correct,
            });
        }
        let data_done_at = placement
            .reducers
            .iter()
            .map(|&slot| {
                sim.node_ref::<ReducerHost>(ids[slot])
                    .and_then(|n| n.completed_at)
                    .unwrap_or(finished_at)
            })
            .max()
            .unwrap_or(finished_at);
        RunOutcome { mode, reducers, frames_dropped: total_drops(&sim), finished_at, data_done_at }
    }
}

/// Whether a reducer's merged pairs are exactly the reference reduction —
/// the one check behind all three modes: as many, and pairwise equal once
/// sorted by key. Zero-padded keys order like the words they hold, so the
/// collected side sorts as 16-byte arrays and no `String` is built per
/// key.
fn matches_reference(
    collected: impl Iterator<Item = (Key, u32)>,
    expected: &[(String, u32)],
) -> bool {
    let mut got: Vec<(Key, u32)> = collected.collect();
    got.sort_unstable();
    got.len() == expected.len()
        && got
            .iter()
            .zip(expected)
            .all(|((key, value), (word, count))| key.trimmed() == word.as_bytes() && value == count)
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

/// The four Figure-3 panels, as percentage reductions per reducer.
#[derive(Debug, Clone)]
pub struct Fig3Summary {
    /// Data volume at the reducer: DAIET vs TCP baseline.
    pub data_volume: BoxStats,
    /// Modeled reduce time: DAIET vs TCP baseline.
    pub reduce_time: BoxStats,
    /// Frames at the reducer NIC: DAIET vs UDP baseline.
    pub packets_vs_udp: BoxStats,
    /// Frames at the reducer NIC (both directions): DAIET vs TCP.
    pub packets_vs_tcp: BoxStats,
}

impl Fig3Summary {
    /// Builds the panels from the three runs.
    pub fn from_runs(tcp: &RunOutcome, udp: &RunOutcome, daiet: &RunOutcome) -> Fig3Summary {
        use crate::metrics::reduction_pct;
        let n = daiet.reducers.len();
        assert!(tcp.reducers.len() == n && udp.reducers.len() == n);
        let mut vol = Vec::new();
        let mut time = Vec::new();
        let mut pkt_udp = Vec::new();
        let mut pkt_tcp = Vec::new();
        for r in 0..n {
            let (t, u, d) = (&tcp.reducers[r], &udp.reducers[r], &daiet.reducers[r]);
            vol.push(reduction_pct(d.app_bytes as f64, t.app_bytes as f64));
            time.push(reduction_pct(d.reduce_time_ns, t.reduce_time_ns));
            pkt_udp.push(reduction_pct(
                d.nic_frames_observed as f64,
                u.nic_frames_observed as f64,
            ));
            pkt_tcp.push(reduction_pct(
                d.nic_frames_observed as f64,
                t.nic_frames_observed as f64,
            ));
        }
        Fig3Summary {
            data_volume: BoxStats::of(&vol),
            reduce_time: BoxStats::of(&time),
            packets_vs_udp: BoxStats::of(&pkt_udp),
            packets_vs_tcp: BoxStats::of(&pkt_tcp),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wordcount::CorpusSpec;

    fn tiny_runner(seed: u64) -> Runner {
        let corpus = Corpus::generate(&CorpusSpec::tiny(seed));
        Runner::new(corpus)
    }

    #[test]
    fn daiet_mode_is_correct_and_reduces() {
        let runner = tiny_runner(1);
        let daiet = runner.run(ShuffleMode::DaietAgg);
        assert!(daiet.all_correct(), "DAIET output mismatched ground truth");
        assert_eq!(daiet.frames_dropped, 0);
        let udp = runner.run(ShuffleMode::UdpNoAgg);
        assert!(udp.all_correct());
        // Aggregation strictly reduces records and frames.
        for (d, u) in daiet.reducers.iter().zip(&udp.reducers) {
            assert!(d.records <= u.records);
            assert!(d.nic_frames_in <= u.nic_frames_in);
        }
        let d_total: usize = daiet.reducers.iter().map(|r| r.records).sum();
        let u_total: usize = udp.reducers.iter().map(|r| r.records).sum();
        assert!(d_total < u_total, "no aggregation happened");
    }

    /// The reducer check is a full equality: any single difference from
    /// the reference — a count, a word, a key missing, a key too many —
    /// makes the reducer incorrect.
    #[test]
    fn reducer_check_rejects_every_single_difference() {
        let corpus = Corpus::generate(&CorpusSpec::tiny(5));
        let expected = corpus.expected_reduction(0);
        assert!(expected.len() > 2);
        let exact: Vec<(Key, u32)> = expected
            .iter()
            .rev() // arrival order is arbitrary
            .map(|(word, count)| (Key::from_str_key(word).unwrap(), *count))
            .collect();
        assert!(matches_reference(exact.iter().copied(), expected));

        let mut changed_count = exact.clone();
        changed_count[1].1 += 1;
        assert!(!matches_reference(changed_count.into_iter(), expected));

        let mut changed_word = exact.clone();
        changed_word[1].0 = Key::from_str_key("not-in-corpus").unwrap();
        assert!(!matches_reference(changed_word.into_iter(), expected));

        let missing_key = exact[1..].to_vec();
        assert!(!matches_reference(missing_key.into_iter(), expected));

        let mut extra_key = exact;
        extra_key.push((Key::from_str_key("not-in-corpus").unwrap(), 1));
        assert!(!matches_reference(extra_key.into_iter(), expected));
    }

    #[test]
    fn tcp_baseline_is_correct() {
        let runner = tiny_runner(2);
        let tcp = runner.run(ShuffleMode::TcpBaseline);
        assert!(tcp.all_correct(), "TCP shuffle output mismatched");
        // TCP reducers exchange frames both ways (ACKs).
        for r in &tcp.reducers {
            assert!(r.nic_frames_observed > r.nic_frames_in);
        }
    }

    #[test]
    fn fig3_summary_shows_reductions() {
        let runner = tiny_runner(3);
        let tcp = runner.run(ShuffleMode::TcpBaseline);
        let udp = runner.run(ShuffleMode::UdpNoAgg);
        let daiet = runner.run(ShuffleMode::DaietAgg);
        let fig = Fig3Summary::from_runs(&tcp, &udp, &daiet);
        // Tiny corpora have modest multiplicity (≈2.5) so the reductions
        // are smaller than the paper's, but all must be positive.
        assert!(fig.data_volume.median > 0.0, "{:?}", fig.data_volume);
        assert!(fig.packets_vs_udp.median > 0.0, "{:?}", fig.packets_vs_udp);
        assert!(fig.reduce_time.median > 0.0, "{:?}", fig.reduce_time);
    }

    /// The PR-4 acceptance scenario: loss + duplication + reordering on
    /// EVERY link, no redundancy (k = 1) — NACK recovery alone must make
    /// both UDP modes produce the exact ground-truth reduction.
    #[test]
    fn recovery_survives_chaos_on_every_link_at_k1() {
        let chaos = daiet_netsim::FaultProfile::chaos(0.08, 0.08, 0.08, 20_000);
        let runner = tiny_runner(17).with_recovery(chaos);
        let mut any_drops = false;
        for mode in [ShuffleMode::UdpNoAgg, ShuffleMode::DaietAgg] {
            let out = runner.run(mode);
            any_drops |= out.frames_dropped > 0;
            assert!(out.all_correct(), "{mode:?} diverged under chaos at k=1");
        }
        assert!(any_drops, "faults never fired — the test proved nothing");
    }

    /// Map output is lent, not handed over: a run in any mode — chaos
    /// recovery with its replay retention included — leaves every
    /// partition with the corpus's own handle only, contents untouched.
    #[test]
    fn every_run_returns_its_map_output_handles() {
        use ShuffleMode::{DaietAgg, TcpBaseline, UdpNoAgg};
        let chaos = daiet_netsim::FaultProfile::chaos(0.08, 0.08, 0.08, 20_000);
        for (runner, modes) in [
            (tiny_runner(9), &[TcpBaseline, UdpNoAgg, DaietAgg][..]),
            (tiny_runner(17).with_recovery(chaos), &[UdpNoAgg, DaietAgg][..]),
        ] {
            let before: Vec<Vec<daiet_wire::daiet::Pair>> =
                runner.corpus.partitions.iter().flatten().map(|pairs| pairs.to_vec()).collect();
            for &mode in modes {
                assert!(runner.run(mode).all_correct(), "{mode:?} diverged");
                for (pairs, before) in runner.corpus.partitions.iter().flatten().zip(&before) {
                    assert_eq!(Arc::strong_count(pairs), 1, "{mode:?} kept a handle");
                    assert_eq!(**pairs, *before, "{mode:?} changed the map output");
                }
            }
        }
    }

    #[test]
    fn multi_switch_topology_works_end_to_end() {
        // 3 hosts per leaf × 2 leaves handles 4 mappers + 2 reducers.
        let spec = CorpusSpec { n_mappers: 4, n_reducers: 2, ..CorpusSpec::tiny(4) };
        let corpus = Corpus::generate(&spec);
        let runner = Runner::new(corpus);
        let plan = TopologyPlan::leaf_spine(3, 2, 2, runner.link);
        let out = runner.run_on(&plan, ShuffleMode::DaietAgg);
        assert!(out.all_correct());
        assert_eq!(out.frames_dropped, 0);
    }
}
