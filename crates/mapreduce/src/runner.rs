//! Drives a complete WordCount shuffle over the simulator in each of the
//! three modes of §5 and collects the Figure-3 measurements.
//!
//! * [`ShuffleMode::TcpBaseline`] — "the original TCP-based data
//!   exchange": every mapper opens a TCP connection per reducer and
//!   streams its (pre-sorted, variable-length) partition, and each
//!   reducer merges the streams;
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
//!
//! All three modes run the one-shot job's node list,
//! [`LoopbackJob::specs`], brought up on the simulator by
//! [`TopologyPlan::instantiate`]; the TCP baseline swaps its mapper and
//! reducer specs for TCP hosts. [`Runner::run_sockets`] runs the same list
//! in a UDP mode over loopback UDP sockets ([`LoopbackJob::run_sockets`])
//! instead of the simulator.

// lint:allow-file(layer-netsim): end-to-end WordCount runner — constructs the
// Simulator and TCP-baseline nodes directly. It is the experiment harness;
// the map/reduce/aggregation logic it exercises stays fabric-only.
use crate::metrics::{BoxStats, CostModel, ReducerMetrics};
use crate::serialize;
use crate::wordcount::{Corpus, Word};
use daiet::agg::AggFn;
use daiet::controller::{AggregationMode, Controller, JobPlacement};
use daiet::loopback::{wall_clock_config, wall_clock_pacing, LoopbackJob, ReducerReport, SocketRun};
use daiet::worker::ReducerHost;
use daiet::DaietConfig;
use daiet_dataplane::Resources;
use daiet_fabric::{FaultShim, NodeSpec};
use daiet_netsim::topology::TopologyPlan;
use daiet_netsim::{FramePool, LinkSpec, NodeId, SimDuration, SimTime, Simulator};
use daiet_transport::tcp::{BulkSenderNode, SinkReceiverNode};
use daiet_wire::daiet::Key;
use daiet_wire::fnv::KeyMap;

/// The shuffle transport under test: the one-shot job's [`Mode`](daiet::loopback::Mode).
pub use daiet::loopback::Mode as ShuffleMode;

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
        }
    }

    /// Arms NACK recovery for the UDP modes on every segment
    /// (mapper→switch, switch→switch, switch→reducer) and `faults` on
    /// **every** link — each frame is sent once, so recovery alone must
    /// carry the run.
    pub fn with_recovery(mut self, faults: daiet_netsim::FaultProfile) -> Runner {
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

    /// Runs `mode` on the star topology.
    pub fn run(&self, mode: ShuffleMode) -> RunOutcome {
        let plan = self.star_plan();
        self.run_on(&plan, mode)
    }

    /// Runs `mode` on an arbitrary topology plan: the job's node list
    /// brought up by [`TopologyPlan::instantiate`]. The TCP baseline swaps its
    /// hosts in (`tcp_hosts`) over a pass-through deployment's L2 tables.
    pub fn run_on(&self, plan: &TopologyPlan, mode: ShuffleMode) -> RunOutcome {
        let job = self.job(plan, self.daiet_config, mode.aggregation());
        let placement = job.placement();
        // Cloning the table clones handles, not pairs.
        let mut specs = job.specs(self.corpus.partitions.clone(), self.pacing, 1);
        if mode == ShuffleMode::TcpBaseline {
            self.tcp_hosts(placement, &mut specs);
        }
        let mut sim = self.make_sim();
        let ids = plan.instantiate(&mut sim, specs);
        let finished_at = sim.run_until(SimTime(SimDuration::from_secs(120).as_nanos()));

        let read = if mode == ShuffleMode::TcpBaseline { Self::read_tcp } else { Self::read_daiet };
        let mut reducers = Vec::with_capacity(placement.reducers.len());
        let mut data_done_at = None;
        for (r, &slot) in placement.reducers.iter().enumerate() {
            let (metrics, done_at) = read(self, &sim, ids[slot], r);
            reducers.push(metrics);
            data_done_at = data_done_at.max(Some(done_at.unwrap_or(finished_at)));
        }
        let net = sim.snapshot();
        RunOutcome {
            mode,
            reducers,
            frames_dropped: net.fault_drops() + net.overflow_drops(),
            finished_at,
            data_done_at: data_done_at.unwrap_or(finished_at),
        }
    }

    /// The one-shot job on `plan`, deployed under `config`: mappers on
    /// its first hosts, the reducers on the next ones; any host after
    /// them idles.
    fn job(&self, plan: &TopologyPlan, config: DaietConfig, mode: AggregationMode) -> LoopbackJob {
        let hosts = plan.hosts();
        let (m, r) = (self.corpus.spec.n_mappers, self.corpus.spec.n_reducers);
        assert!(hosts.len() >= m + r, "plan too small");
        let placement =
            JobPlacement { mappers: hosts[..m].to_vec(), reducers: hosts[m..m + r].to_vec() };
        let controller = Controller::new(config, AggFn::Sum);
        LoopbackJob::deploy(controller, plan.clone(), placement, self.resources, mode)
            .expect("deployment fits")
    }

    /// Swaps the job's mapper and reducer specs for the TCP baseline's
    /// hosts: each mapper streams its partitions, decoded and sorted, one
    /// connection per reducer (mappers sort in the baseline; zero-padded
    /// keys order like the words they hold), and each reducer is a TCP
    /// sink.
    fn tcp_hosts(&self, placement: &JobPlacement, specs: &mut [NodeSpec]) {
        for (m, &slot) in placement.mappers.iter().enumerate() {
            let mut jobs = Vec::with_capacity(placement.reducers.len());
            for (r, &reducer) in placement.reducers.iter().enumerate() {
                let mut pairs = self.corpus.partitions[m][r].to_vec();
                pairs.sort_unstable_by_key(|p| p.key);
                jobs.push((reducer as u32, SHUFFLE_PORT, serialize::encode_varlen(&pairs)));
            }
            specs[slot] =
                NodeSpec::plain(Box::new(move || Box::new(BulkSenderNode::new(slot as u32, jobs))));
        }
        for &slot in &placement.reducers {
            specs[slot] = NodeSpec::plain(Box::new(move || {
                Box::new(SinkReceiverNode::new(slot as u32, SHUFFLE_PORT))
            }));
        }
    }

    /// Reducer `r`'s measurements off its TCP sink `id`, and when its last
    /// stream finished: every mapper's stream decoded and merged.
    fn read_tcp(&self, sim: &Simulator, id: NodeId, r: usize) -> (ReducerMetrics, Option<SimTime>) {
        let spec = &self.corpus.spec;
        let node = sim.node_ref::<SinkReceiverNode>(id).expect("reducer node");
        let mut merged: KeyMap<u32> = KeyMap::default();
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
                merged.len(),
                |key| merged.get(key).copied(),
                self.corpus.expected_reduction(r),
            );
        let nic = sim.node_stats(id);
        let metrics = ReducerMetrics {
            reducer: r,
            app_bytes,
            nic_frames_in: nic.frames_in,
            nic_frames_observed: nic.frames_observed(),
            records,
            distinct_keys: merged.len(),
            reduce_time_ns: self.cost.baseline_reduce_ns(records, spec.n_mappers),
            correct,
        };
        (metrics, node.last_fin_at)
    }

    /// Reducer `r`'s measurements off its DAIET endpoint `id`, and when
    /// its input completed.
    fn read_daiet(&self, sim: &Simulator, id: NodeId, r: usize) -> (ReducerMetrics, Option<SimTime>) {
        let node = sim.node_ref::<ReducerHost>(id).expect("reducer node");
        let stats = node.collector.stats();
        let correct = node.collector.is_complete()
            && matches_reference(
                node.collector.len(),
                |key| node.collector.get(key),
                self.corpus.expected_reduction(r),
            );
        let nic = sim.node_stats(id);
        let metrics = ReducerMetrics {
            reducer: r,
            app_bytes: stats.app_bytes,
            nic_frames_in: nic.frames_in,
            nic_frames_observed: nic.frames_observed(),
            records: stats.pairs_received as usize,
            distinct_keys: node.collector.len(),
            reduce_time_ns: self.cost.daiet_reduce_ns(stats.pairs_received as usize),
            correct,
        };
        (metrics, node.completed_at)
    }

    /// Runs a UDP mode of the shuffle over loopback UDP sockets instead
    /// of the simulator: the same node list as [`run_on`](Self::run_on),
    /// handed to [`LoopbackJob::run_sockets`]. `shim_for(slot)` supplies
    /// each slot's egress fault injection ([`FaultShim::none`] for a
    /// clean run); `deadline` bounds the wall-clock run time. The
    /// configuration and pacing are rescaled with [`wall_clock_config`]
    /// and [`wall_clock_pacing`] — the run is in real time, so sim-scale
    /// NACK timeouts would fire spuriously. The run's reports are by
    /// reducer.
    ///
    /// This is the backend-equivalence anchor: a loss-free run (or a
    /// lossy one with NACK recovery armed) must land on the same bytes as
    /// the simulator, which `tests/fabric_properties.rs` asserts.
    pub fn run_sockets(
        &self,
        plan: &TopologyPlan,
        mode: AggregationMode,
        shim_for: impl FnMut(usize) -> FaultShim,
        deadline: std::time::Duration,
    ) -> SocketRun {
        let job = self.job(plan, wall_clock_config(self.daiet_config), mode);
        // Each driver thread reads the corpus's own buffers.
        let specs = job.specs(self.corpus.partitions.clone(), wall_clock_pacing(self.pacing), 1);
        job.run_sockets(specs, shim_for, deadline)
    }

    /// True when every reducer of a [`run_sockets`](Self::run_sockets)
    /// run completed, gapless, with exactly the ground-truth output —
    /// the check the simulator's [`ReducerMetrics::correct`] makes.
    pub fn reports_correct(&self, reports: &[ReducerReport]) -> bool {
        reports.len() == self.corpus.spec.n_reducers
            && reports.iter().enumerate().all(|(r, rep)| {
                let [pairs] = &rep.trees[..] else { return false };
                rep.complete
                    && rep.recovery_satisfied
                    && matches_reference(
                        pairs.len(),
                        |key| {
                            let at = pairs.binary_search_by_key(key, |&(k, _)| k).ok()?;
                            Some(pairs[at].1)
                        },
                        self.corpus.expected_reduction(r),
                    )
            })
    }
}

/// Whether a reducer's merged pairs are exactly the reference reduction —
/// the one check behind all three modes: the reducer holds `n_keys`
/// distinct keys, as many as the reference, and `count_of` maps every
/// reference word's key to its count. Distinct keys on both sides make
/// that an equality of the two maps, with one lookup per word and
/// nothing collected or sorted.
fn matches_reference(
    n_keys: usize,
    count_of: impl Fn(&Key) -> Option<u32>,
    expected: &[(Word, u32)],
) -> bool {
    n_keys == expected.len()
        && expected.iter().all(|(word, count)| count_of(&word.key()) == Some(*count))
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
    use std::sync::Arc;

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
    /// the reference — a key missing, a key too many, one key swapped for
    /// another of the same length, a count off by one — makes the reducer
    /// incorrect.
    #[test]
    fn reducer_check_rejects_every_single_difference() {
        let corpus = Corpus::generate(&CorpusSpec::tiny(5));
        let expected = corpus.expected_reduction(0);
        assert!(expected.len() > 2);
        let check = |pairs: &[(Key, u32)]| {
            let held: KeyMap<u32> = pairs.iter().copied().collect();
            assert_eq!(held.len(), pairs.len(), "a reducer holds distinct keys");
            matches_reference(held.len(), |key| held.get(key).copied(), expected)
        };
        let exact: Vec<(Key, u32)> =
            expected.iter().map(|(word, count)| (word.key(), *count)).collect();
        assert!(check(&exact));

        let missing_key = &exact[1..];
        assert!(!check(missing_key));

        let mut extra_key = exact.clone();
        extra_key.push((Key::from_str_key("not-in-corpus").unwrap(), 1));
        assert!(!check(&extra_key));

        // The word's last letter changed: same length, not in the reference.
        let mut swapped_key = exact.clone();
        let mut bytes = swapped_key[1].0;
        let last = bytes.trimmed().len() - 1;
        bytes.0[last] = if bytes.0[last] == b'z' { b'a' } else { bytes.0[last] + 1 };
        assert!(expected.iter().all(|(word, _)| word.key() != bytes));
        swapped_key[1].0 = bytes;
        assert!(!check(&swapped_key));

        for delta in [1, u32::MAX] {
            let mut count_off = exact.clone();
            count_off[1].1 = count_off[1].1.wrapping_add(delta);
            assert!(!check(&count_off));
        }
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
    /// EVERY link, each frame sent once (k = 1) — NACK recovery alone must make
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
                    assert_eq!(pairs.to_vec(), *before, "{mode:?} changed the map output");
                }
            }
        }
    }

    /// The chaos figure's loss-free column: its corpus with recovery
    /// armed and no fault injected. The pass-through modes end with
    /// their data, not at the give-up horizon of NACKs a pass-through
    /// switch once sent for flows it never sees.
    #[test]
    fn loss_free_pass_through_runs_under_recovery_end_with_their_data() {
        let spec = CorpusSpec { register_cells: 512, ..CorpusSpec::paper_scaled(12 * 256, 42) };
        let mut runner = Runner::new(Corpus::generate(&spec));
        runner.daiet_config.register_cells = 512;
        let mut runner = runner.with_recovery(daiet_netsim::FaultProfile::NONE);
        runner.seed = 7;
        for mode in [ShuffleMode::TcpBaseline, ShuffleMode::UdpNoAgg] {
            let out = runner.run(mode);
            assert!(out.all_correct(), "{mode:?} diverged");
            let finished_ms = out.finished_at.as_nanos() as f64 / 1e6;
            assert!(finished_ms < 2.0, "{mode:?} ran until {finished_ms} ms");
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

    /// A plan with a host the placement leaves out: 3 mappers and 2
    /// reducers on 6 hosts. The spare host idles in every mode.
    #[test]
    fn a_spare_host_idles_in_every_mode() {
        let spec = CorpusSpec { n_mappers: 3, n_reducers: 2, ..CorpusSpec::tiny(4) };
        let runner = Runner::new(Corpus::generate(&spec));
        let plan = TopologyPlan::leaf_spine(3, 2, 2, runner.link);
        assert_eq!(plan.hosts().len(), 6);
        for mode in [ShuffleMode::TcpBaseline, ShuffleMode::UdpNoAgg, ShuffleMode::DaietAgg] {
            assert!(runner.run_on(&plan, mode).all_correct(), "{mode:?} diverged");
        }
    }

    /// A tiny corpus end-to-end over real sockets, in-network
    /// aggregation, no injected loss: every reducer must land exactly on
    /// the ground truth.
    #[test]
    fn tiny_wordcount_completes_over_loopback() {
        let runner = tiny_runner(3);
        let plan = runner.star_plan();
        let out = runner.run_sockets(
            &plan,
            AggregationMode::InNetwork,
            |_| FaultShim::none(),
            std::time::Duration::from_secs(60),
        );
        assert!(!out.deadlined, "run hit the deadline");
        assert!(runner.reports_correct(&out.reports), "reducers diverged from ground truth");
        assert_eq!(out.shim_dropped, 0);
        // The driver threads read the corpus's buffers and gave them back.
        for pairs in runner.corpus.partitions.iter().flatten() {
            assert_eq!(Arc::strong_count(pairs), 1);
        }
    }

    /// Seeded loss on the switch's egress — the frames that carry the
    /// aggregated results — with NACK recovery armed: the run must still
    /// land exactly, and must actually have dropped and recovered
    /// something.
    #[test]
    fn switch_egress_loss_is_nack_recovered_over_loopback() {
        let mut runner = tiny_runner(5);
        runner.daiet_config.nack_recovery = true;
        runner.daiet_config = runner.daiet_config.with_rtx_sized_for_flush();
        let plan = runner.star_plan();
        let switch_slot = plan.switches()[0];
        let out = runner.run_sockets(
            &plan,
            AggregationMode::InNetwork,
            |slot| {
                if slot == switch_slot {
                    // Scripted drop of egress frame 0 guarantees at least
                    // one loss even when the seeded 10% stream spares the
                    // handful of frames a tiny corpus produces.
                    FaultShim::seeded(77, 0.10, 0.0).with_scripted_drops([0])
                } else {
                    FaultShim::none()
                }
            },
            std::time::Duration::from_secs(60),
        );
        assert!(!out.deadlined, "recovery never converged");
        assert!(runner.reports_correct(&out.reports), "loss leaked into the result");
        assert!(out.shim_dropped > 0, "shim injected no loss — test is vacuous");
        let nacks: u64 = out.reports.iter().map(|r| r.nacks_emitted).sum();
        assert!(nacks > 0, "loss was repaired without NACKs?");
    }
}
