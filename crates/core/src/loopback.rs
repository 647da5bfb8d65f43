//! One one-shot DAIET job, as a list of nodes either backend can run.
//!
//! [`LoopbackJob::specs`] is the one place that decides which node runs
//! in each plan slot of a one-shot job, for every placement the
//! controller accepts: [`PacedSenderNode`](crate::worker::PacedSenderNode)
//! mappers, userspace [`Switch`](daiet_dataplane::Switch)es, a
//! [`ReducerHost`] where a slot roots one tree and a [`MultiTreeHost`]
//! where it roots several (a multi-lane GROUP BY's coordinator), idle
//! spare hosts. Both backends consume that list. On the simulator,
//! [`TopologyPlan::instantiate`] builds every spec in slot order and
//! wires the plan; the workload crates' one-shot runners run all three
//! [`Mode`]s that way, the TCP baseline with its host specs swapped for
//! TCP streams. [`LoopbackJob::run_sockets`] hands the list to
//! [`daiet_fabric::run_cluster`], which drives each node from a
//! nonblocking UDP socket loop on its own thread. There the kernel
//! genuinely routes every datagram over `127.0.0.1`, timers run on the
//! wall clock, and loss is injected at the socket edge ([`FaultShim`]),
//! so NACK recovery is exercised over a real lossy transport. Every
//! reducer slot finishes into a [`ReducerReport`].
//!
//! Two constraints shape the API:
//!
//! * **Nodes are not `Send`** (frames are `Rc`-backed), so a spec
//!   carries `Send` *ingredients* (configs, trees, pair data) and each
//!   driver thread builds its own node. A switch thread builds only its
//!   own slot, with [`Controller::build_switch`] over the deployment's
//!   trees — exactly the switch [`Controller::deploy`] builds there.
//! * **Port numbering must match the controller's tables.** The plan
//!   assigns ports in link-insertion order and `run_cluster` does the
//!   same, so handing it `plan.links()` verbatim reproduces the exact
//!   port map the controller programmed into every switch.
//!
//! Timing is what changes meaning across backends: a 50 µs NACK timeout
//! is generous in simulated time but shorter than a scheduler quantum on
//! a real host, and a 2 µs frame gap is below the timer wheel's grain.
//! [`wall_clock_config`] and [`wall_clock_pacing`] rescale them (see
//! `docs/RELIABILITY.md`).

use crate::agg::AggFn;
use crate::config::DaietConfig;
use crate::controller::{AggregationMode, Controller, Deployment, JobPlacement};
use crate::reliability::ReceiverGuard;
use crate::worker::{
    one_shot_sender, reducer_host, Collector, IdleHost, MultiTreeHost, ReducerHost, Shard,
};
use daiet_fabric::cluster::{DonePred, NodeCtor};
use daiet_fabric::{DriverStats, Duration, ExitReason, FaultShim, Node, NodeSpec, Time};
use daiet_netsim::topology::{Role, TopologyPlan};
use daiet_wire::daiet::Key;
use std::any::Any;

/// The wall-clock NACK timeout floor: 3 ms. Large against loopback RTTs
/// (microseconds) and driver-thread scheduling jitter (up to a
/// millisecond under load), small against the multi-second run deadline
/// — a premature NACK is only wasted replay, but dozens of them per
/// flow would exhaust the budget before real loss gets recovered.
pub const WALL_NACK_TIMEOUT_NS: u64 = 3_000_000;

/// Rescales a sim-scale configuration for the wall clock: the NACK
/// timeout is raised to at least [`WALL_NACK_TIMEOUT_NS`]. Everything
/// else (packetization, the recovery switch, budgets) is
/// backend-neutral and passes through unchanged.
pub fn wall_clock_config(mut config: DaietConfig) -> DaietConfig {
    config.nack_timeout_ns = config.nack_timeout_ns.max(WALL_NACK_TIMEOUT_NS);
    config
}

/// Rescales a sim-scale frame gap for the wall clock: at least 50 µs.
/// Sim pacing is tuned for virtual time. On real sockets a driver fires
/// each pacing timer at its due instant, so the sender keeps to its
/// `gap` grid and a late wakeup catches up with a short burst (at most
/// one poll interval's worth of frames); a sim-scale 2 µs gap would make
/// every wakeup such a burst. The floor keeps bursts short and kernel
/// socket buffers comfortable.
pub fn wall_clock_pacing(pacing: Duration) -> Duration {
    Duration::from_nanos(pacing.as_nanos().max(50_000))
}

/// The transport of a one-shot job: the three modes of the paper's §5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// TCP streams from every mapper to every reducer, no DAIET.
    TcpBaseline,
    /// DAIET packets without in-network aggregation.
    UdpNoAgg,
    /// DAIET with in-network aggregation.
    DaietAgg,
}

impl Mode {
    /// The deployment the mode runs on. The TCP baseline rides a
    /// pass-through deployment's L2 tables.
    pub fn aggregation(self) -> AggregationMode {
        match self {
            Mode::DaietAgg => AggregationMode::InNetwork,
            Mode::TcpBaseline | Mode::UdpNoAgg => AggregationMode::PassThrough,
        }
    }
}

/// What a reducer slot's receiver holds, as a `Send` value: what a
/// socket run's reducer slots finish into, and what
/// [`ReducerReport::of`] reads off a live node.
#[derive(Debug)]
pub struct ReducerReport {
    /// One list per tree the slot roots, in tree-id order: the tree's
    /// aggregated pairs, sorted by key bytes.
    pub trees: Vec<Vec<(Key, u32)>>,
    /// Whether every tree saw all its expected ENDs.
    pub complete: bool,
    /// Whether every tracked flow is gapless (vacuously true without
    /// NACK recovery).
    pub recovery_satisfied: bool,
    /// NACK frames this receiver emitted.
    pub nacks_emitted: u64,
    /// Frames suppressed as duplicates.
    pub duplicates_suppressed: u64,
    /// Pairs received across the slot's trees, before merging.
    pub pairs_received: u64,
    /// Application payload bytes received across the slot's trees.
    pub app_bytes: u64,
    /// Time all input completed, if it did.
    pub completed_at: Option<Time>,
}

impl ReducerReport {
    /// Reads the receiver at a reducer slot in place: a [`ReducerHost`]
    /// or a [`MultiTreeHost`]. `None` for any other node.
    pub fn of(node: &dyn Any) -> Option<ReducerReport> {
        let (collectors, guard, completed_at): (Vec<&Collector>, &ReceiverGuard, _) =
            if let Some(host) = node.downcast_ref::<ReducerHost>() {
                (vec![&host.collector], host.guard(), host.completed_at)
            } else {
                let host = node.downcast_ref::<MultiTreeHost>()?;
                (host.trees().iter().map(|(_, c)| c).collect(), host.guard(), host.completed_at)
            };
        let sum = |f: fn(&Collector) -> u64| collectors.iter().map(|c| f(c)).sum();
        Some(ReducerReport {
            trees: collectors
                .iter()
                .map(|c| {
                    let mut pairs: Vec<(Key, u32)> = c.get_all().collect();
                    pairs.sort_unstable_by_key(|&(key, _)| key);
                    pairs
                })
                .collect(),
            complete: collectors.iter().all(|c| c.is_complete()),
            recovery_satisfied: guard.all_satisfied(),
            nacks_emitted: guard.nacks_emitted(),
            duplicates_suppressed: guard.duplicates_suppressed(),
            pairs_received: sum(|c| c.stats().pairs_received),
            app_bytes: sum(|c| c.stats().app_bytes),
            completed_at,
        })
    }
}

/// What one [`LoopbackJob::run_sockets`] run produced.
#[derive(Debug)]
pub struct SocketRun {
    /// One report per reducer slot, in the order the placement first
    /// names each slot (so by reducer when no slot roots two trees).
    pub reports: Vec<ReducerReport>,
    /// Frames dropped by fault shims across all slots.
    pub shim_dropped: u64,
    /// Per-slot driver socket counters.
    pub driver_stats: Vec<DriverStats>,
    /// Whether any driver hit the wall-clock deadline (a wedged run).
    pub deadlined: bool,
}

/// One one-shot DAIET job: the controller's deployment plus everything a
/// slot needs to build its node. Construct with [`LoopbackJob::deploy`],
/// then ask it for one [`NodeSpec`] per plan slot ([`specs`](Self::specs))
/// and either hand them to [`TopologyPlan::instantiate`] or to
/// [`run_sockets`](Self::run_sockets).
pub struct LoopbackJob {
    controller: Controller,
    plan: TopologyPlan,
    placement: JobPlacement,
    resources: daiet_dataplane::Resources,
    mode: AggregationMode,
    deployment: Deployment,
}

impl LoopbackJob {
    /// Validates and deploys the job (on the calling thread — each switch
    /// spec builds its own slot again from the deployment's trees).
    pub fn deploy(
        controller: Controller,
        plan: TopologyPlan,
        placement: JobPlacement,
        resources: daiet_dataplane::Resources,
        mode: AggregationMode,
    ) -> Result<LoopbackJob, String> {
        let (deployment, _switches) = controller
            .deploy(&plan, &placement, resources, mode)
            .map_err(|e| e.to_string())?;
        Ok(LoopbackJob { controller, plan, placement, resources, mode, deployment })
    }

    /// The deployment metadata (trees, endpoints, expected ENDs).
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// The topology plan the job is deployed over.
    pub fn plan(&self) -> &TopologyPlan {
        &self.plan
    }

    /// The job placement (mapper and reducer plan slots).
    pub fn placement(&self) -> &JobPlacement {
        &self.placement
    }

    /// The link list for [`daiet_fabric::run_cluster`], in plan
    /// insertion order — the order that reproduces the controller's
    /// port numbering.
    pub fn links(&self) -> Vec<(usize, usize)> {
        self.plan.links().iter().map(|&(a, b, _)| (a, b)).collect()
    }

    /// The spec for switch `slot`: the node's thread builds that one
    /// slot with [`Controller::build_switch`] over the deployment's trees
    /// (switches hold `Rc`-backed state and cannot cross threads).
    fn switch_spec(&self, slot: usize) -> NodeSpec {
        let controller = self.controller.clone();
        let plan = self.plan.clone();
        let trees = self.deployment.trees.clone();
        let (resources, mode) = (self.resources, self.mode);
        NodeSpec::plain(Box::new(move || {
            let (switch, _) = controller
                .build_switch(&plan, &trees, slot, resources, mode)
                .expect("deployment validated by LoopbackJob::deploy");
            Box::new(switch) as Box<dyn Node>
        }))
    }

    /// The spec for mapper `m` (placement order) owing `shards[r]` to
    /// reducer `r`: a paced multi-tree sender, replay-armed when the
    /// config has NACK recovery. Open-ended — the run stops it once
    /// every reducer is satisfied.
    fn sender_spec(&self, m: usize, shards: Vec<Shard>, pacing: Duration) -> NodeSpec {
        assert_eq!(shards.len(), self.placement.reducers.len(), "one shard per reducer");
        let slot = self.placement.mappers[m];
        let config = self.controller.config;
        let parts: Vec<(u16, daiet_wire::stack::Endpoints, Shard)> = shards
            .into_iter()
            .enumerate()
            .map(|(r, shard)| {
                (self.deployment.tree_id(r), self.deployment.endpoints(slot, r), shard)
            })
            .collect();
        NodeSpec::plain(Box::new(move || {
            Box::new(one_shot_sender(&config, m, parts, pacing, "udp-mapper")) as Box<dyn Node>
        }))
    }

    /// The spec for reducer slot `slot`, which roots the trees of
    /// reducers `rs` (placement order): the standard [`reducer_host`]
    /// endpoint for one tree, a [`MultiTreeHost`] for several. Done once
    /// complete **and** gapless, finishing into a [`ReducerReport`].
    fn root_spec(&self, slot: usize, rs: &[usize]) -> NodeSpec {
        let config = self.controller.config;
        let dep = self.deployment.clone();
        let mappers = self.placement.mappers.clone();
        let (build, done): (NodeCtor, DonePred) = match *rs {
            [r] => {
                let agg: AggFn = self.controller.agg_for(r);
                (
                    Box::new(move || Box::new(reducer_host(&config, agg, &dep, r, slot, &mappers))),
                    Box::new(|n: &dyn Node| {
                        let host = (n as &dyn Any)
                            .downcast_ref::<ReducerHost>()
                            .expect("one-tree reducer slots hold ReducerHosts");
                        host.collector.is_complete() && host.recovery_satisfied()
                    }),
                )
            }
            _ => {
                let roots: Vec<(usize, AggFn)> =
                    rs.iter().map(|&r| (r, self.controller.agg_for(r))).collect();
                (
                    Box::new(move || {
                        Box::new(MultiTreeHost::new(&config, &dep, &roots, slot, &mappers))
                    }),
                    Box::new(|n: &dyn Node| {
                        let host = (n as &dyn Any)
                            .downcast_ref::<MultiTreeHost>()
                            .expect("multi-tree reducer slots hold MultiTreeHosts");
                        host.is_complete() && host.guard().all_satisfied()
                    }),
                )
            }
        };
        NodeSpec {
            build,
            shim: FaultShim::none(),
            done: Some(done),
            finish: Box::new(|n| {
                Box::new(ReducerReport::of(&*n as &dyn Any).expect("reducer slots report"))
            }),
        }
    }

    /// The job's node list, one spec per plan slot in slot order: mappers
    /// get `shards[m]`, a slot that roots trees the receiver for them,
    /// switches their switch, and a host the placement leaves out idles.
    /// A shard is anything that makes a [`Shard`]: an owned `Vec<Pair>`
    /// (moved to the driver thread), or a shared `Arc<Vec<Pair>>` or
    /// `Arc<CodedPairs>` (the thread reads the caller's buffer); none is
    /// copied. Every shim is transparent. The simulator runs the list
    /// through [`TopologyPlan::instantiate`], the sockets through
    /// [`run_sockets`](Self::run_sockets). `_copies` is inert (every
    /// frame is sent once); it stays only because the tracked benchmark
    /// calls this signature.
    pub fn specs<P: Into<Shard>>(
        &self,
        shards: Vec<Vec<P>>,
        pacing: Duration,
        _copies: u32,
    ) -> Vec<NodeSpec> {
        assert_eq!(shards.len(), self.placement.mappers.len(), "one shard list per mapper");
        let mut shards: Vec<Option<Vec<P>>> = shards.into_iter().map(Some).collect();
        (0..self.plan.len())
            .map(|slot| {
                let rs: Vec<usize> = (0..self.placement.reducers.len())
                    .filter(|&r| self.placement.reducers[r] == slot)
                    .collect();
                if let Some(m) = self.placement.mappers.iter().position(|&s| s == slot) {
                    let shards = shards[m].take().expect("each mapper slot is unique");
                    self.sender_spec(m, shards.into_iter().map(Into::into).collect(), pacing)
                } else if !rs.is_empty() {
                    self.root_spec(slot, &rs)
                } else if self.plan.role(slot) == Role::Switch {
                    self.switch_spec(slot)
                } else {
                    NodeSpec::plain(Box::new(|| Box::new(IdleHost)))
                }
            })
            .collect()
    }

    /// Runs this job's node list `specs` over loopback UDP sockets: each
    /// node on its own [`daiet_fabric::NodeDriver`] thread, exchanging
    /// genuine datagrams over `127.0.0.1`, until every reducer slot is
    /// done or `deadline` passes. `shim_for(slot)` supplies each slot's
    /// egress fault injection ([`FaultShim::none`] for a clean run).
    /// Rescale a sim-scale configuration and pacing with
    /// [`wall_clock_config`] and [`wall_clock_pacing`] first.
    pub fn run_sockets(
        &self,
        mut specs: Vec<NodeSpec>,
        mut shim_for: impl FnMut(usize) -> FaultShim,
        deadline: std::time::Duration,
    ) -> SocketRun {
        for (slot, spec) in specs.iter_mut().enumerate() {
            spec.shim = shim_for(slot);
        }
        let out = daiet_fabric::run_cluster(specs, &self.links(), deadline);
        let deadlined = out.iter().any(|o| o.exit == ExitReason::Deadline);
        let shim_dropped = out.iter().map(|o| o.stats.shim_dropped).sum();
        let driver_stats = out.iter().map(|o| o.stats).collect();
        let mut results: Vec<Option<Box<dyn Any + Send>>> =
            out.into_iter().map(|o| Some(o.result)).collect();
        let reports = self
            .placement
            .reducers
            .iter()
            .filter_map(|&slot| results[slot].take())
            .map(|result| *result.downcast::<ReducerReport>().expect("reducer slots report"))
            .collect();
        SocketRun { reports, shim_dropped, driver_stats, deadlined }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daiet_wire::daiet::Pair;

    #[test]
    fn wall_clock_config_raises_only_the_timeout() {
        let base = DaietConfig { nack_timeout_ns: 50_000, ..DaietConfig::default() };
        let wall = wall_clock_config(base);
        assert_eq!(wall.nack_timeout_ns, WALL_NACK_TIMEOUT_NS);
        assert_eq!(wall.pairs_per_packet, base.pairs_per_packet);
        // An already-generous timeout is left alone.
        let big = DaietConfig { nack_timeout_ns: 10_000_000, ..DaietConfig::default() };
        assert_eq!(wall_clock_config(big).nack_timeout_ns, 10_000_000);
        // Pacing floors at 50 µs and leaves a slower gap alone.
        assert_eq!(wall_clock_pacing(Duration::from_micros(2)), Duration::from_micros(50));
        assert_eq!(wall_clock_pacing(Duration::from_millis(1)), Duration::from_millis(1));
    }

    /// A pass-through switch's engine never sees the tree's frames, so
    /// it must roster no child: under NACK recovery a rostered child's
    /// flow never progresses, and the switch would NACK it until its
    /// give-up horizon (86 ms at the default timeout and budget). The
    /// same job in-network rosters every child.
    #[test]
    fn a_pass_through_switch_rosters_and_nacks_no_child() {
        use daiet_dataplane::Switch;
        use daiet_netsim::{SimTime, Simulator};
        let key = |s: &str| Key::from_str_key(s).unwrap();
        let config = DaietConfig { nack_recovery: true, ..DaietConfig::default() };
        for mode in [AggregationMode::PassThrough, AggregationMode::InNetwork] {
            let plan = TopologyPlan::star(3, daiet_netsim::LinkSpec::fast());
            let placement = JobPlacement { mappers: vec![0, 1], reducers: vec![2] };
            let controller = Controller::new(config.with_rtx_sized_for_flush(), AggFn::Sum);
            let resources = daiet_dataplane::Resources::tofino_like();
            let job =
                LoopbackJob::deploy(controller, plan.clone(), placement, resources, mode).unwrap();
            let shards = vec![
                vec![vec![Pair::new(key("dog"), 2)]],
                vec![vec![Pair::new(key("cat"), 1)]],
            ];
            let mut sim = Simulator::new(7);
            let ids = plan.instantiate(&mut sim, job.specs(shards, Duration::from_micros(1), 1));
            let finished = sim.run_until(SimTime(Duration::from_secs(1).as_nanos()));
            let ext = job.deployment().engine_externs[&3];
            let engine = sim
                .node_ref::<Switch>(ids[3])
                .and_then(|sw| sw.extern_ref::<crate::DaietEngine>(ext))
                .unwrap();
            let rostered =
                engine.nack_tracker().map_or(0, crate::reliability::NackTracker::flow_count);
            if mode == AggregationMode::PassThrough {
                assert_eq!(rostered, 0);
                assert_eq!(engine.stats().nacks_out, 0);
            } else {
                assert_eq!(rostered, 2);
            }
            let horizon = SimTime(Duration::from_millis(2).as_nanos());
            assert!(finished < horizon, "{mode:?} ran until {finished:?}");
        }
    }

    /// The smallest end-to-end loopback job: two mappers, one reducer,
    /// one software switch, four OS threads, real UDP sockets. The
    /// switch aggregates in-network, so the reducer must see the summed
    /// pairs — byte-identical to what the simulator produces for the
    /// same job (asserted at scale in `tests/fabric_properties.rs`).
    #[test]
    fn two_mapper_wordcount_over_loopback_sockets() {
        let config = wall_clock_config(DaietConfig {
            register_cells: 256,
            nack_recovery: true,
            ..DaietConfig::default()
        })
        .with_rtx_sized_for_flush();
        let plan = TopologyPlan::star(3, daiet_netsim::LinkSpec::fast());
        let placement = JobPlacement { mappers: vec![0, 1], reducers: vec![2] };
        let job = LoopbackJob::deploy(
            Controller::new(config, AggFn::Sum),
            plan,
            placement,
            daiet_dataplane::Resources::tofino_like(),
            AggregationMode::InNetwork,
        )
        .unwrap();

        let key = |s: &str| Key::from_str_key(s).unwrap();
        let shards = vec![
            vec![vec![Pair::new(key("dog"), 2), Pair::new(key("cat"), 1)]],
            vec![vec![Pair::new(key("dog"), 5)]],
        ];
        let specs = job.specs(shards, Duration::from_micros(50), 1);
        let out = job.run_sockets(specs, |_| FaultShim::none(), std::time::Duration::from_secs(30));
        let report = &out.reports[0];
        assert!(report.complete, "reducer never completed: {report:?}");
        assert!(report.recovery_satisfied);
        assert_eq!(report.trees, vec![vec![(key("cat"), 1), (key("dog"), 7)]]);
        // In-network aggregation: the reducer's input came from the
        // switch, already summed — exactly one flow's worth of frames.
        assert!(out.driver_stats[2].frames_in >= 2);
    }

    /// A SUM tree and a MIN tree rooted at one host, two mappers feeding
    /// both through one in-network switch: the slot's receiver keeps the
    /// lanes apart on the simulator and over loopback sockets alike.
    /// Merging them into one lane would read `a = 11`.
    #[test]
    fn a_slot_rooting_two_trees_keeps_its_lanes_over_loopback_and_sim() {
        use daiet_netsim::{SimTime, Simulator};
        let key = |s: &str| Key::from_str_key(s).unwrap();
        let job = |config: DaietConfig| {
            let plan = TopologyPlan::star(3, daiet_netsim::LinkSpec::fast());
            let placement = JobPlacement { mappers: vec![0, 1], reducers: vec![2, 2] };
            let controller =
                Controller::with_per_tree_agg(config, AggFn::Sum, vec![AggFn::Sum, AggFn::Min]);
            let resources = daiet_dataplane::Resources::tofino_like();
            LoopbackJob::deploy(controller, plan, placement, resources, AggregationMode::InNetwork)
                .unwrap()
        };
        // Mapper m owes shards[m][tree]: SUM 5 + 3 = 8, MIN(3, 7) = 3.
        let shards = || {
            vec![
                vec![vec![Pair::new(key("a"), 5)], vec![Pair::new(key("a"), 3)]],
                vec![vec![Pair::new(key("a"), 3)], vec![Pair::new(key("a"), 7)]],
            ]
        };
        let lanes = vec![vec![(key("a"), 8)], vec![(key("a"), 3)]];

        let sim_job = job(DaietConfig::default());
        let mut sim = Simulator::new(7);
        let ids = sim_job
            .plan()
            .instantiate(&mut sim, sim_job.specs(shards(), Duration::from_micros(1), 1));
        sim.run_until(SimTime(Duration::from_secs(1).as_nanos()));
        let host = sim.node_ref::<MultiTreeHost>(ids[2]).expect("the slot roots two trees");
        // Complete only once both trees' ENDs are in: one each, from the
        // switch.
        for (tree, collector) in host.trees() {
            assert_eq!(collector.ends_seen(), 1, "tree {tree}");
        }
        let report = ReducerReport::of(host).unwrap();
        assert!(report.complete && report.completed_at.is_some());
        assert_eq!(report.trees, lanes);

        let wall_job = job(wall_clock_config(DaietConfig {
            nack_recovery: true,
            ..DaietConfig::default()
        })
        .with_rtx_sized_for_flush());
        let specs = wall_job.specs(shards(), Duration::from_micros(50), 1);
        let out =
            wall_job.run_sockets(specs, |_| FaultShim::none(), std::time::Duration::from_secs(30));
        assert!(!out.deadlined);
        let [report] = &out.reports[..] else { panic!("one reducer slot") };
        assert!(report.complete && report.recovery_satisfied, "{report:?}");
        assert_eq!(report.trees, lanes);
    }
}
