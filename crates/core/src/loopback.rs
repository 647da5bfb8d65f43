//! One one-shot DAIET job, as a list of nodes either backend can run.
//!
//! [`LoopbackJob::specs`] is the one place that decides which node runs
//! in each plan slot of a one-shot job:
//! [`PacedSenderNode`](crate::worker::PacedSenderNode) mappers,
//! userspace [`Switch`](daiet_dataplane::Switch)es, [`ReducerHost`]
//! reducers, idle spare hosts. Both backends consume that list. On the
//! simulator, [`TopologyPlan::instantiate`] builds every spec in slot
//! order and wires the plan; the workload crates' one-shot runners run
//! all three of their modes that way, the TCP baseline with its host
//! specs swapped for TCP streams. The real-time backend hands the
//! specs to [`daiet_fabric::run_cluster`],
//! which drives each node from a nonblocking UDP socket loop on its own
//! thread. There the kernel genuinely routes every datagram over
//! `127.0.0.1`, timers run on the wall clock, and loss is injected at the
//! socket edge ([`FaultShim`]), so NACK recovery is exercised over a real
//! lossy transport.
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
use crate::worker::{one_shot_sender, reducer_host, IdleHost, ReducerHost, Shard};
use daiet_fabric::{Duration, FaultShim, Node, NodeSpec, Time};
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

/// What a finished loopback reducer reports back (the `Send` distillate
/// of a [`ReducerHost`] — see [`LoopbackJob::reducer_spec`]).
#[derive(Debug)]
pub struct ReducerReport {
    /// The aggregated pairs, sorted by key bytes.
    pub pairs: Vec<(Key, u32)>,
    /// Whether every expected END arrived.
    pub complete: bool,
    /// Whether every tracked flow is gapless (vacuously true without
    /// NACK recovery).
    pub recovery_satisfied: bool,
    /// NACK frames this reducer emitted.
    pub nacks_emitted: u64,
    /// Frames suppressed as duplicates.
    pub duplicates_suppressed: u64,
    /// Wall-clock driver time all input completed, if it did.
    pub completed_at: Option<Time>,
}

/// One one-shot DAIET job: the controller's deployment plus everything a
/// slot needs to build its node. Construct with [`LoopbackJob::deploy`],
/// then ask it for one [`NodeSpec`] per plan slot ([`specs`](Self::specs))
/// and either hand them to [`TopologyPlan::instantiate`] or to
/// [`daiet_fabric::run_cluster`] with [`LoopbackJob::links`].
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
    pub fn switch_spec(&self, slot: usize, shim: FaultShim) -> NodeSpec {
        let controller = self.controller.clone();
        let plan = self.plan.clone();
        let trees = self.deployment.trees.clone();
        let (resources, mode) = (self.resources, self.mode);
        let build = Box::new(move || {
            let (switch, _) = controller
                .build_switch(&plan, &trees, slot, resources, mode)
                .expect("deployment validated by LoopbackJob::deploy");
            Box::new(switch) as Box<dyn Node>
        });
        NodeSpec { shim, ..NodeSpec::plain(build) }
    }

    /// The spec for mapper `m` (placement order) owing `shards[r]` to
    /// reducer `r`: a paced multi-tree sender, replay-armed when the
    /// config has NACK recovery. Open-ended — the run stops it once
    /// every reducer is satisfied. A shard is anything that makes a
    /// [`Shard`]: an owned `Vec<Pair>` (moved to the driver thread), or a
    /// shared `Arc<Vec<Pair>>` or `Arc<CodedPairs>` (the thread reads the
    /// caller's buffer); none is copied.
    pub fn sender_spec<P: Into<Shard>>(
        &self,
        m: usize,
        shards: Vec<P>,
        pacing: Duration,
        shim: FaultShim,
    ) -> NodeSpec {
        assert_eq!(shards.len(), self.placement.reducers.len(), "one shard per reducer");
        let slot = self.placement.mappers[m];
        let config = self.controller.config;
        let parts: Vec<(u16, daiet_wire::stack::Endpoints, Shard)> = shards
            .into_iter()
            .enumerate()
            .map(|(r, shard)| {
                (self.deployment.tree_id(r), self.deployment.endpoints(slot, r), shard.into())
            })
            .collect();
        let build = Box::new(move || {
            Box::new(one_shot_sender(&config, m, parts, pacing, "udp-mapper")) as Box<dyn Node>
        });
        NodeSpec { shim, ..NodeSpec::plain(build) }
    }

    /// The spec for reducer `r` (placement order): the standard
    /// [`reducer_host`] endpoint, done once complete **and** gapless,
    /// finishing into a [`ReducerReport`].
    pub fn reducer_spec(&self, r: usize, shim: FaultShim) -> NodeSpec {
        let config = self.controller.config;
        let agg: AggFn = self.controller.agg_for(r);
        let dep = self.deployment.clone();
        let slot = self.placement.reducers[r];
        let mappers = self.placement.mappers.clone();
        NodeSpec {
            build: Box::new(move || {
                Box::new(reducer_host(&config, agg, &dep, r, slot, &mappers))
            }),
            shim,
            done: Some(Box::new(|n: &dyn Node| {
                let host = (n as &dyn Any)
                    .downcast_ref::<ReducerHost>()
                    .expect("reducer slots hold ReducerHosts");
                host.collector.is_complete() && host.recovery_satisfied()
            })),
            finish: Box::new(|n| {
                let host = (n as Box<dyn Any>)
                    .downcast::<ReducerHost>()
                    .expect("reducer slots hold ReducerHosts");
                Box::new(ReducerReport {
                    complete: host.collector.is_complete(),
                    recovery_satisfied: host.recovery_satisfied(),
                    nacks_emitted: host.nacks_emitted(),
                    duplicates_suppressed: host.duplicates_suppressed(),
                    completed_at: host.completed_at,
                    pairs: host.collector.into_sorted(),
                })
            }),
        }
    }

    /// The job's node list, one spec per plan slot in slot order: mappers
    /// get `shards[m]`, reducers and switches their role's spec, and a
    /// host the placement leaves out idles. Every shim is transparent;
    /// set a slot's `shim` for socket-edge loss. The simulator runs the
    /// same list through [`TopologyPlan::instantiate`]. `_copies` is inert
    /// (every frame is sent once); it stays only because the tracked
    /// benchmark calls this signature.
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
                if let Some(m) = self.placement.mappers.iter().position(|&s| s == slot) {
                    self.sender_spec(
                        m,
                        shards[m].take().expect("each mapper slot is unique"),
                        pacing,
                        FaultShim::none(),
                    )
                } else if let Some(r) = self.placement.reducers.iter().position(|&s| s == slot)
                {
                    self.reducer_spec(r, FaultShim::none())
                } else if self.plan.role(slot) == Role::Switch {
                    self.switch_spec(slot, FaultShim::none())
                } else {
                    NodeSpec::plain(Box::new(|| Box::new(IdleHost)))
                }
            })
            .collect()
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
        let out = daiet_fabric::run_cluster(
            specs,
            &job.links(),
            std::time::Duration::from_secs(30),
        );
        let report = out[2].result.downcast_ref::<ReducerReport>().unwrap();
        assert!(report.complete, "reducer never completed: {report:?}");
        assert!(report.recovery_satisfied);
        assert_eq!(report.pairs, vec![(key("cat"), 1), (key("dog"), 7)]);
        // In-network aggregation: the reducer's input came from the
        // switch, already summed — exactly one flow's worth of frames.
        assert!(out[2].stats.frames_in >= 2);
    }
}
