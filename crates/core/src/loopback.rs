//! Deploying a DAIET job onto the real-time UDP backend.
//!
//! The simulator runners ([`crate::iterative`], the workload crates)
//! build nodes and hand them to a `Simulator`; this module builds the
//! **same nodes** — [`PacedSenderNode`](crate::worker::PacedSenderNode)
//! mappers, userspace [`Switch`](daiet_dataplane::Switch)es,
//! [`ReducerHost`] reducers — and hands them to
//! [`daiet_fabric::run_cluster`], which drives each one from a
//! nonblocking UDP socket loop on its own thread. The kernel genuinely
//! routes every datagram over `127.0.0.1`, timers run on the wall clock,
//! and loss is injected at the socket edge ([`FaultShim`]), so NACK
//! recovery is exercised over a real lossy transport.
//!
//! Two constraints shape the API:
//!
//! * **Nodes are not `Send`** (frames are `Rc`-backed), so a spec
//!   carries `Send` *ingredients* (configs, plans, pair data) and each
//!   driver thread builds its own node. Switch threads re-run
//!   [`Controller::deploy`] locally — deployment is a pure function of
//!   the job, so every thread derives the identical plan.
//! * **Port numbering must match the controller's tables.** The plan
//!   assigns ports in link-insertion order and `run_cluster` does the
//!   same, so handing it `plan.links()` verbatim reproduces the exact
//!   port map the controller programmed into every switch.
//!
//! Timeouts are the one knob that changes meaning across backends: a
//! 50 µs NACK timeout is generous in simulated time but shorter than a
//! scheduler quantum on a real host. [`wall_clock_config`] rescales it
//! (see `docs/RELIABILITY.md`).

use crate::agg::AggFn;
use crate::config::DaietConfig;
use crate::controller::{AggregationMode, Controller, Deployment, JobPlacement};
use crate::worker::{one_shot_sender, reducer_host, ReducerHost};
use daiet_fabric::{Duration, FaultShim, Node, NodeSpec, Time};
use daiet_netsim::topology::TopologyPlan;
use daiet_wire::daiet::{Key, Pair};
use std::any::Any;
use std::sync::Arc;

/// The wall-clock NACK timeout floor: 3 ms. Large against loopback RTTs
/// (microseconds) and driver-thread scheduling jitter (up to a
/// millisecond under load), small against the multi-second run deadline
/// — a premature NACK is only wasted replay, but dozens of them per
/// flow would exhaust the budget before real loss gets recovered.
pub const WALL_NACK_TIMEOUT_NS: u64 = 3_000_000;

/// Rescales a sim-scale configuration for the wall clock: the NACK
/// timeout is raised to at least [`WALL_NACK_TIMEOUT_NS`]. Everything
/// else (packetization, reliability switches, budgets) is
/// backend-neutral and passes through unchanged.
pub fn wall_clock_config(mut config: DaietConfig) -> DaietConfig {
    config.nack_timeout_ns = config.nack_timeout_ns.max(WALL_NACK_TIMEOUT_NS);
    config
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

/// One DAIET job bound to the UDP loopback backend: the controller's
/// deployment plus everything a driver thread needs to rebuild its slot
///'s node. Construct with [`LoopbackJob::deploy`], then ask it for one
/// [`NodeSpec`] per plan slot and hand them to
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
    /// Validates and deploys the job (on the calling thread — switch
    /// threads will re-derive the identical deployment locally).
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

    /// The spec for switch `slot`: the driver thread re-runs the
    /// controller deployment and keeps its own slot's [`Switch`]
    /// (switches hold `Rc`-backed state and cannot cross threads).
    ///
    /// [`Switch`]: daiet_dataplane::Switch
    pub fn switch_spec(&self, slot: usize, shim: FaultShim) -> NodeSpec {
        let controller = self.controller.clone();
        let plan = self.plan.clone();
        let placement = self.placement.clone();
        let resources = self.resources;
        let mode = self.mode;
        NodeSpec {
            build: Box::new(move || {
                let (_dep, mut switches) = controller
                    .deploy(&plan, &placement, resources, mode)
                    .expect("deployment validated by LoopbackJob::deploy");
                Box::new(switches.remove(&slot).expect("slot holds a switch"))
            }),
            shim,
            done: None,
            finish: Box::new(|_| Box::new(())),
        }
    }

    /// The spec for mapper `m` (placement order) owing `shards[r]` to
    /// reducer `r`: a paced multi-tree sender, replay-armed when the
    /// config has NACK recovery. Open-ended — the run stops it once
    /// every reducer is satisfied. A shard is an owned `Vec<Pair>` (moved
    /// to the driver thread) or a shared `Arc<Vec<Pair>>` (the thread
    /// reads the caller's buffer); neither is copied.
    pub fn sender_spec<P: Into<Arc<Vec<Pair>>>>(
        &self,
        m: usize,
        shards: Vec<P>,
        pacing: Duration,
        redundancy: u32,
        shim: FaultShim,
    ) -> NodeSpec {
        assert_eq!(shards.len(), self.placement.reducers.len(), "one shard per reducer");
        let slot = self.placement.mappers[m];
        let config = self.controller.config;
        let parts: Vec<(u16, daiet_wire::stack::Endpoints, Arc<Vec<Pair>>)> = shards
            .into_iter()
            .enumerate()
            .map(|(r, pairs)| {
                (self.deployment.tree_id(r), self.deployment.endpoints(slot, r), pairs.into())
            })
            .collect();
        NodeSpec {
            build: Box::new(move || {
                Box::new(one_shot_sender(&config, m, parts, redundancy, pacing, "udp-mapper"))
            }),
            shim,
            done: None,
            finish: Box::new(|_| Box::new(())),
        }
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

    /// The standard full-job spec list: every plan slot filled with its
    /// role's spec (mappers get `shards[m]`, all with transparent
    /// shims). Callers needing per-slot loss injection assemble the
    /// specs themselves from the per-role constructors.
    pub fn specs<P: Into<Arc<Vec<Pair>>>>(
        &self,
        shards: Vec<Vec<P>>,
        pacing: Duration,
        redundancy: u32,
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
                        redundancy,
                        FaultShim::none(),
                    )
                } else if let Some(r) = self.placement.reducers.iter().position(|&s| s == slot)
                {
                    self.reducer_spec(r, FaultShim::none())
                } else if self.plan.switches().contains(&slot) {
                    self.switch_spec(slot, FaultShim::none())
                } else {
                    // An idle host: receives and drops (mirrors the
                    // simulator runners' inert NIC).
                    NodeSpec::plain(Box::new(|| Box::new(LoopbackIdleHost)))
                }
            })
            .collect()
    }
}

/// A host slot the placement leaves unused: receives and drops.
struct LoopbackIdleHost;

impl Node for LoopbackIdleHost {
    fn on_packet(
        &mut self,
        _ctx: &mut dyn daiet_fabric::Fabric,
        _port: daiet_fabric::PortId,
        _frame: daiet_fabric::Frame,
    ) {
    }

    fn name(&self) -> String {
        "idle-host".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_config_raises_only_the_timeout() {
        let base = DaietConfig { nack_timeout_ns: 50_000, ..DaietConfig::default() };
        let wall = wall_clock_config(base);
        assert_eq!(wall.nack_timeout_ns, WALL_NACK_TIMEOUT_NS);
        assert_eq!(wall.pairs_per_packet, base.pairs_per_packet);
        // An already-generous timeout is left alone.
        let big = DaietConfig { nack_timeout_ns: 10_000_000, ..DaietConfig::default() };
        assert_eq!(wall_clock_config(big).nack_timeout_ns, 10_000_000);
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
            reliability: true,
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
