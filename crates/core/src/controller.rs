//! The network controller.
//!
//! §4: "Prior to starting a job, the master allocates the map and reduce
//! jobs to the workers. This allocation information is exchanged with the
//! network controller. Then, the controller defines the aggregation trees
//! … The network controller then configures the network devices, pushing a
//! set of flow rules, to perform the per-tree aggregation and forward the
//! traffic according to the tree."
//!
//! [`Controller::deploy`] performs exactly those steps over a
//! [`TopologyPlan`]: it builds one [`AggregationTree`] per reducer,
//! instantiates a [`Switch`] for every switch slot with
//!
//! * a **steering table** (stage 0) matching the DAIET tree id and
//!   invoking the aggregation extern,
//! * an **L2 forwarding table** (stage 1) with one exact-match rule per
//!   host (shortest-path port), which also carries all baseline traffic,
//! * a [`DaietEngine`] with per-tree register state, SRAM-accounted
//!   against the chip's budget,
//!
//! and returns a [`Deployment`] describing what hosts must do (tree ids,
//! destination addressing, expected END counts).
//!
//! This module is the only switch programmer. What one tree puts on one
//! switch — its `daiet.tree[id]@sw` and `daiet.rtx[id]@sw` reservations,
//! its engine state and its steering rule — is decided by `install_tree`
//! and undone, by name, by `remove_tree`. [`Controller::build_switch`]
//! (one slot of `deploy`, and what a loopback switch thread builds),
//! [`JobScheduler`](crate::tenant::JobScheduler)'s admission, re-plan and
//! departure all go through that pair.

use crate::agg::AggFn;
use crate::config::DaietConfig;
use crate::switch_agg::{ChildSource, DaietEngine, TreeStateConfig};
use crate::tree::{AggregationTree, TreeError};
use daiet_dataplane::pipeline::{ActionSpec, Pipeline};
use daiet_dataplane::resources::{ResourceError, Resources};
use daiet_dataplane::table::{Field, Table};
use daiet_dataplane::{ExternId, Switch};
use daiet_netsim::topology::{Role, TopologyPlan};
use daiet_wire::stack::Endpoints;
use std::collections::BTreeMap;

/// Pipeline handle of the steering table every controller-built switch
/// carries: stage 0, first table added. Installing and removing one
/// tree's rule inside a running simulation relies on this fixed
/// position.
pub const STEER_TABLE: (usize, usize) = (0, 0);

/// Pipeline handle of the L2 forwarding table (stage 1, first table).
pub const L2_TABLE: (usize, usize) = (1, 0);

/// Which hosts run mappers and reducers (plan slot indices).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPlacement {
    /// Hosts running map tasks.
    pub mappers: Vec<usize>,
    /// Hosts running reduce tasks (one aggregation tree each).
    pub reducers: Vec<usize>,
}

/// Whether switches aggregate or merely forward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregationMode {
    /// DAIET: steer tree traffic into the aggregation extern.
    InNetwork,
    /// Baseline: DAIET packets ride the plain forwarding tables (the
    /// paper's "UDP baseline" — same protocol, no aggregation).
    PassThrough,
}

/// Deployment errors.
#[derive(Debug, Clone, PartialEq)]
pub enum DeployError {
    /// Tree construction failed.
    Tree(TreeError),
    /// A switch ran out of resources.
    Resources(ResourceError),
    /// The configuration is inconsistent with the chip.
    Config(String),
}

impl From<TreeError> for DeployError {
    fn from(e: TreeError) -> Self {
        DeployError::Tree(e)
    }
}

impl From<ResourceError> for DeployError {
    fn from(e: ResourceError) -> Self {
        DeployError::Resources(e)
    }
}

impl core::fmt::Display for DeployError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DeployError::Tree(e) => write!(f, "tree construction: {e}"),
            DeployError::Resources(e) => write!(f, "switch resources: {e}"),
            DeployError::Config(msg) => write!(f, "configuration: {msg}"),
        }
    }
}

impl std::error::Error for DeployError {}

/// What the controller computed and installed.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// One tree per reducer, indexed like `placement.reducers`;
    /// `trees[i].tree_id == i`.
    pub trees: Vec<AggregationTree>,
    /// The mode deployed.
    pub mode: AggregationMode,
    /// The DAIET configuration in force.
    pub config: DaietConfig,
    /// The [`DaietEngine`] extern id on each switch, keyed by plan slot —
    /// how callers reach engine stats after a run without assuming
    /// extern registration order.
    pub engine_externs: BTreeMap<usize, daiet_dataplane::ExternId>,
}

impl Deployment {
    /// The tree id a mapper uses for a given reducer index.
    pub fn tree_id(&self, reducer_index: usize) -> u16 {
        self.trees[reducer_index].tree_id
    }

    /// Frame addressing for `mapper` (plan slot) sending to reducer
    /// `reducer_index`.
    pub fn endpoints(&self, mapper: usize, reducer_index: usize) -> Endpoints {
        Endpoints::from_ids(mapper as u32, self.trees[reducer_index].reducer as u32)
    }

    /// How many END packets the reducer at `reducer_index` must await
    /// before its partition is complete.
    pub fn expected_ends(&self, reducer_index: usize, n_mappers: usize) -> u32 {
        match self.mode {
            AggregationMode::InNetwork => self.trees[reducer_index].reducer_children,
            AggregationMode::PassThrough => n_mappers as u32,
        }
    }

    /// The NACK roster of the reducer at `reducer_index`: the plan slots
    /// whose DAIET streams the reducer should track and, when gaps age
    /// out, NACK. In-network these are the tree children feeding the
    /// reducer (normally its last-hop switch); pass-through they are the
    /// mappers themselves.
    pub fn reducer_sources(&self, reducer_index: usize, mappers: &[usize]) -> Vec<u32> {
        match self.mode {
            AggregationMode::InNetwork => self.trees[reducer_index]
                .children_of(self.trees[reducer_index].reducer)
                .into_iter()
                .map(|(child, _)| child as u32)
                .collect(),
            AggregationMode::PassThrough => mappers.iter().map(|&m| m as u32).collect(),
        }
    }

    /// [`reducer_sources`](Self::reducer_sources) tagged with the
    /// reducer's tree id — the exact `(tree, source)` flow set a
    /// receive-side NACK guard watches
    /// ([`ReceiverGuard::arm_nack_recovery`](crate::reliability::ReceiverGuard::arm_nack_recovery)).
    pub fn nack_sources(&self, reducer_index: usize, mappers: &[usize]) -> Vec<(u16, u32)> {
        let tree = self.tree_id(reducer_index);
        self.reducer_sources(reducer_index, mappers)
            .into_iter()
            .map(|src| (tree, src))
            .collect()
    }
}

/// The controller: stateless; everything derives from the plan, the
/// placement and the configuration.
#[derive(Debug, Clone)]
pub struct Controller {
    /// DAIET parameters applied to every switch.
    pub config: DaietConfig,
    /// Aggregation function for all trees of this job (the default when
    /// no per-tree override is installed).
    pub agg: AggFn,
    /// Per-tree overrides for multi-lane jobs: `per_tree_agg[i]` applies
    /// to the tree of `placement.reducers[i]`. Empty means "every tree
    /// uses [`Controller::agg`]".
    per_tree_agg: Vec<AggFn>,
}

impl Controller {
    /// A controller for `config` aggregating with `agg`.
    pub fn new(config: DaietConfig, agg: AggFn) -> Controller {
        Controller { config, agg, per_tree_agg: Vec::new() }
    }

    /// A controller whose trees each aggregate with their own function —
    /// the multi-lane form SQL-style queries need, where one job deploys
    /// a SUM tree, a MIN tree and a COUNT tree side by side. `aggs[i]`
    /// applies to the tree of `placement.reducers[i]`; a placement with
    /// more reducers than `aggs` falls back to `default` for the rest.
    pub fn with_per_tree_agg(config: DaietConfig, default: AggFn, aggs: Vec<AggFn>) -> Controller {
        Controller { config, agg: default, per_tree_agg: aggs }
    }

    /// The aggregation function tree `tree_id` uses.
    pub fn agg_for(&self, tree_id: usize) -> AggFn {
        self.per_tree_agg.get(tree_id).copied().unwrap_or(self.agg)
    }

    /// Computes trees and builds fully configured switches for every
    /// switch slot in the plan. Returned switches are keyed by plan slot;
    /// the caller adds them to the simulator in plan order and wires the
    /// plan.
    pub fn deploy(
        &self,
        plan: &TopologyPlan,
        placement: &JobPlacement,
        resources: Resources,
        mode: AggregationMode,
    ) -> Result<(Deployment, BTreeMap<usize, Switch>), DeployError> {
        validate(&self.config, &resources, mode)?;
        validate_placement(plan, placement)?;
        if placement.reducers.len() > u16::MAX as usize {
            return Err(DeployError::Config("too many reducers for a u16 tree id".into()));
        }

        // 1. Aggregation trees, one per reducer.
        let mut trees = Vec::with_capacity(placement.reducers.len());
        for (i, &reducer) in placement.reducers.iter().enumerate() {
            let tree = AggregationTree::build(plan, i as u16, reducer, &placement.mappers)?;
            debug_assert_eq!(tree.validate(), Ok(()));
            trees.push(tree);
        }

        // 2. Per-switch configuration.
        let mut switches = BTreeMap::new();
        let mut engine_externs = BTreeMap::new();
        for slot in plan.switches() {
            let (switch, ext) = self.build_switch(plan, &trees, slot, resources, mode)?;
            switches.insert(slot, switch);
            engine_externs.insert(slot, ext);
        }

        Ok((Deployment { trees, mode, config: self.config, engine_externs }, switches))
    }

    /// Builds the switch at plan `slot` for `trees` — one slot of
    /// [`deploy`](Self::deploy), which a loopback switch thread runs on
    /// its own: the steering and L2 tables, an engine, and every tree
    /// crossing the slot installed in tree order. Returns the switch and
    /// its engine's extern id.
    pub fn build_switch(
        &self,
        plan: &TopologyPlan,
        trees: &[AggregationTree],
        slot: usize,
        resources: Resources,
        mode: AggregationMode,
    ) -> Result<(Switch, ExternId), DeployError> {
        let mut switch = new_switch(plan, slot, resources, trees.len())?;
        let ext = switch.register_extern(Box::new(DaietEngine::new(self.config)));
        for tree in trees.iter().filter(|t| t.switch_children.contains_key(&slot)) {
            let agg = self.agg_for(tree.tree_id as usize);
            install_tree(&mut switch, ext, slot, tree, agg, &self.config, mode)?;
        }
        // NACK recovery's gap tracker is switch state too (the rings were
        // reserved per tree, beside each tree's registers). Where the
        // switch actually aggregates (InNetwork and on ≥1 tree —
        // PassThrough installs no steering rules and an off-path switch
        // sees no tree traffic, so their trackers are never consulted):
        //
        // * reject a flow cap below the switch's demand — at run time the
        //   excess senders' packets would be refused deterministically
        //   (consumed DATA/ENDs → trees that never complete), and the
        //   demand is known exactly here;
        // * reserve the tracker's worst-case (flow-cap) SRAM exactly like
        //   the register arrays, so an over-provisioned configuration
        //   fails at deployment, not silently at run time.
        let flow_demand = flows_at(trees, slot);
        if mode == AggregationMode::InNetwork && flow_demand > 0 {
            if self.config.nack_recovery && flow_demand > self.config.nack_flows as u64 {
                return Err(DeployError::Config(format!(
                    "switch {slot} needs {flow_demand} NACK flows (tree children) \
                     but nack_flows is {}; raise DaietConfig::nack_flows",
                    self.config.nack_flows
                )));
            }
            reserve_nack_tracker(&mut switch, slot, &self.config)?;
        }
        Ok((switch, ext))
    }
}

/// Checks `config` against the chip and the mode before any switch is
/// built: packetization must fit the parser, and (in-network, with NACK
/// recovery) a retransmit ring must hold one full register flush — a
/// smaller ring would evict frames the parent is entitled to NACK,
/// silently un-recovering the data.
pub(crate) fn validate(
    config: &DaietConfig,
    resources: &Resources,
    mode: AggregationMode,
) -> Result<(), DeployError> {
    config.validate(resources.max_parse_bytes).map_err(DeployError::Config)?;
    if mode == AggregationMode::InNetwork && config.nack_recovery {
        let demand = config.rtx_demand_per_tree();
        if config.rtx_frames < demand {
            return Err(DeployError::Config(format!(
                "a full flush emits up to {demand} frames per tree but rtx_frames \
                 is {}; raise DaietConfig::rtx_frames or shrink register_cells",
                config.rtx_frames
            )));
        }
    }
    Ok(())
}

/// Checks that every placement slot is a host of `plan` and that no
/// mapper slot repeats. Anything else deploys into a wrong answer or a
/// panic: a switch slot would have its switch replaced by a host, an
/// out-of-range slot indexes past the plan, and a repeated mapper's
/// second shard is never sent. Reducer slots may repeat — a multi-lane
/// query roots every lane at one coordinator.
fn validate_placement(plan: &TopologyPlan, placement: &JobPlacement) -> Result<(), DeployError> {
    let mut mappers = std::collections::BTreeSet::new();
    for (i, &slot) in placement.mappers.iter().chain(&placement.reducers).enumerate() {
        let why = if slot >= plan.len() || plan.role(slot) != Role::Host {
            "is not a host of the plan"
        } else if i < placement.mappers.len() && !mappers.insert(slot) {
            "repeats a mapper slot"
        } else {
            continue;
        };
        return Err(DeployError::Config(format!("placement slot {slot} {why}")));
    }
    Ok(())
}

/// A switch for plan `slot` with no tree on it: a steering table
/// (stage 0, room for `steer_capacity` trees) and an L2 table (stage 1)
/// routing toward every host. The caller registers its engine.
pub(crate) fn new_switch(
    plan: &TopologyPlan,
    slot: usize,
    resources: Resources,
    steer_capacity: usize,
) -> Result<Switch, DeployError> {
    let mut pipeline = Pipeline::new(resources);
    let steer = pipeline.add_table(
        0,
        Table::new(
            format!("daiet_steer[{slot}]"),
            Field::DaietTreeId,
            steer_capacity.max(1),
            ActionSpec::NoOp,
        ),
    )?;
    debug_assert_eq!(steer, STEER_TABLE);
    let l2 = pipeline.add_table(
        1,
        Table::new(format!("l2[{slot}]"), Field::EthDst, plan.hosts().len().max(1), ActionSpec::Drop),
    )?;
    debug_assert_eq!(l2, L2_TABLE);
    let mut switch = Switch::new(format!("switch[{slot}]"), pipeline);
    fill_l2(plan, slot, &[], &mut switch)?;
    Ok(switch)
}

/// Rewrites the L2 table of the switch at `slot`: one rule per host,
/// forwarding on the shortest path around the `dead` slots. A host
/// unreachable from here gets no rule, so frames to it drop, which is
/// what a partitioned fabric does.
pub(crate) fn fill_l2(
    plan: &TopologyPlan,
    slot: usize,
    dead: &[usize],
    switch: &mut Switch,
) -> Result<(), DeployError> {
    let l2 = switch.pipeline_mut().table_mut(L2_TABLE);
    l2.clear();
    for h in plan.hosts() {
        if let Some(hop) = plan.next_hops_toward_avoiding(h, dead)[slot] {
            l2.insert(&daiet_wire::EthernetAddress::from_id(h as u32).0, ActionSpec::Forward(hop.port))
                .map_err(|e| DeployError::Config(e.to_string()))?;
        }
    }
    Ok(())
}

/// Reserves the gap tracker's worst-case SRAM (`daiet.nack@sw`) on the
/// switch at `slot`; nothing without NACK recovery.
pub(crate) fn reserve_nack_tracker(
    switch: &mut Switch,
    slot: usize,
    config: &DaietConfig,
) -> Result<(), DeployError> {
    let bytes = config.sram_for_nack_tracker();
    if bytes > 0 {
        let name = format!("daiet.nack@{slot}");
        switch.pipeline_mut().tracker_mut().allocate_first_fit(&name, 2, bytes)?;
    }
    Ok(())
}

/// Installs `tree` on the switch at `slot`, a switch it crosses, whose
/// engine is extern `ext`: reserves the tree's registers
/// (`daiet.tree[id]@sw`, stages 2.. — stages 0/1 hold the tables) and,
/// in-network with NACK recovery, its retransmit ring (`daiet.rtx[id]@sw`,
/// its own reservation so first-fit can spread stages); installs the
/// engine state, in-network with its NACK roster (which children feed
/// this switch on this tree, through which ports); and, in-network,
/// steers the tree's frames into the engine. A pass-through switch gets
/// no roster: no frame of the tree reaches its engine, so a rostered
/// child would be NACKed for a flow it never sees. On `Err`,
/// [`remove_tree`] undoes whatever part was done.
pub(crate) fn install_tree(
    switch: &mut Switch,
    ext: ExternId,
    slot: usize,
    tree: &AggregationTree,
    agg: AggFn,
    config: &DaietConfig,
    mode: AggregationMode,
) -> Result<(), DeployError> {
    let tid = tree.tree_id;
    let tracker = switch.pipeline_mut().tracker_mut();
    tracker.allocate_first_fit(&format!("daiet.tree[{tid}]@{slot}"), 2, config.sram_per_tree())?;
    if mode == AggregationMode::InNetwork && config.nack_recovery {
        tracker.allocate_first_fit(
            &format!("daiet.rtx[{tid}]@{slot}"),
            2,
            config.sram_for_rtx_per_tree(),
        )?;
    }
    let children = tree.switch_children[&slot];
    let children_sources: Vec<ChildSource> = if mode == AggregationMode::InNetwork {
        let roster: Vec<ChildSource> = tree
            .children_of(slot)
            .into_iter()
            .map(|(child, port)| ChildSource { id: child as u32, port })
            .collect();
        debug_assert_eq!(roster.len() as u32, children);
        roster
    } else {
        Vec::new()
    };
    let upstream = tree.upstream(slot).expect("participating switch has a parent edge");
    let engine = switch.extern_mut::<DaietEngine>(ext).expect("switches carry a DaietEngine");
    engine.install_tree(TreeStateConfig {
        tree_id: tid,
        out_port: upstream.port,
        endpoints: Endpoints::from_ids(slot as u32, tree.reducer as u32),
        agg,
        children,
        children_sources,
    });
    if mode == AggregationMode::InNetwork {
        switch
            .pipeline_mut()
            .table_mut(STEER_TABLE)
            .insert(&tid.to_be_bytes(), ActionSpec::Invoke { ext, arg: u32::from(tid) })
            .map_err(|e| DeployError::Config(e.to_string()))?;
    }
    Ok(())
}

/// The inverse of [`install_tree`], by name: removes tree `tree_id`'s
/// steering rule, engine state and `daiet.tree[..]`/`daiet.rtx[..]`
/// reservations from the switch at `slot`. Each removal is a no-op for
/// what is absent, so this also undoes a partial install; every other
/// tree on the switch keeps its state.
pub(crate) fn remove_tree(switch: &mut Switch, ext: ExternId, slot: usize, tree_id: u16) {
    switch.pipeline_mut().table_mut(STEER_TABLE).remove(&tree_id.to_be_bytes());
    switch
        .extern_mut::<DaietEngine>(ext)
        .expect("switches carry a DaietEngine")
        .remove_tree(tree_id);
    let tracker = switch.pipeline_mut().tracker_mut();
    tracker.free(&format!("daiet.tree[{tree_id}]@{slot}"));
    tracker.free(&format!("daiet.rtx[{tree_id}]@{slot}"));
}

/// Gap-tracker flows `trees` need at switch `slot`: one per tree child
/// (mapper or downstream switch).
pub(crate) fn flows_at(trees: &[AggregationTree], slot: usize) -> u64 {
    trees.iter().filter_map(|t| t.switch_children.get(&slot)).map(|&c| u64::from(c)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loopback::LoopbackJob;
    use crate::worker::ReducerHost;
    use daiet_netsim::{LinkSpec, Simulator};
    use daiet_wire::daiet::{Key, Pair};

    fn key(s: &str) -> Key {
        Key::from_str_key(s).unwrap()
    }

    fn deploy_star(
        n_hosts: usize,
        mappers: Vec<usize>,
        reducers: Vec<usize>,
        mode: AggregationMode,
    ) -> (TopologyPlan, Deployment, BTreeMap<usize, Switch>) {
        let plan = TopologyPlan::star(n_hosts, LinkSpec::fast());
        let controller = Controller::new(DaietConfig::default(), AggFn::Sum);
        let placement = JobPlacement { mappers, reducers };
        let (dep, switches) = controller
            .deploy(&plan, &placement, Resources::tofino_like(), mode)
            .unwrap();
        (plan, dep, switches)
    }

    #[test]
    fn star_deployment_configures_the_single_switch() {
        let (_, dep, switches) =
            deploy_star(4, vec![0, 1, 2], vec![3], AggregationMode::InNetwork);
        assert_eq!(dep.trees.len(), 1);
        assert_eq!(dep.tree_id(0), 0);
        assert_eq!(dep.expected_ends(0, 3), 1);
        assert_eq!(switches.len(), 1);
        let sw = switches.get(&4).unwrap();
        // Steering (1 rule) + L2 (4 hosts).
        let table_lens: Vec<usize> = sw.pipeline().tables().map(daiet_dataplane::Table::len).collect();
        assert_eq!(table_lens, vec![1, 4]);
    }

    #[test]
    fn passthrough_mode_installs_no_steering_rules() {
        let (_, dep, switches) =
            deploy_star(4, vec![0, 1, 2], vec![3], AggregationMode::PassThrough);
        assert_eq!(dep.expected_ends(0, 3), 3);
        let sw = switches.get(&4).unwrap();
        let table_lens: Vec<usize> = sw.pipeline().tables().map(daiet_dataplane::Table::len).collect();
        assert_eq!(table_lens, vec![0, 4]);
    }

    #[test]
    fn sram_is_charged_per_tree() {
        let (_, _dep, switches) =
            deploy_star(6, vec![0, 1, 2, 3], vec![4, 5], AggregationMode::InNetwork);
        let sw = switches.get(&6).unwrap();
        let per_tree = DaietConfig::default().sram_per_tree();
        let used = sw.pipeline().tracker().total_used();
        assert!(used >= 2 * per_tree, "expected ≥ {} B for two trees, used {}", 2 * per_tree, used);
    }

    /// Regression: the per-flow switch table used to be invisible to the
    /// SRAM tracker — an over-provisioned flow cap was silently absorbed.
    /// Exceeding the budget must now be a reported deployment failure.
    #[test]
    fn oversized_dedup_budget_is_reported_not_absorbed() {
        let plan = TopologyPlan::star(4, LinkSpec::fast());
        let config = DaietConfig {
            nack_recovery: true,
            // ~148 B per flow × 10M flows ≈ 1.5 GB — vastly over any chip.
            nack_flows: 10_000_000,
            register_cells: 64,
            ..DaietConfig::default()
        };
        let controller = Controller::new(config, AggFn::Sum);
        let placement = JobPlacement { mappers: vec![0, 1, 2], reducers: vec![3] };
        let err = controller
            .deploy(&plan, &placement, Resources::tofino_like(), AggregationMode::InNetwork)
            .unwrap_err();
        assert!(
            matches!(err, DeployError::Resources(_)),
            "expected an SRAM rejection, got {err}"
        );
    }

    /// An undersized NACK flow cap must fail at deployment — at run time
    /// it would deterministically consume the excess flows' packets and
    /// stall their trees forever.
    #[test]
    fn undersized_dedup_flow_cap_is_rejected_at_deploy() {
        let plan = TopologyPlan::star(4, LinkSpec::fast());
        let placement = JobPlacement { mappers: vec![0, 1, 2], reducers: vec![3] };
        // 3 mappers × 1 tree = 3 flows at the switch; cap of 2 is short.
        let short = DaietConfig { nack_recovery: true, nack_flows: 2, ..DaietConfig::default() };
        let err = Controller::new(short, AggFn::Sum)
            .deploy(&plan, &placement, Resources::tofino_like(), AggregationMode::InNetwork)
            .unwrap_err();
        assert!(
            matches!(&err, DeployError::Config(msg) if msg.contains("NACK flows")),
            "expected a flow-cap rejection, got {err}"
        );
        // An exact-fit cap deploys.
        let exact = DaietConfig { nack_flows: 3, ..short };
        Controller::new(exact, AggFn::Sum)
            .deploy(&plan, &placement, Resources::tofino_like(), AggregationMode::InNetwork)
            .unwrap();
    }

    /// The NACK-recovery state (retransmit rings + gap tracker) is switch
    /// SRAM: reserved at deployment, with the ring validated against the
    /// placement's flush demand.
    #[test]
    fn nack_recovery_reserves_rtx_and_tracker_sram() {
        let plan = TopologyPlan::star(4, LinkSpec::fast());
        let placement = JobPlacement { mappers: vec![0, 1, 2], reducers: vec![3] };
        let config = DaietConfig {
            nack_recovery: true,
            register_cells: 256,
            rtx_frames: 64,
            ..DaietConfig::default()
        };
        let (_dep, switches) = Controller::new(config, AggFn::Sum)
            .deploy(&plan, &placement, Resources::tofino_like(), AggregationMode::InNetwork)
            .unwrap();
        let allocs = switches[&4].pipeline().tracker().allocations().to_vec();
        let rtx = allocs.iter().find(|a| a.name.starts_with("daiet.rtx")).expect("rtx ring");
        assert_eq!(rtx.bytes, config.sram_for_rtx_per_tree());
        let nack = allocs.iter().find(|a| a.name.starts_with("daiet.nack")).expect("tracker");
        assert_eq!(nack.bytes, config.sram_for_nack_tracker());

        // An undersized ring (cannot hold one register flush) is refused
        // with an actionable message.
        let tight = DaietConfig { rtx_frames: 10, ..config };
        let err = Controller::new(tight, AggFn::Sum)
            .deploy(&plan, &placement, Resources::tofino_like(), AggregationMode::InNetwork)
            .unwrap_err();
        assert!(
            matches!(&err, DeployError::Config(msg) if msg.contains("rtx_frames")),
            "expected a ring-demand rejection, got {err}"
        );

        // Recovery off → no rtx/nack allocations at all.
        let off = DaietConfig { nack_recovery: false, ..config };
        let (_d, switches) = Controller::new(off, AggFn::Sum)
            .deploy(&plan, &placement, Resources::tofino_like(), AggregationMode::InNetwork)
            .unwrap();
        assert!(switches[&4]
            .pipeline()
            .tracker()
            .allocations()
            .iter()
            .all(|a| !a.name.starts_with("daiet.rtx") && !a.name.starts_with("daiet.nack")));

        // PassThrough never steers packets into the tracker: an
        // undersized cap must not fail such a baseline, and nothing is
        // charged for it.
        let tight = DaietConfig { nack_flows: 1, ..config };
        let (_d, switches) = Controller::new(tight, AggFn::Sum)
            .deploy(&plan, &placement, Resources::tofino_like(), AggregationMode::PassThrough)
            .unwrap();
        assert!(switches[&4]
            .pipeline()
            .tracker()
            .allocations()
            .iter()
            .all(|a| !a.name.starts_with("daiet.nack")));
    }

    /// Deployments hand receivers their NACK roster: the tree children of
    /// the reducer in-network, the mappers themselves pass-through.
    #[test]
    fn reducer_sources_follow_the_mode() {
        let (_, dep, _) = deploy_star(4, vec![0, 1, 2], vec![3], AggregationMode::InNetwork);
        // The reducer's only feeder is the star switch (slot 4).
        assert_eq!(dep.reducer_sources(0, &[0, 1, 2]), vec![4]);
        let (_, dep, _) = deploy_star(4, vec![0, 1, 2], vec![3], AggregationMode::PassThrough);
        assert_eq!(dep.reducer_sources(0, &[0, 1, 2]), vec![0, 1, 2]);
    }

    /// The controller wires each switch engine's child roster so NACKs
    /// can be addressed and routed without consulting L2 tables.
    #[test]
    fn deploy_installs_child_sources_on_engines() {
        let plan = TopologyPlan::leaf_spine(3, 2, 1, LinkSpec::fast());
        let config = DaietConfig {
            nack_recovery: true,
            register_cells: 256,
            rtx_frames: 64,
            ..DaietConfig::default()
        };
        let controller = Controller::new(config, AggFn::Sum);
        let placement = JobPlacement { mappers: vec![0, 1, 2, 3, 4], reducers: vec![5] };
        let (dep, switches) = controller
            .deploy(&plan, &placement, Resources::tofino_like(), AggregationMode::InNetwork)
            .unwrap();
        // Leaf 6 (hosts 0-2 below, spine above): three child mappers.
        let leaf = &switches[&6];
        let engine = leaf
            .extern_ref::<DaietEngine>(dep.engine_externs[&6])
            .expect("engine registered");
        assert!(engine.nack_tracker().is_some());
        assert_eq!(engine.nack_tracker().unwrap().flow_count(), 3);
        // Spine 8: exactly one child (leaf 6).
        let spine = &switches[&8];
        let engine = spine
            .extern_ref::<DaietEngine>(dep.engine_externs[&8])
            .expect("engine registered");
        assert_eq!(engine.nack_tracker().unwrap().flow_count(), 1);
    }

    #[test]
    fn per_tree_agg_overrides_apply_in_tree_order() {
        let controller = Controller::with_per_tree_agg(
            DaietConfig::default(),
            AggFn::Sum,
            vec![AggFn::Min, AggFn::Max],
        );
        assert_eq!(controller.agg_for(0), AggFn::Min);
        assert_eq!(controller.agg_for(1), AggFn::Max);
        // Past the override list: the default.
        assert_eq!(controller.agg_for(2), AggFn::Sum);
    }

    #[test]
    fn overcommitted_chip_is_rejected() {
        let plan = TopologyPlan::star(4, LinkSpec::fast());
        let controller = Controller::new(
            DaietConfig { register_cells: 1 << 20, ..Default::default() },
            AggFn::Sum,
        );
        let placement = JobPlacement { mappers: vec![0, 1], reducers: vec![2, 3] };
        let err = controller
            .deploy(&plan, &placement, Resources::tiny(), AggregationMode::InNetwork)
            .unwrap_err();
        // tiny() parser (128 B) rejects the 10-pair config before SRAM is
        // even attempted; both failure classes are acceptable rejections.
        assert!(matches!(err, DeployError::Config(_) | DeployError::Resources(_)));
    }

    /// A placement slot that is out of range, is not a host, or repeats a
    /// mapper is refused by name — each used to deploy into a panic or a
    /// silently wrong answer. Reducers may share a slot, as every lane of
    /// a query shares its coordinator.
    #[test]
    fn placements_off_the_plan_hosts_or_with_a_repeated_mapper_are_refused() {
        let plan = TopologyPlan::star(3, LinkSpec::fast());
        let controller = Controller::new(DaietConfig::default(), AggFn::Sum);
        let deploy = |mappers: Vec<usize>, reducers: Vec<usize>| {
            let placement = JobPlacement { mappers, reducers };
            let mode = AggregationMode::InNetwork;
            controller.deploy(&plan, &placement, Resources::tofino_like(), mode).map(|_| ())
        };
        for (mappers, reducers, slot) in
            [(vec![0, 0], vec![2], 0), (vec![0, 1], vec![3], 3), (vec![0, 9], vec![2], 9)]
        {
            let err = deploy(mappers, reducers).unwrap_err();
            let named = format!("placement slot {slot} ");
            assert!(matches!(&err, DeployError::Config(m) if m.contains(&named)), "{err}");
        }
        assert_eq!(deploy(vec![0, 1], vec![2, 2]), Ok(()));
    }

    /// Runs a one-tree job on the simulator from its node list:
    /// `shards[m]` is mapper `m`'s pairs. Returns the simulator and the
    /// node ids by plan slot.
    fn run_job(
        plan: TopologyPlan,
        placement: JobPlacement,
        mode: AggregationMode,
        shards: Vec<Vec<Pair>>,
        seed: u64,
    ) -> (Simulator, Vec<daiet_netsim::NodeId>) {
        let controller = Controller::new(DaietConfig::default(), AggFn::Sum);
        let job = LoopbackJob::deploy(controller, plan, placement, Resources::tofino_like(), mode)
            .unwrap();
        let shards = shards.into_iter().map(|pairs| vec![pairs]).collect();
        let mut sim = Simulator::new(seed);
        let specs = job.specs(shards, daiet_fabric::Duration::from_micros(1), 1);
        let ids = job.plan().instantiate(&mut sim, specs);
        sim.run();
        (sim, ids)
    }

    /// The Figure-2 scenario end to end: mappers on two leaves, the
    /// aggregation happening hierarchically (leaf → spine → leaf), and
    /// the reducer receiving exactly one aggregated stream.
    #[test]
    fn multi_switch_hierarchical_aggregation() {
        let plan = TopologyPlan::leaf_spine(3, 2, 1, LinkSpec::fast());
        // Hosts 0-2 on leaf 6, hosts 3-5 on leaf 7, spine 8.
        let placement = JobPlacement { mappers: vec![0, 1, 2, 3, 4], reducers: vec![5] };
        // Every mapper contributes ("w", 1) plus a unique word.
        let shards = (0..5)
            .map(|slot| vec![Pair::new(key("w"), 1), Pair::new(key(&format!("u{slot}")), 10)])
            .collect();
        let (sim, ids) = run_job(plan, placement, AggregationMode::InNetwork, shards, 5);

        let r = sim.node_ref::<ReducerHost>(ids[5]).unwrap();
        assert!(r.collector.is_complete(), "reducer saw {} ENDs", r.collector.ends_seen());
        assert_eq!(r.collector.get(&key("w")), Some(5), "five mappers × 1");
        for slot in 0..5 {
            assert_eq!(r.collector.get(&key(&format!("u{slot}"))), Some(10));
        }
        // Exactly one END from the last-hop switch.
        assert_eq!(r.collector.stats().end_packets, 1);
        // 6 distinct keys fit one packet: the reducer received a single
        // DATA frame — maximal in-network reduction.
        assert_eq!(r.collector.stats().data_packets, 1);
    }

    #[test]
    fn passthrough_delivers_unaggregated() {
        let plan = TopologyPlan::star(3, LinkSpec::fast());
        let placement = JobPlacement { mappers: vec![0, 1], reducers: vec![2] };
        let shards = vec![vec![Pair::new(key("x"), 1)]; 2];
        let (sim, ids) = run_job(plan, placement, AggregationMode::PassThrough, shards, 9);

        let r = sim.node_ref::<ReducerHost>(ids[2]).unwrap();
        assert!(r.collector.is_complete());
        // Host-side merge still computes the right sum...
        assert_eq!(r.collector.get(&key("x")), Some(2));
        // ...but the network did not reduce anything: two DATA packets and
        // two ENDs arrived.
        assert_eq!(r.collector.stats().data_packets, 2);
        assert_eq!(r.collector.stats().end_packets, 2);
        assert_eq!(r.collector.stats().pairs_merged, 1);
    }
}
