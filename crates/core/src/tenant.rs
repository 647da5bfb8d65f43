//! Multi-tenant control plane: concurrent jobs sharing one fabric.
//!
//! The paper pitches in-network aggregation as *shared datacenter
//! infrastructure* — which only holds if many jobs can use the switches
//! at once. This module is the online counterpart of
//! [`Controller::deploy`](crate::controller::Controller::deploy): a
//! [`JobScheduler`] owns one long-lived simulation of the fabric and
//! admits, drives and evicts jobs against the switches' SRAM budgets
//! while their neighbors keep streaming.
//!
//! The isolation story rests on three mechanisms:
//!
//! * **Tree-id namespacing.** Every job's trees get fabric-unique tree
//!   ids, so per-tree register arrays, retransmit rings, steering rules
//!   and gap-tracker flows (all keyed by tree id) never collide between
//!   tenants. Departed ids are quarantined (recycled only if the u16
//!   space is exhausted) so a straggler frame from a dead job cannot be
//!   mistaken for live traffic.
//! * **One switch programmer.** Switches are built, and trees installed
//!   on them and removed from them, only by the controller's routines —
//!   the same ones [`Controller::deploy`](crate::controller::Controller::deploy)
//!   runs — so an admitted tree programs a switch exactly as a deployed
//!   one does.
//! * **All-or-nothing admission.** [`JobScheduler::admit`] installs the
//!   job's trees switch by switch; on the first refusal (SRAM exhausted,
//!   steering table full) it removes every one of the job's trees by
//!   name from every switch they cross. Removal is a no-op for what was
//!   never installed, and [`SramTracker::free`] preserves allocation
//!   order and per-stage accounting, so a rejected job leaves the fabric
//!   **bit-identically** in its pre-admission state — future first-fit
//!   placements are unchanged.
//! * **Per-tree teardown, by name.** [`JobScheduler::depart`] removes
//!   exactly the departing job's steering entries
//!   ([`Table::remove`]), engine trees
//!   ([`DaietEngine::remove_tree`]) and SRAM reservations, and returns
//!   its host slots to the pool — neighbor jobs' switch state and
//!   in-flight recovery are untouched. [`JobScheduler::replan`] re-routes
//!   a live job with the same removal followed by a fresh install, so no
//!   path ever clears a shared steering table. Admission, re-plan and
//!   departure share that one teardown.
//!
//! On top of the scheduler, [`run_mix`] drives a deterministic tenant
//! mix: Poisson arrivals ([`poisson_offsets`], seeded `stream_seed`
//! style), per-job round loops, and per-job [`StatsSnapshot`] deltas for
//! accounting ([`JobOutcome::usage`]). A single admitted job stepped
//! with [`JobScheduler::run_round`] is the iterative harness: the ML and
//! graph packet runs and the node-chaos scenarios are one-tenant
//! fabrics.
//!
//! [`SramTracker::free`]: daiet_dataplane::resources::SramTracker::free
//! [`Table::remove`]: daiet_dataplane::table::Table::remove

// lint:allow-file(layer-netsim): the multi-tenant controller plans over the
// shared topology and spawns per-job simulator runs; it is harness, not
// protocol — the per-job dataplane code it launches stays fabric-only.
use crate::agg::AggFn;
use crate::config::DaietConfig;
use crate::controller::{
    fill_l2, flows_at, install_tree, new_switch, remove_tree, reserve_nack_tracker, validate,
    AggregationMode, DeployError,
};
use crate::switch_agg::DaietEngine;
use crate::tree::AggregationTree;
use crate::worker::{plan_round, IdleHost, PacedSenderNode, ReducerHost};
use daiet_dataplane::resources::Resources;
use daiet_dataplane::{ExternId, Switch};
use daiet_fabric::{Duration, Time};
use daiet_netsim::topology::{Role, TopologyPlan};
use daiet_netsim::{NodeId, NodeStats, Simulator, StatsSnapshot};
use daiet_wire::daiet::{Key, Pair};
use daiet_wire::fnv::FnvHashMap;
use daiet_wire::stack::Endpoints;
use std::collections::{BTreeMap, BTreeSet};

/// How the shared tenant fabric is shaped: the topology, the host pools
/// jobs lease slots from, and the switch/link/protocol parameters every
/// tenant shares.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// DAIET parameters applied fabric-wide (all tenants share the
    /// switch pipeline configuration, exactly as they would share a
    /// physical chip's P4 program).
    pub config: DaietConfig,
    /// The fabric.
    pub plan: TopologyPlan,
    /// Host slots jobs may lease as senders (lowest slots first).
    pub sender_slots: Vec<usize>,
    /// Host slots jobs may lease as reducers (one aggregation tree
    /// each).
    pub reducer_slots: Vec<usize>,
    /// Switch chip profile.
    pub resources: Resources,
    /// Capacity of each switch's steering table — the maximum number of
    /// concurrently installed trees per switch. Admission of a tree
    /// past this cap fails cleanly (and rolls back).
    pub steer_capacity: usize,
    /// Gap between frames at each sender.
    pub pacing: Duration,
    /// Simulation seed.
    pub seed: u64,
    /// Inert: the partitioned execution engine is gone and nothing reads
    /// this. It survives only because the tracked benchmark assigns it;
    /// the next `benchmark` issue removes both (ROADMAP item 1).
    pub partitions: usize,
}

impl TenantSpec {
    /// Paper-shaped defaults over `plan`: Tofino-class chip, 1 µs
    /// pacing, room for 64 concurrent trees per switch.
    pub fn new(
        config: DaietConfig,
        plan: TopologyPlan,
        sender_slots: Vec<usize>,
        reducer_slots: Vec<usize>,
    ) -> TenantSpec {
        TenantSpec {
            config,
            plan,
            sender_slots,
            reducer_slots,
            resources: Resources::tofino_like(),
            steer_capacity: 64,
            pacing: Duration::from_micros(1),
            seed: 7,
            partitions: 1,
        }
    }
}

/// Handle of an admitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl core::fmt::Display for JobId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// What a tenant asks the scheduler for.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// A human-readable tag for the caller's own accounting; the
    /// scheduler does not read it.
    pub label: String,
    /// Sender slots to lease.
    pub senders: usize,
    /// One aggregation tree per entry, aggregating with that function;
    /// leases `aggs.len()` reducer slots.
    pub aggs: Vec<AggFn>,
}

/// Accounting returned by [`JobScheduler::depart`]: what the job did to
/// the fabric while it was admitted, attributed via [`StatsSnapshot`]
/// deltas restricted to its leased host slots.
#[derive(Debug, Clone)]
pub struct JobUsage {
    /// Rounds the job completed.
    pub rounds: u64,
    /// When the job was admitted.
    pub admitted_at: Time,
    /// When the job departed.
    pub departed_at: Time,
    /// Frame/byte totals over the job's leased hosts for its lifetime.
    pub usage: NodeStats,
}

/// Per-job state the scheduler tracks while a job is admitted.
struct JobState {
    /// Leased sender plan slots (job-local sender index → plan slot).
    sender_slots: Vec<usize>,
    /// Live roster: whether sender `i` takes part in rounds. All true
    /// until a [`replan`](JobScheduler::replan) leaves some out.
    active: Vec<bool>,
    /// Leased reducer plan slots (tree index → plan slot).
    reducer_slots: Vec<usize>,
    /// Aggregation function per tree.
    aggs: Vec<AggFn>,
    trees: Vec<AggregationTree>,
    /// Per sender, per tree id: next free sequence number.
    next_seq: Vec<FnvHashMap<u16, u32>>,
    round: u64,
    round_open: bool,
    admitted_at: Time,
    snap_at_admit: StatsSnapshot,
}

/// The multi-tenant control plane: one long-lived simulated fabric,
/// jobs admitted and evicted online against the switches' SRAM budgets.
///
/// Hosts are pre-created (a running fabric cannot grow NICs): sender
/// slots hold idle [`PacedSenderNode`]s, reducer slots idle
/// [`ReducerHost`]s, and jobs lease disjoint subsets lowest-slot-first.
/// Switches are built once with empty steering tables and engines; each
/// admission installs exactly the departing-side state
/// ([`depart`](Self::depart)) later removes.
pub struct JobScheduler {
    spec: TenantSpec,
    sim: Simulator,
    /// Node ids by plan slot.
    ids: Vec<NodeId>,
    /// A switch to hang inert wakeup timers on: `run_until` only
    /// advances the clock to the last processed event, so
    /// [`advance_to`](Self::advance_to) pins a no-op timer at its
    /// deadline to make a quiet fabric reach it.
    clock_anchor: NodeId,
    engine_externs: BTreeMap<usize, ExternId>,
    /// Unleased sender plan slots, sorted ascending.
    free_senders: Vec<usize>,
    /// Unleased reducer plan slots, sorted ascending.
    free_reducers: Vec<usize>,
    /// Next never-used tree id (u32 so exhaustion of the u16 space is
    /// representable).
    next_tree_id: u32,
    /// Ids of departed jobs, quarantined until the fresh space runs dry
    /// — a straggler frame carrying a dead job's tree id must not hit a
    /// live tree.
    recycled_tree_ids: BTreeSet<u16>,
    jobs: BTreeMap<u64, JobState>,
    next_job: u64,
}

impl JobScheduler {
    /// Brings up the shared fabric: validates the configuration,
    /// instantiates every switch (empty steering table, L2 routes to
    /// all hosts, fabric-lifetime `daiet.nack@sw` reservations) and every
    /// pooled host, wires the plan, and runs
    /// `on_start`.
    pub fn build(spec: TenantSpec) -> Result<JobScheduler, DeployError> {
        validate(&spec.config, &spec.resources, AggregationMode::InNetwork)?;
        let mut seen = BTreeSet::new();
        for &slot in spec.sender_slots.iter().chain(&spec.reducer_slots) {
            if slot >= spec.plan.len() || spec.plan.role(slot) != Role::Host {
                return Err(DeployError::Config(format!(
                    "pool slot {slot} is not a host of the plan"
                )));
            }
            if !seen.insert(slot) {
                return Err(DeployError::Config(format!(
                    "pool slot {slot} appears twice (sender/reducer pools must be disjoint)"
                )));
            }
        }

        let mut sim = Simulator::new(spec.seed);
        let mut ids = Vec::with_capacity(spec.plan.len());
        let mut engine_externs = BTreeMap::new();
        for slot in 0..spec.plan.len() {
            let id = match spec.plan.role(slot) {
                Role::Host => {
                    if spec.sender_slots.contains(&slot) {
                        let mut node =
                            PacedSenderNode::new(Vec::new(), spec.pacing, "tenant-sender");
                        if spec.config.nack_recovery {
                            node.arm_replay();
                        }
                        sim.add_node(Box::new(node))
                    } else if spec.reducer_slots.contains(&slot) {
                        // Pooled reducers idle with nothing expected;
                        // admission re-rosters them for their job.
                        sim.add_node(Box::new(ReducerHost::new(AggFn::Sum, 0)))
                    } else {
                        sim.add_node(Box::new(IdleHost))
                    }
                }
                Role::Switch => {
                    // Trees come and go; the gap tracker's SRAM is
                    // reserved once, for the fabric's lifetime.
                    let mut switch =
                        new_switch(&spec.plan, slot, spec.resources, spec.steer_capacity)?;
                    reserve_nack_tracker(&mut switch, slot, &spec.config)?;
                    let ext = switch.register_extern(Box::new(DaietEngine::new(spec.config)));
                    engine_externs.insert(slot, ext);
                    sim.add_node(Box::new(switch))
                }
            };
            ids.push(id);
        }
        spec.plan.wire(&mut sim, &ids);
        sim.run_until(Time::ZERO);

        let clock_anchor = spec
            .plan
            .switches()
            .first()
            .map(|&slot| ids[slot])
            .ok_or_else(|| DeployError::Config("the plan has no switches".into()))?;
        let free_senders = spec.sender_slots.iter().copied().collect::<BTreeSet<_>>();
        let free_reducers = spec.reducer_slots.iter().copied().collect::<BTreeSet<_>>();
        Ok(JobScheduler {
            free_senders: free_senders.into_iter().collect(),
            free_reducers: free_reducers.into_iter().collect(),
            spec,
            sim,
            ids,
            clock_anchor,
            engine_externs,
            next_tree_id: 0,
            recycled_tree_ids: BTreeSet::new(),
            jobs: BTreeMap::new(),
            next_job: 0,
        })
    }

    /// Admits a job **all-or-nothing**: leases host slots, assigns
    /// fabric-unique tree ids, builds one aggregation tree per
    /// requested aggregation function, and installs SRAM reservations,
    /// engine tree state and steering rules on every crossed switch —
    /// or, on the first refusal, removes the job's trees by name from
    /// every switch they cross and returns the error with the fabric
    /// bit-identical to its pre-admission state. Neighbor jobs are never
    /// paused.
    pub fn admit(&mut self, req: JobRequest) -> Result<JobId, DeployError> {
        if req.senders == 0 || req.aggs.is_empty() {
            return Err(DeployError::Config(
                "a job needs at least one sender and one aggregation tree".into(),
            ));
        }
        if req.senders > self.free_senders.len() || req.aggs.len() > self.free_reducers.len() {
            return Err(DeployError::Config(format!(
                "host pool exhausted: {} senders free of {} requested, {} reducers free \
                 of {} requested",
                self.free_senders.len(),
                req.senders,
                self.free_reducers.len(),
                req.aggs.len()
            )));
        }
        let sender_slots: Vec<usize> = self.free_senders[..req.senders].to_vec();
        let reducer_slots: Vec<usize> = self.free_reducers[..req.aggs.len()].to_vec();

        // Tree ids: fresh-first; recycled ids only once the u16 space is
        // spent (quarantine against straggler frames from dead jobs).
        let mut tree_ids = Vec::with_capacity(req.aggs.len());
        for _ in 0..req.aggs.len() {
            match self.alloc_tree_id() {
                Some(tid) => tree_ids.push(tid),
                None => {
                    self.release_tree_ids(&tree_ids);
                    return Err(DeployError::Config(
                        "tree-id space exhausted (65536 live or quarantined trees)".into(),
                    ));
                }
            }
        }

        let mut trees = Vec::with_capacity(req.aggs.len());
        for (t, &tid) in tree_ids.iter().enumerate() {
            match AggregationTree::build(&self.spec.plan, tid, reducer_slots[t], &sender_slots) {
                Ok(tree) => trees.push(tree),
                Err(e) => {
                    self.release_tree_ids(&tree_ids);
                    return Err(DeployError::Tree(e));
                }
            }
        }

        if let Err(e) =
            self.check_nack_flows(&trees, &[]).and_then(|()| self.install_job(&trees, &req.aggs))
        {
            self.remove_trees(&trees);
            self.release_tree_ids(&tree_ids);
            return Err(e);
        }

        // Committed: lease the slots and arm the hosts.
        self.free_senders.drain(..req.senders);
        self.free_reducers.drain(..req.aggs.len());
        let st = JobState {
            active: vec![true; sender_slots.len()],
            next_seq: vec![FnvHashMap::default(); sender_slots.len()],
            sender_slots,
            reducer_slots,
            aggs: req.aggs,
            trees,
            round: 0,
            round_open: false,
            admitted_at: self.sim.now(),
            snap_at_admit: self.sim.snapshot(),
        };
        self.arm_hosts(&st);
        let jid = self.next_job;
        self.next_job += 1;
        self.jobs.insert(jid, st);
        Ok(JobId(jid))
    }

    /// Gap-tracker flow capacity precheck for installing `new` in place
    /// of `old` (the job's current trees; none on admission). It runs
    /// before any switch is touched, so a refusal needs no rollback.
    fn check_nack_flows(
        &self,
        new: &[AggregationTree],
        old: &[AggregationTree],
    ) -> Result<(), DeployError> {
        if !self.spec.config.nack_recovery {
            return Ok(());
        }
        let cap = self.spec.config.nack_flows as u64;
        let switches: BTreeSet<usize> = new.iter().flat_map(AggregationTree::switches).collect();
        for sw in switches {
            let live = self.flow_demand_at(sw) - flows_at(old, sw);
            let add = flows_at(new, sw);
            if live + add > cap {
                return Err(DeployError::Config(format!(
                    "switch {sw} would need {} NACK flows ({live} live + {add} new) \
                     but nack_flows is {cap}",
                    live + add
                )));
            }
        }
        Ok(())
    }

    /// Arms a job's hosts for a fresh epoch over its trees. Each reducer
    /// drops whatever it holds (a straggler's deposit while pooled, a
    /// wedged round's partial pairs), merges with its tree's function,
    /// and expects its tree's children: END count and NACK roster, from
    /// sequence 0. Every sender's sequence spaces and replay retention
    /// restart at 0.
    fn arm_hosts(&mut self, st: &JobState) {
        let config = self.spec.config;
        for (t, tree) in st.trees.iter().enumerate() {
            let slot = st.reducer_slots[t];
            let reducer = self
                .sim
                .node_mut::<ReducerHost>(self.ids[slot])
                .expect("reducer pool slots hold ReducerHosts");
            let _ = reducer.take_round();
            reducer.collector.set_agg(st.aggs[t]);
            let sources: Vec<(u16, u32)> = tree
                .children_of(tree.reducer)
                .into_iter()
                .map(|(child, _)| (tree.tree_id, child as u32))
                .collect();
            reducer.reroster(slot as u32, &config, sources, tree.reducer_children);
        }
        for &slot in &st.sender_slots {
            self.sim
                .node_mut::<PacedSenderNode>(self.ids[slot])
                .expect("sender pool slots hold PacedSenderNodes")
                .reset_epoch();
        }
    }

    /// Installs `trees` (aggregating with `aggs`) on every switch they
    /// cross. On `Err` some are installed and some not; the caller
    /// removes `trees` by name ([`remove_trees`](Self::remove_trees)).
    fn install_job(
        &mut self,
        trees: &[AggregationTree],
        aggs: &[AggFn],
    ) -> Result<(), DeployError> {
        let config = self.spec.config;
        for (tree, &agg) in trees.iter().zip(aggs) {
            for sw in tree.switches() {
                let (switch, ext) = self.switch_mut(sw);
                install_tree(switch, ext, sw, tree, agg, &config, AggregationMode::InNetwork)?;
            }
        }
        Ok(())
    }

    /// The switch at plan `slot` and its engine's extern id.
    fn switch_mut(&mut self, slot: usize) -> (&mut Switch, ExternId) {
        let ext = self.engine_externs[&slot];
        let switch =
            self.sim.node_mut::<Switch>(self.ids[slot]).expect("switch slots hold Switches");
        (switch, ext)
    }

    fn alloc_tree_id(&mut self) -> Option<u16> {
        if self.next_tree_id <= u32::from(u16::MAX) {
            let tid = self.next_tree_id as u16;
            self.next_tree_id += 1;
            Some(tid)
        } else {
            self.recycled_tree_ids.pop_first()
        }
    }

    fn release_tree_ids(&mut self, tids: &[u16]) {
        self.recycled_tree_ids.extend(tids.iter().copied());
    }

    /// Tears down a departed job **without draining its neighbors**:
    /// removes exactly its steering rules, engine trees, and
    /// `daiet.tree[..]`/`daiet.rtx[..]` SRAM reservations from every
    /// switch it crossed, resets and returns its leased host slots to
    /// the pools, quarantines its tree ids, and returns per-job
    /// accounting ([`StatsSnapshot`] delta over its lifetime, restricted
    /// to its leased hosts).
    ///
    /// Teardown is a per-**job** barrier operation: the departing job
    /// must have no open round (its own in-flight frames would otherwise
    /// become strays), while every other job may be mid-round with
    /// recovery in flight.
    pub fn depart(&mut self, job: JobId) -> Result<JobUsage, String> {
        let st = self
            .jobs
            .remove(&job.0)
            .ok_or_else(|| format!("{job} is not admitted"))?;
        if st.round_open {
            let err = format!("{job} has an open round; collect it before departing");
            self.jobs.insert(job.0, st);
            return Err(err);
        }
        let leased: Vec<NodeId> = st
            .sender_slots
            .iter()
            .chain(&st.reducer_slots)
            .map(|&slot| self.ids[slot])
            .collect();
        let usage = self.sim.snapshot().delta(&st.snap_at_admit).nodes_total(&leased);

        self.remove_trees(&st.trees);
        self.return_hosts(&st);
        self.release_tree_ids(&st.trees.iter().map(|t| t.tree_id).collect::<Vec<_>>());
        Ok(JobUsage {
            rounds: st.round,
            admitted_at: st.admitted_at,
            departed_at: self.sim.now(),
            usage,
        })
    }

    /// Removes `trees` by name from every switch they cross: each tree's
    /// steering rule ([`Table::remove`] on its id), engine state
    /// and SRAM reservations. Every other tree on those switches keeps
    /// its state, so a neighbor mid-round keeps aggregating. Tree ids are
    /// fabric-unique, and removing what was never installed is a no-op,
    /// so this is also how a refused install is undone.
    fn remove_trees(&mut self, trees: &[AggregationTree]) {
        for tree in trees {
            for sw in tree.switches() {
                let (switch, ext) = self.switch_mut(sw);
                remove_tree(switch, ext, sw, tree.tree_id);
            }
        }
    }

    /// Returns a departed job's host slots to the pools, reset so the
    /// next lease starts from a clean epoch.
    fn return_hosts(&mut self, st: &JobState) {
        for &slot in &st.sender_slots {
            let id = self.ids[slot];
            self.sim
                .node_mut::<PacedSenderNode>(id)
                .expect("sender pool slots hold PacedSenderNodes")
                .reset_epoch();
        }
        for &slot in &st.reducer_slots {
            let id = self.ids[slot];
            let reducer = self
                .sim
                .node_mut::<ReducerHost>(id)
                .expect("reducer pool slots hold ReducerHosts");
            let _ = reducer.take_round();
            reducer.collector.set_expected_ends(0);
        }
        self.free_senders.extend(&st.sender_slots);
        self.free_senders.sort_unstable();
        self.free_reducers.extend(&st.reducer_slots);
        self.free_reducers.sort_unstable();
    }

    /// Opens a round for `job`: `shards[i][t]` is what the job's
    /// sender `i` owes its tree `t` this round (an empty shard still
    /// ships its END — every rostered flow closes every round). The
    /// shards are copied into each sender's round schedule (frames are
    /// built from them tick by tick) and pacing timers armed; the caller
    /// advances simulated time ([`step`](Self::step)) and polls
    /// [`round_done`](Self::round_done) — there is **no global
    /// barrier**, other jobs stream concurrently.
    ///
    /// A sender a [`replan`](Self::replan) left out of the roster owes
    /// the round nothing: its shard list must be empty shards. Every
    /// shard list is checked before the first sender is touched, so a
    /// refused call leaves no round half-open.
    pub fn begin_round(&mut self, job: JobId, shards: &[Vec<Vec<Pair>>]) -> Result<(), String> {
        let config = self.spec.config;
        let pacing = self.spec.pacing;
        let st = self
            .jobs
            .get_mut(&job.0)
            .ok_or_else(|| format!("{job} is not admitted"))?;
        if st.round_open {
            return Err(format!("{job} already has round {} open", st.round));
        }
        if shards.len() != st.sender_slots.len() {
            return Err(format!(
                "{job}: {} shard lists for {} senders",
                shards.len(),
                st.sender_slots.len()
            ));
        }
        for (i, sender_shards) in shards.iter().enumerate() {
            if sender_shards.len() != st.trees.len() {
                return Err(format!(
                    "{job}: sender {i} has {} shards for {} trees",
                    sender_shards.len(),
                    st.trees.len()
                ));
            }
            if !st.active[i] && sender_shards.iter().any(|pairs| !pairs.is_empty()) {
                return Err(format!(
                    "{job} round {}: sender {i} is inactive but was handed a non-empty shard",
                    st.round
                ));
            }
        }
        for (i, sender_shards) in shards.iter().enumerate() {
            if !st.active[i] {
                continue;
            }
            let slot = st.sender_slots[i];
            let id = self.ids[slot];
            let parts = sender_shards.iter().enumerate().map(|(t, pairs)| {
                let tree = &st.trees[t];
                (
                    tree.tree_id,
                    Endpoints::from_ids(slot as u32, tree.reducer as u32),
                    pairs.clone(), // the signature borrows: the one copy
                )
            });
            // Rotate the interleave offset with the round so no tree is
            // permanently first in this sender's transmit order.
            let offset = i.wrapping_add(st.round as usize);
            let round = plan_round(&config, parts, &mut st.next_seq[i], offset);
            let sender = self
                .sim
                .node_mut::<PacedSenderNode>(id)
                .expect("sender pool slots hold PacedSenderNodes");
            sender.enqueue_round(round);
            let token = sender.pacing_token();
            let at = self.sim.now() + pacing;
            self.sim.schedule_timer(at, id, token);
        }
        st.round_open = true;
        Ok(())
    }

    /// Whether `job`'s open round has completed exactly: every reducer
    /// saw its END count and (under NACK recovery) owes no gaps. An END
    /// **overshoot** — more ENDs than the job's trees can produce — is a
    /// hard error: it means foreign traffic leaked into the job's
    /// reducers (the failure mode a broken teardown causes).
    pub fn round_done(&self, job: JobId) -> Result<bool, String> {
        let st = self
            .jobs
            .get(&job.0)
            .ok_or_else(|| format!("{job} is not admitted"))?;
        if !st.round_open {
            return Err(format!("{job} has no open round"));
        }
        let mut done = true;
        for (t, &slot) in st.reducer_slots.iter().enumerate() {
            let node = self
                .sim
                .node_ref::<ReducerHost>(self.ids[slot])
                .expect("reducer pool slots hold ReducerHosts");
            let ends = node.collector.ends_seen();
            let expected = st.trees[t].reducer_children;
            if ends > expected {
                return Err(format!(
                    "{job} round {}: reducer {t} saw {ends}/{expected} ENDs — foreign \
                     traffic leaked into the job (broken neighbor teardown?)",
                    st.round
                ));
            }
            done &= ends == expected && node.recovery_satisfied();
        }
        Ok(done)
    }

    /// Closes `job`'s open round: verifies exact completion (END counts
    /// and recovery), drains each reducer's aggregated result (sorted by
    /// key, tree order), and retires the senders' replay retention up to
    /// the round's sequence cutoffs.
    #[allow(clippy::type_complexity)]
    pub fn collect_round(&mut self, job: JobId) -> Result<Vec<Vec<(Key, u32)>>, String> {
        let st = self
            .jobs
            .get_mut(&job.0)
            .ok_or_else(|| format!("{job} is not admitted"))?;
        if !st.round_open {
            return Err(format!("{job} has no open round"));
        }
        let round = st.round;
        let mut per_tree = Vec::with_capacity(st.reducer_slots.len());
        for (t, &slot) in st.reducer_slots.iter().enumerate() {
            let expected = st.trees[t].reducer_children;
            let node = self
                .sim
                .node_mut::<ReducerHost>(self.ids[slot])
                .expect("reducer pool slots hold ReducerHosts");
            let ends = node.collector.ends_seen();
            if ends != expected {
                return Err(format!(
                    "{job} round {round}: reducer {t} saw {ends}/{expected} ENDs \
                     (short: data lost beyond recovery; over: foreign traffic leaked in)"
                ));
            }
            if !node.recovery_satisfied() {
                return Err(format!(
                    "{job} round {round}: reducer {t} completed its ENDs but a flow \
                     still has gaps (NACK budget exhausted — the aggregate would be \
                     silently partial)"
                ));
            }
            per_tree.push(node.take_round());
        }
        for (i, &slot) in st.sender_slots.iter().enumerate() {
            let cutoffs: Vec<(u16, u32)> =
                st.next_seq[i].iter().map(|(&t, &s)| (t, s)).collect();
            self.sim
                .node_mut::<PacedSenderNode>(self.ids[slot])
                .expect("sender pool slots hold PacedSenderNodes")
                .retire_round(&cutoffs);
        }
        st.round += 1;
        st.round_open = false;
        Ok(per_tree)
    }

    /// Runs one round of `job` behind a barrier: [`begin_round`], the
    /// simulation run to quiescence (every pacing and NACK timer disarms
    /// itself once it has nothing left to do), then [`collect_round`].
    /// An iterative job steps this way, one round per SGD step or Pregel
    /// superstep. A round that cannot complete exactly returns
    /// [`collect_round`]'s error and stays open until
    /// [`replan`](Self::replan).
    ///
    /// [`begin_round`]: Self::begin_round
    /// [`collect_round`]: Self::collect_round
    #[allow(clippy::type_complexity)]
    pub fn run_round(
        &mut self,
        job: JobId,
        shards: &[Vec<Vec<Pair>>],
    ) -> Result<Vec<Vec<(Key, u32)>>, String> {
        self.begin_round(job, shards)?;
        self.sim.run();
        self.collect_round(job)
    }

    /// Re-plans `job` at a round barrier around failures and roster
    /// changes (`live_senders`: job-local sender indices;
    /// `dead_switches`: plan slots).
    ///
    /// 1. The trees are rebuilt under their own ids over the live
    ///    senders, around the dead switches, and the NACK flow caps are
    ///    checked — before any switch is touched.
    /// 2. The old trees are removed by name from every switch they
    ///    crossed, dead ones included, and the new ones installed;
    ///    neighbor jobs keep their state. If the new trees do not fit,
    ///    the old ones go back and the error is returned.
    /// 3. Every live switch's L2 table (fabric state, not a tenant's) is
    ///    re-routed around the dead switches.
    /// 4. A fresh **epoch** starts: every per-tree sequence space
    ///    restarts at 0 (sound because nothing of the job is in flight
    ///    at a barrier), reducers drop a wedged round's partial pairs,
    ///    and an open round is abandoned for the caller to re-submit.
    ///
    /// Senders outside `live_senders` are inactive until a later re-plan
    /// lists them: [`begin_round`](Self::begin_round) skips them and
    /// refuses them data.
    pub fn replan(
        &mut self,
        job: JobId,
        live_senders: &[usize],
        dead_switches: &[usize],
    ) -> Result<(), String> {
        let plan = &self.spec.plan;
        let st = self.jobs.get(&job.0).ok_or_else(|| format!("{job} is not admitted"))?;
        if live_senders.is_empty() {
            return Err(format!("{job}: a re-plan needs at least one live sender"));
        }
        if let Some(&i) = live_senders.iter().find(|&&i| i >= st.sender_slots.len()) {
            return Err(format!("{job} has no sender {i}"));
        }
        if let Some(&slot) =
            dead_switches.iter().find(|&&s| s >= plan.len() || plan.role(s) != Role::Switch)
        {
            return Err(format!("dead slot {slot} is not a switch of the plan"));
        }
        let live_slots: Vec<usize> = live_senders.iter().map(|&i| st.sender_slots[i]).collect();
        let trees = st
            .trees
            .iter()
            .map(|old| {
                AggregationTree::build_avoiding(
                    plan,
                    old.tree_id,
                    old.reducer,
                    &live_slots,
                    dead_switches,
                )
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("{job}: {e}"))?;
        self.check_nack_flows(&trees, &st.trees).map_err(|e| format!("{job}: {e}"))?;

        let mut st = self.jobs.remove(&job.0).expect("looked up above");
        self.remove_trees(&st.trees);
        if let Err(e) = self.install_job(&trees, &st.aggs) {
            self.remove_trees(&trees);
            // The old trees fit a moment ago, where they were removed from.
            let restored = self.install_job(&st.trees, &st.aggs);
            if restored.is_err() {
                self.remove_trees(&st.trees);
            }
            self.jobs.insert(job.0, st);
            return Err(match restored {
                Ok(()) => format!("{job}: re-plan refused, previous trees kept: {e}"),
                Err(e2) => format!(
                    "{job}: re-plan refused ({e}) and the previous trees no longer fit ({e2})"
                ),
            });
        }
        st.trees = trees;
        st.active = (0..st.sender_slots.len()).map(|i| live_senders.contains(&i)).collect();
        for next_seq in &mut st.next_seq {
            next_seq.clear();
        }
        st.round_open = false;
        self.arm_hosts(&st);
        self.jobs.insert(job.0, st);

        for sw in self.spec.plan.switches() {
            if dead_switches.contains(&sw) {
                continue;
            }
            let switch = self
                .sim
                .node_mut::<Switch>(self.ids[sw])
                .expect("switch slots hold Switches");
            fill_l2(&self.spec.plan, sw, dead_switches, switch).map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    /// Advances simulated time by `dt`, processing whatever events fall
    /// due — every admitted job's traffic progresses concurrently.
    pub fn step(&mut self, dt: Duration) -> Time {
        let deadline = self.sim.now() + dt;
        self.advance_to(deadline)
    }

    /// Advances simulated time to `t` even if the fabric is quiet
    /// (no-op if already past).
    pub fn advance_to(&mut self, t: Time) -> Time {
        if t.as_nanos() <= self.sim.now().as_nanos() {
            return self.sim.now();
        }
        // An out-of-range extern token is ignored by Switch::on_timer —
        // the timer exists only to carry the clock to the deadline.
        self.sim.schedule_timer(t, self.clock_anchor, u64::MAX);
        self.sim.run_until(t)
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.sim.now()
    }

    /// The fabric specification.
    pub fn spec(&self) -> &TenantSpec {
        &self.spec
    }

    /// Number of currently admitted jobs.
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// Rounds `job` has completed so far.
    pub fn job_rounds(&self, job: JobId) -> Option<u64> {
        self.jobs.get(&job.0).map(|st| st.round)
    }

    /// `job`'s aggregation trees in tree order, while admitted.
    pub fn job_trees(&self, job: JobId) -> Option<&[AggregationTree]> {
        self.jobs.get(&job.0).map(|st| st.trees.as_slice())
    }

    /// Unleased (sender, reducer) pool sizes.
    pub fn free_hosts(&self) -> (usize, usize) {
        (self.free_senders.len(), self.free_reducers.len())
    }

    /// Live gap-tracker flow demand at switch `slot`: the tree children
    /// there, summed over every admitted job's trees.
    pub fn flow_demand_at(&self, slot: usize) -> u64 {
        self.jobs.values().map(|st| flows_at(&st.trees, slot)).sum()
    }

    /// The switch at plan `slot` (tables, SRAM tracker, engine — the
    /// regression tests compare tracker state across a failed admit).
    pub fn switch(&self, slot: usize) -> &Switch {
        self.sim
            .node_ref::<Switch>(self.ids[slot])
            .expect("switch slots hold Switches")
    }

    /// The aggregation engine of the switch at plan `slot`.
    pub fn engine(&self, slot: usize) -> &DaietEngine {
        let ext = self.engine_externs[&slot];
        self.switch(slot)
            .extern_ref::<DaietEngine>(ext)
            .expect("tenant switches carry a DaietEngine")
    }

    /// Node id of plan `slot`.
    pub fn node_id(&self, slot: usize) -> NodeId {
        self.ids[slot]
    }

    /// The underlying simulator (stats, link scripting).
    pub fn sim(&self) -> &Simulator {
        &self.sim
    }

    /// Mutable simulator access — e.g. to script link faults.
    pub fn sim_mut(&mut self) -> &mut Simulator {
        &mut self.sim
    }
}

/// A tenant job the mix driver can run end to end: shape (senders,
/// per-tree aggregation functions, round count), per-round input
/// shards, result absorption, and a final digest/verification.
///
/// The workload crates implement this for WordCount, GROUP BY and
/// iterative SGD; the trait lives here so the scheduler stays
/// workload-agnostic.
pub trait TenantWorkload {
    /// Accounting label (also the job label the scheduler records).
    fn label(&self) -> String;
    /// Sender slots the job leases.
    fn senders(&self) -> usize;
    /// One aggregation tree per entry, aggregating with that function.
    fn aggs(&self) -> Vec<AggFn>;
    /// Rounds the job runs before departing.
    fn rounds(&self) -> u64;
    /// Input for `round`: `shards[i][t]` is sender `i`'s pairs for tree
    /// `t`. Must be deterministic in `round` (solo and mixed runs must
    /// feed identical inputs).
    fn shards(&mut self, round: u64) -> Vec<Vec<Vec<Pair>>>;
    /// Absorbs `round`'s aggregated result (`per_tree[t]` sorted by
    /// key).
    fn absorb(&mut self, round: u64, per_tree: Vec<Vec<(Key, u32)>>);
    /// Order-independent digest of everything absorbed — the value the
    /// property tests compare bit-for-bit between solo and mixed runs.
    fn digest(&self) -> u64;
    /// Workload-level correctness check after the last round (e.g.
    /// against a host-side reference computation).
    fn verify(&self) -> Result<(), String>;
}

/// Knobs of the [`run_mix`] driver loop.
#[derive(Debug, Clone)]
pub struct MixOptions {
    /// Simulated time advanced per poll while any job is running.
    pub poll: Duration,
    /// Back-off before retrying a rejected admission.
    pub retry: Duration,
    /// Hard cap on simulated time for the whole mix.
    pub deadline: Duration,
}

impl Default for MixOptions {
    fn default() -> Self {
        MixOptions {
            poll: Duration::from_micros(25),
            retry: Duration::from_micros(200),
            deadline: Duration::from_secs(2),
        }
    }
}

/// What one job did over a [`run_mix`] run.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The workload's label.
    pub label: String,
    /// When the job first asked for admission (its Poisson arrival).
    pub requested_at: Time,
    /// When admission succeeded.
    pub admitted_at: Time,
    /// When the job departed after its last round.
    pub finished_at: Time,
    /// Rounds completed.
    pub rounds: u64,
    /// Admission attempts refused before the job got in.
    pub rejections: u32,
    /// The workload's digest after its last round.
    pub digest: u64,
    /// Result pairs delivered to the job's reducers across all rounds.
    pub result_pairs: u64,
    /// The job's traffic (its leased hosts' counters over its
    /// admitted lifetime).
    pub usage: NodeStats,
}

/// What a whole [`run_mix`] run produced.
#[derive(Debug)]
pub struct MixOutcome {
    /// Per-job outcomes, in arrival order.
    pub jobs: Vec<JobOutcome>,
    /// Simulated time from first arrival to last departure.
    pub makespan: Duration,
    /// Result pairs delivered across all jobs.
    pub result_pairs: u64,
    /// Fabric-wide counter growth over the run.
    pub net: StatsSnapshot,
}

struct PendingJob {
    due: Time,
    idx: usize,
    wl: Box<dyn TenantWorkload>,
    requested_at: Time,
    rejections: u32,
}

struct RunningJob {
    idx: usize,
    job: JobId,
    wl: Box<dyn TenantWorkload>,
    requested_at: Time,
    admitted_at: Time,
    rejections: u32,
    round: u64,
    open: bool,
    result_pairs: u64,
}

/// Drives a deterministic tenant mix over `sched`: each `(offset,
/// workload)` arrival is admitted at its offset from now (retried with
/// [`MixOptions::retry`] back-off on rejection), run for its round
/// count with all admitted jobs streaming **concurrently**, verified,
/// and departed. Returns per-job outcomes in arrival order.
///
/// A rejection while *no* job is running is a hard error (the job could
/// never be admitted); so is exceeding [`MixOptions::deadline`] in
/// simulated time.
pub fn run_mix(
    sched: &mut JobScheduler,
    arrivals: Vec<(Duration, Box<dyn TenantWorkload>)>,
    opts: &MixOptions,
) -> Result<MixOutcome, String> {
    let base = sched.now();
    let snap_start = sched.sim().snapshot();
    let hard_deadline = base + opts.deadline;
    let n = arrivals.len();
    let mut outcomes: Vec<Option<JobOutcome>> = (0..n).map(|_| None).collect();

    let mut pending: Vec<PendingJob> = arrivals
        .into_iter()
        .enumerate()
        .map(|(idx, (offset, wl))| PendingJob {
            due: base + offset,
            idx,
            wl,
            requested_at: base + offset,
            rejections: 0,
        })
        .collect();
    pending.sort_by_key(|p| (p.due.as_nanos(), p.idx));
    let mut running: Vec<RunningJob> = Vec::new();

    while !pending.is_empty() || !running.is_empty() {
        if sched.now().as_nanos() > hard_deadline.as_nanos() {
            return Err(format!(
                "mix exceeded its deadline with {} jobs pending, {} running",
                pending.len(),
                running.len()
            ));
        }

        // Admit every arrival that has come due.
        while pending.first().is_some_and(|p| p.due.as_nanos() <= sched.now().as_nanos()) {
            let mut p = pending.remove(0);
            let req = JobRequest {
                label: p.wl.label(),
                senders: p.wl.senders(),
                aggs: p.wl.aggs(),
            };
            match sched.admit(req) {
                Ok(job) => running.push(RunningJob {
                    idx: p.idx,
                    job,
                    wl: p.wl,
                    requested_at: p.requested_at,
                    admitted_at: sched.now(),
                    rejections: p.rejections,
                    round: 0,
                    open: false,
                    result_pairs: 0,
                }),
                Err(e) => {
                    if running.is_empty() {
                        return Err(format!(
                            "arrival {} ({}) can never be admitted: {e}",
                            p.idx,
                            p.wl.label()
                        ));
                    }
                    p.rejections += 1;
                    p.due = sched.now() + opts.retry;
                    let at = pending
                        .iter()
                        .position(|q| (q.due.as_nanos(), q.idx) > (p.due.as_nanos(), p.idx))
                        .unwrap_or(pending.len());
                    pending.insert(at, p);
                }
            }
        }

        // Drive every running job: open its next round, or close a
        // completed one (departing after the last).
        let mut i = 0;
        while i < running.len() {
            let finished = {
                let r = &mut running[i];
                if !r.open {
                    let shards = r.wl.shards(r.round);
                    sched.begin_round(r.job, &shards)?;
                    r.open = true;
                    false
                } else if !sched.round_done(r.job)? {
                    false
                } else {
                    let per_tree = sched.collect_round(r.job)?;
                    r.result_pairs += per_tree.iter().map(|v| v.len() as u64).sum::<u64>();
                    r.wl.absorb(r.round, per_tree);
                    r.open = false;
                    r.round += 1;
                    r.round == r.wl.rounds()
                }
            };
            if finished {
                let r = running.remove(i);
                r.wl.verify()
                    .map_err(|e| format!("{} failed verification: {e}", r.wl.label()))?;
                let usage = sched.depart(r.job)?;
                outcomes[r.idx] = Some(JobOutcome {
                    label: r.wl.label(),
                    requested_at: r.requested_at,
                    admitted_at: r.admitted_at,
                    finished_at: usage.departed_at,
                    rounds: usage.rounds,
                    rejections: r.rejections,
                    digest: r.wl.digest(),
                    result_pairs: r.result_pairs,
                    usage: usage.usage,
                });
            } else {
                i += 1;
            }
        }

        // Advance simulated time: to the next arrival when idle, by one
        // poll quantum otherwise.
        if running.is_empty() {
            match pending.first() {
                Some(p) => {
                    let due = p.due;
                    sched.advance_to(due);
                }
                None => break,
            }
        } else {
            sched.step(opts.poll);
        }
    }

    let jobs: Vec<JobOutcome> = outcomes
        .into_iter()
        .map(|o| o.expect("every arrival either finished or errored out"))
        .collect();
    let result_pairs = jobs.iter().map(|j| j.result_pairs).sum();
    Ok(MixOutcome {
        jobs,
        makespan: sched.now().duration_since(base),
        result_pairs,
        net: sched.sim().snapshot().delta(&snap_start),
    })
}

/// Runs one workload alone on `sched` — the solo baseline the
/// isolation property tests and the `fig_multitenant` slowdown figures
/// compare against.
pub fn run_solo(
    sched: &mut JobScheduler,
    wl: Box<dyn TenantWorkload>,
    opts: &MixOptions,
) -> Result<JobOutcome, String> {
    let mut out = run_mix(sched, vec![(Duration::ZERO, wl)], opts)?;
    Ok(out.jobs.remove(0))
}

/// Deterministic Poisson arrival offsets: `n` cumulative
/// exponentially-distributed gaps with mean `mean_gap`, derived from
/// `seed` with the same splitmix64-flavoured mixing the simulator's
/// per-stream RNGs use — reseeding a mix reproduces it exactly, and
/// distinct seeds give independent arrival processes.
pub fn poisson_offsets(seed: u64, mean_gap: Duration, n: usize) -> Vec<Duration> {
    fn mix(base: u64, word: u64) -> u64 {
        let mut h = base ^ 0x9E37_79B9_7F4A_7C15;
        h ^= word
            .wrapping_add(0xBF58_476D_1CE4_E5B9)
            .wrapping_mul(0x94D0_49BB_1331_11EB);
        h = (h ^ (h >> 27)).wrapping_mul(0x2545_F491_4F6C_DD1D);
        h ^= h >> 31;
        h
    }
    let mut offsets = Vec::with_capacity(n);
    let mut t: u64 = 0;
    for k in 0..n {
        let x = mix(seed, k as u64);
        // 53 uniform bits → u ∈ [0, 1); inverse-CDF of the exponential.
        let u = (x >> 11) as f64 / (1u64 << 53) as f64;
        let gap = -(1.0 - u).ln() * mean_gap.as_nanos() as f64;
        t = t.saturating_add(gap as u64);
        offsets.push(Duration::from_nanos(t));
    }
    offsets
}

/// Folds one round's per-tree results into a running FNV-1a digest —
/// the shared digest primitive behind every [`TenantWorkload`]'s
/// [`digest`](TenantWorkload::digest), so "bit-identical to the solo
/// run" means the same thing for every workload. Start from
/// [`DIGEST_SEED`] and fold each round's output in round order.
pub fn fold_round_digest(acc: u64, per_tree: &[Vec<(Key, u32)>]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = acc;
    for (t, pairs) in per_tree.iter().enumerate() {
        h = (h ^ t as u64).wrapping_mul(PRIME);
        for (k, v) in pairs {
            for &b in &k.0 {
                h = (h ^ u64::from(b)).wrapping_mul(PRIME);
            }
            h = (h ^ u64::from(*v)).wrapping_mul(PRIME);
        }
    }
    h
}

/// FNV-1a offset basis: the initial accumulator for
/// [`fold_round_digest`].
pub const DIGEST_SEED: u64 = 0xCBF2_9CE4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::switch_agg::ChildSource;
    use daiet_dataplane::pipeline::ActionSpec;
    use daiet_dataplane::resources::SramTracker;
    use daiet_netsim::LinkSpec;

    fn key(s: &str) -> Key {
        Key::from_str_key(s).unwrap()
    }

    fn star_sched(config: DaietConfig) -> JobScheduler {
        // star(8): hosts 0-7, switch 8.
        let plan = TopologyPlan::star(8, LinkSpec::fast());
        let spec = TenantSpec::new(config, plan, vec![0, 1, 2, 3], vec![4, 5, 6, 7]);
        JobScheduler::build(spec).unwrap()
    }

    fn drive(sched: &mut JobScheduler, jobs: &[JobId]) {
        for _ in 0..10_000 {
            if jobs.iter().all(|&j| sched.round_done(j).unwrap()) {
                return;
            }
            sched.step(Duration::from_micros(25));
        }
        panic!("jobs did not complete in simulated time");
    }

    #[test]
    fn two_jobs_share_the_fabric_and_depart_independently() {
        let mut sched = star_sched(DaietConfig::default());
        let a = sched
            .admit(JobRequest { label: "a".into(), senders: 2, aggs: vec![AggFn::Sum] })
            .unwrap();
        let b = sched
            .admit(JobRequest { label: "b".into(), senders: 2, aggs: vec![AggFn::Max] })
            .unwrap();
        assert_eq!(sched.job_count(), 2);
        assert_eq!(sched.free_hosts(), (0, 2));
        // Both trees live side by side on the shared switch.
        assert_eq!(sched.engine(8).tree_count(), 2);

        // One concurrent round each: A sums, B maxes, same key space.
        let a_shards: Vec<Vec<Vec<Pair>>> =
            (0..2).map(|i| vec![vec![Pair::new(key("w"), 1 + i)]]).collect();
        let b_shards: Vec<Vec<Vec<Pair>>> =
            (0..2).map(|i| vec![vec![Pair::new(key("w"), 10 * (1 + i))]]).collect();
        sched.begin_round(a, &a_shards).unwrap();
        sched.begin_round(b, &b_shards).unwrap();
        drive(&mut sched, &[a, b]);
        assert_eq!(sched.collect_round(a).unwrap(), vec![vec![(key("w"), 3)]]);
        assert_eq!(sched.collect_round(b).unwrap(), vec![vec![(key("w"), 20)]]);

        // A departs; B keeps running rounds, exactly.
        let usage = sched.depart(a).unwrap();
        assert_eq!(usage.rounds, 1);
        assert!(usage.usage.frames_out > 0, "A's senders sent frames");
        assert_eq!(sched.engine(8).tree_count(), 1);
        assert_eq!(sched.free_hosts(), (2, 3));
        sched.begin_round(b, &b_shards).unwrap();
        drive(&mut sched, &[b]);
        assert_eq!(sched.collect_round(b).unwrap(), vec![vec![(key("w"), 20)]]);
        sched.depart(b).unwrap();
        assert_eq!(sched.job_count(), 0);
        assert_eq!(sched.free_hosts(), (4, 4));
        assert_eq!(sched.flow_demand_at(8), 0);
    }

    /// A refused `begin_round` leaves no round half-open: the second
    /// sender's malformed shard list is caught before the first sender
    /// enqueues anything. Otherwise the first sender would ship the
    /// refused round's data too, and it would surface in a later round
    /// (`w` = 4, not 3).
    #[test]
    fn refused_begin_round_leaves_no_half_open_round() {
        let mut sched = star_sched(DaietConfig::default());
        let a = sched
            .admit(JobRequest { label: "a".into(), senders: 2, aggs: vec![AggFn::Sum] })
            .unwrap();
        let good = vec![vec![Pair::new(key("w"), 1)]];
        let malformed = vec![vec![Pair::new(key("w"), 2)], Vec::new()];
        let err = sched.begin_round(a, &[good.clone(), malformed]).unwrap_err();
        assert!(err.contains("sender 1 has 2 shards for 1 trees"), "got: {err}");

        let shards = [good, vec![vec![Pair::new(key("w"), 2)]]];
        for round in 0..2 {
            sched.begin_round(a, &shards).unwrap();
            drive(&mut sched, &[a]);
            assert_eq!(sched.collect_round(a), Ok(vec![vec![(key("w"), 3)]]), "round {round}");
        }
    }

    /// Two senders × two trees × three rounds behind `run_round`'s
    /// barrier: per-round results are exact and independent, sequence
    /// spaces carry across rounds, and host memory stays bounded by
    /// retirement.
    #[test]
    fn run_round_runs_rounds_on_one_simulation() {
        let config =
            DaietConfig { register_cells: 256, nack_recovery: true, ..DaietConfig::default() }
                .with_rtx_sized_for_flush();
        let plan = TopologyPlan::star(4, LinkSpec::fast());
        let spec = TenantSpec::new(config, plan, vec![0, 1], vec![2, 3]);
        let mut sched = JobScheduler::build(spec).unwrap();
        let aggs = vec![AggFn::Sum, AggFn::Sum];
        let job = sched.admit(JobRequest { label: "iter".into(), senders: 2, aggs }).unwrap();
        let r0 = sched.node_id(2);
        for round in 0..3u32 {
            // Sender i ships ("w", round+1+i) to tree 0 and a round-unique
            // key to tree 1.
            let shards: Vec<Vec<Vec<Pair>>> = (0..2u32)
                .map(|i| {
                    let unique = Pair::new(key(&format!("r{round}")), 10 + i);
                    vec![vec![Pair::new(key("w"), round + 1 + i)], vec![unique]]
                })
                .collect();
            let frames_before = sched.sim().node_stats(r0).frames_in;
            let out = sched.run_round(job, &shards).unwrap();
            // Tree 0: the two senders' "w" values, switch-aggregated.
            assert_eq!(out[0], vec![(key("w"), 2 * round + 3)]);
            // Tree 1: only this round's key — earlier rounds were drained
            // at their own barriers.
            assert_eq!(out[1], vec![(key(&format!("r{round}")), 21)]);
            // In-network: exactly one switch END per reducer per round,
            // among a handful of frames.
            let reducer = sched.sim().node_ref::<ReducerHost>(r0).unwrap();
            assert_eq!(reducer.collector.stats().end_packets, u64::from(round) + 1);
            let frames_in = sched.sim().node_stats(r0).frames_in - frames_before;
            assert!((2..10).contains(&frames_in), "{frames_in} frames in one round");
        }
        assert_eq!(sched.job_rounds(job), Some(3));
        // Retirement bounded the host-side state: pacing queues drained,
        // replay retention empty (every round was fully acknowledged).
        for slot in [0, 1] {
            let sender = sched.sim().node_ref::<PacedSenderNode>(sched.node_id(slot)).unwrap();
            assert_eq!((sender.pending(), sender.replay_retained()), (0, 0));
        }
        // Sequence spaces carried across rounds: round 2's frames were
        // not treated as replays of round 0's.
        let reducer = sched.sim().node_ref::<ReducerHost>(r0).unwrap();
        assert_eq!(reducer.duplicates_suppressed(), 0);
    }

    /// A re-plan whose new trees do not fit the switches is refused and
    /// puts the previous trees back: here the re-route's spine has no
    /// SRAM left. Once it has room, the same re-plan goes through and
    /// the job runs exactly on the new tree.
    #[test]
    fn replan_that_does_not_fit_keeps_the_previous_trees() {
        // leaf_spine(2,2,2): hosts 0-3, leaves 4-5, spines 6-7.
        let plan = TopologyPlan::leaf_spine(2, 2, 2, LinkSpec::fast());
        let spec = TenantSpec::new(DaietConfig::default(), plan, vec![0, 1], vec![3]);
        let mut sched = JobScheduler::build(spec).unwrap();
        let job = sched
            .admit(JobRequest { label: "a".into(), senders: 2, aggs: vec![AggFn::Sum] })
            .unwrap();
        let spine = |sched: &JobScheduler| -> usize {
            sched.job_trees(job).unwrap()[0].switches().find(|&s| s >= 6).unwrap()
        };
        let old_spine = spine(&sched);
        let new_spine = if old_spine == 6 { 7 } else { 6 };
        fn tracker(sched: &mut JobScheduler, slot: usize) -> &mut SramTracker {
            let id = sched.node_id(slot);
            sched.sim_mut().node_mut::<Switch>(id).unwrap().pipeline_mut().tracker_mut()
        }
        // Take every free byte of the re-route's spine.
        let t = tracker(&mut sched, new_spine);
        for stage in 2..t.resources().stages {
            let free = t.resources().sram_per_stage - t.used_in_stage(stage);
            t.allocate("filler", stage, free).unwrap();
        }

        let allocs_before = sched.switch(4).pipeline().tracker().allocations().to_vec();
        let err = sched.replan(job, &[0, 1], &[old_spine]).unwrap_err();
        assert!(err.contains("previous trees kept"), "got: {err}");
        assert_eq!(spine(&sched), old_spine);
        assert_eq!(sched.engine(old_spine).tree_count(), 1);
        assert_eq!(sched.engine(new_spine).tree_count(), 0);
        assert_eq!(sched.switch(4).pipeline().tracker().allocations(), allocs_before.as_slice());

        tracker(&mut sched, new_spine).free("filler");
        sched.replan(job, &[0, 1], &[old_spine]).unwrap();
        assert_eq!(spine(&sched), new_spine);
        assert_eq!(sched.engine(old_spine).tree_count(), 0);
        let shards: Vec<Vec<Vec<Pair>>> =
            (0..2).map(|i| vec![vec![Pair::new(key("w"), 1 + i)]]).collect();
        assert_eq!(sched.run_round(job, &shards).unwrap(), vec![vec![(key("w"), 3)]]);
    }

    /// What a switch holds for tree `tid`: the steering table's length
    /// and its action for the tree, the engine's tree count and the
    /// tree's NACK roster, and its `daiet.tree[..]`/`daiet.rtx[..]`
    /// reservations as (name, bytes).
    #[allow(clippy::type_complexity)]
    fn programmed(
        switch: &mut Switch,
        ext: ExternId,
        tid: u16,
    ) -> (usize, ActionSpec, usize, Vec<ChildSource>, BTreeSet<(String, usize)>) {
        use daiet_dataplane::parser::{parse, ParserConfig};
        use daiet_dataplane::pipeline::PacketCtx;
        use daiet_wire::daiet::{Header, PacketFlags};
        let mut buf = Vec::new();
        let end = Header::end(tid, PacketFlags::empty(), 0);
        daiet_wire::stack::build_daiet_into(
            &mut buf,
            &Endpoints::from_ids(0, 3),
            daiet_wire::udp::DAIET_PORT,
            &end,
            &[],
        );
        let frame = daiet_fabric::Frame::from_slice(&buf);
        let parsed = parse(frame, &ParserConfig::default()).unwrap();
        let steer = switch.pipeline_mut().table_mut(crate::controller::STEER_TABLE);
        let action = steer.lookup(&PacketCtx::new(daiet_fabric::PortId(0), parsed));
        let steer_len = steer.len();
        let engine = switch.extern_ref::<DaietEngine>(ext).unwrap();
        let roster = engine.child_roster(tid).unwrap().to_vec();
        let trees = engine.tree_count();
        let allocs = switch
            .pipeline()
            .tracker()
            .allocations()
            .iter()
            .filter(|a| a.name.starts_with("daiet.tree[") || a.name.starts_with("daiet.rtx["))
            .map(|a| (a.name.clone(), a.bytes))
            .collect();
        (steer_len, action, trees, roster, allocs)
    }

    /// Deploying a job and admitting it program every switch its tree
    /// crosses identically: steering rule, engine tree and NACK roster,
    /// per-tree SRAM reservations.
    #[test]
    fn deploy_and_admit_program_the_same_switch() {
        use crate::controller::{AggregationMode, Controller, JobPlacement};
        // leaf_spine(2,2,2): hosts 0-3, leaves 4-5, spines 6-7.
        let plan = TopologyPlan::leaf_spine(2, 2, 2, LinkSpec::fast());
        let config = DaietConfig { nack_recovery: true, ..DaietConfig::default() };
        let placement = JobPlacement { mappers: vec![0, 1, 2], reducers: vec![3] };
        let (dep, mut deployed) = Controller::new(config, AggFn::Sum)
            .deploy(&plan, &placement, Resources::tofino_like(), AggregationMode::InNetwork)
            .unwrap();
        let spec = TenantSpec::new(config, plan, vec![0, 1, 2], vec![3]);
        let mut sched = JobScheduler::build(spec).unwrap();
        let job = sched
            .admit(JobRequest { label: "a".into(), senders: 3, aggs: vec![AggFn::Sum] })
            .unwrap();
        let tree = &dep.trees[0];
        let admitted = &sched.job_trees(job).unwrap()[0];
        assert_eq!((admitted.tree_id, &admitted.switch_children), (0, &tree.switch_children));

        let crossed: Vec<usize> = tree.switches().collect();
        assert_eq!(crossed.len(), 3, "two leaves and a spine");
        for sw in crossed {
            let ext = dep.engine_externs[&sw];
            let by_deploy = programmed(deployed.get_mut(&sw).unwrap(), ext, 0);
            assert!(matches!(by_deploy.1, ActionSpec::Invoke { arg: 0, .. }), "switch {sw}");
            assert_eq!(by_deploy.4.len(), 2, "registers and ring on switch {sw}");
            let (switch, ext) = sched.switch_mut(sw);
            assert_eq!(programmed(switch, ext, 0), by_deploy, "switch {sw}");
        }
    }

    /// A rejected admission (here: steering-table capacity, which fails
    /// *after* the tree's SRAM and engine state were installed) rolls
    /// everything back: the tracker and engine are bit-identical to
    /// their pre-admission state, and a departure later makes the same
    /// request admissible.
    #[test]
    fn failed_admission_leaves_zero_partial_state() {
        let plan = TopologyPlan::star(8, LinkSpec::fast());
        let mut spec =
            TenantSpec::new(DaietConfig::default(), plan, vec![0, 1, 2, 3], vec![4, 5, 6, 7]);
        spec.steer_capacity = 1;
        let mut sched = JobScheduler::build(spec).unwrap();
        let a = sched
            .admit(JobRequest { label: "a".into(), senders: 2, aggs: vec![AggFn::Sum] })
            .unwrap();

        let allocs_before = sched.switch(8).pipeline().tracker().allocations().to_vec();
        let used_before = sched.switch(8).pipeline().tracker().total_used();
        let req = JobRequest { label: "b".into(), senders: 2, aggs: vec![AggFn::Sum] };
        let err = sched.admit(req.clone()).unwrap_err();
        assert!(matches!(err, DeployError::Config(_)), "steer table full: {err}");
        assert_eq!(
            sched.switch(8).pipeline().tracker().allocations(),
            allocs_before.as_slice()
        );
        assert_eq!(sched.switch(8).pipeline().tracker().total_used(), used_before);
        assert_eq!(sched.engine(8).tree_count(), 1);
        assert_eq!(sched.free_hosts(), (2, 3), "no slots leaked");

        sched.depart(a).unwrap();
        sched.admit(req).unwrap();
    }

    #[test]
    fn poisson_offsets_are_deterministic_and_monotone() {
        let a = poisson_offsets(23, Duration::from_micros(50), 16);
        let b = poisson_offsets(23, Duration::from_micros(50), 16);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].as_nanos() <= w[1].as_nanos()));
        let c = poisson_offsets(24, Duration::from_micros(50), 16);
        assert_ne!(a, c, "distinct seeds give distinct processes");
        // Mean gap within a loose factor of the requested mean.
        let mean = a.last().unwrap().as_nanos() as f64 / 16.0;
        assert!((10_000.0..250_000.0).contains(&mean), "mean gap {mean} ns");
    }

    struct ToyJob {
        rounds_done: u64,
        digest: u64,
    }

    impl TenantWorkload for ToyJob {
        fn label(&self) -> String {
            "toy".into()
        }
        fn senders(&self) -> usize {
            2
        }
        fn aggs(&self) -> Vec<AggFn> {
            vec![AggFn::Sum]
        }
        fn rounds(&self) -> u64 {
            3
        }
        fn shards(&mut self, round: u64) -> Vec<Vec<Vec<Pair>>> {
            (0..2)
                .map(|i| vec![vec![Pair::new(key("k"), (round as u32 + 1) * (i + 1))]])
                .collect()
        }
        fn absorb(&mut self, round: u64, per_tree: Vec<Vec<(Key, u32)>>) {
            assert_eq!(per_tree, vec![vec![(key("k"), 3 * (round as u32 + 1))]]);
            self.rounds_done += 1;
            self.digest = fold_round_digest(self.digest, &per_tree);
        }
        fn digest(&self) -> u64 {
            self.digest
        }
        fn verify(&self) -> Result<(), String> {
            if self.rounds_done == 3 {
                Ok(())
            } else {
                Err(format!("absorbed {} rounds of 3", self.rounds_done))
            }
        }
    }

    #[test]
    fn run_mix_drives_workloads_to_completion() {
        let mut sched = star_sched(DaietConfig::default());
        let arrivals: Vec<(Duration, Box<dyn TenantWorkload>)> = vec![
            (Duration::ZERO, Box::new(ToyJob { rounds_done: 0, digest: DIGEST_SEED })),
            (
                Duration::from_micros(30),
                Box::new(ToyJob { rounds_done: 0, digest: DIGEST_SEED }),
            ),
        ];
        let out = run_mix(&mut sched, arrivals, &MixOptions::default()).unwrap();
        assert_eq!(out.jobs.len(), 2);
        assert_eq!(out.jobs[0].rounds, 3);
        assert_eq!(out.jobs[1].rounds, 3);
        assert_eq!(out.jobs[0].digest, out.jobs[1].digest, "same inputs, same digest");
        assert_eq!(out.result_pairs, 6);
        assert!(out.makespan.as_nanos() > 0);
        assert_eq!(sched.job_count(), 0);

        // The solo digest matches too: concurrency did not perturb it.
        let mut solo = star_sched(DaietConfig::default());
        let solo_out = run_solo(
            &mut solo,
            Box::new(ToyJob { rounds_done: 0, digest: DIGEST_SEED }),
            &MixOptions::default(),
        )
        .unwrap();
        assert_eq!(solo_out.digest, out.jobs[0].digest);
    }

    /// More arrivals than the host pools hold: later jobs are rejected,
    /// retried, and admitted once earlier ones depart.
    #[test]
    fn run_mix_queues_jobs_past_pool_capacity() {
        let mut sched = star_sched(DaietConfig::default());
        let arrivals: Vec<(Duration, Box<dyn TenantWorkload>)> = (0..4)
            .map(|k| {
                (
                    Duration::from_nanos(100 * k),
                    Box::new(ToyJob { rounds_done: 0, digest: DIGEST_SEED })
                        as Box<dyn TenantWorkload>,
                )
            })
            .collect();
        let out = run_mix(&mut sched, arrivals, &MixOptions::default()).unwrap();
        assert_eq!(out.jobs.len(), 4);
        assert!(
            out.jobs.iter().any(|j| j.rejections > 0),
            "a 4-sender pool cannot hold 4×2 senders at once"
        );
        let d0 = out.jobs[0].digest;
        assert!(out.jobs.iter().all(|j| j.digest == d0));
    }
}
