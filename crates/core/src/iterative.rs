//! Round-by-round iterative workloads over one long-lived simulation.
//!
//! [`IterativeRunner`] is the harness behind the ML and graph workloads:
//! it deploys a DAIET job once and then drives it round by round, with
//! sequence spaces, gap trackers and switch register state carrying
//! across rounds exactly as a long-running in-network deployment would.
//! This module is deliberately the **simulator-facing** half of the
//! worker layer: the protocol nodes it drives ([`PacedSenderNode`],
//! [`ReducerHost`]) live in [`crate::worker`] and are written against
//! the backend-neutral `daiet-fabric` traits, while the runner itself
//! owns a [`daiet_netsim::Simulator`] and is free to use simulator-only
//! affordances (barriers via run-to-quiescence, node downcasts, stats
//! snapshots).

// lint:allow-file(layer-netsim): this module IS the simulator harness for
// iterative jobs — it builds the Simulator, wires nodes, and reads stats.
// Protocol logic it drives (worker/switch/reliability) stays fabric-only.
use crate::agg::AggFn;
use crate::config::DaietConfig;
use crate::worker::{plan_round, reducer_host, CollectorStats, PacedSenderNode, ReducerHost};
use daiet_fabric::{Duration, Fabric, Frame, Node, PortId, Time};
use daiet_wire::daiet::{Key, Pair};
use daiet_wire::fnv::FnvHashMap;

/// A host that takes no part in the job: receives and drops. Occupies
/// plan slots the placement leaves unused.
pub(crate) struct IdleHost;

impl Node for IdleHost {
    fn on_packet(&mut self, _ctx: &mut dyn Fabric, _port: PortId, _frame: Frame) {}

    fn name(&self) -> String {
        "idle-host".into()
    }
}

/// How an [`IterativeRunner`] deployment is shaped: the same knobs the
/// one-shot workloads pass to their runners, minus anything per-round.
#[derive(Debug, Clone)]
pub struct IterativeSpec {
    /// DAIET parameters (the NACK recovery switch included).
    pub config: DaietConfig,
    /// Aggregation function for every tree.
    pub agg: AggFn,
    /// The fabric.
    pub plan: daiet_netsim::topology::TopologyPlan,
    /// Plan slots acting as iterative senders (ML workers, graph
    /// workers).
    pub senders: Vec<usize>,
    /// Plan slots acting as reducers (parameter server, inbox collector);
    /// one aggregation tree each.
    pub reducers: Vec<usize>,
    /// Switch chip profile.
    pub resources: daiet_dataplane::Resources,
    /// Aggregate in-network or pass through.
    pub mode: crate::controller::AggregationMode,
    /// Gap between frames at each sender.
    pub pacing: Duration,
    /// Simulation seed.
    pub seed: u64,
}

impl IterativeSpec {
    /// Paper-shaped defaults over `plan`: in-network aggregation with
    /// SUM, 1 µs pacing.
    pub fn new(
        config: DaietConfig,
        plan: daiet_netsim::topology::TopologyPlan,
        senders: Vec<usize>,
        reducers: Vec<usize>,
    ) -> IterativeSpec {
        IterativeSpec {
            config,
            agg: AggFn::Sum,
            plan,
            senders,
            reducers,
            resources: daiet_dataplane::Resources::tofino_like(),
            mode: crate::controller::AggregationMode::InNetwork,
            pacing: Duration::from_micros(1),
            seed: 7,
        }
    }
}

/// What one round of an [`IterativeRunner`] produced.
#[derive(Debug)]
pub struct IterRound {
    /// Round index (0-based).
    pub round: u64,
    /// Each reducer's aggregated pairs for this round, sorted by key.
    pub per_reducer: Vec<Vec<(Key, u32)>>,
    /// Each reducer's collector-counter growth during this round.
    pub reducer_stats: Vec<CollectorStats>,
    /// Simulator counter growth during this round (frames, bytes,
    /// drops — per node and link).
    pub net: daiet_netsim::StatsSnapshot,
}

/// Drives an iterative workload **round by round over one long-lived
/// simulation**: the same switches, register arrays, gap trackers and
/// sequence spaces serve every round, exactly as an
/// in-network deployment would run a training job or a Pregel
/// computation. This is the packet-level counterpart of the analytic
/// fig-1 models — and the first harness to drive the reliability layer's
/// round-reopening path end to end.
///
/// Per round ([`run_round`](Self::run_round)):
///
/// 1. each sender's shards are packetized **continuing its per-tree
///    sequence space** (gap tracking stays sound across rounds),
///    interleaved at an offset that *rotates* with the round (fairness:
///    no tree is always drained first), and appended to the sender's
///    pacing queue;
/// 2. the simulation runs to quiescence — the **round barrier**. With
///    NACK recovery armed, quiescence implies every gap was either
///    recovered or given up on; the runner then *requires* every reducer
///    to be complete **and** satisfied (gapless through every END), so a
///    round with unrecoverable data fails loudly instead of feeding a
///    silently-partial aggregate to the next step;
/// 3. each reducer's round result is drained ([`ReducerHost::take_round`]
///    — the flow stays open: the next round's frames reopen it), and
///    host-side replay retention plus transmitted frames are **retired**,
///    keeping memory bounded at O(one round) over arbitrarily many steps.
pub struct IterativeRunner {
    spec: IterativeSpec,
    sim: daiet_netsim::Simulator,
    deployment: crate::controller::Deployment,
    /// Node ids by plan slot.
    ids: Vec<daiet_netsim::NodeId>,
    /// Per sender (spec order), per tree id: next free sequence number.
    next_seq: Vec<FnvHashMap<u16, u32>>,
    /// END frames each reducer must see per round.
    expected_per_round: Vec<u32>,
    /// Live roster: `active[i]` is whether sender `i` (spec order) takes
    /// part in rounds. Toggled by [`set_sender_active`](Self::set_sender_active);
    /// a toggle only takes effect once [`replan`](Self::replan) has
    /// redefined trees and END expectations over the new roster.
    active: Vec<bool>,
    round: u64,
}

impl IterativeRunner {
    /// Deploys `spec` onto a fresh simulator: controller-built switches,
    /// one empty [`PacedSenderNode`] per sender (replay armed when
    /// recovery is on), one [`ReducerHost`] per reducer (NACK recovery
    /// per the config).
    pub fn build(spec: IterativeSpec) -> Result<IterativeRunner, String> {
        use crate::controller::{Controller, JobPlacement};
        use daiet_netsim::topology::Role;

        let controller = Controller::new(spec.config, spec.agg);
        let placement = JobPlacement {
            mappers: spec.senders.clone(),
            reducers: spec.reducers.clone(),
        };
        let (dep, mut switches) = controller
            .deploy(&spec.plan, &placement, spec.resources, spec.mode)
            .map_err(|e| e.to_string())?;

        let mut sim = daiet_netsim::Simulator::new(spec.seed);
        let mut ids = Vec::with_capacity(spec.plan.len());
        let expected_per_round: Vec<u32> = (0..spec.reducers.len())
            .map(|r| dep.expected_ends(r, spec.senders.len()))
            .collect();
        for slot in 0..spec.plan.len() {
            let id = match spec.plan.role(slot) {
                Role::Host => {
                    if spec.senders.contains(&slot) {
                        let mut node =
                            PacedSenderNode::new(Vec::new(), spec.pacing, "iter-sender");
                        if spec.config.nack_recovery {
                            node.arm_replay();
                        }
                        sim.add_node(Box::new(node))
                    } else if !spec.reducers.contains(&slot) {
                        // A fabric host taking no part in the job: an
                        // inert NIC (plans are built in standard shapes,
                        // so a leaf may hold more hosts than the job
                        // uses).
                        sim.add_node(Box::new(IdleHost))
                    } else {
                        let r = spec
                            .reducers
                            .iter()
                            .position(|&s| s == slot)
                            .expect("checked above");
                        sim.add_node(Box::new(reducer_host(
                            &spec.config,
                            controller.agg_for(r),
                            &dep,
                            r,
                            slot,
                            &spec.senders,
                        )))
                    }
                }
                Role::Switch => sim.add_node(Box::new(
                    switches.remove(&slot).expect("controller built every switch"),
                )),
            };
            ids.push(id);
        }
        spec.plan.wire(&mut sim, &ids);
        // Fire every node's `on_start` now, so the first round's enqueue
        // finds the same steady state as every later round's.
        sim.run_until(Time::ZERO);

        let next_seq = vec![FnvHashMap::default(); spec.senders.len()];
        let active = vec![true; spec.senders.len()];
        Ok(IterativeRunner {
            spec,
            sim,
            deployment: dep,
            ids,
            next_seq,
            expected_per_round,
            active,
            round: 0,
        })
    }

    /// Runs one round: `shards[i][r]` is what sender `i` owes reducer
    /// `r`'s tree this round (an empty shard still ships its END — every
    /// rostered flow must close every round). Returns each reducer's
    /// aggregated round result, or an error naming the first reducer
    /// whose round could not be completed exactly (e.g. data lost beyond
    /// the NACK budget).
    pub fn run_round(&mut self, shards: &[Vec<Vec<Pair>>]) -> Result<IterRound, String> {
        assert_eq!(shards.len(), self.spec.senders.len(), "one shard list per sender");
        let snap_before = self.sim.snapshot();
        let stats_before: Vec<CollectorStats> = (0..self.spec.reducers.len())
            .map(|r| self.reducer(r).collector.stats())
            .collect();

        for (i, sender_shards) in shards.iter().enumerate() {
            assert_eq!(
                sender_shards.len(),
                self.spec.reducers.len(),
                "one shard per reducer per sender"
            );
            if !self.active[i] {
                // A departed worker owes the round nothing — but the
                // caller handing it data is a bug, not a no-op.
                if sender_shards.iter().any(|pairs| !pairs.is_empty()) {
                    return Err(format!(
                        "round {}: sender {i} is inactive but was handed a non-empty shard",
                        self.round
                    ));
                }
                continue;
            }
            let slot = self.spec.senders[i];
            let id = self.ids[slot];
            let parts = sender_shards.iter().enumerate().map(|(r, pairs)| {
                (
                    self.deployment.tree_id(r),
                    self.deployment.endpoints(slot, r),
                    pairs.clone(), // the signature borrows: the one copy
                )
            });
            // The interleave offset rotates with the round so no tree is
            // permanently first in every sender's transmit order.
            let offset = i.wrapping_add(self.round as usize);
            let round = plan_round(&self.spec.config, parts, &mut self.next_seq[i], offset);
            self.sim
                .node_mut::<PacedSenderNode>(id)
                .expect("sender slots hold PacedSenderNodes")
                .enqueue_round(round);
            // Restart the pacing chain (it ran dry at the last barrier).
            let at = self.sim.now() + self.spec.pacing;
            self.sim.schedule_timer(at, id, 0);
        }

        // The round barrier: run to quiescence. Every timer in the system
        // (pacing, NACK) disarms itself when it has nothing left to do,
        // so the queue drains exactly when no node owes the round
        // anything more.
        self.sim.run();

        let round = self.round;
        let mut per_reducer = Vec::with_capacity(self.spec.reducers.len());
        let mut reducer_stats = Vec::with_capacity(self.spec.reducers.len());
        for (r, stats_at_start) in stats_before.iter().enumerate() {
            let expected = self.expected_per_round[r];
            let slot = self.spec.reducers[r];
            let id = self.ids[slot];
            let node = self
                .sim
                .node_mut::<ReducerHost>(id)
                .expect("reducer slots hold ReducerHosts");
            let ends = node.collector.ends_seen();
            if ends != expected {
                return Err(format!(
                    "round {round}: reducer {r} saw {ends}/{expected} ENDs at quiescence \
                     (data lost beyond recovery)"
                ));
            }
            if !node.recovery_satisfied() {
                return Err(format!(
                    "round {round}: reducer {r} completed its ENDs but a flow still has \
                     gaps (NACK budget exhausted — the aggregate would be silently partial)"
                ));
            }
            per_reducer.push(node.take_round());
            reducer_stats.push(node.collector.stats().delta(stats_at_start));
        }

        // Round-barrier retirement: everything below each tree's next
        // free sequence number was delivered and acknowledged-by-silence
        // (every receiver satisfied), so hosts drop it.
        for (i, &slot) in self.spec.senders.iter().enumerate() {
            if !self.active[i] {
                continue;
            }
            let cutoffs: Vec<(u16, u32)> =
                self.next_seq[i].iter().map(|(&t, &s)| (t, s)).collect();
            let id = self.ids[slot];
            let node = self
                .sim
                .node_mut::<PacedSenderNode>(id)
                .expect("sender slots hold PacedSenderNodes");
            node.retire_round(&cutoffs);
        }

        self.round += 1;
        Ok(IterRound {
            round,
            per_reducer,
            reducer_stats,
            net: self.sim.snapshot().delta(&snap_before),
        })
    }

    /// Marks sender `i` (spec order) as present or departed. The roster
    /// change is **not live** until [`replan`](Self::replan) runs: the
    /// trees, switch child counters and reducer END expectations still
    /// describe the old roster, and a round run in between wedges exactly
    /// the way an unannounced worker departure wedges a real job.
    pub fn set_sender_active(&mut self, i: usize, active: bool) {
        self.active[i] = active;
    }

    /// Whether sender `i` is on the live roster.
    pub fn sender_active(&self, i: usize) -> bool {
        self.active[i]
    }

    /// Throttles sender `i`'s pacing by `factor` (1 = full speed) — the
    /// straggler knob. Takes effect from the sender's next timer tick;
    /// no re-plan is needed, a straggler is merely slow.
    pub fn set_sender_slowdown(&mut self, i: usize, factor: u32) {
        let id = self.ids[self.spec.senders[i]];
        self.sim
            .node_mut::<PacedSenderNode>(id)
            .expect("sender slots hold PacedSenderNodes")
            .set_slowdown(factor);
    }

    /// Arms NACK-driven pacing backoff on sender `i` (see
    /// [`PacedSenderNode::enable_nack_backoff`]).
    pub fn enable_sender_backoff(&mut self, i: usize) {
        let id = self.ids[self.spec.senders[i]];
        self.sim
            .node_mut::<PacedSenderNode>(id)
            .expect("sender slots hold PacedSenderNodes")
            .enable_nack_backoff();
    }

    /// Live re-plan around failures and roster changes, at a round
    /// barrier: rebuilds every aggregation tree over the **active**
    /// senders while routing around the `dead_switches` (plan slots),
    /// reconfigures every surviving switch in place (tables cleared and
    /// rebuilt, engine tree state reinstalled), and re-rosters every
    /// reducer (END expectations and NACK guards over the new children).
    ///
    /// The re-plan starts a fresh **epoch**: every per-tree sequence
    /// space — sender, switch egress, receiver tracker — restarts at 0,
    /// which is sound exactly because the previous round completed
    /// end-to-end (nothing in flight, nothing NACKable below the
    /// barrier). Dead switches are left untouched (they are down; a
    /// later re-plan that no longer lists them reconfigures them from
    /// scratch, which their power-cycled state requires anyway).
    ///
    /// Errors if a reducer is unreachable from an active sender with the
    /// dead switches removed (the fabric is partitioned), or if no
    /// sender is active.
    pub fn replan(&mut self, dead_switches: &[usize]) -> Result<(), String> {
        use crate::controller::{Controller, JobPlacement};

        let live_mappers: Vec<usize> = self
            .spec
            .senders
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.active[i])
            .map(|(_, &slot)| slot)
            .collect();
        if live_mappers.is_empty() {
            return Err("re-plan needs at least one active sender".into());
        }
        let controller = Controller::new(self.spec.config, self.spec.agg);
        let placement = JobPlacement {
            mappers: live_mappers.clone(),
            reducers: self.spec.reducers.clone(),
        };
        let trees = controller
            .replan_trees(&self.spec.plan, &placement, dead_switches)
            .map_err(|e| e.to_string())?;

        // Reconfigure every surviving switch in place.
        let switch_slots: Vec<usize> = self.spec.plan.switches();
        for slot in switch_slots {
            if dead_switches.contains(&slot) {
                continue;
            }
            let ext = *self
                .deployment
                .engine_externs
                .get(&slot)
                .ok_or_else(|| format!("switch {slot} has no registered engine"))?;
            let mode = self.deployment.mode;
            let id = self.ids[slot];
            let switch = self
                .sim
                .node_mut::<daiet_dataplane::Switch>(id)
                .ok_or_else(|| format!("slot {slot} does not hold a Switch"))?;
            controller
                .replan_switch(&self.spec.plan, &trees, dead_switches, slot, switch, ext, mode)
                .map_err(|e| e.to_string())?;
        }
        self.deployment.trees = trees;

        // Host-side epoch restart, reducers first: END expectations and
        // guard rosters over the new trees.
        self.expected_per_round = (0..self.spec.reducers.len())
            .map(|r| self.deployment.expected_ends(r, live_mappers.len()))
            .collect();
        let config = self.spec.config;
        for r in 0..self.spec.reducers.len() {
            let slot = self.spec.reducers[r];
            let sources = self.deployment.nack_sources(r, &live_mappers);
            let expected = self.expected_per_round[r];
            let id = self.ids[slot];
            let reducer = self
                .sim
                .node_mut::<ReducerHost>(id)
                .expect("reducer slots hold ReducerHosts");
            // Discard whatever a wedged round managed to deliver: the
            // epoch restart re-delivers that round in full from the
            // caller's re-submitted shards, so keeping partial pairs
            // would double-count them.
            let _ = reducer.take_round();
            reducer.reroster(slot as u32, &config, sources, expected);
        }

        // Senders: sequence spaces and replay retention restart at 0
        // (inactive ones included — if they rejoin later, they rejoin the
        // current epoch cleanly).
        for (i, &slot) in self.spec.senders.iter().enumerate() {
            self.next_seq[i].clear();
            let id = self.ids[slot];
            self.sim
                .node_mut::<PacedSenderNode>(id)
                .expect("sender slots hold PacedSenderNodes")
                .reset_epoch();
        }
        Ok(())
    }

    /// Rounds completed so far.
    pub fn rounds_run(&self) -> u64 {
        self.round
    }

    /// The deployment the controller computed.
    pub fn deployment(&self) -> &crate::controller::Deployment {
        &self.deployment
    }

    /// Node id of plan `slot`.
    pub fn node_id(&self, slot: usize) -> daiet_netsim::NodeId {
        self.ids[slot]
    }

    /// The underlying simulator (stats, engine introspection).
    pub fn sim(&self) -> &daiet_netsim::Simulator {
        &self.sim
    }

    /// Mutable simulator access — e.g. to script links before a round.
    pub fn sim_mut(&mut self) -> &mut daiet_netsim::Simulator {
        &mut self.sim
    }

    /// The reducer node for reducer index `r`.
    pub fn reducer(&self, r: usize) -> &ReducerHost {
        self.sim
            .node_ref::<ReducerHost>(self.ids[self.spec.reducers[r]])
            .expect("reducer slots hold ReducerHosts")
    }

    /// The sender node for sender index `i`.
    pub fn sender(&self, i: usize) -> &PacedSenderNode {
        self.sim
            .node_ref::<PacedSenderNode>(self.ids[self.spec.senders[i]])
            .expect("sender slots hold PacedSenderNodes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(s: &str) -> Key {
        Key::from_str_key(s).unwrap()
    }

    /// Two senders × two reducers × three rounds over a real star fabric:
    /// per-round results are exact and independent, sequence spaces carry
    /// across rounds, and host memory stays bounded by retirement.
    #[test]
    fn iterative_runner_runs_rounds_on_one_simulation() {
        use daiet_netsim::topology::TopologyPlan;
        let config = DaietConfig {
            register_cells: 256,
            nack_recovery: true,
            ..DaietConfig::default()
        }
        .with_rtx_sized_for_flush();
        let plan = TopologyPlan::star(4, daiet_netsim::LinkSpec::fast());
        let spec = IterativeSpec::new(config, plan, vec![0, 1], vec![2, 3]);
        let mut runner = IterativeRunner::build(spec).unwrap();
        for round in 0..3u32 {
            // Sender i ships ("w", round+1+i) to reducer 0's tree and a
            // round-unique key to reducer 1's tree.
            let shards: Vec<Vec<Vec<Pair>>> = (0..2u32)
                .map(|i| {
                    vec![
                        vec![Pair::new(key("w"), round + 1 + i)],
                        vec![Pair::new(key(&format!("r{round}")), 10 + i)],
                    ]
                })
                .collect();
            let out = runner.run_round(&shards).unwrap();
            assert_eq!(out.round, u64::from(round));
            // Reducer 0: the two senders' "w" values, switch-aggregated.
            assert_eq!(out.per_reducer[0], vec![(key("w"), 2 * round + 3)]);
            // Reducer 1: only this round's key — earlier rounds were
            // drained at their own barriers.
            assert_eq!(out.per_reducer[1], vec![(key(&format!("r{round}")), 21)]);
            // In-network: exactly one switch END per reducer per round.
            assert_eq!(out.reducer_stats[0].end_packets, 1);
            // Per-round net counters are deltas, not cumulative: the
            // reducers received a handful of frames, not the whole run.
            let rnode = runner.node_id(2);
            assert!(out.net.nodes[rnode.0].frames_in >= 2);
            assert!(out.net.nodes[rnode.0].frames_in < 10);
        }
        assert_eq!(runner.rounds_run(), 3);
        // Retirement bounded the host-side state: pacing queues drained,
        // replay retention empty (every round was fully acknowledged).
        for i in 0..2 {
            assert_eq!(runner.sender(i).pending(), 0);
            assert_eq!(runner.sender(i).replay_retained(), 0);
        }
        // Sequence spaces carried across rounds: round 2's frames were
        // not treated as replays of round 0's.
        assert_eq!(runner.reducer(0).duplicates_suppressed(), 0);
    }
}
