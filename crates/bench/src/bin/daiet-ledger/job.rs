//! The form every workload reduces to for the traced pass: rounds of
//! per-sender, per-tree pair shards under one DAIET configuration — plus
//! the star deployment and frame building the layer probes share.

use daiet::controller::{AggregationMode, Controller, Deployment, JobPlacement};
use daiet::tenant::{fold_round_digest, DIGEST_SEED};
use daiet::worker::Packetizer;
use daiet::{AggFn, DaietConfig};
use daiet_dataplane::{Resources, Switch};
use daiet_fabric::{Duration, Frame, FramePool};
use daiet_netsim::{LinkSpec, TopologyPlan};
use daiet_wire::daiet::{Key, Pair};
use daiet_wire::udp::DAIET_PORT;

/// One round of one job: `shards[sender][tree]`, tree `t` aggregating with
/// `aggs[t]`.
#[derive(Debug, Clone)]
pub struct Round {
    pub aggs: Vec<AggFn>,
    pub shards: Vec<Vec<Vec<Pair>>>,
}

impl Round {
    pub fn senders(&self) -> usize {
        self.shards.len()
    }

    pub fn trees(&self) -> usize {
        self.aggs.len()
    }

    pub fn pairs(&self) -> u64 {
        self.shards.iter().flatten().map(|s| s.len() as u64).sum()
    }

    /// The host-side reference: every tree's pairs folded with its
    /// aggregation function, sorted by key — what the network must deliver.
    pub fn reference(&self) -> Vec<Vec<(Key, u32)>> {
        (0..self.trees())
            .map(|t| {
                let mut merged = std::collections::BTreeMap::new();
                for sender in &self.shards {
                    for p in &sender[t] {
                        merged
                            .entry(p.key)
                            .and_modify(|v| *v = self.aggs[t].apply(*v, p.value))
                            .or_insert(p.value);
                    }
                }
                merged.into_iter().collect()
            })
            .collect()
    }
}

/// What runs a job, which decides what its wall time is made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// One job on the simulator through a workload runner.
    Simulator,
    /// Many tenants' jobs on the simulator through the scheduler.
    Scheduler,
    /// One job over loopback sockets, sleeping between frames.
    Sockets,
}

/// A workload's traffic as the layers see it.
#[derive(Debug, Clone)]
pub struct JobData {
    pub backend: Backend,
    pub config: DaietConfig,
    pub mode: AggregationMode,
    pub link: LinkSpec,
    pub pacing: Duration,
    pub seed: u64,
    pub rounds: Vec<Round>,
    /// How many times one job runs its rounds, each time under its own
    /// draw of the link faults (see [`draw_seed`]); 1 where links are clean.
    pub fault_draws: u64,
}

impl JobData {
    pub fn pairs(&self) -> u64 {
        self.rounds.iter().map(Round::pairs).sum::<u64>() * self.fault_draws
    }
}

/// The simulator seed of a job's `draw`-th fault draw. The first is the
/// run's own seed.
pub fn draw_seed(seed: u64, draw: u64) -> u64 {
    seed.wrapping_add(draw.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The digest of one job's per-round results, folded the way every
/// `TenantWorkload` folds its own.
pub fn digest_of(rounds: &[Vec<Vec<(Key, u32)>>]) -> u64 {
    rounds.iter().fold(DIGEST_SEED, |acc, per_tree| {
        fold_round_digest(acc, per_tree)
    })
}

/// One round deployed on the paper's star: senders on hosts `0..s`,
/// reducers on the next `t` hosts, one switch.
pub struct Star {
    pub plan: TopologyPlan,
    pub placement: JobPlacement,
    pub controller: Controller,
    pub deployment: Deployment,
    pub switch_slot: usize,
    pub switch: Switch,
}

impl Star {
    pub fn deploy(
        config: DaietConfig,
        link: LinkSpec,
        mode: AggregationMode,
        round: &Round,
    ) -> Star {
        let (s, t) = (round.senders(), round.trees());
        let plan = TopologyPlan::star(s + t, link);
        let placement = JobPlacement {
            mappers: (0..s).collect(),
            reducers: (s..s + t).collect(),
        };
        let controller = Controller::with_per_tree_agg(config, AggFn::Sum, round.aggs.clone());
        let (deployment, mut switches) = controller
            .deploy(&plan, &placement, Resources::tofino_like(), mode)
            .expect("every workload's deployment fits the chip");
        let switch_slot = plan.switches()[0];
        let switch = switches
            .remove(&switch_slot)
            .expect("the star has one switch");
        Star {
            plan,
            placement,
            controller,
            deployment,
            switch_slot,
            switch,
        }
    }

    /// The frames sender `m` transmits this round, one queue per tree, each
    /// numbered from `base_seq` and ending in its END.
    pub fn sender_frames(
        &self,
        round: &Round,
        m: usize,
        base_seq: u32,
        pool: &FramePool,
    ) -> Vec<Vec<Frame>> {
        let packetizer = Packetizer::new(&self.deployment.config);
        let slot = self.placement.mappers[m];
        round.shards[m]
            .iter()
            .enumerate()
            .map(|(t, pairs)| {
                packetizer
                    .frames_from_seq(
                        self.deployment.tree_id(t),
                        pairs,
                        &self.deployment.endpoints(slot, t),
                        DAIET_PORT,
                        base_seq,
                        pool,
                    )
                    .0
            })
            .collect()
    }
}

/// Each sender's transmit schedule: its per-tree queues interleaved
/// round-robin from its own offset, as `multi_tree_sender` orders them.
pub fn schedules(per_sender: &[Vec<Vec<Frame>>]) -> Vec<Vec<Frame>> {
    per_sender
        .iter()
        .enumerate()
        .map(|(m, trees)| daiet::worker::interleave_round_robin(trees.clone(), m))
        .collect()
}

/// Round-robin over the senders' schedules: roughly the order a switch sees
/// paced senders' frames arrive in. Yields `(sender, frame)`.
pub fn arrival_order(schedules: &[Vec<Frame>]) -> Vec<(usize, Frame)> {
    let longest = schedules.iter().map(Vec::len).max().unwrap_or(0);
    let mut out = Vec::with_capacity(schedules.iter().map(Vec::len).sum());
    for i in 0..longest {
        for (m, q) in schedules.iter().enumerate() {
            if let Some(f) = q.get(i) {
                out.push((m, f.clone()));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(s: &str) -> Key {
        Key::from_str_key(s).unwrap()
    }

    #[test]
    fn reference_folds_each_tree_with_its_own_function() {
        let round = Round {
            aggs: vec![AggFn::Sum, AggFn::Min],
            shards: vec![
                vec![
                    vec![Pair::new(key("b"), 2), Pair::new(key("a"), 1)],
                    vec![Pair::new(key("x"), 9)],
                ],
                vec![vec![Pair::new(key("b"), 5)], vec![Pair::new(key("x"), 4)]],
            ],
        };
        assert_eq!(round.pairs(), 5);
        assert_eq!(
            round.reference(),
            vec![vec![(key("a"), 1), (key("b"), 7)], vec![(key("x"), 4)]]
        );
        assert_ne!(digest_of(&[round.reference()]), DIGEST_SEED);
    }

    #[test]
    fn star_frames_end_with_an_end_and_arrival_order_keeps_them_all() {
        let round = Round {
            aggs: vec![AggFn::Sum],
            shards: vec![
                vec![(0..25)
                    .map(|i| Pair::new(key(&format!("k{i}")), 1))
                    .collect()],
                vec![vec![Pair::new(key("z"), 1)]],
            ],
        };
        let star = Star::deploy(
            DaietConfig {
                register_cells: 64,
                ..DaietConfig::default()
            },
            LinkSpec::fast(),
            AggregationMode::InNetwork,
            &round,
        );
        let pool = FramePool::new();
        let per_sender: Vec<_> = (0..2)
            .map(|m| star.sender_frames(&round, m, 0, &pool))
            .collect();
        assert_eq!(per_sender[0][0].len(), 4, "10 + 10 + 5 pairs, then END");
        assert_eq!(per_sender[1][0].len(), 2);
        let order = arrival_order(&schedules(&per_sender));
        assert_eq!(order.len(), 6);
        assert_eq!(order.iter().filter(|(m, _)| *m == 1).count(), 2);
    }
}
