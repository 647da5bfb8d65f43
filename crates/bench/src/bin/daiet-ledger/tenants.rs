//! The tenant mix: its fabric, its three kinds of tenant, the decorator the
//! traced pass wraps them in, and a solo driver that times the scheduler's
//! own calls.

use crate::host;
use crate::job::Round;
use crate::simrun::{self, InSitu};
use daiet::tenant::{
    poisson_offsets, run_mix, JobRequest, JobScheduler, MixOptions, MixOutcome, TenantSpec,
    TenantWorkload,
};
use daiet::worker::ReducerHost;
use daiet::{AggFn, DaietConfig};
use daiet_fabric::Duration;
use daiet_mapreduce::{CorpusSpec, WordCountTenant};
use daiet_mlsim::data::DataSpec;
use daiet_mlsim::SgdTenant;
use daiet_netsim::{LinkSpec, NodeId, TopologyPlan};
use daiet_querysim::{Aggregate, GroupByTenant, Query, Table, TableSpec};
use daiet_wire::daiet::{Key, Pair};
use std::cell::RefCell;
use std::rc::Rc;

/// Tenant kinds, named after the crate that implements each.
pub const KINDS: [&str; 3] = ["mapreduce", "querysim", "mlsim"];

/// The mix's sizes.
#[derive(Debug, Clone, Copy)]
pub struct MixShape {
    pub jobs_per_kind: usize,
    pub wc_words: usize,
    pub gb_rows: usize,
    pub sgd_steps: u64,
    pub sgd_samples: usize,
    pub register_cells: usize,
    /// Mean gap of the Poisson arrivals. Arrivals come faster than jobs
    /// finish, so the fabric stays saturated and the makespan follows the
    /// work, not the arrival draw.
    pub mean_arrival_gap: Duration,
}

impl MixShape {
    pub const FULL: MixShape = MixShape {
        jobs_per_kind: 4,
        wc_words: 6144,
        gb_rows: 4096,
        sgd_steps: 20,
        sgd_samples: 960,
        register_cells: 4096,
        mean_arrival_gap: Duration::from_micros(40),
    };

    pub const SMOKE: MixShape = MixShape {
        jobs_per_kind: 2,
        wc_words: 96,
        gb_rows: 48,
        sgd_steps: 2,
        sgd_samples: 48,
        register_cells: 256,
        mean_arrival_gap: Duration::from_micros(2),
    };
}

const WC_MAPPERS: usize = 6;
const WC_REDUCERS: usize = 3;
const GB_WORKERS: usize = 4;
const SGD_WORKERS: usize = 3;
const SGD_BATCH: usize = 16;

/// The shared fabric: 24 hosts on four leaves under two spines, 16 of them
/// leasable as senders and 8 as reducers. One tenant of each kind fits at
/// once (13 senders, 7 reducers); the next WordCount does not, so with
/// twelve arrivals some admissions are refused and retried.
pub fn fabric(shape: &MixShape, seed: u64) -> TenantSpec {
    let link = LinkSpec::fast().with_queue_bytes(4 * 1024 * 1024);
    let plan = TopologyPlan::leaf_spine(6, 4, 2, link);
    let hosts = plan.hosts();
    let config = DaietConfig {
        register_cells: shape.register_cells,
        ..DaietConfig::default()
    };
    let mut spec = TenantSpec::new(config, plan, hosts[..16].to_vec(), hosts[16..].to_vec());
    spec.seed = seed;
    spec.partitions = 1;
    spec
}

/// The arrival schedule is part of the workload, drawn once: the tenants'
/// data follow `--seed`, their arrival times do not. Redrawing the arrivals
/// per seed decides anew which job wins each freed slot, and with it the
/// shape of the trees: probing saw the makespan move by 4 % and the frames
/// at the reducers by 3 % between seeds, against under 1 % with the schedule
/// held.
const ARRIVAL_SEED: u64 = 1;

/// A per-tenant seed: distinct inputs per job, all derived from the run's.
fn tenant_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index as u64 + 1)
}

pub fn wordcount_spec(shape: &MixShape, seed: u64) -> CorpusSpec {
    CorpusSpec {
        n_mappers: WC_MAPPERS,
        n_reducers: WC_REDUCERS,
        mean_multiplicity: 3.5,
        sd_multiplicity: 1.0,
        register_cells: shape.register_cells,
        ..CorpusSpec::paper_scaled(shape.wc_words, seed)
    }
}

pub fn wordcount(shape: &MixShape, seed: u64) -> WordCountTenant {
    WordCountTenant::new(&wordcount_spec(shape, seed))
}

pub fn groupby(shape: &MixShape, seed: u64) -> GroupByTenant {
    let table = Table::generate(&TableSpec {
        n_workers: GB_WORKERS,
        rows_per_worker: shape.gb_rows,
        n_groups: (shape.gb_rows / 8).max(4),
        n_columns: 3,
        zipf_s: 1.05,
        max_value: 1000,
        seed,
    });
    let query = Query::new(vec![
        Aggregate::Count,
        Aggregate::Sum(0),
        Aggregate::Min(1),
        Aggregate::Avg(0),
    ]);
    GroupByTenant::new(table, query).expect("the select list names columns 0 and 1 of 3")
}

pub fn sgd(shape: &MixShape, seed: u64) -> SgdTenant {
    let data = DataSpec {
        n: shape.sgd_samples,
        mean_active: 60,
        seed,
    };
    SgdTenant::new(SGD_WORKERS, SGD_BATCH, shape.sgd_steps, 0.1, data)
}

/// What the decorator records, shared by every tenant of one run.
#[derive(Default)]
pub struct Tally {
    pub pairs: u64,
    pub shards_ns: [f64; 3],
    pub absorb_verify_ns: [f64; 3],
    /// Every round's shards in the order the scheduler asked for them, kept
    /// only when `capture` is set (the layer probes replay them).
    pub rounds: Vec<Round>,
    pub capture: bool,
}

pub type SharedTally = Rc<RefCell<Tally>>;

/// The timing decorator: a `TenantWorkload` around a `TenantWorkload`
/// that times the tenant's own compute and counts the pairs it submits.
pub struct Probed {
    inner: Box<dyn TenantWorkload>,
    kind: usize,
    tally: SharedTally,
}

impl Probed {
    pub fn new(inner: Box<dyn TenantWorkload>, kind: usize, tally: &SharedTally) -> Probed {
        Probed {
            inner,
            kind,
            tally: tally.clone(),
        }
    }
}

impl TenantWorkload for Probed {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn senders(&self) -> usize {
        self.inner.senders()
    }

    fn aggs(&self) -> Vec<AggFn> {
        self.inner.aggs()
    }

    fn rounds(&self) -> u64 {
        self.inner.rounds()
    }

    fn shards(&mut self, round: u64) -> Vec<Vec<Vec<Pair>>> {
        let start = host::now();
        let shards = self.inner.shards(round);
        let ns = host::secs_since(start) * 1e9;
        let mut tally = self.tally.borrow_mut();
        tally.shards_ns[self.kind] += ns;
        tally.pairs += shards.iter().flatten().map(|s| s.len() as u64).sum::<u64>();
        if tally.capture {
            tally.rounds.push(Round {
                aggs: self.inner.aggs(),
                shards: shards.clone(),
            });
        }
        shards
    }

    fn absorb(&mut self, round: u64, per_tree: Vec<Vec<(Key, u32)>>) {
        let start = host::now();
        self.inner.absorb(round, per_tree);
        self.tally.borrow_mut().absorb_verify_ns[self.kind] += host::secs_since(start) * 1e9;
    }

    fn digest(&self) -> u64 {
        self.inner.digest()
    }

    fn verify(&self) -> Result<(), String> {
        let start = host::now();
        let verdict = self.inner.verify();
        self.tally.borrow_mut().absorb_verify_ns[self.kind] += host::secs_since(start) * 1e9;
        verdict
    }
}

/// The inputs of one mix, generated once: WordCount and GROUP BY tenants
/// are cloned into each rep. `SgdTenant` is not `Clone`, so each rep builds
/// its own from the same seeds (a 960-sample synthetic set).
pub struct MixInputs {
    pub shape: MixShape,
    pub seed: u64,
    wordcounts: Vec<WordCountTenant>,
    groupbys: Vec<GroupByTenant>,
    offsets: Vec<Duration>,
}

impl MixInputs {
    pub fn generate(shape: MixShape, seed: u64) -> MixInputs {
        let n = shape.jobs_per_kind;
        MixInputs {
            shape,
            seed,
            wordcounts: (0..n)
                .map(|i| wordcount(&shape, tenant_seed(seed, 3 * i)))
                .collect(),
            groupbys: (0..n)
                .map(|i| groupby(&shape, tenant_seed(seed, 3 * i + 1)))
                .collect(),
            offsets: poisson_offsets(ARRIVAL_SEED, shape.mean_arrival_gap, 3 * n),
        }
    }

    /// The arrival list, kinds interleaved, each tenant wrapped in the
    /// decorator when a tally is given.
    pub fn arrivals(
        &self,
        tally: Option<&SharedTally>,
    ) -> Vec<(Duration, Box<dyn TenantWorkload>)> {
        let mut out: Vec<(Duration, Box<dyn TenantWorkload>)> = Vec::new();
        for i in 0..self.shape.jobs_per_kind {
            let tenants: [Box<dyn TenantWorkload>; 3] = [
                Box::new(self.wordcounts[i].clone()),
                Box::new(self.groupbys[i].clone()),
                Box::new(sgd(&self.shape, tenant_seed(self.seed, 3 * i + 2))),
            ];
            for (kind, tenant) in tenants.into_iter().enumerate() {
                let tenant: Box<dyn TenantWorkload> = match tally {
                    Some(t) => Box::new(Probed::new(tenant, kind, t)),
                    None => tenant,
                };
                out.push((self.offsets[out.len()], tenant));
            }
        }
        out
    }

    /// One job of `kind` on its own, for the solo scheduler timings.
    pub fn solo(&self, kind: usize) -> Box<dyn TenantWorkload> {
        match kind {
            0 => Box::new(self.wordcounts[0].clone()),
            1 => Box::new(self.groupbys[0].clone()),
            _ => Box::new(sgd(&self.shape, tenant_seed(self.seed, 2))),
        }
    }
}

/// One whole mix on a fresh fabric. `run_mix` verifies every tenant
/// against its host-side reference and fails the run if one differs.
pub fn run(
    inputs: &MixInputs,
    tally: Option<&SharedTally>,
) -> Result<(MixOutcome, JobScheduler), String> {
    let mut sched =
        JobScheduler::build(fabric(&inputs.shape, inputs.seed)).map_err(|e| e.to_string())?;
    let out = run_mix(&mut sched, inputs.arrivals(tally), &MixOptions::default())?;
    Ok((out, sched))
}

/// One digest for the whole mix: the jobs' digests folded in arrival order.
pub fn mix_digest(out: &MixOutcome) -> u64 {
    out.jobs.iter().fold(0xcbf2_9ce4_8422_2325u64, |acc, j| {
        (acc ^ j.digest).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Reads the finished mix's fabric the way `simrun::run_star` reads a star.
pub fn in_situ(out: &MixOutcome, sched: &JobScheduler) -> InSitu {
    let spec = sched.spec();
    let mut got = InSitu {
        events: sched.sim().events_processed(),
        sim_done_ns: out.makespan.as_nanos(),
        quiescent_ns: out.makespan.as_nanos(),
        pool: sched.sim().pool().stats(),
        pacing_ns: spec.pacing.as_nanos(),
        complete: true,
        jobs: out.jobs.len() as u64,
        rounds: out.jobs.iter().map(|j| j.rounds).sum(),
        rejections: out.jobs.iter().map(|j| u64::from(j.rejections)).sum(),
        ..InSitu::default()
    };
    got.read_links(&out.net);
    for slot in spec.plan.switches() {
        simrun::add_switch_stats(&mut got.switch, &sched.switch(slot).stats());
        simrun::add_engine_stats(&mut got.engine, &sched.engine(slot).stats());
        got.engine_dups += sched.engine(slot).duplicates_suppressed();
    }
    for &slot in spec.sender_slots.iter().chain(&spec.reducer_slots) {
        simrun::read_host(sched.sim(), sched.node_id(slot), &mut got);
    }
    got
}

/// Frames delivered to the reducer pool's NICs during the mix, and the
/// application bytes its collectors took in.
pub fn reducer_intake(out: &MixOutcome, sched: &JobScheduler) -> (u64, u64) {
    let ids: Vec<NodeId> = sched
        .spec()
        .reducer_slots
        .iter()
        .map(|&slot| sched.node_id(slot))
        .collect();
    let app_bytes = ids
        .iter()
        .filter_map(|&id| sched.sim().node_ref::<ReducerHost>(id))
        .map(|r| r.collector.stats().app_bytes)
        .sum();
    (out.net.nodes_total(&ids).frames_in, app_bytes)
}

/// Microseconds each scheduler call took, one sample per call.
#[derive(Debug, Default)]
pub struct SchedTimes {
    pub build_us: Vec<f64>,
    pub admit_us: Vec<f64>,
    pub begin_round_us: Vec<f64>,
    pub collect_round_us: Vec<f64>,
    pub depart_us: Vec<f64>,
}

fn timed_us<R>(samples: &mut Vec<f64>, f: impl FnOnce() -> R) -> R {
    let start = host::now();
    let r = f();
    samples.push(host::secs_since(start) * 1e6);
    r
}

/// Drives `wl` alone on an empty fabric through the scheduler's round API,
/// timing every call, and verifies it. Returns the workload's digest.
pub fn drive_solo(
    spec: TenantSpec,
    wl: &mut dyn TenantWorkload,
    times: &mut SchedTimes,
) -> Result<u64, String> {
    let opts = MixOptions::default();
    let mut sched =
        timed_us(&mut times.build_us, || JobScheduler::build(spec)).map_err(|e| e.to_string())?;
    let request = JobRequest {
        label: wl.label(),
        senders: wl.senders(),
        aggs: wl.aggs(),
    };
    let job = timed_us(&mut times.admit_us, || sched.admit(request)).map_err(|e| e.to_string())?;
    let give_up = sched.now() + opts.deadline;
    for round in 0..wl.rounds() {
        let shards = wl.shards(round);
        timed_us(&mut times.begin_round_us, || {
            sched.begin_round(job, &shards)
        })?;
        while !sched.round_done(job)? {
            if sched.now() > give_up {
                return Err(format!("{}: round {round} never completed", wl.label()));
            }
            sched.step(opts.poll);
        }
        let per_tree = timed_us(&mut times.collect_round_us, || sched.collect_round(job))?;
        wl.absorb(round, per_tree);
    }
    wl.verify()?;
    timed_us(&mut times.depart_us, || sched.depart(job))?;
    Ok(wl.digest())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_mix_is_refused_at_least_once_and_repeats_exactly() {
        let inputs = MixInputs::generate(MixShape::SMOKE, 9);
        let tally = SharedTally::default();
        let (a, sched_a) = run(&inputs, Some(&tally)).expect("mix completes");
        let (b, sched_b) = run(&inputs, None).expect("mix completes");
        assert_eq!(a.jobs.len(), 6);
        assert!(
            a.jobs.iter().map(|j| j.rejections).sum::<u32>() >= 1,
            "pool never filled"
        );
        assert_eq!(mix_digest(&a), mix_digest(&b));
        assert_eq!(
            a.makespan, b.makespan,
            "the decorator must not change simulated time"
        );
        assert_eq!(reducer_intake(&a, &sched_a), reducer_intake(&b, &sched_b));
        let t = tally.borrow();
        assert!(t.pairs > 0 && t.rounds.is_empty());
        assert!(t.shards_ns.iter().all(|&ns| ns > 0.0));
        let got = in_situ(&a, &sched_a);
        assert_eq!(
            (got.reducer_frames, got.reducer_app_bytes),
            reducer_intake(&a, &sched_a)
        );
        assert_eq!((got.jobs, got.rejections >= 1), (6, true));
        assert!(
            got.engine.pairs_in >= t.pairs,
            "every submitted pair reaches a first-hop engine"
        );
        assert_eq!(got.fault_drops + got.overflow_drops, 0);
    }

    #[test]
    fn solo_drive_matches_the_tenant_in_the_mix() {
        let inputs = MixInputs::generate(MixShape::SMOKE, 9);
        let (mix, _) = run(&inputs, None).expect("mix completes");
        let mut times = SchedTimes::default();
        for (kind, name) in KINDS.iter().enumerate() {
            let mut wl = inputs.solo(kind);
            let digest = drive_solo(fabric(&inputs.shape, inputs.seed), wl.as_mut(), &mut times)
                .expect("solo run verifies");
            assert_eq!(
                digest, mix.jobs[kind].digest,
                "{name}: solo and mixed results differ"
            );
        }
        assert_eq!(times.build_us.len(), 3);
        assert_eq!(
            times.begin_round_us.len(),
            1 + 1 + MixShape::SMOKE.sgd_steps as usize
        );
        assert_eq!(times.collect_round_us.len(), times.begin_round_us.len());
    }
}
