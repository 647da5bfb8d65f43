//! Multi-tenant isolation properties (ISSUE 9).
//!
//! The central claim of the multi-tenant control plane: the fabric is
//! *perfectly* shared. An admitted job's results are a function of its
//! own inputs only — never of who else is streaming, in which order jobs
//! arrived, or whether chaos is dropping frames underneath. Concretely:
//!
//! 1. **Solo/mixed bit-identity** (property) — for an arbitrary mix of
//!    WordCount, GROUP BY and iterative-SGD jobs, an arbitrary arrival
//!    order and an arbitrary seed, every job's result digest in the mix
//!    equals the digest of the same job run alone on an empty fabric.
//! 2. **Chaos does not pierce isolation** — the same three-way mix under
//!    k = 1 NACK recovery with lossy, duplicating, reordering links
//!    still reproduces every clean solo digest bit-for-bit.
//! 3. **Admission exhaustion** (regression) — filling switch SRAM to the
//!    budget deterministically rejects the next job with
//!    `DeployError::Resources`, leaves zero partial switch state, and a
//!    departure later makes the same request admissible. Across switches
//!    too: a refusal after some switches already hold the job's tree
//!    rolls every one of them back.
//! 4. **Teardown under traffic** (regression, pinned failing-first) — a
//!    naive teardown that wipes shared steering state disconnects a
//!    neighbor's in-flight round (END overshoot, detected loudly); the
//!    real `depart` frees the job's `daiet.*@switch` reservations while
//!    the neighbor's NACK recovery completes its round exactly.
//! 5. **Re-planning under traffic** — `replan` swaps one job's trees by
//!    name while a neighbor is mid-round under loss; the neighbor's
//!    switch state is untouched and both jobs stay exact.
//!
//! The arrival seed comes from `TENANT_SEED` (default 11) so CI can pin
//! a seed matrix without recompiling.

use daiet_repro::daiet::controller::{DeployError, STEER_TABLE};
use daiet_repro::daiet::tenant::{
    poisson_offsets, run_mix, run_solo, JobId, JobRequest, JobScheduler, JobUsage, MixOptions,
    TenantSpec, TenantWorkload,
};
use daiet_repro::daiet::{AggFn, AggregationTree, DaietConfig};
use daiet_repro::dataplane::parser::{parse, ParserConfig};
use daiet_repro::dataplane::pipeline::{ActionSpec, PacketCtx};
use daiet_repro::dataplane::resources::Allocation;
use daiet_repro::dataplane::{Resources, Switch};
use daiet_repro::fabric::{Duration, Frame, PortId};
use daiet_repro::wire::daiet::{Header, PacketFlags};
use daiet_repro::wire::stack::{build_daiet_into, Endpoints};
use daiet_repro::wire::udp::DAIET_PORT;
use daiet_repro::mapreduce::WordCountTenant;
use daiet_repro::mlsim::SgdTenant;
use daiet_repro::netsim::{FaultProfile, LinkSpec, TopologyPlan};
use daiet_repro::querysim::GroupByTenant;
use daiet_repro::wire::daiet::{Key, Pair};
use proptest::prelude::*;

/// The pinned-seed knob the CI matrix turns.
fn tenant_seed() -> u64 {
    std::env::var("TENANT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(11)
}

/// The three workload types the mix draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    WordCount,
    GroupBy,
    Sgd,
}

const ALL_KINDS: [Kind; 3] = [Kind::WordCount, Kind::GroupBy, Kind::Sgd];

/// Per-arrival workload seed: distinct per position so two jobs of the
/// same kind in one mix are still distinct jobs.
fn job_seed(seed: u64, idx: usize) -> u64 {
    seed.wrapping_add(101 * idx as u64)
}

/// A fresh workload instance; solo and mixed runs construct their own
/// copies from the same `(kind, seed)` so their inputs are identical.
fn make(kind: Kind, seed: u64) -> Box<dyn TenantWorkload> {
    match kind {
        Kind::WordCount => Box::new(WordCountTenant::tiny(seed)),
        Kind::GroupBy => Box::new(GroupByTenant::tiny(seed.wrapping_add(1))),
        Kind::Sgd => Box::new(SgdTenant::tiny(seed.wrapping_add(2))),
    }
}

/// A leaf-spine fabric big enough to hold all three tiny workloads
/// concurrently (11 senders + 6 reducers at peak).
fn fabric_sched(config: DaietConfig, link: LinkSpec) -> JobScheduler {
    let plan = TopologyPlan::leaf_spine(5, 4, 2, link);
    let hosts = plan.hosts();
    let senders = hosts[..12].to_vec();
    let reducers = hosts[12..18].to_vec();
    JobScheduler::build(TenantSpec::new(config, plan, senders, reducers))
        .expect("tenant fabric must build")
}

fn clean_link() -> LinkSpec {
    LinkSpec::fast().with_queue_bytes(4 * 1024 * 1024)
}

fn recovery_config() -> DaietConfig {
    DaietConfig {
        register_cells: 1024,
        nack_recovery: true,
        nack_timeout_ns: 20_000,
        ..DaietConfig::default()
    }
    .with_rtx_sized_for_flush()
}

/// Solo baseline: `kind` alone on an empty fabric.
fn solo_digest(kind: Kind, seed: u64, config: &DaietConfig) -> u64 {
    let mut sched = fabric_sched(*config, clean_link());
    let out = run_solo(&mut sched, make(kind, seed), &MixOptions::default())
        .expect("solo run must complete");
    out.digest
}

/// Runs `kinds` (in order) as Poisson arrivals over one shared fabric
/// and returns each job's digest, in arrival order.
fn mix_digests(
    kinds: &[Kind],
    seed: u64,
    config: &DaietConfig,
    link: LinkSpec,
) -> Vec<u64> {
    let mut sched = fabric_sched(*config, link);
    let offsets = poisson_offsets(seed, Duration::from_micros(30), kinds.len());
    let arrivals: Vec<(Duration, Box<dyn TenantWorkload>)> = kinds
        .iter()
        .enumerate()
        .zip(&offsets)
        .map(|((i, &k), &off)| (off, make(k, job_seed(seed, i))))
        .collect();
    let out = run_mix(&mut sched, arrivals, &MixOptions::default())
        .expect("mixed run must complete");
    assert_eq!(out.jobs.len(), kinds.len(), "every arrival must finish");
    out.jobs.iter().map(|j| j.digest).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Property 1: arbitrary (job mix, arrival order, seed) — every
    /// admitted job's result is bit-identical to the same job run solo
    /// on an empty fabric. The mix is a multiset (the same workload type
    /// may arrive twice) and its vector order is the arrival order.
    #[test]
    fn mixed_jobs_are_bit_identical_to_solo_runs(
        mix in prop::collection::vec(prop::sample::select(&ALL_KINDS), 1..=3usize),
        seed_off in 0u64..1000,
    ) {
        let seed = tenant_seed().wrapping_add(seed_off);
        let config = DaietConfig::default();
        let solo: Vec<u64> = mix
            .iter()
            .enumerate()
            .map(|(i, &k)| solo_digest(k, job_seed(seed, i), &config))
            .collect();
        let mixed = mix_digests(&mix, seed, &config, clean_link());
        prop_assert_eq!(&mixed, &solo, "digest divergence for mix {:?}", mix);
    }
}

/// Property 2: the full three-way mix under k = 1 chaos (drops,
/// duplicates, reordering on every link, NACK recovery armed) still
/// reproduces the clean solo digests.
#[test]
fn chaos_does_not_pierce_tenant_isolation() {
    let seed = tenant_seed();
    let config = recovery_config();
    let chaos = clean_link().with_faults(FaultProfile::chaos(0.02, 0.01, 0.05, 2_000));
    let solo: Vec<u64> = ALL_KINDS
        .iter()
        .enumerate()
        .map(|(i, &k)| solo_digest(k, job_seed(seed, i), &config))
        .collect();
    let mixed = mix_digests(&ALL_KINDS, seed, &config, chaos);
    assert_eq!(mixed, solo, "chaos digest divergence");
}

/// A tiny-chip fabric where each tree's registers fill most of one SRAM
/// stage: two single-tree jobs fit, the third hits the budget.
fn tiny_chip_sched() -> JobScheduler {
    let plan = TopologyPlan::star(8, LinkSpec::fast());
    // Small frames: the tiny chip's parser window is 128 bytes.
    let config =
        DaietConfig { register_cells: 2048, pairs_per_packet: 3, ..DaietConfig::default() };
    let mut spec = TenantSpec::new(config, plan, vec![0, 1, 2], vec![3, 4, 5, 6, 7]);
    spec.resources = Resources::tiny();
    JobScheduler::build(spec).expect("tiny-chip fabric must build")
}

fn one_tree_job(label: &str) -> JobRequest {
    JobRequest { label: label.into(), senders: 1, aggs: vec![AggFn::Sum] }
}

/// Regression 3: deterministic `DeployError::Resources` at the SRAM
/// budget, zero partial state after the failed admit, and
/// admissibility restored by a departure.
#[test]
fn sram_exhaustion_rejects_cleanly_and_recovers_on_departure() {
    let mut sched = tiny_chip_sched();
    let a = sched.admit(one_tree_job("a")).expect("first tree fits");
    let _b = sched.admit(one_tree_job("b")).expect("second tree fits");

    let allocs_before = sched.switch(8).pipeline().tracker().allocations().to_vec();
    let used_before = sched.switch(8).pipeline().tracker().total_used();
    let trees_before = sched.engine(8).tree_count();
    let free_before = sched.free_hosts();

    let err = sched.admit(one_tree_job("c")).expect_err("third tree must not fit");
    assert!(
        matches!(err, DeployError::Resources(_)),
        "expected a resource rejection, got: {err}"
    );

    // Zero partial state: the tracker, engine and host pools are
    // bit-identical to their pre-admission snapshots.
    assert_eq!(sched.switch(8).pipeline().tracker().allocations(), allocs_before.as_slice());
    assert_eq!(sched.switch(8).pipeline().tracker().total_used(), used_before);
    assert_eq!(sched.engine(8).tree_count(), trees_before);
    assert_eq!(sched.free_hosts(), free_before);

    // A departure frees exactly one tree's worth of SRAM; the same
    // request is now admissible.
    sched.depart(a).expect("departing a closed job");
    sched.admit(one_tree_job("c")).expect("freed SRAM re-admits the same job");
}

/// What a rolled-back admission must leave unchanged on the switch at
/// `slot`: its allocation list, steering-table length and engine tree
/// count.
fn switch_state(sched: &mut JobScheduler, slot: usize) -> (Vec<Allocation>, usize, usize) {
    let trees = sched.engine(slot).tree_count();
    let id = sched.node_id(slot);
    let switch = sched.sim_mut().node_mut::<Switch>(id).expect("switch slot");
    let steer = switch.pipeline_mut().table_mut(STEER_TABLE).len();
    (switch.pipeline().tracker().allocations().to_vec(), steer, trees)
}

/// Regression 3, across switches: an admission refused after it has
/// already installed on some switches rolls every switch back. The tree
/// crosses leaf 4, leaf 5 and a spine, installed in that order; with
/// both spines' SRAM taken, the refusal comes at the spine, after both
/// leaves hold the tree.
#[test]
fn cross_switch_admission_rolls_back_every_switch() {
    // leaf_spine(2,2,2): hosts 0-3, leaves 4-5, spines 6-7.
    let plan = TopologyPlan::leaf_spine(2, 2, 2, LinkSpec::fast());
    let tree = AggregationTree::build(&plan, 0, 3, &[0, 1]).expect("tree");
    let crossed: Vec<usize> = tree.switches().collect();
    assert_eq!(crossed[..2], [4, 5], "both leaves are installed first");
    assert!(crossed.len() == 3 && crossed[2] >= 6, "then a spine: {crossed:?}");

    let spec = TenantSpec::new(DaietConfig::default(), plan, vec![0, 1], vec![3]);
    let mut sched = JobScheduler::build(spec).expect("leaf-spine fabric must build");
    for spine in [6, 7] {
        let id = sched.node_id(spine);
        let switch = sched.sim_mut().node_mut::<Switch>(id).expect("switch slot");
        let t = switch.pipeline_mut().tracker_mut();
        for stage in 2..t.resources().stages {
            let free = t.resources().sram_per_stage - t.used_in_stage(stage);
            t.allocate("filler", stage, free).expect("fill the stage");
        }
    }
    let before: Vec<_> = (4..8).map(|sw| switch_state(&mut sched, sw)).collect();
    let free_before = sched.free_hosts();

    let req = JobRequest { label: "a".into(), senders: 2, aggs: vec![AggFn::Sum] };
    let err = sched.admit(req.clone()).expect_err("no spine has room");
    assert!(matches!(err, DeployError::Resources(_)), "expected a resource rejection, got: {err}");
    let after: Vec<_> = (4..8).map(|sw| switch_state(&mut sched, sw)).collect();
    assert_eq!(after, before, "a switch kept part of the refused job");
    assert_eq!(sched.free_hosts(), free_before);

    for spine in [6, 7] {
        let id = sched.node_id(spine);
        let switch = sched.sim_mut().node_mut::<Switch>(id).expect("switch slot");
        switch.pipeline_mut().tracker_mut().free("filler");
    }
    sched.admit(req).expect("with the spines freed, the same request is admitted");
}

fn key(s: &str) -> Key {
    Key::from_str_key(s).unwrap()
}

/// Sets up the teardown scenario: jobs A and B admitted on one lossy
/// star switch with NACK recovery armed, B's round already launched
/// with frames in flight. Returns the scheduler, A, B, and B's shards.
type TeardownRig = (JobScheduler, JobId, JobId);

fn teardown_rig() -> (TeardownRig, Vec<Vec<Vec<Pair>>>) {
    let plan = TopologyPlan::star(
        8,
        LinkSpec::fast().with_faults(FaultProfile::chaos(0.05, 0.0, 0.0, 0)),
    );
    let spec = TenantSpec::new(recovery_config(), plan, vec![0, 1, 2, 3], vec![4, 5, 6, 7]);
    let mut sched = JobScheduler::build(spec).expect("star fabric must build");
    let a = sched
        .admit(JobRequest { label: "a".into(), senders: 2, aggs: vec![AggFn::Sum] })
        .expect("admit a");
    let b = sched
        .admit(JobRequest { label: "b".into(), senders: 2, aggs: vec![AggFn::Sum] })
        .expect("admit b");
    let b_shards: Vec<Vec<Vec<Pair>>> = (0..2)
        .map(|i| vec![(0..8).map(|j| Pair::new(key(&format!("k{j}")), 1 + i)).collect()])
        .collect();
    sched.begin_round(b, &b_shards).expect("open B's round");
    ((sched, a, b), b_shards)
}

/// B's exact round result in the teardown rig: 8 keys, each summed over
/// both senders.
fn b_result() -> Vec<Vec<(Key, u32)>> {
    let mut v: Vec<(Key, u32)> = (0..8).map(|j| (key(&format!("k{j}")), 3)).collect();
    v.sort();
    vec![v]
}

fn drive(sched: &mut JobScheduler, job: JobId) -> Result<bool, String> {
    for _ in 0..20_000 {
        if sched.round_done(job)? {
            return Ok(true);
        }
        sched.step(Duration::from_micros(25));
    }
    Ok(false)
}

/// The deliberately wrong teardown regression 4 pins against: clear the
/// whole steering table of every switch `job` crossed (wipe-and-rebuild
/// without the rebuild), then `depart`. Its own bookkeeping matches the
/// real teardown; what it breaks is every neighbor steered through those
/// tables.
fn naive_depart(sched: &mut JobScheduler, job: JobId) -> Result<JobUsage, String> {
    let crossed: Vec<usize> = sched
        .job_trees(job)
        .ok_or_else(|| format!("{job} is not admitted"))?
        .iter()
        .flat_map(AggregationTree::switches)
        .collect();
    for sw in crossed {
        let id = sched.node_id(sw);
        let switch = sched.sim_mut().node_mut::<Switch>(id).expect("switch slot");
        switch.pipeline_mut().table_mut(STEER_TABLE).clear();
    }
    sched.depart(job)
}

/// Regression 4, pinned failing-first: the naive teardown (wipe the
/// whole steering table at the departing job's switches — the
/// wipe-and-rebuild idiom without the rebuild) disconnects neighbor B's
/// in-flight round from aggregation. B's raw mapper frames leak
/// straight to its reducer, which sees more END markers than the tree
/// has children — the loud signature `round_done` turns into an error.
#[test]
fn naive_teardown_breaks_the_neighbors_round() {
    let ((mut sched, a, b), _) = teardown_rig();
    naive_depart(&mut sched, a).expect("naive teardown of a closed job");
    let failed = match drive(&mut sched, b) {
        Err(why) => {
            assert!(
                why.contains("foreign") || why.contains("leak"),
                "expected the END-overshoot signature, got: {why}"
            );
            true
        }
        // Depending on loss timing the round may wedge instead of
        // overshooting; either way it must NOT complete exactly.
        Ok(done) => !done,
    };
    assert!(failed, "naive teardown must not let B's round complete exactly");
}

/// Regression 4, fixed half: the real `depart` frees A's
/// `daiet.*@switch` reservations, ring and roster state while B's
/// in-flight NACK recovery completes its round exactly.
#[test]
fn proper_teardown_preserves_the_neighbors_recovery() {
    let ((mut sched, a, b), _) = teardown_rig();
    // Let frames (and losses, and NACKs) get into flight first.
    for _ in 0..4 {
        sched.step(Duration::from_micros(25));
    }
    let usage = sched.depart(a).expect("departing a closed job mid-B-round");
    assert_eq!(usage.rounds, 0, "A never ran a round");

    // A's per-tree reservations are gone from the shared switch; the
    // fabric-lifetime reliability SRAM stays.
    let names: Vec<String> = sched
        .switch(8)
        .pipeline()
        .tracker()
        .allocations()
        .iter()
        .map(|alloc| alloc.name.clone())
        .collect();
    let tree_regs = names.iter().filter(|n| n.starts_with("daiet.tree[")).count();
    let rtx_regs = names.iter().filter(|n| n.starts_with("daiet.rtx[")).count();
    assert_eq!(tree_regs, 1, "only B's tree registers remain: {names:?}");
    assert_eq!(rtx_regs, 1, "only B's retransmit ring remains: {names:?}");
    assert!(
        names.iter().any(|n| n.starts_with("daiet.nack@")),
        "shared reliability SRAM must survive teardown: {names:?}"
    );

    // B's round completes exactly despite the loss it is recovering from.
    assert!(drive(&mut sched, b).expect("B's round must stay healthy"), "B wedged");
    assert_eq!(sched.collect_round(b).expect("B collects exactly"), b_result());
    sched.depart(b).expect("B departs cleanly");
    assert_eq!(sched.flow_demand_at(8), 0, "gap-tracker rosters drained");
}

/// The steering action the shared star switch (slot 8) applies to tree
/// `tid`'s frames, read by looking up a DAIET END for that tree.
fn steer_action(sched: &mut JobScheduler, tid: u16) -> ActionSpec {
    let mut buf = Vec::new();
    let hdr = Header::end(tid, PacketFlags::empty(), 0);
    build_daiet_into(&mut buf, &Endpoints::from_ids(0, 4), DAIET_PORT, &hdr, &[]);
    let parsed = parse(Frame::from_slice(&buf), &ParserConfig::default()).expect("valid frame");
    let id = sched.node_id(8);
    let switch = sched.sim_mut().node_mut::<Switch>(id).expect("switch slot");
    switch.pipeline_mut().table_mut(STEER_TABLE).lookup(&PacketCtx::new(PortId(0), parsed))
}

/// Re-planning one tenant leaves its neighbor alone: A re-plans down to
/// one live sender while B is mid-round under loss. B's steering rule,
/// engine tree and `daiet.tree[..]`/`daiet.rtx[..]` reservations on the
/// shared switch are unchanged, B's round completes exactly, and A's
/// next round runs exactly over its one live sender (and refuses data
/// for the one it dropped).
#[test]
fn replanning_one_tenant_leaves_the_neighbor_untouched() {
    let ((mut sched, a, b), _) = teardown_rig();
    for _ in 0..4 {
        sched.step(Duration::from_micros(25));
    }
    let b_tid = sched.job_trees(b).unwrap()[0].tree_id;
    let b_state = |sched: &mut JobScheduler| {
        let e = sched.engine(8);
        let tree = (e.rtx_stats(b_tid), e.remaining_children(b_tid), e.pairs_held(b_tid));
        let tag = format!("[{b_tid}]@");
        let allocs: Vec<_> = sched
            .switch(8)
            .pipeline()
            .tracker()
            .allocations()
            .iter()
            .filter(|alloc| alloc.name.contains(&tag))
            .map(|alloc| (alloc.name.clone(), alloc.stage, alloc.bytes))
            .collect();
        (steer_action(sched, b_tid), tree, allocs)
    };
    let before = b_state(&mut sched);
    assert!(matches!(before.0, ActionSpec::Invoke { .. }), "B is steered into the engine");
    assert_eq!(before.2.len(), 2, "B holds its registers and its ring: {:?}", before.2);

    sched.replan(a, &[0], &[]).expect("re-plan A over its first sender");
    assert_eq!(b_state(&mut sched), before, "A's re-plan touched B's switch state");

    assert!(drive(&mut sched, b).expect("B's round must stay healthy"), "B wedged");
    assert_eq!(sched.collect_round(b).expect("B collects exactly"), b_result());

    let dropped = vec![vec![Pair::new(key("x"), 1)]];
    let err = sched
        .begin_round(a, &[vec![vec![Pair::new(key("x"), 5)]], dropped])
        .expect_err("a sender outside the roster owes nothing");
    assert!(err.contains("inactive"), "got: {err}");
    sched.begin_round(a, &[vec![vec![Pair::new(key("x"), 5)]], vec![Vec::new()]]).unwrap();
    assert!(drive(&mut sched, a).expect("A's round must stay healthy"), "A wedged");
    assert_eq!(sched.collect_round(a).unwrap(), vec![vec![(key("x"), 5)]]);
}
