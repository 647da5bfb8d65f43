//! Node-level chaos scenarios (ISSUE 7), each pinned by a failing-first
//! regression and a bit-identical completion proof:
//!
//! Each scenario is one job admitted on a `JobScheduler` and stepped
//! round by round with `run_round`.
//!
//! 1. **Switch failure with live tree re-route** — a spine dies mid-round
//!    with aggregation traffic in flight. Without re-planning the round
//!    wedges (the pinned regression); with `JobScheduler::replan` routing
//!    around the corpse, the same round's shards are re-submitted and
//!    every round of the job completes bit-identically to a fault-free
//!    run — including after the switch revives and a second re-plan folds
//!    it back in.
//! 2. **Worker stragglers and mid-job leave/join** — a throttled sender
//!    changes completion time but never results; a transient worker blip
//!    is absorbed by NACK recovery with no roster change; a *permanent*
//!    unannounced death wedges the round (the pinned regression) until a
//!    `replan` over the live senders redefines round completion over the
//!    live roster; a planned leave/rejoin cycles the roster both ways
//!    without losing a pair.
//! 3. **Queue-buildup backpressure** — tiny drop-tail queues under an
//!    aggressive pacing rate overflow (the pinned regression: overflow
//!    loss forces NACK recovery to carry the round); NACK-driven sender
//!    backoff sheds the overload, completing the same round with
//!    strictly less loss and identical results.
//!
//! The chaos seed comes from `CHAOS_SEED` (default 23) so CI can pin a
//! seed matrix without recompiling.

use daiet_repro::daiet::tenant::{JobId, JobRequest, JobScheduler, TenantSpec};
use daiet_repro::daiet::worker::{PacedSenderNode, ReducerHost};
use daiet_repro::daiet::{AggFn, DaietConfig};
use daiet_repro::netsim::topology::TopologyPlan;
use daiet_repro::netsim::{LinkSpec, NodeScript, SimDuration};
use daiet_repro::wire::daiet::{Key, Pair};
use proptest::prelude::*;

/// The pinned-seed knob the CI matrix turns.
fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(23)
}

fn recovery_config() -> DaietConfig {
    DaietConfig {
        register_cells: 256,
        nack_recovery: true,
        rtx_frames: 64,
        nack_timeout_ns: 20_000,
        ..DaietConfig::default()
    }
}

fn key(j: usize) -> Key {
    Key::from_str_key(&format!("k{j}")).unwrap()
}

/// Sender `i`'s shard for `round`: every sender ships the same keys so
/// the switches aggregate, with a value that encodes (sender, round) so a
/// lost or doubled contribution is arithmetically visible.
fn shard(i: usize, round: u64, keys: usize) -> Vec<Pair> {
    (0..keys)
        .map(|j| Pair::new(key(j), (i as u32 + 1) * 1000 + round as u32 * 10 + j as u32))
        .collect()
}

/// The reducer's exact expected output for `round` over `active` senders.
fn expected(active: &[usize], round: u64, keys: usize) -> Vec<(Key, u32)> {
    let mut out: Vec<(Key, u32)> = (0..keys)
        .map(|j| {
            let sum = active
                .iter()
                .map(|&i| (i as u32 + 1) * 1000 + round as u32 * 10 + j as u32)
                .sum();
            (key(j), sum)
        })
        .collect();
    // `take_round` drains a map ordered by `Key`'s lexicographic `Ord`.
    out.sort_by_key(|a| a.0);
    out
}

const KEYS: usize = 25;

/// Admits one job leasing every sender and reducer slot of `spec`:
/// job-local sender `i` is `spec.sender_slots[i]`.
fn one_job(spec: TenantSpec) -> (JobScheduler, JobId) {
    let senders = spec.sender_slots.len();
    let mut sched = JobScheduler::build(spec).expect("fabric must build");
    let job = sched
        .admit(JobRequest { label: "scenario".into(), senders, aggs: vec![AggFn::Sum] })
        .expect("one job fits an empty fabric");
    (sched, job)
}

/// The wedge signature: `collect_round` found ENDs missing at quiescence.
fn is_wedge(err: &str) -> bool {
    err.contains("ENDs (short")
}

// ---------------------------------------------------------------------
// Scenario 1: switch failure with live tree re-route.
// ---------------------------------------------------------------------

/// leaf_spine(2,2,2): hosts 0-3 (0,1 under leaf 4; 2,3 under leaf 5),
/// spines 6-7. Senders 0,1; reducer 3. The tree crosses exactly one
/// spine — the one we kill.
fn spine_job() -> (JobScheduler, JobId) {
    let plan = TopologyPlan::leaf_spine(2, 2, 2, LinkSpec::fast());
    let mut spec = TenantSpec::new(recovery_config(), plan, vec![0, 1], vec![3]);
    spec.seed = chaos_seed();
    one_job(spec)
}

/// The single spine on the job's tree, given the plan's first spine slot.
fn tree_spine(sched: &JobScheduler, job: JobId, first_spine: usize) -> usize {
    let spines: Vec<usize> = sched.job_trees(job).expect("admitted")[0]
        .switches()
        .filter(|&s| s >= first_spine)
        .collect();
    assert_eq!(spines.len(), 1, "one spine carries the cross-leaf branch");
    spines[0]
}

/// Failing-first: a spine death mid-round, with no re-plan, must wedge
/// the round loudly (ENDs missing at quiescence) — never complete with
/// partial sums.
#[test]
fn switch_death_without_replan_wedges_the_round() {
    let (mut sched, job) = spine_job();
    let r0 = sched
        .run_round(job, &[vec![shard(0, 0, KEYS)], vec![shard(1, 0, KEYS)]])
        .expect("fault-free round 0");
    assert_eq!(r0[0], expected(&[0, 1], 0, KEYS));

    let spine = tree_spine(&sched, job, 6);
    let kill = sched.now() + SimDuration::from_micros(2);
    let spine_node = sched.node_id(spine);
    sched.sim_mut().script_node(spine_node, NodeScript::kill_at(kill));

    let err = sched
        .run_round(job, &[vec![shard(0, 1, KEYS)], vec![shard(1, 1, KEYS)]])
        .expect_err("a dead spine with no re-plan must wedge the round");
    assert!(is_wedge(&err), "the wedge must surface as missing ENDs, got: {err}");
    // The corpse really ate frames (the failure is node-level, not
    // link-level), and quiescence was reached (no hang).
    let snap = sched.sim().snapshot();
    assert!(snap.dead_drops() > 0, "no frame ever hit the dead switch");
}

/// The tentpole: spine dies mid-round → round wedges → the scheduler
/// re-plans around the corpse → the same shards are re-submitted and
/// every round completes **bit-identically to a fault-free run**; after
/// the spine revives, a second re-plan folds it back into the tree and
/// the job keeps matching the reference.
#[test]
fn switch_death_with_live_replan_completes_bit_identically() {
    const ROUNDS: u64 = 6;
    // Fault-free reference outputs, one per round.
    let reference: Vec<Vec<(Key, u32)>> =
        (0..ROUNDS).map(|r| expected(&[0, 1], r, KEYS)).collect();

    let (mut sched, job) = spine_job();
    let mut got: Vec<Vec<(Key, u32)>> = Vec::new();
    let run = |sched: &mut JobScheduler, r: u64| {
        sched.run_round(job, &[vec![shard(0, r, KEYS)], vec![shard(1, r, KEYS)]])
    };

    got.push(run(&mut sched, 0).expect("round 0").remove(0));

    // Kill the tree's spine mid-round-1, reviving it much later.
    let spine = tree_spine(&sched, job, 6);
    let kill = sched.now() + SimDuration::from_micros(2);
    let revive = kill + SimDuration::from_micros(500);
    let spine_node = sched.node_id(spine);
    sched.sim_mut().script_node(spine_node, NodeScript::down_between(kill, revive));
    run(&mut sched, 1).expect_err("round 1 wedges against the corpse");

    // Live re-plan around the dead spine; re-submit the SAME round.
    sched.replan(job, &[0, 1], &[spine]).expect("a second spine exists — re-route must succeed");
    assert!(
        !sched.job_trees(job).unwrap()[0].switches().any(|s| s == spine),
        "the re-planned tree must avoid the corpse"
    );
    for r in [1, 2, 3] {
        got.push(run(&mut sched, r).expect("re-routed round").remove(0));
    }

    // The spine is back up by now; fold it back in. Its power-cycled
    // engine is reconfigured from scratch.
    assert!(sched.now() > revive, "rounds 1-3 outlast the downtime");
    sched.replan(job, &[0, 1], &[]).expect("full-fabric re-plan");
    assert_eq!(
        tree_spine(&sched, job, 6),
        spine,
        "deterministic paths put the revived spine back on the tree"
    );
    for r in [4, 5] {
        got.push(run(&mut sched, r).expect("restored round").remove(0));
    }

    assert_eq!(got.len() as u64, ROUNDS);
    for (r, (g, want)) in got.iter().zip(reference.iter()).enumerate() {
        assert_eq!(g, want, "round {r} diverged from the fault-free reference");
    }
}

// ---------------------------------------------------------------------
// Scenario 2: worker stragglers and mid-job leave/join.
// ---------------------------------------------------------------------

/// leaf_spine(3,2,1): hosts 0-5 (0,1,2 under leaf 6; 3,4,5 under leaf 7),
/// spine 8. Senders 0,1,3 (job-local 0,1,2); reducer 5.
fn roster_job() -> (JobScheduler, JobId) {
    let plan = TopologyPlan::leaf_spine(3, 2, 1, LinkSpec::fast());
    // 4-pair frames turn each 25-key shard into 7 DATA frames + END over
    // 8 us of pacing, so a kill 2 us into the round is genuinely
    // mid-stream (not a knife-edge race with the final END timer). The
    // rtx ring must then cover a full 256-cell flush (65 frames).
    let config = DaietConfig { pairs_per_packet: 4, rtx_frames: 128, ..recovery_config() };
    let mut spec = TenantSpec::new(config, plan, vec![0, 1, 3], vec![5]);
    spec.seed = chaos_seed();
    one_job(spec)
}

/// Shard values are keyed by *plan slot* (0, 1, 3), matching `expected`.
fn roster_shards(round: u64, active: &[bool]) -> Vec<Vec<Vec<Pair>>> {
    [0usize, 1, 3]
        .iter()
        .enumerate()
        .map(|(i, &slot)| vec![if active[i] { shard(slot, round, KEYS) } else { Vec::new() }])
        .collect()
}

/// A straggler is merely slow: throttling one sender 16× must change
/// completion time and nothing else.
#[test]
fn straggler_throttle_slows_the_round_but_never_changes_results() {
    let (mut fast, fast_job) = roster_job();
    let (mut slow, slow_job) = roster_job();
    let straggler = slow.node_id(0);
    slow.sim_mut()
        .node_mut::<PacedSenderNode>(straggler)
        .expect("sender slot")
        .set_slowdown(16);
    for r in 0..3 {
        let all = [true, true, true];
        let a = fast.run_round(fast_job, &roster_shards(r, &all)).expect("full-speed round");
        let b = slow.run_round(slow_job, &roster_shards(r, &all)).expect("straggling round");
        assert_eq!(a, b, "round {r}: a straggler changed the math");
        assert_eq!(a[0], expected(&[0, 1, 3], r, KEYS));
    }
    assert!(slow.now() > fast.now(), "a 16x straggler must dominate the round barrier");
}

/// Failing-first: a *permanent* unannounced worker death mid-round
/// wedges the round — its END never arrives and recovery cannot conjure
/// it from a host that stays dead past the whole NACK budget. Re-planning
/// over the live senders then redefines round completion over the live
/// roster and the job continues without the corpse.
#[test]
fn worker_death_without_roster_change_wedges_the_round() {
    let (mut sched, job) = roster_job();
    let all = [true, true, true];
    let without_1 = [true, false, true];
    sched.run_round(job, &roster_shards(0, &all)).expect("fault-free round 0");

    // Kill sender 1's host (plan slot 1) mid-round, permanently.
    let kill = sched.now() + SimDuration::from_micros(2);
    let host = sched.node_id(1);
    sched.sim_mut().script_node(host, NodeScript::kill_at(kill));
    let err = sched
        .run_round(job, &roster_shards(1, &all))
        .expect_err("a silently-dead worker must wedge the round");
    assert!(is_wedge(&err), "got: {err}");

    // Announce the departure: round completion is redefined over the
    // live roster and the same round is re-run without the corpse.
    sched.replan(job, &[0, 2], &[]).expect("re-plan over the reduced roster");
    for r in [1, 2] {
        let out = sched
            .run_round(job, &roster_shards(r, &without_1))
            .expect("reduced-roster round")
            .remove(0);
        assert_eq!(out, expected(&[0, 3], r, KEYS), "round {r} over the live roster");
    }
}

/// The counterpoint to the wedge: an outage *shorter than the NACK
/// budget* needs no roster change at all — the switch keeps NACKing the
/// silent flow, the revived worker resumes its own pacing where it
/// stopped (its replay retention answers NACKs for what it had already
/// transmitted), and the round completes late but exact.
#[test]
fn transient_worker_blip_is_absorbed_by_recovery() {
    let (mut sched, job) = roster_job();
    let all = [true, true, true];
    sched.run_round(job, &roster_shards(0, &all)).expect("fault-free round 0");
    let round0_done = sched.now();

    let kill = sched.now() + SimDuration::from_micros(2);
    let revive = kill + SimDuration::from_micros(300);
    let host = sched.node_id(1);
    sched.sim_mut().script_node(host, NodeScript::down_between(kill, revive));
    let out = sched
        .run_round(job, &roster_shards(1, &all))
        .expect("recovery must absorb a transient blip without a re-plan");
    assert_eq!(out[0], expected(&[0, 1, 3], 1, KEYS), "late but exact");
    assert!(sched.now() > revive, "the round barrier must have waited out the outage");
    assert!(sched.sim().snapshot().dead_drops() > 0, "the outage never actually bit");
    // No lingering damage: the next round is fault-free and exact.
    let next = sched.run_round(job, &roster_shards(2, &all)).expect("round after the blip");
    assert_eq!(next[0], expected(&[0, 1, 3], 2, KEYS));
    assert!(
        sched.now() - round0_done < SimDuration::from_millis(50),
        "absorbing a blip must not burn the whole NACK give-up horizon"
    );
}

/// A worker blip needs no recovery at all to come out exact: with NACK
/// recovery off and an outage that outlasts the whole round many times
/// over, the revived sender simply resumes its pacing and the round
/// completes late.
#[test]
fn worker_blip_without_recovery_resumes_and_completes() {
    let plan = TopologyPlan::leaf_spine(3, 2, 1, LinkSpec::fast());
    let config = DaietConfig { pairs_per_packet: 4, register_cells: 256, ..DaietConfig::default() };
    let mut spec = TenantSpec::new(config, plan, vec![0, 1, 3], vec![5]);
    spec.seed = chaos_seed();
    let (mut sched, job) = one_job(spec);
    let all = [true, true, true];
    sched.run_round(job, &roster_shards(0, &all)).expect("fault-free round 0");

    let kill = sched.now() + SimDuration::from_micros(2);
    let revive = kill + SimDuration::from_millis(2);
    let host = sched.node_id(1);
    sched.sim_mut().script_node(host, NodeScript::down_between(kill, revive));
    let out = sched
        .run_round(job, &roster_shards(1, &all))
        .expect("a revived sender must finish its round on its own");
    assert_eq!(out[0], expected(&[0, 1, 3], 1, KEYS), "late but exact");
    assert!(sched.now() > revive, "the round cannot finish while a sender is down");
    let next = sched.run_round(job, &roster_shards(2, &all)).expect("round after the blip");
    assert_eq!(next[0], expected(&[0, 1, 3], 2, KEYS));
}

/// Planned maintenance: the worker leaves and rejoins *announced*, with
/// a re-plan at each roster change. Round completion is redefined over
/// the live roster both ways and every pair lands exactly once.
#[test]
fn worker_leave_and_rejoin_with_replan_stays_exact() {
    let (mut sched, job) = roster_job();
    let all = [true, true, true];
    let without_1 = [true, false, true];

    let out0 = sched.run_round(job, &roster_shards(0, &all)).expect("round 0").remove(0);
    assert_eq!(out0, expected(&[0, 1, 3], 0, KEYS));

    // Sender 1 leaves at the barrier; rounds 1-2 run over [0, 3].
    sched.replan(job, &[0, 2], &[]).expect("re-plan over the reduced roster");
    for r in [1, 2] {
        let out = sched
            .run_round(job, &roster_shards(r, &without_1))
            .expect("reduced-roster round")
            .remove(0);
        assert_eq!(out, expected(&[0, 3], r, KEYS), "round {r} over the live roster");
    }

    // It rejoins at the next barrier; rounds 3-4 include it again.
    sched.replan(job, &[0, 1, 2], &[]).expect("re-plan over the restored roster");
    for r in [3, 4] {
        let out = sched
            .run_round(job, &roster_shards(r, &all))
            .expect("restored-roster round")
            .remove(0);
        assert_eq!(out, expected(&[0, 1, 3], r, KEYS), "round {r} after rejoin");
    }
}

// ---------------------------------------------------------------------
// Scenario 3: queue-buildup backpressure.
// ---------------------------------------------------------------------

/// star(3): hosts 0,1 (senders), 2 (reducer), switch 3 — with tiny
/// drop-tail queues and pacing fast enough to overflow the reducer-ward
/// egress queue.
fn overload_job(backoff: bool) -> (JobScheduler, JobId) {
    // Gigabit links so serialization (~1 µs/frame) dwarfs the 100 ns
    // pacing gap: the sender's egress queue is the bottleneck, which is
    // the path a pacing response can actually relieve.
    let spec_link = LinkSpec::gigabit().with_queue_bytes(2048);
    let plan = TopologyPlan::star(3, spec_link);
    // 4-pair frames make the 1200-key shard 300 DATA frames + END; at
    // 500 ns pacing the round transmits for ~150 us, so the first NACK
    // (20 us timeout) lands while most of the stream is still pending —
    // the window where a pacing response can actually matter. Replay
    // retention must hold the whole round (301 frames) per sender, and
    // the rtx ring a full 256-cell flush (65 frames).
    let config = DaietConfig { pairs_per_packet: 4, rtx_frames: 512, ..recovery_config() };
    let mut spec = TenantSpec::new(config, plan, vec![0, 1], vec![2]);
    spec.seed = chaos_seed();
    spec.pacing = SimDuration::from_nanos(500);
    let (mut sched, job) = one_job(spec);
    if backoff {
        for slot in [0, 1] {
            let id = sched.node_id(slot);
            sched
                .sim_mut()
                .node_mut::<PacedSenderNode>(id)
                .expect("sender slot")
                .enable_nack_backoff();
        }
    }
    (sched, job)
}

const OVERLOAD_KEYS: usize = 1200;

/// Failing-first: at this rate the queues overflow, and only
/// NACK recovery carries the round — the pinned cost of an open-loop
/// sender under overload.
#[test]
fn queue_buildup_overflows_and_forces_recovery() {
    let (mut sched, job) = overload_job(false);
    let out = sched
        .run_round(job, &[vec![shard(0, 0, OVERLOAD_KEYS)], vec![shard(1, 0, OVERLOAD_KEYS)]])
        .expect("recovery must carry the overload");
    assert_eq!(out[0], expected(&[0, 1], 0, OVERLOAD_KEYS));
    // The fabric ran this one round only: its counters are the round's.
    let net = sched.sim().snapshot();
    assert!(net.overflow_drops() > 0, "the tiny queues never overflowed — overload proved nothing");
    let reducer = sched.sim().node_ref::<ReducerHost>(sched.node_id(2)).expect("reducer slot");
    let sender = sched.sim().node_ref::<PacedSenderNode>(sched.node_id(0)).expect("sender slot");
    assert!(
        reducer.nacks_emitted() > 0 || sender.nacks_received > 0,
        "overflow loss must have been repaired through the NACK path"
    );
}

/// The response: NACK-driven pacing backoff sheds the overload — same
/// round, same results, strictly fewer overflow drops.
#[test]
fn nack_backoff_sheds_overload_with_identical_results() {
    let (mut open_loop, a_job) = overload_job(false);
    let (mut closed_loop, b_job) = overload_job(true);
    let shards = [vec![shard(0, 0, OVERLOAD_KEYS)], vec![shard(1, 0, OVERLOAD_KEYS)]];
    let a = open_loop.run_round(a_job, &shards).expect("open-loop round");
    let b = closed_loop.run_round(b_job, &shards).expect("backed-off round");
    assert_eq!(a, b, "backoff changed the math");
    let (a_drops, b_drops) = (
        open_loop.sim().snapshot().overflow_drops(),
        closed_loop.sim().snapshot().overflow_drops(),
    );
    assert!(
        b_drops < a_drops,
        "backoff must shed load: {a_drops} drops open-loop vs {b_drops} with backoff"
    );
}

// ---------------------------------------------------------------------
// Property: arbitrary spine-outage schedules against arbitrary fabrics.
// ---------------------------------------------------------------------

const PROP_KEYS: usize = 10;
const PROP_ROUNDS: u64 = 3;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For ANY outage schedule of the tree's spine — kill lands before,
    /// during or after any round; the outage lasts 1 µs to 1.5 ms — and
    /// either two-leaf fabric, the job completes bit-identically to a
    /// fault-free run: rounds the recovery plane absorbs match outright,
    /// and rounds that wedge match after one re-plan + re-submit.
    /// Driven from the pinned `PROPTEST_RNG_SEED` / `CHAOS_SEED` pair.
    #[test]
    fn any_spine_outage_schedule_completes_bit_identically(
        kill_us in 0u64..12,
        down_us in 1u64..1500,
        wide in any::<bool>(),
    ) {
        // Both fabrics keep a second spine so a re-route always exists.
        let (plan, senders, reducer, first_spine) = if wide {
            (TopologyPlan::leaf_spine(3, 2, 2, LinkSpec::fast()), vec![0, 1, 4], 5, 8)
        } else {
            (TopologyPlan::leaf_spine(2, 2, 2, LinkSpec::fast()), vec![0, 1], 3, 6)
        };
        let shards_for = |r: u64| -> Vec<Vec<Vec<Pair>>> {
            senders.iter().map(|&i| vec![shard(i, r, PROP_KEYS)]).collect()
        };
        let all: Vec<usize> = (0..senders.len()).collect();
        let mut spec = TenantSpec::new(recovery_config(), plan, senders.clone(), vec![reducer]);
        spec.seed = chaos_seed();
        let (mut sched, job) = one_job(spec);

        let out0 = sched.run_round(job, &shards_for(0)).expect("fault-free round 0");
        prop_assert_eq!(&out0[0], &expected(&senders, 0, PROP_KEYS));

        let spine = tree_spine(&sched, job, first_spine);
        let kill = sched.now() + SimDuration::from_micros(kill_us);
        let revive = kill + SimDuration::from_micros(down_us);
        let node = sched.node_id(spine);
        sched.sim_mut().script_node(node, NodeScript::down_between(kill, revive));

        for r in 1..PROP_ROUNDS {
            let out = match sched.run_round(job, &shards_for(r)) {
                Ok(out) => out,
                Err(err) => {
                    prop_assert!(is_wedge(&err), "unexpected wedge: {}", err);
                    sched.replan(job, &all, &[spine]).expect("the second spine must carry the tree");
                    sched.run_round(job, &shards_for(r)).expect("re-routed re-submit")
                }
            };
            prop_assert_eq!(&out[0], &expected(&senders, r, PROP_KEYS), "round {}", r);
        }
    }
}
