//! Node-level chaos scenarios (ISSUE 7), each pinned by a failing-first
//! regression and a bit-identical completion proof:
//!
//! 1. **Switch failure with live tree re-route** — a spine dies mid-round
//!    with aggregation traffic in flight. Without controller re-planning
//!    the round wedges (the pinned regression); with
//!    `IterativeRunner::replan` routing around the corpse, the same
//!    round's shards are re-submitted and every round of the job
//!    completes bit-identically to a fault-free run — including after the
//!    switch revives and a second re-plan folds it back in.
//! 2. **Worker stragglers and mid-job leave/join** — a throttled sender
//!    changes completion time but never results; a transient worker blip
//!    is absorbed by NACK recovery with no roster change; a *permanent*
//!    unannounced death wedges the round (the pinned regression) until
//!    the departure is announced (`set_sender_active` + `replan`), which
//!    redefines round completion over the live roster; a planned
//!    leave/rejoin cycles the roster both ways without losing a pair.
//! 3. **Queue-buildup backpressure** — tiny drop-tail queues under an
//!    aggressive pacing rate overflow and CE-mark (the pinned
//!    regression: overflow loss forces NACK recovery to carry the
//!    round); NACK-driven sender backoff sheds the overload, completing
//!    the same round with strictly less loss and identical results.
//!
//! The chaos seed comes from `CHAOS_SEED` (default 23) so CI can pin a
//! seed matrix without recompiling.

use daiet_repro::daiet::worker::{IterativeRunner, IterativeSpec};
use daiet_repro::daiet::DaietConfig;
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

// ---------------------------------------------------------------------
// Scenario 1: switch failure with live tree re-route.
// ---------------------------------------------------------------------

/// leaf_spine(2,2,2): hosts 0-3 (0,1 under leaf 4; 2,3 under leaf 5),
/// spines 6-7. Senders 0,1; reducer 3. The tree crosses exactly one
/// spine — the one we kill.
fn spine_runner() -> IterativeRunner {
    let plan = TopologyPlan::leaf_spine(2, 2, 2, LinkSpec::fast());
    let mut spec = IterativeSpec::new(recovery_config(), plan, vec![0, 1], vec![3]);
    spec.seed = chaos_seed();
    IterativeRunner::build(spec).unwrap()
}

fn tree_spine(runner: &IterativeRunner) -> usize {
    tree_spine_from(runner, 6)
}

/// The single spine on tree 0, given the plan's first spine slot.
fn tree_spine_from(runner: &IterativeRunner, first_spine: usize) -> usize {
    let spines: Vec<usize> =
        runner.deployment().trees[0].switches().filter(|&s| s >= first_spine).collect();
    assert_eq!(spines.len(), 1, "one spine carries the cross-leaf branch");
    spines[0]
}

/// Failing-first: a spine death mid-round, with no re-plan, must wedge
/// the round loudly (ENDs missing at quiescence) — never complete with
/// partial sums.
#[test]
fn switch_death_without_replan_wedges_the_round() {
    let mut runner = spine_runner();
    let r0 = runner
        .run_round(&[vec![shard(0, 0, KEYS)], vec![shard(1, 0, KEYS)]])
        .expect("fault-free round 0");
    assert_eq!(r0.per_reducer[0], expected(&[0, 1], 0, KEYS));

    let spine = tree_spine(&runner);
    let kill = runner.sim().now() + SimDuration::from_micros(2);
    let spine_node = runner.node_id(spine);
    runner.sim_mut().script_node(spine_node, NodeScript::kill_at(kill));

    let err = runner
        .run_round(&[vec![shard(0, 1, KEYS)], vec![shard(1, 1, KEYS)]])
        .expect_err("a dead spine with no re-plan must wedge the round");
    assert!(
        err.contains("ENDs at quiescence"),
        "the wedge must surface as missing ENDs, got: {err}"
    );
    // The corpse really ate frames (the failure is node-level, not
    // link-level), and quiescence was reached (no hang).
    let snap = runner.sim().snapshot();
    assert!(snap.dead_drops() > 0, "no frame ever hit the dead switch");
}

/// The tentpole: spine dies mid-round → round wedges → controller
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

    let mut runner = spine_runner();
    let mut got: Vec<Vec<(Key, u32)>> = Vec::new();
    let run = |runner: &mut IterativeRunner, r: u64| {
        runner.run_round(&[vec![shard(0, r, KEYS)], vec![shard(1, r, KEYS)]])
    };

    got.push(run(&mut runner, 0).expect("round 0").per_reducer.remove(0));

    // Kill the tree's spine mid-round-1, reviving it much later.
    let spine = tree_spine(&runner);
    let kill = runner.sim().now() + SimDuration::from_micros(2);
    let revive = kill + SimDuration::from_micros(500);
    let spine_node = runner.node_id(spine);
    runner.sim_mut().script_node(spine_node, NodeScript::down_between(kill, revive));
    run(&mut runner, 1).expect_err("round 1 wedges against the corpse");

    // Live re-plan around the dead spine; re-submit the SAME round.
    runner.replan(&[spine]).expect("a second spine exists — re-route must succeed");
    assert!(
        !runner.deployment().trees[0].switches().any(|s| s == spine),
        "the re-planned tree must avoid the corpse"
    );
    for r in [1, 2, 3] {
        got.push(run(&mut runner, r).expect("re-routed round").per_reducer.remove(0));
    }

    // The spine is back up by now; fold it back in. Its power-cycled
    // engine and stale tables are reconfigured from scratch.
    assert!(runner.sim().now() > revive, "rounds 1-3 outlast the downtime");
    runner.replan(&[]).expect("full-fabric re-plan");
    assert_eq!(
        tree_spine(&runner),
        spine,
        "deterministic paths put the revived spine back on the tree"
    );
    for r in [4, 5] {
        got.push(run(&mut runner, r).expect("restored round").per_reducer.remove(0));
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
/// spine 8. Senders 0,1,3; reducer 5.
fn roster_runner() -> IterativeRunner {
    let plan = TopologyPlan::leaf_spine(3, 2, 1, LinkSpec::fast());
    // 4-pair frames turn each 25-key shard into 7 DATA frames + END over
    // 8 us of pacing, so a kill 2 us into the round is genuinely
    // mid-stream (not a knife-edge race with the final END timer). The
    // rtx ring must then cover a full 256-cell flush (65 frames).
    let config = DaietConfig { pairs_per_packet: 4, rtx_frames: 128, ..recovery_config() };
    let mut spec = IterativeSpec::new(config, plan, vec![0, 1, 3], vec![5]);
    spec.seed = chaos_seed();
    IterativeRunner::build(spec).unwrap()
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
    let mut fast = roster_runner();
    let mut slow = roster_runner();
    slow.set_sender_slowdown(0, 16);
    for r in 0..3 {
        let all = [true, true, true];
        let a = fast.run_round(&roster_shards(r, &all)).expect("full-speed round");
        let b = slow.run_round(&roster_shards(r, &all)).expect("straggling round");
        assert_eq!(a.per_reducer, b.per_reducer, "round {r}: a straggler changed the math");
        assert_eq!(a.per_reducer[0], expected(&[0, 1, 3], r, KEYS));
    }
    assert!(
        slow.sim().now() > fast.sim().now(),
        "a 16x straggler must dominate the round barrier"
    );
}

/// Failing-first: a *permanent* unannounced worker death mid-round
/// wedges the round — its END never arrives and recovery cannot conjure
/// it from a host that stays dead past the whole NACK budget. Announcing
/// the departure and re-planning then redefines round completion over
/// the live roster and the job continues without the corpse.
#[test]
fn worker_death_without_roster_change_wedges_the_round() {
    let mut runner = roster_runner();
    let all = [true, true, true];
    let without_1 = [true, false, true];
    runner.run_round(&roster_shards(0, &all)).expect("fault-free round 0");

    // Kill sender 1's host (plan slot 1) mid-round, permanently.
    let kill = runner.sim().now() + SimDuration::from_micros(2);
    let host = runner.node_id(1);
    runner.sim_mut().script_node(host, NodeScript::kill_at(kill));
    let err = runner
        .run_round(&roster_shards(1, &all))
        .expect_err("a silently-dead worker must wedge the round");
    assert!(err.contains("ENDs at quiescence"), "got: {err}");

    // Announce the departure: round completion is redefined over the
    // live roster and the same round is re-run without the corpse.
    runner.set_sender_active(1, false);
    runner.replan(&[]).expect("re-plan over the reduced roster");
    for r in [1, 2] {
        let out = runner
            .run_round(&roster_shards(r, &without_1))
            .expect("reduced-roster round")
            .per_reducer
            .remove(0);
        assert_eq!(out, expected(&[0, 3], r, KEYS), "round {r} over the live roster");
    }
}

/// The counterpoint to the wedge: an outage *shorter than the NACK
/// budget* needs no roster change at all — the switch keeps NACKing the
/// silent flow, the revived worker replays what it never sent (its
/// replay retention holds the whole round, transmitted or not), and the
/// round completes late but exact.
#[test]
fn transient_worker_blip_is_absorbed_by_recovery() {
    let mut runner = roster_runner();
    let all = [true, true, true];
    runner.run_round(&roster_shards(0, &all)).expect("fault-free round 0");
    let round0_done = runner.sim().now();

    let kill = runner.sim().now() + SimDuration::from_micros(2);
    let revive = kill + SimDuration::from_micros(300);
    let host = runner.node_id(1);
    runner.sim_mut().script_node(host, NodeScript::down_between(kill, revive));
    let out = runner
        .run_round(&roster_shards(1, &all))
        .expect("recovery must absorb a transient blip without a re-plan");
    assert_eq!(out.per_reducer[0], expected(&[0, 1, 3], 1, KEYS), "late but exact");
    assert!(
        runner.sim().now() > revive,
        "the round barrier must have waited out the outage"
    );
    assert!(out.net.dead_drops() > 0, "the outage never actually bit");
    // No lingering damage: the next round is fault-free and exact.
    let next = runner.run_round(&roster_shards(2, &all)).expect("round after the blip");
    assert_eq!(next.per_reducer[0], expected(&[0, 1, 3], 2, KEYS));
    assert!(
        runner.sim().now() - round0_done < SimDuration::from_millis(50),
        "absorbing a blip must not burn the whole NACK give-up horizon"
    );
}

/// Planned maintenance: the worker leaves and rejoins *announced*, with
/// a re-plan at each roster change. Round completion is redefined over
/// the live roster both ways and every pair lands exactly once.
#[test]
fn worker_leave_and_rejoin_with_replan_stays_exact() {
    let mut runner = roster_runner();
    let all = [true, true, true];
    let without_1 = [true, false, true];

    let out0 = runner.run_round(&roster_shards(0, &all)).expect("round 0").per_reducer.remove(0);
    assert_eq!(out0, expected(&[0, 1, 3], 0, KEYS));

    // Sender 1 leaves at the barrier; rounds 1-2 run over [0, 3].
    runner.set_sender_active(1, false);
    runner.replan(&[]).expect("re-plan over the reduced roster");
    for r in [1, 2] {
        let out = runner
            .run_round(&roster_shards(r, &without_1))
            .expect("reduced-roster round")
            .per_reducer
            .remove(0);
        assert_eq!(out, expected(&[0, 3], r, KEYS), "round {r} over the live roster");
    }

    // It rejoins at the next barrier; rounds 3-4 include it again.
    runner.set_sender_active(1, true);
    runner.replan(&[]).expect("re-plan over the restored roster");
    for r in [3, 4] {
        let out = runner
            .run_round(&roster_shards(r, &all))
            .expect("restored-roster round")
            .per_reducer
            .remove(0);
        assert_eq!(out, expected(&[0, 1, 3], r, KEYS), "round {r} after rejoin");
    }
}

// ---------------------------------------------------------------------
// Scenario 3: queue-buildup backpressure.
// ---------------------------------------------------------------------

/// star(3): hosts 0,1 (senders), 2 (reducer), switch 3 — with tiny
/// drop-tail queues, an ECN threshold below them, and pacing fast enough
/// to overflow the reducer-ward egress queue.
fn overload_runner(backoff: bool) -> IterativeRunner {
    // Gigabit links so serialization (~1 µs/frame) dwarfs the 100 ns
    // pacing gap: the sender's egress queue is the bottleneck, which is
    // the path a pacing response can actually relieve.
    let spec_link = LinkSpec::gigabit().with_queue_bytes(2048).with_ecn_threshold(1024);
    let plan = TopologyPlan::star(3, spec_link);
    // 4-pair frames make the shard many small frames; the rtx ring must
    // still cover a full 256-cell flush (65 frames).
    // 4-pair frames make the 1200-key shard 300 DATA frames + END; at
    // 500 ns pacing the round transmits for ~150 us, so the first NACK
    // (20 us timeout) lands while most of the stream is still pending —
    // the window where a pacing response can actually matter. Replay
    // retention must hold the whole round (301 frames) per sender.
    let config = DaietConfig { pairs_per_packet: 4, rtx_frames: 512, ..recovery_config() };
    let mut spec = IterativeSpec::new(config, plan, vec![0, 1], vec![2]);
    spec.seed = chaos_seed();
    spec.pacing = SimDuration::from_nanos(500);
    let mut runner = IterativeRunner::build(spec).unwrap();
    if backoff {
        runner.enable_sender_backoff(0);
        runner.enable_sender_backoff(1);
    }
    runner
}

const OVERLOAD_KEYS: usize = 1200;

/// Failing-first: at this rate the queues overflow and CE-mark, and only
/// NACK recovery carries the round — the pinned cost of an open-loop
/// sender under overload.
#[test]
fn queue_buildup_overflows_marks_and_forces_recovery() {
    let mut runner = overload_runner(false);
    let out = runner
        .run_round(&[vec![shard(0, 0, OVERLOAD_KEYS)], vec![shard(1, 0, OVERLOAD_KEYS)]])
        .expect("recovery must carry the overload");
    assert_eq!(out.per_reducer[0], expected(&[0, 1], 0, OVERLOAD_KEYS));
    assert!(out.net.overflow_drops() > 0, "the tiny queues never overflowed — overload proved nothing");
    assert!(out.net.ecn_marks() > 0, "buildup must CE-mark before the drop-tail bites");
    assert!(
        runner.reducer(0).nacks_emitted() > 0 || runner.sender(0).nacks_received > 0,
        "overflow loss must have been repaired through the NACK path"
    );
}

/// The response: NACK-driven pacing backoff sheds the overload — same
/// round, same results, strictly fewer overflow drops.
#[test]
fn nack_backoff_sheds_overload_with_identical_results() {
    let mut open_loop = overload_runner(false);
    let mut closed_loop = overload_runner(true);
    let shards =
        [vec![shard(0, 0, OVERLOAD_KEYS)], vec![shard(1, 0, OVERLOAD_KEYS)]];
    let a = open_loop.run_round(&shards).expect("open-loop round");
    let b = closed_loop.run_round(&shards).expect("backed-off round");
    assert_eq!(a.per_reducer, b.per_reducer, "backoff changed the math");
    assert!(
        b.net.overflow_drops() < a.net.overflow_drops(),
        "backoff must shed load: {} drops open-loop vs {} with backoff",
        a.net.overflow_drops(),
        b.net.overflow_drops()
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
        let slots = senders.clone();
        let shards_for = |r: u64| -> Vec<Vec<Vec<Pair>>> {
            slots.iter().map(|&i| vec![shard(i, r, PROP_KEYS)]).collect()
        };
        let mut spec = IterativeSpec::new(recovery_config(), plan, senders.clone(), vec![reducer]);
        spec.seed = chaos_seed();
        let mut runner = IterativeRunner::build(spec).unwrap();

        let out0 = runner.run_round(&shards_for(0)).expect("fault-free round 0");
        prop_assert_eq!(&out0.per_reducer[0], &expected(&senders, 0, PROP_KEYS));

        let spine = tree_spine_from(&runner, first_spine);
        let kill = runner.sim().now() + SimDuration::from_micros(kill_us);
        let revive = kill + SimDuration::from_micros(down_us);
        let node = runner.node_id(spine);
        runner.sim_mut().script_node(node, NodeScript::down_between(kill, revive));

        for r in 1..PROP_ROUNDS {
            let out = match runner.run_round(&shards_for(r)) {
                Ok(out) => out,
                Err(err) => {
                    prop_assert!(err.contains("ENDs at quiescence"), "unexpected wedge: {}", err);
                    runner.replan(&[spine]).expect("the second spine must carry the tree");
                    runner.run_round(&shards_for(r)).expect("re-routed re-submit")
                }
            };
            prop_assert_eq!(&out.per_reducer[0], &expected(&senders, r, PROP_KEYS), "round {}", r);
        }
    }
}
