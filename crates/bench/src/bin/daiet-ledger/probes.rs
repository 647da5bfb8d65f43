//! The layer probes: each times calls into one layer's public functions
//! over the workload's own data — the frames its senders build, fed to the
//! switch the controller deploys, that switch's output fed to the reducers
//! — and records a span per probe. The chain's end result is checked
//! against the host-side reference, so a probe cannot time a broken path.

use crate::job::{arrival_order, schedules, JobData, Round, Star};
use crate::simrun;
use crate::span::Trace;
use crate::udp;
use daiet::controller::{AggregationMode, L2_TABLE, STEER_TABLE};
use daiet::reliability::{DedupWindow, FlowRecv, NackRequest, NackTracker, RetransmitRing};
use daiet::worker::{receive_daiet, reducer_host, PacedSenderNode};
use daiet::{Collector, DaietEngine};
use daiet_dataplane::parser::parse;
use daiet_dataplane::{PacketCtx, ParserConfig, Resources, SwitchExtern};
use daiet_fabric::{Duration, Fabric, Frame, FramePool, Node, PortId, Time, TimerWheel};
use daiet_netsim::event::{EventKind, EventQueue};
use daiet_netsim::{NodeId, SimTime};
use daiet_wire::checksum;
use daiet_wire::daiet::{NackRange, PacketType};
use daiet_wire::{ethernet, ipv4, Ipv4Address};
use std::hint::black_box;

/// Host nanoseconds over a number of items, summed across rounds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    pub ns: f64,
    pub items: u64,
}

impl Acc {
    fn add(&mut self, ns: f64, items: u64) {
        self.ns += ns;
        self.items += items;
    }

    pub fn per_item(&self) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            self.ns / self.items as f64
        }
    }
}

/// Everything the probes measured. Item counts here are the probes' own
/// (frames fed, pairs folded); in-situ counts come from `simrun`.
#[derive(Debug, Default)]
pub struct Probes {
    pub build: Acc,
    pub checksum: Acc,
    pub crc32: Acc,
    pub parse: Acc,
    pub table: Acc,
    pub switch: Acc,
    pub alg1: Acc,
    pub flush: Acc,
    pub sender: Acc,
    pub reducer: Acc,
    pub collector: Acc,
    pub deploy_us: Vec<f64>,
    pub flowrecv: Acc,
    pub nacktracker: Acc,
    pub dedup: Acc,
    pub rtx_record: Acc,
    pub rtx_replay: Acc,
    pub null_sim: Acc,
    pub evq: Acc,
    pub pool: Acc,
    pub wheel: Acc,
    pub relay_ns_per_datagram: f64,
}

/// A `Fabric` that counts what a node does and does nothing else: sends
/// are dropped, timers are never fired (the probe fires them itself).
struct Recorder {
    pool: FramePool,
    sent: u64,
}

impl Fabric for Recorder {
    fn now(&self) -> Time {
        Time::ZERO
    }

    fn send(&mut self, _port: PortId, _frame: Frame) {
        self.sent += 1;
    }

    fn schedule(&mut self, _delay: Duration, _token: u64) {}

    fn pool(&self) -> &FramePool {
        &self.pool
    }

    fn port_count(&self) -> usize {
        1
    }
}

/// Frames of round 0 kept for the socket relay, which needs no more.
const RELAY_FRAMES: usize = 20_000;

/// Iterations of the workload-independent micro-loops are the workload's
/// frame count, within these limits.
const MICRO_ITERS: std::ops::RangeInclusive<u64> = 20_000..=400_000;

/// Sequence numbers start this close below `u32::MAX`, so every flow of
/// three frames or more crosses the wrap.
const WRAP_BASE: u32 = u32::MAX - 1;

fn header_checksums_ok(frame: &[u8]) -> bool {
    let Some(ip) = frame.get(ethernet::HEADER_LEN..ethernet::HEADER_LEN + ipv4::HEADER_LEN) else {
        return false;
    };
    let segment = &frame[ethernet::HEADER_LEN + ipv4::HEADER_LEN..];
    let src = Ipv4Address([ip[12], ip[13], ip[14], ip[15]]);
    let dst = Ipv4Address([ip[16], ip[17], ip[18], ip[19]]);
    checksum::verify(ip) && checksum::verify_pseudo(src, dst, 17, segment)
}

/// Runs every probe over every round of `job`. `occupancy` is the in-situ
/// mean event-queue depth the queue probe holds.
pub fn run(
    job: &JobData,
    occupancy: f64,
    pool: &FramePool,
    trace: &mut Trace,
) -> Result<Probes, String> {
    let mut p = Probes::default();
    let mut relay_frames = Vec::new();
    for (i, round) in job.rounds.iter().enumerate() {
        let span = trace.enter("round");
        let arrivals =
            probe_round(job, round, pool, trace, &mut p).map_err(|e| format!("round {i}: {e}"))?;
        if relay_frames.len() < RELAY_FRAMES {
            let room = RELAY_FRAMES - relay_frames.len();
            relay_frames.extend(arrivals.into_iter().take(room).map(|(_, f)| f));
        }
        trace.exit(span, round.pairs());
    }

    let iters = p
        .build
        .items
        .clamp(*MICRO_ITERS.start(), *MICRO_ITERS.end());
    let span = trace.enter("micro");
    let ((), ns) = trace.measure("fabric.pool_cycle", || {
        for _ in 0..iters {
            let mut buf = pool.buffer();
            buf.resize(252, 0);
            black_box(pool.frame(buf));
        }
        ((), iters)
    });
    p.pool.add(ns, iters);

    let gap = job.pacing.as_nanos().max(1);
    let ((), ns) = trace.measure("fabric.wheel", || {
        let mut wheel = TimerWheel::for_driver();
        let mut now = 0u64;
        let mut fired = 0u64;
        for _ in 0..iters {
            wheel.schedule(Time(now + gap), 0);
            now += gap;
            fired += wheel.expire(Time(now)).len() as u64;
        }
        assert_eq!(fired, iters, "every armed timer fires on its tick");
        ((), iters)
    });
    p.wheel.add(ns, iters);

    let depth = occupancy.round().max(1.0) as u64;
    let ((), ns) = trace.measure("netsim.event_queue", || {
        let mut queue = EventQueue::new();
        let timer = |i: u64| EventKind::Timer {
            node: NodeId((i % depth) as usize),
            token: i,
        };
        for i in 0..depth {
            queue.push(SimTime(i * gap), NodeId((i % depth) as usize), timer(i));
        }
        for i in 0..iters {
            let ev = queue.pop().expect("the queue holds `depth` events");
            queue.push(SimTime(ev.time.as_nanos() + depth * gap), ev.src, timer(i));
        }
        black_box(queue.len());
        ((), 2 * iters)
    });
    p.evq.add(ns, 2 * iters);

    let relayed = relay_frames.len() as u64;
    let (relay, _) = trace.measure("fabric.udp_relay", || {
        (udp::relay_ns_per_datagram(relay_frames), 2 * relayed)
    });
    p.relay_ns_per_datagram = relay?;
    trace.exit(span, iters);
    Ok(p)
}

/// One round through every per-frame probe. Returns the frames in arrival
/// order, tagged with their sender.
fn probe_round(
    job: &JobData,
    round: &Round,
    pool: &FramePool,
    trace: &mut Trace,
    p: &mut Probes,
) -> Result<Vec<(usize, Frame)>, String> {
    let (s, t) = (round.senders(), round.trees());
    let ports = s + t;

    let (mut star, ns) = trace.measure("core.deploy", || {
        (Star::deploy(job.config, job.link, job.mode, round), 1)
    });
    p.deploy_us.push(ns / 1e3);

    // wire: build, checksum, key hash.
    let (per_sender, ns) = trace.measure("wire.build", || {
        let built: Vec<_> = (0..s)
            .map(|m| star.sender_frames(round, m, 0, pool))
            .collect();
        let n = built.iter().flatten().map(|q| q.len() as u64).sum();
        (built, n)
    });
    let schedules = schedules(&per_sender);
    let arrivals = arrival_order(&schedules);
    let n = arrivals.len() as u64;
    p.build.add(ns, n);

    let (valid, ns) = trace.measure("wire.checksum", || {
        let valid = arrivals
            .iter()
            .filter(|(_, f)| header_checksums_ok(f))
            .count() as u64;
        (valid, n)
    });
    if valid != n {
        return Err(format!(
            "{} built frames fail their own checksums",
            n - valid
        ));
    }
    p.checksum.add(ns, n);

    let pairs = round.pairs();
    let ((), ns) = trace.measure("wire.crc32", || {
        let mut acc = 0u32;
        for pair in round.shards.iter().flatten().flatten() {
            acc ^= checksum::crc32(&pair.key.0);
        }
        black_box(acc);
        ((), pairs)
    });
    p.crc32.add(ns, pairs);

    // dataplane: the bounded parser, then the two match-action tables, on a
    // deployment that always steers (so the steering table holds the
    // round's trees whatever the workload's own mode).
    let parser = ParserConfig {
        max_parse_bytes: Resources::tofino_like().max_parse_bytes,
        verify_checksums: true,
    };
    let (rejected, ns) = trace.measure("dataplane.parse", || {
        // Parse and let go, as the switch does: keeping every result would
        // time the allocator, not the parser.
        let rejected = arrivals
            .iter()
            .filter(|(_, f)| black_box(parse(f.clone(), &parser)).is_err())
            .count();
        (rejected, n)
    });
    if rejected != 0 {
        return Err(format!(
            "the switch parser rejected {rejected} built frames"
        ));
    }
    p.parse.add(ns, n);

    let mut pkts: Vec<PacketCtx> = arrivals
        .iter()
        .filter_map(|(m, f)| {
            Some(PacketCtx::at(
                PortId(*m),
                parse(f.clone(), &parser).ok()?,
                Time::ZERO,
            ))
        })
        .collect();
    // (tree, child, seq, is END) of every frame, for the reliability probes.
    let notes: Vec<(u16, u32, u32, bool)> = pkts
        .iter()
        .map(|pkt| {
            let hdr = pkt
                .parsed
                .daiet
                .expect("built frames carry a DAIET preamble");
            (
                hdr.tree_id,
                pkt.in_port.0 as u32,
                hdr.seq,
                hdr.packet_type == PacketType::End,
            )
        })
        .collect();

    let (mut steering, ns) = trace.measure("core.deploy", || {
        (
            Star::deploy(job.config, job.link, AggregationMode::InNetwork, round),
            1,
        )
    });
    p.deploy_us.push(ns / 1e3);
    let ((), ns) = trace.measure("dataplane.table", || {
        for handle in [STEER_TABLE, L2_TABLE] {
            let table = steering.switch.pipeline_mut().table_mut(handle);
            for pkt in &pkts {
                black_box(table.lookup(pkt));
            }
        }
        ((), 2 * n)
    });
    p.table.add(ns, 2 * n);

    // core: Algorithm 1 alone, DATA then END, on the same deployment's
    // engine. All DATA first is an order the protocol allows (ENDs trail
    // their flows), and it lets the two be timed apart.
    let ext = steering.deployment.engine_externs[&steering.switch_slot];
    let engine = steering
        .switch
        .extern_mut::<DaietEngine>(ext)
        .ok_or("an in-network deployment carries a DaietEngine")?;
    let (spilled, ns) = trace.measure("core.alg1", || {
        let mut spilled = 0u64;
        for (pkt, note) in pkts.iter_mut().zip(&notes).filter(|(_, note)| !note.3) {
            spilled += engine.invoke(pkt, u32::from(note.0), pool).emit.len() as u64;
        }
        (spilled, pairs)
    });
    p.alg1.add(ns, pairs);
    let (flushed, ns) = trace.measure("core.flush", || {
        let mut flushed = 0u64;
        for (pkt, note) in pkts.iter_mut().zip(&notes).filter(|(_, note)| note.3) {
            flushed += engine.invoke(pkt, u32::from(note.0), pool).emit.len() as u64;
        }
        (flushed, flushed)
    });
    p.flush.add(ns, flushed);
    if engine.stats().pairs_in != pairs || engine.stats().frames_out != spilled + flushed {
        return Err("Algorithm 1's counters disagree with what the probe fed it".into());
    }
    drop(pkts);

    // dataplane: the whole switch, in the workload's own mode. Timed with
    // each frame's output let go at once, as the fabric takes it away, so
    // emitted buffers recycle; then once more on a fresh deployment,
    // untimed, keeping the output and after which input frame it came.
    let ((), ns) = trace.measure("dataplane.switch", || {
        let mut out = Vec::new();
        for (m, f) in &arrivals {
            star.switch
                .process_into(PortId(*m), f.clone(), ports, pool, Time::ZERO, &mut out);
            out.clear();
        }
        ((), n)
    });
    p.switch.add(ns, n);
    let seen = star.switch.stats();
    if seen.packets_in != n || seen.parse_errors + seen.checksum_drops != 0 {
        return Err(format!(
            "the probed switch took {} of {n} frames: {seen:?}",
            seen.packets_in
        ));
    }
    let (fresh, ns) = trace.measure("core.deploy", || {
        (Star::deploy(job.config, job.link, job.mode, round), 1)
    });
    p.deploy_us.push(ns / 1e3);
    star = fresh;
    let mut switch_out: Vec<(PortId, Frame)> = Vec::new();
    let mut emitted_by = Vec::with_capacity(arrivals.len());
    for (m, f) in &arrivals {
        star.switch.process_into(
            PortId(*m),
            f.clone(),
            ports,
            pool,
            Time::ZERO,
            &mut switch_out,
        );
        emitted_by.push(switch_out.len());
    }

    // core: the paced sender's timer path under a recording fabric.
    let mut senders: Vec<PacedSenderNode> = schedules
        .iter()
        .map(|q| PacedSenderNode::new(q.clone(), job.pacing, "ledger-probe"))
        .collect();
    let mut fabric = Recorder {
        pool: pool.clone(),
        sent: 0,
    };
    let ((), ns) = trace.measure("core.sender", || {
        for node in &mut senders {
            node.on_start(&mut fabric);
            while node.pending() > 0 {
                node.on_timer(&mut fabric, 0);
            }
        }
        ((), n)
    });
    if fabric.sent != n {
        return Err(format!("paced senders sent {} of {n} frames", fabric.sent));
    }
    p.sender.add(ns, n);
    drop(senders);

    // core: the reducers, fed what the switch emitted toward each.
    let mut inbound: Vec<Vec<Frame>> = vec![Vec::new(); t];
    for (port, frame) in &switch_out {
        if let Some(queue) = port.0.checked_sub(s).and_then(|r| inbound.get_mut(r)) {
            queue.push(frame.clone());
        }
    }
    let delivered: u64 = inbound.iter().map(|q| q.len() as u64).sum();
    let mut reducers: Vec<_> = (0..t)
        .map(|r| {
            reducer_host(
                &job.config,
                star.controller.agg_for(r),
                &star.deployment,
                r,
                s + r,
                &star.placement.mappers,
            )
        })
        .collect();
    let ((), ns) = trace.measure("core.reducer", || {
        for (node, frames) in reducers.iter_mut().zip(&inbound) {
            for f in frames {
                node.on_packet(&mut fabric, PortId(0), f.clone());
            }
        }
        ((), delivered)
    });
    p.reducer.add(ns, delivered);
    let reference = round.reference();
    for (r, node) in reducers.into_iter().enumerate() {
        if !node.collector.is_complete() || node.collector.into_sorted() != reference[r] {
            return Err(format!(
                "the probe chain's reducer {r} differs from the host reference"
            ));
        }
    }

    // core: the collector alone, on the same frames already parsed.
    let received: Vec<Vec<_>> = inbound
        .iter()
        .map(|frames| {
            frames
                .iter()
                .filter_map(|f| receive_daiet(f.clone()))
                .collect()
        })
        .collect();
    let mut collectors: Vec<Collector> = (0..t)
        .map(|r| {
            Collector::new(
                star.controller.agg_for(r),
                star.deployment.expected_ends(r, s),
            )
        })
        .collect();
    let (collected, ns) = trace.measure("core.collector", || {
        for (collector, frames) in collectors.iter_mut().zip(&received) {
            for (hdr, _src, parsed) in frames {
                collector.on_parts(hdr, parsed.daiet_pairs());
            }
        }
        let collected: u64 = collectors.iter().map(|c| c.stats().pairs_received).sum();
        (collected, collected)
    });
    p.collector.add(ns, collected);
    drop(received);

    // core: the reliability structures over the round's sequence stream.
    let ((), ns) = trace.measure("core.flowrecv", || {
        // FlowRecv streams start at 0 by construction (no public way to
        // start one elsewhere), so this one stays below the wrap.
        for queue in per_sender.iter().flatten() {
            let mut flow = FlowRecv::default();
            let last = queue.len() as u32 - 1;
            for seq in 0..=last {
                black_box(flow.note(seq, seq == last, Time(u64::from(seq))));
            }
        }
        ((), n)
    });
    p.flowrecv.add(ns, n);
    let ((), ns) = trace.measure("core.nacktracker", || {
        let mut tracker = NackTracker::new();
        for (tree, child, _, _) in &notes {
            tracker.expect(*tree, *child);
        }
        for (i, &(tree, child, seq, end)) in notes.iter().enumerate() {
            black_box(tracker.note(tree, child, seq, end, Time(i as u64)));
        }
        ((), n)
    });
    p.nacktracker.add(ns, n);
    let (fresh, ns) = trace.measure("core.dedup", || {
        let mut window = DedupWindow::new();
        let fresh = notes
            .iter()
            .filter(|(tree, child, seq, _)| {
                window.accept(
                    *tree,
                    Ipv4Address::from_id(*child),
                    seq.wrapping_add(WRAP_BASE),
                )
            })
            .count() as u64;
        (fresh, n)
    });
    if fresh != n {
        return Err(format!(
            "the dedup window refused {} fresh frames across the wrap",
            n - fresh
        ));
    }
    p.dedup.add(ns, n);

    let mut ring = RetransmitRing::new(job.config.rtx_frames.max(64));
    let ((), ns) = trace.measure("core.rtx_record", || {
        for (i, (_, f)) in arrivals.iter().enumerate() {
            ring.record(WRAP_BASE.wrapping_add(i as u32), f.clone());
        }
        ((), n)
    });
    p.rtx_record.add(ns, n);
    // Ask for a quarter of what the ring holds, as four runs spread over it
    // (one run when it holds too little to spread).
    let held = ring.len() as u32;
    let newest = WRAP_BASE.wrapping_add(n as u32);
    let run = (held / 16).max(1);
    let runs = if held >= 16 { 4 } else { 1 };
    let request = NackRequest {
        next_expected: newest,
        tail: false,
        ranges: (1..=runs)
            .map(|k| NackRange {
                first: newest.wrapping_sub(k * held / runs),
                count: run,
            })
            .collect(),
    };
    let (replayed, ns) = trace.measure("core.rtx_replay", || {
        ring.replay(&request, |f| {
            black_box(f);
        });
        (ring.replayed, ring.replayed)
    });
    if replayed == 0 || ring.misses != 0 {
        return Err(format!(
            "retransmit ring replayed {replayed} frames, missed {}",
            ring.misses
        ));
    }
    p.rtx_replay.add(ns, replayed);

    // netsim: the same frames through protocol-free nodes.
    let span = trace.enter("netsim.null_replay");
    let (ns, events) = simrun::null_replay(job, &star, schedules, switch_out, emitted_by, pool);
    trace.exit(span, events);
    p.null_sim.add(ns, events);

    Ok(arrivals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use daiet::{AggFn, DaietConfig};
    use daiet_netsim::LinkSpec;
    use daiet_wire::daiet::{Key, Pair};

    fn job(mode: AggregationMode, cells: usize) -> JobData {
        let key = |i: usize| Key::from_str_key(&format!("key{i:04}")).unwrap();
        let shards = (0..3)
            .map(|m| {
                (0..2)
                    .map(|t| {
                        (0..64)
                            .map(|i| Pair::new(key(i + 11 * t), 1 + m as u32))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        JobData {
            backend: crate::job::Backend::Simulator,
            config: DaietConfig {
                register_cells: cells,
                ..DaietConfig::default()
            },
            mode,
            link: LinkSpec::fast(),
            pacing: Duration::from_micros(2),
            seed: 1,
            rounds: vec![Round {
                aggs: vec![AggFn::Sum, AggFn::Min],
                shards,
            }],
            fault_draws: 1,
        }
    }

    #[test]
    fn acc_divides_and_survives_zero_items() {
        let mut a = Acc::default();
        assert_eq!(a.per_item(), 0.0);
        a.add(300.0, 3);
        a.add(100.0, 1);
        assert_eq!(a.per_item(), 100.0);
    }

    #[test]
    fn built_frames_pass_their_checksums_and_a_flipped_bit_does_not() {
        let job = job(AggregationMode::InNetwork, 1024);
        let star = Star::deploy(job.config, job.link, job.mode, &job.rounds[0]);
        let frames = star.sender_frames(&job.rounds[0], 0, 0, &FramePool::new());
        assert!(frames.iter().flatten().all(|f| header_checksums_ok(f)));
        let mut bytes = frames[0][0].to_vec();
        *bytes.last_mut().unwrap() ^= 1;
        assert!(!header_checksums_ok(&bytes));
        assert!(!header_checksums_ok(&bytes[..20]));
    }

    /// Sockets aside, every probe runs on a small job in both modes, with a
    /// register file small enough to spill, and counts what it was fed.
    #[test]
    fn round_probes_count_what_they_were_fed() {
        for (mode, cells) in [
            (AggregationMode::InNetwork, 1024),
            (AggregationMode::InNetwork, 16),
            (AggregationMode::PassThrough, 1024),
        ] {
            let job = job(mode, cells);
            let mut trace = Trace::new();
            let mut p = Probes::default();
            let arrivals =
                probe_round(&job, &job.rounds[0], &FramePool::new(), &mut trace, &mut p).unwrap();
            let frames = 3 * 2 * (7 + 1);
            assert_eq!(arrivals.len() as u64, frames);
            assert_eq!(p.build.items, frames);
            assert_eq!(p.table.items, 2 * frames);
            assert_eq!(p.alg1.items, 3 * 2 * 64);
            assert_eq!(p.switch.items, frames);
            assert!(
                p.collector.items >= 128,
                "at least each tree's distinct keys arrive"
            );
            if mode == AggregationMode::PassThrough {
                assert_eq!(p.reducer.items, frames, "pass-through delivers every frame");
            } else {
                assert!(p.reducer.items < frames);
            }
            assert!(p.null_sim.items > frames);
            assert!(trace
                .spans()
                .iter()
                .any(|s| s.name == "core.alg1" && s.items == 384));
        }
    }
}
