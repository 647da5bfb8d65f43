//! Links: full-duplex point-to-point connections with bandwidth,
//! propagation delay, bounded drop-tail egress queues, and fault injection.
//!
//! Each direction of a link is an independent transmitter: a frame handed
//! to a busy transmitter waits in the egress queue (bounded in bytes); when
//! the queue is full the frame is dropped, as a real switch port would.
//!
//! # Per-direction fault streams
//!
//! Fault injection draws from a `SmallRng` owned by the link *direction*,
//! seeded from `(simulation seed, from-node, to-node, occurrence)` — never
//! from a simulator-wide generator. A shared RNG makes every fault decision
//! depend on the global interleaving of draws: adding one unrelated flow
//! shifts which frames get dropped everywhere. Per-direction streams make
//! each direction's fault sequence a pure function of the simulation seed
//! and the direction's identity, so fault outcomes are invariant to
//! unrelated event reordering and to the order links were registered.
//! (`occurrence` counts parallel links between the same endpoint pair, so
//! even duplicated links get independent streams.)

use crate::event::{EventKind, EventQueue};
use crate::frame::{Frame, FramePool};
use crate::node::{NodeId, PortId};
use crate::stats::StatsTable;
use crate::time::{SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Static parameters of a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Line rate in bits per second.
    pub bandwidth_bps: u64,
    /// One-way propagation delay.
    pub latency: SimDuration,
    /// Egress queue capacity per direction, in bytes (excluding the frame
    /// currently being serialized).
    pub queue_bytes: usize,
    /// ECN marking threshold per direction, in queued bytes; 0 disables
    /// marking. When a frame is admitted to an egress queue already
    /// holding more than this many bytes, its IPv4 ECN field is set to CE
    /// (Congestion Experienced) and the header checksum is fixed up —
    /// the RED/ECN-style signal a real switch emits on buildup, letting
    /// senders back off before the drop-tail limit bites.
    pub ecn_threshold_bytes: usize,
    /// Fault injection profile.
    pub faults: FaultProfile,
}

impl LinkSpec {
    /// 10 Gbps, 1 µs, 512 KiB queue — a typical data-center access link.
    pub fn fast() -> LinkSpec {
        LinkSpec {
            bandwidth_bps: 10_000_000_000,
            latency: SimDuration::from_micros(1),
            queue_bytes: 512 * 1024,
            ecn_threshold_bytes: 0,
            faults: FaultProfile::NONE,
        }
    }

    /// 1 Gbps, 5 µs, 256 KiB queue.
    pub fn gigabit() -> LinkSpec {
        LinkSpec {
            bandwidth_bps: 1_000_000_000,
            latency: SimDuration::from_micros(5),
            queue_bytes: 256 * 1024,
            ecn_threshold_bytes: 0,
            faults: FaultProfile::NONE,
        }
    }

    /// Replaces the fault profile.
    pub fn with_faults(mut self, faults: FaultProfile) -> LinkSpec {
        self.faults = faults;
        self
    }

    /// Replaces the queue capacity.
    pub fn with_queue_bytes(mut self, bytes: usize) -> LinkSpec {
        self.queue_bytes = bytes;
        self
    }

    /// Enables ECN: frames admitted to an egress queue holding more than
    /// `bytes` are CE-marked (see [`LinkSpec::ecn_threshold_bytes`]).
    pub fn with_ecn_threshold(mut self, bytes: usize) -> LinkSpec {
        self.ecn_threshold_bytes = bytes;
        self
    }
}

/// Sets the ECN field of an IPv4 frame to CE (0b11) and repairs the
/// header checksum in place; returns `false` (untouched) for anything
/// that is not a standard 20-byte-header IPv4 frame. Self-contained
/// (netsim does not depend on the wire crate): Ethernet header is 14
/// bytes, the DSCP/ECN byte sits at offset 15, the header checksum at
/// 24..26, and the stack only ever emits IHL=5 headers (version byte
/// 0x45), so a full RFC 1071 recompute over the fixed 20 bytes is cheap
/// and exact.
fn ecn_mark_ce(frame: &mut [u8]) -> bool {
    if frame.len() < 34 || frame[12] != 0x08 || frame[13] != 0x00 || frame[14] != 0x45 {
        return false;
    }
    frame[15] |= 0b11;
    frame[24] = 0;
    frame[25] = 0;
    let mut sum = 0u32;
    for i in (14..34).step_by(2) {
        sum += u32::from(u16::from_be_bytes([frame[i], frame[i + 1]]));
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    let ck = !(sum as u16);
    frame[24..26].copy_from_slice(&ck.to_be_bytes());
    true
}

/// Per-frame fault probabilities (applied independently, in the order
/// drop → duplicate → corrupt → reorder).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultProfile {
    /// Probability a frame is silently dropped.
    pub drop: f64,
    /// Probability one random byte of the frame is flipped (checksums at
    /// the receiver will catch it — which is the point).
    pub corrupt: f64,
    /// Probability the frame is delivered twice.
    pub duplicate: f64,
    /// Probability the frame is held back by
    /// [`reorder_ns`](FaultProfile::reorder_ns) extra nanoseconds, letting frames
    /// transmitted after it overtake it — the simulator's model of
    /// multipath/queueing reordering.
    pub reorder: f64,
    /// Extra delay applied to reordered frames, in nanoseconds. Choose it
    /// larger than a few frame serialization times so reordering actually
    /// happens.
    pub reorder_ns: u64,
}

impl FaultProfile {
    /// No injected faults.
    pub const NONE: FaultProfile = FaultProfile {
        drop: 0.0,
        corrupt: 0.0,
        duplicate: 0.0,
        reorder: 0.0,
        reorder_ns: 0,
    };

    /// A loss-only profile.
    pub fn loss(p: f64) -> FaultProfile {
        FaultProfile { drop: p, ..Self::NONE }
    }

    /// The full adversary short of corruption: independent loss,
    /// duplication and reordering (by `reorder_ns` nanoseconds) at the
    /// given per-frame probabilities — the profile the reliability
    /// acceptance tests inject on every link.
    pub fn chaos(drop: f64, duplicate: f64, reorder: f64, reorder_ns: u64) -> FaultProfile {
        FaultProfile { drop, duplicate, reorder, reorder_ns, ..Self::NONE }
    }

    /// True when all probabilities are zero.
    pub fn is_none(&self) -> bool {
        self.drop == 0.0 && self.corrupt == 0.0 && self.duplicate == 0.0 && self.reorder == 0.0
    }
}

/// One scripted per-frame decision of a [`LinkScript`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Deliver normally.
    Deliver,
    /// Drop the frame.
    Drop,
    /// Deliver the frame twice.
    Duplicate,
    /// Flip one random bit (receiver checksums will catch it).
    Corrupt,
    /// Deliver, but this many nanoseconds late (reordering).
    Delay(u64),
}

/// A deterministic, per-frame fault script for one link direction — the
/// "adversarial link" harness. Like the per-direction [`FaultProfile`]
/// streams, a script pins the fate of the *k*-th frame on the link:
/// decision `k` applies to the `k`-th frame admitted to the egress queue,
/// and once the script is exhausted the link falls back to its
/// [`FaultProfile`]. Attach with
/// [`Simulator::script_link`](crate::Simulator::script_link).
#[derive(Debug, Clone, Default)]
pub struct LinkScript {
    decisions: std::collections::VecDeque<FaultDecision>,
}

impl LinkScript {
    /// A script replaying `decisions` in order.
    pub fn new(decisions: impl IntoIterator<Item = FaultDecision>) -> LinkScript {
        LinkScript { decisions: decisions.into_iter().collect() }
    }

    /// A script that leaves the first `n` frames untouched and then
    /// applies `decision` to the next one — the precision tool for
    /// regression tests ("drop exactly the third flush frame").
    pub fn nth_frame(n: usize, decision: FaultDecision) -> LinkScript {
        let mut decisions: std::collections::VecDeque<FaultDecision> =
            std::iter::repeat_n(FaultDecision::Deliver, n).collect();
        decisions.push_back(decision);
        LinkScript { decisions }
    }

    /// A deterministic adversarial script: `n` per-frame decisions drawn
    /// from a dedicated RNG seeded with `seed` under `profile`'s
    /// probabilities. The same `(seed, n, profile)` always yields the
    /// same decision sequence, independent of every other link and of the
    /// traffic pattern — which makes failures replayable.
    pub fn adversarial(seed: u64, n: usize, profile: FaultProfile) -> LinkScript {
        let mut rng = SmallRng::seed_from_u64(seed);
        let decisions = (0..n)
            .map(|_| {
                // Independent draws in a fixed order so each probability
                // is honored marginally; first match wins.
                let d: f64 = rng.random();
                let u: f64 = rng.random();
                let r: f64 = rng.random();
                let c: f64 = rng.random();
                if d < profile.drop {
                    FaultDecision::Drop
                } else if u < profile.duplicate {
                    FaultDecision::Duplicate
                } else if r < profile.reorder {
                    FaultDecision::Delay(profile.reorder_ns)
                } else if c < profile.corrupt {
                    FaultDecision::Corrupt
                } else {
                    FaultDecision::Deliver
                }
            })
            .collect();
        LinkScript { decisions }
    }

    /// Decisions not yet consumed.
    pub fn remaining(&self) -> usize {
        self.decisions.len()
    }

    fn pop(&mut self) -> Option<FaultDecision> {
        self.decisions.pop_front()
    }
}

/// Derives a child seed for an independent named random stream. The words
/// identify the stream (a tag plus e.g. endpoint node ids); mixing is
/// splitmix64-flavored so nearby keys land far apart.
pub(crate) fn stream_seed(base: u64, words: [u64; 4]) -> u64 {
    let mut h = base ^ 0x9E37_79B9_7F4A_7C15;
    for w in words {
        h ^= w.wrapping_add(0xBF58_476D_1CE4_E5B9).wrapping_mul(0x94D0_49BB_1331_11EB);
        h = (h ^ (h >> 27)).wrapping_mul(0x2545_F491_4F6C_DD1D);
        h ^= h >> 31;
    }
    h
}

/// Stream tag for link fault RNGs (see [`stream_seed`]).
const STREAM_LINK_FAULTS: u64 = 1;

/// Runtime state of one direction of a link.
#[derive(Debug)]
struct Direction {
    /// When the transmitter becomes idle.
    busy_until: SimTime,
    /// Bytes waiting in the egress queue (not yet on the wire).
    queued_bytes: usize,
    /// Receiving endpoint.
    to_node: NodeId,
    to_port: PortId,
    /// This direction's private fault stream — seeded from the simulation
    /// seed and the direction's identity, never shared (module docs).
    rng: SmallRng,
}

/// A link instance inside the simulator.
#[derive(Debug)]
pub(crate) struct Link {
    spec: LinkSpec,
    dirs: [Direction; 2],
    /// Optional per-direction fault scripts (consume one decision per
    /// admitted frame, then fall back to `spec.faults`).
    scripts: [Option<LinkScript>; 2],
}

/// Everything `transmit` needs besides the link state itself: the
/// simulator's event queue, stats and frame pool.
pub(crate) struct NetCtx<'a> {
    pub queue: &'a mut EventQueue,
    pub stats: &'a mut StatsTable,
    pub pool: &'a FramePool,
}

/// Maps `(node, port)` to its link and direction, and owns all links.
///
/// Node ids are dense (assigned 0.. by the simulator), so the lookup
/// tables are plain vectors indexed by node — `transmit` runs on every
/// frame and must not pay for hashing.
#[derive(Debug)]
pub struct PortTable {
    links: Vec<Link>,
    /// `endpoints[node][port]` → (link index, direction index)
    endpoints: Vec<Vec<(u32, u32)>>,
    /// Simulation seed the per-direction fault streams derive from.
    seed: u64,
}

impl Default for PortTable {
    fn default() -> PortTable {
        PortTable::with_seed(0)
    }
}

impl PortTable {
    /// An empty table whose link fault streams derive from `seed`.
    pub(crate) fn with_seed(seed: u64) -> PortTable {
        PortTable { links: Vec::new(), endpoints: Vec::new(), seed }
    }

    /// Connects `a` and `b` with a fresh port on each; returns the port
    /// ids assigned on either side.
    pub(crate) fn connect(
        &mut self,
        a: NodeId,
        b: NodeId,
        spec: LinkSpec,
    ) -> (PortId, PortId) {
        let max = a.0.max(b.0);
        if self.endpoints.len() <= max {
            self.endpoints.resize_with(max + 1, Vec::new);
        }
        let idx = self.links.len();
        // Register endpoint a before computing b's port so a (disallowed
        // upstream, but defended here) self-loop still gets two distinct
        // ports.
        let pa = PortId(self.endpoints[a.0].len());
        self.endpoints[a.0].push((idx as u32, 0));
        let pb = PortId(self.endpoints[b.0].len());
        self.endpoints[b.0].push((idx as u32, 1));
        // Fault streams are keyed by the endpoints, not the link index, so
        // they are invariant to registration order; `occurrence` keeps
        // parallel links between the same pair on distinct streams.
        let occurrence = self
            .links
            .iter()
            .filter(|l| {
                let (x, y) = (l.dirs[1].to_node, l.dirs[0].to_node);
                (x == a && y == b) || (x == b && y == a)
            })
            .count() as u64;
        let dir_rng = |from: NodeId, to: NodeId| {
            SmallRng::seed_from_u64(stream_seed(
                self.seed,
                [STREAM_LINK_FAULTS, from.0 as u64, to.0 as u64, occurrence],
            ))
        };
        self.links.push(Link {
            spec,
            dirs: [
                Direction {
                    busy_until: SimTime::ZERO,
                    queued_bytes: 0,
                    to_node: b,
                    to_port: pb,
                    rng: dir_rng(a, b),
                },
                Direction {
                    busy_until: SimTime::ZERO,
                    queued_bytes: 0,
                    to_node: a,
                    to_port: pa,
                    rng: dir_rng(b, a),
                },
            ],
            scripts: [None, None],
        });
        (pa, pb)
    }

    /// Installs a fault script on one direction of link `idx` (0 = a→b in
    /// connect order), replacing any prior script.
    pub(crate) fn set_script(&mut self, idx: usize, dir: usize, script: LinkScript) {
        self.links[idx].scripts[dir] = Some(script);
    }

    /// Ports attached to `node`.
    pub(crate) fn port_count(&self, node: NodeId) -> usize {
        self.endpoints.get(node.0).map_or(0, Vec::len)
    }

    fn endpoint(&self, node: NodeId, port: PortId) -> Option<(usize, usize)> {
        let &(idx, dir) = self.endpoints.get(node.0)?.get(port.0)?;
        Some((idx as usize, dir as usize))
    }

    /// The `(peer node, peer port)` at the far end of `(node, port)`.
    pub(crate) fn peer(&self, node: NodeId, port: PortId) -> Option<(NodeId, PortId)> {
        let (idx, dir) = self.endpoint(node, port)?;
        let d = &self.links[idx].dirs[dir];
        Some((d.to_node, d.to_port))
    }

    /// Number of links.
    pub(crate) fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Hands a frame to the egress queue of `(node, port)`.
    pub(crate) fn transmit(
        &mut self,
        node: NodeId,
        port: PortId,
        frame: Frame,
        now: SimTime,
        net: &mut NetCtx<'_>,
    ) {
        let (idx, dir_idx) = self
            .endpoint(node, port)
            .unwrap_or_else(|| panic!("node {node:?} sent on unconnected port {port:?}"));
        let link = &mut self.links[idx];
        let spec = link.spec;
        let dir = &mut link.dirs[dir_idx];
        let len = frame.len();

        // Drop-tail queue admission. A frame only occupies queue space
        // while it waits for the transmitter; the frame being serialized
        // is not counted, matching switch output-port models.
        let start = if dir.busy_until > now { dir.busy_until } else { now };
        if start > now && dir.queued_bytes + len > spec.queue_bytes {
            net.stats.link_drop_overflow(idx, dir_idx, len);
            return;
        }

        // A scripted decision (consumed per admitted frame) overrides the
        // probabilistic profile entirely; an exhausted script falls back.
        let scripted = link.scripts[dir_idx].as_mut().and_then(LinkScript::pop);
        let (do_drop, do_corrupt, do_duplicate, extra_delay) = match scripted {
            Some(FaultDecision::Deliver) => (false, false, false, 0),
            Some(FaultDecision::Drop) => (true, false, false, 0),
            Some(FaultDecision::Duplicate) => (false, false, true, 0),
            Some(FaultDecision::Corrupt) => (false, true, false, 0),
            Some(FaultDecision::Delay(ns)) => (false, false, false, ns),
            None => {
                // Probabilistic faults draw from the direction's private
                // stream: decision k is a function of (seed, direction,
                // k), independent of all other traffic.
                let f = spec.faults;
                let rng = &mut dir.rng;
                let drop = f.drop > 0.0 && rng.random::<f64>() < f.drop;
                let corrupt = !drop && f.corrupt > 0.0 && rng.random::<f64>() < f.corrupt;
                let dup = !drop && f.duplicate > 0.0 && rng.random::<f64>() < f.duplicate;
                let delay = if !drop && f.reorder > 0.0 && rng.random::<f64>() < f.reorder {
                    f.reorder_ns
                } else {
                    0
                };
                (drop, corrupt, dup, delay)
            }
        };

        // Fault injection: drop.
        if do_drop {
            net.stats.link_drop_fault(idx, dir_idx, len);
            return;
        }

        // ECN admission check: like the drop-tail check above, a pure
        // function of transmitter state, so marking is deterministic.
        let do_mark = spec.ecn_threshold_bytes > 0
            && start > now
            && dir.queued_bytes + len > spec.ecn_threshold_bytes;

        // Serialization: the transmitter processes frames FIFO. Queue
        // space is released when serialization starts (the TxDone event).
        let tx_time = SimDuration::for_bytes(len, spec.bandwidth_bps);
        if start > now {
            dir.queued_bytes += len;
            net.queue.push(start, node, EventKind::TxDone { link: idx, dir: dir_idx, bytes: len });
        }
        let departure = start + tx_time;
        dir.busy_until = departure;

        // CE marking happens before corruption so an injected bit flip
        // can never be "repaired" by the marking checksum fix-up.
        let mut deliver_frame = frame;
        if do_mark {
            if deliver_frame.try_mut().is_none() {
                deliver_frame = net.pool.copy_from_slice(&deliver_frame);
            }
            // lint:allow(panic-hotpath): the branch above just replaced any shared frame
            // with a fresh pool copy, so exclusive access is guaranteed here.
            let owned = deliver_frame.try_mut().expect("fresh pool copy is unshared");
            if ecn_mark_ce(owned) {
                net.stats.link_ecn_mark(idx, dir_idx);
            }
        }

        // Corruption: flip one bit; receiver-side checksums detect it.
        // A frame still shared with its sender is copied through the pool
        // first; an exclusively owned one is flipped in place.
        if do_corrupt {
            if deliver_frame.try_mut().is_none() {
                deliver_frame = net.pool.copy_from_slice(&deliver_frame);
            }
            let rng = &mut dir.rng;
            // lint:allow(panic-hotpath): the branch above just replaced any shared frame
            // with a fresh pool copy, so exclusive access is guaranteed here.
            let owned = deliver_frame.try_mut().expect("fresh pool copy is unshared");
            if !owned.is_empty() {
                let pos = rng.random_range(0..owned.len());
                owned[pos] ^= 1 << rng.random_range(0..8u8);
            }
            net.stats.link_corrupt(idx, dir_idx);
        }

        // Reordering: hold the frame back past its natural arrival so
        // later transmissions overtake it.
        let mut arrival = departure + spec.latency;
        if extra_delay > 0 {
            arrival += SimDuration::from_nanos(extra_delay);
            net.stats.link_reorder(idx, dir_idx);
        }
        net.stats.link_tx(idx, dir_idx, len);

        // Duplication: deliver a second copy one nanosecond later (the
        // copy shares the buffer — one refcount bump, no allocation).
        if do_duplicate {
            net.stats.link_duplicate(idx, dir_idx);
        }
        let dup_frame = do_duplicate.then(|| deliver_frame.clone());
        let (to_node, to_port) = (dir.to_node, dir.to_port);
        net.queue.push(
            arrival,
            node,
            EventKind::Deliver { node: to_node, port: to_port, frame: deliver_frame },
        );
        if let Some(frame) = dup_frame {
            net.queue.push(
                arrival + SimDuration::from_nanos(1),
                node,
                EventKind::Deliver { node: to_node, port: to_port, frame },
            );
        }
    }

    /// Called when a `TxDone` event fires: frees queue space.
    pub(crate) fn tx_done(&mut self, link: usize, dir: usize, bytes: usize) {
        let d = &mut self.links[link].dirs[dir];
        d.queued_bytes = d.queued_bytes.saturating_sub(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Harness bundling the pieces `transmit` needs.
    struct Fixture {
        ports: PortTable,
        queue: EventQueue,
        stats: StatsTable,
        pool: FramePool,
    }

    fn fixture() -> Fixture {
        Fixture {
            ports: PortTable::with_seed(7),
            queue: EventQueue::new(),
            stats: StatsTable::default(),
            pool: FramePool::new(),
        }
    }

    impl Fixture {
        fn tx(&mut self, node: NodeId, port: PortId, frame: Frame, now: SimTime) {
            let mut net = NetCtx {
                queue: &mut self.queue,
                stats: &mut self.stats,
                pool: &self.pool,
            };
            self.ports.transmit(node, port, frame, now, &mut net);
        }
    }

    #[test]
    fn connect_assigns_sequential_ports() {
        let mut fx = fixture();
        let (a0, b0) = fx.ports.connect(NodeId(0), NodeId(1), LinkSpec::fast());
        let (a1, c0) = fx.ports.connect(NodeId(0), NodeId(2), LinkSpec::fast());
        assert_eq!(a0, PortId(0));
        assert_eq!(a1, PortId(1));
        assert_eq!(b0, PortId(0));
        assert_eq!(c0, PortId(0));
        assert_eq!(fx.ports.port_count(NodeId(0)), 2);
        assert_eq!(fx.ports.peer(NodeId(0), PortId(1)), Some((NodeId(2), PortId(0))));
        assert_eq!(fx.ports.link_count(), 2);
    }

    #[test]
    fn transmission_serializes_back_to_back_frames() {
        let mut fx = fixture();
        let spec = LinkSpec {
            bandwidth_bps: 8_000_000_000, // 1 byte per ns
            latency: SimDuration::from_nanos(100),
            queue_bytes: 1 << 20,
            ecn_threshold_bytes: 0,
            faults: FaultProfile::NONE,
        };
        fx.ports.connect(NodeId(0), NodeId(1), spec);
        let frame = Frame::from(vec![0u8; 1000]);
        fx.tx(NodeId(0), PortId(0), frame.clone(), SimTime::ZERO);
        fx.tx(NodeId(0), PortId(0), frame, SimTime::ZERO);

        // Collect delivery times.
        let mut deliveries = vec![];
        while let Some(ev) = fx.queue.pop() {
            if let EventKind::Deliver { .. } = ev.kind {
                deliveries.push(ev.time);
            }
        }
        // First: 1000 ns tx + 100 ns prop; second: serialized after the first.
        assert_eq!(deliveries, vec![SimTime(1_100), SimTime(2_100)]);
    }

    #[test]
    fn queue_overflow_drops() {
        let mut fx = fixture();
        let spec = LinkSpec {
            bandwidth_bps: 8_000, // 1 byte per ms: transmitter stays busy
            latency: SimDuration::ZERO,
            queue_bytes: 1500,
            ecn_threshold_bytes: 0,
            faults: FaultProfile::NONE,
        };
        fx.ports.connect(NodeId(0), NodeId(1), spec);
        let frame = Frame::from(vec![0u8; 1000]);
        // First frame starts serializing (not queued); the second occupies
        // 1000 of 1500 queue bytes; the third does not fit.
        for _ in 0..3 {
            fx.tx(NodeId(0), PortId(0), frame.clone(), SimTime::ZERO);
        }
        let link_stats = fx.stats.link(0);
        assert_eq!(link_stats.dirs[0].drops_overflow, 1);
        assert_eq!(link_stats.dirs[0].tx_frames, 2);
    }

    #[test]
    fn tx_done_frees_queue_space() {
        let mut fx = fixture();
        let spec = LinkSpec {
            bandwidth_bps: 8_000_000,
            latency: SimDuration::ZERO,
            queue_bytes: 1000,
            ecn_threshold_bytes: 0,
            faults: FaultProfile::NONE,
        };
        fx.ports.connect(NodeId(0), NodeId(1), spec);
        let frame = Frame::from(vec![0u8; 800]);
        let t0 = SimTime::ZERO;
        fx.tx(NodeId(0), PortId(0), frame.clone(), t0);
        fx.tx(NodeId(0), PortId(0), frame.clone(), t0);
        // Queue holds 800 bytes; a third 800-byte frame would overflow now...
        fx.tx(NodeId(0), PortId(0), frame.clone(), t0);
        assert_eq!(fx.stats.link(0).dirs[0].drops_overflow, 1);
        // ...but after the first TxDone the space is reclaimed.
        fx.ports.tx_done(0, 0, 800);
        let later = SimTime(1);
        fx.tx(NodeId(0), PortId(0), frame, later);
        assert_eq!(fx.stats.link(0).dirs[0].drops_overflow, 1); // no new drop
    }

    #[test]
    fn loss_fault_drops_statistically() {
        let mut fx = fixture();
        let spec = LinkSpec::fast().with_faults(FaultProfile::loss(0.5));
        fx.ports.connect(NodeId(0), NodeId(1), spec);
        let frame = Frame::from(vec![0u8; 64]);
        for i in 0..1000 {
            fx.tx(NodeId(0), PortId(0), frame.clone(), SimTime(i * 1_000_000));
        }
        let dropped = fx.stats.link(0).dirs[0].drops_fault;
        assert!((300..700).contains(&dropped), "dropped {dropped} of 1000 at p=0.5");
    }

    /// Fate of frame k on a direction ignores all other traffic: a second
    /// flow hammering an unrelated link between draws must not shift which
    /// frames the first link drops. (With the old simulator-wide RNG the
    /// interleaved draws made the two runs diverge.)
    #[test]
    fn fault_outcomes_ignore_unrelated_traffic() {
        let survivors = |interfere: bool| {
            let mut fx = fixture();
            let lossy = LinkSpec::fast().with_faults(FaultProfile::loss(0.5));
            fx.ports.connect(NodeId(0), NodeId(1), lossy);
            fx.ports.connect(NodeId(2), NodeId(3), lossy);
            for i in 0..200u64 {
                fx.tx(NodeId(0), PortId(0), Frame::from(vec![i as u8; 8]), SimTime(i * 1_000_000));
                if interfere {
                    // Unrelated traffic drawing from what used to be the
                    // same generator.
                    fx.tx(NodeId(2), PortId(0), Frame::from_slice(b"noise"), SimTime(i * 1_000_000));
                    fx.tx(NodeId(2), PortId(0), Frame::from_slice(b"noise"), SimTime(i * 1_000_000));
                }
            }
            let mut ids = vec![];
            while let Some(ev) = fx.queue.pop() {
                if let EventKind::Deliver { node, frame, .. } = ev.kind {
                    if node == NodeId(1) {
                        ids.push(frame[0]);
                    }
                }
            }
            ids
        };
        let clean = survivors(false);
        let noisy = survivors(true);
        assert!(!clean.is_empty() && clean.len() < 200, "loss should be partial");
        assert_eq!(clean, noisy, "unrelated traffic changed fault outcomes");
    }

    /// Fault streams are keyed by the link's endpoints, not its
    /// registration index: connecting the same links in a different order
    /// leaves every per-frame fate unchanged.
    #[test]
    fn fault_streams_ignore_link_registration_order(){
        let survivors = |flipped: bool| {
            let mut fx = fixture();
            let lossy = LinkSpec::fast().with_faults(FaultProfile::loss(0.5));
            if flipped {
                fx.ports.connect(NodeId(2), NodeId(3), lossy);
                fx.ports.connect(NodeId(0), NodeId(1), lossy);
            } else {
                fx.ports.connect(NodeId(0), NodeId(1), lossy);
                fx.ports.connect(NodeId(2), NodeId(3), lossy);
            }
            for i in 0..200u64 {
                fx.tx(NodeId(0), PortId(0), Frame::from(vec![i as u8; 8]), SimTime(i * 1_000_000));
            }
            let mut ids = vec![];
            while let Some(ev) = fx.queue.pop() {
                if let EventKind::Deliver { node, frame, .. } = ev.kind {
                    if node == NodeId(1) {
                        ids.push(frame[0]);
                    }
                }
            }
            ids
        };
        let a = survivors(false);
        let b = survivors(true);
        assert!(!a.is_empty() && a.len() < 200, "loss should be partial");
        assert_eq!(a, b, "link registration order changed fault outcomes");
    }

    #[test]
    fn corruption_changes_exactly_one_bit() {
        let mut fx = fixture();
        let spec = LinkSpec::fast().with_faults(FaultProfile { corrupt: 1.0, ..FaultProfile::NONE });
        fx.ports.connect(NodeId(0), NodeId(1), spec);
        let original = vec![0xAAu8; 128];
        fx.tx(NodeId(0), PortId(0), Frame::from(original.clone()), SimTime::ZERO);
        let delivered = loop {
            match fx.queue.pop().expect("delivery scheduled").kind {
                EventKind::Deliver { frame, .. } => break frame,
                _ => continue,
            }
        };
        let diff_bits: u32 = original
            .iter()
            .zip(delivered.iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff_bits, 1);
        assert_eq!(fx.stats.link(0).dirs[0].corrupted, 1);
    }

    #[test]
    fn duplication_delivers_twice() {
        let mut fx = fixture();
        let spec = LinkSpec::fast().with_faults(FaultProfile { duplicate: 1.0, ..FaultProfile::NONE });
        fx.ports.connect(NodeId(0), NodeId(1), spec);
        fx.tx(NodeId(0), PortId(0), Frame::from_slice(b"abc"), SimTime::ZERO);
        let deliveries = std::iter::from_fn(|| fx.queue.pop())
            .filter(|e| matches!(e.kind, EventKind::Deliver { .. }))
            .count();
        assert_eq!(deliveries, 2);
    }

    #[test]
    fn reorder_fault_delays_delivery() {
        let mut fx = fixture();
        let spec = LinkSpec::fast()
            .with_faults(FaultProfile { reorder: 1.0, reorder_ns: 5_000, ..FaultProfile::NONE });
        fx.ports.connect(NodeId(0), NodeId(1), spec);
        fx.tx(NodeId(0), PortId(0), Frame::from_slice(b"abc"), SimTime::ZERO);
        let arrival = loop {
            match fx.queue.pop().expect("delivery scheduled").kind {
                EventKind::Deliver { .. } => break fx.queue.peek_time(),
                _ => continue,
            }
        };
        let _ = arrival;
        assert_eq!(fx.stats.link(0).dirs[0].reordered, 1);
    }

    #[test]
    fn scripted_decisions_apply_per_frame_then_fall_back() {
        let mut fx = fixture();
        // Clean profile; the script is the only fault source.
        fx.ports.connect(NodeId(0), NodeId(1), LinkSpec::fast());
        fx.ports.set_script(
            0,
            0,
            LinkScript::new([
                FaultDecision::Deliver,
                FaultDecision::Drop,
                FaultDecision::Duplicate,
                FaultDecision::Delay(10_000),
            ]),
        );
        let frame = Frame::from_slice(b"frame");
        for i in 0..6 {
            fx.tx(NodeId(0), PortId(0), frame.clone(), SimTime(i * 1_000_000));
        }
        let deliveries = std::iter::from_fn(|| fx.queue.pop())
            .filter(|e| matches!(e.kind, EventKind::Deliver { .. }))
            .count();
        // Frame 0 delivered, 1 dropped, 2 duplicated (×2), 3 delayed,
        // 4 and 5 past the script → delivered cleanly: 6 deliveries.
        assert_eq!(deliveries, 6);
        let d = fx.stats.link(0).dirs[0];
        assert_eq!(d.drops_fault, 1);
        assert_eq!(d.duplicated, 1);
        assert_eq!(d.reordered, 1);
    }

    #[test]
    fn nth_frame_script_targets_exactly_one_frame() {
        let script = LinkScript::nth_frame(3, FaultDecision::Drop);
        assert_eq!(script.remaining(), 4);
        let decisions: Vec<FaultDecision> =
            (0..4).map(|_| script.clone().pop().unwrap()).collect();
        assert_eq!(decisions[0], FaultDecision::Deliver);
        let mut script = script;
        for _ in 0..3 {
            assert_eq!(script.pop(), Some(FaultDecision::Deliver));
        }
        assert_eq!(script.pop(), Some(FaultDecision::Drop));
        assert_eq!(script.pop(), None);
    }

    #[test]
    fn adversarial_script_is_deterministic_in_its_seed() {
        let profile = FaultProfile::chaos(0.2, 0.2, 0.2, 1_000);
        let a = LinkScript::adversarial(7, 500, profile);
        let b = LinkScript::adversarial(7, 500, profile);
        let c = LinkScript::adversarial(8, 500, profile);
        assert_eq!(a.decisions, b.decisions);
        assert_ne!(a.decisions, c.decisions, "different seeds should diverge");
        // Marginal rates are roughly honored.
        let drops = a.decisions.iter().filter(|d| **d == FaultDecision::Drop).count();
        assert!((50..150).contains(&drops), "drops {drops} of 500 at p=0.2");
    }

    #[test]
    #[should_panic(expected = "unconnected port")]
    fn sending_on_unconnected_port_panics() {
        let mut fx = fixture();
        fx.tx(NodeId(0), PortId(0), Frame::new(), SimTime::ZERO);
    }

    /// A minimal valid IPv4-over-Ethernet frame (IHL=5, correct header
    /// checksum) whose IP total length is `20 + payload_len`.
    fn ipv4_frame(payload_len: usize) -> Frame {
        let mut b = vec![0u8; 14 + 20 + payload_len];
        b[12] = 0x08; // ethertype IPv4
        b[14] = 0x45; // version 4, IHL 5
        b[16..18].copy_from_slice(&((20 + payload_len) as u16).to_be_bytes());
        b[22] = 64; // TTL
        b[23] = 17; // UDP
        let ck = !fold_header(&b);
        b[24..26].copy_from_slice(&ck.to_be_bytes());
        Frame::from(b)
    }

    /// RFC 1071 fold over the 20 IPv4 header bytes.
    fn fold_header(frame: &[u8]) -> u16 {
        let mut sum = 0u32;
        for i in (14..34).step_by(2) {
            sum += u32::from(u16::from_be_bytes([frame[i], frame[i + 1]]));
        }
        while sum >> 16 != 0 {
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
        sum as u16
    }

    #[test]
    fn ecn_marks_on_queue_buildup_and_repairs_the_checksum() {
        let mut fx = fixture();
        let spec = LinkSpec {
            bandwidth_bps: 8_000, // 1 byte per ms: transmitter saturates
            latency: SimDuration::ZERO,
            queue_bytes: 1 << 20,
            ecn_threshold_bytes: 100,
            faults: FaultProfile::NONE,
        };
        fx.ports.connect(NodeId(0), NodeId(1), spec);
        for _ in 0..4 {
            fx.tx(NodeId(0), PortId(0), ipv4_frame(66), SimTime::ZERO); // 100 wire bytes
        }
        // Frame 0 serializes immediately (no queue); frame 1 queues exactly
        // 100 bytes (not > threshold); frames 2 and 3 exceed it.
        assert_eq!(fx.stats.link(0).dirs[0].ecn_marked, 2);
        let frames: Vec<Frame> = std::iter::from_fn(|| fx.queue.pop())
            .filter_map(|e| match e.kind {
                EventKind::Deliver { frame, .. } => Some(frame),
                _ => None,
            })
            .collect();
        assert_eq!(frames.len(), 4);
        for (i, f) in frames.iter().enumerate() {
            let marked = f[15] & 0b11 == 0b11;
            assert_eq!(marked, i >= 2, "frame {i} marking");
            // The header checksum must verify whether marked or not.
            assert_eq!(fold_header(f), 0xFFFF, "frame {i} checksum broken");
        }
    }

    #[test]
    fn ecn_ignores_non_ipv4_frames() {
        let mut fx = fixture();
        let spec = LinkSpec {
            bandwidth_bps: 8_000,
            latency: SimDuration::ZERO,
            queue_bytes: 1 << 20,
            ecn_threshold_bytes: 10,
            faults: FaultProfile::NONE,
        };
        fx.ports.connect(NodeId(0), NodeId(1), spec);
        let raw = Frame::from(vec![0xEEu8; 64]); // no IPv4 ethertype
        for _ in 0..4 {
            fx.tx(NodeId(0), PortId(0), raw.clone(), SimTime::ZERO);
        }
        assert_eq!(fx.stats.link(0).dirs[0].ecn_marked, 0);
        let delivered: Vec<Frame> = std::iter::from_fn(|| fx.queue.pop())
            .filter_map(|e| match e.kind {
                EventKind::Deliver { frame, .. } => Some(frame),
                _ => None,
            })
            .collect();
        assert!(delivered.iter().all(|f| f[..] == raw[..]), "bytes must be untouched");
    }
}
