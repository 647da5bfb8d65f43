//! The end-host side of DAIET: packetizing map output into fixed-size
//! pair packets (sender) and collecting unordered aggregated results
//! (reducer).
//!
//! §4: partitions travel as "UDP packets containing a small preamble and a
//! sequence of key-value pairs … we use a fixed-size representation for
//! the pairs, so that it is easy to calculate the offsets of pairs in the
//! file and extract a number of complete pairs" — i.e. packetization never
//! splits a pair. "Finally, the end of the transmission is marked by a
//! special END packet." On the receive side, "the intermediate results
//! must be sorted at the reducer rather than at the mapper".
//!
//! The sender takes §4 at its word: packet `i` of a partition is an
//! offset computation ([`Packetizer`]'s one policy), so nothing is
//! serialized ahead of time. [`plan_round`] returns a [`RoundSchedule`]
//! that holds a handle ([`Shard`]) to each part's map output: the
//! caller's own buffer when it shares one, never a copy of it. A shard is
//! either plain pairs or [`CodedPairs`] — one 4-byte code per record into
//! a key dictionary, a fifth of the pairs' 20 bytes — which the sender
//! decodes into each frame as it builds it. [`PacedSenderNode`] builds
//! each frame from the fabric's pool at the tick it transmits it, so
//! frames exist only while in flight, the pool recycles from the first
//! job on, and a NACKed `(tree, seq)` is rebuilt from the same shard
//! instead of being retained — retention is the handle.
//! [`Packetizer::frames_from_seq`] + [`interleave_round_robin`] remain as
//! the eager reference the streamed order is tested against.

use crate::agg::AggFn;
use crate::config::DaietConfig;
use crate::reliability::seq_after;
use daiet_dataplane::parser::{parse, ParsedPacket, ParserConfig};
use daiet_fabric::{Duration, Fabric, Frame, FramePool, Node, PortId, Time};
use daiet_wire::daiet::{self, Header, Key, NackRange, PacketFlags, PacketType, Pair, Repr};
use daiet_wire::fnv::{Entry, FnvHashMap, KeyMap};
use daiet_wire::stack::{build_daiet_entries_into, build_daiet_into, Endpoints};
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;

/// Parser settings for an end host NIC stack: checksums verified, but no
/// parse-depth limit (hosts are CPUs, not line-rate parsers). Shared by
/// every host-side receiver ([`ReducerHost`] here, the querysim
/// coordinator, …) so host parsing semantics cannot diverge.
pub fn host_parser_config() -> ParserConfig {
    ParserConfig { max_parse_bytes: usize::MAX, verify_checksums: true }
}

/// The host receive prologue shared by every DAIET receiver
/// ([`ReducerHost`], the querysim coordinator): parse with host settings
/// (checksum failures and non-DAIET noise dropped, as a NIC would) and
/// extract the preamble plus the sender address. `None` means "ignore
/// this frame"; otherwise the caller applies its own admission (NACK
/// gap tracking, tree demux — *in its own order*: a coordinator discards
/// foreign tree ids before charging gap-tracker state) and consumes the
/// entries via
/// [`ParsedPacket::daiet_pairs`](daiet_dataplane::parser::ParsedPacket::daiet_pairs).
pub fn receive_daiet(frame: Frame) -> Option<(Header, daiet_wire::Ipv4Address, ParsedPacket)> {
    let parsed = parse(frame, &host_parser_config()).ok()?;
    let hdr = parsed.daiet?;
    let src = parsed.ip.as_ref()?.src_addr;
    Some((hdr, src, parsed))
}

/// Builds the standard multi-tree UDP sender from borrowed partitions
/// (`(tree, endpoints, pairs)`): [`one_shot_sender`] over a copy of the
/// pairs. Runners that own or share their pair buffers call
/// [`one_shot_sender`] and copy nothing. `_copies` and `_pool` are inert:
/// every frame is sent once, built from the node's own fabric's pool at
/// its transmit tick. Both stay only because the tracked benchmark calls
/// this signature; the next `benchmark` issue removes them.
pub fn multi_tree_sender(
    config: &DaietConfig,
    sender_index: usize,
    partitions: &[(u16, Endpoints, Vec<Pair>)],
    _copies: u32,
    gap: Duration,
    _pool: &FramePool,
    label: &'static str,
) -> PacedSenderNode {
    let parts = partitions.iter().map(|(tree, ep, pairs)| (*tree, *ep, pairs.clone()));
    one_shot_sender(config, sender_index, parts, gap, label)
}

/// The one construction behind every bulk sender (the MapReduce mappers,
/// the querysim workers, the loopback mappers): a [`PacedSenderNode`]
/// streaming one round of `partitions` round-robin from a
/// sender-specific offset, replay-armed when `config.nack_recovery` is
/// on.
pub fn one_shot_sender<P: Into<Shard>>(
    config: &DaietConfig,
    sender_index: usize,
    partitions: impl IntoIterator<Item = (u16, Endpoints, P)>,
    gap: Duration,
    label: &'static str,
) -> PacedSenderNode {
    // A one-shot sender is a one-round iterative sender: every tree's
    // sequence space starts at 0 and there is no next round.
    let mut next_seq = FnvHashMap::default();
    let round = plan_round(config, partitions, &mut next_seq, sender_index);
    let mut node = PacedSenderNode::new(Vec::new(), gap, label);
    if config.nack_recovery {
        node.arm_replay();
    }
    node.enqueue_round(round);
    node
}

/// Plans one round of multi-tree output — the one planning routine
/// behind every bulk sender (the MapReduce mappers, the querysim workers,
/// each [`JobScheduler`](crate::tenant::JobScheduler) round).
///
/// Each `(tree, endpoints, pairs)` part continues that tree's wrapping
/// sequence space from `next_seq` (updated in place to the next free
/// number). Nothing is serialized and no pair is copied here: the
/// returned [`RoundSchedule`] holds each part's map output as a [`Shard`]
/// (an owned `Vec<Pair>` moves into a fresh handle, an `Arc<Vec<Pair>>`
/// or `Arc<CodedPairs>` is the caller's buffer at the cost of a refcount;
/// a caller that only borrows its pairs copies them itself) and builds
/// frame after frame on demand, round-robin across the parts starting at
/// `offset % parts` (fairness: callers rotate the offset so no tree is
/// permanently drained first).
pub fn plan_round<P: Into<Shard>>(
    config: &DaietConfig,
    parts: impl IntoIterator<Item = (u16, Endpoints, P)>,
    next_seq: &mut FnvHashMap<u16, u32>,
    offset: usize,
) -> RoundSchedule {
    let packetizer = Packetizer::new(config);
    let parts: Vec<RoundPart> = parts
        .into_iter()
        .map(|(tree, endpoints, shard)| {
            let shard: Shard = shard.into();
            let base_seq = next_seq.get(&tree).copied().unwrap_or(0);
            let packets = packetizer.packet_count(shard.len());
            let packetizer = packetizer.clone();
            let part = RoundPart { packetizer, tree, endpoints, shard, base_seq, packets, sent: 0 };
            next_seq.insert(tree, part.end_seq());
            part
        })
        .collect();
    RoundSchedule {
        turn: offset % parts.len().max(1),
        remaining: parts.iter().map(|p| p.packets).sum(),
        parts,
    }
}

/// A sender's input for one tree: the map output it owes the tree,
/// immutable and possibly shared with the caller and with other senders'
/// parts (`Arc`, because the loopback backend runs senders on driver
/// threads while the buffer's owner stays behind).
#[derive(Debug, Clone)]
pub enum Shard {
    /// Fixed-size pairs, sliced straight into frames.
    Pairs(Arc<Vec<Pair>>),
    /// Dictionary codes, decoded pair by pair into each frame.
    Coded(Arc<CodedPairs>),
}

impl Shard {
    /// Records in the shard.
    fn len(&self) -> usize {
        match self {
            Shard::Pairs(pairs) => pairs.len(),
            Shard::Coded(coded) => coded.len(),
        }
    }
}

impl From<Vec<Pair>> for Shard {
    fn from(pairs: Vec<Pair>) -> Shard {
        Shard::Pairs(Arc::new(pairs))
    }
}

impl From<Arc<Vec<Pair>>> for Shard {
    fn from(pairs: Arc<Vec<Pair>>) -> Shard {
        Shard::Pairs(pairs)
    }
}

impl From<Arc<CodedPairs>> for Shard {
    fn from(coded: Arc<CodedPairs>) -> Shard {
        Shard::Coded(coded)
    }
}

/// Map output held as one 4-byte code per record: code `c` is the pair
/// `(keys[c >> 4], c & 0xf)`. A WordCount mapper's records repeat the
/// same few words across every mapper with counts below 16, so a
/// dictionary shared by all of a reducer's partitions plus a code per
/// record is a fifth of §4's 20-byte pairs; the wire form is rebuilt
/// only inside the frame that carries it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodedPairs {
    /// The dictionary the codes index, shared between partitions.
    pub keys: Arc<[Key]>,
    /// One code per record: dictionary index `<< VALUE_BITS | value`.
    pub codes: Vec<u32>,
}

impl CodedPairs {
    /// Bits of a code that hold the record's value.
    pub const VALUE_BITS: u32 = 4;
    /// Dictionary indices a code can hold.
    const MAX_KEYS: usize = 1 << (32 - Self::VALUE_BITS);

    /// The code of the record `(keys[index], value)`. Panics unless
    /// `value < 16` and `index < 2^28`.
    pub fn code(index: usize, value: u32) -> u32 {
        assert!(value < 1 << Self::VALUE_BITS, "value {value} does not fit a code");
        assert!(index < Self::MAX_KEYS, "dictionary index {index} does not fit a code");
        (index as u32) << Self::VALUE_BITS | value
    }

    /// Records held.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether no record is held.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The record `code` stands for.
    #[inline]
    fn decode(&self, code: u32) -> Pair {
        let value = code & ((1 << Self::VALUE_BITS) - 1);
        Pair::new(self.keys[(code >> Self::VALUE_BITS) as usize], value)
    }

    /// The records `range`, decoded in order.
    fn decoded(&self, range: Range<usize>) -> impl ExactSizeIterator<Item = Pair> + '_ {
        self.codes[range].iter().map(|&code| self.decode(code))
    }

    /// Every record, decoded in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Pair> + '_ {
        self.decoded(0..self.len())
    }

    /// Every record as a plain pair, in order.
    pub fn to_vec(&self) -> Vec<Pair> {
        self.iter().collect()
    }
}

/// One tree's share of a round: the map output a sender owes the tree,
/// where its packets sit in the tree's sequence space, and how many of
/// them have been transmitted.
#[derive(Debug)]
struct RoundPart {
    packetizer: Packetizer,
    tree: u16,
    endpoints: Endpoints,
    shard: Shard,
    /// Sequence number of the part's first packet (wrapping space).
    base_seq: u32,
    /// Packets the pairs packetize into: the DATA packets plus the END.
    packets: usize,
    /// Packets transmitted so far.
    sent: usize,
}

impl RoundPart {
    /// One past the sequence number of this part's END.
    fn end_seq(&self) -> u32 {
        self.base_seq.wrapping_add(self.packets as u32)
    }

    /// Serializes packet `index` of this part into a buffer from `pool`;
    /// `None` past the part's END. A coded shard's records are decoded
    /// straight into the frame.
    fn frame_at(&self, index: usize, pool: &FramePool) -> Option<Frame> {
        let (hdr, range) =
            self.packetizer.packet_at(self.tree, self.shard.len(), self.base_seq, index)?;
        let mut buf = pool.buffer();
        let (ep, port) = (&self.endpoints, daiet_wire::udp::DAIET_PORT);
        match &self.shard {
            Shard::Pairs(pairs) => build_daiet_into(&mut buf, ep, port, &hdr, &pairs[range]),
            Shard::Coded(coded) => {
                build_daiet_entries_into(&mut buf, ep, port, &hdr, coded.decoded(range));
            }
        }
        Some(pool.frame(buf))
    }
}

/// One round's transmit schedule, streamed: the round's parts plus a
/// round-robin cursor. [`PacedSenderNode`] asks it for one frame per
/// pacing tick, so a frame exists only from its tick until the last hop
/// lets go of it; the handles to the pairs stay behind as the round's
/// NACK-replay retention, from which any `(tree, seq)` is rebuilt by
/// offset (§4's fixed-size pairs — or codes — make frame `i` of a part
/// records `10i .. 10i + 10`).
///
/// The frames, their order and their count are those of
/// [`Packetizer::frames_from_seq`] per part, interleaved by
/// [`interleave_round_robin`] — the eager reference the tests compare
/// against.
#[derive(Debug)]
pub struct RoundSchedule {
    parts: Vec<RoundPart>,
    /// The part whose turn it is (parts with nothing left are skipped).
    turn: usize,
    /// Frames not yet built.
    remaining: usize,
}

impl RoundSchedule {
    /// Builds the next frame of the schedule into a buffer from `pool`;
    /// `None` once the round is fully transmitted.
    fn next_frame(&mut self, pool: &FramePool) -> Option<Frame> {
        if self.remaining == 0 {
            return None;
        }
        while self.parts[self.turn].sent == self.parts[self.turn].packets {
            self.turn = (self.turn + 1) % self.parts.len();
        }
        let part = &mut self.parts[self.turn];
        let frame = part.frame_at(part.sent, pool)?;
        self.remaining -= 1;
        part.sent += 1;
        self.turn = (self.turn + 1) % self.parts.len();
        Some(frame)
    }
}

/// Builds the standard DAIET receive endpoint for reducer `r` of `dep`
/// at plan `slot`: a [`ReducerHost`] expecting the deployment's END
/// count over `mappers`, with NACK recovery (and with it duplicate
/// suppression) armed per `config` — the one construction behind every
/// controller-deployed reducer (the MapReduce reducers, the loopback
/// jobs).
pub fn reducer_host(
    config: &DaietConfig,
    agg: AggFn,
    dep: &crate::controller::Deployment,
    r: usize,
    slot: usize,
    mappers: &[usize],
) -> ReducerHost {
    let mut reducer = ReducerHost::new(agg, dep.expected_ends(r, mappers.len()));
    if config.nack_recovery {
        reducer = reducer.with_nack_recovery(slot as u32, config, dep.nack_sources(r, mappers));
    }
    reducer
}

/// Splits a partition of pairs into DAIET packets.
#[derive(Debug, Clone)]
pub struct Packetizer {
    pairs_per_packet: usize,
}

impl Packetizer {
    /// A packetizer following `config`.
    pub fn new(config: &DaietConfig) -> Packetizer {
        Packetizer { pairs_per_packet: config.pairs_per_packet.max(1) }
    }

    /// Serializes `pairs` into DATA packets of at most `pairs_per_packet`
    /// entries, terminated by an END packet. Sequence numbers count up
    /// from 0 (used only by NACK recovery; harmless otherwise).
    pub fn packets(&self, tree_id: u16, pairs: &[Pair]) -> Vec<Repr> {
        self.packets_from_seq(tree_id, pairs, 0).0
    }

    /// Packets `n_pairs` pairs packetize into: the DATA packets plus the
    /// trailing END.
    fn packet_count(&self, n_pairs: usize) -> usize {
        n_pairs.div_ceil(self.pairs_per_packet) + 1
    }

    /// The packetization policy, in one place: preamble and entry range
    /// (empty for the trailing END) of packet `index` of a partition of
    /// `n_pairs` records numbered from `start_seq`; `None` past the END.
    /// Fixed-size records make this an offset computation (§4), which is
    /// what lets a sender build frame `index` at its transmit tick and
    /// rebuild it for a NACK. Sequence numbers live in a wrapping 32-bit
    /// space (long-lived iterative senders cross `u32::MAX`; the gap
    /// trackers compare RFC 1982-style).
    fn packet_at(
        &self,
        tree_id: u16,
        n_pairs: usize,
        start_seq: u32,
        index: usize,
    ) -> Option<(Header, Range<usize>)> {
        let seq = start_seq.wrapping_add(index as u32);
        let lo = index.checked_mul(self.pairs_per_packet)?;
        if lo < n_pairs {
            let hi = n_pairs.min(lo + self.pairs_per_packet);
            Some((Header::data(tree_id, PacketFlags::empty(), seq), lo..hi))
        } else if index + 1 == self.packet_count(n_pairs) {
            Some((Header::end(tree_id, PacketFlags::empty(), seq), 0..0))
        } else {
            None
        }
    }

    /// Calls `f` once per packet of [`packet_at`](Self::packet_at), in
    /// order; returns the next free sequence number. The owned-[`Repr`],
    /// the eager pooled-frame and the streamed paths all go through
    /// `packet_at`, so they cannot drift apart.
    fn each_packet(
        &self,
        tree_id: u16,
        pairs: &[Pair],
        start_seq: u32,
        mut f: impl FnMut(&Header, &[Pair]),
    ) -> u32 {
        let mut index = 0;
        while let Some((hdr, range)) = self.packet_at(tree_id, pairs.len(), start_seq, index) {
            f(&hdr, &pairs[range]);
            index += 1;
        }
        start_seq.wrapping_add(index as u32)
    }

    /// Like [`Packetizer::packets`] but numbering from `start_seq`,
    /// returning the next free sequence number. Iterative senders running
    /// under NACK recovery must keep sequence numbers monotonic across
    /// rounds so duplicate suppression stays sound.
    pub fn packets_from_seq(
        &self,
        tree_id: u16,
        pairs: &[Pair],
        start_seq: u32,
    ) -> (Vec<Repr>, u32) {
        let mut out = Vec::with_capacity(pairs.len().div_ceil(self.pairs_per_packet) + 1);
        let next = self.each_packet(tree_id, pairs, start_seq, |hdr, chunk| {
            out.push(Repr {
                packet_type: hdr.packet_type,
                tree_id: hdr.tree_id,
                flags: hdr.flags,
                seq: hdr.seq,
                entries: chunk.to_vec(),
            });
        });
        (out, next)
    }

    /// Like [`Packetizer::packets_from_seq`] but fully framed for the
    /// wire, every frame serialized straight into a pooled buffer (no
    /// intermediate `Repr`s or entry lists) — the eager form of what
    /// [`PacedSenderNode`] streams. Each round's frames continue the
    /// tree's wrapping sequence space so receiver-side gap tracking
    /// stays sound across rounds (a restart from 0 would read as a giant
    /// stale duplicate).
    pub fn frames_from_seq(
        &self,
        tree_id: u16,
        pairs: &[Pair],
        endpoints: &Endpoints,
        src_port: u16,
        start_seq: u32,
        pool: &FramePool,
    ) -> (Vec<Frame>, u32) {
        let mut out = Vec::with_capacity(pairs.len().div_ceil(self.pairs_per_packet) + 1);
        let next = self.each_packet(tree_id, pairs, start_seq, |hdr, chunk| {
            let mut buf = pool.buffer();
            build_daiet_into(&mut buf, endpoints, src_port, hdr, chunk);
            out.push(pool.frame(buf));
        });
        (out, next)
    }
}

/// Interleaves per-tree frame queues round-robin starting at queue
/// `offset` (each queue's internal order is preserved, so every END still
/// trails its tree's data) — the shared transmit-scheduling policy of
/// every multi-tree sender. Starting different senders at different
/// offsets spreads the fan-in to any one reducer over time.
pub fn interleave_round_robin(mut queues: Vec<Vec<Frame>>, offset: usize) -> Vec<Frame> {
    let mut out = Vec::new();
    if queues.is_empty() {
        return out;
    }
    let n = queues.len();
    let mut cursors = vec![0usize; n];
    let mut remaining: usize = queues.iter().map(Vec::len).sum();
    out.reserve(remaining);
    let mut t = offset % n;
    while remaining > 0 {
        if cursors[t] < queues[t].len() {
            out.push(std::mem::take(&mut queues[t][cursors[t]]));
            cursors[t] += 1;
            remaining -= 1;
        }
        t = (t + 1) % n;
    }
    out
}

/// A host that transmits at a fixed pace: one frame per `gap` tick,
/// starting at simulation start. The transmit half shared by every bulk
/// UDP sender (the MapReduce mappers, the querysim workers, the tenant
/// and iterative senders). It holds no prebuilt schedule: each tick first
/// drains the *ready queue* (frames handed to [`new`](Self::new), paced
/// NACK replays) and otherwise asks the oldest unfinished
/// [`RoundSchedule`] to build its next frame into a buffer from the
/// fabric's pool. One-shot senders carry one round from construction
/// ([`one_shot_sender`]); iterative senders start empty and are fed one
/// round at a time through [`enqueue_round`](Self::enqueue_round) (see
/// [`JobScheduler::begin_round`](crate::tenant::JobScheduler::begin_round),
/// which also restarts the pacing timer from outside, via the backend's
/// own timer facility, tagged with [`pacing_token`](Self::pacing_token)).
pub struct PacedSenderNode {
    /// Built frames awaiting their tick, sent before anything streamed.
    ready: VecDeque<Frame>,
    /// Streamed rounds, oldest first. With replay armed a transmitted
    /// round stays until [`retire_round`](Self::retire_round): its handles
    /// to the pairs are the NACK-replay retention, dense per tree across
    /// rounds.
    rounds: VecDeque<RoundSchedule>,
    gap: Duration,
    label: &'static str,
    /// Whether NACKs are answered (off — then incoming frames are
    /// ignored — unless recovery is configured).
    replay_armed: bool,
    /// Straggler throttle: the pacing gap is multiplied by this factor
    /// (1 = full speed). Scripted by chaos harnesses to model a slow
    /// worker without changing its transmit schedule.
    slowdown: u32,
    /// Congestion backoff multiplier on top of `slowdown`, driven by
    /// NACKs when [`enable_nack_backoff`](Self::enable_nack_backoff) was
    /// called; reset to 1 at each round barrier.
    backoff: u32,
    /// Whether receiving a NACK doubles `backoff` — the DAIET-side
    /// response to queue-buildup loss. Off by default: the paper's
    /// sender is open-loop. The closed-loop sender also *paces* its
    /// replays (they join the ready queue at the backed-off gap) instead
    /// of bursting them — a burst into the very queue that just
    /// overflowed only compounds the loss.
    nack_backoff: bool,
    /// Whether a pacing timer is currently in flight, so a paced replay
    /// arriving after the queue ran dry can restart the chain exactly
    /// once. Maintained here and by [`enqueue_round`](Self::enqueue_round)
    /// (whose caller schedules the round's first tick).
    timer_armed: bool,
    /// Generation of the pacing chain: every pacing timer carries it as
    /// its token, and [`on_revive`](Node::on_revive) advances it before
    /// starting a fresh chain, so a pre-kill timer that falls due after
    /// the revive is recognised as stale instead of doubling the rate.
    pacing_token: u64,
    /// Frames re-sent in response to NACKs.
    pub frames_replayed: u64,
    /// NACK frames received and honored.
    pub nacks_received: u64,
    /// Replay-retention frames retired at round barriers.
    pub frames_retired: u64,
}

impl PacedSenderNode {
    /// A sender whose ready queue holds `frames`, transmitted in order,
    /// one every `gap`; `label` names the node in traces.
    pub fn new(frames: Vec<Frame>, gap: Duration, label: &'static str) -> PacedSenderNode {
        PacedSenderNode {
            ready: frames.into(),
            rounds: VecDeque::new(),
            gap,
            label,
            replay_armed: false,
            slowdown: 1,
            backoff: 1,
            nack_backoff: false,
            timer_armed: false,
            pacing_token: 0,
            frames_replayed: 0,
            nacks_received: 0,
            frames_retired: 0,
        }
    }

    /// The pacing gap with the straggler throttle and congestion backoff
    /// applied.
    fn effective_gap(&self) -> Duration {
        Duration::from_nanos(
            self.gap
                .as_nanos()
                .saturating_mul(u64::from(self.slowdown.max(1)))
                .saturating_mul(u64::from(self.backoff.max(1))),
        )
    }

    /// Throttles (or restores) this sender: the pacing gap is multiplied
    /// by `factor` from the next timer tick on. `1` restores full speed.
    pub fn set_slowdown(&mut self, factor: u32) {
        self.slowdown = factor.max(1);
    }

    /// The current straggler throttle factor.
    pub fn slowdown(&self) -> u32 {
        self.slowdown
    }

    /// Makes NACKs double the pacing gap (capped at 64×) until the next
    /// round barrier — a minimal closed-loop response to queue-buildup
    /// loss, off by default to keep the paper's open-loop sender.
    pub fn enable_nack_backoff(&mut self) {
        self.nack_backoff = true;
    }

    /// The current congestion backoff multiplier (1 = none).
    pub fn backoff(&self) -> u32 {
        self.backoff
    }

    /// Arms NACK replay: from now on every enqueued round is retained
    /// after transmission, until [`retire_round`](Self::retire_round).
    pub fn arm_replay(&mut self) {
        self.replay_armed = true;
    }

    /// Appends one round to the transmit schedule. With replay armed the
    /// round doubles as retention, so each of its parts must continue its
    /// tree's dense sequence numbering where the previous round left off
    /// (which [`plan_round`] over one `next_seq` map guarantees).
    pub fn enqueue_round(&mut self, round: RoundSchedule) {
        // The caller restarts the pacing chain for this round (see
        // `JobScheduler::begin_round`); record that so paced replays
        // don't double-arm it.
        self.timer_armed = true;
        if self.replay_armed {
            for part in &round.parts {
                if let Some(last) = retained(&self.rounds, part.tree).last() {
                    debug_assert_eq!(
                        last.end_seq(),
                        part.base_seq,
                        "replay retention must stay sequence-dense across rounds"
                    );
                }
            }
        }
        self.rounds.push_back(round);
    }

    /// Round-barrier cleanup: drops every fully transmitted round — with
    /// replay armed, part by part, each part once its sequence range ends
    /// at or before its tree's `cutoff`. Called once the round is known
    /// complete end-to-end (every receiver satisfied), so nothing below
    /// the cutoff can ever be NACKed again — this is what keeps a
    /// hundreds-of-rounds run's memory bounded at O(one round).
    pub fn retire_round(&mut self, cutoffs: &[(u16, u32)]) {
        // The round completed: whatever congestion triggered the backoff
        // has drained with it.
        self.backoff = 1;
        for round in self.rounds.iter_mut().filter(|r| r.remaining == 0) {
            if !self.replay_armed {
                round.parts.clear();
                continue;
            }
            round.parts.retain(|part| {
                let retire = cutoffs
                    .iter()
                    .any(|&(tree, cutoff)| tree == part.tree && !seq_after(part.end_seq(), cutoff));
                if retire {
                    self.frames_retired += part.packets as u64;
                }
                !retire
            });
        }
        self.rounds.retain(|r| !r.parts.is_empty());
    }

    /// Epoch reset for a live re-plan: drops the ready queue and every
    /// round, transmitted or not, so the next
    /// [`enqueue_round`](Self::enqueue_round) starts a fresh sequence
    /// space at 0 (matching the freshly reinstalled switch trees and
    /// receiver rosters). Only sound at a round barrier, when nothing is
    /// in flight.
    pub fn reset_epoch(&mut self) {
        self.ready.clear();
        self.rounds.clear();
        self.backoff = 1;
    }

    /// Frames not yet transmitted: the ready queue plus what the rounds
    /// have yet to build.
    pub fn pending(&self) -> usize {
        self.ready.len() + self.rounds.iter().map(|r| r.remaining).sum::<usize>()
    }

    /// The token the current pacing chain's timers carry. A harness that
    /// starts the chain from outside (see
    /// [`JobScheduler::begin_round`](crate::tenant::JobScheduler::begin_round))
    /// schedules the first tick with it.
    pub fn pacing_token(&self) -> u64 {
        self.pacing_token
    }

    /// Frames that can currently be rebuilt for a NACK, across all trees:
    /// what the retained rounds have transmitted.
    pub fn replay_retained(&self) -> usize {
        if !self.replay_armed {
            return 0;
        }
        self.rounds.iter().flat_map(|r| &r.parts).map(|p| p.sent).sum()
    }
}

/// `tree`'s replay retention: its parts across `rounds`, oldest first —
/// dense in sequence space. Rounds go out oldest first, so what the tree
/// has transmitted is a dense prefix too: `[first.base_seq,
/// first.base_seq + Σ sent)`, the window a NACK can be answered from.
fn retained(rounds: &VecDeque<RoundSchedule>, tree: u16) -> impl Iterator<Item = &RoundPart> {
    rounds.iter().flat_map(|r| &r.parts).filter(move |p| p.tree == tree)
}

/// Clips the request `[first, first + count)` (wrapping sequence space)
/// to a retained window of `held` packets starting at `base`, pushing the
/// at most two resulting `[lo, hi)` offset spans. Exactly
/// `NackRange::contains` restricted to the window, at a cost independent
/// of `count`.
fn clip_to_window(base: u32, held: u32, first: u32, count: u32, spans: &mut Vec<(u32, u32)>) {
    let lo = first.wrapping_sub(base);
    let end = u64::from(lo) + u64::from(count);
    if lo < held {
        spans.push((lo, end.min(u64::from(held)) as u32));
    }
    // The request started before the window (or wrapped all the way
    // round): whatever reaches past `base` covers the window's head.
    if let Some(past_base) = end.checked_sub(1 << 32).filter(|&n| n > 0) {
        spans.push((0, past_base.min(u64::from(held)) as u32));
    }
}

impl Node for PacedSenderNode {
    fn on_packet(&mut self, ctx: &mut dyn Fabric, _port: PortId, frame: Frame) {
        // Senders only ever act on NACKs, and only when replay is armed.
        if !self.replay_armed {
            return;
        }
        let Some((hdr, _src, parsed)) = receive_daiet(frame) else { return };
        if hdr.packet_type != PacketType::Nack {
            return;
        }
        // Only what has gone out can be retransmitted; the rest of the
        // round goes out once, on its own pacing tick.
        let held: u32 = retained(&self.rounds, hdr.tree_id).map(|p| p.sent as u32).sum();
        let Some(base) = retained(&self.rounds, hdr.tree_id).next().map(|p| p.base_seq) else {
            return;
        };
        self.nacks_received += 1;
        if self.nack_backoff {
            // A NACK means the path lost something — most often queue
            // overflow under this sender's own offered load. Double the
            // pacing gap (multiplicatively, like any AIMD sender) so the
            // replay burst below lands on a draining queue.
            self.backoff = self.backoff.saturating_mul(2).min(64);
        }
        // Intersect the request with the transmitted window *first*: what
        // a NACK can cost is bounded by what was sent, whatever it asks for.
        // The tail ("everything at or after `hdr.seq`", RFC 1982-style) is
        // the half-space range starting there.
        let mut spans = Vec::new();
        if hdr.flags.contains(PacketFlags::NACK_TAIL) {
            clip_to_window(base, held, hdr.seq, 1 << 31, &mut spans);
        }
        for range in parsed.daiet_pairs().filter_map(|p| NackRange::from_pair(&p)) {
            clip_to_window(base, held, range.first, range.count, &mut spans);
        }
        spans.sort_unstable();
        // Rebuild each requested packet once, in sequence order; receiver
        // gap tracking absorbs anything it already has. The open-loop sender
        // bursts replays past the pacing gap (recovery is latency-critical,
        // and the burst is at most what it has transmitted of its retained
        // rounds); the closed-loop sender queues them behind the backed-off
        // gap instead — the loss it is repairing is usually its own queue
        // overflow, and a burst would recreate it.
        let mut parts = retained(&self.rounds, hdr.tree_id);
        let mut part = parts.next();
        let mut part_lo = 0u32;
        let mut done = 0u32;
        for (lo, hi) in spans {
            for offset in lo.max(done)..hi {
                while let Some(p) = part.filter(|p| offset - part_lo >= p.packets as u32) {
                    part_lo += p.packets as u32;
                    part = parts.next();
                }
                let Some(frame) =
                    part.and_then(|p| p.frame_at((offset - part_lo) as usize, ctx.pool()))
                else {
                    break;
                };
                if self.nack_backoff {
                    self.ready.push_back(frame);
                } else {
                    ctx.send(PortId(0), frame);
                }
                self.frames_replayed += 1;
            }
            done = done.max(hi);
        }
        if !self.ready.is_empty() && !self.timer_armed {
            self.timer_armed = true;
            ctx.schedule(self.effective_gap(), self.pacing_token);
        }
    }

    fn on_start(&mut self, ctx: &mut dyn Fabric) {
        // Iterative senders start with nothing to send; their harness arms
        // the pacing timer itself when it enqueues the first round.
        if self.pending() > 0 {
            self.timer_armed = true;
            ctx.schedule(self.effective_gap(), self.pacing_token);
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn Fabric, token: u64) {
        if token != self.pacing_token {
            // A pre-kill tick that fell due after the revive: its chain
            // was superseded by the one `on_revive` started.
            return;
        }
        let frame = self
            .ready
            .pop_front()
            .or_else(|| self.rounds.iter_mut().find_map(|r| r.next_frame(ctx.pool())));
        match frame {
            Some(frame) => {
                ctx.send(PortId(0), frame);
                ctx.schedule(self.effective_gap(), self.pacing_token);
            }
            None => self.timer_armed = false,
        }
    }

    fn on_revive(&mut self, ctx: &mut dyn Fabric) {
        // The ticks that fell due during the outage were discarded, so
        // the old chain may be broken; any of its ticks still in flight
        // are retired by advancing the token. The sender keeps its
        // rounds and resumes where it stopped, one tick per gap.
        self.pacing_token = self.pacing_token.wrapping_add(1);
        self.timer_armed = self.pending() > 0;
        if self.timer_armed {
            ctx.schedule(self.effective_gap(), self.pacing_token);
        }
    }

    fn name(&self) -> String {
        self.label.into()
    }
}

/// Receive-side statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollectorStats {
    /// DATA packets received.
    pub data_packets: u64,
    /// END packets received.
    pub end_packets: u64,
    /// Packets carrying the SPILLOVER flag.
    pub spill_packets: u64,
    /// Pairs received (pre-merge).
    pub pairs_received: u64,
    /// Pairs merged into existing keys (residual aggregation done at the
    /// host — nonzero whenever the network could not aggregate
    /// everything).
    pub pairs_merged: u64,
    /// Application payload bytes received (DAIET preamble + entries).
    pub app_bytes: u64,
}

/// Reducer-side collector: merges unordered aggregated pairs and reports
/// completion once every expected END arrived.
#[derive(Debug)]
pub struct Collector {
    agg: AggFn,
    expected_ends: u32,
    ends_seen: u32,
    pairs: KeyMap<u32>,
    stats: CollectorStats,
}

impl Collector {
    /// A collector combining with `agg` and expecting `expected_ends` END
    /// packets (= tree children of the reducer; 1 behind a DAIET switch,
    /// the mapper count without in-network aggregation).
    pub fn new(agg: AggFn, expected_ends: u32) -> Collector {
        Collector {
            agg,
            expected_ends,
            ends_seen: 0,
            pairs: KeyMap::default(),
            stats: CollectorStats::default(),
        }
    }

    /// Feeds one DAIET packet; returns `true` when the partition is
    /// complete (all ENDs seen).
    pub fn on_packet(&mut self, repr: &Repr) -> bool {
        self.on_parts(&repr.header(), repr.entries.iter().copied())
    }

    /// Feeds one DAIET packet as preamble + entry iterator — the
    /// allocation-free form [`ReducerHost`] drives straight from frame
    /// bytes. Returns `true` when the partition is complete.
    pub fn on_parts(&mut self, hdr: &Header, entries: impl Iterator<Item = Pair>) -> bool {
        match hdr.packet_type {
            PacketType::Data => {
                self.stats.data_packets += 1;
                if hdr.flags.contains(PacketFlags::SPILLOVER) {
                    self.stats.spill_packets += 1;
                }
                let mut n = 0u64;
                for pair in entries {
                    n += 1;
                    match self.pairs.entry(pair.key) {
                        Entry::Occupied(mut e) => {
                            let merged = self.agg.apply(*e.get(), pair.value);
                            e.insert(merged);
                            self.stats.pairs_merged += 1;
                        }
                        Entry::Vacant(e) => {
                            e.insert(pair.value);
                        }
                    }
                }
                self.stats.pairs_received += n;
                self.stats.app_bytes += Header::wire_len(n as usize) as u64;
            }
            PacketType::End => {
                self.stats.app_bytes += daiet::HEADER_LEN as u64;
                self.stats.end_packets += 1;
                self.ends_seen += 1;
            }
            PacketType::Nack | PacketType::Unknown(_) => {
                self.stats.app_bytes += daiet::HEADER_LEN as u64;
            }
        }
        self.is_complete()
    }

    /// True once all expected ENDs arrived.
    pub fn is_complete(&self) -> bool {
        self.ends_seen >= self.expected_ends
    }

    /// Redefines round completion over a new roster — what a live
    /// re-plan (tree re-routed, workers joined or left) changes about the
    /// reducer. Takes effect from the current round; only sound at a
    /// round barrier, when `ends_seen` has been reset by
    /// [`take_round`](Self::take_round).
    pub fn set_expected_ends(&mut self, expected: u32) {
        self.expected_ends = expected;
    }

    /// ENDs seen so far.
    pub fn ends_seen(&self) -> u32 {
        self.ends_seen
    }

    /// Swaps the merge function — the reducer-slot *lease* operation of
    /// the multi-tenant scheduler, where one pooled [`ReducerHost`]
    /// serves a SUM job, is released, and is leased again to a MIN lane.
    /// Only sound while no pairs are held (at a lease boundary, right
    /// after [`take_round`](Self::take_round)): pairs merged under one
    /// function have no meaning under another.
    pub fn set_agg(&mut self, agg: AggFn) {
        debug_assert!(
            self.pairs.is_empty(),
            "set_agg with pairs held would reinterpret them under a new function"
        );
        self.agg = agg;
    }

    /// Distinct keys held.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when no pairs were collected.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Receive statistics.
    pub fn stats(&self) -> CollectorStats {
        self.stats
    }

    /// Consumes the collector, returning pairs **sorted by key** — the
    /// sort the paper moves from mappers to the reducer ("the intermediate
    /// results must be sorted at the reducer", §4).
    pub fn into_sorted(self) -> Vec<(Key, u32)> {
        let mut v: Vec<(Key, u32)> = self.pairs.into_iter().collect();
        v.sort_unstable_by_key(|a| a.0);
        v
    }

    /// Drains one completed round: returns the collected pairs **sorted
    /// by key** and re-arms the collector (pairs cleared, END count reset
    /// to zero) for the next round of an iterative flow. Counters in
    /// [`stats`](Self::stats) keep accumulating across rounds.
    pub fn take_round(&mut self) -> Vec<(Key, u32)> {
        let mut v: Vec<(Key, u32)> = self.pairs.drain().collect();
        v.sort_unstable_by_key(|a| a.0);
        self.ends_seen = 0;
        v
    }

    /// Borrowing accessor for tests.
    pub fn get(&self, key: &Key) -> Option<u32> {
        self.pairs.get(key).copied()
    }

    /// Iterates the collected pairs in arbitrary order (callers sort).
    pub fn get_all(&self) -> impl Iterator<Item = (Key, u32)> + '_ {
        self.pairs.iter().map(|(k, v)| (*k, *v))
    }
}

/// A minimal reducer host: collects DAIET packets until complete.
pub struct ReducerHost {
    /// The collector; read it out after the run.
    pub collector: Collector,
    /// Completion time, once reached.
    pub completed_at: Option<Time>,
    /// Receive-side NACK recovery (the default guard is the
    /// paper-faithful fire-and-forget path).
    guard: crate::reliability::ReceiverGuard,
}

impl ReducerHost {
    /// A reducer expecting `expected_ends` ENDs, combining with `agg`.
    pub fn new(agg: AggFn, expected_ends: u32) -> ReducerHost {
        ReducerHost {
            collector: Collector::new(agg, expected_ends),
            completed_at: None,
            guard: crate::reliability::ReceiverGuard::new(),
        }
    }

    /// Arms NACK recovery: this reducer (simulator id `self_id`) watches
    /// one flow per `(tree, source)` in `sources` — the deployment's
    /// [`reducer_sources`](crate::controller::Deployment::reducer_sources)
    /// roster — and NACKs delinquent ones per `config`'s timeout/budget
    /// (see [`ReceiverGuard`](crate::reliability::ReceiverGuard)). Its
    /// bitmaps also suppress duplicates: aggregation is not idempotent,
    /// so the *last* hop needs protection too, not just the switches.
    pub fn with_nack_recovery(
        mut self,
        self_id: u32,
        config: &DaietConfig,
        sources: impl IntoIterator<Item = (u16, u32)>,
    ) -> ReducerHost {
        self.guard.arm_nack_recovery(self_id, config, sources);
        self
    }

    /// Re-rosters the reducer for a live re-plan: round completion is
    /// redefined over `expected_ends` ENDs, and the reliability guard is
    /// re-armed from scratch over `sources` — every flow is expected
    /// anew from sequence 0, matching the epoch restart on the senders
    /// and switches. Only sound at a round barrier (nothing in flight,
    /// `take_round` already drained). Cumulative guard counters
    /// (duplicates, NACKs emitted) restart with the new guard.
    pub fn reroster(
        &mut self,
        self_id: u32,
        config: &DaietConfig,
        sources: impl IntoIterator<Item = (u16, u32)>,
        expected_ends: u32,
    ) {
        self.collector.set_expected_ends(expected_ends);
        self.completed_at = None;
        if config.nack_recovery {
            self.guard.arm_nack_recovery(self_id, config, sources);
        }
    }

    /// Frames the NACK gap tracker's bitmaps suppressed as duplicates (0
    /// without recovery).
    pub fn duplicates_suppressed(&self) -> u64 {
        self.guard.duplicates_suppressed()
    }

    /// NACK frames this reducer has sent (0 without recovery).
    pub fn nacks_emitted(&self) -> u64 {
        self.guard.nacks_emitted()
    }

    /// True when NACK recovery (if armed) owes nothing: every tracked
    /// flow is gapless through its newest END. An iterative harness must
    /// check this **in addition to** [`Collector::is_complete`] at each
    /// round barrier — the ENDs can all be in while a DATA frame of the
    /// round is still missing (the silent-corruption mode recovery
    /// exists to close).
    pub fn recovery_satisfied(&self) -> bool {
        self.guard.all_satisfied()
    }

    /// Drains one completed round (see [`Collector::take_round`]) and
    /// re-arms completion detection for the next.
    pub fn take_round(&mut self) -> Vec<(daiet_wire::daiet::Key, u32)> {
        self.completed_at = None;
        self.collector.take_round()
    }
}

impl Node for ReducerHost {
    fn on_packet(&mut self, ctx: &mut dyn Fabric, _port: PortId, frame: Frame) {
        let Some((hdr, src, parsed)) = receive_daiet(frame) else {
            return;
        };
        if !self.guard.admit(&hdr, src, ctx) {
            return;
        }
        if self.collector.on_parts(&hdr, parsed.daiet_pairs()) && self.completed_at.is_none() {
            self.completed_at = Some(ctx.now());
        }
        self.guard.arm(ctx);
    }

    fn on_start(&mut self, ctx: &mut dyn Fabric) {
        self.guard.arm(ctx);
    }

    fn on_timer(&mut self, ctx: &mut dyn Fabric, _token: u64) {
        self.guard.on_timer(ctx);
    }

    fn name(&self) -> String {
        "reducer".into()
    }
}

/// A host that takes no part in the job: receives and drops. Occupies
/// plan slots the placement leaves unused (plans come in standard shapes,
/// so a leaf may hold more hosts than a job uses).
pub(crate) struct IdleHost;

impl Node for IdleHost {
    fn on_packet(&mut self, _ctx: &mut dyn Fabric, _port: PortId, _frame: Frame) {}

    fn name(&self) -> String {
        "idle-host".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reliability::{build_nack_frames, NackRequest};
    use proptest::prelude::*;

    fn key(s: &str) -> Key {
        Key::from_str_key(s).unwrap()
    }

    fn npairs(n: usize) -> Vec<Pair> {
        (0..n).map(|i| Pair::new(key(&format!("k{i}")), i as u32)).collect()
    }

    #[test]
    fn packetizer_never_splits_pairs_and_ends_with_end() {
        let p = Packetizer::new(&DaietConfig::default());
        let packets = p.packets(4, &npairs(25));
        assert_eq!(packets.len(), 4); // 10 + 10 + 5 + END
        assert_eq!(packets[0].entries.len(), 10);
        assert_eq!(packets[2].entries.len(), 5);
        assert_eq!(packets[3].packet_type, PacketType::End);
        assert!(packets.iter().all(|r| r.tree_id == 4));
        // Sequence numbers are consecutive.
        let seqs: Vec<u32> = packets.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
    }

    /// Regression: sequence numbering crossing `u32::MAX` must wrap, not
    /// overflow-panic — the sender half of the RFC 1982 story the gap
    /// trackers implement on the receive side.
    #[test]
    fn sequence_numbering_wraps_past_u32_max() {
        let p = Packetizer::new(&DaietConfig::default());
        let (packets, next) = p.packets_from_seq(1, &npairs(15), u32::MAX);
        // 10 + 5 pairs → 2 DATA + END, numbered MAX, 0, 1; next free: 2.
        let seqs: Vec<u32> = packets.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![u32::MAX, 0, 1]);
        assert_eq!(next, 2);
    }

    #[test]
    fn empty_partition_is_just_an_end() {
        let p = Packetizer::new(&DaietConfig::default());
        let packets = p.packets(1, &[]);
        assert_eq!(packets.len(), 1);
        assert_eq!(packets[0].packet_type, PacketType::End);
    }

    #[test]
    fn frames_parse_back() {
        let p = Packetizer::new(&DaietConfig::default());
        let ep = Endpoints::from_ids(7, 8);
        let pool = FramePool::new();
        let (frames, _) = p.frames_from_seq(2, &npairs(12), &ep, 777, 0, &pool);
        assert_eq!(frames.len(), 3);
        // Frames match the Repr-based packetization exactly.
        let reprs = p.packets(2, &npairs(12));
        for (f, repr) in frames.iter().zip(&reprs) {
            let parsed = parse(f.clone(), &host_parser_config()).unwrap();
            assert_eq!(parsed.daiet_repr().as_ref(), Some(repr));
        }
    }

    #[test]
    fn collector_merges_and_completes() {
        let mut c = Collector::new(AggFn::Sum, 2);
        assert!(!c.on_packet(&Repr::data(1, vec![Pair::new(key("a"), 5)])));
        assert!(!c.on_packet(&Repr::data(1, vec![Pair::new(key("a"), 3), Pair::new(key("b"), 1)])));
        assert!(!c.on_packet(&Repr::end(1)));
        assert!(!c.is_complete());
        assert!(c.on_packet(&Repr::end(1)));
        assert!(c.is_complete());
        assert_eq!(c.get(&key("a")), Some(8));
        assert_eq!(c.stats().pairs_merged, 1);
        assert_eq!(c.stats().data_packets, 2);
        assert_eq!(c.stats().end_packets, 2);
        let sorted = c.into_sorted();
        assert_eq!(sorted, vec![(key("a"), 8), (key("b"), 1)]);
    }

    #[test]
    fn collector_counts_app_bytes_and_spill() {
        let mut c = Collector::new(AggFn::Sum, 1);
        let mut spill = Repr::data(1, npairs(3));
        spill.flags = daiet_wire::daiet::PacketFlags::SPILLOVER;
        c.on_packet(&spill);
        c.on_packet(&Repr::end(1));
        assert_eq!(c.stats().spill_packets, 1);
        // 10 B preamble + 3×20 B entries + 10 B END preamble.
        assert_eq!(c.stats().app_bytes, 10 + 60 + 10);
    }

    #[test]
    fn sorted_output_is_ordered_by_key_bytes() {
        let mut c = Collector::new(AggFn::Sum, 0);
        for name in ["zebra", "alpha", "mid"] {
            c.on_packet(&Repr::data(1, vec![Pair::new(key(name), 1)]));
        }
        let sorted: Vec<String> = c
            .into_sorted()
            .into_iter()
            .map(|(k, _)| k.display_lossy())
            .collect();
        assert_eq!(sorted, vec!["alpha", "mid", "zebra"]);
    }

    /// Keys the collector's table must keep apart: the zero key, and pairs
    /// equal in one 8-byte half and different in the other.
    fn arb_collector_key() -> impl Strategy<Value = Key> {
        let mut same_low = [b'a'; daiet::KEY_LEN];
        same_low[15] = b'b';
        let mut same_high = [b'a'; daiet::KEY_LEN];
        same_high[0] = b'b';
        prop::sample::select(&[
            Key::ZERO,
            Key([b'a'; daiet::KEY_LEN]),
            Key(same_low),
            Key(same_high),
            key("word"),
            key("words"),
            key("wordcount-shuffl"),
        ])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Under SUM, MIN and MAX the collector holds exactly what a
        /// `BTreeMap` fold of the same pairs holds, however they are
        /// packed into packets.
        #[test]
        fn collector_equals_an_ordered_fold(
            packets in prop::collection::vec(
                prop::collection::vec((arb_collector_key(), any::<u32>()), 0..=10),
                0..=12,
            ),
        ) {
            for agg in [AggFn::Sum, AggFn::Min, AggFn::Max] {
                let mut c = Collector::new(agg, 1);
                let mut fold: std::collections::BTreeMap<Key, u32> = Default::default();
                for packet in &packets {
                    let pairs: Vec<Pair> = packet.iter().map(|&(k, v)| Pair::new(k, v)).collect();
                    c.on_packet(&Repr::data(1, pairs));
                    for &(k, v) in packet {
                        fold.entry(k).and_modify(|held| *held = agg.apply(*held, v)).or_insert(v);
                    }
                }
                prop_assert_eq!(c.len(), fold.len());
                for (k, v) in &fold {
                    prop_assert_eq!(c.get(k), Some(*v), "{:?} {:?}", agg, k);
                }
                let pairs: u64 = packets.iter().map(|p| p.len() as u64).sum();
                prop_assert_eq!(c.stats().pairs_merged, pairs - fold.len() as u64);
                prop_assert_eq!(c.into_sorted(), fold.into_iter().collect::<Vec<_>>());
            }
        }
    }

    /// Satellite (ISSUE 5): the interleave offset is what spreads fan-in
    /// across trees; an iterative sender passes `sender_index + round` so
    /// the lead rotates per round. Pin the offset semantics: queue
    /// `offset % n` transmits first, order within each queue is
    /// preserved, and over any `n` consecutive rounds every queue leads
    /// exactly once (fairness — no tree is always drained first).
    #[test]
    fn interleave_offset_rotates_the_lead_across_rounds() {
        let pool = FramePool::new();
        let frame = |tag: u8| pool.copy_from_slice(&[tag]);
        let n = 3usize;
        let make_queues = || -> Vec<Vec<Frame>> {
            (0..n as u8)
                .map(|q| (0..4).map(|i| frame(q * 10 + i)).collect())
                .collect()
        };
        let sender_index = 2usize;
        let mut leads = Vec::new();
        for round in 0..2 * n {
            let out = interleave_round_robin(make_queues(), sender_index + round);
            assert_eq!(out.len(), n * 4);
            leads.push(out[0][0] / 10);
            // Every queue's internal order is preserved (ENDs still trail
            // their tree's data).
            for q in 0..n as u8 {
                let tags: Vec<u8> =
                    out.iter().map(|f| f[0]).filter(|t| t / 10 == q).collect();
                assert_eq!(tags, vec![q * 10, q * 10 + 1, q * 10 + 2, q * 10 + 3]);
            }
        }
        // The lead rotates: round r leads with queue (sender + r) % n…
        let expect: Vec<u8> =
            (0..2 * n).map(|r| ((sender_index + r) % n) as u8).collect();
        assert_eq!(leads, expect);
        // …so across any n consecutive rounds each queue led exactly once.
        for w in leads.windows(n) {
            let mut sorted = w.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n as u8).collect::<Vec<u8>>(), "unfair window {w:?}");
        }
    }

    /// A fabric that records what a node does to it.
    struct Recorder {
        pool: FramePool,
        sent: Vec<Frame>,
        /// The delay of every timer armed, in order.
        timers: Vec<Duration>,
    }

    impl Recorder {
        fn new() -> Recorder {
            Recorder { pool: FramePool::new(), sent: Vec::new(), timers: Vec::new() }
        }

        /// Ticks `node` until its pacing chain stops re-arming; returns
        /// what it transmitted.
        fn drain(&mut self, node: &mut PacedSenderNode) -> Vec<Frame> {
            loop {
                let armed = self.timers.len();
                node.on_timer(self, 0);
                if self.timers.len() == armed {
                    return std::mem::take(&mut self.sent);
                }
            }
        }

        /// Delivers one NACK for `tree` to `node`; returns the burst it
        /// answers with.
        fn nack(
            &mut self,
            node: &mut PacedSenderNode,
            tree: u16,
            req: &NackRequest,
        ) -> Vec<Frame> {
            let mut nacks = Vec::new();
            let ep = Endpoints::from_ids(9, 1);
            build_nack_frames(&ep, tree, req, 10, &self.pool, |f| nacks.push(f));
            for nack in nacks {
                node.on_packet(self, PortId(0), nack);
            }
            std::mem::take(&mut self.sent)
        }
    }

    impl Fabric for Recorder {
        fn now(&self) -> Time {
            Time::ZERO
        }
        fn send(&mut self, _port: PortId, frame: Frame) {
            self.sent.push(frame);
        }
        fn schedule(&mut self, delay: Duration, _token: u64) {
            self.timers.push(delay);
        }
        fn pool(&self) -> &FramePool {
            &self.pool
        }
        fn port_count(&self) -> usize {
            1
        }
    }

    type Parts = Vec<(u16, Endpoints, Vec<Pair>)>;
    /// One tree's eagerly built frames: `(tree, base_seq, frames)`.
    type TreeFrames = (u16, u32, Vec<Frame>);

    /// The eager schedule the streamed one replaced, kept as the
    /// reference: packetize every part up front, then interleave.
    /// Returns the transmit order and each tree's frames by sequence.
    fn eager_round(
        config: &DaietConfig,
        parts: &Parts,
        next_seq: &mut FnvHashMap<u16, u32>,
        offset: usize,
        pool: &FramePool,
    ) -> (Vec<Frame>, Vec<TreeFrames>) {
        let packetizer = Packetizer::new(config);
        let mut per_tree = Vec::new();
        for (tree, ep, pairs) in parts {
            let base = next_seq.get(tree).copied().unwrap_or(0);
            let (frames, next) =
                packetizer.frames_from_seq(*tree, pairs, ep, daiet_wire::udp::DAIET_PORT, base, pool);
            next_seq.insert(*tree, next);
            per_tree.push((*tree, base, frames));
        }
        let queues = per_tree.iter().map(|(_, _, frames)| frames.clone()).collect();
        (interleave_round_robin(queues, offset), per_tree)
    }

    fn bytes(frames: &[Frame]) -> Vec<&[u8]> {
        frames.iter().map(|f| &f[..]).collect()
    }

    /// Four parts of pairs. Values stay below 16 so that every round
    /// also has a coded form; keys come from a small space so parts
    /// repeat them, as mappers repeat words.
    fn arb_round() -> impl Strategy<Value = Vec<Vec<Pair>>> {
        let pair = (0u64..48, 0u32..16).prop_map(|(k, v)| {
            let mut key = [0u8; daiet::KEY_LEN];
            key[..8].copy_from_slice(&k.to_be_bytes());
            Pair::new(Key(key), v)
        });
        prop::collection::vec(prop::collection::vec(pair, 0..=35), 4..=4)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The streamed schedule against the eager reference, over two
        /// rounds on three senders — one planned from owned vectors, one
        /// from shared handles whose caller-side clone is gone before the
        /// first tick, one from the same pairs dictionary-coded: same
        /// bytes in the same order, every retained `(tree, seq)` rebuilt
        /// byte-identically for a NACK, and the second round continuing
        /// each tree's sequence space where the first ended — across the
        /// `u32::MAX` wrap.
        #[test]
        fn streamed_schedule_equals_the_eager_reference(
            shape in (0usize..=4, 1usize..=11),
            first in arb_round(),
            second in arb_round(),
            below_wrap in prop::collection::vec(0u32..=40, 4..=4),
            offset in any::<usize>(),
        ) {
            let (trees, pairs_per_packet) = shape;
            let config = DaietConfig { pairs_per_packet, nack_recovery: true, ..DaietConfig::default() };
            let parts = |round: &Vec<Vec<Pair>>| -> Parts {
                (0..trees)
                    .map(|t| (t as u16 + 1, Endpoints::from_ids(1, 10 + t as u32), round[t].clone()))
                    .collect()
            };
            let start: FnvHashMap<u16, u32> =
                (0..trees).map(|t| (t as u16 + 1, u32::MAX - below_wrap[t])).collect();
            let mut eager_seq = start.clone();

            let mut fabric = Recorder::new();
            let mut senders: Vec<(&str, PacedSenderNode, FnvHashMap<u16, u32>)> =
                ["owned", "shared", "coded"]
                    .into_iter()
                    .map(|how| {
                        let gap = Duration::from_micros(1);
                        let mut node = PacedSenderNode::new(Vec::new(), gap, "streamed");
                        node.arm_replay();
                        (how, node, start.clone())
                    })
                    .collect();
            let mut retained = Vec::new();
            for (r, round) in [first, second].iter().enumerate() {
                let offset = offset.wrapping_add(r);
                let (transmit, per_tree) =
                    eager_round(&config, &parts(round), &mut eager_seq, offset, &fabric.pool);
                for (how, node, streamed_seq) in &mut senders {
                    let schedule = match *how {
                        "shared" => {
                            let buffers: Vec<_> = parts(round)
                                .into_iter()
                                .map(|(tree, ep, pairs)| (tree, ep, Arc::new(pairs)))
                                .collect();
                            let handles = buffers
                                .iter()
                                .map(|(tree, ep, pairs)| (*tree, *ep, Arc::clone(pairs)));
                            let schedule = plan_round(&config, handles, streamed_seq, offset);
                            // From here on the schedule's handles alone keep
                            // the pairs alive.
                            drop(buffers);
                            schedule
                        }
                        "coded" => {
                            let coded = code_parts(&parts(round));
                            let decoded = coded.iter().map(|(_, _, c)| c.to_vec());
                            prop_assert!(decoded.eq(parts(round).into_iter().map(|(_, _, p)| p)));
                            plan_round(&config, coded, streamed_seq, offset)
                        }
                        _ => plan_round(&config, parts(round), streamed_seq, offset),
                    };
                    node.enqueue_round(schedule);
                    prop_assert_eq!(&*streamed_seq, &eager_seq, "next free sequence numbers, {} round {}", how, r);
                    prop_assert_eq!(node.pending(), transmit.len());
                    let sent = fabric.drain(node);
                    prop_assert_eq!(bytes(&sent), bytes(&transmit), "transmit order, {} round {}", how, r);
                    prop_assert_eq!(node.pending(), 0);
                }
                retained.extend(per_tree);
            }

            // Both rounds are still retained: every (tree, seq) either of
            // them transmitted is rebuilt exactly, alone, on request.
            let held: usize = retained.iter().map(|(_, _, frames)| frames.len()).sum();
            let cutoffs: Vec<(u16, u32)> = eager_seq.iter().map(|(&t, &s)| (t, s)).collect();
            for (how, node, _) in &mut senders {
                prop_assert_eq!(node.replay_retained(), held);
                for (tree, base, frames) in &retained {
                    for (i, frame) in frames.iter().enumerate() {
                        let req = NackRequest {
                            next_expected: 0,
                            tail: false,
                            ranges: vec![NackRange { first: base.wrapping_add(i as u32), count: 1 }],
                        };
                        let replayed = fabric.nack(node, *tree, &req);
                        prop_assert_eq!(bytes(&replayed), vec![&frame[..]], "{} tree {} offset {}", how, tree, i);
                    }
                }

                // The barrier retires both rounds, and NACKs find nothing.
                node.retire_round(&cutoffs);
                prop_assert_eq!(node.replay_retained(), 0);
                prop_assert_eq!(node.frames_retired as usize, held);
            }
        }
    }

    /// `parts` dictionary-coded: one dictionary of the parts' distinct
    /// keys, in first-seen order, shared by every part.
    fn code_parts(parts: &Parts) -> Vec<(u16, Endpoints, Arc<CodedPairs>)> {
        let mut index: FnvHashMap<Key, usize> = FnvHashMap::default();
        let mut keys = Vec::new();
        let codes: Vec<Vec<u32>> = parts
            .iter()
            .map(|(_, _, pairs)| {
                pairs
                    .iter()
                    .map(|p| {
                        let i = *index.entry(p.key).or_insert_with(|| {
                            keys.push(p.key);
                            keys.len() - 1
                        });
                        CodedPairs::code(i, p.value)
                    })
                    .collect()
            })
            .collect();
        let keys: Arc<[Key]> = keys.into();
        parts
            .iter()
            .zip(codes)
            .map(|((tree, ep, _), codes)| {
                (*tree, *ep, Arc::new(CodedPairs { keys: Arc::clone(&keys), codes }))
            })
            .collect()
    }

    /// Planning copies no pair: an owned vector's allocation moves into
    /// the schedule, a shared handle's buffer is the schedule's buffer.
    #[test]
    fn plan_round_moves_owned_vectors_and_shares_handles() {
        let config = DaietConfig::default();
        let ep = Endpoints::from_ids(1, 2);
        let mut next_seq = FnvHashMap::default();
        let owned = npairs(25);
        let owned_at = owned.as_ptr();
        let by_move = plan_round(&config, [(1, ep, owned)], &mut next_seq, 0);
        assert!(matches!(&by_move.parts[0].shard, Shard::Pairs(p) if p.as_ptr() == owned_at));
        let shared = Arc::new(npairs(25));
        let by_handle = plan_round(&config, [(2, ep, Arc::clone(&shared))], &mut next_seq, 0);
        assert!(matches!(&by_handle.parts[0].shard, Shard::Pairs(p) if Arc::ptr_eq(p, &shared)));
        drop(by_handle);
        assert_eq!(Arc::strong_count(&shared), 1);
        let coded = Arc::new(CodedPairs { keys: Arc::new([Key::ZERO]), codes: vec![1, 2] });
        let by_code = plan_round(&config, [(3, ep, Arc::clone(&coded))], &mut next_seq, 0);
        assert!(matches!(&by_code.parts[0].shard, Shard::Coded(c) if Arc::ptr_eq(c, &coded)));
        drop(by_code);
        assert_eq!(Arc::strong_count(&coded), 1);
    }

    /// An empty coded shard is an END alone, numbered where its tree's
    /// sequence space stands, and a NACK for it rebuilds the same END.
    #[test]
    fn an_empty_coded_shard_sends_its_end_only() {
        let config = DaietConfig { nack_recovery: true, ..DaietConfig::default() };
        let empty = Arc::new(CodedPairs { keys: Arc::new([]), codes: Vec::new() });
        let mut next_seq: FnvHashMap<u16, u32> = [(4u16, 9)].into_iter().collect();
        let mut fabric = Recorder::new();
        let mut node = PacedSenderNode::new(Vec::new(), Duration::from_micros(1), "empty");
        node.arm_replay();
        let part = (4, Endpoints::from_ids(1, 2), empty);
        node.enqueue_round(plan_round(&config, [part], &mut next_seq, 0));
        assert_eq!(next_seq[&4], 10);
        let sent = fabric.drain(&mut node);
        assert_eq!(sent.len(), 1);
        let (hdr, _, parsed) = receive_daiet(sent[0].clone()).unwrap();
        assert_eq!(hdr, Header::end(4, PacketFlags::empty(), 9));
        assert_eq!(parsed.daiet_pairs().count(), 0);
        let ranges = vec![NackRange { first: 9, count: 1 }];
        let req = NackRequest { next_expected: 0, tail: false, ranges };
        assert_eq!(bytes(&fabric.nack(&mut node, 4, &req)), bytes(&sent));
    }

    /// One sender holding one 6-packet part whose sequence window
    /// straddles the wrap: `MAX-2, MAX-1, MAX, 0, 1, 2`.
    fn straddling_sender(fabric: &mut Recorder) -> (PacedSenderNode, Vec<Frame>) {
        let config = DaietConfig { nack_recovery: true, ..DaietConfig::default() };
        let mut next_seq: FnvHashMap<u16, u32> = [(7u16, u32::MAX - 2)].into_iter().collect();
        let part = (7u16, Endpoints::from_ids(1, 2), npairs(45));
        let mut node = PacedSenderNode::new(Vec::new(), Duration::from_micros(1), "straddler");
        node.arm_replay();
        node.enqueue_round(plan_round(&config, [part], &mut next_seq, 0));
        assert_eq!(next_seq[&7], 3);
        let sent = fabric.drain(&mut node);
        assert_eq!(sent.len(), 6);
        (node, sent)
    }

    /// A NACK costs what is retained, whatever it asks for: a range
    /// covering (almost) the whole sequence space replays the five
    /// retained packets it contains — in sequence order, each once — and
    /// takes five buffers from the pool, not four billion.
    #[test]
    fn hostile_nack_range_is_clipped_to_the_retained_window() {
        let mut fabric = Recorder::new();
        let (mut node, sent) = straddling_sender(&mut fabric);
        let handed_out = |pool: &FramePool| pool.stats().fresh + pool.stats().reused;
        let before = handed_out(&fabric.pool);
        let everything_but_max = NackRequest {
            next_expected: 0,
            tail: false,
            // Also asks for 0..=2 a second and third time.
            ranges: vec![
                NackRange { first: 0, count: u32::MAX },
                NackRange { first: 1, count: 2 },
                NackRange { first: u32::MAX - 40, count: 42 },
            ],
        };
        let replayed = fabric.nack(&mut node, 7, &everything_but_max);
        // MAX-40 .. MAX+1 adds MAX itself, so all six come back, once.
        assert_eq!(bytes(&replayed), bytes(&sent));
        assert_eq!(node.frames_replayed, 6);
        // One buffer for the NACK frame itself, six for the replays.
        assert_eq!(handed_out(&fabric.pool) - before, 1 + 6);

        let hostile_alone = NackRequest {
            next_expected: 0,
            tail: false,
            ranges: vec![NackRange { first: 0, count: u32::MAX }],
        };
        let replayed = fabric.nack(&mut node, 7, &hostile_alone);
        let all_but_max: Vec<&[u8]> =
            sent.iter().enumerate().filter(|&(i, _)| i != 2).map(|(_, f)| &f[..]).collect();
        assert_eq!(bytes(&replayed), all_but_max);
    }

    /// `NACK_TAIL` is RFC 1982 "at or after": from far behind the base it
    /// replays the whole retained window (and nothing more), from inside
    /// it the suffix, from beyond the end nothing.
    #[test]
    fn nack_tail_is_clipped_to_the_retained_window() {
        let mut fabric = Recorder::new();
        let (mut node, sent) = straddling_sender(&mut fabric);
        let tail_from = |next_expected: u32| NackRequest {
            next_expected,
            tail: true,
            ranges: Vec::new(),
        };
        let far_behind = fabric.nack(&mut node, 7, &tail_from(u32::MAX - 1_000_000));
        assert_eq!(bytes(&far_behind), bytes(&sent));
        let from_the_wrap = fabric.nack(&mut node, 7, &tail_from(0));
        assert_eq!(bytes(&from_the_wrap), bytes(&sent[3..]));
        let beyond = fabric.nack(&mut node, 7, &tail_from(3));
        assert!(beyond.is_empty());
        assert_eq!(node.frames_replayed, 6 + 3);
        // A tree this sender holds nothing for is not its NACK to honor.
        assert!(fabric.nack(&mut node, 8, &tail_from(0)).is_empty());
        assert_eq!(node.nacks_received, 3);
    }

    /// A tail NACK is answered from what has gone out: a sender `k` frames
    /// into an `n`-frame tree, NACKed from `j < k`, replays the `k − j`
    /// transmitted frames and nothing more; the `n − k` it has not sent
    /// go out once each, one per tick on the gap grid.
    #[test]
    fn tail_nack_replays_only_what_was_transmitted() {
        let (n, k, j) = (8usize, 5usize, 2u32);
        let gap = Duration::from_micros(3);
        let config = DaietConfig { nack_recovery: true, ..DaietConfig::default() };
        let ep = Endpoints::from_ids(1, 2);
        let mut fabric = Recorder::new();
        let (reference, _) = Packetizer::new(&config).frames_from_seq(
            7,
            &npairs(70),
            &ep,
            daiet_wire::udp::DAIET_PORT,
            0,
            &fabric.pool,
        );
        assert_eq!(reference.len(), n);
        let mut node = PacedSenderNode::new(Vec::new(), gap, "partial");
        node.arm_replay();
        let mut next_seq = FnvHashMap::default();
        node.enqueue_round(plan_round(&config, [(7, ep, npairs(70))], &mut next_seq, 0));
        for _ in 0..k {
            node.on_timer(&mut fabric, node.pacing_token());
        }
        let first = std::mem::take(&mut fabric.sent);
        assert_eq!(bytes(&first), bytes(&reference[..k]));
        assert_eq!(node.replay_retained(), k);

        let tail = NackRequest { next_expected: j, tail: true, ranges: Vec::new() };
        let replayed = fabric.nack(&mut node, 7, &tail);
        assert_eq!(bytes(&replayed), bytes(&reference[j as usize..k]));
        assert_eq!(node.frames_replayed, (k - j as usize) as u64);
        // An explicit range past the transmitted prefix is clipped too.
        let ahead = NackRequest {
            next_expected: 0,
            tail: false,
            ranges: vec![NackRange { first: k as u32 - 1, count: 3 }],
        };
        assert_eq!(bytes(&fabric.nack(&mut node, 7, &ahead)), bytes(&reference[k - 1..k]));

        let ticks = fabric.timers.len();
        let mut rest = Vec::new();
        for _ in k..n {
            node.on_timer(&mut fabric, node.pacing_token());
            assert_eq!(fabric.sent.len(), 1, "one frame per tick");
            rest.append(&mut fabric.sent);
        }
        assert_eq!(bytes(&rest), bytes(&reference[k..]));
        assert_eq!(fabric.timers[ticks..], vec![gap; n - k][..], "re-armed on the gap grid");
        assert!(fabric.drain(&mut node).is_empty());
        assert_eq!(first.len() + replayed.len() + rest.len(), n + (k - j as usize));
    }

    /// Records the instant every frame reaches it.
    #[derive(Default)]
    struct ArrivalLog(Vec<Time>);

    impl Node for ArrivalLog {
        fn on_packet(&mut self, ctx: &mut dyn Fabric, _port: PortId, _frame: Frame) {
            self.0.push(ctx.now());
        }
    }

    /// A worker outage shorter than one pacing gap: the pre-kill tick
    /// falls due after the revive and survives it. `on_revive` restarts
    /// the chain and retires that tick, so after the revive the sender
    /// transmits exactly one gap apart — not at twice the rate — and
    /// every frame goes out exactly once.
    #[test]
    fn revive_inside_one_gap_keeps_a_single_pacing_chain() {
        use daiet_netsim::{LinkSpec, NodeScript, Simulator};

        let gap = Duration::from_micros(10);
        let config = DaietConfig::default();
        let ep = Endpoints::from_ids(1, 2);
        // 12 full DATA frames, then the END.
        let sender = one_shot_sender(&config, 0, [(1, ep, npairs(120))], gap, "blipped");
        let mut sim = Simulator::new(3);
        let s = sim.add_node(Box::new(sender));
        let log = sim.add_node(Box::new(ArrivalLog::default()));
        sim.connect(s, log, LinkSpec::fast());
        // Ticks fall at 10, 20, 30, … µs; the outage covers none of them.
        let at = |us| Time::ZERO + Duration::from_micros(us);
        let revive = at(35);
        sim.script_node(s, NodeScript::down_between(at(32), revive));
        sim.run();

        let arrivals = &sim.node_ref::<ArrivalLog>(log).unwrap().0;
        assert_eq!(arrivals.len(), 13, "every frame exactly once");
        // Same-sized DATA frames cross the idle link in the same time, so
        // their arrival spacing is their transmit spacing.
        let data = &arrivals[..12];
        let after: Vec<Time> = data.iter().copied().filter(|&t| t > revive).collect();
        assert!(after.len() > 2, "the sender must resume after the revive");
        for w in data.windows(2) {
            assert!(w[1] - w[0] >= gap, "faster than the pacing: {:?}", w);
        }
        for w in after.windows(2) {
            assert_eq!(w[1] - w[0], gap, "transmit instants after the revive");
        }
        assert_eq!(sim.node_ref::<PacedSenderNode>(s).unwrap().pending(), 0);
    }

    #[test]
    fn end_to_end_sender_switch_reducer() {
        use crate::switch_agg::{DaietEngine, TreeStateConfig};
        use daiet_dataplane::pipeline::{ActionSpec, Pipeline};
        use daiet_dataplane::table::{Field, Table};
        use daiet_dataplane::{Resources, Switch};
        use daiet_netsim::{LinkSpec, Simulator};

        let config = DaietConfig::default();
        let mut sim = Simulator::new(11);

        // Two senders, one reducer, one switch doing the aggregation.
        let gap = Duration::from_micros(1);
        let s1 = sim.add_node(Box::new(one_shot_sender(
            &config,
            0,
            [(1, Endpoints::from_ids(1, 3), vec![Pair::new(key("dog"), 2), Pair::new(key("cat"), 1)])],
            gap,
            "sender",
        )));
        let s2 = sim.add_node(Box::new(one_shot_sender(
            &config,
            1,
            [(1, Endpoints::from_ids(2, 3), vec![Pair::new(key("dog"), 5)])],
            gap,
            "sender",
        )));
        let reducer = sim.add_node(Box::new(ReducerHost::new(AggFn::Sum, 1)));

        let mut pipeline = Pipeline::new(Resources::tofino_like());
        let steer = pipeline
            .add_table(0, Table::new("daiet_steer", Field::DaietTreeId, 16, ActionSpec::NoOp))
            .unwrap();
        let l2 = pipeline.add_table(1, Table::new("l2", Field::EthDst, 16, ActionSpec::Drop)).unwrap();
        let mut sw = Switch::new("tor", pipeline);
        let mut engine = DaietEngine::new(config);
        engine.install_tree(TreeStateConfig {
            tree_id: 1,
            out_port: PortId(2), // reducer's port on the switch (3rd link)
            endpoints: Endpoints::from_ids(100, 3),
            agg: AggFn::Sum,
            children: 2,
            children_sources: Vec::new(),
        });
        let ext = sw.register_extern(Box::new(engine));
        sw.pipeline_mut()
            .table_mut(steer)
            .insert(&1u16.to_be_bytes(), ActionSpec::Invoke { ext, arg: 1 })
            .unwrap();
        sw.pipeline_mut()
            .table_mut(l2)
            .insert(&daiet_wire::EthernetAddress::from_id(3).0, ActionSpec::Forward(PortId(2)))
            .unwrap();

        let sw_id = sim.add_node(Box::new(sw));
        sim.connect(s1, sw_id, LinkSpec::fast()); // switch port 0
        sim.connect(s2, sw_id, LinkSpec::fast()); // switch port 1
        sim.connect(sw_id, reducer, LinkSpec::fast()); // switch port 2
        sim.run();

        let r = sim.node_ref::<ReducerHost>(reducer).unwrap();
        assert!(r.collector.is_complete());
        assert_eq!(r.collector.get(&key("dog")), Some(7));
        assert_eq!(r.collector.get(&key("cat")), Some(1));
        // The reducer saw exactly one END (from the switch), and at most
        // one DATA packet (both keys fit one packet).
        assert_eq!(r.collector.stats().end_packets, 1);
        assert_eq!(r.collector.stats().data_packets, 1);
    }
}
