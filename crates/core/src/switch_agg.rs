//! **Algorithm 1** — the per-packet aggregation logic a DAIET switch runs.
//!
//! For each tree the device stores two register arrays (keys and values)
//! "managed as a hash table with buckets of only one element", an *index
//! stack* recording which cells are in use ("this facilitates flushing the
//! results to the next node, avoiding a costly scan of the arrays"), a
//! one-packet *spillover bucket* absorbing hash collisions, and a
//! `remaining_children` counter armed by the controller. The paper's
//! pseudocode maps to [`DaietEngine`]'s internal `process_data` and
//! `process_end` methods, line for line:
//!
//! ```text
//! 1  header ← parseHeader(P)                      (dataplane parser)
//! 2  if header.type = DATA_PACKET then
//! 3      entries ← parsePayload(P, header.num_entries)
//! 4      foreach pair in entries do
//! 5          idx ← Hash(pair.key)                 (CRC-32 % cells)
//! 6          if keyRegister[idx] is empty then
//! 7              keyRegister[idx] ← pair.key
//! 8              valueRegister[idx] ← pair.value
//! 9              indexStack.push(idx)
//! 10         else if keyRegister[idx] = pair.key then
//! 11             updateValue(valueRegister[idx], pair.value)
//! 12         else
//! 13             store(spilloverBucket, pair)
//! 14             if spilloverBucket is full then
//! 15                 flushData(spilloverBucket)
//! 16 else if header.type = END_PACKET then
//! 17     remaining_children ← remaining_children − 1
//! 18     if remaining_children = 0 then
//! 19         flushData(keyRegister, valueRegister)
//! ```
//!
//! The engine is a [`SwitchExtern`], so every register access and hash is
//! charged against the switch's per-packet operation budget, and its SRAM
//! must be reserved through the dataplane's tracker before deployment.

use crate::agg::AggFn;
use crate::config::DaietConfig;
use crate::reliability::{NackRequest, NackTracker, RetransmitRing};
use daiet_dataplane::pipeline::{ExternOutput, PacketCtx, SwitchExtern};
use daiet_dataplane::register::RegisterArray;
use daiet_fabric::{Duration, Frame, FramePool, PortId, Time};
use daiet_wire::checksum::crc32;
use daiet_wire::daiet::{Header, Key, NackRange, PacketFlags, PacketType, Pair};
use daiet_wire::stack::{build_daiet_into, Endpoints};
use daiet_wire::fnv::FnvHashMap;
use daiet_wire::udp::DAIET_PORT;

/// One tree child as seen from a switch: the sender's simulator id (for
/// addressing NACKs) and the switch port leading down to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChildSource {
    /// The child's plan-slot / simulator id.
    pub id: u32,
    /// This switch's port toward the child.
    pub port: PortId,
}

/// Static, controller-installed configuration of one tree on one switch.
#[derive(Debug, Clone)]
pub struct TreeStateConfig {
    /// Tree identifier.
    pub tree_id: u16,
    /// Egress port toward the parent node.
    pub out_port: PortId,
    /// Addressing for frames this switch originates (src = this switch,
    /// dst = the tree's reducer).
    pub endpoints: Endpoints,
    /// The aggregation function.
    pub agg: AggFn,
    /// Number of children (mappers or downstream switches) that will each
    /// send exactly one END.
    pub children: u32,
    /// The identities and ports of those children — the NACK roster (may
    /// stay empty when NACK recovery is off; its length must equal
    /// `children` when it is on, which the controller guarantees). Empty
    /// on a pass-through switch, whose engine never sees the tree's
    /// frames.
    pub children_sources: Vec<ChildSource>,
}

/// Per-tree runtime state (Algorithm 1's registers).
struct TreeState {
    cfg: TreeStateConfig,
    keys: RegisterArray<[u8; daiet_wire::daiet::KEY_LEN]>,
    values: RegisterArray<u32>,
    /// Occupancy bitmap — the paper's "cell is empty" check. A real P4
    /// implementation reserves one bit per cell beside the key register.
    occupied: Vec<u64>,
    /// Indices of used cells, for O(used) flushes.
    index_stack: Vec<u32>,
    /// Collision victims awaiting forwarding.
    spillover: Vec<Pair>,
    /// Reused staging buffer for register flushes: one frame's pairs at
    /// a time, so it never holds more than `pairs_per_packet` (and is
    /// allocation-free after the first flush).
    flush_buf: Vec<Pair>,
    remaining_children: u32,
    /// Sequence counter for frames this switch originates.
    next_seq: u32,
    /// Recently emitted frames, replayable on NACK (empty ring when NACK
    /// recovery is off).
    rtx: RetransmitRing,
    /// All ENDs are in but a child flow still has gaps (reordered or
    /// NACK-replayed DATA in flight): the flush waits for the gate.
    flush_deferred: bool,
}

impl TreeState {
    fn new(cfg: TreeStateConfig, cells: usize, rtx_frames: usize) -> TreeState {
        TreeState {
            keys: RegisterArray::new(format!("daiet.keys[{}]", cfg.tree_id), cells, 16),
            values: RegisterArray::new(format!("daiet.values[{}]", cfg.tree_id), cells, 4),
            occupied: vec![0u64; cells.div_ceil(64)],
            index_stack: Vec::with_capacity(cells),
            spillover: Vec::new(),
            flush_buf: Vec::new(),
            remaining_children: cfg.children,
            next_seq: 0,
            rtx: RetransmitRing::new(rtx_frames),
            flush_deferred: false,
            cfg,
        }
    }

    #[inline]
    fn is_occupied(&self, idx: usize) -> bool {
        self.occupied[idx / 64] & (1 << (idx % 64)) != 0
    }

    #[inline]
    fn set_occupied(&mut self, idx: usize) {
        self.occupied[idx / 64] |= 1 << (idx % 64);
    }

    #[inline]
    fn clear_occupied(&mut self, idx: usize) {
        self.occupied[idx / 64] &= !(1 << (idx % 64));
    }
}

/// Counters the engine keeps (exposed to benches and tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// DATA packets aggregated (consumed).
    pub data_packets_in: u64,
    /// Pairs carried by those packets.
    pub pairs_in: u64,
    /// Pairs that found an empty cell (first occurrence of a key).
    pub pairs_inserted: u64,
    /// Pairs merged into an existing cell (traffic that disappears).
    pub pairs_aggregated: u64,
    /// Pairs diverted to the spillover bucket (hash collisions).
    pub collisions: u64,
    /// Spillover bucket flushes forced by a full bucket.
    pub spill_flushes: u64,
    /// END packets received.
    pub ends_in: u64,
    /// Full flushes performed (tree rounds completed).
    pub flushes: u64,
    /// Frames emitted toward the parent (DATA + END).
    pub frames_out: u64,
    /// Pairs emitted toward the parent.
    pub pairs_out: u64,
    /// DAIET packets for trees this switch is not configured for
    /// (forwarded unaggregated).
    pub unknown_tree: u64,
    /// ENDs received after the counter already reached zero (protocol
    /// violation by a child, or duplicated frame without NACK recovery).
    pub spurious_ends: u64,
    /// Flushes held back by the reorder gate (all ENDs in, but a child
    /// flow still had outstanding DATA).
    pub flushes_deferred: u64,
    /// NACK frames this switch consumed (from its parent direction).
    pub nacks_in: u64,
    /// NACK frames this switch originated (toward delinquent children).
    pub nacks_out: u64,
    /// Frames replayed from retransmit rings in response to NACKs.
    pub frames_replayed: u64,
}

/// The aggregation extern: all trees configured on one switch.
pub struct DaietEngine {
    config: DaietConfig,
    trees: FnvHashMap<u16, TreeState>,
    stats: EngineStats,
    /// Per-child gap tracking for NACK recovery — its reception bitmaps
    /// are also the duplicate filter (`None` when
    /// [`DaietConfig::nack_recovery`] is off).
    nack: Option<NackTracker>,
}

impl DaietEngine {
    /// An engine with no trees configured.
    pub fn new(config: DaietConfig) -> DaietEngine {
        // The gap tracker is switch SRAM: bounded at the flow cap its
        // reservation (`DaietConfig::sram_for_nack_tracker`) is computed
        // from, refusing packets from flows beyond it.
        let nack = config.nack_recovery.then(|| NackTracker::with_capacity(config.nack_flows));
        DaietEngine { trees: FnvHashMap::default(), stats: EngineStats::default(), config, nack }
    }

    /// Packets the gap tracker's bitmaps suppressed as duplicates (0
    /// without NACK recovery).
    pub fn duplicates_suppressed(&self) -> u64 {
        self.nack.as_ref().map_or(0, |n| n.duplicates)
    }

    /// Installs (or replaces) a tree's state. SRAM for
    /// [`DaietConfig::sram_per_tree`] must have been reserved by the
    /// controller beforehand. Reinstallation evicts the tree's stale
    /// gap-tracker flows so the cap is not consumed by dead senders (and
    /// a replaced roster cannot hold the flush gate closed). With NACK
    /// recovery on, the tree's children are seeded into the gap tracker
    /// so even a fully-silenced child gets NACKed.
    pub fn install_tree(&mut self, cfg: TreeStateConfig) {
        if let Some(nack) = self.nack.as_mut() {
            // Reinstallation must forget the old roster: a replaced
            // child's unsatisfied flow would otherwise hold the flush
            // gate closed forever (and consume flow-cap slots).
            nack.clear_tree(cfg.tree_id);
            for child in &cfg.children_sources {
                nack.expect(cfg.tree_id, child.id);
            }
        }
        let cells = self.config.register_cells;
        let rtx = if self.config.nack_recovery { self.config.rtx_frames } else { 0 };
        self.trees.insert(cfg.tree_id, TreeState::new(cfg, cells, rtx));
    }

    /// Uninstalls a tree: drops its registers, retransmit ring, and any
    /// gap-tracker flows. Used when a job departs, and when the
    /// scheduler re-plans a job by removing its trees before installing
    /// the re-routed ones (stale state would otherwise consume SRAM and,
    /// with NACK recovery, chase children that no longer send this way).
    pub fn remove_tree(&mut self, tree_id: u16) {
        if let Some(nack) = self.nack.as_mut() {
            nack.clear_tree(tree_id);
        }
        self.trees.remove(&tree_id);
    }

    /// The NACK gap tracker, when recovery is enabled.
    pub fn nack_tracker(&self) -> Option<&NackTracker> {
        self.nack.as_ref()
    }

    /// Retransmit-ring counters of one tree: `(buffered, evicted,
    /// replayed, misses, retired)`.
    pub fn rtx_stats(&self, tree_id: u16) -> Option<(usize, u64, u64, u64, u64)> {
        self.trees
            .get(&tree_id)
            .map(|t| (t.rtx.len(), t.rtx.evicted, t.rtx.replayed, t.rtx.misses, t.rtx.retired))
    }

    /// Number of trees configured.
    pub fn tree_count(&self) -> usize {
        self.trees.len()
    }

    /// A tree's NACK roster as installed (test inspection).
    #[cfg(test)]
    pub(crate) fn child_roster(&self, tree_id: u16) -> Option<&[ChildSource]> {
        self.trees.get(&tree_id).map(|t| t.cfg.children_sources.as_slice())
    }

    /// Engine counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// The configured DAIET parameters.
    pub fn config(&self) -> &DaietConfig {
        &self.config
    }

    /// Remaining-children counter of a tree (diagnostics).
    pub fn remaining_children(&self, tree_id: u16) -> Option<u32> {
        self.trees.get(&tree_id).map(|t| t.remaining_children)
    }

    /// Pairs currently held in a tree's registers (diagnostics).
    pub fn pairs_held(&self, tree_id: u16) -> Option<usize> {
        self.trees.get(&tree_id).map(|t| t.index_stack.len())
    }

    /// Algorithm 1, lines 2–15. Returns emissions (spillover flushes) and
    /// the operation count. Entries are decoded lazily from the packet's
    /// frame bytes — the data path never materializes an entry list.
    fn process_data(
        &mut self,
        tree_id: u16,
        entries: impl Iterator<Item = Pair>,
        pool: &FramePool,
    ) -> (Vec<(PortId, Frame)>, usize) {
        let spill_cap = self.config.spillover_capacity();
        let pairs_per_packet = self.config.pairs_per_packet;
        let tree = self.trees.get_mut(&tree_id).expect("caller checked tree exists");
        let mut emissions = Vec::new();
        let mut ops = 1; // preamble inspection
        self.stats.data_packets_in += 1;

        for pair in entries {
            self.stats.pairs_in += 1;
            // Line 5: idx ← Hash(pair.key).
            let idx = (crc32(&pair.key.0) as usize) % tree.keys.len();
            ops += 1; // hash
            ops += 1; // occupancy + key register read
            if !tree.is_occupied(idx) {
                // Lines 6–9: claim the empty cell.
                tree.keys.write(idx, pair.key.0);
                tree.values.write(idx, pair.value);
                tree.set_occupied(idx);
                tree.index_stack.push(idx as u32);
                ops += 2;
                self.stats.pairs_inserted += 1;
            } else if tree.keys.read(idx) == pair.key.0 {
                // Lines 10–11: merge.
                let agg = tree.cfg.agg;
                tree.values.update(idx, |v| agg.apply(v, pair.value));
                ops += 1;
                self.stats.pairs_aggregated += 1;
            } else {
                // Lines 12–15: collision → spillover bucket.
                tree.spillover.push(pair);
                ops += 1;
                self.stats.collisions += 1;
                if tree.spillover.len() >= spill_cap {
                    let mut pairs = std::mem::take(&mut tree.spillover);
                    Self::emit_pairs(
                        tree,
                        &pairs,
                        pairs_per_packet,
                        PacketFlags::SPILLOVER | PacketFlags::FROM_SWITCH,
                        &mut self.stats,
                        pool,
                        &mut emissions,
                    );
                    pairs.clear();
                    tree.spillover = pairs; // keep the capacity
                    self.stats.spill_flushes += 1;
                    ops += 2;
                }
            }
        }
        // This DATA may have been the gap a deferred flush was waiting on
        // (the gate re-checks the whole tree's flow state).
        let deferred = tree.flush_deferred;
        if deferred && self.flush_gate_open(tree_id) {
            ops += self.flush_tree(tree_id, pool, &mut emissions);
        }
        (emissions, ops)
    }

    /// True when nothing blocks flushing `tree_id`: without NACK recovery
    /// the gate is always open (Algorithm 1's behavior); with it, every
    /// child flow must be gapless through its END, so reordered or
    /// replayed DATA cannot arrive *after* the flush and strand itself in
    /// the re-armed registers.
    fn flush_gate_open(&self, tree_id: u16) -> bool {
        self.nack.as_ref().is_none_or(|n| n.tree_satisfied(tree_id))
    }

    /// Algorithm 1, lines 16–19.
    fn process_end(&mut self, tree_id: u16, pool: &FramePool) -> (Vec<(PortId, Frame)>, usize) {
        let mut emissions = Vec::new();
        let mut ops = 2; // counter read-modify-write
        self.stats.ends_in += 1;

        let tree = self.trees.get_mut(&tree_id).expect("caller checked tree exists");
        if tree.remaining_children == 0 {
            let deferred = tree.flush_deferred;
            self.stats.spurious_ends += 1;
            // A late or NACK-recovered END from an earlier round lands
            // here (the current round's ENDs already zeroed the counter)
            // — but it may be exactly the frame that closed its flow's
            // last gap. Re-check a deferred flush like `process_data`
            // does, or the gate would hold a *satisfied* round's flush
            // closed forever: no further DATA ever arrives to retry it.
            if deferred && self.flush_gate_open(tree_id) {
                ops += self.flush_tree(tree_id, pool, &mut emissions);
            }
            return (emissions, ops);
        }
        tree.remaining_children -= 1;
        if tree.remaining_children > 0 {
            return (emissions, ops);
        }
        if !self.flush_gate_open(tree_id) {
            // All ENDs counted, but a child still owes DATA (reordering
            // or a pending NACK replay): hold the flush until the gap
            // closes — `process_data` fires it.
            self.trees.get_mut(&tree_id).expect("exists").flush_deferred = true;
            self.stats.flushes_deferred += 1;
            return (emissions, ops);
        }
        ops += self.flush_tree(tree_id, pool, &mut emissions);
        (emissions, ops)
    }

    /// Line 19 of Algorithm 1: flush spillover + registers + END toward
    /// the parent and re-arm the child counter. Returns the ops spent.
    fn flush_tree(
        &mut self,
        tree_id: u16,
        pool: &FramePool,
        emissions: &mut Vec<(PortId, Frame)>,
    ) -> usize {
        let pairs_per_packet = self.config.pairs_per_packet;
        let tree = self.trees.get_mut(&tree_id).expect("caller checked tree exists");
        let mut ops = 0;

        // "The non-aggregated values in the spillover
        // bucket are the first to be sent to the next node, so that they
        // are more likely to be aggregated if the next node is a network
        // device and has spare memory" (§4).
        if !tree.spillover.is_empty() {
            let mut pairs = std::mem::take(&mut tree.spillover);
            Self::emit_pairs(
                tree,
                &pairs,
                pairs_per_packet,
                PacketFlags::SPILLOVER | PacketFlags::FROM_SWITCH,
                &mut self.stats,
                pool,
                emissions,
            );
            pairs.clear();
            tree.spillover = pairs;
        }

        // Walk the index stack instead of scanning the arrays, popping one
        // frame's cells at a time into the staging buffer: per-tree,
        // reused across rounds, and never bigger than one frame.
        let per_frame = pairs_per_packet.max(1);
        let mut pairs = std::mem::take(&mut tree.flush_buf);
        pairs.reserve_exact(per_frame);
        while !tree.index_stack.is_empty() {
            pairs.clear();
            while let Some(idx) = tree.index_stack.pop_if(|_| pairs.len() < per_frame) {
                let idx = idx as usize;
                pairs.push(Pair { key: Key(tree.keys.read(idx)), value: tree.values.read(idx) });
                tree.clear_occupied(idx);
                ops += 2;
            }
            Self::emit_pairs(
                tree,
                &pairs,
                pairs_per_packet,
                PacketFlags::FROM_SWITCH,
                &mut self.stats,
                pool,
                emissions,
            );
        }
        tree.flush_buf = pairs;

        // Propagate the END and re-arm for the next round (iterative
        // workloads run one round per superstep/training step). Sequence
        // numbers wrap — gap trackers compare RFC 1982-style.
        let end = Header::end(tree.cfg.tree_id, PacketFlags::FROM_SWITCH, tree.next_seq);
        tree.next_seq = tree.next_seq.wrapping_add(1);
        let mut buf = pool.buffer();
        build_daiet_into(&mut buf, &tree.cfg.endpoints, DAIET_PORT, &end, &[]);
        let frame = pool.frame(buf);
        tree.rtx.record(end.seq, frame.clone());
        emissions.push((tree.cfg.out_port, frame));
        self.stats.frames_out += 1;
        tree.remaining_children = tree.cfg.children;
        tree.flush_deferred = false;
        self.stats.flushes += 1;
        // Round boundary: retire ring entries a full receiver WINDOW
        // behind the emission edge. The parent ages such gaps out rather
        // than NACK them (`FlowRecv`), so these frames are dead — without
        // retirement an iterative tree whose rounds underfill the ring
        // would pin dead rounds' pooled buffers indefinitely (and, across
        // a sequence-space wrap, could answer a NACK for a reused seq
        // with a stale round's bytes).
        tree.rtx
            .retire_before(tree.next_seq.wrapping_sub(crate::reliability::WINDOW));
        ops += 2;
        ops
    }

    /// Serializes `pairs` into maximal DATA packets toward the parent,
    /// straight from the slice into pooled buffers (no per-packet entry
    /// list, no staging copy).
    #[allow(clippy::too_many_arguments)]
    fn emit_pairs(
        tree: &mut TreeState,
        pairs: &[Pair],
        pairs_per_packet: usize,
        flags: PacketFlags,
        stats: &mut EngineStats,
        pool: &FramePool,
        out: &mut Vec<(PortId, Frame)>,
    ) {
        for chunk in pairs.chunks(pairs_per_packet.max(1)) {
            let hdr = Header::data(tree.cfg.tree_id, flags, tree.next_seq);
            tree.next_seq = tree.next_seq.wrapping_add(1);
            stats.frames_out += 1;
            stats.pairs_out += chunk.len() as u64;
            let mut buf = pool.buffer();
            build_daiet_into(&mut buf, &tree.cfg.endpoints, DAIET_PORT, &hdr, chunk);
            let frame = pool.frame(buf);
            // Buffer for NACK replay (a no-op on a zero-capacity ring;
            // the clone is one refcount bump, not a copy).
            tree.rtx.record(hdr.seq, frame.clone());
            out.push((tree.cfg.out_port, frame));
        }
    }

    /// Handles a NACK arriving from the parent direction: replays the
    /// requested frames from the tree's retransmit ring, in original
    /// order, out the upstream port. Returns the emissions and ops spent.
    fn process_nack(
        &mut self,
        tree_id: u16,
        next_expected: u32,
        tail: bool,
        ranges: impl Iterator<Item = Pair>,
    ) -> (Vec<(PortId, Frame)>, usize) {
        let tree = self.trees.get_mut(&tree_id).expect("caller checked tree exists");
        let req = NackRequest {
            next_expected,
            tail,
            ranges: ranges.filter_map(|p| NackRange::from_pair(&p)).collect(),
        };
        self.stats.nacks_in += 1;
        let mut emissions = Vec::new();
        let out_port = tree.cfg.out_port;
        tree.rtx.replay(&req, |frame| {
            emissions.push((out_port, frame.clone()));
        });
        self.stats.frames_replayed += emissions.len() as u64;
        self.stats.frames_out += emissions.len() as u64;
        // One preamble inspection + one ring lookup per requested item.
        let ops = 2 + emissions.len();
        (emissions, ops)
    }
}

impl SwitchExtern for DaietEngine {
    fn invoke(&mut self, pkt: &mut PacketCtx, arg: u32, pool: &FramePool) -> ExternOutput {
        let Some(daiet) = pkt.parsed.daiet else {
            // Truncated or non-DAIET packet steered here by mistake: let
            // the later forwarding stages handle it untouched.
            return ExternOutput { emit: Vec::new(), consume: false, ops: 1 };
        };
        debug_assert_eq!(u32::from(daiet.tree_id), arg, "steering rule and packet disagree");

        if !self.trees.contains_key(&daiet.tree_id) {
            self.stats.unknown_tree += 1;
            return ExternOutput { emit: Vec::new(), consume: false, ops: 1 };
        }

        // NACK recovery: record every DATA/END arrival so gaps age toward
        // a timeout — the tracker's verdict is also the duplicate filter
        // (replays must be absorbed before they touch non-idempotent
        // aggregation state) — and intercept NACKs addressed to *this
        // switch* (a NACK for a host further down rides the forwarding
        // tables).
        if self.nack.is_some() {
            match daiet.packet_type {
                PacketType::Data | PacketType::End => {
                    if let Some(child) =
                        pkt.parsed.ip.as_ref().and_then(|ip| ip.src_addr.host_id())
                    {
                        let fresh = self.nack.as_mut().expect("checked above").note(
                            daiet.tree_id,
                            child,
                            daiet.seq,
                            daiet.packet_type == PacketType::End,
                            pkt.now,
                        );
                        if !fresh {
                            return ExternOutput { emit: Vec::new(), consume: true, ops: 2 };
                        }
                    }
                }
                PacketType::Nack => {
                    let mine = pkt.parsed.ip.as_ref().is_some_and(|ip| {
                        ip.dst_addr
                            == self.trees[&daiet.tree_id].cfg.endpoints.src_ip
                    });
                    if mine {
                        let tail = daiet.flags.contains(PacketFlags::NACK_TAIL);
                        let (emit, ops) = self.process_nack(
                            daiet.tree_id,
                            daiet.seq,
                            tail,
                            pkt.parsed.daiet_pairs(),
                        );
                        return ExternOutput { emit, consume: true, ops };
                    }
                }
                PacketType::Unknown(_) => {}
            }
        }

        let (emit, ops) = match daiet.packet_type {
            PacketType::Data => {
                self.process_data(daiet.tree_id, pkt.parsed.daiet_pairs(), pool)
            }
            PacketType::End => self.process_end(daiet.tree_id, pool),
            // NACKs not addressed to this switch and unknown types pass
            // through toward the reducer/hosts.
            PacketType::Nack | PacketType::Unknown(_) => {
                return ExternOutput { emit: Vec::new(), consume: false, ops: 1 }
            }
        };
        ExternOutput { emit, consume: true, ops }
    }

    fn tick_interval(&self) -> Option<Duration> {
        self.nack
            .is_some()
            .then(|| Duration::from_nanos(self.config.nack_timeout_ns))
    }

    fn wants_tick(&self) -> bool {
        self.nack
            .as_ref()
            .is_some_and(|n| n.wants_attention(self.config.nack_max))
    }

    fn on_tick(&mut self, now: Time, pool: &FramePool) -> Vec<(PortId, Frame)> {
        let Some(nack) = self.nack.as_mut() else {
            return Vec::new();
        };
        let timeout = Duration::from_nanos(self.config.nack_timeout_ns);
        let ranges_per_packet = self.config.pairs_per_packet.max(1);
        let mut out = Vec::new();
        let trees = &self.trees;
        let stats = &mut self.stats;
        nack.for_each_due(now, timeout, self.config.nack_max, |tree_id, child, req| {
            let Some(tree) = trees.get(&tree_id) else { return };
            let Some(source) =
                tree.cfg.children_sources.iter().find(|c| c.id == child)
            else {
                return; // unrosterable flow: nowhere to send the NACK
            };
            // NACKs travel from this switch down to the child, out the
            // port the child's traffic came in on.
            let ep = Endpoints {
                dst_mac: daiet_wire::EthernetAddress::from_id(child),
                dst_ip: daiet_wire::Ipv4Address::from_id(child),
                src_mac: tree.cfg.endpoints.src_mac,
                src_ip: tree.cfg.endpoints.src_ip,
            };
            stats.nacks_out += crate::reliability::build_nack_frames(
                &ep,
                tree_id,
                &req,
                ranges_per_packet,
                pool,
                |f| out.push((source.port, f)),
            );
        });
        out
    }

    fn on_node_fail(&mut self) {
        // Power cycle: every tree's registers, spillover, retransmit ring
        // and the gap-tracker SRAM vanish. The engine comes back with
        // *no* trees — frames for formerly-configured trees forward
        // unaggregated via L2 until the controller reinstalls or re-plans
        // (the silent-corruption vector the chaos tests pin). Host-side
        // diagnostic counters survive; they are not switch SRAM.
        self.trees.clear();
        if self.nack.is_some() {
            self.nack = Some(NackTracker::with_capacity(self.config.nack_flows));
        }
    }

    fn name(&self) -> String {
        "daiet-aggregation".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daiet_dataplane::parser::{parse, ParserConfig};
    use daiet_wire::daiet::Repr;
    use daiet_wire::stack::build_daiet;

    fn engine(cells: usize, children: u32) -> DaietEngine {
        let mut e = DaietEngine::new(DaietConfig {
            register_cells: cells,
            ..DaietConfig::default()
        });
        e.install_tree(TreeStateConfig {
            tree_id: 1,
            out_port: PortId(9),
            endpoints: Endpoints::from_ids(100, 200),
            agg: AggFn::Sum,
            children,
            children_sources: Vec::new(),
        });
        e
    }

    fn key(s: &str) -> Key {
        Key::from_str_key(s).unwrap()
    }

    /// Runs a repr through the engine via the SwitchExtern interface.
    fn drive(e: &mut DaietEngine, repr: &Repr) -> ExternOutput {
        let frame = Frame::from(build_daiet(&Endpoints::from_ids(1, 200), 5, repr));
        let parsed = parse(frame, &ParserConfig::default()).unwrap();
        let mut pkt = PacketCtx::new(PortId(0), parsed);
        e.invoke(&mut pkt, u32::from(repr.tree_id), &FramePool::new())
    }

    /// Parses frames emitted by the engine back into reprs.
    fn parse_emissions(out: &ExternOutput) -> Vec<Repr> {
        out.emit
            .iter()
            .map(|(_, f)| {
                let parsed = parse(f.clone(), &ParserConfig::default()).unwrap();
                parsed.daiet_repr().expect("engine emits DAIET frames")
            })
            .collect()
    }

    /// An engine with NACK recovery and one tree fed by `children`
    /// rostered child hosts (ids 1..=children, each on its own port).
    fn recovering_engine(children: u32) -> DaietEngine {
        let mut e = DaietEngine::new(DaietConfig {
            register_cells: 4096,
            nack_recovery: true,
            rtx_frames: 16,
            ..DaietConfig::default()
        });
        e.install_tree(TreeStateConfig {
            tree_id: 1,
            out_port: PortId(9),
            endpoints: Endpoints::from_ids(100, 200),
            agg: AggFn::Sum,
            children,
            children_sources: (1..=children)
                .map(|c| ChildSource { id: c, port: PortId(c as usize - 1) })
                .collect(),
        });
        e
    }

    /// Drives a repr from host `src` at time `now`.
    fn drive_at(e: &mut DaietEngine, src: u32, repr: &Repr, now: Time) -> ExternOutput {
        let frame = Frame::from(build_daiet(&Endpoints::from_ids(src, 200), 5, repr));
        let parsed = parse(frame, &ParserConfig::default()).unwrap();
        let mut pkt = PacketCtx::at(PortId(0), parsed, now);
        e.invoke(&mut pkt, u32::from(repr.tree_id), &FramePool::new())
    }

    /// Regression: replacing a tree must evict the old roster's gap
    /// state. A dead former child left unsatisfied (even after its NACK
    /// budget ran out) would hold the flush gate closed forever — the
    /// new roster's ENDs would defer the flush to a retry that can never
    /// succeed, and the reducer would silently never see results.
    #[test]
    fn reinstalling_a_tree_forgets_the_old_roster() {
        let mut e = recovering_engine(2);
        // Old child 1 delivers a gapped stream (seq 1 lost) and goes away.
        let mut r = Repr::data(1, vec![Pair::new(key("a"), 1)]);
        r.seq = 0;
        drive_at(&mut e, 1, &r, Time(10));
        let mut end = Repr::end(1);
        end.seq = 2;
        drive_at(&mut e, 1, &end, Time(20));
        // The tree is re-deployed with a single fresh child, id 3.
        e.install_tree(TreeStateConfig {
            tree_id: 1,
            out_port: PortId(9),
            endpoints: Endpoints::from_ids(100, 200),
            agg: AggFn::Sum,
            children: 1,
            children_sources: vec![ChildSource { id: 3, port: PortId(0) }],
        });
        assert!(e.nack_tracker().unwrap().flows_evicted >= 2, "old roster evicted");
        // The new child delivers a complete round: the flush gate must
        // open on its END alone.
        let mut d = Repr::data(1, vec![Pair::new(key("b"), 7)]);
        d.seq = 0;
        drive_at(&mut e, 3, &d, Time(30));
        let mut end = Repr::end(1);
        end.seq = 1;
        let out = drive_at(&mut e, 3, &end, Time(40));
        assert!(
            out.emit.iter().any(|(p, _)| *p == PortId(9)),
            "flush must go out upstream, not defer on the dead roster"
        );
        assert_eq!(e.stats().flushes_deferred, 0);
        assert!(!e.wants_tick(), "no flow left to chase");
    }

    /// Regression (ISSUE 5): a deferred flush must fire when the last gap
    /// is closed by a late/NACK-recovered **END**, not only by DATA. In a
    /// continuous multi-round stream, round r's lost END can arrive after
    /// round r+1's END already zeroed the child counter; that recovered
    /// END takes the "spurious" path — which used to return without
    /// re-checking the gate, holding a satisfied round's flush closed
    /// forever (no further DATA ever arrives to retry it).
    #[test]
    fn deferred_flush_fires_when_a_recovered_end_closes_the_last_gap() {
        let mut e = recovering_engine(1);
        // Round 1: DATA seq 0 arrives; its END (seq 1) is lost.
        let mut d = Repr::data(1, vec![Pair::new(key("a"), 1)]);
        d.seq = 0;
        drive_at(&mut e, 1, &d, Time(10));
        // Round 2 streams in on the same registers: DATA seq 2, END seq 3.
        let mut d2 = Repr::data(1, vec![Pair::new(key("b"), 2)]);
        d2.seq = 2;
        drive_at(&mut e, 1, &d2, Time(20));
        let mut end2 = Repr::end(1);
        end2.seq = 3;
        let out = drive_at(&mut e, 1, &end2, Time(30));
        // Counter hit zero but the flow still has a gap at seq 1: defer.
        assert!(out.emit.is_empty());
        assert_eq!(e.stats().flushes_deferred, 1);
        assert_eq!(e.stats().flushes, 0);
        // The NACK-replayed round-1 END closes the gap — the flow is now
        // satisfied and the deferred flush must fire, END and all.
        let mut end1 = Repr::end(1);
        end1.seq = 1;
        let out = drive_at(&mut e, 1, &end1, Time(40));
        assert_eq!(e.stats().spurious_ends, 1, "the late END is spurious for the counter");
        assert_eq!(e.stats().flushes, 1, "but it must still release the deferred flush");
        let reprs = parse_emissions(&out);
        assert_eq!(reprs.last().unwrap().packet_type, PacketType::End);
        let pairs: Vec<Pair> = reprs.iter().flat_map(|r| r.entries.clone()).collect();
        let mut got: Vec<(Key, u32)> = pairs.iter().map(|p| (p.key, p.value)).collect();
        got.sort();
        assert_eq!(got, vec![(key("a"), 1), (key("b"), 2)]);
        assert!(!e.wants_tick(), "nothing left to chase");
    }

    #[test]
    fn engine_nacks_delinquent_children_on_tick() {
        let mut e = recovering_engine(2);
        assert!(e.wants_tick(), "rostered flows start unsatisfied");
        assert!(e.tick_interval().is_some());
        // Child 1 delivers seq 0 and its END (seq 2); seq 1 is lost.
        // Child 2 stays entirely silent.
        let mut r = Repr::data(1, vec![Pair::new(key("a"), 1)]);
        r.seq = 0;
        drive_at(&mut e, 1, &r, Time(10));
        let mut end = Repr::end(1);
        end.seq = 2;
        drive_at(&mut e, 1, &end, Time(20));
        let out = e.on_tick(Time(1_000_000), &FramePool::new());
        assert_eq!(out.len(), 2, "one NACK per delinquent child");
        assert_eq!(e.stats().nacks_out, 2);
        // NACKs leave on each child's own port, addressed to the child.
        let mut by_port: Vec<(usize, Repr, daiet_wire::Ipv4Address)> = out
            .iter()
            .map(|(p, f)| {
                let parsed = parse(f.clone(), &ParserConfig::default()).unwrap();
                let dst = parsed.ip.as_ref().unwrap().dst_addr;
                (p.0, parsed.daiet_repr().unwrap(), dst)
            })
            .collect();
        by_port.sort_by_key(|(p, ..)| *p);
        let (p0, nack0, dst0) = &by_port[0];
        assert_eq!(*p0, 0);
        assert_eq!(*dst0, daiet_wire::Ipv4Address::from_id(1));
        assert_eq!(nack0.packet_type, PacketType::Nack);
        let ranges: Vec<daiet_wire::daiet::NackRange> = nack0.nack_ranges().collect();
        assert_eq!(ranges, vec![daiet_wire::daiet::NackRange { first: 1, count: 1 }]);
        assert!(!nack0.flags.contains(PacketFlags::NACK_TAIL), "END was seen");
        let (p1, nack1, dst1) = &by_port[1];
        assert_eq!(*p1, 1);
        assert_eq!(*dst1, daiet_wire::Ipv4Address::from_id(2));
        assert_eq!(nack1.seq, 0, "silent child: everything from 0");
        assert!(nack1.flags.contains(PacketFlags::NACK_TAIL));
        assert!(nack1.entries.is_empty());
        // Once both children complete, the engine goes quiescent.
        let mut r1 = Repr::data(1, vec![Pair::new(key("a"), 2)]);
        r1.seq = 1;
        drive_at(&mut e, 1, &r1, Time(2_000_000));
        for (s, is_end) in [(0u32, false), (1, true)] {
            let mut r = if is_end { Repr::end(1) } else { Repr::data(1, vec![Pair::new(key("b"), 1)]) };
            r.seq = s;
            drive_at(&mut e, 2, &r, Time(2_000_100 + u64::from(s)));
        }
        assert!(!e.wants_tick(), "all flows satisfied");
    }

    #[test]
    fn engine_replays_flushed_frames_on_nack() {
        let mut e = recovering_engine(1);
        // Child 1 sends 15 distinct pairs and its END → flush emits 2
        // DATA frames (10 + 5 pairs) + 1 END, seqs 0, 1, 2.
        let pairs: Vec<Pair> =
            (0..15).map(|i| Pair::new(key(&format!("k{i}")), i)).collect();
        let mut seq = 0u32;
        for chunk in pairs.chunks(10) {
            let mut r = Repr::data(1, chunk.to_vec());
            r.seq = seq;
            seq += 1;
            drive_at(&mut e, 1, &r, Time(10));
        }
        let mut end = Repr::end(1);
        end.seq = seq;
        let flush = drive_at(&mut e, 1, &end, Time(20));
        assert_eq!(flush.emit.len(), 3);
        assert_eq!(e.rtx_stats(1), Some((3, 0, 0, 0, 0)));

        // The parent lost the middle DATA frame (seq 1) and the END
        // (seq 2): its NACK names the gap and requests the tail.
        let nack = Repr::nack(
            1,
            2,
            true,
            &[daiet_wire::daiet::NackRange { first: 1, count: 1 }],
        );
        // NACKs to this switch are addressed to its own tree source addr.
        let frame = Frame::from(build_daiet(&Endpoints::from_ids(200, 100), 5, &nack));
        let parsed = parse(frame, &ParserConfig::default()).unwrap();
        let mut pkt = PacketCtx::at(PortId(9), parsed, Time(30));
        let out = e.invoke(&mut pkt, 1, &FramePool::new());
        assert!(out.consume, "a NACK for this switch must not be forwarded");
        let replayed = parse_emissions(&out);
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed[0].seq, 1);
        assert_eq!(replayed[0].entries.len(), 5);
        assert_eq!(replayed[1].packet_type, PacketType::End);
        assert_eq!(replayed[1].seq, 2);
        assert!(out.emit.iter().all(|(p, _)| *p == PortId(9)), "replays go upstream");
        assert_eq!(e.stats().nacks_in, 1);
        assert_eq!(e.stats().frames_replayed, 2);

        // A NACK addressed to some *other* node passes through untouched.
        let foreign = Frame::from(build_daiet(&Endpoints::from_ids(200, 77), 5, &nack));
        let parsed = parse(foreign, &ParserConfig::default()).unwrap();
        let mut pkt = PacketCtx::at(PortId(9), parsed, Time(40));
        let out = e.invoke(&mut pkt, 1, &FramePool::new());
        assert!(!out.consume);
        assert!(out.emit.is_empty());
    }

    #[test]
    fn sums_matching_keys_into_one_pair() {
        let mut e = engine(1024, 2);
        let out = drive(&mut e, &Repr::data(1, vec![Pair::new(key("cat"), 2)]));
        assert!(out.consume);
        assert!(out.emit.is_empty());
        let out = drive(&mut e, &Repr::data(1, vec![Pair::new(key("cat"), 5)]));
        assert!(out.emit.is_empty());
        assert_eq!(e.stats().pairs_inserted, 1);
        assert_eq!(e.stats().pairs_aggregated, 1);
        assert_eq!(e.pairs_held(1), Some(1));

        // Two ENDs flush a single aggregated pair + END.
        drive(&mut e, &Repr::end(1));
        let out = drive(&mut e, &Repr::end(1));
        let reprs = parse_emissions(&out);
        assert_eq!(reprs.len(), 2); // one DATA + one END
        assert_eq!(reprs[0].entries, vec![Pair::new(key("cat"), 7)]);
        assert_eq!(reprs[1].packet_type, PacketType::End);
        assert!(reprs[0].flags.contains(PacketFlags::FROM_SWITCH));
        assert!(!reprs[0].flags.contains(PacketFlags::SPILLOVER));
    }

    #[test]
    fn flush_waits_for_all_children() {
        let mut e = engine(64, 3);
        drive(&mut e, &Repr::data(1, vec![Pair::new(key("x"), 1)]));
        assert!(drive(&mut e, &Repr::end(1)).emit.is_empty());
        assert!(drive(&mut e, &Repr::end(1)).emit.is_empty());
        assert_eq!(e.remaining_children(1), Some(1));
        let out = drive(&mut e, &Repr::end(1));
        assert_eq!(out.emit.len(), 2); // DATA + END
        // Counter re-armed for the next round.
        assert_eq!(e.remaining_children(1), Some(3));
        assert_eq!(e.pairs_held(1), Some(0));
    }

    #[test]
    fn collisions_go_to_spillover_and_flush_first() {
        // One cell: every distinct second key collides.
        let mut e = engine(1, 2);
        drive(&mut e, &Repr::data(1, vec![Pair::new(key("a"), 1)]));
        drive(&mut e, &Repr::data(1, vec![Pair::new(key("b"), 2)]));
        assert_eq!(e.stats().collisions, 1);
        drive(&mut e, &Repr::end(1));
        let out = drive(&mut e, &Repr::end(1));
        let reprs = parse_emissions(&out);
        // Spillover first ("more likely to be aggregated" downstream),
        // then registers, then END.
        assert_eq!(reprs.len(), 3);
        assert!(reprs[0].flags.contains(PacketFlags::SPILLOVER));
        assert_eq!(reprs[0].entries[0].key, key("b"));
        assert!(!reprs[1].flags.contains(PacketFlags::SPILLOVER));
        assert_eq!(reprs[1].entries[0].key, key("a"));
        assert_eq!(reprs[2].packet_type, PacketType::End);
    }

    #[test]
    fn full_spillover_bucket_flushes_immediately() {
        // Capacity 10 (pairs_per_packet). Insert 1 key then 10 colliding.
        let mut e = engine(1, 2);
        drive(&mut e, &Repr::data(1, vec![Pair::new(key("seed"), 1)]));
        let colliders: Vec<Pair> = (0..10)
            .map(|i| Pair::new(key(&format!("c{i}")), i as u32))
            .collect();
        let out = drive(&mut e, &Repr::data(1, colliders));
        assert_eq!(e.stats().spill_flushes, 1);
        let reprs = parse_emissions(&out);
        assert_eq!(reprs.len(), 1);
        assert_eq!(reprs[0].entries.len(), 10);
        assert!(reprs[0].flags.contains(PacketFlags::SPILLOVER));
    }

    #[test]
    fn aggregated_output_preserves_sums_exactly() {
        // Many keys, many updates, random-ish values; the flushed output
        // must equal a host-side aggregation.
        let mut e = engine(4096, 1);
        let mut expect: std::collections::HashMap<Key, u32> = Default::default();
        for round in 0u32..50 {
            let entries: Vec<Pair> = (0..10)
                .map(|i| {
                    let k = key(&format!("w{}", (round * 7 + i) % 40));
                    let v = round + i;
                    *expect.entry(k).or_insert(0) += v;
                    Pair::new(k, v)
                })
                .collect();
            drive(&mut e, &Repr::data(1, entries));
        }
        let out = drive(&mut e, &Repr::end(1));
        let mut got: std::collections::HashMap<Key, u32> = Default::default();
        for repr in parse_emissions(&out) {
            for p in repr.entries {
                *got.entry(p.key).or_insert(0) += p.value;
            }
        }
        assert_eq!(got, expect);
    }

    /// A flush pops one frame's cells at a time: 400 used cells leave as
    /// 40 full frames, newest cell first, with dense sequence numbers,
    /// and the staging buffer never grows past one frame.
    #[test]
    fn flush_stages_one_frame_at_a_time() {
        let mut e = engine(4096, 1);
        let per_frame = e.config.pairs_per_packet;
        let mut taken = vec![false; 4096];
        let keys: Vec<Key> = (0..)
            .map(|i| key(&format!("cell{i}")))
            .filter(|k| !std::mem::replace(&mut taken[crc32(&k.0) as usize % 4096], true))
            .take(400)
            .collect();
        for chunk in keys.chunks(per_frame) {
            drive(&mut e, &Repr::data(1, chunk.iter().map(|&k| Pair::new(k, 1)).collect()));
        }
        assert_eq!(e.pairs_held(1), Some(400));
        let reprs = parse_emissions(&drive(&mut e, &Repr::end(1)));
        assert_eq!(reprs.len(), 41);
        assert!(reprs.iter().enumerate().all(|(i, r)| r.seq == i as u32));
        assert!(reprs[..40].iter().all(|r| r.entries.len() == per_frame));
        assert_eq!(reprs[40].packet_type, PacketType::End);
        let flushed: Vec<Key> = reprs.iter().flat_map(|r| &r.entries).map(|p| p.key).collect();
        assert!(flushed.iter().eq(keys.iter().rev()), "pop order changed");
        let staged = e.trees[&1].flush_buf.capacity();
        assert!(staged <= per_frame, "staging buffer holds {staged} pairs");
    }

    #[test]
    fn min_aggregation_works() {
        let mut e = DaietEngine::new(DaietConfig::default());
        e.install_tree(TreeStateConfig {
            tree_id: 3,
            out_port: PortId(0),
            endpoints: Endpoints::from_ids(1, 2),
            agg: AggFn::Min,
            children: 1,
            children_sources: Vec::new(),
        });
        drive(&mut e, &Repr::data(3, vec![Pair::new(key("d"), 9)]));
        drive(&mut e, &Repr::data(3, vec![Pair::new(key("d"), 4)]));
        drive(&mut e, &Repr::data(3, vec![Pair::new(key("d"), 7)]));
        let out = drive(&mut e, &Repr::end(3));
        let reprs = parse_emissions(&out);
        assert_eq!(reprs[0].entries, vec![Pair::new(key("d"), 4)]);
    }

    #[test]
    fn unknown_tree_passes_through() {
        let mut e = engine(64, 1);
        let out = drive(&mut e, &Repr::data(99, vec![Pair::new(key("k"), 1)]));
        assert!(!out.consume);
        assert!(out.emit.is_empty());
        assert_eq!(e.stats().unknown_tree, 1);
    }

    #[test]
    fn spurious_end_is_counted_not_underflowed() {
        let mut e = engine(64, 1);
        drive(&mut e, &Repr::end(1)); // flush (children=1)
        // Re-armed to 1; an immediate extra END flushes again (empty), and
        // a third is spurious only if the counter were stuck — exercise
        // underflow protection by two quick ENDs after a flush.
        let out = drive(&mut e, &Repr::end(1));
        assert_eq!(e.stats().flushes, 2);
        let reprs = parse_emissions(&out);
        assert_eq!(reprs.len(), 1); // just the END; no data held
        assert_eq!(e.remaining_children(1), Some(1));
    }

    #[test]
    fn per_packet_ops_fit_hardware_budget() {
        // A full 10-pair packet must stay within the per-packet op budget
        // of the default resource profile.
        let mut e = engine(16_384, 2);
        let entries: Vec<Pair> = (0..10).map(|i| Pair::new(key(&format!("k{i}")), i)).collect();
        let out = drive(&mut e, &Repr::data(1, entries));
        let budget = daiet_dataplane::Resources::tofino_like().ops_per_packet;
        assert!(out.ops <= budget, "ops {} exceed budget {}", out.ops, budget);
    }

    #[test]
    fn emitted_frames_fit_parse_budget() {
        // Flush output must itself be aggregatable upstream: every emitted
        // DATA frame must parse within the default budget.
        let mut e = engine(4096, 1);
        let entries: Vec<Pair> = (0..40).map(|i| Pair::new(key(&format!("k{i}")), i)).collect();
        for chunk in entries.chunks(10) {
            drive(&mut e, &Repr::data(1, chunk.to_vec()));
        }
        let out = drive(&mut e, &Repr::end(1));
        for (_, frame) in &out.emit {
            let parsed = parse(frame.clone(), &ParserConfig::default()).unwrap();
            assert!(!parsed.daiet_truncated);
        }
        // 40 distinct keys → 4 DATA frames + 1 END.
        assert_eq!(out.emit.len(), 5);
    }

    #[test]
    fn multiple_trees_are_independent() {
        let mut e = engine(256, 1);
        e.install_tree(TreeStateConfig {
            tree_id: 2,
            out_port: PortId(3),
            endpoints: Endpoints::from_ids(100, 201),
            agg: AggFn::Sum,
            children: 1,
            children_sources: Vec::new(),
        });
        drive(&mut e, &Repr::data(1, vec![Pair::new(key("a"), 1)]));
        drive(&mut e, &Repr::data(2, vec![Pair::new(key("a"), 10)]));
        let out1 = drive(&mut e, &Repr::end(1));
        let reprs = parse_emissions(&out1);
        assert_eq!(reprs[0].entries[0].value, 1);
        assert_eq!(e.pairs_held(2), Some(1));
        // Tree 2's flush exits on its own port.
        let out2 = drive(&mut e, &Repr::end(2));
        assert!(out2.emit.iter().all(|(p, _)| *p == PortId(3)));
    }
}
