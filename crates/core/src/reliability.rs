//! Loss and duplication handling — the paper's *future work*, provided as
//! an optional extension ("In the current prototype, we do not address the
//! issue of packet losses, which we leave as future work", §4).
//!
//! One mechanism, **NACK-based recovery**, off by default to mirror the
//! prototype and switched on by `DaietConfig::nack_recovery` (the full
//! protocol is specified in `docs/RELIABILITY.md`). Every receiver — a
//! switch engine watching its tree children, a reducer or query
//! coordinator watching its last hop — tracks per-flow sequence gaps
//! ([`FlowRecv`], [`NackTracker`]), and after a configurable idle timeout
//! sends a NACK frame naming the missing [`NackRange`]s (plus a *tail*
//! request covering a possibly-lost END). Hosts rebuild what is asked for
//! from the round's retained pairs (fixed-size, so by offset); switches
//! replay recently flushed aggregates from a bounded, SRAM-accounted
//! [`RetransmitRing`]. [`ReceiverGuard`] packages the host side.
//!
//! Aggregation is *not idempotent* — replaying a DATA packet double-counts
//! its pairs, and replaying an END corrupts the child counter — so the
//! same reception bitmaps that find gaps also suppress every re-delivered
//! sequence number: one flow lookup per packet is both the gap detector
//! and the duplicate filter.

use daiet_fabric::{Duration, Fabric, Frame, FramePool, PortId, Time};
use daiet_wire::daiet::{Header, NackRange, PacketType};
use daiet_wire::fnv::FnvHashMap;
use daiet_wire::stack::{build_daiet_into, Endpoints};
use daiet_wire::udp::DAIET_PORT;
use daiet_wire::Ipv4Address;
use std::collections::VecDeque;

/// Size of each per-sender sequence window, in packets. Power of two so
/// the bitmap math stays cheap.
pub const WINDOW: u32 = 1024;

/// A sliding-window duplicate detector for one `(tree, sender)` flow.
///
/// Accepts each sequence number at most once; sequence numbers more than
/// [`WINDOW`] behind the highest seen are treated as duplicates (stale
/// replays), which is safe because senders emit sequence numbers densely
/// in order, so a genuine packet can never be that old on first delivery
/// unless more than a full window was reordered in flight.
///
/// Sequence numbers live in a **wrapping** 32-bit space: long-lived
/// senders (iterative workloads emit one seq per frame per tree,
/// indefinitely) roll past `u32::MAX`, so "newer" is decided by RFC
/// 1982-style serial-number comparison — `seq` is ahead of `max` iff the
/// wrapping forward distance is in `(0, 2^31)` — never by raw `<`/`>`.
#[derive(Debug, Clone)]
pub struct FlowWindow {
    /// Most recent sequence number accepted so far in serial-number order
    /// (`None` until the first).
    max_seen: Option<u32>,
    bits: [u64; (WINDOW as usize) / 64],
}

impl Default for FlowWindow {
    fn default() -> Self {
        FlowWindow { max_seen: None, bits: [0; (WINDOW as usize) / 64] }
    }
}

impl FlowWindow {
    #[inline]
    fn slot(seq: u32) -> (usize, u64) {
        // WINDOW is a power of two dividing 2^32, so consecutive wrapping
        // sequence numbers keep mapping to consecutive slots across the
        // u32::MAX → 0 boundary.
        let bit = seq % WINDOW;
        ((bit / 64) as usize, 1u64 << (bit % 64))
    }

    /// Returns `true` exactly once per fresh sequence number.
    ///
    /// Sequence numbers are compared RFC 1982-style, so a long-lived
    /// sender rolling past `u32::MAX` keeps being accepted — the raw
    /// `<`/`>` comparison this replaced rejected every post-wrap packet
    /// forever:
    ///
    /// ```
    /// use daiet::reliability::FlowWindow;
    ///
    /// let mut w = FlowWindow::default();
    /// assert!(w.accept(u32::MAX - 1));
    /// assert!(w.accept(u32::MAX));
    /// // The wrap is just another increment…
    /// assert!(w.accept(0));
    /// assert!(w.accept(1));
    /// // …and stays exactly-once on both sides of it.
    /// assert!(!w.accept(u32::MAX));
    /// assert!(!w.accept(0));
    /// // Bounded reordering across the boundary is tolerated too.
    /// let mut w = FlowWindow::default();
    /// assert!(w.accept(1));          // sender wrapped before we saw anything
    /// assert!(w.accept(u32::MAX));   // two behind, still inside the window
    /// assert!(w.accept(0));
    /// assert!(!w.accept(u32::MAX));
    /// ```
    pub fn accept(&mut self, seq: u32) -> bool {
        match self.max_seen {
            None => {
                let (w, m) = Self::slot(seq);
                self.bits[w] |= m;
                self.max_seen = Some(seq);
                true
            }
            Some(max) => {
                // RFC 1982 serial comparison: `seq` is newer than `max`
                // iff the wrapping forward distance is in (0, 2^31). A
                // distance of exactly 2^31 is undefined by the RFC; we
                // refuse it as stale, the safe direction for a duplicate
                // filter.
                let ahead = seq.wrapping_sub(max);
                if ahead != 0 && ahead < 1 << 31 {
                    // Slide forward, clearing every slot the window passed.
                    let advance = ahead.min(WINDOW);
                    for step in 1..=advance {
                        let (w, m) = Self::slot(max.wrapping_add(step));
                        self.bits[w] &= !m;
                    }
                    let (w, m) = Self::slot(seq);
                    self.bits[w] |= m;
                    self.max_seen = Some(seq);
                    true
                } else if max.wrapping_sub(seq) >= WINDOW {
                    false // too old: treat as duplicate
                } else {
                    let (w, m) = Self::slot(seq);
                    if self.bits[w] & m != 0 {
                        false
                    } else {
                        self.bits[w] |= m;
                        true
                    }
                }
            }
        }
    }
}

/// An unbounded per-`(tree, sender)` duplicate filter built from
/// [`FlowWindow`]s.
///
/// It has no runtime caller: receivers suppress duplicates with the
/// [`FlowRecv`] bitmaps NACK recovery already keeps. It stays only as the
/// target of the benchmark's `core.dedup_ns_per_accept` probe.
#[derive(Debug, Default)]
pub struct DedupWindow {
    flows: FnvHashMap<(u16, Ipv4Address), FlowWindow>,
    /// Packets suppressed as duplicates.
    pub duplicates: u64,
}

impl DedupWindow {
    /// An empty table.
    pub fn new() -> DedupWindow {
        DedupWindow::default()
    }

    /// Returns `true` when `(tree, sender, seq)` is fresh, counting
    /// everything else in [`duplicates`](Self::duplicates).
    pub fn accept(&mut self, tree: u16, sender: Ipv4Address, seq: u32) -> bool {
        let fresh = self.flows.entry((tree, sender)).or_default().accept(seq);
        if !fresh {
            self.duplicates += 1;
        }
        fresh
    }
}

/// Serializes the NACK frames for `req` — chunked per
/// [`NackRequest::for_each_frame`], addressed per `ep` — handing each
/// finished frame to `sink` and returning how many were built. The
/// **single** wire-construction path for NACKs: host receivers
/// ([`ReceiverGuard::on_timer`]) and the switch engine both delegate
/// here, so their wire behaviour cannot drift.
pub fn build_nack_frames(
    ep: &Endpoints,
    tree: u16,
    req: &NackRequest,
    ranges_per_packet: usize,
    pool: &FramePool,
    mut sink: impl FnMut(Frame),
) -> u64 {
    let mut built = 0;
    req.for_each_frame(ranges_per_packet, |tail, ranges| {
        let hdr = Header::nack(tree, req.next_expected, tail);
        let pairs: Vec<daiet_wire::daiet::Pair> = ranges.iter().map(NackRange::to_pair).collect();
        let mut buf = pool.buffer();
        build_daiet_into(&mut buf, ep, DAIET_PORT, &hdr, &pairs);
        sink(pool.frame(buf));
        built += 1;
    });
    built
}

/// RFC 1982 serial comparison: `a` is strictly after `b` in the wrapping
/// 32-bit sequence space (forward distance in `(0, 2^31)`).
#[inline]
pub fn seq_after(a: u32, b: u32) -> bool {
    let d = a.wrapping_sub(b);
    d != 0 && d < 1 << 31
}

/// RFC 1982 serial comparison: `a` equals or is after `b`.
#[inline]
pub fn seq_at_or_after(a: u32, b: u32) -> bool {
    a == b || seq_after(a, b)
}

/// What one NACK asks a sender to replay: the explicit missing ranges,
/// plus — when `tail` is set — everything at or after `next_expected`
/// (which is how a lost END, invisible as a "gap", is recovered).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NackRequest {
    /// One past the highest sequence number the receiver has seen
    /// (`0` for a flow it never heard from).
    pub next_expected: u32,
    /// Request replay of everything at or after `next_expected`.
    pub tail: bool,
    /// Explicit missing runs below `next_expected`.
    pub ranges: Vec<NackRange>,
}

impl NackRequest {
    /// Visits the per-frame payloads a NACK for this request must carry:
    /// at most `ranges_per_packet` ranges per frame, with the tail flag
    /// riding only the first (a duplicated tail would merely cause
    /// idempotent re-replays). This is the **single definition** of the
    /// frame-splitting rule, shared by host endpoints and the switch
    /// engine so their wire behaviour cannot drift.
    pub fn for_each_frame(&self, ranges_per_packet: usize, mut f: impl FnMut(bool, &[NackRange])) {
        let mut chunks = self.ranges.chunks(ranges_per_packet.max(1));
        f(self.tail, chunks.next().unwrap_or(&[]));
        for chunk in chunks {
            f(false, chunk);
        }
    }
}

/// Receiver-side per-flow reassembly state for NACK recovery: a cumulative
/// edge plus a [`WINDOW`]-wide reception bitmap ahead of it.
///
/// Every DAIET stream starts at sequence 0 when its sender (worker or
/// switch) is installed, so `contig` starts there; seqs forced more than a
/// window behind the newest traffic are abandoned (counted in
/// [`aged_out`](Self::aged_out)) rather than tracked unboundedly — switch
/// SRAM cannot grow.
#[derive(Debug, Clone)]
pub struct FlowRecv {
    /// Everything serially before this was received (or aged out).
    contig: u32,
    /// Highest sequence number seen so far (serial order), `None` before
    /// the first frame.
    max_seen: Option<u32>,
    /// Reception bitmap for `[contig, contig + WINDOW)`.
    bits: [u64; (WINDOW as usize) / 64],
    /// Sequence number of the most recent END frame.
    end_at: Option<u32>,
    /// Last time this flow made progress (fresh data) or was NACKed.
    last_activity: Time,
    /// NACKs sent for this flow since it last made progress.
    nacks_sent: u32,
    /// The flow exhausted its NACK budget without completing; cleared by
    /// fresh data.
    gave_up: bool,
    /// Sequence numbers abandoned because they fell a full window behind.
    pub aged_out: u64,
}

impl Default for FlowRecv {
    fn default() -> Self {
        FlowRecv {
            contig: 0,
            max_seen: None,
            bits: [0; (WINDOW as usize) / 64],
            end_at: None,
            last_activity: Time::ZERO,
            nacks_sent: 0,
            gave_up: false,
            aged_out: 0,
        }
    }
}

impl FlowRecv {
    #[inline]
    fn bit(&self, seq: u32) -> bool {
        let (w, m) = FlowWindow::slot(seq);
        self.bits[w] & m != 0
    }

    #[inline]
    fn set_bit(&mut self, seq: u32) {
        let (w, m) = FlowWindow::slot(seq);
        self.bits[w] |= m;
    }

    #[inline]
    fn clear_bit(&mut self, seq: u32) {
        let (w, m) = FlowWindow::slot(seq);
        self.bits[w] &= !m;
    }

    /// Records one received frame, returning `true` exactly once per
    /// fresh sequence number — the reception bitmap doubles as the
    /// duplicate filter (one flow lookup per packet, not two).
    /// Fresh data resets the NACK budget, but refreshes the activity
    /// clock only while the flow is gapless — an open gap must be
    /// NACKed within ~one timeout even if later frames keep streaming
    /// in, or the sender's bounded ring evicts the loss before recovery
    /// starts.
    pub fn note(&mut self, seq: u32, is_end: bool, now: Time) -> bool {
        // Fast path: strictly in-order delivery of a gapless flow — the
        // loss-free common case, which must stay near the cost of a
        // plain dedup lookup. Gapless (`contig == max_seen + 1`) means
        // every bit below `contig` was cleared as the edge passed it and
        // nothing was ever set at or above it, so the bitmap is provably
        // all-zero and can be skipped entirely.
        let gapless = match self.max_seen {
            None => true,
            Some(m) => m.wrapping_add(1) == self.contig,
        };
        if gapless && seq == self.contig {
            self.contig = seq.wrapping_add(1);
            self.max_seen = Some(seq);
            if is_end {
                self.end_at = Some(seq);
            }
            self.last_activity = now;
            self.nacks_sent = 0;
            self.gave_up = false;
            return true;
        }
        // Serially before the cumulative edge: an old duplicate/replay
        // (everything below `contig` was either received or aged out).
        if !seq_at_or_after(seq, self.contig) {
            return false;
        }
        // Keep the bitmap invariant `seq - contig < WINDOW`: drag the
        // edge forward, abandoning whatever it passes unreceived.
        while seq.wrapping_sub(self.contig) >= WINDOW {
            if !self.bit(self.contig) {
                self.aged_out += 1;
            } else {
                self.clear_bit(self.contig);
            }
            self.contig = self.contig.wrapping_add(1);
        }
        let fresh = !self.bit(seq);
        if fresh {
            self.set_bit(seq);
            self.nacks_sent = 0;
            self.gave_up = false;
        }
        if self.max_seen.is_none_or(|m| seq_after(seq, m)) {
            self.max_seen = Some(seq);
        }
        if is_end && self.end_at.is_none_or(|e| seq_after(seq, e)) {
            self.end_at = Some(seq);
        }
        // Advance the cumulative edge over received bits, clearing them so
        // their slots are fresh when the window comes around again.
        while self.bit(self.contig) {
            self.clear_bit(self.contig);
            self.contig = self.contig.wrapping_add(1);
        }
        // Refresh the idle clock only while the flow is **gapless**:
        // once a gap opens, continued fresh traffic beyond it must not
        // keep postponing the NACK — the sender's retransmit ring is
        // bounded, so recovery must start within ~one timeout of the
        // loss, not when the stream eventually pauses (prompt NACKs are
        // what keep a hot stream's ring evictions ahead of its losses).
        if fresh && self.contig == self.max_seen.expect("set above").wrapping_add(1) {
            self.last_activity = now;
        }
        fresh
    }

    /// True when the stream is gapless up to its newest frame *and* that
    /// frame is an END — the only state in which the receiver owes the
    /// sender nothing. An iterative sender's next round (frames beyond
    /// the END) makes the flow unsatisfied again.
    pub fn is_satisfied(&self) -> bool {
        match self.max_seen {
            None => false,
            Some(m) => self.contig == m.wrapping_add(1) && self.end_at == Some(m),
        }
    }

    /// One past the highest sequence seen (0 for a silent flow).
    pub fn next_expected(&self) -> u32 {
        self.max_seen.map_or(0, |m| m.wrapping_add(1))
    }

    /// Collects the missing runs in `[contig, max_seen)` as coalesced
    /// ranges.
    fn missing(&self, out: &mut Vec<NackRange>) {
        let Some(max) = self.max_seen else {
            return;
        };
        let mut s = self.contig;
        let mut open: Option<NackRange> = None;
        while s != max && seq_after(max, s) {
            if !self.bit(s) {
                match open.as_mut() {
                    Some(r) if r.first.wrapping_add(r.count) == s => r.count += 1,
                    _ => {
                        if let Some(r) = open.take() {
                            out.push(r);
                        }
                        open = Some(NackRange { first: s, count: 1 });
                    }
                }
            }
            s = s.wrapping_add(1);
        }
        if let Some(r) = open {
            out.push(r);
        }
    }

    /// The request a NACK for this flow should carry, or `None` when the
    /// flow is satisfied.
    pub fn request(&self) -> Option<NackRequest> {
        if self.is_satisfied() {
            return None;
        }
        let mut ranges = Vec::new();
        self.missing(&mut ranges);
        // The tail is outstanding unless the newest frame is the END
        // (then only interior gaps remain).
        let tail = self.max_seen.is_none() || self.end_at != self.max_seen;
        Some(NackRequest { next_expected: self.next_expected(), tail, ranges })
    }

    /// SRAM bytes one receive flow occupies on a switch: the bitmap plus
    /// edge/max/end registers and the activity timestamp.
    pub const fn sram_bytes() -> usize {
        (WINDOW as usize) / 8 + 20
    }
}

/// All receive flows one node tracks for NACK recovery, keyed by
/// `(tree, sender host id)`.
///
/// Flows are **seeded** from the deployment roster
/// ([`expect`](Self::expect)) so a flow whose every frame was lost is
/// still known and NACKed from sequence 0 — gap detection alone can never
/// see a sender it never heard. On switches the table is SRAM, reserved
/// by the controller as `daiet.nack@<switch>`.
///
/// ```
/// use daiet::reliability::NackTracker;
/// use daiet_fabric::{Duration, Time};
///
/// let mut t = NackTracker::new();
/// t.expect(1, 7); // roster: tree 1 is fed by host 7
/// // Frames 0 and 2 arrive; 1 is lost; the END (seq 3) arrives.
/// t.note(1, 7, 0, false, Time(10));
/// t.note(1, 7, 2, false, Time(20));
/// t.note(1, 7, 3, true, Time(30));
/// assert!(t.wants_attention());
/// // After the timeout, exactly one NACK is due, naming the gap.
/// let mut due = Vec::new();
/// t.for_each_due(Time(100_000), Duration::from_nanos(50), 8, |tree, child, req| {
///     due.push((tree, child, req));
/// });
/// assert_eq!(due.len(), 1);
/// let (tree, child, req) = &due[0];
/// assert_eq!((*tree, *child), (1, 7));
/// assert_eq!(req.ranges.len(), 1);
/// assert_eq!((req.ranges[0].first, req.ranges[0].count), (1, 1));
/// assert!(!req.tail, "the END was seen; only the interior gap is missing");
/// // Once seq 1 is retransmitted the flow is satisfied and goes quiet.
/// t.note(1, 7, 1, false, Time(200_000));
/// assert!(!t.wants_attention());
/// ```
#[derive(Debug)]
pub struct NackTracker {
    flows: FnvHashMap<(u16, u32), FlowRecv>,
    /// Maximum flows the table may track (`usize::MAX` when unbounded).
    max_flows: usize,
    /// Flows currently unsatisfied with NACK budget remaining — kept
    /// incrementally so [`wants_attention`](Self::wants_attention) is
    /// O(1); it is consulted on **every** packet arrival (timer
    /// re-arming), where an O(flows) scan would tax the loss-free hot
    /// path.
    needy: usize,
    /// NACK requests handed out (frames may be more: long range lists
    /// split across packets).
    pub nacks_requested: u64,
    /// Flows that exhausted their NACK budget without completing.
    pub flows_given_up: u64,
    /// Frames suppressed as duplicates by the reception bitmaps (the
    /// tracker doubles as the duplicate filter).
    pub duplicates: u64,
    /// Packets refused because their flow would exceed the flow cap.
    pub flows_rejected: u64,
    /// Flow entries evicted by [`NackTracker::clear_tree`] (tree
    /// teardown/reinstallation).
    pub flows_evicted: u64,
}

impl Default for NackTracker {
    fn default() -> Self {
        NackTracker {
            flows: FnvHashMap::default(),
            max_flows: usize::MAX,
            needy: 0,
            nacks_requested: 0,
            flows_given_up: 0,
            duplicates: 0,
            flows_rejected: 0,
            flows_evicted: 0,
        }
    }
}

impl NackTracker {
    /// An empty, **unbounded** tracker (host-side use only).
    pub fn new() -> NackTracker {
        NackTracker::default()
    }

    /// An empty tracker tracking at most `max_flows` `(tree, sender)`
    /// flows — the switch-side form, whose worst-case SRAM footprint
    /// ([`sram_capacity_for`](Self::sram_capacity_for)) is reserved
    /// against the chip budget at deployment.
    pub fn with_capacity(max_flows: usize) -> NackTracker {
        NackTracker { max_flows, ..NackTracker::default() }
    }

    /// Seeds the roster: `child`'s stream for `tree` is expected to exist
    /// (and to start at sequence 0). At the flow cap the seed is refused
    /// and counted — the deploy-time demand check sizes the cap so
    /// rostered flows always fit.
    pub fn expect(&mut self, tree: u16, child: u32) {
        let len = self.flows.len();
        if let daiet_wire::fnv::Entry::Vacant(e) = self.flows.entry((tree, child)) {
            if len >= self.max_flows {
                self.flows_rejected += 1;
                return;
            }
            e.insert(FlowRecv::default());
            self.needy += 1; // a fresh flow is unsatisfied with full budget
        }
    }

    /// Records one received DATA/END frame; `true` exactly once per fresh
    /// sequence number (see [`FlowRecv::note`] — this is also the
    /// duplicate-suppression verdict). A packet from a new flow while the
    /// table is at capacity is refused (`false`) and counted in
    /// [`flows_rejected`](Self::flows_rejected): an untracked flow could
    /// replay forever undetected, so suppression is the only exact answer.
    pub fn note(&mut self, tree: u16, child: u32, seq: u32, is_end: bool, now: Time) -> bool {
        let len = self.flows.len();
        let flow = match self.flows.entry((tree, child)) {
            daiet_wire::fnv::Entry::Occupied(e) => e.into_mut(),
            daiet_wire::fnv::Entry::Vacant(e) => {
                if len >= self.max_flows {
                    self.flows_rejected += 1;
                    return false;
                }
                self.needy += 1;
                e.insert(FlowRecv::default())
            }
        };
        let was_needy = !flow.is_satisfied() && !flow.gave_up;
        let fresh = flow.note(seq, is_end, now);
        let is_needy = !flow.is_satisfied() && !flow.gave_up;
        match (was_needy, is_needy) {
            (true, false) => self.needy -= 1,
            (false, true) => self.needy += 1,
            _ => {}
        }
        if !fresh {
            self.duplicates += 1;
        }
        fresh
    }

    /// Number of tracked flows.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// True when every flow of `tree` is satisfied (gapless through its
    /// END) — the *flush gate*: an aggregating switch must not flush a
    /// tree while a child's late or replayed DATA is still outstanding,
    /// or that data lands in the re-armed registers and is stranded until
    /// a next round that may never come.
    pub fn tree_satisfied(&self, tree: u16) -> bool {
        self.flows
            .iter()
            .filter(|((t, _), _)| *t == tree)
            .all(|(_, flow)| flow.is_satisfied())
    }

    /// Sequence numbers abandoned across all flows (fell a window behind).
    pub fn aged_out(&self) -> u64 {
        self.flows.values().map(|f| f.aged_out).sum()
    }

    /// True when **every** tracked flow is gapless through its newest END
    /// — the whole-receiver analogue of [`tree_satisfied`](Self::tree_satisfied).
    /// An iterative harness checks this at each round barrier: unlike
    /// [`wants_attention`](Self::wants_attention) (which goes quiet when a
    /// flow exhausts its NACK budget), this still reports `false` for a
    /// given-up flow, so a round with unrecoverable data cannot pass as
    /// complete.
    pub fn all_satisfied(&self) -> bool {
        self.flows.values().all(FlowRecv::is_satisfied)
    }

    /// Evicts every flow belonging to `tree` (tree teardown or
    /// reinstallation), counting the evictions. Without this, a
    /// replaced tree's dead senders would sit unsatisfied forever —
    /// holding the flush gate closed and the flow cap consumed.
    pub fn clear_tree(&mut self, tree: u16) {
        let before = self.flows.len();
        let needy = &mut self.needy;
        self.flows.retain(|(t, _), flow| {
            let keep = *t != tree;
            if !keep && !flow.is_satisfied() && !flow.gave_up {
                *needy -= 1;
            }
            keep
        });
        self.flows_evicted += (before - self.flows.len()) as u64;
    }

    /// True while any flow is incomplete and still has NACK budget —
    /// i.e. while a timer tick could produce work. Drives timer re-arming
    /// so an idle tracker costs no events. O(1): consulted per packet, so
    /// it must not rescan the flow table. The budget is the one passed to
    /// [`for_each_due`](Self::for_each_due), which must stay constant
    /// across a tracker's life.
    pub fn wants_attention(&self) -> bool {
        self.needy > 0
    }

    /// Visits every flow whose NACK timeout expired — `timeout` elapsed
    /// since it last made *gapless* progress (so an open gap comes due
    /// even mid-stream) or, for a gapless flow, since its last frame
    /// (the missing-tail case) — charging one unit of NACK budget per
    /// visit. Repeat NACKs without intervening progress back off
    /// exponentially (timeout × 2^sent, capped) — a flow that is merely
    /// *slow* (the sender hasn't flushed yet) is probed a handful of
    /// times, not hammered every tick. Flows exhausting their budget are
    /// counted in [`flows_given_up`](Self::flows_given_up) and never
    /// visited again (so the simulation terminates even when data is
    /// unrecoverable).
    pub fn for_each_due(
        &mut self,
        now: Time,
        timeout: Duration,
        max_nacks: u32,
        mut f: impl FnMut(u16, u32, NackRequest),
    ) {
        // Deterministic visiting order regardless of hash-map iteration.
        let mut due: Vec<(u16, u32)> = self
            .flows
            .iter()
            .filter(|(_, flow)| {
                // Cheap rejection first: the backoff multiplier is ≥ 1,
                // so a flow active within the base timeout cannot be due
                // under ANY backoff. On a loss-free run every flow takes
                // this exit, keeping the per-tick scan to one compare
                // per flow.
                if now < flow.last_activity + timeout {
                    return false;
                }
                let backoff = Duration::from_nanos(
                    timeout.as_nanos().saturating_mul(1 << flow.nacks_sent.min(6)),
                );
                !flow.is_satisfied()
                    && !flow.gave_up
                    && flow.nacks_sent < max_nacks
                    && now >= flow.last_activity + backoff
            })
            .map(|(&k, _)| k)
            .collect();
        due.sort_unstable();
        for key in due {
            let flow = self.flows.get_mut(&key).expect("selected above");
            let Some(req) = flow.request() else { continue };
            flow.nacks_sent += 1;
            flow.last_activity = now;
            if flow.nacks_sent == max_nacks {
                flow.gave_up = true;
                self.flows_given_up += 1;
                self.needy -= 1;
            }
            self.nacks_requested += 1;
            f(key.0, key.1, req);
        }
    }

    /// Worst-case SRAM bytes a tracker capped at `max_flows` occupies on
    /// a switch (what the controller reserves as `daiet.nack@<switch>`).
    pub fn sram_capacity_for(max_flows: usize) -> usize {
        max_flows.saturating_mul(FlowRecv::sram_bytes())
    }
}

/// A bounded ring of recently transmitted frames a switch can replay on
/// NACK — the sender half of switch-originated flush recovery.
///
/// Real switch SRAM cannot buffer unboundedly, so the ring holds the last
/// `capacity` frames per tree; NACKs arriving after eviction are counted
/// as [`misses`](Self::misses) (unrecoverable — the deploy-time demand
/// check sizes the ring so a full register flush plus END always fits).
#[derive(Debug, Default)]
pub struct RetransmitRing {
    slots: VecDeque<(u32, Frame)>,
    capacity: usize,
    /// Frames pushed out by newer ones before any NACK named them.
    pub evicted: u64,
    /// Frames replayed in response to NACKs.
    pub replayed: u64,
    /// Explicitly requested sequence numbers that were not in the ring.
    pub misses: u64,
    /// Frames retired by [`Self::retire_before`] (dead-round cleanup —
    /// unlike `evicted`, these were provably no longer NACKable).
    pub retired: u64,
}

impl RetransmitRing {
    /// A ring holding at most `capacity` frames.
    pub fn new(capacity: usize) -> RetransmitRing {
        RetransmitRing {
            slots: VecDeque::with_capacity(capacity),
            capacity,
            ..Default::default()
        }
    }

    /// Records a transmitted frame under its sequence number (cheap: the
    /// frame buffer is reference-counted, not copied).
    pub fn record(&mut self, seq: u32, frame: Frame) {
        if self.capacity == 0 {
            return;
        }
        if self.slots.len() == self.capacity {
            self.slots.pop_front();
            self.evicted += 1;
        }
        self.slots.push_back((seq, frame));
    }

    /// Frames currently held.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Retires every held frame whose sequence number is serially before
    /// `cutoff`, returning how many were dropped. The iterative-workload
    /// cleanup: receivers abandon gaps more than a [`WINDOW`] behind their
    /// newest traffic (see [`FlowRecv`]), so once a tree's emission
    /// counter reaches `cutoff + WINDOW`, frames below `cutoff` can never
    /// be legitimately NACKed again — holding them would only pin their
    /// pooled buffers (and, on a long run, risk answering a NACK for the
    /// *same sequence number* of a later wrap with a dead round's bytes).
    /// FIFO recording order is emission order, which is serial sequence
    /// order between retirements, so retirement pops from the front.
    pub fn retire_before(&mut self, cutoff: u32) -> usize {
        let mut n = 0usize;
        while let Some((seq, _)) = self.slots.front() {
            if seq_after(cutoff, *seq) {
                self.slots.pop_front();
                n += 1;
            } else {
                break;
            }
        }
        self.retired += n as u64;
        n
    }

    /// Replays every held frame the request names (explicit ranges, plus
    /// the tail at/after `next_expected` when requested), in original
    /// transmission order.
    pub fn replay(&mut self, req: &NackRequest, mut f: impl FnMut(&Frame)) {
        let mut matched_explicit: u64 = 0;
        for (seq, frame) in &self.slots {
            let in_ranges = req.ranges.iter().any(|r| r.contains(*seq));
            if in_ranges {
                matched_explicit += 1;
            }
            if in_ranges || (req.tail && seq_at_or_after(*seq, req.next_expected)) {
                f(frame);
                self.replayed += 1;
            }
        }
        let requested_explicit: u64 = req.ranges.iter().map(|r| u64::from(r.count)).sum();
        self.misses += requested_explicit.saturating_sub(matched_explicit);
    }

    /// SRAM bytes a ring of `capacity` slots occupies when each slot must
    /// hold a frame of at most `max_frame_bytes` plus its 4-byte tag.
    pub fn sram_capacity_for(capacity: usize, max_frame_bytes: usize) -> usize {
        capacity.saturating_mul(max_frame_bytes + 4)
    }
}

/// The receive-side reliability front door shared by every DAIET host
/// receiver ([`ReducerHost`](crate::worker::ReducerHost),
/// [`MultiTreeHost`](crate::worker::MultiTreeHost)): the host's NACK
/// driver — a [`NackTracker`] plus the addressing, timeout and budget
/// that turn due flows into wire frames — and the lazily-armed-timer
/// discipline, in one place so the receivers cannot drift.
///
/// Usage from a [`daiet_fabric::Node`]: call [`admit`](Self::admit) on
/// every received DAIET preamble and drop the frame when it returns
/// `false`; call [`arm`](Self::arm) after processing (and from
/// `on_start`); delegate `on_timer` to [`on_timer`](Self::on_timer).
#[derive(Debug, Default)]
pub struct ReceiverGuard {
    /// `None` until [`arm_nack_recovery`](Self::arm_nack_recovery): no
    /// suppression, no recovery.
    tracker: Option<NackTracker>,
    /// This host's id, the source address of its NACKs.
    self_id: u32,
    /// NACK timeout, which is also the tick period.
    timeout: Duration,
    /// NACKs per flow before it is given up.
    max_nacks: u32,
    /// Ranges packed into one NACK frame.
    ranges_per_packet: usize,
    nacks_emitted: u64,
    tick_armed: bool,
}

impl ReceiverGuard {
    /// No suppression, no recovery — the paper-faithful receive path.
    pub fn new() -> ReceiverGuard {
        ReceiverGuard::default()
    }

    /// Arms NACK recovery for the host with id `self_id`, watching one
    /// flow per `(tree, source)` in `sources` (see
    /// [`NackTracker::expect`]) and NACKing flows idle for `config`'s
    /// timeout at most `config.nack_max` times, at most
    /// `config.pairs_per_packet` ranges to a frame. The tracker's
    /// reception bitmaps double as the duplicate filter, so replays stay
    /// idempotent.
    pub fn arm_nack_recovery(
        &mut self,
        self_id: u32,
        config: &crate::DaietConfig,
        sources: impl IntoIterator<Item = (u16, u32)>,
    ) {
        let mut tracker = NackTracker::new();
        for (tree, child) in sources {
            tracker.expect(tree, child);
        }
        *self = ReceiverGuard {
            tracker: Some(tracker),
            self_id,
            timeout: Duration::from_nanos(config.nack_timeout_ns),
            max_nacks: config.nack_max,
            ranges_per_packet: config.pairs_per_packet.max(1),
            nacks_emitted: 0,
            tick_armed: self.tick_armed,
        };
    }

    /// The admission gate: `true` when the frame is fresh and must be
    /// processed, `false` for a known duplicate the caller drops (the
    /// NACK timer is re-armed either way — a duplicate can be the first
    /// sign a flow needs chasing). Non-DATA/END types and sources outside
    /// the `10/8` host-id scheme are not tracked and read as fresh.
    pub fn admit(&mut self, hdr: &Header, src: Ipv4Address, ctx: &mut dyn Fabric) -> bool {
        let Some(tracker) = self.tracker.as_mut() else { return true };
        let is_end = match hdr.packet_type {
            PacketType::Data => false,
            PacketType::End => true,
            _ => return true,
        };
        let Some(child) = src.host_id() else { return true };
        if !tracker.note(hdr.tree_id, child, hdr.seq, is_end, ctx.now()) {
            self.arm(ctx);
            return false;
        }
        true
    }

    /// Re-arms the NACK timer while recovery work is pending; a
    /// satisfied tracker schedules nothing, so an idle guard costs no
    /// events.
    pub fn arm(&mut self, ctx: &mut dyn Fabric) {
        if !self.tick_armed && self.tracker.as_ref().is_some_and(NackTracker::wants_attention) {
            self.tick_armed = true;
            ctx.schedule(self.timeout, 0);
        }
    }

    /// Timer callback: sends the NACK frames due now on port 0, each
    /// addressed from this host to a delinquent child, and re-arms. Long
    /// range lists are split across frames; the tail request rides only
    /// the first.
    pub fn on_timer(&mut self, ctx: &mut dyn Fabric) {
        self.tick_armed = false;
        if let Some(tracker) = self.tracker.as_mut() {
            let (self_id, ranges_per_packet) = (self.self_id, self.ranges_per_packet);
            let mut frames = Vec::new();
            let pool = ctx.pool();
            tracker.for_each_due(ctx.now(), self.timeout, self.max_nacks, |tree, child, req| {
                let ep = Endpoints::from_ids(self_id, child);
                build_nack_frames(&ep, tree, &req, ranges_per_packet, pool, |f| frames.push(f));
            });
            self.nacks_emitted += frames.len() as u64;
            for f in frames {
                ctx.send(PortId(0), f);
            }
        }
        self.arm(ctx);
    }

    /// Frames the gap tracker's bitmaps suppressed as duplicates (0
    /// without recovery).
    pub fn duplicates_suppressed(&self) -> u64 {
        self.tracker.as_ref().map_or(0, |t| t.duplicates)
    }

    /// NACK frames emitted (0 without recovery).
    pub fn nacks_emitted(&self) -> u64 {
        self.nacks_emitted
    }

    /// True when NACK recovery owes nothing — every tracked flow gapless
    /// through its newest END (vacuously true when recovery is not
    /// armed). See [`NackTracker::all_satisfied`]; round-barrier checks
    /// rely on this staying `false` for flows that exhausted their NACK
    /// budget with data still missing.
    pub fn all_satisfied(&self) -> bool {
        self.tracker.as_ref().is_none_or(NackTracker::all_satisfied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(n: u32) -> Ipv4Address {
        Ipv4Address::from_id(n)
    }

    #[test]
    fn first_delivery_accepts_duplicates_reject() {
        let mut w = FlowWindow::default();
        assert!(w.accept(0));
        assert!(!w.accept(0));
        assert!(w.accept(1));
        assert!(!w.accept(1));
        assert!(!w.accept(0));
    }

    #[test]
    fn out_of_order_within_window_is_fine() {
        let mut w = FlowWindow::default();
        assert!(w.accept(5));
        assert!(w.accept(3));
        assert!(w.accept(4));
        assert!(!w.accept(3));
        assert!(w.accept(6));
    }

    #[test]
    fn window_slides_and_reuses_slots() {
        let mut w = FlowWindow::default();
        assert!(w.accept(0));
        // Jump a full window ahead: slot 0 is recycled for seq WINDOW.
        assert!(w.accept(WINDOW));
        assert!(!w.accept(WINDOW));
        // seq 0 is now "too old" and must be refused even though its slot
        // bit was recycled.
        assert!(!w.accept(0));
        // Within the new window everything works.
        assert!(w.accept(WINDOW - 1));
    }

    #[test]
    fn big_jump_clears_stale_bits() {
        let mut w = FlowWindow::default();
        for s in 0..10 {
            assert!(w.accept(s));
        }
        assert!(w.accept(5 * WINDOW));
        // Slots of 0..10 were cleared by the slide; their old seqs are
        // outside the window and refused by the age check.
        assert!(!w.accept(9));
        // Fresh nearby seqs are accepted.
        assert!(w.accept(5 * WINDOW - 10));
    }

    /// Regression: raw `u32` comparison rejected every post-wrap sequence
    /// number forever (`0 > u32::MAX` is false and the "age" `u32::MAX - 0`
    /// dwarfs the window). Serial-number comparison must carry the flow
    /// straight across the boundary.
    #[test]
    fn sequence_space_wraps_cleanly() {
        let mut w = FlowWindow::default();
        assert!(w.accept(u32::MAX - 2));
        assert!(w.accept(u32::MAX - 1));
        assert!(w.accept(u32::MAX));
        // Post-wrap packets are fresh, not "stale duplicates".
        assert!(w.accept(0), "first post-wrap seq must be accepted");
        assert!(w.accept(1));
        assert!(w.accept(2));
        // ...and stay exactly-once.
        assert!(!w.accept(0));
        assert!(!w.accept(u32::MAX));
        // In-window reordering across the boundary still works.
        let mut w = FlowWindow::default();
        assert!(w.accept(2)); // sender wrapped before we saw anything else
        assert!(w.accept(u32::MAX), "3 behind, within the window");
        assert!(!w.accept(u32::MAX));
        assert!(w.accept(0));
        assert!(w.accept(1));
        assert!(!w.accept(0));
    }

    #[test]
    fn wrap_jump_clears_stale_bits_and_ages_out_old_seqs() {
        let mut w = FlowWindow::default();
        assert!(w.accept(u32::MAX - WINDOW / 2));
        // Jump across the boundary by several windows.
        assert!(w.accept(2 * WINDOW));
        // The pre-wrap seq is now more than a window behind: refused.
        assert!(!w.accept(u32::MAX - WINDOW / 2));
        // Slots recycled by the slide accept fresh nearby seqs.
        assert!(w.accept(2 * WINDOW - (WINDOW - 1)));
    }

    #[test]
    fn half_space_jump_is_refused_as_stale() {
        // Forward distance of exactly 2^31 is undefined under RFC 1982;
        // the filter must refuse rather than risk replays.
        let mut w = FlowWindow::default();
        assert!(w.accept(0));
        assert!(!w.accept(1 << 31));
        // Just under the half-space is still "newer".
        assert!(w.accept((1 << 31) - 1));
    }

    #[test]
    fn dedup_tracks_flows_independently() {
        let mut d = DedupWindow::new();
        assert!(d.accept(1, ip(1), 0));
        assert!(d.accept(1, ip(2), 0)); // other sender, same seq: fresh
        assert!(d.accept(2, ip(1), 0)); // other tree: fresh
        assert!(!d.accept(1, ip(1), 0));
        assert_eq!(d.duplicates, 1);
    }

    #[test]
    fn serial_comparisons_wrap() {
        assert!(seq_after(1, 0));
        assert!(seq_after(0, u32::MAX));
        assert!(!seq_after(u32::MAX, 0));
        assert!(!seq_after(5, 5));
        assert!(seq_at_or_after(5, 5));
        assert!(seq_at_or_after(0, u32::MAX));
        // The undefined half-space distance reads as "not after".
        assert!(!seq_after(1 << 31, 0));
    }

    #[test]
    fn flow_recv_tracks_gaps_and_satisfaction() {
        let mut f = FlowRecv::default();
        assert!(!f.is_satisfied());
        f.note(0, false, Time(1));
        f.note(3, false, Time(2)); // 1, 2 missing
        let req = f.request().unwrap();
        assert_eq!(req.next_expected, 4);
        assert!(req.tail, "no END yet");
        assert_eq!(req.ranges, vec![NackRange { first: 1, count: 2 }]);
        f.note(1, false, Time(3));
        f.note(2, false, Time(4));
        assert!(!f.is_satisfied(), "still no END");
        f.note(4, true, Time(5));
        assert!(f.is_satisfied());
        assert!(f.request().is_none());
        // The next round re-opens the flow.
        f.note(5, false, Time(6));
        assert!(!f.is_satisfied());
        let req = f.request().unwrap();
        assert!(req.tail);
        assert!(req.ranges.is_empty());
        f.note(6, true, Time(7));
        assert!(f.is_satisfied());
    }

    #[test]
    fn flow_recv_lost_end_surfaces_as_tail_request() {
        let mut f = FlowRecv::default();
        f.note(0, false, Time(1));
        f.note(1, false, Time(2));
        // END (seq 2) lost: no gap exists, only the tail is outstanding.
        let req = f.request().unwrap();
        assert!(req.ranges.is_empty());
        assert!(req.tail);
        assert_eq!(req.next_expected, 2);
    }

    #[test]
    fn flow_recv_silent_flow_requests_everything() {
        let f = FlowRecv::default();
        let req = f.request().unwrap();
        assert_eq!(req.next_expected, 0);
        assert!(req.tail);
        assert!(req.ranges.is_empty());
    }

    /// Satellite audit (ISSUE 5): a flow satisfied by round `r`'s END must
    /// not read as satisfied again — off the *old* END — while round
    /// `r+1`'s first frames are still arriving out of order. The
    /// invariant that protects it: `is_satisfied` demands `end_at ==
    /// max_seen`, and any new-round frame pushes `max_seen` past the old
    /// END while `end_at` only moves on a *newer* END.
    #[test]
    fn reopened_flow_is_not_satisfied_by_the_previous_rounds_end() {
        let mut f = FlowRecv::default();
        // Round 1: seqs 0..=4, END at 4, delivered clean.
        for s in 0..=4u32 {
            f.note(s, s == 4, Time(s as u64));
        }
        assert!(f.is_satisfied());
        // Round 2 is seqs 5..=8 (END 8). Every out-of-order prefix of the
        // new round must leave the flow unsatisfied until ALL of it is in.
        for order in [[6u32, 5, 8, 7], [8, 7, 6, 5], [7, 8, 5, 6], [5, 7, 6, 8]] {
            let mut f = f.clone();
            for (i, &s) in order.iter().enumerate() {
                f.note(s, s == 8, Time(100 + i as u64));
                let last = i == order.len() - 1;
                assert_eq!(
                    f.is_satisfied(),
                    last,
                    "after frame {i} of arrival order {order:?}: the old END (4) must \
                     not satisfy a partially-arrived new round"
                );
            }
            // And the request machinery agrees.
            assert!(f.request().is_none());
        }
        // In particular: new DATA beyond the old END, then silence — the
        // old END must not close the tail request.
        let mut g = f.clone();
        g.note(9, false, Time(200));
        let req = g.request().expect("reopened flow owes a request");
        assert!(req.tail, "tail must be outstanding: end_at is stale (old round)");
        assert_eq!(req.next_expected, 10);
    }

    /// A late-recovered END from round `r` arriving after round `r+1`
    /// already advanced the flow must not clobber the newer END edge.
    #[test]
    fn late_previous_round_end_does_not_regress_end_at() {
        let mut f = FlowRecv::default();
        // Round 1: 0,1 arrive; END (2) lost. Round 2: 3,4 with END 4.
        for (s, e) in [(0u32, false), (1, false), (3, false), (4, true)] {
            f.note(s, e, Time(s as u64));
        }
        assert!(!f.is_satisfied(), "seq 2 still missing");
        let req = f.request().unwrap();
        assert_eq!(req.ranges, vec![NackRange { first: 2, count: 1 }]);
        assert!(!req.tail, "round 2's END is the newest frame");
        // The replayed round-1 END closes the gap *across the round
        // boundary* without regressing end_at to the older END.
        assert!(f.note(2, true, Time(50)));
        assert!(f.is_satisfied());
        assert_eq!(f.next_expected(), 5);
    }

    #[test]
    fn flow_recv_ages_out_hopeless_gaps() {
        let mut f = FlowRecv::default();
        f.note(1, false, Time(1)); // 0 missing
        f.note(WINDOW + 5, false, Time(2)); // 0 now a full window behind
        assert!(f.aged_out >= 1);
        // The abandoned seq is no longer requested.
        let req = f.request().unwrap();
        assert!(req.ranges.iter().all(|r| !r.contains(0)));
    }

    #[test]
    fn flow_recv_duplicates_do_not_refresh_activity() {
        let mut f = FlowRecv::default();
        f.note(0, false, Time(10));
        f.note(0, false, Time(500));
        assert_eq!(f.last_activity, Time(10), "duplicate must not reset the clock");
    }

    #[test]
    fn tracker_budget_and_give_up() {
        let mut t = NackTracker::new();
        t.expect(1, 9);
        let timeout = Duration::from_nanos(100);
        let mut fired = 0;
        for tick in 1..=5u64 {
            t.for_each_due(Time(tick * 1_000), timeout, 3, |_, _, _| fired += 1);
        }
        // Budget of 3: the 4th and 5th ticks find the flow exhausted.
        assert_eq!(fired, 3);
        assert_eq!(t.flows_given_up, 1);
        assert!(!t.wants_attention());
        // Fresh data resets the budget.
        t.note(1, 9, 0, false, Time(10_000));
        assert!(t.wants_attention());
    }

    #[test]
    fn tracker_flow_cap_rejects_deterministically() {
        let mut t = NackTracker::with_capacity(2);
        assert!(t.note(1, 7, 0, false, Time(1)));
        assert!(t.note(1, 8, 0, false, Time(2)));
        // Third flow: at capacity → refused, counted, not tracked.
        assert!(!t.note(1, 9, 0, false, Time(3)));
        t.expect(2, 7); // rostering past the cap is refused too
        assert_eq!(t.flows_rejected, 2);
        assert_eq!(t.flow_count(), 2);
        // Rejections are not duplicates; existing flows keep working.
        assert_eq!(t.duplicates, 0);
        assert!(t.note(1, 7, 1, false, Time(4)));
        assert!(!t.note(1, 7, 1, false, Time(5)));
        assert_eq!(t.duplicates, 1);
    }

    #[test]
    fn tracker_clear_tree_evicts_and_reopens_capacity() {
        let mut t = NackTracker::with_capacity(2);
        t.expect(1, 7);
        t.expect(2, 7);
        assert!(t.wants_attention());
        // Tree 1's roster is replaced: its stale flow must not hold the
        // tracker needy (or the flush gate closed) forever.
        t.clear_tree(1);
        assert_eq!(t.flows_evicted, 1);
        assert_eq!(t.flow_count(), 1);
        assert!(t.tree_satisfied(1), "no flows left for tree 1");
        // The freed slot is reusable; needy stays consistent.
        t.expect(1, 9);
        assert!(t.wants_attention());
        t.note(1, 9, 0, true, Time(10));
        t.note(2, 7, 0, true, Time(11));
        assert!(!t.wants_attention(), "all flows satisfied");
        // Clearing satisfied flows must not underflow the needy count.
        t.clear_tree(1);
        t.clear_tree(2);
        assert_eq!(t.flows_evicted, 3);
        assert!(!t.wants_attention());
    }

    #[test]
    fn retransmit_ring_replays_ranges_and_tail() {
        let pool = FramePool::new();
        let frame = |tag: u8| pool.copy_from_slice(&[tag]);
        let mut ring = RetransmitRing::new(8);
        for seq in 0..6u32 {
            ring.record(seq, frame(seq as u8));
        }
        // Explicit range 1..=2 plus tail from 4.
        let req = NackRequest {
            next_expected: 4,
            tail: true,
            ranges: vec![NackRange { first: 1, count: 2 }],
        };
        let mut got = Vec::new();
        ring.replay(&req, |f| got.push(f[0]));
        assert_eq!(got, vec![1, 2, 4, 5]);
        assert_eq!(ring.replayed, 4);
        assert_eq!(ring.misses, 0);
    }

    #[test]
    fn retransmit_ring_bounds_and_counts_eviction() {
        let pool = FramePool::new();
        let mut ring = RetransmitRing::new(2);
        for seq in 0..5u32 {
            ring.record(seq, pool.copy_from_slice(&[seq as u8]));
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.evicted, 3);
        // A NACK for an evicted seq is a recorded miss, not a replay.
        let req = NackRequest {
            next_expected: 5,
            tail: false,
            ranges: vec![NackRange { first: 0, count: 1 }],
        };
        let mut got = 0;
        ring.replay(&req, |_| got += 1);
        assert_eq!(got, 0);
        assert_eq!(ring.misses, 1);
        // SRAM accounting saturates and scales linearly.
        assert_eq!(RetransmitRing::sram_capacity_for(4, 252), 4 * 256);
    }

    /// Satellite (ISSUE 5): ring entries from dead rounds must be
    /// retirable, and a sequence space that wraps `u32::MAX` over many
    /// rounds must never let a stale round's frame answer a NACK for the
    /// same (wrapped) sequence number.
    #[test]
    fn retransmit_ring_retires_dead_rounds_across_seq_wrap() {
        let pool = FramePool::new();
        // Capacity far larger than any single round, so eviction alone
        // would NOT clean up — the hazard the retirement API closes.
        let mut ring = RetransmitRing::new(1 << 20);
        let round_len = 300u32;
        // Many rounds of `round_len` frames, starting close enough to
        // u32::MAX that the run crosses the wrap. Each frame's payload is
        // its own sequence number, so a stale answer is detectable.
        let mut seq = u32::MAX - 3 * round_len;
        for _round in 0..8 {
            for _ in 0..round_len {
                ring.record(seq, pool.copy_from_slice(&seq.to_be_bytes()));
                seq = seq.wrapping_add(1);
            }
            // End-of-round retirement: everything a full receiver window
            // behind the emission edge is dead (receivers age those gaps
            // out, so no NACK can ever name them again).
            ring.retire_before(seq.wrapping_sub(WINDOW));
        }
        assert!(seq < u32::MAX - 3 * round_len, "the run must actually wrap");
        // Only the last WINDOW of frames can remain.
        assert!(ring.len() <= WINDOW as usize, "ring holds {} frames", ring.len());
        assert!(ring.retired > 0);
        // A NACK for a recent post-wrap seq replays exactly one frame —
        // the live one — despite pre-wrap frames having occupied the ring.
        let want = seq.wrapping_sub(2);
        let req = NackRequest {
            next_expected: seq,
            tail: false,
            ranges: vec![NackRange { first: want, count: 1 }],
        };
        let mut got = Vec::new();
        ring.replay(&req, |f| got.push(u32::from_be_bytes([f[0], f[1], f[2], f[3]])));
        assert_eq!(got, vec![want], "exactly the live frame must answer the NACK");
        assert_eq!(ring.misses, 0);
    }

    #[test]
    fn retire_before_is_a_noop_for_live_frames() {
        let pool = FramePool::new();
        let mut ring = RetransmitRing::new(8);
        for s in 10..14u32 {
            ring.record(s, pool.copy_from_slice(&[s as u8]));
        }
        // Cutoff at/below the oldest held seq: nothing retired.
        assert_eq!(ring.retire_before(10), 0);
        assert_eq!(ring.len(), 4);
        // Cutoff mid-ring: only the dead prefix goes.
        assert_eq!(ring.retire_before(12), 2);
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.retired, 2);
        let req = NackRequest {
            next_expected: 14,
            tail: false,
            ranges: vec![NackRange { first: 12, count: 2 }],
        };
        let mut got = Vec::new();
        ring.replay(&req, |f| got.push(f[0]));
        assert_eq!(got, vec![12, 13]);
    }

    #[test]
    fn tracker_all_satisfied_sees_given_up_flows() {
        let mut t = NackTracker::new();
        t.expect(1, 7);
        assert!(!t.all_satisfied());
        t.note(1, 7, 0, true, Time(5));
        assert!(t.all_satisfied());
        // Reopen with a gap, then exhaust the budget: wants_attention
        // goes quiet but all_satisfied must keep reporting the hole.
        t.note(1, 7, 2, false, Time(10));
        for tick in 1..=4u64 {
            t.for_each_due(Time(tick * 1_000_000), Duration::from_nanos(10), 2, |_, _, _| {});
        }
        assert!(!t.wants_attention(), "budget exhausted: no more NACK work");
        assert!(!t.all_satisfied(), "but the data is still missing");
    }

    /// A fabric that records what a node sends and schedules.
    struct Recorder {
        now: Time,
        pool: FramePool,
        sent: Vec<Frame>,
        timers: Vec<Duration>,
    }

    impl Recorder {
        fn at(now: Time) -> Recorder {
            Recorder { now, pool: FramePool::new(), sent: Vec::new(), timers: Vec::new() }
        }
    }

    impl Fabric for Recorder {
        fn now(&self) -> Time {
            self.now
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

    /// A guard for host 3 rostered on tree 1 fed by host 7, with a
    /// 100 ns timeout, a budget of 8 and `ranges_per_packet` ranges to a
    /// NACK frame.
    fn guard(ranges_per_packet: usize) -> ReceiverGuard {
        let config = crate::DaietConfig {
            nack_recovery: true,
            nack_timeout_ns: 100,
            nack_max: 8,
            pairs_per_packet: ranges_per_packet,
            ..crate::DaietConfig::default()
        };
        let mut guard = ReceiverGuard::new();
        guard.arm_nack_recovery(3, &config, [(1, 7)]);
        guard
    }

    #[test]
    fn endpoint_builds_routable_nack_frames() {
        use daiet_wire::daiet::PacketFlags;
        let mut guard = guard(10);
        for (seq, t) in [(0, 1), (2, 2)] {
            let mut ctx = Recorder::at(Time(t));
            let hdr = Header::data(1, PacketFlags::empty(), seq);
            assert!(guard.admit(&hdr, Ipv4Address::from_id(7), &mut ctx));
        }
        let mut ctx = Recorder::at(Time(2));
        guard.arm(&mut ctx);
        assert_eq!(ctx.timers, vec![Duration::from_nanos(100)], "a gap wants a tick");
        let mut ctx = Recorder::at(Time(10_000));
        guard.on_timer(&mut ctx);
        let out = ctx.sent;
        assert_eq!(out.len(), 1);
        assert_eq!(guard.nacks_emitted(), 1);
        // The frame parses back to a NACK from host 3 to host 7 naming
        // the gap and the outstanding tail.
        let parsed = daiet_wire::stack::Parsed::dissect(&out[0]).unwrap();
        assert_eq!(parsed.ip.src_addr, Ipv4Address::from_id(3));
        assert_eq!(parsed.ip.dst_addr, Ipv4Address::from_id(7));
        match parsed.transport {
            daiet_wire::stack::Transport::Daiet { daiet, .. } => {
                assert_eq!(daiet.packet_type, daiet_wire::daiet::PacketType::Nack);
                assert_eq!(daiet.seq, 3);
                assert!(daiet.flags.contains(PacketFlags::NACK_TAIL));
                let ranges: Vec<NackRange> = daiet.nack_ranges().collect();
                assert_eq!(ranges, vec![NackRange { first: 1, count: 1 }]);
            }
            other => panic!("expected DAIET NACK, got {other:?}"),
        }
    }

    #[test]
    fn endpoint_splits_long_range_lists() {
        let mut guard = guard(2);
        // Receive only every other seq: 0,2,4,...,12 → 6 single gaps.
        for s in (0..=12u32).step_by(2) {
            let mut ctx = Recorder::at(Time(u64::from(s)));
            let hdr = Header::data(1, daiet_wire::daiet::PacketFlags::empty(), s);
            guard.admit(&hdr, Ipv4Address::from_id(7), &mut ctx);
        }
        let mut ctx = Recorder::at(Time(1_000_000));
        guard.on_timer(&mut ctx);
        // 6 ranges at 2 per packet → 3 frames.
        assert_eq!(ctx.sent.len(), 3);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Whatever the delivery pattern (duplicates, bounded reordering),
        /// each sequence number is accepted at most once.
        #[test]
        fn at_most_once(seqs in prop::collection::vec(0u32..200, 1..400)) {
            let mut w = FlowWindow::default();
            let mut accepted = std::collections::HashSet::new();
            for s in seqs {
                if w.accept(s) {
                    prop_assert!(accepted.insert(s), "seq {} accepted twice", s);
                }
            }
        }

        /// In-order delivery without duplicates is always accepted in full.
        #[test]
        fn in_order_all_accepted(n in 1u32..2000) {
            let mut w = FlowWindow::default();
            for s in 0..n {
                prop_assert!(w.accept(s));
            }
        }

        /// In-order delivery is accepted in full from ANY starting offset,
        /// including streams that cross the u32 wrap boundary (regression
        /// for the raw-comparison bug).
        #[test]
        fn in_order_accepted_across_wrap(start: u32, n in 1u32..2000) {
            let mut w = FlowWindow::default();
            for i in 0..n {
                let s = start.wrapping_add(i);
                prop_assert!(w.accept(s), "seq {} (offset {}) refused", s, i);
                prop_assert!(!w.accept(s), "seq {} accepted twice", s);
            }
        }

        /// Whatever subset of a stream initially survives (in whatever
        /// order, with duplicates), request→replay rounds from a sender
        /// with full retention always converge to a satisfied flow.
        #[test]
        fn nack_request_replay_converges(
            n in 1u32..120,
            survivors in prop::collection::vec((0u32..120, any::<bool>()), 0..200),
        ) {
            let mut flow = FlowRecv::default();
            let end = n - 1; // seqs 0..n-1, the last being the END
            for (s, _) in survivors.iter().filter(|(s, _)| *s < n) {
                flow.note(*s, *s == end, Time(1));
            }
            let mut rounds = 0;
            while let Some(req) = flow.request() {
                rounds += 1;
                prop_assert!(rounds <= 3, "recovery did not converge");
                // The "sender" replays everything the request names.
                for s in 0..n {
                    let named = req.ranges.iter().any(|r| r.contains(s))
                        || (req.tail && seq_at_or_after(s, req.next_expected));
                    if named {
                        flow.note(s, s == end, Time(2 + rounds));
                    }
                }
            }
            prop_assert!(flow.is_satisfied());
        }
    }
}
