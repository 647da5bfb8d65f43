//! System-wide DAIET configuration.

use daiet_wire::daiet::{ENTRY_LEN, KEY_LEN, MAX_ENTRIES, VALUE_LEN};

/// Tunables shared by the controller, switch engine and worker library.
///
/// Defaults mirror the paper's prototype (§5): 16 K key-value pairs of
/// switch state per tree ("We configure P4 registers to store 16K
/// key-value pairs"), 16-byte keys, 4-byte values and at most 10 pairs per
/// packet ("we consider that one DAIET packet can contain at most 10
/// key-value pairs" given the 200–300 B parse budget).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DaietConfig {
    /// Key-value pairs per DATA packet (bounded by the parse budget).
    pub pairs_per_packet: usize,
    /// Cells in each per-tree key/value register array.
    pub register_cells: usize,
    /// Spillover bucket capacity in pairs ("as many entries as the number
    /// of pairs that can fit in one packet", §4). `None` means "same as
    /// `pairs_per_packet`".
    pub spillover_pairs: Option<usize>,
    /// Maximum `(tree, sender)` flows each switch's NACK gap tracker may
    /// track when [`nack_recovery`](Self::nack_recovery) is on. The
    /// tracker is switch SRAM like any register array: the controller
    /// reserves its worst-case footprint
    /// ([`Self::sram_for_nack_tracker`]) at deployment, and packets from
    /// flows beyond the cap are refused deterministically.
    pub nack_flows: usize,
    /// Enable NACK-based loss recovery, the one loss mechanism. The
    /// paper's prototype runs without it ("we do not address the issue
    /// of packet losses, which we leave as future work"). Receivers
    /// track per-flow gaps — the same bitmaps suppress duplicates — and
    /// NACK after [`nack_timeout_ns`](Self::nack_timeout_ns); hosts
    /// replay from their schedules, switches from a bounded
    /// [`rtx_frames`](Self::rtx_frames)-deep retransmit ring. See
    /// `docs/RELIABILITY.md`.
    pub nack_recovery: bool,
    /// Per-tree retransmit ring depth on each switch, in frames. The
    /// controller validates at deployment that one full register flush
    /// (⌈cells / pairs-per-packet⌉ DATA frames + the END) fits, and
    /// reserves the ring's worst-case SRAM as `daiet.rtx@<switch>`.
    pub rtx_frames: usize,
    /// How long a receiver lets an incomplete flow sit idle before
    /// NACKing it, in nanoseconds (also the NACK timer period).
    pub nack_timeout_ns: u64,
    /// NACKs a receiver may send per flow without progress before giving
    /// up (bounds the event load when data is genuinely unrecoverable).
    pub nack_max: u32,
}

impl Default for DaietConfig {
    fn default() -> Self {
        DaietConfig {
            pairs_per_packet: MAX_ENTRIES,
            register_cells: 16 * 1024,
            spillover_pairs: None,
            // 1024 flows × 148 B ≈ 148 KiB: room for dozens of trees ×
            // dozens of senders within a tenth of one Tofino stage.
            nack_flows: 1024,
            nack_recovery: false,
            // Covers a full default flush: ⌈16384/10⌉ + 1 = 1640 frames.
            rtx_frames: 2048,
            // ≫ the 2 µs default pacing gap, ≪ the 120 s run deadline.
            nack_timeout_ns: 50_000,
            nack_max: 32,
        }
    }
}

impl DaietConfig {
    /// Effective spillover capacity.
    pub fn spillover_capacity(&self) -> usize {
        self.spillover_pairs.unwrap_or(self.pairs_per_packet)
    }

    /// SRAM bytes one tree's state occupies on a switch:
    /// keys + values + occupancy bitmap + index stack + spillover bucket
    /// + the child counter.
    ///
    /// The `resources` bench binary uses this to reproduce the paper's
    /// "total SRAM required would be around 10 MB" estimate for 16 K pairs
    /// across 12 reducers.
    pub fn sram_per_tree(&self) -> usize {
        let keys = self.register_cells * KEY_LEN;
        let values = self.register_cells * VALUE_LEN;
        let occupancy = self.register_cells.div_ceil(8);
        // Index stack entries must address every cell: 4-byte indices.
        let index_stack = self.register_cells * 4;
        let spill = self.spillover_capacity() * ENTRY_LEN;
        let counter = 4;
        keys + values + occupancy + index_stack + spill + counter
    }

    /// SRAM bytes one tree's retransmit ring occupies at its frame cap
    /// (0 when NACK recovery is off): each slot holds one maximal DAIET
    /// frame (Ethernet through entries) plus its sequence tag.
    pub fn sram_for_rtx_per_tree(&self) -> usize {
        if self.nack_recovery {
            crate::reliability::RetransmitRing::sram_capacity_for(
                self.rtx_frames,
                self.max_frame_bytes(),
            )
        } else {
            0
        }
    }

    /// SRAM bytes the switch NACK gap-tracker occupies at its
    /// [`nack_flows`](Self::nack_flows) cap (0 when NACK recovery is off).
    pub fn sram_for_nack_tracker(&self) -> usize {
        if self.nack_recovery {
            crate::reliability::NackTracker::sram_capacity_for(self.nack_flows)
        } else {
            0
        }
    }

    /// Retransmit-ring frames one full register flush emits per tree:
    /// every cell packed into maximal DATA frames, plus the END. The
    /// deploy-time check requires [`rtx_frames`](Self::rtx_frames) to
    /// cover this — the flush burst is the largest *instantaneous*
    /// emission, so the END-of-round state is always recoverable.
    ///
    /// Mid-round **spillover** frames share the ring, so total-round
    /// retention is workload-dependent: a loss is recoverable while the
    /// ring still holds it, i.e. as long as fewer than `rtx_frames`
    /// further frames were emitted between the loss and the replay.
    /// Receivers NACK an open gap within ~one
    /// [`nack_timeout_ns`](Self::nack_timeout_ns) even mid-stream
    /// (prompt NACKs), so in practice the ring must cover one NACK
    /// round-trip of emissions, not the whole round; the ring's
    /// `misses` counter is the audit signal that a deployment violated
    /// this.
    pub fn rtx_demand_per_tree(&self) -> usize {
        self.register_cells.div_ceil(self.pairs_per_packet.max(1)) + 1
    }

    /// Right-sizes [`rtx_frames`](Self::rtx_frames) to this
    /// configuration's register size: the flush demand rounded up to a
    /// power of two (slack absorbs mid-round spillover flushes). Call
    /// after choosing `register_cells` so small deployments don't pay
    /// the default 2048-deep ring's SRAM.
    pub fn with_rtx_sized_for_flush(mut self) -> Self {
        self.rtx_frames = self.rtx_demand_per_tree().next_power_of_two();
        self
    }

    /// Byte length of a maximal DAIET frame on the wire (all headers).
    pub fn max_frame_bytes(&self) -> usize {
        daiet_wire::ethernet::HEADER_LEN
            + daiet_wire::ipv4::HEADER_LEN
            + daiet_wire::udp::HEADER_LEN
            + self.max_daiet_payload()
    }

    /// Byte length of a full DATA packet's DAIET payload.
    pub fn max_daiet_payload(&self) -> usize {
        daiet_wire::daiet::HEADER_LEN + self.pairs_per_packet * ENTRY_LEN
    }

    /// Validates internal consistency against a parse budget.
    pub fn validate(&self, max_parse_bytes: usize) -> Result<(), String> {
        if self.pairs_per_packet == 0 {
            return Err("pairs_per_packet must be positive".into());
        }
        if self.register_cells == 0 {
            return Err("register_cells must be positive".into());
        }
        let frame_prefix = daiet_wire::ethernet::HEADER_LEN
            + daiet_wire::ipv4::HEADER_LEN
            + daiet_wire::udp::HEADER_LEN
            + self.max_daiet_payload();
        if frame_prefix > max_parse_bytes {
            return Err(format!(
                "a full DATA packet needs {frame_prefix} parsed bytes but the \
                 switch parser is limited to {max_parse_bytes}; reduce pairs_per_packet"
            ));
        }
        if self.nack_recovery && self.nack_timeout_ns == 0 {
            return Err("nack_timeout_ns must be positive".into());
        }
        if self.nack_recovery && self.nack_max == 0 {
            // A zero budget would leave incomplete flows permanently
            // "needy" (never NACKed, never given up): the recovery timer
            // re-arms forever and `Simulator::run` never terminates
            // after a single loss.
            return Err("nack_max must be positive".into());
        }
        // Note: `nack_recovery` with `nack_flows == 0` is not rejected
        // here — whether the switch tracker is ever consulted depends on
        // the deployment mode, so the controller's deploy-time
        // flow-demand check (InNetwork only) owns that rejection.
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = DaietConfig::default();
        assert_eq!(c.pairs_per_packet, 10);
        assert_eq!(c.register_cells, 16_384);
        assert_eq!(c.spillover_capacity(), 10);
        assert!(!c.nack_recovery);
        assert_eq!(c.nack_flows, 1024);
        // Off by default → no SRAM charged for the gap tracker.
        assert_eq!(c.sram_for_nack_tracker(), 0);
    }

    #[test]
    fn nack_recovery_requires_reliability_and_timeout() {
        let ok = DaietConfig { nack_recovery: true, ..Default::default() };
        ok.validate(256).unwrap();
        let zero = DaietConfig { nack_timeout_ns: 0, ..ok };
        assert!(zero.validate(256).unwrap_err().contains("timeout"));
        // A zero NACK budget would never NACK and never give up: flows
        // stay needy forever and the run cannot terminate.
        let no_budget = DaietConfig { nack_max: 0, ..ok };
        assert!(no_budget.validate(256).unwrap_err().contains("nack_max"));
    }

    #[test]
    fn rtx_sram_and_demand_formulas() {
        let off = DaietConfig::default();
        assert_eq!(off.sram_for_rtx_per_tree(), 0);
        assert_eq!(off.sram_for_nack_tracker(), 0);
        let on = DaietConfig { nack_recovery: true, ..Default::default() };
        // 16384 cells / 10 per packet → 1639 DATA + 1 END.
        assert_eq!(on.rtx_demand_per_tree(), 1640);
        assert!(on.rtx_frames >= on.rtx_demand_per_tree());
        // A maximal frame is the paper's 252 bytes; each slot adds a tag.
        assert_eq!(on.max_frame_bytes(), 252);
        assert_eq!(on.sram_for_rtx_per_tree(), on.rtx_frames * 256);
        assert_eq!(
            on.sram_for_nack_tracker(),
            on.nack_flows * crate::reliability::FlowRecv::sram_bytes()
        );
    }

    #[test]
    fn zero_nack_flows_passes_validation() {
        // Mode-independent validation must not reject it: PassThrough
        // never consults the tracker, and the controller's InNetwork
        // flow-demand check rejects it exactly when it would matter.
        let c = DaietConfig { nack_recovery: true, nack_flows: 0, ..Default::default() };
        c.validate(256).unwrap();
    }

    #[test]
    fn default_fits_a_256_byte_parser() {
        DaietConfig::default().validate(256).unwrap();
    }

    #[test]
    fn too_many_pairs_fail_validation() {
        let c = DaietConfig { pairs_per_packet: 11, ..Default::default() };
        let err = c.validate(256).unwrap_err();
        assert!(err.contains("parse"));
        // A deeper parser accepts it.
        c.validate(512).unwrap();
    }

    #[test]
    fn zero_values_are_rejected() {
        assert!(DaietConfig { pairs_per_packet: 0, ..Default::default() }
            .validate(256)
            .is_err());
        assert!(DaietConfig { register_cells: 0, ..Default::default() }
            .validate(256)
            .is_err());
    }

    #[test]
    fn sram_estimate_is_near_the_papers_10mb_for_12_trees() {
        let c = DaietConfig::default();
        let twelve_trees = 12 * c.sram_per_tree();
        // Keys+values alone: 12 × 16K × 20 B ≈ 3.9 MB; with occupancy,
        // index stacks and buckets the estimate lands in the 4.5–10 MB
        // band the paper quotes loosely as "around 10 MB".
        assert!(twelve_trees > 4_000_000, "got {twelve_trees}");
        assert!(twelve_trees < 10_500_000, "got {twelve_trees}");
    }

    #[test]
    fn explicit_spillover_capacity_wins() {
        let c = DaietConfig { spillover_pairs: Some(25), ..Default::default() };
        assert_eq!(c.spillover_capacity(), 25);
    }
}
