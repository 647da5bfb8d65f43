//! The DAIET in-network aggregation protocol (§4 of the paper).
//!
//! Map output partitions are sent to reducers as UDP packets carrying a
//! small *preamble* and a sequence of **fixed-size** key-value pairs; the
//! fixed size guarantees packetization never splits a pair ("we use a
//! fixed-size representation for the pairs, so that it is easy to calculate
//! the offsets of pairs in the file and extract a number of complete
//! pairs"). The end of a partition is marked by a special END packet.
//!
//! ```text
//!  0        1        2        3        4        5        6 7 8 9
//! +--------+--------+--------+--------+--------+--------+-------+
//! | version| type   | tree_id (u16)   | n_ent  | flags  | seq   |
//! +--------+--------+--------+--------+--------+--------+-------+
//! | entry 0: key (16 B)  ‖ value (4 B, big-endian u32)          |
//! | ...                                                         |
//! | entry n_ent-1                                               |
//! +-------------------------------------------------------------+
//! ```
//!
//! With the default [`MAX_ENTRIES`] = 10 and 20-byte entries, a full DAIET
//! packet occupies 14 (Ethernet) + 20 (IPv4) + 8 (UDP) + 10 (preamble) +
//! 200 (entries) = 252 bytes — within the 200–300 bytes a P4 hardware
//! parser can inspect per packet (§5), which is exactly why the paper caps
//! packets at 10 pairs.

use crate::{Error, Result};

/// Protocol version emitted by this implementation.
pub const VERSION: u8 = 1;
/// Preamble length in bytes.
pub const HEADER_LEN: usize = 10;
/// Fixed key width in bytes ("words of maximum 16 characters", §5).
pub const KEY_LEN: usize = 16;
/// Fixed value width in bytes ("a 4 B integer value", §5).
pub const VALUE_LEN: usize = 4;
/// Bytes per serialized key-value entry.
pub const ENTRY_LEN: usize = KEY_LEN + VALUE_LEN;
/// Default maximum entries per packet (bounded by the switch parse depth).
pub const MAX_ENTRIES: usize = 10;

/// A fixed-width key: exactly [`KEY_LEN`] bytes, shorter keys are
/// zero-padded on the right (the paper notes this padding as measured
/// overhead: "a 16 B key even for smaller strings").
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key(pub [u8; KEY_LEN]);

impl Key {
    /// The all-zero key. Valid on the wire like any other key; the switch
    /// tracks cell occupancy out-of-band rather than reserving a sentinel.
    pub const ZERO: Key = Key([0; KEY_LEN]);

    /// Builds a key from up to [`KEY_LEN`] bytes, zero-padding the rest.
    ///
    /// Returns [`Error::Malformed`] if `bytes` is longer than the fixed
    /// width — the application must truncate or reject oversized keys
    /// before they reach the wire.
    pub fn from_bytes(bytes: &[u8]) -> Result<Key> {
        if bytes.len() > KEY_LEN {
            return Err(Error::Malformed);
        }
        let mut k = [0u8; KEY_LEN];
        k[..bytes.len()].copy_from_slice(bytes);
        Ok(Key(k))
    }

    /// Builds a key from a string slice (must be ≤ 16 bytes of UTF-8).
    pub fn from_str_key(s: &str) -> Result<Key> {
        Self::from_bytes(s.as_bytes())
    }

    /// The key bytes with trailing zero padding stripped.
    pub fn trimmed(&self) -> &[u8] {
        let end = self.0.iter().rposition(|&b| b != 0).map_or(0, |p| p + 1);
        &self.0[..end]
    }

    /// Lossy UTF-8 rendering of the trimmed key (for diagnostics).
    pub fn display_lossy(&self) -> String {
        String::from_utf8_lossy(self.trimmed()).into_owned()
    }
}

impl core::fmt::Debug for Key {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Key({:?})", self.display_lossy())
    }
}

/// One key-value pair as carried on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pair {
    /// The fixed-width key.
    pub key: Key,
    /// The 32-bit value lane (interpretation — count, fixed-point gradient,
    /// distance — belongs to the application and the tree's aggregation
    /// function).
    pub value: u32,
}

impl Pair {
    /// Convenience constructor.
    pub fn new(key: Key, value: u32) -> Pair {
        Pair { key, value }
    }
}

/// Packet types in the preamble.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketType {
    /// Carries key-value entries to aggregate.
    Data,
    /// Marks the end of one sender's partition (Algorithm 1, line 16).
    End,
    /// Reliability extension: receiver requests retransmission of a
    /// sequence range (not part of the paper's prototype; see
    /// `daiet::reliability`).
    Nack,
    /// Unrecognized type byte (preserved for diagnostics).
    Unknown(u8),
}

impl From<u8> for PacketType {
    fn from(raw: u8) -> Self {
        match raw {
            1 => PacketType::Data,
            2 => PacketType::End,
            3 => PacketType::Nack,
            other => PacketType::Unknown(other),
        }
    }
}

impl From<PacketType> for u8 {
    fn from(ty: PacketType) -> u8 {
        match ty {
            PacketType::Data => 1,
            PacketType::End => 2,
            PacketType::Nack => 3,
            PacketType::Unknown(other) => other,
        }
    }
}

/// Preamble flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PacketFlags(pub u8);

impl PacketFlags {
    /// Entries come from a switch spillover bucket (collision victims).
    /// Spilled pairs are sent ahead of aggregated data so an upstream
    /// switch "with spare memory" may still aggregate them (§4).
    pub const SPILLOVER: PacketFlags = PacketFlags(0b0000_0001);
    /// The packet was (re)emitted by a switch rather than an end host.
    pub const FROM_SWITCH: PacketFlags = PacketFlags(0b0000_0010);
    /// Reliability extension: this DATA packet is a retransmission.
    pub const RETRANSMIT: PacketFlags = PacketFlags(0b0000_0100);
    /// Reliability extension, NACK packets only: besides the explicit
    /// [`NackRange`]s, the receiver also requests replay of *everything*
    /// the sender has emitted at or after the preamble's `seq` field
    /// ("next expected") — how tail loss, including a lost END, is
    /// recovered without the receiver knowing how far the stream goes.
    pub const NACK_TAIL: PacketFlags = PacketFlags(0b0000_1000);

    /// The empty flag set.
    pub const fn empty() -> Self {
        PacketFlags(0)
    }

    /// Returns true if all bits in `other` are set.
    pub const fn contains(self, other: PacketFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Union of two flag sets.
    pub const fn union(self, other: PacketFlags) -> PacketFlags {
        PacketFlags(self.0 | other.0)
    }
}

impl core::ops::BitOr for PacketFlags {
    type Output = PacketFlags;
    fn bitor(self, rhs: PacketFlags) -> PacketFlags {
        self.union(rhs)
    }
}

mod field {
    use core::ops::Range;
    pub const VERSION: usize = 0;
    pub const TYPE: usize = 1;
    pub const TREE_ID: Range<usize> = 2..4;
    pub const NUM_ENTRIES: usize = 4;
    pub const FLAGS: usize = 5;
    pub const SEQ: Range<usize> = 6..10;
}

/// A read/write view of a DAIET packet (preamble + entries), typically the
/// payload of a UDP datagram on [`crate::udp::DAIET_PORT`].
#[derive(Debug, Clone)]
pub struct Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Packet<T> {
    /// Wraps a buffer without validation.
    pub fn new_unchecked(buffer: T) -> Packet<T> {
        Packet { buffer }
    }

    /// Wraps a buffer, validating the preamble, version and entry count.
    pub fn new_checked(buffer: T) -> Result<Packet<T>> {
        let packet = Self::new_unchecked(buffer);
        packet.check_len()?;
        Ok(packet)
    }

    /// Validates the preamble and that all declared entries fit.
    pub fn check_len(&self) -> Result<()> {
        let data = self.buffer.as_ref();
        if data.len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        if self.version() != VERSION {
            return Err(Error::Malformed);
        }
        let n = self.num_entries() as usize;
        if data.len() < HEADER_LEN + n * ENTRY_LEN {
            return Err(Error::Truncated);
        }
        Ok(())
    }

    /// Consumes the view, returning the underlying buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }

    /// Protocol version byte.
    pub fn version(&self) -> u8 {
        self.buffer.as_ref()[field::VERSION]
    }

    /// Packet type.
    pub fn packet_type(&self) -> PacketType {
        self.buffer.as_ref()[field::TYPE].into()
    }

    /// Aggregation tree (= reducer) identifier.
    pub fn tree_id(&self) -> u16 {
        crate::read_u16(&self.buffer.as_ref()[field::TREE_ID])
    }

    /// Number of key-value entries.
    pub fn num_entries(&self) -> u8 {
        self.buffer.as_ref()[field::NUM_ENTRIES]
    }

    /// Flag bits.
    pub fn flags(&self) -> PacketFlags {
        PacketFlags(self.buffer.as_ref()[field::FLAGS])
    }

    /// Per-sender sequence number (reliability extension; 0 in the
    /// prototype configuration).
    pub fn seq(&self) -> u32 {
        crate::read_u32(&self.buffer.as_ref()[field::SEQ])
    }

    /// Reads entry `i` (must be `< num_entries`, checked).
    pub fn entry(&self, i: usize) -> Result<Pair> {
        if i >= self.num_entries() as usize {
            return Err(Error::Malformed);
        }
        let off = HEADER_LEN + i * ENTRY_LEN;
        let data = self.buffer.as_ref();
        let mut key = [0u8; KEY_LEN];
        key.copy_from_slice(&data[off..off + KEY_LEN]);
        let value = crate::read_u32(&data[off + KEY_LEN..off + ENTRY_LEN]);
        Ok(Pair { key: Key(key), value })
    }

    /// Iterates over all entries.
    pub fn entries(&self) -> impl Iterator<Item = Pair> + '_ {
        (0..self.num_entries() as usize).map(move |i| {
            // lint:allow(panic-hotpath): i ranges over 0..num_entries() on the same
            // immutable view, so entry() cannot fail for these indices.
            self.entry(i).expect("entry index within num_entries")
        })
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Packet<T> {
    /// Writes the version byte.
    pub fn set_version(&mut self) {
        self.buffer.as_mut()[field::VERSION] = VERSION;
    }

    /// Sets the packet type.
    pub fn set_packet_type(&mut self, ty: PacketType) {
        self.buffer.as_mut()[field::TYPE] = ty.into();
    }

    /// Sets the tree identifier.
    pub fn set_tree_id(&mut self, id: u16) {
        crate::write_u16(&mut self.buffer.as_mut()[field::TREE_ID], id);
    }

    /// Sets the entry count.
    pub fn set_num_entries(&mut self, n: u8) {
        self.buffer.as_mut()[field::NUM_ENTRIES] = n;
    }

    /// Sets the flag bits.
    pub fn set_flags(&mut self, flags: PacketFlags) {
        self.buffer.as_mut()[field::FLAGS] = flags.0;
    }

    /// Sets the sequence number.
    pub fn set_seq(&mut self, seq: u32) {
        crate::write_u32(&mut self.buffer.as_mut()[field::SEQ], seq);
    }

    /// Writes entry `i` (caller must have sized the buffer).
    pub fn set_entry(&mut self, i: usize, pair: Pair) {
        let off = HEADER_LEN + i * ENTRY_LEN;
        let data = self.buffer.as_mut();
        data[off..off + KEY_LEN].copy_from_slice(&pair.key.0);
        crate::write_u32(&mut data[off + KEY_LEN..off + ENTRY_LEN], pair.value);
    }
}

/// One contiguous run of missing sequence numbers requested by a NACK
/// (reliability extension).
///
/// NACK packets reuse the fixed-size entry area: each entry carries one
/// range in its key bytes — `key[0..4]` = `first` and `key[4..8]` =
/// `count`, both big-endian; the remaining key bytes and the value lane
/// are zero. This keeps NACKs parseable by the same bounded switch parser
/// that handles DATA packets (a 10-entry NACK names 10 ranges within the
/// 256-byte budget).
///
/// ```
/// use daiet_wire::daiet::NackRange;
///
/// let r = NackRange { first: 41, count: 3 };
/// let pair = r.to_pair();
/// assert_eq!(NackRange::from_pair(&pair), Some(r));
/// assert!(r.contains(41) && r.contains(43) && !r.contains(44));
/// // Ranges live in the wrapping 32-bit sequence space.
/// let wrap = NackRange { first: u32::MAX, count: 2 };
/// assert!(wrap.contains(u32::MAX) && wrap.contains(0) && !wrap.contains(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NackRange {
    /// First missing sequence number.
    pub first: u32,
    /// How many consecutive sequence numbers are missing (≥ 1).
    pub count: u32,
}

impl NackRange {
    /// True when `seq` falls inside the range (wrapping arithmetic).
    pub fn contains(&self, seq: u32) -> bool {
        seq.wrapping_sub(self.first) < self.count
    }

    /// Encodes the range into a wire entry.
    pub fn to_pair(&self) -> Pair {
        let mut key = [0u8; KEY_LEN];
        key[0..4].copy_from_slice(&self.first.to_be_bytes());
        key[4..8].copy_from_slice(&self.count.to_be_bytes());
        Pair { key: Key(key), value: 0 }
    }

    /// Decodes a wire entry back into a range; `None` for an empty
    /// (count 0) range, which a well-formed NACK never carries.
    pub fn from_pair(pair: &Pair) -> Option<NackRange> {
        let k = &pair.key.0;
        let first = u32::from_be_bytes([k[0], k[1], k[2], k[3]]);
        let count = u32::from_be_bytes([k[4], k[5], k[6], k[7]]);
        (count > 0).then_some(NackRange { first, count })
    }
}

/// The parsed DAIET preamble alone — a fixed-size, `Copy` view of
/// everything except the entries.
///
/// The hot path (switch parser, aggregation engine, reducer collector)
/// works with a `Header` plus an entry iterator over the original frame
/// bytes, so parsing a DATA packet allocates nothing; [`Repr`] remains
/// the owned representation for code that wants to hold entries.
///
/// ```
/// use daiet_wire::daiet::{Header, Packet, PacketFlags, PacketType, Pair, Key};
///
/// // Build a 2-entry DATA packet into a reusable buffer.
/// let hdr = Header {
///     packet_type: PacketType::Data,
///     tree_id: 7,
///     flags: PacketFlags::FROM_SWITCH,
///     seq: 41,
/// };
/// let pairs = [
///     Pair::new(Key::from_str_key("dog").unwrap(), 2),
///     Pair::new(Key::from_str_key("cat").unwrap(), 5),
/// ];
/// let mut buf = vec![0u8; Header::wire_len(pairs.len())];
/// hdr.emit_with_pairs(&mut buf, &pairs).unwrap();
///
/// // Parse it back without allocating.
/// let packet = Packet::new_checked(&buf[..]).unwrap();
/// let parsed = Header::parse(&packet);
/// assert_eq!(parsed, hdr);
/// assert_eq!(packet.entries().count(), 2);
/// assert_eq!(packet.entry(1).unwrap().value, 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Packet type.
    pub packet_type: PacketType,
    /// Aggregation tree identifier.
    pub tree_id: u16,
    /// Flag bits.
    pub flags: PacketFlags,
    /// Sequence number.
    pub seq: u32,
}

impl Header {
    /// A DATA preamble for `tree_id` with sequence `seq`.
    pub fn data(tree_id: u16, flags: PacketFlags, seq: u32) -> Header {
        Header { packet_type: PacketType::Data, tree_id, flags, seq }
    }

    /// An END preamble for `tree_id` with sequence `seq`.
    pub fn end(tree_id: u16, flags: PacketFlags, seq: u32) -> Header {
        Header { packet_type: PacketType::End, tree_id, flags, seq }
    }

    /// A NACK preamble: `seq` is the receiver's *next expected* sequence
    /// number; pass `tail = true` to also request everything at or after
    /// it (sets [`PacketFlags::NACK_TAIL`]).
    pub fn nack(tree_id: u16, next_expected: u32, tail: bool) -> Header {
        let flags = if tail { PacketFlags::NACK_TAIL } else { PacketFlags::empty() };
        Header { packet_type: PacketType::Nack, tree_id, flags, seq: next_expected }
    }

    /// Reads the preamble fields from a (length-checked) packet view.
    pub fn parse<T: AsRef<[u8]>>(packet: &Packet<T>) -> Header {
        Header {
            packet_type: packet.packet_type(),
            tree_id: packet.tree_id(),
            flags: packet.flags(),
            seq: packet.seq(),
        }
    }

    /// Bytes a packet with `n_pairs` entries occupies on the wire.
    pub const fn wire_len(n_pairs: usize) -> usize {
        HEADER_LEN + n_pairs * ENTRY_LEN
    }

    /// Serializes this preamble followed by `pairs` into `buf`, which
    /// must be exactly [`Header::wire_len`]`(pairs.len())` bytes.
    ///
    /// Returns [`Error::Malformed`] when more than 255 pairs are given
    /// (the count must fit the `u8` field) and [`Error::Truncated`] when
    /// `buf` has the wrong size.
    pub fn emit_with_pairs(&self, buf: &mut [u8], pairs: &[Pair]) -> Result<()> {
        self.emit_with_entries(buf, pairs.iter().copied())
    }

    /// Like [`emit_with_pairs`](Self::emit_with_pairs), with the entries
    /// drawn from an iterator: a sender that decodes its pairs as it
    /// frames them writes each one straight into `buf`, with no staging
    /// slice.
    pub fn emit_with_entries(
        &self,
        buf: &mut [u8],
        entries: impl ExactSizeIterator<Item = Pair>,
    ) -> Result<()> {
        let n = entries.len();
        if n > u8::MAX as usize {
            return Err(Error::Malformed);
        }
        if buf.len() != Self::wire_len(n) {
            return Err(Error::Truncated);
        }
        let mut packet = Packet::new_unchecked(buf);
        packet.set_version();
        packet.set_packet_type(self.packet_type);
        packet.set_tree_id(self.tree_id);
        packet.set_num_entries(n as u8);
        packet.set_flags(self.flags);
        packet.set_seq(self.seq);
        for (i, pair) in entries.take(n).enumerate() {
            packet.set_entry(i, pair);
        }
        Ok(())
    }
}

/// Parsed representation of a DAIET packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Repr {
    /// Packet type.
    pub packet_type: PacketType,
    /// Aggregation tree identifier.
    pub tree_id: u16,
    /// Flag bits.
    pub flags: PacketFlags,
    /// Sequence number.
    pub seq: u32,
    /// The carried entries (empty for END packets).
    pub entries: Vec<Pair>,
}

impl Repr {
    /// The preamble of this packet.
    pub fn header(&self) -> Header {
        Header {
            packet_type: self.packet_type,
            tree_id: self.tree_id,
            flags: self.flags,
            seq: self.seq,
        }
    }

    /// A DATA packet carrying `entries`.
    pub fn data(tree_id: u16, entries: Vec<Pair>) -> Repr {
        Repr {
            packet_type: PacketType::Data,
            tree_id,
            flags: PacketFlags::empty(),
            seq: 0,
            entries,
        }
    }

    /// An END packet for `tree_id`.
    pub fn end(tree_id: u16) -> Repr {
        Repr {
            packet_type: PacketType::End,
            tree_id,
            flags: PacketFlags::empty(),
            seq: 0,
            entries: Vec::new(),
        }
    }

    /// A NACK packet requesting `ranges` (encoded into the entry area via
    /// [`NackRange::to_pair`]); see [`Header::nack`] for the preamble
    /// semantics.
    pub fn nack(tree_id: u16, next_expected: u32, tail: bool, ranges: &[NackRange]) -> Repr {
        Repr {
            packet_type: PacketType::Nack,
            tree_id,
            flags: Header::nack(tree_id, next_expected, tail).flags,
            seq: next_expected,
            entries: ranges.iter().map(NackRange::to_pair).collect(),
        }
    }

    /// Decodes this packet's entries as NACK ranges (skipping any
    /// malformed zero-count entries).
    pub fn nack_ranges(&self) -> impl Iterator<Item = NackRange> + '_ {
        self.entries.iter().filter_map(NackRange::from_pair)
    }

    /// Parses a full DAIET packet.
    pub fn parse<T: AsRef<[u8]>>(packet: &Packet<T>) -> Result<Repr> {
        packet.check_len()?;
        let mut entries = Vec::with_capacity(packet.num_entries() as usize);
        for i in 0..packet.num_entries() as usize {
            entries.push(packet.entry(i)?);
        }
        Ok(Repr {
            packet_type: packet.packet_type(),
            tree_id: packet.tree_id(),
            flags: packet.flags(),
            seq: packet.seq(),
            entries,
        })
    }

    /// The emitted length: preamble plus entries.
    pub fn buffer_len(&self) -> usize {
        HEADER_LEN + self.entries.len() * ENTRY_LEN
    }

    /// Writes this packet into `packet`'s buffer.
    ///
    /// Returns [`Error::Malformed`] when more than 255 entries are present
    /// (the count must fit the `u8` field; the packetizer keeps it at
    /// [`MAX_ENTRIES`] anyway).
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, packet: &mut Packet<T>) -> Result<()> {
        if self.entries.len() > u8::MAX as usize {
            return Err(Error::Malformed);
        }
        packet.set_version();
        packet.set_packet_type(self.packet_type);
        packet.set_tree_id(self.tree_id);
        packet.set_num_entries(self.entries.len() as u8);
        packet.set_flags(self.flags);
        packet.set_seq(self.seq);
        for (i, pair) in self.entries.iter().enumerate() {
            packet.set_entry(i, *pair);
        }
        Ok(())
    }

    /// Serializes to a fresh byte vector.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = vec![0u8; self.buffer_len()];
        let mut packet = Packet::new_unchecked(&mut buf[..]);
        // lint:allow(panic-hotpath): buf was sized by buffer_len() from this exact
        // Repr, so emit cannot run out of room.
        self.emit(&mut packet).expect("entry count bounded by packetizer");
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(k: &str, v: u32) -> Pair {
        Pair::new(Key::from_str_key(k).unwrap(), v)
    }

    #[test]
    fn key_padding_and_trimming() {
        let k = Key::from_str_key("cat").unwrap();
        assert_eq!(k.0[..3], *b"cat");
        assert!(k.0[3..].iter().all(|&b| b == 0));
        assert_eq!(k.trimmed(), b"cat");
        assert_eq!(k.display_lossy(), "cat");
        assert_eq!(Key::ZERO.trimmed(), b"");
    }

    #[test]
    fn oversized_key_is_rejected() {
        assert_eq!(
            Key::from_bytes(&[1u8; KEY_LEN + 1]).unwrap_err(),
            Error::Malformed
        );
        // Exactly KEY_LEN is fine.
        assert!(Key::from_bytes(&[1u8; KEY_LEN]).is_ok());
    }

    #[test]
    fn data_round_trip() {
        let repr = Repr::data(7, vec![pair("alpha", 3), pair("beta", 9), pair("g", 1)]);
        let bytes = repr.to_bytes();
        assert_eq!(bytes.len(), HEADER_LEN + 3 * ENTRY_LEN);
        let packet = Packet::new_checked(&bytes[..]).unwrap();
        let parsed = Repr::parse(&packet).unwrap();
        assert_eq!(parsed, repr);
        assert_eq!(packet.entries().count(), 3);
    }

    #[test]
    fn end_round_trip() {
        let repr = Repr::end(12);
        let bytes = repr.to_bytes();
        assert_eq!(bytes.len(), HEADER_LEN);
        let parsed = Repr::parse(&Packet::new_checked(&bytes[..]).unwrap()).unwrap();
        assert_eq!(parsed.packet_type, PacketType::End);
        assert_eq!(parsed.tree_id, 12);
        assert!(parsed.entries.is_empty());
    }

    #[test]
    fn flags_round_trip() {
        let mut repr = Repr::data(1, vec![pair("x", 1)]);
        repr.flags = PacketFlags::SPILLOVER | PacketFlags::FROM_SWITCH;
        let bytes = repr.to_bytes();
        let parsed = Repr::parse(&Packet::new_checked(&bytes[..]).unwrap()).unwrap();
        assert!(parsed.flags.contains(PacketFlags::SPILLOVER));
        assert!(parsed.flags.contains(PacketFlags::FROM_SWITCH));
        assert!(!parsed.flags.contains(PacketFlags::RETRANSMIT));
    }

    #[test]
    fn truncated_entries_are_rejected() {
        let repr = Repr::data(1, vec![pair("k1", 1), pair("k2", 2)]);
        let bytes = repr.to_bytes();
        // Cut one byte off the final entry.
        assert_eq!(
            Packet::new_checked(&bytes[..bytes.len() - 1]).unwrap_err(),
            Error::Truncated
        );
    }

    #[test]
    fn wrong_version_is_rejected() {
        let repr = Repr::end(1);
        let mut bytes = repr.to_bytes();
        bytes[0] = 99;
        assert_eq!(Packet::new_checked(&bytes[..]).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn entry_index_bounds() {
        let repr = Repr::data(1, vec![pair("only", 5)]);
        let bytes = repr.to_bytes();
        let packet = Packet::new_checked(&bytes[..]).unwrap();
        assert!(packet.entry(0).is_ok());
        assert_eq!(packet.entry(1).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn max_packet_fits_parse_budget() {
        // 10 entries: the full frame must stay within the 200-300 B a P4
        // parser can inspect (we check against 256 B with all headers).
        let entries: Vec<Pair> = (0..MAX_ENTRIES).map(|i| pair("wwwwwwwwwwwwwwww", i as u32)).collect();
        let repr = Repr::data(1, entries);
        let total = crate::ethernet::HEADER_LEN
            + crate::ipv4::HEADER_LEN
            + crate::udp::HEADER_LEN
            + repr.buffer_len();
        assert_eq!(total, 252);
        assert!(total <= 256);
    }

    #[test]
    fn too_many_entries_fail_emit() {
        let entries: Vec<Pair> = (0..256).map(|i| pair("k", i as u32)).collect();
        let repr = Repr::data(1, entries);
        let mut buf = vec![0u8; repr.buffer_len()];
        let mut packet = Packet::new_unchecked(&mut buf[..]);
        assert_eq!(repr.emit(&mut packet).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn nack_round_trips_ranges_and_tail_flag() {
        let ranges = [
            NackRange { first: 3, count: 2 },
            NackRange { first: 9, count: 1 },
            NackRange { first: u32::MAX - 1, count: 4 }, // crosses the wrap
        ];
        let repr = Repr::nack(6, 42, true, &ranges);
        let bytes = repr.to_bytes();
        let parsed = Repr::parse(&Packet::new_checked(&bytes[..]).unwrap()).unwrap();
        assert_eq!(parsed.packet_type, PacketType::Nack);
        assert_eq!(parsed.seq, 42);
        assert!(parsed.flags.contains(PacketFlags::NACK_TAIL));
        let decoded: Vec<NackRange> = parsed.nack_ranges().collect();
        assert_eq!(decoded, ranges);
        // Without tail, the flag is clear.
        let plain = Repr::nack(6, 42, false, &ranges[..1]);
        assert!(!plain.flags.contains(PacketFlags::NACK_TAIL));
    }

    #[test]
    fn nack_range_wrapping_membership() {
        let r = NackRange { first: u32::MAX, count: 3 };
        assert!(r.contains(u32::MAX));
        assert!(r.contains(0));
        assert!(r.contains(1));
        assert!(!r.contains(2));
        assert!(!r.contains(u32::MAX - 1));
        // Zero-count entries decode as None (malformed, skipped).
        let z = Pair::new(Key::ZERO, 0);
        assert_eq!(NackRange::from_pair(&z), None);
    }

    #[test]
    fn packet_type_conversion_round_trips() {
        for ty in [PacketType::Data, PacketType::End, PacketType::Nack, PacketType::Unknown(77)] {
            assert_eq!(PacketType::from(u8::from(ty)), ty);
        }
    }
}
