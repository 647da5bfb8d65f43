//! IPv4 packets (fixed 20-byte header; options are unsupported, mirroring
//! what a line-rate switch parser would reasonably extract).

use crate::{checksum, Error, Ipv4Address, Result};

/// Length of the option-less IPv4 header.
pub const HEADER_LEN: usize = 20;

/// IP protocol numbers understood by the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
    /// Anything else.
    Unknown(u8),
}

impl From<u8> for Protocol {
    fn from(raw: u8) -> Self {
        match raw {
            6 => Protocol::Tcp,
            17 => Protocol::Udp,
            other => Protocol::Unknown(other),
        }
    }
}

impl From<Protocol> for u8 {
    fn from(p: Protocol) -> u8 {
        match p {
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
            Protocol::Unknown(other) => other,
        }
    }
}

mod field {
    use core::ops::Range;
    pub const VER_IHL: usize = 0;
    pub const DSCP_ECN: usize = 1;
    pub const LENGTH: Range<usize> = 2..4;
    pub const IDENT: Range<usize> = 4..6;
    pub const FLAGS_FRAG: Range<usize> = 6..8;
    pub const TTL: usize = 8;
    pub const PROTOCOL: usize = 9;
    pub const CHECKSUM: Range<usize> = 10..12;
    pub const SRC: Range<usize> = 12..16;
    pub const DST: Range<usize> = 16..20;
}

/// A read/write view of an IPv4 packet.
#[derive(Debug, Clone)]
pub struct Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Packet<T> {
    /// Wraps a buffer without validation.
    pub fn new_unchecked(buffer: T) -> Packet<T> {
        Packet { buffer }
    }

    /// Wraps a buffer, validating length, version and header length.
    pub fn new_checked(buffer: T) -> Result<Packet<T>> {
        let packet = Self::new_unchecked(buffer);
        packet.check_len()?;
        Ok(packet)
    }

    /// Validates buffer length against the header and the `total_len` field.
    pub fn check_len(&self) -> Result<()> {
        let data = self.buffer.as_ref();
        if data.len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        if self.version() != 4 {
            return Err(Error::Malformed);
        }
        if self.header_len() != HEADER_LEN {
            // Options are not supported by the bounded switch parser.
            return Err(Error::Unsupported);
        }
        let total = self.total_len() as usize;
        if total < HEADER_LEN {
            return Err(Error::Malformed);
        }
        if total > data.len() {
            return Err(Error::Truncated);
        }
        Ok(())
    }

    /// Consumes the view, returning the underlying buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }

    /// IP version (must be 4).
    pub fn version(&self) -> u8 {
        self.buffer.as_ref()[field::VER_IHL] >> 4
    }

    /// Header length in bytes as declared by IHL.
    pub fn header_len(&self) -> usize {
        usize::from(self.buffer.as_ref()[field::VER_IHL] & 0x0f) * 4
    }

    /// Total packet length (header + payload).
    pub fn total_len(&self) -> u16 {
        crate::read_u16(&self.buffer.as_ref()[field::LENGTH])
    }

    /// Identification field.
    pub fn ident(&self) -> u16 {
        crate::read_u16(&self.buffer.as_ref()[field::IDENT])
    }

    /// Time-to-live.
    pub fn ttl(&self) -> u8 {
        self.buffer.as_ref()[field::TTL]
    }

    /// Payload protocol.
    pub fn protocol(&self) -> Protocol {
        self.buffer.as_ref()[field::PROTOCOL].into()
    }

    /// Header checksum field.
    pub fn checksum(&self) -> u16 {
        crate::read_u16(&self.buffer.as_ref()[field::CHECKSUM])
    }

    /// Source address.
    pub fn src_addr(&self) -> Ipv4Address {
        let mut b = [0u8; 4];
        b.copy_from_slice(&self.buffer.as_ref()[field::SRC]);
        Ipv4Address(b)
    }

    /// Destination address.
    pub fn dst_addr(&self) -> Ipv4Address {
        let mut b = [0u8; 4];
        b.copy_from_slice(&self.buffer.as_ref()[field::DST]);
        Ipv4Address(b)
    }

    /// Verifies the header checksum.
    pub fn verify_checksum(&self) -> bool {
        checksum::verify(&self.buffer.as_ref()[..HEADER_LEN])
    }

    /// Payload (bounded by `total_len`, not the buffer, so trailing padding
    /// added by minimum-frame rules is excluded).
    pub fn payload(&self) -> &[u8] {
        let total = self.total_len() as usize;
        &self.buffer.as_ref()[HEADER_LEN..total]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Packet<T> {
    /// Sets version=4 and IHL=5. Call before other setters on a fresh buffer.
    pub fn set_version_and_len(&mut self) {
        self.buffer.as_mut()[field::VER_IHL] = 0x45;
        self.buffer.as_mut()[field::DSCP_ECN] = 0;
        crate::write_u16(&mut self.buffer.as_mut()[field::FLAGS_FRAG], 0x4000); // DF
    }

    /// Sets the total length field.
    pub fn set_total_len(&mut self, len: u16) {
        crate::write_u16(&mut self.buffer.as_mut()[field::LENGTH], len);
    }

    /// Sets the identification field.
    pub fn set_ident(&mut self, ident: u16) {
        crate::write_u16(&mut self.buffer.as_mut()[field::IDENT], ident);
    }

    /// Sets the time-to-live.
    pub fn set_ttl(&mut self, ttl: u8) {
        self.buffer.as_mut()[field::TTL] = ttl;
    }

    /// Sets the payload protocol.
    pub fn set_protocol(&mut self, protocol: Protocol) {
        self.buffer.as_mut()[field::PROTOCOL] = protocol.into();
    }

    /// Sets the source address.
    pub fn set_src_addr(&mut self, addr: Ipv4Address) {
        self.buffer.as_mut()[field::SRC].copy_from_slice(&addr.0);
    }

    /// Sets the destination address.
    pub fn set_dst_addr(&mut self, addr: Ipv4Address) {
        self.buffer.as_mut()[field::DST].copy_from_slice(&addr.0);
    }

    /// Computes and stores the header checksum.
    pub fn fill_checksum(&mut self) {
        crate::write_u16(&mut self.buffer.as_mut()[field::CHECKSUM], 0);
        let ck = checksum::internet_checksum(&self.buffer.as_ref()[..HEADER_LEN]);
        crate::write_u16(&mut self.buffer.as_mut()[field::CHECKSUM], ck);
    }

    /// Mutable payload area (entire remainder of the buffer).
    pub fn payload_mut(&mut self) -> &mut [u8] {
        &mut self.buffer.as_mut()[HEADER_LEN..]
    }
}

/// Parsed representation of an IPv4 header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repr {
    /// Source address.
    pub src_addr: Ipv4Address,
    /// Destination address.
    pub dst_addr: Ipv4Address,
    /// Payload protocol.
    pub protocol: Protocol,
    /// Payload length in bytes (excluding the IPv4 header).
    pub payload_len: usize,
    /// Time-to-live (hop limit).
    pub ttl: u8,
}

impl Repr {
    /// Default TTL used by simulated hosts.
    pub const DEFAULT_TTL: u8 = 64;

    /// Parses and validates a header, including its checksum.
    pub fn parse<T: AsRef<[u8]>>(packet: &Packet<T>) -> Result<Repr> {
        packet.check_len()?;
        if !packet.verify_checksum() {
            return Err(Error::Checksum);
        }
        Ok(Repr {
            src_addr: packet.src_addr(),
            dst_addr: packet.dst_addr(),
            protocol: packet.protocol(),
            payload_len: packet.total_len() as usize - HEADER_LEN,
            ttl: packet.ttl(),
        })
    }

    /// The emitted header length (always [`HEADER_LEN`]).
    pub const fn buffer_len(&self) -> usize {
        HEADER_LEN
    }

    /// Writes the header (with checksum) into `packet`. The payload must be
    /// filled separately; `payload_len` here sizes the total-length field.
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, packet: &mut Packet<T>) {
        packet.set_version_and_len();
        packet.set_total_len((HEADER_LEN + self.payload_len) as u16);
        packet.set_ident(0);
        packet.set_ttl(self.ttl);
        packet.set_protocol(self.protocol);
        packet.set_src_addr(self.src_addr);
        packet.set_dst_addr(self.dst_addr);
        packet.fill_checksum();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_repr(payload_len: usize) -> Repr {
        Repr {
            src_addr: Ipv4Address([10, 0, 0, 1]),
            dst_addr: Ipv4Address([10, 0, 0, 2]),
            protocol: Protocol::Udp,
            payload_len,
            ttl: Repr::DEFAULT_TTL,
        }
    }

    #[test]
    fn emit_parse_round_trip() {
        let repr = sample_repr(8);
        let mut buf = [0u8; HEADER_LEN + 8];
        let mut packet = Packet::new_unchecked(&mut buf[..]);
        repr.emit(&mut packet);
        packet.payload_mut()[..3].copy_from_slice(b"udp");

        let packet = Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(Repr::parse(&packet).unwrap(), repr);
        assert_eq!(&packet.payload()[..3], b"udp");
        assert_eq!(packet.payload().len(), 8);
    }

    #[test]
    fn corrupt_checksum_is_rejected() {
        let repr = sample_repr(0);
        let mut buf = [0u8; HEADER_LEN];
        let mut packet = Packet::new_unchecked(&mut buf[..]);
        repr.emit(&mut packet);
        buf[8] ^= 0xff; // flip TTL
        let packet = Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(Repr::parse(&packet).unwrap_err(), Error::Checksum);
    }

    #[test]
    fn wrong_version_is_malformed() {
        let mut buf = [0u8; HEADER_LEN];
        buf[0] = 0x65; // version 6
        buf[3] = HEADER_LEN as u8;
        assert_eq!(Packet::new_checked(&buf[..]).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn options_are_unsupported() {
        let mut buf = [0u8; 24];
        buf[0] = 0x46; // IHL = 6 words
        buf[3] = 24;
        assert_eq!(Packet::new_checked(&buf[..]).unwrap_err(), Error::Unsupported);
    }

    #[test]
    fn total_len_beyond_buffer_is_truncated() {
        let repr = sample_repr(100);
        let mut buf = [0u8; HEADER_LEN + 100];
        let mut packet = Packet::new_unchecked(&mut buf[..]);
        repr.emit(&mut packet);
        // Shrink the buffer below total_len.
        assert_eq!(
            Packet::new_checked(&buf[..HEADER_LEN + 50]).unwrap_err(),
            Error::Truncated
        );
    }

    #[test]
    fn padding_is_excluded_from_payload() {
        let repr = sample_repr(4);
        let mut buf = [0u8; HEADER_LEN + 60]; // oversized buffer = padding
        let mut packet = Packet::new_unchecked(&mut buf[..]);
        repr.emit(&mut packet);
        let packet = Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(packet.payload().len(), 4);
    }

    #[test]
    fn protocol_conversion() {
        assert_eq!(Protocol::from(6), Protocol::Tcp);
        assert_eq!(Protocol::from(17), Protocol::Udp);
        assert_eq!(Protocol::from(89), Protocol::Unknown(89));
        assert_eq!(u8::from(Protocol::Tcp), 6);
    }
}
