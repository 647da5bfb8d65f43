//! Whole-frame composition and decomposition helpers.
//!
//! End hosts and switches in the simulator exchange complete Ethernet
//! frames as byte vectors. This module provides builders that assemble
//! Ethernet/IPv4/UDP(+DAIET) and Ethernet/IPv4/TCP frames with all length
//! and checksum fields filled, and a [`Parsed`] dissector that classifies a
//! received frame in one pass, mirroring what a switch parser or a host
//! stack does on ingress.

use crate::{
    daiet, ethernet, ipv4, tcpseg, udp, Error, EthernetAddress, Ipv4Address, Result,
};

/// Source/destination addressing for one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Endpoints {
    /// Source MAC.
    pub src_mac: EthernetAddress,
    /// Destination MAC.
    pub dst_mac: EthernetAddress,
    /// Source IPv4 address.
    pub src_ip: Ipv4Address,
    /// Destination IPv4 address.
    pub dst_ip: Ipv4Address,
}

impl Endpoints {
    /// Endpoints with both MAC and IP derived from numeric host ids —
    /// the convention used throughout the simulator.
    pub fn from_ids(src: u32, dst: u32) -> Endpoints {
        Endpoints {
            src_mac: EthernetAddress::from_id(src),
            dst_mac: EthernetAddress::from_id(dst),
            src_ip: Ipv4Address::from_id(src),
            dst_ip: Ipv4Address::from_id(dst),
        }
    }

    /// The same endpoints with source and destination swapped.
    pub fn reversed(&self) -> Endpoints {
        Endpoints {
            src_mac: self.dst_mac,
            dst_mac: self.src_mac,
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
        }
    }
}

/// Builds an Ethernet/IPv4/UDP frame into `buf` (cleared and resized in
/// place, so a recycled buffer is reused without reallocation). The UDP
/// payload region — `payload_len` bytes — is zeroed and handed to `fill`
/// to write; length fields and checksums are computed afterwards.
pub fn build_udp_into(
    buf: &mut Vec<u8>,
    ep: &Endpoints,
    src_port: u16,
    dst_port: u16,
    payload_len: usize,
    fill: impl FnOnce(&mut [u8]),
) {
    let udp_len = udp::HEADER_LEN + payload_len;
    let ip_repr = ipv4::Repr {
        src_addr: ep.src_ip,
        dst_addr: ep.dst_ip,
        protocol: ipv4::Protocol::Udp,
        payload_len: udp_len,
        ttl: ipv4::Repr::DEFAULT_TTL,
    };
    let total = ethernet::HEADER_LEN + ipv4::HEADER_LEN + udp_len;
    buf.clear();
    buf.resize(total, 0);

    let mut eth = ethernet::Frame::new_unchecked(&mut buf[..]);
    ethernet::Repr {
        src_addr: ep.src_mac,
        dst_addr: ep.dst_mac,
        ethertype: ethernet::EtherType::Ipv4,
    }
    .emit(&mut eth);

    let mut ip = ipv4::Packet::new_unchecked(eth.payload_mut());
    ip_repr.emit(&mut ip);

    let mut dgram = udp::Datagram::new_unchecked(ip.payload_mut());
    fill(&mut dgram.payload_mut()[..payload_len]);
    udp::Repr {
        src_port,
        dst_port,
        payload_len,
    }
    .emit(&mut dgram, ep.src_ip, ep.dst_ip);
}

/// Builds a complete Ethernet/IPv4/UDP frame around an opaque payload.
pub fn build_udp(ep: &Endpoints, src_port: u16, dst_port: u16, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    build_udp_into(&mut buf, ep, src_port, dst_port, payload.len(), |dst| {
        dst.copy_from_slice(payload);
    });
    buf
}

/// Builds an Ethernet/IPv4/UDP/DAIET frame carrying `pairs` directly into
/// `buf` — the zero-copy serialization path: no intermediate
/// [`daiet::Repr`], no payload staging buffer. The UDP destination port
/// is [`udp::DAIET_PORT`] so switches recognize aggregation traffic; the
/// source port identifies the sending worker.
pub fn build_daiet_into(
    buf: &mut Vec<u8>,
    ep: &Endpoints,
    src_port: u16,
    hdr: &daiet::Header,
    pairs: &[daiet::Pair],
) {
    build_daiet_entries_into(buf, ep, src_port, hdr, pairs.iter().copied());
}

/// Like [`build_daiet_into`], with the pairs drawn from an iterator and
/// written straight into the frame: a sender that decodes its map output
/// as it frames it stages nothing.
pub fn build_daiet_entries_into(
    buf: &mut Vec<u8>,
    ep: &Endpoints,
    src_port: u16,
    hdr: &daiet::Header,
    entries: impl ExactSizeIterator<Item = daiet::Pair>,
) {
    build_udp_into(
        buf,
        ep,
        src_port,
        udp::DAIET_PORT,
        daiet::Header::wire_len(entries.len()),
        |payload| {
            // lint:allow(panic-hotpath): the payload closure receives exactly
            // Header::wire_len(entries.len()) bytes, computed two lines up.
            hdr.emit_with_entries(payload, entries).expect("payload region sized by wire_len");
        },
    );
}

/// Builds a complete Ethernet/IPv4/UDP/DAIET frame from a DAIET repr.
pub fn build_daiet(ep: &Endpoints, src_port: u16, repr: &daiet::Repr) -> Vec<u8> {
    let mut buf = Vec::new();
    build_daiet_into(&mut buf, ep, src_port, &repr.header(), &repr.entries);
    buf
}

/// Builds an Ethernet/IPv4/TCP frame into `buf` (cleared and resized in
/// place; see [`build_udp_into`]).
pub fn build_tcp_into(buf: &mut Vec<u8>, ep: &Endpoints, repr: &tcpseg::Repr, payload: &[u8]) {
    debug_assert_eq!(repr.payload_len, payload.len());
    let tcp_len = tcpseg::HEADER_LEN + payload.len();
    let ip_repr = ipv4::Repr {
        src_addr: ep.src_ip,
        dst_addr: ep.dst_ip,
        protocol: ipv4::Protocol::Tcp,
        payload_len: tcp_len,
        ttl: ipv4::Repr::DEFAULT_TTL,
    };
    let total = ethernet::HEADER_LEN + ipv4::HEADER_LEN + tcp_len;
    buf.clear();
    buf.resize(total, 0);

    let mut eth = ethernet::Frame::new_unchecked(&mut buf[..]);
    ethernet::Repr {
        src_addr: ep.src_mac,
        dst_addr: ep.dst_mac,
        ethertype: ethernet::EtherType::Ipv4,
    }
    .emit(&mut eth);

    let mut ip = ipv4::Packet::new_unchecked(eth.payload_mut());
    ip_repr.emit(&mut ip);

    let mut seg = tcpseg::Segment::new_unchecked(&mut ip.payload_mut()[..tcp_len]);
    seg.payload_mut().copy_from_slice(payload);
    repr.emit(&mut seg, ep.src_ip, ep.dst_ip);
}

/// Builds a complete Ethernet/IPv4/TCP frame.
pub fn build_tcp(ep: &Endpoints, repr: &tcpseg::Repr, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    build_tcp_into(&mut buf, ep, repr, payload);
    buf
}

/// The transport content of a dissected frame. Payloads are borrowed
/// slices of the original frame — dissection itself allocates only for
/// DAIET entry lists (and hot-path consumers use the dataplane parser's
/// entry iterator instead, which allocates nothing).
#[derive(Debug, Clone, PartialEq)]
pub enum Transport<'a> {
    /// A UDP datagram carrying a DAIET packet (destination port matched
    /// [`udp::DAIET_PORT`] and the payload parsed).
    Daiet {
        /// The UDP header.
        udp: udp::Repr,
        /// The parsed DAIET packet.
        daiet: daiet::Repr,
    },
    /// Any other UDP datagram.
    Udp {
        /// The UDP header.
        udp: udp::Repr,
        /// The datagram payload (borrowed from the frame).
        payload: &'a [u8],
    },
    /// A TCP segment.
    Tcp {
        /// The TCP header.
        tcp: tcpseg::Repr,
        /// The segment payload (borrowed from the frame).
        payload: &'a [u8],
    },
    /// An IPv4 protocol this stack does not interpret.
    OtherIp {
        /// The raw protocol number.
        protocol: u8,
    },
}

/// A fully dissected frame, borrowing payload bytes from it.
#[derive(Debug, Clone, PartialEq)]
pub struct Parsed<'a> {
    /// Link-layer header.
    pub eth: ethernet::Repr,
    /// Network-layer header.
    pub ip: ipv4::Repr,
    /// Transport-layer content.
    pub transport: Transport<'a>,
}

impl<'a> Parsed<'a> {
    /// Dissects a complete Ethernet frame. Checksums are verified at every
    /// layer; failures surface as [`Error::Checksum`] so fault-injection
    /// corruption is detected exactly as a real stack would.
    pub fn dissect(frame: &'a [u8]) -> Result<Parsed<'a>> {
        let eth_frame = ethernet::Frame::new_checked(frame)?;
        let eth = ethernet::Repr::parse(&eth_frame)?;
        if eth.ethertype != ethernet::EtherType::Ipv4 {
            return Err(Error::Unsupported);
        }
        let ip_packet = ipv4::Packet::new_checked(eth_frame.payload())?;
        let ip = ipv4::Repr::parse(&ip_packet)?;
        // Re-slice the payload from `frame` itself so it carries the
        // frame's lifetime (the header views above borrow locally). This
        // stack emits fixed 20-byte IPv4 headers, which `Repr::parse`
        // verified.
        let ip_payload: &'a [u8] =
            &frame[ethernet::HEADER_LEN + ipv4::HEADER_LEN..][..ip.payload_len];
        let transport = match ip.protocol {
            ipv4::Protocol::Udp => {
                let dgram = udp::Datagram::new_checked(ip_payload)?;
                let udp_repr = udp::Repr::parse(&dgram, Some((ip.src_addr, ip.dst_addr)))?;
                if udp_repr.dst_port == udp::DAIET_PORT {
                    let daiet_packet = daiet::Packet::new_checked(dgram.payload())?;
                    Transport::Daiet {
                        udp: udp_repr,
                        daiet: daiet::Repr::parse(&daiet_packet)?,
                    }
                } else {
                    Transport::Udp {
                        udp: udp_repr,
                        payload: &ip_payload[udp::HEADER_LEN..udp_repr.payload_len + udp::HEADER_LEN],
                    }
                }
            }
            ipv4::Protocol::Tcp => {
                let seg = tcpseg::Segment::new_checked(ip_payload)?;
                let tcp_repr = tcpseg::Repr::parse(&seg, Some((ip.src_addr, ip.dst_addr)))?;
                Transport::Tcp {
                    tcp: tcp_repr,
                    payload: &ip_payload[tcpseg::HEADER_LEN..tcpseg::HEADER_LEN + tcp_repr.payload_len],
                }
            }
            ipv4::Protocol::Unknown(p) => Transport::OtherIp { protocol: p },
        };
        Ok(Parsed { eth, ip, transport })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daiet::{Key, Pair};

    fn endpoints() -> Endpoints {
        Endpoints::from_ids(1, 2)
    }

    #[test]
    fn udp_frame_round_trip() {
        let ep = endpoints();
        let frame = build_udp(&ep, 1111, 2222, b"payload!");
        let parsed = Parsed::dissect(&frame).unwrap();
        assert_eq!(parsed.eth.src_addr, ep.src_mac);
        assert_eq!(parsed.ip.dst_addr, ep.dst_ip);
        match parsed.transport {
            Transport::Udp { udp, payload } => {
                assert_eq!(udp.src_port, 1111);
                assert_eq!(udp.dst_port, 2222);
                assert_eq!(payload, b"payload!");
            }
            other => panic!("expected UDP, got {other:?}"),
        }
    }

    #[test]
    fn daiet_frame_round_trip() {
        let ep = endpoints();
        let repr = daiet::Repr::data(
            3,
            vec![
                Pair::new(Key::from_str_key("word").unwrap(), 10),
                Pair::new(Key::from_str_key("count").unwrap(), 20),
            ],
        );
        let frame = build_daiet(&ep, 777, &repr);
        let parsed = Parsed::dissect(&frame).unwrap();
        match parsed.transport {
            Transport::Daiet { udp, daiet } => {
                assert_eq!(udp.dst_port, udp::DAIET_PORT);
                assert_eq!(udp.src_port, 777);
                assert_eq!(daiet, repr);
            }
            other => panic!("expected DAIET, got {other:?}"),
        }
    }

    #[test]
    fn tcp_frame_round_trip() {
        let ep = endpoints();
        let repr = tcpseg::Repr {
            src_port: 40000,
            dst_port: 9000,
            seq: 1000,
            ack: 2000,
            flags: tcpseg::Flags::ACK | tcpseg::Flags::PSH,
            window: 32768,
            payload_len: 4,
        };
        let frame = build_tcp(&ep, &repr, b"data");
        let parsed = Parsed::dissect(&frame).unwrap();
        match parsed.transport {
            Transport::Tcp { tcp, payload } => {
                assert_eq!(tcp, repr);
                assert_eq!(payload, b"data");
            }
            other => panic!("expected TCP, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_frame_is_flagged() {
        let ep = endpoints();
        let mut frame = build_udp(&ep, 1, 2, b"abcd");
        // Corrupt one payload byte: the UDP checksum must catch it.
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        assert_eq!(Parsed::dissect(&frame).unwrap_err(), Error::Checksum);
    }

    #[test]
    fn non_ip_ethertype_is_unsupported() {
        let ep = endpoints();
        let mut frame = build_udp(&ep, 1, 2, b"x");
        frame[12] = 0x08;
        frame[13] = 0x06; // ARP
        assert_eq!(Parsed::dissect(&frame).unwrap_err(), Error::Unsupported);
    }

    #[test]
    fn reversed_endpoints_swap() {
        let ep = endpoints();
        let rev = ep.reversed();
        assert_eq!(rev.src_ip, ep.dst_ip);
        assert_eq!(rev.dst_mac, ep.src_mac);
        assert_eq!(rev.reversed(), ep);
    }
}
