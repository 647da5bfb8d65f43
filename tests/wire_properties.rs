//! Property tests on the wire formats: arbitrary frames round-trip
//! exactly, arbitrary corruption is always *detected* (never silently
//! accepted), and the packetizer's no-split invariant holds for any
//! partition size.

use daiet_repro::daiet::worker::Packetizer;
use daiet_repro::daiet::DaietConfig;
use daiet_repro::wire::checksum::{crc32, crc32_update};
use daiet_repro::wire::daiet::{Key, PacketType, Pair, Repr, ENTRY_LEN, HEADER_LEN};
use daiet_repro::wire::stack::{build_daiet, build_udp, Endpoints, Parsed, Transport};
use proptest::prelude::*;

fn arb_key() -> impl Strategy<Value = Key> {
    prop::collection::vec(any::<u8>(), 0..=16)
        .prop_map(|bytes| Key::from_bytes(&bytes).expect("len bounded"))
}

fn arb_pairs(max: usize) -> impl Strategy<Value = Vec<Pair>> {
    prop::collection::vec((arb_key(), any::<u32>()).prop_map(|(k, v)| Pair::new(k, v)), 0..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn daiet_frames_round_trip(tree in any::<u16>(), seq in any::<u32>(), pairs in arb_pairs(40)) {
        let mut repr = Repr::data(tree, pairs);
        repr.seq = seq;
        let ep = Endpoints::from_ids(1, 2);
        let frame = build_daiet(&ep, 777, &repr);
        let parsed = Parsed::dissect(&frame).unwrap();
        match parsed.transport {
            Transport::Daiet { daiet, .. } => prop_assert_eq!(daiet, repr),
            other => prop_assert!(false, "not DAIET: {:?}", other),
        }
    }

    #[test]
    fn single_bit_corruption_never_passes_silently(
        payload in prop::collection::vec(any::<u8>(), 1..200),
        bit in 0usize..8,
        // flip somewhere in the frame, chosen by fraction so it is
        // always in range
        pos_frac in 0.0f64..1.0,
    ) {
        let ep = Endpoints::from_ids(3, 4);
        let mut frame = build_udp(&ep, 1000, 2000, &payload);
        let pos = ((frame.len() - 1) as f64 * pos_frac) as usize;
        frame[pos] ^= 1 << bit;
        match Parsed::dissect(&frame) {
            // Dissection must either reject the frame...
            Err(_) => {}
            // ...or the flip hit a field whose change is itself fully
            // described by the parse (src/dst ports can't be verified
            // without context, but payload and length damage must be
            // caught). If it parsed as UDP, the payload must differ from
            // the original only if the checksum happened to still match,
            // which for a single bit flip is impossible (Internet
            // checksum detects all 1-bit errors).
            Ok(p) => {
                if let Transport::Udp { payload: got, udp } = p.transport {
                    // The flip must have hit the MAC addresses (not
                    // checksummed at L2) leaving everything else intact.
                    prop_assert_eq!(got, payload);
                    prop_assert_eq!(udp.src_port, 1000);
                    prop_assert_eq!(udp.dst_port, 2000);
                    prop_assert!(pos < 12, "undetected corruption at offset {}", pos);
                } else {
                    prop_assert!(false, "frame changed protocol");
                }
            }
        }
    }

    #[test]
    fn packetizer_never_splits_and_always_terminates(pairs in arb_pairs(120)) {
        let config = DaietConfig::default();
        let packets = Packetizer::new(&config).packets(9, &pairs);
        // Last packet is END, everything before is DATA with <= 10 pairs.
        prop_assert_eq!(packets.last().unwrap().packet_type, PacketType::End);
        let mut reassembled = Vec::new();
        for p in &packets[..packets.len() - 1] {
            prop_assert_eq!(p.packet_type, PacketType::Data);
            prop_assert!(p.entries.len() <= config.pairs_per_packet);
            prop_assert!(!p.entries.is_empty());
            reassembled.extend_from_slice(&p.entries);
        }
        // No pair lost, duplicated, split or reordered.
        prop_assert_eq!(reassembled, pairs);
        // Wire size bookkeeping: every DATA packet's byte length is the
        // preamble plus whole entries.
        for p in &packets {
            prop_assert_eq!(p.buffer_len(), HEADER_LEN + p.entries.len() * ENTRY_LEN);
        }
    }

    /// The sliced CRC-32 against the bytewise definition (one register
    /// step per byte, eight shift-and-xor steps per byte — no table): every
    /// length 0–64 of random contents, fed to `crc32_update` in two pieces
    /// at every split point, so the eight-byte body and the byte tail are
    /// entered and left at every alignment.
    #[test]
    fn sliced_crc32_equals_the_bytewise_definition(
        data in prop::collection::vec(any::<u8>(), 64..=64),
    ) {
        let bytewise = |bytes: &[u8]| {
            bytes.iter().fold(0xFFFF_FFFFu32, |reg, &byte| {
                (0..8).fold(reg ^ u32::from(byte), |r, _| (r >> 1) ^ (0xEDB8_8320 & (r & 1).wrapping_neg()))
            })
        };
        for len in 0..=data.len() {
            let expect = bytewise(&data[..len]);
            prop_assert_eq!(crc32(&data[..len]), expect ^ 0xFFFF_FFFF, "one-shot, length {}", len);
            for split in 0..=len {
                let head = crc32_update(0xFFFF_FFFF, &data[..split]);
                prop_assert_eq!(
                    crc32_update(head, &data[split..len]),
                    expect,
                    "length {} split at {}", len, split
                );
            }
        }
    }

    #[test]
    fn keys_trim_and_rebuild(bytes in prop::collection::vec(1u8..255, 0..=16)) {
        // Keys without interior NULs round-trip through trimming.
        let k = Key::from_bytes(&bytes).unwrap();
        prop_assert_eq!(k.trimmed(), &bytes[..]);
        let rebuilt = Key::from_bytes(k.trimmed()).unwrap();
        prop_assert_eq!(rebuilt, k);
    }
}
