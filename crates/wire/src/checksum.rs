//! Checksums and hashes: the RFC 1071 internet checksum (IPv4/UDP/TCP) and
//! CRC-32 (the hash primitive offered by programmable switch pipelines).

use crate::Ipv4Address;

/// Computes the ones-complement internet checksum (RFC 1071) over `data`,
/// starting from an `initial` partial sum (already in ones-complement
/// accumulator form, i.e. the raw 32-bit sum, not folded).
fn sum_words(acc: u32, data: &[u8]) -> u32 {
    // Sum 32 bits at a time into a 64-bit accumulator — the
    // ones-complement sum is associative and endian-foldable, so four
    // big-endian bytes count as two 16-bit words at once. This halves
    // the loop trips on the per-packet verification path.
    let mut wide = u64::from(acc);
    let mut chunks = data.chunks_exact(4);
    for w in &mut chunks {
        wide += u64::from(u32::from_be_bytes([w[0], w[1], w[2], w[3]]));
    }
    let mut rest = chunks.remainder().iter();
    while let Some(&hi) = rest.next() {
        let lo = rest.next().copied().unwrap_or(0);
        wide += u64::from(u16::from_be_bytes([hi, lo]));
    }
    // Fold the 64-bit accumulator back to the 32-bit form callers expect.
    while wide > u64::from(u32::MAX) {
        wide = (wide & 0xffff_ffff) + (wide >> 32);
    }
    wide as u32
}

fn fold(mut acc: u32) -> u16 {
    while acc > 0xffff {
        acc = (acc & 0xffff) + (acc >> 16);
    }
    acc as u16
}

/// The internet checksum of `data` (ones-complement of the ones-complement
/// sum). A receiver validating a packet whose checksum field is filled in
/// should obtain `0`.
pub fn internet_checksum(data: &[u8]) -> u16 {
    !fold(sum_words(0, data))
}

/// Computes the UDP/TCP checksum with the IPv4 pseudo-header
/// (src, dst, zero, protocol, length).
pub fn pseudo_header_checksum(
    src: Ipv4Address,
    dst: Ipv4Address,
    protocol: u8,
    payload: &[u8],
) -> u16 {
    let mut acc = 0u32;
    acc = sum_words(acc, src.as_bytes());
    acc = sum_words(acc, dst.as_bytes());
    acc += u32::from(protocol);
    acc += payload.len() as u32;
    acc = sum_words(acc, payload);
    !fold(acc)
}

/// Verifies a checksummed region: returns true when the ones-complement sum
/// (including the embedded checksum field) folds to `0xffff`.
pub fn verify(data: &[u8]) -> bool {
    fold(sum_words(0, data)) == 0xffff
}

/// Verifies a UDP/TCP segment including its pseudo-header.
pub fn verify_pseudo(src: Ipv4Address, dst: Ipv4Address, protocol: u8, segment: &[u8]) -> bool {
    let mut acc = 0u32;
    acc = sum_words(acc, src.as_bytes());
    acc = sum_words(acc, dst.as_bytes());
    acc += u32::from(protocol);
    acc += segment.len() as u32;
    acc = sum_words(acc, segment);
    fold(acc) == 0xffff
}

/// The CRC-32 slicing tables, built at compile time. `[0]` is the classic
/// 256-entry byte table; `[k][b]` is the register after byte `b` followed
/// by `k` zero bytes, which lets eight input bytes be folded in with
/// eight independent lookups instead of eight dependent ones.
static CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut reg = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (reg & 1).wrapping_neg();
            reg = (reg >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        tables[0][i] = reg;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`).
///
/// This is the hash function exposed as a primitive by P4 targets and used
/// by DAIET to index the key/value register arrays (Algorithm 1, line 5).
/// Table-driven, eight bytes per step, for speed — Algorithm 1 hashes
/// every pair of every packet, so this runs tens of times per simulated
/// frame; the switch model charges a fixed per-invocation cost
/// regardless.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Incremental CRC-32: feeds `data` into a running register (pass
/// `0xFFFF_FFFF` initially and XOR the result with `0xFFFF_FFFF` at the end,
/// or use [`crc32`] for the one-shot form).
pub fn crc32_update(mut reg: u32, data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = reg ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        reg = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        reg = (reg >> 8) ^ t[0][((reg ^ u32::from(byte)) & 0xFF) as usize];
    }
    reg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn internet_checksum_known_vector() {
        // Classic RFC 1071 worked example.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&data), !0xddf2);
    }

    #[test]
    fn internet_checksum_verifies_after_fill() {
        let mut data = vec![0x45u8, 0x00, 0x00, 0x28, 0x12, 0x34, 0x00, 0x00, 0x40, 0x11, 0, 0];
        data.extend_from_slice(&[10, 0, 0, 1, 10, 0, 0, 2]);
        let ck = internet_checksum(&data);
        data[10..12].copy_from_slice(&ck.to_be_bytes());
        assert!(verify(&data));
    }

    #[test]
    fn internet_checksum_odd_length() {
        let data = [0x01u8, 0x02, 0x03];
        // Manually: 0x0102 + 0x0300 = 0x0402 -> !0x0402.
        assert_eq!(internet_checksum(&data), !0x0402);
    }

    #[test]
    fn pseudo_header_round_trips() {
        let src = Ipv4Address([10, 0, 0, 1]);
        let dst = Ipv4Address([10, 0, 0, 2]);
        let mut seg = vec![0u8; 16];
        seg[0] = 0xAB;
        seg[15] = 0xCD;
        // Checksum at offset 6..8 as in UDP.
        let ck = pseudo_header_checksum(src, dst, 17, &seg);
        seg[6..8].copy_from_slice(&ck.to_be_bytes());
        assert!(verify_pseudo(src, dst, 17, &seg));
        seg[0] ^= 0x01;
        assert!(!verify_pseudo(src, dst, 17, &seg));
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_incremental_matches_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let (a, b) = data.split_at(17);
        let mut reg = 0xFFFF_FFFFu32;
        reg = crc32_update(reg, a);
        reg = crc32_update(reg, b);
        assert_eq!(reg ^ 0xFFFF_FFFF, crc32(data));
    }
}
