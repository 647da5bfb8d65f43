//! Pair encodings for the shuffle.
//!
//! DAIET requires **fixed-size** pairs so packetization can slice the map
//! output at pair boundaries without deserializing (§4) — at the cost of
//! padding every key to 16 bytes, which the paper calls out as measured
//! overhead ("the fixed-size length of strings in our implementation …
//! forces a 16 B key even for smaller strings"). The
//! [`Corpus`](crate::Corpus) holds each record as a code that the DAIET
//! senders decode into that representation as they frame it, so the DAIET
//! modes encode nothing here; [`to_pairs`] decodes a whole partition for
//! the callers that want pairs. The TCP baseline streams
//! **variable-length** records (length-prefixed word + 4-byte count), the
//! natural on-disk format of a MapReduce implementation; this module is
//! that codec, over pairs: the word is the key with its padding trimmed.

use daiet::worker::CodedPairs;
use daiet_wire::daiet::{Key, Pair};

/// Encodes pairs in the baseline's variable-length format:
/// `u8 len ‖ word bytes ‖ u32 count`, the word being
/// [`Key::trimmed`] (so `len ≤ KEY_LEN` by construction).
pub fn encode_varlen(pairs: &[Pair]) -> Vec<u8> {
    let mut out = Vec::with_capacity(pairs.len() * 12);
    for pair in pairs {
        let word = pair.key.trimmed();
        out.push(u8::try_from(word.len()).expect("a key is KEY_LEN bytes"));
        out.extend_from_slice(word);
        out.extend_from_slice(&pair.value.to_be_bytes());
    }
    out
}

/// Decodes a variable-length stream. Returns `None` on a truncated tail
/// and on a declared word length above `KEY_LEN` (no such word is a key:
/// [`Key::from_bytes`] refuses it).
pub fn decode_varlen(mut data: &[u8]) -> Option<Vec<Pair>> {
    let mut out = Vec::new();
    while let Some((&len, rest)) = data.split_first() {
        let (word, rest) = rest.split_at_checked(usize::from(len))?;
        let (count, rest) = rest.split_first_chunk::<4>()?;
        out.push(Pair::new(Key::from_bytes(word).ok()?, u32::from_be_bytes(*count)));
        data = rest;
    }
    Some(out)
}

/// Decodes a partition of the map output into §4's fixed-size pairs, in
/// record order.
pub fn to_pairs(partition: &CodedPairs) -> Vec<Pair> {
    partition.to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use daiet_wire::daiet::KEY_LEN;

    fn pair(word: &str, count: u32) -> Pair {
        Pair::new(Key::from_str_key(word).unwrap(), count)
    }

    fn sample() -> Vec<Pair> {
        vec![pair("a", 1), pair("sixteen-chars-xy", 7), pair("medium", 42)]
    }

    #[test]
    fn varlen_round_trips() {
        let pairs = sample();
        assert_eq!(pairs[1].key.trimmed().len(), KEY_LEN, "a key with no padding");
        let bytes = encode_varlen(&pairs);
        assert_eq!(decode_varlen(&bytes).unwrap(), pairs);
        // Size: (1+1+4) + (1+16+4) + (1+6+4) = 38.
        assert_eq!(bytes.len(), 38);
        assert_eq!(decode_varlen(&[]).unwrap(), vec![]);
    }

    #[test]
    fn truncated_varlen_is_rejected() {
        let bytes = encode_varlen(&sample());
        // Cutting exactly at a record boundary leaves a shorter valid
        // stream; every other cut leaves a truncated record.
        let boundaries = [0, 6, 6 + 21, 38];
        for cut in 0..bytes.len() {
            let decoded = decode_varlen(&bytes[..cut]);
            match boundaries.iter().position(|&b| b == cut) {
                Some(records) => assert_eq!(decoded.unwrap(), sample()[..records]),
                None => assert!(decoded.is_none(), "cut at {cut} accepted"),
            }
        }
    }

    #[test]
    fn declared_lengths_above_the_key_width_are_rejected() {
        for len in [KEY_LEN as u8 + 1, u8::MAX] {
            let mut bytes = vec![len];
            bytes.extend(std::iter::repeat_n(b'x', usize::from(len) + 4));
            assert!(decode_varlen(&bytes).is_none(), "length {len} accepted");
        }
        // The widest legal length, for contrast.
        let mut bytes = vec![KEY_LEN as u8];
        bytes.extend([b'x'; KEY_LEN + 4]);
        assert_eq!(decode_varlen(&bytes).unwrap().len(), 1);
    }

    #[test]
    fn fixed_encoding_pads_keys() {
        let sample = sample();
        let keys: std::sync::Arc<[Key]> = sample.iter().map(|p| p.key).collect();
        // The partition's records in another order than its dictionary's.
        let codes = vec![CodedPairs::code(2, 10), CodedPairs::code(0, 1), CodedPairs::code(1, 7)];
        let pairs = to_pairs(&CodedPairs { keys, codes });
        assert_eq!(pairs, [pair("medium", 10), pair("a", 1), pair("sixteen-chars-xy", 7)]);
        // Every pair costs 16 + 4 bytes regardless of word length — the
        // paper's overhead observation.
        assert_eq!(pairs[1].key.0, *b"a\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0");
        assert_eq!(pairs[2].key.0, *b"sixteen-chars-xy");
    }
}
