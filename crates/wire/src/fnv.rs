//! Fixed-seed hashing for simulator-internal lookup tables.
//!
//! `std`'s default `HashMap` hasher (SipHash-1-3) buys DoS resistance the
//! simulator does not need — every key it hashes is generated by the
//! simulation itself — at a real per-packet cost: flow-rule lookups, tree
//! state, gap trackers and reducer collectors all sit on the packet hot
//! path. FNV-1a is a few shifts and multiplies per byte and measurably
//! faster for the short keys (2–20 bytes) these tables use.
//!
//! The 16-byte DAIET [`Key`] gets a hasher of its own. A key is a value of
//! fixed width, not a string ("a 16 B key even for smaller strings", §5),
//! and the reducer's collector hashes one for every pair of a shuffle,
//! where byte-at-a-time FNV-1a spends sixteen dependent multiplies.
//! [`KeyHasher`] reads the key as two `u64` halves and mixes each with one
//! folded 64×64→128-bit multiply, so every input bit reaches the low bits
//! a table indexes by. Like FNV it has no random seed: a [`KeyMap`] fed
//! the same keys in the same order iterates in the same order on every
//! run.
//!
//! ```
//! use daiet_wire::daiet::Key;
//! use daiet_wire::fnv::{FnvHashMap, KeyMap};
//!
//! let mut counts: FnvHashMap<u16, u32> = FnvHashMap::default();
//! counts.insert(7, 1);
//! *counts.entry(7).or_insert(0) += 1;
//! assert_eq!(counts[&7], 2);
//!
//! let mut words: KeyMap<u32> = KeyMap::default();
//! *words.entry(Key([b'a'; 16])).or_insert(0) += 3;
//! assert_eq!(words[&Key([b'a'; 16])], 3);
//! ```

use crate::daiet::Key;
use core::hash::{BuildHasherDefault, Hasher};
use std::collections::{HashMap, HashSet};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A streaming FNV-1a hasher (64-bit).
#[derive(Debug, Clone)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(FNV_OFFSET)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut hash = self.0;
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        self.0 = hash;
    }

    fn write_u64(&mut self, n: u64) {
        // Integers hash in one round instead of byte-at-a-time.
        self.0 = (self.0 ^ n).wrapping_mul(FNV_PRIME);
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u16(&mut self, n: u16) {
        self.write_u64(u64::from(n));
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// `BuildHasher` for [`FnvHasher`].
pub type FnvBuildHasher = BuildHasherDefault<FnvHasher>;

/// A `HashMap` keyed with FNV-1a.
pub type FnvHashMap<K, V> = HashMap<K, V, FnvBuildHasher>;

/// A `HashSet` keyed with FNV-1a.
pub type FnvHashSet<T> = HashSet<T, FnvBuildHasher>;

/// The start state of [`KeyHasher`] (the fractional digits of π).
const KEY_SEED: u64 = 0x243f_6a88_85a3_08d3;
/// The odd multiplier of [`KeyHasher`]'s mix (2⁶⁴ divided by the golden
/// ratio).
const KEY_MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

/// A word-at-a-time hasher for fixed-width [`Key`]s: each 8-byte word
/// of input is XORed into the state, which is then multiplied into 128
/// bits and folded back to 64 (high half XOR low half). The fold is what
/// brings a key's high bytes down into the low bits a table indexes by.
///
/// `Key`'s derived `Hash` writes its width before its bytes. The width is
/// the same for every key, so [`write_usize`](Hasher::write_usize) mixes
/// nothing and a key costs two multiplies. Other types still hash
/// consistently with their `Eq`, but every `usize` they write, length
/// prefixes included, is lost; use [`FnvHasher`] for them.
#[derive(Debug, Clone)]
pub struct KeyHasher(u64);

impl Default for KeyHasher {
    fn default() -> Self {
        KeyHasher(KEY_SEED)
    }
}

impl KeyHasher {
    fn mix(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * u128::from(KEY_MULTIPLIER);
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for chunk in &mut words {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(word));
        }
    }

    fn write_usize(&mut self, _len: usize) {
        // A length prefix: constant for fixed-width keys.
    }
}

/// `BuildHasher` for [`KeyHasher`].
pub type KeyBuildHasher = BuildHasherDefault<KeyHasher>;

/// A `HashMap` from DAIET keys, hashed word at a time by [`KeyHasher`].
pub type KeyMap<V> = HashMap<Key, V, KeyBuildHasher>;

/// The hash-map entry API, re-exported so call sites pattern-matching on
/// [`Entry`] against an [`FnvHashMap`] or a [`KeyMap`] never need to name
/// `std::collections::hash_map` (which the invariant linter's
/// `det-collections` rule rejects in sim-path code).
pub use std::collections::hash_map::Entry;

#[cfg(test)]
mod tests {
    use super::*;
    use core::hash::BuildHasher;

    #[test]
    fn matches_reference_vectors() {
        // Canonical FNV-1a 64-bit test vectors.
        let hash = |bytes: &[u8]| {
            let mut h = FnvHasher::default();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn map_and_set_work() {
        let mut m: FnvHashMap<[u8; 16], u32> = FnvHashMap::default();
        m.insert([1; 16], 10);
        m.insert([2; 16], 20);
        assert_eq!(m.get(&[1; 16]), Some(&10));
        let mut s: FnvHashSet<u32> = FnvHashSet::default();
        assert!(s.insert(5));
        assert!(!s.insert(5));
    }

    /// 4 096 keys over `base` that differ only in `bytes`: each of the six
    /// bytes takes one of four letters, one base-4 digit of the index.
    fn keys_varying(base: [u8; 16], bytes: core::ops::Range<usize>) -> Vec<Key> {
        assert_eq!(bytes.len(), 6);
        (0..4096usize)
            .map(|i| {
                let mut k = base;
                for (d, b) in bytes.clone().enumerate() {
                    k[b] = b'a' + ((i >> (2 * d)) & 3) as u8;
                }
                Key(k)
            })
            .collect()
    }

    /// The share of `keys` whose hashes differ in their low 16 bits — the
    /// bits a table of 16 384 keys indexes by.
    fn low16_distinct(keys: &[Key], hash: impl Fn(&Key) -> u64) -> f64 {
        let low: FnvHashSet<u64> = keys.iter().map(|k| hash(k) & 0xffff).collect();
        low.len() as f64 / keys.len() as f64
    }

    #[test]
    fn key_hasher_is_deterministic_and_pinned() {
        let key = Key(*b"paperscaleword\0\0");
        let (a, b) = (KeyBuildHasher::default(), KeyBuildHasher::default());
        assert_eq!(a.hash_one(key), b.hash_one(key));
        assert_eq!(a.hash_one(key), 0x7cab_752c_ed4b_3d47, "{:#018x}", a.hash_one(key));
        assert_ne!(a.hash_one(key), a.hash_one(Key::ZERO));
    }

    /// Keys that differ only in their high half's top bytes, or only in
    /// their low half's, still spread over the low 16 bits. A single FNV
    /// round per half cannot do that: its low output bits see only the
    /// low input bits, so every key of a set lands in one bucket.
    #[test]
    fn key_hasher_mixes_either_half_into_the_low_bits() {
        let base = *b"abcdefghijklmnop";
        let build = KeyBuildHasher::default();
        let one_round_fnv = |k: &Key| {
            let mut h = FnvHasher::default();
            let (lo, hi) = k.0.split_at(8);
            for half in [lo, hi] {
                let mut word = [0u8; 8];
                word.copy_from_slice(half);
                h.write_u64(u64::from_le_bytes(word));
            }
            h.finish()
        };
        for bytes in [10..16, 2..8] {
            let keys = keys_varying(base, bytes.clone());
            let share = low16_distinct(&keys, |k| build.hash_one(k));
            assert!(share >= 0.95, "bytes {bytes:?}: {share}");
            assert!(low16_distinct(&keys, one_round_fnv) < 0.01, "bytes {bytes:?}");
        }
    }

    #[test]
    fn key_map_merges_like_any_map() {
        let mut m: KeyMap<u32> = KeyMap::default();
        for (i, key) in keys_varying(*b"abcdefghijklmnop", 10..16).into_iter().enumerate() {
            *m.entry(key).or_insert(0) += i as u32;
            *m.entry(key).or_insert(0) += 1;
        }
        assert_eq!(m.len(), 4096);
        assert_eq!(m[&Key(*b"abcdefghijaaaaaa")], 1);
        assert_eq!(m.get(&Key::ZERO), None);
    }

    #[test]
    fn integer_writes_are_deterministic() {
        let build = FnvBuildHasher::default();
        let h1 = build.hash_one(42u64);
        let h2 = build.hash_one(42u64);
        assert_eq!(h1, h2);
        assert_ne!(build.hash_one(42u64), build.hash_one(43u64));
    }
}
