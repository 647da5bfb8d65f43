//! FNV-1a hashing for simulator-internal lookup tables.
//!
//! `std`'s default `HashMap` hasher (SipHash-1-3) buys DoS resistance the
//! simulator does not need — every key it hashes is generated by the
//! simulation itself — at a real per-packet cost: flow-rule lookups, tree
//! state, gap trackers and reducer collectors all sit on the packet hot
//! path. FNV-1a is a few shifts and multiplies per byte and measurably
//! faster for the short keys (2–20 bytes) these tables use.
//!
//! ```
//! use daiet_wire::fnv::FnvHashMap;
//!
//! let mut counts: FnvHashMap<u16, u32> = FnvHashMap::default();
//! counts.insert(7, 1);
//! *counts.entry(7).or_insert(0) += 1;
//! assert_eq!(counts[&7], 2);
//! ```

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

/// The hash-map entry API, re-exported so call sites pattern-matching on
/// [`Entry`] against an [`FnvHashMap`] never need to name
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

    #[test]
    fn integer_writes_are_deterministic() {
        let build = FnvBuildHasher::default();
        let h1 = build.hash_one(42u64);
        let h2 = build.hash_one(42u64);
        assert_eq!(h1, h2);
        assert_ne!(build.hash_one(42u64), build.hash_one(43u64));
    }
}
