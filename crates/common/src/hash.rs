//! A fast, deterministic hasher for dense integer keys.
//!
//! The state maintainers key their hot-path maps by [`SetId`](crate::SetId)
//! handles — small dense integers — where the default SipHash hasher costs
//! more than the table probe itself. [`FxHasher`] is a hand-rolled
//! implementation of the multiply-xor scheme popularised by the Firefox/rustc
//! `FxHash` (crates.io is unavailable in this build environment, so the
//! ~20-line algorithm is reimplemented here): each word is folded into the
//! state with a rotate, an xor and a multiplication by a large odd constant.
//!
//! Unlike `RandomState`, the hasher is **deterministic across processes** —
//! identical inputs hash identically in every run — which the determinism
//! suites rely on. It is *not* DoS-resistant; keys are internal handles, not
//! attacker-controlled strings.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplication constant from the rustc/Firefox FxHash scheme
/// (`0x51_7c_c1_b7_27_22_0a_95` = π-derived large odd constant). Shared
/// with the interner's direct-mapped intersection cache.
pub(crate) const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The multiply-xor hasher. See the [module docs](self).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in chunks.by_ref() {
            // infallible: `chunks_exact(8)` yields 8-byte chunks.
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }
}

/// `BuildHasher` producing [`FxHasher`]s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn hashing_is_deterministic() {
        assert_eq!(hash_of(42u32), hash_of(42u32));
        assert_eq!(hash_of("hello"), hash_of("hello"));
        assert_eq!(hash_of((7u32, 9u32)), hash_of((7u32, 9u32)));
    }

    #[test]
    fn distinct_inputs_rarely_collide() {
        use std::collections::HashSet;
        let hashes: HashSet<u64> = (0u32..10_000).map(hash_of).collect();
        assert_eq!(hashes.len(), 10_000, "dense u32 keys must not collide");
    }

    #[test]
    fn byte_stream_tail_is_hashed() {
        // Streams differing only in the last (non-8-aligned) bytes differ.
        assert_ne!(hash_of([1u8, 2, 3]), hash_of([1u8, 2, 4]));
        assert_ne!(
            hash_of([1u8, 2, 3, 4, 5, 6, 7, 8, 9]),
            hash_of([1u8, 2, 3, 4, 5, 6, 7, 8, 10])
        );
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut map: FxHashMap<u32, &str> = FxHashMap::default();
        map.insert(1, "one");
        assert_eq!(map.get(&1), Some(&"one"));
        let mut set: FxHashSet<u64> = FxHashSet::default();
        assert!(set.insert(5));
        assert!(!set.insert(5));
    }
}
