//! A fast, deterministic hasher for simulator-internal maps.
//!
//! Its hot users are the directories of `sim_mem::PagedTable` (page table,
//! MTT, region table: one directory probe per look-up) and the server's
//! block directory; every key is the simulator's own. The default SipHash
//! keying is built for HashDoS resistance the simulator does not need, and
//! its setup cost dominates small-key lookups. [`FastHasher`] is a
//! multiply-xor hash in the FxHash family: a single round per 8-byte word,
//! good diffusion for the dense `u64`/`u32` keys the simulator uses, no
//! per-process random state.
//!
//! Determinism note: where a map using this hasher is iterated — the block
//! directory's `live_blocks` and `alias_count`, the tiering heat map's
//! decay and histogram, `stats::Histogram`'s quantiles — the caller
//! sorts, sums or aggregates what it reads, so hash order never reaches
//! virtual time, a result or a trace stream. The hasher is still fully
//! deterministic across processes (no random seed), which keeps even
//! accidental iteration-order dependence replayable rather than
//! run-to-run random.

use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier from the FxHash family (derived from the golden ratio,
/// `2^64 / φ`), chosen to spread consecutive integers across the table.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// A fast multiply-xor hasher for small fixed-size keys.
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher(u64);

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // The low bits of a single multiply are weak; fold the high half in
        // so power-of-two-capacity tables index on well-mixed bits.
        let h = self.0;
        h ^ (h >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// `BuildHasher` for [`FastHasher`].
type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` keyed with [`FastHasher`].
pub type FastHashMap<K, V> = std::collections::HashMap<K, V, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        FastBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_hasher_instances() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&(7u32, 9u64)), hash_of(&(7u32, 9u64)));
    }

    #[test]
    fn consecutive_keys_spread() {
        // Dense vpn-style keys must not collide in the low bits the table
        // actually indexes on.
        let mut low_bits = std::collections::HashSet::new();
        for k in 0u64..256 {
            low_bits.insert(hash_of(&k) & 0xFF);
        }
        assert!(low_bits.len() > 128, "only {} distinct low bytes", low_bits.len());
    }

    #[test]
    fn map_behaves_like_std() {
        let mut m: FastHashMap<u64, u64> = FastHashMap::default();
        for k in 0..1_000u64 {
            m.insert(k * 7919, k);
        }
        assert_eq!(m.len(), 1_000);
        for k in 0..1_000u64 {
            assert_eq!(m.get(&(k * 7919)), Some(&k));
        }
        assert_eq!(m.remove(&0), Some(0));
        assert_eq!(m.len(), 999);
    }

    #[test]
    fn byte_stream_hashing_covers_partial_words() {
        assert_ne!(hash_of(&[1u8, 2, 3][..]), hash_of(&[1u8, 2, 4][..]));
        assert_ne!(hash_of(&"abc"), hash_of(&"abd"));
    }
}
