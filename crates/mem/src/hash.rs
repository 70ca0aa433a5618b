//! Fixed-seed integer hashing for the simulator's hot host-side maps.
//!
//! Every per-trial map is keyed by small integers (frame numbers,
//! `(pc, privilege)` pairs, BTB page offsets, cache-line addresses).
//! std's default SipHash costs more than the lookup it guards there, so
//! those maps use [`IntMap`]/[`IntSet`]: one folded 64×64→128-bit
//! multiply per written integer. The fold XORs the high product half
//! into the low one, because hashbrown takes the bucket index from the
//! low bits and the plain low product bits of an aligned key (a page
//! number, a 64-byte line) carry its trailing zeros. Unlike SipHash it
//! offers no protection against keys crafted to collide; the keys here
//! are addresses of the simulated machine, so a guest program built to
//! collide can only slow its own simulation. The seed is fixed,
//! so hashing is the same in every process; that is safe only because
//! no output depends on iteration order. Every iteration over these
//! maps is order-free:
//!
//! * `PhysMemory::chunks`: `all` (a debug assertion), `any`, `count`,
//!   and a filtered collect that is sorted before use;
//! * `Btb::buckets`: a `sum` of bucket lengths;
//! * the decode cache's entry and code-frame maps and the wrong path's
//!   line set: lookups, inserts and clears only.

use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier (the 64-bit golden ratio) and seed (π's fraction).
const K: u64 = 0x9e37_79b9_7f4a_7c15;
const SEED: u64 = 0x243f_6a88_85a3_08d3;

/// A folded-multiply hasher for integer keys; see the module docs.
#[derive(Debug, Clone, Copy)]
pub struct IntHasher(u64);

impl Default for IntHasher {
    fn default() -> IntHasher {
        IntHasher(SEED)
    }
}

impl Hasher for IntHasher {
    #[inline]
    fn write_u64(&mut self, n: u64) {
        let p = u128::from(self.0 ^ n) * u128::from(K);
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.write_u64(n.into());
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.write_u64(n.into());
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` hashed with [`IntHasher`].
#[allow(clippy::disallowed_types)] // the one place the std map is named
pub type IntMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A `HashSet` hashed with [`IntHasher`].
#[allow(clippy::disallowed_types)] // the one place the std set is named
pub type IntSet<T> = std::collections::HashSet<T, BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn aligned_keys_spread_over_the_low_bits() {
        // Page-aligned line addresses: without the fold every key's low
        // 12 hash bits would be equal.
        let build = BuildHasherDefault::<IntHasher>::default();
        let low: IntSet<u64> = (0..256u64)
            .map(|i| build.hash_one(i << 12) & 0xff)
            .collect();
        assert!(low.len() > 128, "{} distinct low bytes", low.len());
    }

    #[test]
    fn hashing_is_deterministic_and_sees_every_field() {
        let build = BuildHasherDefault::<IntHasher>::default();
        assert_eq!(build.hash_one((7u64, 1u8)), build.hash_one((7u64, 1u8)));
        assert_ne!(build.hash_one((7u64, 1u8)), build.hash_one((7u64, 0u8)));
    }
}
