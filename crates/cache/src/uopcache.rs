//! The decoded-µop cache (op cache / DSB).
//!
//! §5.1 of the paper reverse engineers the µop cache with performance
//! counters and finds that on every tested part it has **64 sets, 8 ways,
//! selected by the lower 12 bits of the instruction's virtual address**.
//! The ID observation channel works by priming one µop-cache set with a
//! jmp-series (7 direct branches 4096 bytes apart, which all map to the
//! same set), triggering the suspected phantom decode, and counting how
//! many primed ways were evicted.

use crate::geometry::CacheGeometry;
use crate::setassoc::{AccessOutcome, Replacement, SetAssocCache};

/// The µop cache: presence of *decoded* instruction lines, indexed by
/// virtual address bits \[11:6\].
///
/// # Examples
///
/// ```
/// use phantom_cache::{CacheGeometry, UopCache};
/// let mut uc = UopCache::new();
/// // Two addresses 4096 bytes apart land in the same set…
/// let g = CacheGeometry::uop_cache();
/// assert_eq!(g.set_index(0x10ac0), g.set_index(0x11ac0));
/// // …and filling decoded lines makes later lookups hit.
/// uc.fill(0x10ac0);
/// assert!(uc.lookup(0x10ac0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct UopCache {
    cache: SetAssocCache,
    hits: u64,
    misses: u64,
}

impl UopCache {
    /// An empty µop cache with the paper's geometry (64 sets × 8 ways).
    pub fn new() -> UopCache {
        UopCache::with_geometry(CacheGeometry::uop_cache())
    }

    /// An empty µop cache with an explicit geometry — what-if uarch
    /// specs can deviate from the paper's 64×8 shape.
    pub fn with_geometry(geometry: CacheGeometry) -> UopCache {
        UopCache {
            cache: SetAssocCache::new(geometry, Replacement::Lru),
            hits: 0,
            misses: 0,
        }
    }

    /// Empty the µop cache in place, as
    /// `*self = UopCache::with_geometry(geometry)` would. See
    /// [`SetAssocCache::reset`].
    pub fn reset(&mut self, geometry: CacheGeometry) {
        self.cache.reset(geometry, Replacement::Lru);
        self.hits = 0;
        self.misses = 0;
    }

    /// Look up whether the line holding `va` has decoded µops cached.
    /// Counts a hit or miss (the dispatch-path decision the counters see).
    /// A hit refreshes replacement state; a miss fills nothing (the
    /// decode stage fills).
    pub fn dispatch_lookup(&mut self, va: u64) -> bool {
        let hit = self.cache.access_if_present(va);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// Test oracle for [`dispatch_lookup`](UopCache::dispatch_lookup):
    /// a presence probe, then an access on a hit (two set searches, the
    /// implementation before the fused one).
    #[cfg(test)]
    pub(crate) fn dispatch_lookup_by_probe(&mut self, va: u64) -> bool {
        let hit = self.cache.probe(va);
        if hit {
            self.hits += 1;
            self.cache.access(va);
        } else {
            self.misses += 1;
        }
        hit
    }

    /// Non-counting presence check.
    pub fn lookup(&self, va: u64) -> bool {
        self.cache.probe(va)
    }

    /// Insert decoded µops for the line holding `va` (called by the
    /// decode stage — including for *transiently* decoded phantom
    /// targets, which is exactly observation O2). Returns the eviction
    /// outcome.
    pub fn fill(&mut self, va: u64) -> AccessOutcome {
        self.cache.access(va)
    }

    /// Invalidate the whole structure (context switch / IBPB-like flush).
    pub fn flush_all(&mut self) {
        self.cache.flush_all();
    }

    /// Open a new restore epoch; see [`SetAssocCache::begin_epoch`].
    pub fn begin_epoch(&mut self) {
        self.cache.begin_epoch();
    }

    /// Share every set written so far; see [`SetAssocCache::seal`].
    pub fn seal(&mut self) {
        self.cache.seal();
    }

    /// Set chunks owned rather than shared; see
    /// [`SetAssocCache::owned_chunks`].
    pub fn owned_chunks(&self) -> usize {
        self.cache.owned_chunks()
    }

    /// Rewind to `snap`; see [`SetAssocCache::restore_from`].
    pub fn restore_from(&mut self, snap: &UopCache) {
        self.cache.restore_from(&snap.cache);
        self.hits = snap.hits;
        self.misses = snap.misses;
    }

    /// Lifetime dispatch hits (`op_cache_hit_miss.op_cache_hit`).
    #[cfg(test)]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime dispatch misses.
    #[cfg(test)]
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

impl Default for UopCache {
    fn default() -> UopCache {
        UopCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_selection_uses_low_12_bits() {
        // Same low 12 bits -> same set, regardless of high bits.
        assert_eq!(
            CacheGeometry::uop_cache().set_index(0x0000_0ac0),
            CacheGeometry::uop_cache().set_index(0xffff_1ac0)
        );
        // Bits [5:0] don't matter (within a line).
        assert_eq!(
            CacheGeometry::uop_cache().set_index(0xac0),
            CacheGeometry::uop_cache().set_index(0xaff)
        );
        // 64 distinct sets across a page.
        let sets: std::collections::BTreeSet<_> = (0..4096u64)
            .step_by(64)
            .map(|va| CacheGeometry::uop_cache().set_index(va))
            .collect();
        assert_eq!(sets.len(), 64);
    }

    #[test]
    fn jmp_series_addresses_alias() {
        // The paper's priming jmp-series: 7 branches separated by 4096 B.
        let base = 0x40_0ac0u64;
        let sets: Vec<_> = (0..7)
            .map(|i| CacheGeometry::uop_cache().set_index(base + i * 4096))
            .collect();
        assert!(sets.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn priming_then_conflicting_fill_evicts() {
        let mut uc = UopCache::new();
        let base = 0x10_0ac0u64;
        // Prime all 8 ways of the set.
        for i in 0..8 {
            uc.fill(base + i * 4096);
        }
        assert!((0..8).all(|i| uc.lookup(base + i * 4096)));
        // A phantom decode at a colliding address evicts a primed way.
        let out = uc.fill(0xdead_0ac0);
        assert!(out.evicted.is_some());
        // One of the primed lines is now a dispatch miss.
        let miss_count = (0..8).filter(|i| !uc.lookup(base + i * 4096)).count();
        assert_eq!(miss_count, 1);
    }

    #[test]
    fn dispatch_lookup_counts() {
        let mut uc = UopCache::new();
        uc.dispatch_lookup(0x40); // miss
        uc.fill(0x40);
        uc.dispatch_lookup(0x40); // hit
        assert_eq!(uc.hits(), 1);
        assert_eq!(uc.misses(), 1);
    }

    #[test]
    fn flush_clears_everything() {
        let mut uc = UopCache::new();
        uc.fill(0x40);
        uc.flush_all();
        assert!(!uc.lookup(0x40));
    }
}
