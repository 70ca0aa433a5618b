//! A generic set-associative cache with pluggable replacement.

use phantom_mem::RowStore;

use crate::geometry::CacheGeometry;

/// Replacement policy for a [`SetAssocCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Replacement {
    /// True least-recently-used.
    #[default]
    Lru,
    /// Tree pseudo-LRU (as real L1s approximate); deterministic.
    TreePlru,
    /// First-in first-out.
    Fifo,
}

/// Result of a caching access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the line was already present.
    pub hit: bool,
    /// The line address (not the full address) evicted to make room, if
    /// any.
    pub evicted: Option<u64>,
}

/// One way of a set. The slot after a set's ways is not a way: its
/// `stamp` holds the set's tree-PLRU bits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Line {
    tag: u64,
    valid: bool,
    /// LRU timestamp (Lru), insertion order (Fifo).
    stamp: u64,
}

/// A set-associative cache of line addresses.
///
/// The cache stores *presence* only — data contents live in
/// [`phantom_mem::PhysMemory`](https://docs.rs/phantom-mem). That is all
/// the side channels need: hit/miss is the signal.
///
/// # Examples
///
/// ```
/// use phantom_cache::{CacheGeometry, Replacement, SetAssocCache};
/// let mut c = SetAssocCache::new(CacheGeometry::new(2, 2, 64), Replacement::Lru);
/// // Fill set 0 beyond associativity: the oldest line is evicted.
/// c.access(0x000);
/// c.access(0x080);
/// let out = c.access(0x100);
/// assert_eq!(out.evicted, Some(0x000));
/// assert!(!c.probe(0x000));
/// ```
///
/// Two caches are equal when their shape, policy, counters and every
/// set's lines and replacement state are, however their sets are
/// shared; the rewind journal is not compared.
#[derive(Debug, Clone, PartialEq)]
pub struct SetAssocCache {
    geometry: CacheGeometry,
    replacement: Replacement,
    /// Set `i` is row `i`: its `ways` lines, then the slot holding its
    /// tree-PLRU bits. The store shares untouched sets between clones
    /// and journals the touched ones for rewinds and resets.
    sets: RowStore<Line>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Create an empty cache.
    pub fn new(geometry: CacheGeometry, replacement: Replacement) -> SetAssocCache {
        SetAssocCache {
            geometry,
            replacement,
            sets: RowStore::new(geometry.sets, geometry.ways + 1, Line::default()),
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Empty the cache in place, as `*self = SetAssocCache::new(geometry,
    /// replacement)` would, through [`RowStore::reset`]: only the sets
    /// written since the last reset when it can tell which, and no
    /// table-sized allocation for another geometry.
    pub fn reset(&mut self, geometry: CacheGeometry, replacement: Replacement) {
        self.sets
            .reset(geometry.sets, geometry.ways + 1, Line::default());
        self.geometry = geometry;
        self.replacement = replacement;
        self.clock = 0;
        self.hits = 0;
        self.misses = 0;
    }

    /// The ways of set `set_idx`.
    #[inline]
    fn set(&self, set_idx: usize) -> &[Line] {
        &self.sets.row(set_idx)[..self.geometry.ways]
    }

    /// Open a new restore epoch ([`RowStore::begin_epoch`]). Call on
    /// the live cache immediately before cloning it into a snapshot.
    pub fn begin_epoch(&mut self) {
        self.sets.begin_epoch();
    }

    /// Share every set this cache has written, so clones taken from now
    /// on copy none until they write it ([`RowStore::seal`]).
    pub fn seal(&mut self) {
        self.sets.seal();
    }

    /// Number of set chunks this cache owns rather than shares
    /// ([`RowStore::owned_chunks`]).
    pub fn owned_chunks(&self) -> usize {
        self.sets.owned_chunks()
    }

    /// Rewind to `snap`, to a state equal to `*self = snap.clone()`:
    /// only the sets written since `snap`'s epoch when
    /// [`RowStore::restore_from`] can tell, else a copy of every chunk.
    pub fn restore_from(&mut self, snap: &SetAssocCache) {
        self.sets.restore_from(&snap.sets);
        self.geometry = snap.geometry;
        self.replacement = snap.replacement;
        self.clock = snap.clock;
        self.hits = snap.hits;
        self.misses = snap.misses;
    }

    /// The cache's geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    fn plru_choose(plru: u64, ways: usize) -> usize {
        // Walk the implicit binary tree: bit clear -> go left, set -> right;
        // victim is where the pointers lead.
        let mut node = 0usize;
        let mut idx = 0usize;
        let mut span = ways;
        while span > 1 {
            let right = (plru >> node) & 1 == 1;
            span /= 2;
            if right {
                idx += span;
            }
            node = 2 * node + if right { 2 } else { 1 };
        }
        idx
    }

    fn plru_touch(plru: &mut u64, ways: usize, way: usize) {
        // Point every node on the path *away* from `way`.
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut span = ways;
        while span > 1 {
            span /= 2;
            let goes_right = way >= lo + span;
            if goes_right {
                *plru &= !(1 << node); // next victim: left
                lo += span;
                node = 2 * node + 2;
            } else {
                *plru |= 1 << node; // next victim: right
                node = 2 * node + 1;
            }
        }
    }

    /// Touch `addr`: hit updates replacement state, miss inserts the line
    /// (possibly evicting). Returns the outcome.
    pub fn access(&mut self, addr: u64) -> AccessOutcome {
        self.clock += 1;
        let set_idx = self.geometry.set_index(addr);
        let tag = self.geometry.tag(addr);
        let ways = self.geometry.ways;
        let line_shift = self.geometry.line_shift();
        let sets_shift = self.geometry.sets.trailing_zeros();
        let (set, meta) = self.sets.row_mut(set_idx).split_at_mut(ways);
        let plru = &mut meta[0].stamp;

        if let Some(way) = set.iter().position(|l| l.valid && l.tag == tag) {
            self.hits += 1;
            match self.replacement {
                Replacement::Lru => set[way].stamp = self.clock,
                Replacement::TreePlru => Self::plru_touch(plru, ways, way),
                Replacement::Fifo => {}
            }
            return AccessOutcome {
                hit: true,
                evicted: None,
            };
        }

        self.misses += 1;
        // Pick a victim: an invalid way first, else per policy.
        let way = set
            .iter()
            .position(|l| !l.valid)
            .unwrap_or_else(|| match self.replacement {
                Replacement::Lru | Replacement::Fifo => set
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, l)| l.stamp)
                    .map(|(i, _)| i)
                    .unwrap_or(0),
                Replacement::TreePlru => Self::plru_choose(*plru, ways),
            });
        let evicted = if set[way].valid {
            Some((set[way].tag << sets_shift | set_idx as u64) << line_shift)
        } else {
            None
        };
        set[way] = Line {
            tag,
            valid: true,
            stamp: self.clock,
        };
        if self.replacement == Replacement::TreePlru {
            Self::plru_touch(plru, ways, way);
        }
        AccessOutcome {
            hit: false,
            evicted,
        }
    }

    /// Touch `addr` only if it is present: one set search that, on a
    /// hit, updates replacement state and counts the hit exactly as
    /// [`access`](SetAssocCache::access) does, and on a miss changes
    /// nothing (no miss count, no fill). Equal to `probe` followed, on
    /// a hit, by `access`. Returns whether it hit.
    pub fn access_if_present(&mut self, addr: u64) -> bool {
        let set_idx = self.geometry.set_index(addr);
        let tag = self.geometry.tag(addr);
        let Some(way) = self
            .set(set_idx)
            .iter()
            .position(|l| l.valid && l.tag == tag)
        else {
            return false;
        };
        self.clock += 1;
        self.hits += 1;
        let ways = self.geometry.ways;
        let row = self.sets.row_mut(set_idx);
        match self.replacement {
            Replacement::Lru => row[way].stamp = self.clock,
            Replacement::TreePlru => Self::plru_touch(&mut row[ways].stamp, ways, way),
            Replacement::Fifo => {}
        }
        true
    }

    /// Non-destructive presence check (does not update replacement state).
    pub fn probe(&self, addr: u64) -> bool {
        let tag = self.geometry.tag(addr);
        self.set(self.geometry.set_index(addr))
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    /// Invalidate the line containing `addr`. Returns whether it was
    /// present.
    pub fn flush_line(&mut self, addr: u64) -> bool {
        let set_idx = self.geometry.set_index(addr);
        let tag = self.geometry.tag(addr);
        let set = self.set(set_idx);
        let Some(way) = set.iter().position(|l| l.valid && l.tag == tag) else {
            return false;
        };
        self.sets.row_mut(set_idx)[way].valid = false;
        true
    }

    /// Invalidate every line.
    pub fn flush_all(&mut self) {
        let ways = self.geometry.ways;
        for i in 0..self.geometry.sets {
            for line in &mut self.sets.row_mut(i)[..ways] {
                line.valid = false;
            }
        }
    }

    /// Number of valid lines in `set`.
    #[cfg(test)]
    pub fn set_occupancy(&self, set: usize) -> usize {
        self.set(set).iter().filter(|l| l.valid).count()
    }

    /// Line base addresses currently valid in `set` (unordered).
    pub fn set_contents(&self, set: usize) -> Vec<u64> {
        let sets_shift = self.geometry.sets.trailing_zeros();
        let line_shift = self.geometry.line_shift();
        self.set(set)
            .iter()
            .filter(|l| l.valid)
            .map(|l| (l.tag << sets_shift | set as u64) << line_shift)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(replacement: Replacement) -> SetAssocCache {
        SetAssocCache::new(CacheGeometry::new(4, 2, 64), replacement)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny(Replacement::Lru);
        assert!(!c.access(0x40).hit);
        assert!(c.access(0x40).hit);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn same_line_offsets_share_a_line() {
        let mut c = tiny(Replacement::Lru);
        c.access(0x40);
        assert!(c.access(0x7f).hit, "same 64 B line");
        assert!(!c.access(0x80).hit, "next line");
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny(Replacement::Lru);
        // Set 1 lines: 0x40, 0x140, 0x240... (stride sets*line = 256).
        c.access(0x040);
        c.access(0x140);
        c.access(0x040); // refresh
        let out = c.access(0x240);
        assert_eq!(out.evicted, Some(0x140));
        assert!(c.probe(0x040));
        assert!(!c.probe(0x140));
    }

    #[test]
    fn fifo_ignores_refresh() {
        let mut c = tiny(Replacement::Fifo);
        c.access(0x040);
        c.access(0x140);
        c.access(0x040); // refresh must not matter for FIFO
        let out = c.access(0x240);
        assert_eq!(out.evicted, Some(0x040));
    }

    #[test]
    fn tree_plru_never_evicts_most_recent() {
        let mut c = SetAssocCache::new(CacheGeometry::new(1, 8, 64), Replacement::TreePlru);
        for i in 0..8u64 {
            c.access(i * 64);
        }
        // Touch line 3, then force an eviction: victim must not be line 3.
        c.access(3 * 64);
        let out = c.access(8 * 64);
        assert!(out.evicted.is_some());
        assert_ne!(out.evicted, Some(3 * 64));
        assert!(c.probe(3 * 64));
    }

    #[test]
    fn occupancy_never_exceeds_ways() {
        let mut c = tiny(Replacement::Lru);
        for i in 0..32u64 {
            c.access(i * 64);
        }
        for s in 0..4 {
            assert!(c.set_occupancy(s) <= 2);
        }
    }

    #[test]
    fn flush_line_and_all() {
        let mut c = tiny(Replacement::Lru);
        c.access(0x40);
        c.access(0x80);
        assert!(c.flush_line(0x40));
        assert!(!c.flush_line(0x40));
        assert!(c.probe(0x80));
        c.flush_all();
        assert!(!c.probe(0x80));
    }

    #[test]
    fn set_contents_round_trip() {
        let mut c = tiny(Replacement::Lru);
        c.access(0x1040);
        c.access(0x2040);
        let mut contents = c.set_contents(1);
        contents.sort_unstable();
        assert_eq!(contents, vec![0x1040, 0x2040]);
    }

    /// Full structural equality, including replacement state — the
    /// dirty-set restore must be indistinguishable from a fresh clone.
    fn assert_same(a: &SetAssocCache, b: &SetAssocCache) {
        assert!(a == b);
    }

    #[test]
    fn epoch_restore_matches_full_clone() {
        let mut live = tiny(Replacement::Lru);
        for i in 0..16u64 {
            live.access(i * 64);
        }
        live.begin_epoch();
        let snap = live.clone();
        for i in 0..8u64 {
            live.access(i * 192 + 0x40);
            live.flush_line(i * 64);
        }
        live.restore_from(&snap);
        assert_same(&live, &snap);
        // The restored cache is clean: an immediate re-restore copies
        // nothing and still matches.
        live.restore_from(&snap);
        assert_same(&live, &snap);
    }

    #[test]
    fn epoch_restore_from_foreign_snapshot_falls_back_to_full_copy() {
        let mut live = tiny(Replacement::TreePlru);
        live.access(0x40);
        let mut other = tiny(Replacement::TreePlru);
        for i in 0..12u64 {
            other.access(i * 64);
        }
        // Tokens differ (independent caches), so this must deep-copy.
        live.restore_from(&other);
        assert_same(&live, &other);
        // After adopting the token, divergence + restore is exact again.
        live.access(0x3c0);
        live.flush_all();
        live.restore_from(&other);
        assert_same(&live, &other);
    }

    #[test]
    fn flush_all_marks_every_set_dirty() {
        let mut live = tiny(Replacement::Fifo);
        for i in 0..8u64 {
            live.access(i * 64);
        }
        live.begin_epoch();
        let snap = live.clone();
        live.flush_all();
        live.restore_from(&snap);
        assert_same(&live, &snap);
    }

    #[test]
    fn reset_matches_a_new_cache() {
        let fresh = tiny(Replacement::TreePlru);
        // Touched sets only, then after an epoch opened, then after a
        // rewind: each must come back empty.
        let mut c = tiny(Replacement::TreePlru);
        for i in 0..6u64 {
            c.access(i * 64);
        }
        c.reset(fresh.geometry, fresh.replacement);
        assert_same(&c, &fresh);
        c.access(0x40);
        c.begin_epoch();
        let snap = c.clone();
        c.access(0x80);
        c.reset(fresh.geometry, fresh.replacement);
        assert_same(&c, &fresh);
        c.restore_from(&snap);
        c.reset(fresh.geometry, fresh.replacement);
        assert_same(&c, &fresh);
        // A reset cache tracks its touched sets again.
        c.access(0xc0);
        c.reset(fresh.geometry, fresh.replacement);
        assert_same(&c, &fresh);
        // Another shape or policy reallocates.
        let other = SetAssocCache::new(CacheGeometry::new(8, 4, 64), Replacement::Lru);
        c.reset(other.geometry, other.replacement);
        assert_same(&c, &other);
        assert_eq!(c.geometry(), other.geometry());
    }

    #[test]
    fn evicted_address_reconstruction() {
        let g = CacheGeometry::new(4, 1, 64);
        let mut c = SetAssocCache::new(g, Replacement::Lru);
        c.access(0xabc0);
        let out = c.access(0xabc0 + 256); // same set, different tag
        assert_eq!(out.evicted, Some(g.line_base(0xabc0)));
    }
}
