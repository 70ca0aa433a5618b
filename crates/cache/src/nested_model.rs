//! Test-only reference model: the set-associative cache as one heap
//! `Vec<Line>` per set. [`crate::SetAssocCache`] stores every set in
//! one flat array instead; `proptests.rs` checks the two agree on every
//! observable (outcomes, probes, set contents, counters) across clones
//! and epoch restores. The implementation below is kept as it was when
//! the flat layout replaced it, apart from the fast-path rule of
//! `restore_from`, which also demands that the snapshot logged nothing.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::geometry::CacheGeometry;
use crate::setassoc::{AccessOutcome, Replacement};

/// Epoch tokens for the model (independent of the production cache's).
static EPOCH_TOKENS: AtomicU64 = AtomicU64::new(1);

fn next_epoch_token() -> u64 {
    EPOCH_TOKENS.fetch_add(1, Ordering::Relaxed)
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    valid: bool,
    /// LRU timestamp (Lru), insertion order (Fifo).
    stamp: u64,
}

#[derive(Debug, Clone)]
struct Set {
    lines: Vec<Line>,
    /// Tree-PLRU state bits (ways-1 internal nodes).
    plru: u64,
}

/// The set-associative cache in its nested layout: one heap
/// `Vec<Line>` per set.
#[derive(Debug, Clone)]
pub struct NestedSetAssocCache {
    geometry: CacheGeometry,
    replacement: Replacement,
    sets: Vec<Set>,
    clock: u64,
    hits: u64,
    misses: u64,
    /// Epoch token shared with the snapshot this cache was cloned from
    /// (if any). Equal tokens guarantee every set *not* flagged dirty
    /// still holds the snapshot's exact contents, which is what lets
    /// [`restore_from`](NestedSetAssocCache::restore_from) copy only the
    /// dirty sets.
    epoch_token: u64,
    /// Per-set "mutated since the current epoch opened" flags.
    dirty: Vec<bool>,
    /// Indices flagged in `dirty`, in first-mutation order.
    dirty_sets: Vec<u32>,
}

impl NestedSetAssocCache {
    /// Create an empty cache.
    pub fn new(geometry: CacheGeometry, replacement: Replacement) -> NestedSetAssocCache {
        let sets = (0..geometry.sets)
            .map(|_| Set {
                lines: (0..geometry.ways)
                    .map(|_| Line {
                        tag: 0,
                        valid: false,
                        stamp: 0,
                    })
                    .collect(),
                plru: 0,
            })
            .collect();
        NestedSetAssocCache {
            geometry,
            replacement,
            sets,
            clock: 0,
            hits: 0,
            misses: 0,
            epoch_token: next_epoch_token(),
            dirty: vec![false; geometry.sets],
            dirty_sets: Vec::new(),
        }
    }

    #[inline]
    fn mark_dirty(&mut self, set_idx: usize) {
        if !self.dirty[set_idx] {
            self.dirty[set_idx] = true;
            self.dirty_sets.push(set_idx as u32);
        }
    }

    /// Open a new restore epoch: draw a fresh token and forget the
    /// dirty-set log. Call on the *live* cache immediately before
    /// cloning it into a snapshot — the clone then shares the token,
    /// both sides start clean, and every later mutation of the live
    /// cache lands in its dirty log, which is exactly the set of sets
    /// [`restore_from`](NestedSetAssocCache::restore_from) must copy back.
    pub fn begin_epoch(&mut self) {
        self.epoch_token = next_epoch_token();
        for &i in &self.dirty_sets {
            self.dirty[i as usize] = false;
        }
        self.dirty_sets.clear();
    }

    /// Rewind to `snap`. When `snap` shares this cache's epoch token
    /// and has itself mutated nothing since (the
    /// [`begin_epoch`](NestedSetAssocCache::begin_epoch)-then-clone
    /// protocol), only the sets touched since that epoch opened are
    /// copied — O(dirty) instead of O(cache). Any other snapshot falls
    /// back to a full copy and adopts its token and log, so a later
    /// rewind to the same snapshot is fast again. Either way the result
    /// is bit-identical to `*self = snap.clone()`.
    pub fn restore_from(&mut self, snap: &NestedSetAssocCache) {
        self.clock = snap.clock;
        self.hits = snap.hits;
        self.misses = snap.misses;
        if self.epoch_token == snap.epoch_token && snap.dirty_sets.is_empty() {
            for &i in &self.dirty_sets {
                let i = i as usize;
                self.sets[i].lines.copy_from_slice(&snap.sets[i].lines);
                self.sets[i].plru = snap.sets[i].plru;
                self.dirty[i] = false;
            }
            self.dirty_sets.clear();
        } else {
            self.geometry = snap.geometry;
            self.replacement = snap.replacement;
            self.sets.clone_from(&snap.sets);
            self.epoch_token = snap.epoch_token;
            self.dirty.clone_from(&snap.dirty);
            self.dirty_sets.clone_from(&snap.dirty_sets);
        }
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
        self.mark_dirty(set_idx);
        let tag = self.geometry.tag(addr);
        let ways = self.geometry.ways;
        let line_shift = self.geometry.line_shift();
        let sets_shift = self.geometry.sets.trailing_zeros();
        let set = &mut self.sets[set_idx];

        if let Some(way) = set.lines.iter().position(|l| l.valid && l.tag == tag) {
            self.hits += 1;
            match self.replacement {
                Replacement::Lru => set.lines[way].stamp = self.clock,
                Replacement::TreePlru => Self::plru_touch(&mut set.plru, ways, way),
                Replacement::Fifo => {}
            }
            return AccessOutcome {
                hit: true,
                evicted: None,
            };
        }

        self.misses += 1;
        // Pick a victim: an invalid way first, else per policy.
        let way =
            set.lines
                .iter()
                .position(|l| !l.valid)
                .unwrap_or_else(|| match self.replacement {
                    Replacement::Lru | Replacement::Fifo => set
                        .lines
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, l)| l.stamp)
                        .map(|(i, _)| i)
                        .unwrap_or(0),
                    Replacement::TreePlru => Self::plru_choose(set.plru, ways),
                });
        let evicted = if set.lines[way].valid {
            Some((set.lines[way].tag << sets_shift | set_idx as u64) << line_shift)
        } else {
            None
        };
        set.lines[way] = Line {
            tag,
            valid: true,
            stamp: self.clock,
        };
        if self.replacement == Replacement::TreePlru {
            Self::plru_touch(&mut set.plru, ways, way);
        }
        AccessOutcome {
            hit: false,
            evicted,
        }
    }

    /// Non-destructive presence check (does not update replacement state).
    pub fn probe(&self, addr: u64) -> bool {
        let set = &self.sets[self.geometry.set_index(addr)];
        let tag = self.geometry.tag(addr);
        set.lines.iter().any(|l| l.valid && l.tag == tag)
    }

    /// Invalidate the line containing `addr`. Returns whether it was
    /// present.
    pub fn flush_line(&mut self, addr: u64) -> bool {
        let set_idx = self.geometry.set_index(addr);
        let tag = self.geometry.tag(addr);
        let set = &mut self.sets[set_idx];
        if let Some(way) = set.lines.iter().position(|l| l.valid && l.tag == tag) {
            set.lines[way].valid = false;
            self.mark_dirty(set_idx);
            true
        } else {
            false
        }
    }

    /// Invalidate every line.
    pub fn flush_all(&mut self) {
        for set in &mut self.sets {
            for line in &mut set.lines {
                line.valid = false;
            }
        }
        for i in 0..self.sets.len() {
            self.mark_dirty(i);
        }
    }

    /// Number of valid lines in `set`.
    pub fn set_occupancy(&self, set: usize) -> usize {
        self.sets[set].lines.iter().filter(|l| l.valid).count()
    }

    /// Line base addresses currently valid in `set` (unordered).
    pub fn set_contents(&self, set: usize) -> Vec<u64> {
        let sets_shift = self.geometry.sets.trailing_zeros();
        let line_shift = self.geometry.line_shift();
        self.sets[set]
            .lines
            .iter()
            .filter(|l| l.valid)
            .map(|l| (l.tag << sets_shift | set as u64) << line_shift)
            .collect()
    }
}
