//! A three-level cache hierarchy: split L1I/L1D over an inclusive L2.
//!
//! The exploits probe different levels: the kernel-image KASLR break uses
//! L1I Prime+Probe, the physmap break uses **L2** Prime+Probe (with 2 MiB
//! huge pages for physical contiguity), and Flush+Reload hits in shared
//! memory. Inclusivity matters: priming L2 back-invalidates L1 lines, so
//! a victim refetch is visible at L2 probe time.

use crate::geometry::CacheGeometry;
use crate::setassoc::{Replacement, SetAssocCache};

/// Which cache level an access ultimately hit in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// Hit in the L1 (I or D).
    L1,
    /// Missed L1, hit L2.
    L2,
    /// Missed the whole hierarchy (memory access).
    Memory,
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Level::L1 => f.write_str("L1"),
            Level::L2 => f.write_str("L2"),
            Level::Memory => f.write_str("memory"),
        }
    }
}

/// Latencies and shapes for a [`CacheHierarchy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1I shape.
    pub l1i: CacheGeometry,
    /// L1D shape.
    pub l1d: CacheGeometry,
    /// Unified, inclusive L2 shape.
    pub l2: CacheGeometry,
    /// L1 hit latency in cycles.
    pub l1_latency: u64,
    /// L2 hit latency in cycles.
    pub l2_latency: u64,
    /// Memory latency in cycles.
    pub memory_latency: u64,
    /// Replacement policy for all levels.
    pub replacement: Replacement,
}

impl Default for HierarchyConfig {
    fn default() -> HierarchyConfig {
        HierarchyConfig {
            l1i: CacheGeometry::l1(),
            l1d: CacheGeometry::l1(),
            l2: CacheGeometry::l2(),
            l1_latency: 4,
            l2_latency: 14,
            memory_latency: 200,
            replacement: Replacement::Lru,
        }
    }
}

/// Split L1I/L1D over an inclusive unified L2, with latency accounting.
///
/// Addresses are physical: the experiments translate first, and an access
/// that faults never reaches the hierarchy (that *is* primitive P1/P2's
/// signal).
///
/// # Examples
///
/// ```
/// use phantom_cache::{CacheHierarchy, HierarchyConfig, Level};
/// let mut h = CacheHierarchy::new(HierarchyConfig::default());
/// let (level, cycles) = h.access_data(0x4000);
/// assert_eq!(level, Level::Memory);
/// let (level, cycles2) = h.access_data(0x4000);
/// assert_eq!(level, Level::L1);
/// assert!(cycles2 < cycles);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CacheHierarchy {
    config: HierarchyConfig,
    l1i: SetAssocCache,
    l1d: SetAssocCache,
    l2: SetAssocCache,
}

impl CacheHierarchy {
    /// Create an empty hierarchy.
    pub fn new(config: HierarchyConfig) -> CacheHierarchy {
        CacheHierarchy {
            config,
            l1i: SetAssocCache::new(config.l1i, config.replacement),
            l1d: SetAssocCache::new(config.l1d, config.replacement),
            l2: SetAssocCache::new(config.l2, config.replacement),
        }
    }

    /// Empty the hierarchy in place for `config`, as
    /// `*self = CacheHierarchy::new(config)` would; see
    /// [`SetAssocCache::reset`].
    pub fn reset(&mut self, config: HierarchyConfig) {
        self.config = config;
        self.l1i.reset(config.l1i, config.replacement);
        self.l1d.reset(config.l1d, config.replacement);
        self.l2.reset(config.l2, config.replacement);
    }

    /// The configuration this hierarchy was built with.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    fn access(&mut self, addr: u64, instruction: bool) -> (Level, u64) {
        let cfg = self.config;
        let l1 = if instruction {
            &mut self.l1i
        } else {
            &mut self.l1d
        };
        if l1.access(addr).hit {
            return (Level::L1, cfg.l1_latency);
        }
        let out2 = self.l2.access(addr);
        // Inclusive L2: an eviction from L2 back-invalidates both L1s.
        if let Some(victim) = out2.evicted {
            self.l1i.flush_line(victim);
            self.l1d.flush_line(victim);
        }
        if out2.hit {
            (Level::L2, cfg.l1_latency + cfg.l2_latency)
        } else {
            (
                Level::Memory,
                cfg.l1_latency + cfg.l2_latency + cfg.memory_latency,
            )
        }
    }

    /// Data access (load/store path). Returns the level hit and the
    /// latency in cycles.
    pub fn access_data(&mut self, addr: u64) -> (Level, u64) {
        self.access(addr, false)
    }

    /// Instruction fetch. Returns the level hit and the latency in cycles.
    pub fn access_inst(&mut self, addr: u64) -> (Level, u64) {
        self.access(addr, true)
    }

    /// `clflush` semantics: remove the line from every level.
    pub fn flush_line(&mut self, addr: u64) {
        self.l1i.flush_line(addr);
        self.l1d.flush_line(addr);
        self.l2.flush_line(addr);
    }

    /// Flush the entire hierarchy (e.g. across reboots in experiments).
    pub fn flush_all(&mut self) {
        self.l1i.flush_all();
        self.l1d.flush_all();
        self.l2.flush_all();
    }

    /// Open a new restore epoch on all three levels; see
    /// [`SetAssocCache::begin_epoch`].
    pub fn begin_epoch(&mut self) {
        self.l1i.begin_epoch();
        self.l1d.begin_epoch();
        self.l2.begin_epoch();
    }

    /// Share every set written so far on all three levels; see
    /// [`SetAssocCache::seal`].
    pub fn seal(&mut self) {
        self.l1i.seal();
        self.l1d.seal();
        self.l2.seal();
    }

    /// Set chunks the three levels own rather than share; see
    /// [`SetAssocCache::owned_chunks`].
    pub fn owned_chunks(&self) -> usize {
        self.l1i.owned_chunks() + self.l1d.owned_chunks() + self.l2.owned_chunks()
    }

    /// Rewind all three levels to `snap`; see
    /// [`SetAssocCache::restore_from`].
    pub fn restore_from(&mut self, snap: &CacheHierarchy) {
        self.config = snap.config;
        self.l1i.restore_from(&snap.l1i);
        self.l1d.restore_from(&snap.l1d);
        self.l2.restore_from(&snap.l2);
    }

    /// The L1I cache, for set-granular inspection by Prime+Probe.
    pub fn l1i(&self) -> &SetAssocCache {
        &self.l1i
    }

    /// The L1D cache.
    pub fn l1d(&self) -> &SetAssocCache {
        &self.l1d
    }

    /// The L2 cache.
    pub fn l2(&self) -> &SetAssocCache {
        &self.l2
    }
}

impl Default for CacheHierarchy {
    fn default() -> CacheHierarchy {
        CacheHierarchy::new(HierarchyConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_fills_all_levels() {
        let mut h = CacheHierarchy::default();
        let (lvl, lat) = h.access_data(0x1000);
        assert_eq!(lvl, Level::Memory);
        assert_eq!(lat, 4 + 14 + 200);
        assert!(h.l1d().probe(0x1000));
        assert!(h.l2().probe(0x1000));
        assert!(!h.l1i().probe(0x1000), "data access does not fill L1I");
    }

    #[test]
    fn l2_hit_after_l1_flush() {
        let mut h = CacheHierarchy::default();
        h.access_data(0x1000);
        h.l1d.flush_line(0x1000);
        let (lvl, lat) = h.access_data(0x1000);
        assert_eq!(lvl, Level::L2);
        assert_eq!(lat, 4 + 14);
    }

    #[test]
    fn inst_and_data_paths_are_split() {
        let mut h = CacheHierarchy::default();
        h.access_inst(0x2000);
        assert!(h.l1i().probe(0x2000));
        assert!(!h.l1d().probe(0x2000));
        // Both share L2: a data access to the same line now hits L2.
        let (lvl, _) = h.access_data(0x2000);
        assert_eq!(lvl, Level::L2);
    }

    #[test]
    fn inclusive_eviction_back_invalidates_l1() {
        let mut h = CacheHierarchy::default();
        let g2 = h.config.l2;
        let target = 0x4000u64;
        h.access_data(target);
        assert!(h.l1d().probe(target));
        // Evict the target's L2 set by touching `ways` conflicting lines.
        let set = g2.set_index(target);
        for i in 1..=g2.ways as u64 {
            let conflict = g2.compose(g2.tag(target) + i, set);
            h.access_data(conflict);
        }
        assert!(!h.l2().probe(target), "L2 line evicted");
        assert!(!h.l1d().probe(target), "inclusivity back-invalidates L1D");
    }

    #[test]
    fn flush_line_clears_everywhere() {
        let mut h = CacheHierarchy::default();
        h.access_inst(0x3000);
        h.access_data(0x3000);
        h.flush_line(0x3000);
        assert!(!h.l1i().probe(0x3000));
        assert!(!h.l1d().probe(0x3000));
        assert!(!h.l2().probe(0x3000));
    }

    #[test]
    fn latencies_are_monotone_in_depth() {
        let cfg = HierarchyConfig::default();
        let mut h = CacheHierarchy::new(cfg);
        let (_, mem) = h.access_data(0x9000);
        h.l1d.flush_line(0x9000);
        let (_, l2) = h.access_data(0x9000);
        let (_, l1) = h.access_data(0x9000);
        assert!(l1 < l2 && l2 < mem);
    }
}
