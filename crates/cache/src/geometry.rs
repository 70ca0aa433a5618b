//! Cache geometry: sets, ways, line size, and index/tag extraction.

use std::fmt;

/// The shape of a set-associative cache.
///
/// # Examples
///
/// ```
/// use phantom_cache::CacheGeometry;
/// let g = CacheGeometry::new(64, 8, 64);
/// assert_eq!(g.capacity_bytes(), 32 * 1024);
/// assert_eq!(g.set_index(0x1000), (0x1000 >> 6) & 63);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line_size: usize,
}

impl CacheGeometry {
    /// Create a geometry.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `line_size` is not a power of two, or if any
    /// dimension is zero.
    pub fn new(sets: usize, ways: usize, line_size: usize) -> CacheGeometry {
        match CacheGeometry::try_new(sets, ways, line_size) {
            Ok(g) => g,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`CacheGeometry::new`]: returns a description of the
    /// violated constraint instead of panicking. Used by the uarch spec
    /// layer, where geometry comes from user-authored text.
    pub fn try_new(sets: usize, ways: usize, line_size: usize) -> Result<CacheGeometry, String> {
        if !sets.is_power_of_two() {
            return Err(format!("sets must be a power of two (got {sets})"));
        }
        if !line_size.is_power_of_two() {
            return Err(format!(
                "line size must be a power of two (got {line_size})"
            ));
        }
        if ways == 0 {
            return Err("ways must be nonzero".to_string());
        }
        Ok(CacheGeometry {
            sets,
            ways,
            line_size,
        })
    }

    /// A 32 KiB, 8-way, 64 B-line L1 (Zen L1I/L1D shape).
    pub fn l1() -> CacheGeometry {
        CacheGeometry::new(64, 8, 64)
    }

    /// A 512 KiB, 8-way, 64 B-line L2 (Zen 2 per-core L2 shape).
    pub fn l2() -> CacheGeometry {
        CacheGeometry::new(1024, 8, 64)
    }

    /// The 64-set, 8-way µop cache of §5.1 (line granularity 64 B: set is
    /// selected by address bits \[11:6\]).
    pub fn uop_cache() -> CacheGeometry {
        CacheGeometry::new(64, 8, 64)
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.sets * self.ways * self.line_size
    }

    /// log2 of the line size.
    pub fn line_shift(&self) -> u32 {
        self.line_size.trailing_zeros()
    }

    /// The set index for an address.
    pub fn set_index(&self, addr: u64) -> usize {
        ((addr >> self.line_shift()) as usize) & (self.sets - 1)
    }

    /// The tag for an address: the line address above the index bits.
    pub fn tag(&self, addr: u64) -> u64 {
        addr >> self.line_shift() >> self.sets.trailing_zeros()
    }

    /// The line-aligned base address.
    #[cfg(test)]
    pub fn line_base(&self, addr: u64) -> u64 {
        addr & !(self.line_size as u64 - 1)
    }

    /// An address that maps to `set` with tag `tag` (inverse of
    /// [`CacheGeometry::set_index`]/[`CacheGeometry::tag`]); used to build
    /// eviction sets.
    pub fn compose(&self, tag: u64, set: usize) -> u64 {
        debug_assert!(set < self.sets);
        (tag << self.sets.trailing_zeros() | set as u64) << self.line_shift()
    }
}

impl fmt::Display for CacheGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} KiB ({} sets x {} ways x {} B lines)",
            self.capacity_bytes() / 1024,
            self.sets,
            self.ways,
            self.line_size
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_shapes() {
        assert_eq!(CacheGeometry::l1().capacity_bytes(), 32 * 1024);
        assert_eq!(CacheGeometry::l2().capacity_bytes(), 512 * 1024);
        assert_eq!(CacheGeometry::uop_cache().sets, 64);
        assert_eq!(CacheGeometry::uop_cache().ways, 8);
    }

    #[test]
    fn index_and_tag_partition_the_address() {
        let g = CacheGeometry::l1();
        let addr = 0xdead_beef_cafe;
        let rebuilt = g.compose(g.tag(addr), g.set_index(addr));
        assert_eq!(rebuilt, g.line_base(addr));
    }

    #[test]
    fn same_set_different_tag_addresses_differ_above_index() {
        let g = CacheGeometry::l1();
        // Addresses 4096 B apart share L1 set index only if sets*line == 4096.
        assert_eq!(g.set_index(0x0040), g.set_index(0x0040 + 4096));
        assert_ne!(g.tag(0x0040), g.tag(0x0040 + 4096));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_panics() {
        CacheGeometry::new(3, 8, 64);
    }

    #[test]
    fn try_new_reports_each_violation() {
        assert_eq!(CacheGeometry::try_new(64, 8, 64), Ok(CacheGeometry::l1()));
        assert!(CacheGeometry::try_new(3, 8, 64)
            .unwrap_err()
            .contains("sets"));
        assert!(CacheGeometry::try_new(64, 0, 64)
            .unwrap_err()
            .contains("ways"));
        assert!(CacheGeometry::try_new(64, 8, 48)
            .unwrap_err()
            .contains("line size"));
        assert!(CacheGeometry::try_new(0, 8, 64).is_err(), "zero sets");
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(
            CacheGeometry::l1().to_string(),
            "32 KiB (64 sets x 8 ways x 64 B lines)"
        );
    }
}
