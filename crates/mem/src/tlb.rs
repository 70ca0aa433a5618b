//! A translation lookaside buffer with address-space identifiers.
//!
//! Phantom itself does not need a TLB — its signals live in the caches —
//! but the KASLR attacks the paper positions against (TagBleed, cited in
//! §7) exploit tagged-TLB set pressure, and a realistic memory substrate
//! should charge translation latency. The machine can layer this over
//! [`PageTable::translate`](crate::PageTable::translate): hit = cheap,
//! miss = a page walk.

use crate::addr::{PhysAddr, VirtAddr};
use crate::paging::PageFlags;

/// One cached translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbEntry {
    /// Virtual page number.
    pub vpn: u64,
    /// Physical frame base.
    pub frame: PhysAddr,
    /// Cached permission bits.
    pub flags: PageFlags,
    /// Address-space identifier (PCID); kernel and user entries coexist
    /// under different ASIDs, the mechanism KPTI leans on.
    pub asid: u16,
    /// [`PageTable::version`](crate::PageTable::version) at fill time.
    /// A translation fast path may only trust this entry's frame and
    /// flags while the table still reports the same version; the model
    /// deliberately keeps stale entries resident (their *timing* is
    /// architecturally real), so staleness is detected at use, not
    /// flushed at mutation.
    pub pt_version: u64,
}

/// A set-associative, ASID-tagged TLB.
///
/// # Examples
///
/// ```
/// use phantom_mem::{PageFlags, PhysAddr, Tlb, VirtAddr};
/// let mut tlb = Tlb::new(16, 4);
/// tlb.insert(VirtAddr::new(0x1000), PhysAddr::new(0x8000), PageFlags::USER_DATA, 1, 0);
/// assert!(tlb.lookup(VirtAddr::new(0x1234), 1).is_some());
/// assert!(tlb.lookup(VirtAddr::new(0x1234), 2).is_none(), "other ASID");
/// ```
#[derive(Debug)]
pub struct Tlb {
    sets: Vec<Vec<(TlbEntry, u64)>>,
    ways: usize,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl Clone for Tlb {
    fn clone(&self) -> Tlb {
        Tlb {
            sets: self.sets.clone(),
            ways: self.ways,
            clock: self.clock,
            hits: self.hits,
            misses: self.misses,
        }
    }

    /// Copy `source` into this TLB's own buffers: a rewind reallocates
    /// neither the set vector nor any set that already has room.
    fn clone_from(&mut self, source: &Tlb) {
        self.sets.clone_from(&source.sets);
        self.ways = source.ways;
        self.clock = source.clock;
        self.hits = source.hits;
        self.misses = source.misses;
    }
}

impl Tlb {
    /// Create a TLB with `sets` sets (power of two) of `ways` entries.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> Tlb {
        assert!(sets.is_power_of_two(), "sets must be a power of two");
        assert!(ways > 0, "ways must be nonzero");
        Tlb {
            sets: vec![Vec::new(); sets],
            ways,
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn set_of(&self, vpn: u64) -> usize {
        (vpn as usize) & (self.sets.len() - 1)
    }

    /// Look up a translation for `va` under `asid`. Counts hit/miss and
    /// refreshes LRU on hit.
    pub fn lookup(&mut self, va: VirtAddr, asid: u16) -> Option<TlbEntry> {
        self.clock += 1;
        let vpn = va.page_number();
        let clock = self.clock;
        let set = self.set_of(vpn);
        if let Some((entry, stamp)) = self.sets[set]
            .iter_mut()
            .find(|(e, _)| e.vpn == vpn && e.asid == asid)
        {
            *stamp = clock;
            self.hits += 1;
            return Some(*entry);
        }
        self.misses += 1;
        None
    }

    /// Look up a translation without perturbing any replacement or
    /// accounting state: no hit/miss counters, no LRU refresh, no clock
    /// tick. This is the probe the translation fast path uses *before*
    /// deciding whether the charged, counting [`lookup`](Tlb::lookup)
    /// would have run — so peeking is observationally free.
    pub fn peek(&self, va: VirtAddr, asid: u16) -> Option<&TlbEntry> {
        let vpn = va.page_number();
        let set = self.set_of(vpn);
        self.sets[set]
            .iter()
            .find(|(e, _)| e.vpn == vpn && e.asid == asid)
            .map(|(e, _)| e)
    }

    /// Insert a translation (evicting LRU within the set if full),
    /// recording the page-table version it was derived from.
    pub fn insert(
        &mut self,
        va: VirtAddr,
        frame: PhysAddr,
        flags: PageFlags,
        asid: u16,
        pt_version: u64,
    ) {
        self.clock += 1;
        let vpn = va.page_number();
        let set = self.set_of(vpn);
        let ways = self.ways;
        let clock = self.clock;
        let entries = &mut self.sets[set];
        if let Some((e, stamp)) = entries
            .iter_mut()
            .find(|(e, _)| e.vpn == vpn && e.asid == asid)
        {
            *e = TlbEntry {
                vpn,
                frame: frame.page_base(),
                flags,
                asid,
                pt_version,
            };
            *stamp = clock;
            return;
        }
        if entries.len() >= ways {
            if let Some(pos) = entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(i, _)| i)
            {
                entries.remove(pos);
            }
        }
        entries.push((
            TlbEntry {
                vpn,
                frame: frame.page_base(),
                flags,
                asid,
                pt_version,
            },
            clock,
        ));
    }

    /// Revalidate a resident entry in place: update its frame, flags and
    /// page-table version without touching the clock, LRU stamps or
    /// hit/miss counters. Used when a charged lookup hit a stale entry —
    /// the hit's timing already happened; only the cached translation
    /// content is brought up to date. No-op if the entry is absent.
    pub fn refresh(
        &mut self,
        va: VirtAddr,
        asid: u16,
        frame: PhysAddr,
        flags: PageFlags,
        pt_version: u64,
    ) {
        let vpn = va.page_number();
        let set = self.set_of(vpn);
        if let Some((e, _)) = self.sets[set]
            .iter_mut()
            .find(|(e, _)| e.vpn == vpn && e.asid == asid)
        {
            e.frame = frame.page_base();
            e.flags = flags;
            e.pt_version = pt_version;
        }
    }

    /// Invalidate one page for one ASID (`invlpg`).
    pub fn invalidate_page(&mut self, va: VirtAddr, asid: u16) {
        let vpn = va.page_number();
        let set = self.set_of(vpn);
        self.sets[set].retain(|(e, _)| !(e.vpn == vpn && e.asid == asid));
    }

    /// Invalidate every entry of one ASID (a non-PCID context switch).
    pub fn invalidate_asid(&mut self, asid: u16) {
        for set in &mut self.sets {
            set.retain(|(e, _)| e.asid != asid);
        }
    }

    /// Invalidate everything (write to CR3 without PCID).
    pub fn flush_all(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }

    /// Lifetime hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Whether the TLB holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry_va(n: u64) -> VirtAddr {
        VirtAddr::new(n << 12)
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let mut tlb = Tlb::new(8, 2);
        assert!(tlb.lookup(entry_va(5), 0).is_none());
        tlb.insert(
            entry_va(5),
            PhysAddr::new(0x9000),
            PageFlags::USER_DATA,
            0,
            0,
        );
        let e = tlb.lookup(entry_va(5), 0).unwrap();
        assert_eq!(e.frame, PhysAddr::new(0x9000));
        assert_eq!(tlb.hits(), 1);
        assert_eq!(tlb.misses(), 1);
    }

    #[test]
    fn asid_isolation() {
        let mut tlb = Tlb::new(8, 2);
        tlb.insert(
            entry_va(5),
            PhysAddr::new(0x9000),
            PageFlags::KERNEL_DATA,
            7,
            0,
        );
        assert!(tlb.lookup(entry_va(5), 0).is_none());
        assert!(tlb.lookup(entry_va(5), 7).is_some());
        // KPTI-style: flushing the user ASID leaves kernel entries alone.
        tlb.invalidate_asid(0);
        assert!(tlb.lookup(entry_va(5), 7).is_some());
        tlb.invalidate_asid(7);
        assert!(tlb.lookup(entry_va(5), 7).is_none());
    }

    #[test]
    fn lru_within_a_set() {
        let mut tlb = Tlb::new(1, 2);
        tlb.insert(
            entry_va(1),
            PhysAddr::new(0x1000),
            PageFlags::USER_DATA,
            0,
            0,
        );
        tlb.insert(
            entry_va(2),
            PhysAddr::new(0x2000),
            PageFlags::USER_DATA,
            0,
            0,
        );
        tlb.lookup(entry_va(1), 0); // refresh 1
        tlb.insert(
            entry_va(3),
            PhysAddr::new(0x3000),
            PageFlags::USER_DATA,
            0,
            0,
        );
        assert!(tlb.lookup(entry_va(1), 0).is_some());
        assert!(tlb.lookup(entry_va(2), 0).is_none(), "LRU evicted");
    }

    #[test]
    fn same_vpn_reinsert_updates() {
        let mut tlb = Tlb::new(4, 2);
        tlb.insert(
            entry_va(9),
            PhysAddr::new(0x1000),
            PageFlags::USER_DATA,
            0,
            0,
        );
        tlb.insert(
            entry_va(9),
            PhysAddr::new(0x5000),
            PageFlags::USER_TEXT,
            0,
            0,
        );
        let e = tlb.lookup(entry_va(9), 0).unwrap();
        assert_eq!(e.frame, PhysAddr::new(0x5000));
        assert!(e.flags.contains(PageFlags::EXEC));
        assert_eq!(tlb.len(), 1);
    }

    #[test]
    fn invalidate_page_is_precise() {
        let mut tlb = Tlb::new(4, 2);
        tlb.insert(
            entry_va(1),
            PhysAddr::new(0x1000),
            PageFlags::USER_DATA,
            0,
            0,
        );
        tlb.insert(
            entry_va(2),
            PhysAddr::new(0x2000),
            PageFlags::USER_DATA,
            0,
            0,
        );
        tlb.invalidate_page(entry_va(1), 0);
        assert!(tlb.lookup(entry_va(1), 0).is_none());
        assert!(tlb.lookup(entry_va(2), 0).is_some());
    }

    #[test]
    fn flush_all_empties() {
        let mut tlb = Tlb::new(4, 2);
        for i in 0..8 {
            tlb.insert(
                entry_va(i),
                PhysAddr::new(i << 12),
                PageFlags::USER_DATA,
                0,
                0,
            );
        }
        assert!(!tlb.is_empty());
        tlb.flush_all();
        assert!(tlb.is_empty());
    }

    #[test]
    fn peek_is_observationally_free() {
        let mut tlb = Tlb::new(1, 2);
        tlb.insert(
            entry_va(1),
            PhysAddr::new(0x1000),
            PageFlags::USER_DATA,
            0,
            3,
        );
        tlb.insert(
            entry_va(2),
            PhysAddr::new(0x2000),
            PageFlags::USER_DATA,
            0,
            3,
        );
        assert_eq!(tlb.peek(entry_va(1), 0).unwrap().pt_version, 3);
        assert!(tlb.peek(entry_va(1), 9).is_none(), "other ASID");
        assert_eq!((tlb.hits(), tlb.misses()), (0, 0), "no counter movement");
        // Peeking entry 1 did not refresh its LRU stamp: inserting a
        // third entry into the full set still evicts entry 1.
        tlb.insert(
            entry_va(3),
            PhysAddr::new(0x3000),
            PageFlags::USER_DATA,
            0,
            3,
        );
        assert!(
            tlb.peek(entry_va(1), 0).is_none(),
            "peek never refreshes LRU"
        );
        assert!(tlb.peek(entry_va(2), 0).is_some());
    }

    #[test]
    fn refresh_updates_content_without_accounting() {
        let mut tlb = Tlb::new(1, 2);
        tlb.insert(
            entry_va(1),
            PhysAddr::new(0x1000),
            PageFlags::USER_DATA,
            0,
            1,
        );
        tlb.insert(
            entry_va(2),
            PhysAddr::new(0x2000),
            PageFlags::USER_DATA,
            0,
            1,
        );
        tlb.refresh(
            entry_va(1),
            0,
            PhysAddr::new(0x7000),
            PageFlags::USER_TEXT,
            5,
        );
        let e = *tlb.peek(entry_va(1), 0).unwrap();
        assert_eq!(e.frame, PhysAddr::new(0x7000));
        assert_eq!(e.pt_version, 5);
        assert_eq!((tlb.hits(), tlb.misses()), (0, 0));
        // Refresh left LRU order alone: entry 1 is still the oldest.
        tlb.insert(
            entry_va(3),
            PhysAddr::new(0x3000),
            PageFlags::USER_DATA,
            0,
            5,
        );
        assert!(
            tlb.peek(entry_va(1), 0).is_none(),
            "refresh never touches LRU"
        );
    }

    #[test]
    fn occupancy_bounded_by_geometry() {
        let mut tlb = Tlb::new(2, 3);
        for i in 0..32 {
            tlb.insert(
                entry_va(i),
                PhysAddr::new(i << 12),
                PageFlags::USER_DATA,
                0,
                0,
            );
        }
        assert!(tlb.len() <= 2 * 3);
    }
}
