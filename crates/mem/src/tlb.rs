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

/// An entry that no set holds: the filler of the unused ways.
const VACANT: (TlbEntry, u64) = (
    TlbEntry {
        vpn: 0,
        frame: PhysAddr::new(0),
        flags: PageFlags::NONE,
        asid: 0,
        pt_version: 0,
    },
    0,
);

/// Where [`Tlb::find`] found an entry: valid until the TLB's next
/// insertion or invalidation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbSlot(usize);

/// A set-associative, ASID-tagged TLB.
///
/// The sets are stored flat: set `s` holds its `fill[s]` entries, with
/// their LRU stamps, in `slots[s * ways..]`. A TLB is two allocations,
/// and a rewind (`clone_from`) copies each set's live entries into the
/// buffers it already has. The slots are allocated by the first
/// insertion, so a machine that never translates (or is reset before
/// it does) pays for none.
///
/// # Examples
///
/// ```
/// use phantom_mem::{PageFlags, PhysAddr, Tlb, VirtAddr};
/// let mut tlb = Tlb::new(16, 4);
/// tlb.insert(VirtAddr::new(0x1000), PhysAddr::new(0x8000), PageFlags::USER_DATA, 1, 0);
/// assert!(tlb.peek(VirtAddr::new(0x1234), 1).is_some());
/// assert!(tlb.peek(VirtAddr::new(0x1234), 2).is_none(), "other ASID");
/// ```
#[derive(Debug)]
pub struct Tlb {
    slots: Vec<(TlbEntry, u64)>,
    fill: Vec<usize>,
    ways: usize,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl Clone for Tlb {
    fn clone(&self) -> Tlb {
        Tlb {
            slots: self.slots.clone(),
            fill: self.fill.clone(),
            ways: self.ways,
            clock: self.clock,
            hits: self.hits,
            misses: self.misses,
        }
    }

    /// Copy `source` into this TLB's own buffers: a rewind allocates
    /// nothing and, for the same shape, copies only live entries.
    fn clone_from(&mut self, source: &Tlb) {
        let same_shape = self.ways == source.ways && self.fill.len() == source.fill.len();
        if same_shape && (self.slots.len() == source.slots.len() || source.slots.is_empty()) {
            let ways = self.ways;
            for (set, &n) in source.fill.iter().enumerate().filter(|&(_, &n)| n > 0) {
                let live = set * ways..set * ways + n;
                self.slots[live.clone()].copy_from_slice(&source.slots[live]);
            }
        } else {
            self.slots.clone_from(&source.slots);
            self.ways = source.ways;
        }
        self.fill.clone_from(&source.fill);
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
            slots: Vec::new(),
            fill: vec![0; sets],
            ways,
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The slot range of `vpn`'s set that holds entries.
    #[inline]
    fn live(&self, vpn: u64) -> std::ops::Range<usize> {
        let set = (vpn as usize) & (self.fill.len() - 1);
        let base = set * self.ways;
        base..base + self.fill[set]
    }

    /// Find the entry translating `va` under `asid` without perturbing
    /// any replacement or accounting state. One set search serves a
    /// whole charged translation: read the entry with
    /// [`entry`](Tlb::entry), then charge it with
    /// [`charge_hit`](Tlb::charge_hit) or refresh it with
    /// [`refresh_at`](Tlb::refresh_at).
    #[inline]
    pub fn find(&self, va: VirtAddr, asid: u16) -> Option<TlbSlot> {
        let vpn = va.page_number();
        let live = self.live(vpn);
        if live.is_empty() {
            return None;
        }
        let start = live.start;
        self.slots[live]
            .iter()
            .position(|(e, _)| e.vpn == vpn && e.asid == asid)
            .map(|i| TlbSlot(start + i))
    }

    /// The entry at `slot`.
    #[inline]
    pub fn entry(&self, slot: TlbSlot) -> &TlbEntry {
        &self.slots[slot.0].0
    }

    /// Charge a hit on the entry at `slot`: tick the clock, refresh its
    /// LRU stamp and count the hit.
    #[inline]
    pub fn charge_hit(&mut self, slot: TlbSlot) {
        self.clock += 1;
        self.slots[slot.0].1 = self.clock;
        self.hits += 1;
    }

    /// Charge a miss: tick the clock and count it.
    pub fn charge_miss(&mut self) {
        self.clock += 1;
        self.misses += 1;
    }

    /// Look up a translation for `va` under `asid`. Counts hit/miss and
    /// refreshes LRU on hit.
    #[cfg(test)]
    pub fn lookup(&mut self, va: VirtAddr, asid: u16) -> Option<TlbEntry> {
        match self.find(va, asid) {
            Some(slot) => {
                self.charge_hit(slot);
                Some(*self.entry(slot))
            }
            None => {
                self.charge_miss();
                None
            }
        }
    }

    /// Look up a translation without perturbing any replacement or
    /// accounting state: no hit/miss counters, no LRU refresh, no clock
    /// tick.
    pub fn peek(&self, va: VirtAddr, asid: u16) -> Option<&TlbEntry> {
        self.find(va, asid).map(|slot| self.entry(slot))
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
        let entry = TlbEntry {
            vpn,
            frame: frame.page_base(),
            flags,
            asid,
            pt_version,
        };
        if let Some(slot) = self.find(va, asid) {
            self.slots[slot.0] = (entry, self.clock);
            return;
        }
        if self.slots.is_empty() {
            self.slots = vec![VACANT; self.fill.len() * self.ways];
        }
        let live = self.live(vpn);
        if live.len() < self.ways {
            self.slots[live.end] = (entry, self.clock);
            self.fill[live.start / self.ways] += 1;
        } else if let Some(lru) = live.min_by_key(|&i| self.slots[i].1) {
            // The clock ticks on every lookup and insertion, so stamps
            // are unique and the order inside a set is unobservable:
            // the new entry takes the evicted one's slot.
            self.slots[lru] = (entry, self.clock);
        }
    }

    /// Revalidate the entry at `slot` in place: update its frame, flags
    /// and page-table version without touching the clock, LRU stamps or
    /// hit/miss counters. Used when a charged lookup hit a stale entry —
    /// the hit's timing already happened; only the cached translation
    /// content is brought up to date.
    pub fn refresh_at(
        &mut self,
        slot: TlbSlot,
        frame: PhysAddr,
        flags: PageFlags,
        pt_version: u64,
    ) {
        let e = &mut self.slots[slot.0].0;
        e.frame = frame.page_base();
        e.flags = flags;
        e.pt_version = pt_version;
    }

    /// Drop the entries of every set that `drop` selects, keeping the
    /// survivors' order (`Vec::retain` per set).
    fn retain(&mut self, sets: std::ops::Range<usize>, drop: impl Fn(&TlbEntry) -> bool) {
        for set in sets {
            let base = set * self.ways;
            let mut kept = base;
            for i in base..base + self.fill[set] {
                if !drop(&self.slots[i].0) {
                    self.slots[kept] = self.slots[i];
                    kept += 1;
                }
            }
            self.fill[set] = kept - base;
        }
    }

    /// Invalidate one page for one ASID (`invlpg`).
    pub fn invalidate_page(&mut self, va: VirtAddr, asid: u16) {
        let vpn = va.page_number();
        let set = self.live(vpn).start / self.ways;
        self.retain(set..set + 1, |e| e.vpn == vpn && e.asid == asid);
    }

    /// Invalidate every entry of one ASID (a non-PCID context switch).
    pub fn invalidate_asid(&mut self, asid: u16) {
        self.retain(0..self.fill.len(), |e| e.asid == asid);
    }

    /// Invalidate everything (write to CR3 without PCID).
    pub fn flush_all(&mut self) {
        self.fill.fill(0);
    }

    /// Empty the TLB and zero its clock and counters in place, as
    /// `*self = Tlb::new(sets, ways)` would for its own shape, keeping
    /// its buffers.
    pub fn reset(&mut self) {
        self.flush_all();
        self.clock = 0;
        self.hits = 0;
        self.misses = 0;
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
        self.fill.iter().sum()
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
        let slot = tlb.find(entry_va(1), 0).unwrap();
        tlb.refresh_at(slot, PhysAddr::new(0x7000), PageFlags::USER_TEXT, 5);
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
