//! Page tables: mapping, permission checks, translation.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::{BitOr, BitOrAssign};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Source of page-table version stamps. Process-global so a version
/// value is never reused: after a snapshot restore rolls a table (and
/// its version) back, later mutations draw *fresh* stamps instead of
/// re-walking the numbers the discarded timeline already used. Caches
/// keyed by `(table, version)` — the TLB fast path — therefore can't
/// mistake post-restore state for pre-restore state.
static PT_VERSIONS: AtomicU64 = AtomicU64::new(1);

fn next_pt_version() -> u64 {
    PT_VERSIONS.fetch_add(1, Ordering::Relaxed)
}

use crate::addr::{PhysAddr, VirtAddr, HUGE_PAGE_SHIFT, HUGE_PAGE_SIZE, PAGE_SHIFT};
use crate::fault::{AccessKind, FaultReason, PageFault};

/// Page permission / attribute flags.
///
/// Modeled on the x86-64 PTE bits that matter to Phantom: present,
/// writable, user-accessible, executable (inverted NX) and huge.
///
/// # Examples
///
/// ```
/// use phantom_mem::PageFlags;
/// let f = PageFlags::PRESENT | PageFlags::EXEC;
/// assert!(f.contains(PageFlags::EXEC));
/// assert!(!f.contains(PageFlags::WRITE));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PageFlags(u8);

impl PageFlags {
    /// No flags: a non-present mapping.
    pub const NONE: PageFlags = PageFlags(0);
    /// Present bit.
    pub const PRESENT: PageFlags = PageFlags(1);
    /// Writable.
    pub const WRITE: PageFlags = PageFlags(2);
    /// Executable (the inverse of NX).
    pub const EXEC: PageFlags = PageFlags(4);
    /// User-mode accessible.
    pub const USER: PageFlags = PageFlags(8);
    /// 2 MiB huge page.
    pub const HUGE: PageFlags = PageFlags(16);

    /// Kernel text: present + executable, supervisor only.
    pub const KERNEL_TEXT: PageFlags = PageFlags(1 | 4);
    /// Kernel data: present + writable, supervisor only (NX — like
    /// physmap, which P2 exists to detect).
    pub const KERNEL_DATA: PageFlags = PageFlags(1 | 2);
    /// User text: present + executable + user.
    pub const USER_TEXT: PageFlags = PageFlags(1 | 4 | 8);
    /// User data: present + writable + user.
    pub const USER_DATA: PageFlags = PageFlags(1 | 2 | 8);

    /// Whether all bits of `other` are set in `self`.
    pub const fn contains(self, other: PageFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// The raw bit pattern.
    pub const fn bits(self) -> u8 {
        self.0
    }
}

impl BitOr for PageFlags {
    type Output = PageFlags;
    fn bitor(self, rhs: PageFlags) -> PageFlags {
        PageFlags(self.0 | rhs.0)
    }
}

impl BitOrAssign for PageFlags {
    fn bitor_assign(&mut self, rhs: PageFlags) {
        self.0 |= rhs.0;
    }
}

impl fmt::Display for PageFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}{}{}",
            if self.contains(PageFlags::PRESENT) {
                'p'
            } else {
                '-'
            },
            if self.contains(PageFlags::WRITE) {
                'w'
            } else {
                '-'
            },
            if self.contains(PageFlags::EXEC) {
                'x'
            } else {
                '-'
            },
            if self.contains(PageFlags::USER) {
                'u'
            } else {
                '-'
            },
            if self.contains(PageFlags::HUGE) {
                'H'
            } else {
                '-'
            },
        )
    }
}

/// CPU privilege mode for permission checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PrivilegeLevel {
    /// Ring 3.
    User,
    /// Ring 0.
    Supervisor,
}

impl fmt::Display for PrivilegeLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrivilegeLevel::User => f.write_str("user"),
            PrivilegeLevel::Supervisor => f.write_str("supervisor"),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Mapping {
    frame: PhysAddr,
    flags: PageFlags,
}

/// A flat page table: virtual page → (physical frame, flags).
///
/// Supports 4 KiB pages and 2 MiB huge pages. Translation checks the
/// present, write, exec and user bits against the access kind and
/// privilege level, mirroring the x86-64 rules Phantom's primitives rely
/// on.
///
/// # Examples
///
/// ```
/// use phantom_mem::{AccessKind, FaultReason, PageFlags, PageTable, PhysAddr, PrivilegeLevel, VirtAddr};
/// let mut pt = PageTable::new();
/// pt.map_4k(VirtAddr::new(0x1000), PhysAddr::new(0x8000), PageFlags::KERNEL_TEXT);
/// // User execute of supervisor page faults with a privilege violation.
/// let err = pt
///     .translate(VirtAddr::new(0x1000), AccessKind::Execute, PrivilegeLevel::User)
///     .unwrap_err();
/// assert_eq!(err.reason, FaultReason::Privilege);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PageTable {
    /// 4 KiB mappings keyed by page number, one map per address-space
    /// half (index 0: user, bit 63 clear; index 1: kernel). A user
    /// mapping after a clone then unshares only the user map, never
    /// the kernel image's.
    small: [Arc<BTreeMap<u64, Mapping>>; 2],
    huge: Arc<BTreeMap<u64, Mapping>>,
    /// Restamped from [`PT_VERSIONS`] on every mutation; lets cached
    /// translations (the TLB fast path) prove their entry still
    /// reflects the table. The maps are `Arc`-backed so cloning a table
    /// (snapshots, per-shard setup) is three pointer bumps; the first
    /// mutation of a map after a clone unshares it.
    version: u64,
}

impl PageTable {
    /// An empty page table.
    pub fn new() -> PageTable {
        PageTable::default()
    }

    /// Map one 4 KiB page. Replaces any existing 4 KiB mapping and
    /// returns it.
    pub fn map_4k(
        &mut self,
        va: VirtAddr,
        frame: PhysAddr,
        flags: PageFlags,
    ) -> Option<(PhysAddr, PageFlags)> {
        debug_assert!(va.is_aligned(1 << PAGE_SHIFT), "unaligned 4k mapping {va}");
        self.bump_version();
        self.small_mut(va.page_number())
            .insert(
                va.page_number(),
                Mapping {
                    frame: frame.page_base(),
                    flags,
                },
            )
            .map(|m| (m.frame, m.flags))
    }

    /// Map one 2 MiB huge page. Replaces any existing huge mapping and
    /// returns it.
    pub fn map_2m(
        &mut self,
        va: VirtAddr,
        frame: PhysAddr,
        flags: PageFlags,
    ) -> Option<(PhysAddr, PageFlags)> {
        debug_assert!(va.is_aligned(HUGE_PAGE_SIZE), "unaligned 2M mapping {va}");
        self.bump_version();
        Arc::make_mut(&mut self.huge)
            .insert(
                va.raw() >> HUGE_PAGE_SHIFT,
                Mapping {
                    frame: frame.huge_page_base(),
                    flags: flags | PageFlags::HUGE,
                },
            )
            .map(|m| (m.frame, m.flags))
    }

    /// Remove the 4 KiB mapping covering `va`, if any.
    pub fn unmap_4k(&mut self, va: VirtAddr) -> Option<(PhysAddr, PageFlags)> {
        let page = va.page_number();
        if !self.small(page).contains_key(&page) {
            return None;
        }
        self.bump_version();
        self.small_mut(page)
            .remove(&page)
            .map(|m| (m.frame, m.flags))
    }

    /// Change the flags of the mapping covering `va` (4 KiB first, then
    /// huge), returning the old flags. The paper's reverse-engineering
    /// setup does exactly this: "changing the PTE attributes of address K,
    /// we make it accessible to user space".
    pub fn set_flags(&mut self, va: VirtAddr, flags: PageFlags) -> Option<PageFlags> {
        let page = va.page_number();
        if self.small(page).contains_key(&page) {
            self.bump_version();
            let m = self.small_mut(page).get_mut(&page).expect("checked above");
            let old = m.flags;
            m.flags = flags;
            return Some(old);
        }
        if self.huge.contains_key(&(va.raw() >> HUGE_PAGE_SHIFT)) {
            self.bump_version();
            let m = Arc::make_mut(&mut self.huge)
                .get_mut(&(va.raw() >> HUGE_PAGE_SHIFT))
                .expect("checked above");
            let old = m.flags;
            m.flags = flags | PageFlags::HUGE;
            return Some(old);
        }
        None
    }

    /// The flags of the mapping covering `va`, if present in the table.
    pub fn flags_of(&self, va: VirtAddr) -> Option<PageFlags> {
        self.lookup(va).map(|m| m.flags)
    }

    /// Move the 4 KiB mappings of `pages` consecutive pages from
    /// `old_base` to `new_base`, preserving each page's frame and
    /// flags. Pages unmapped at the source stay unmapped at the
    /// destination; pre-existing destination mappings are replaced.
    /// Overlap-safe: the result is exactly "remove every source entry,
    /// then insert every moved one", so rebasing a region onto an
    /// overlapping one (KASLR slots are closer together than the
    /// kernel image is long) never drops or duplicates an entry. The
    /// rebased map is built in one pass (see `rebase_keys`) rather
    /// than by per-entry remove and insert.
    ///
    /// Returns the number of mappings moved. A no-op rebase (equal
    /// bases, or nothing mapped in the source range) leaves the
    /// version stamps untouched, like the other no-op mutators.
    pub fn rebase_4k_range(&mut self, old_base: VirtAddr, new_base: VirtAddr, pages: u64) -> usize {
        debug_assert!(
            old_base.is_aligned(1 << PAGE_SHIFT) && new_base.is_aligned(1 << PAGE_SHIFT),
            "unaligned 4k rebase {old_base} -> {new_base}"
        );
        if old_base == new_base || pages == 0 {
            return 0;
        }
        let moved = rebase_keys(
            &mut self.small,
            half_of,
            old_base.page_number(),
            pages,
            |i| (new_base + (i << PAGE_SHIFT)).page_number(),
        );
        if moved != 0 {
            self.bump_version();
        }
        moved
    }

    /// Move the 2 MiB huge mappings of `count` consecutive huge pages
    /// from `old_base` to `new_base`. Same contract as
    /// [`PageTable::rebase_4k_range`], for the huge map (physmap
    /// rebasing after a cached boot).
    pub fn rebase_2m_range(&mut self, old_base: VirtAddr, new_base: VirtAddr, count: u64) -> usize {
        debug_assert!(
            old_base.is_aligned(HUGE_PAGE_SIZE) && new_base.is_aligned(HUGE_PAGE_SIZE),
            "unaligned 2M rebase {old_base} -> {new_base}"
        );
        if old_base == new_base || count == 0 {
            return 0;
        }
        let moved = rebase_keys(
            std::slice::from_mut(&mut self.huge),
            |_| 0,
            old_base.raw() >> HUGE_PAGE_SHIFT,
            count,
            |i| (new_base.raw() + i * HUGE_PAGE_SIZE) >> HUGE_PAGE_SHIFT,
        );
        if moved != 0 {
            self.bump_version();
        }
        moved
    }

    /// Mutation stamp: unchanged version means unchanged table, so a
    /// translation cached against this version is still exact. Stamps
    /// are process-globally unique — a value identifies one specific
    /// table content for the lifetime of the process (clones and
    /// snapshot restores carry the stamp *with* the content), so the
    /// guarantee survives rolling a table back to an earlier state.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Draw a fresh global stamp for a mutation.
    fn bump_version(&mut self) {
        self.version = next_pt_version();
    }

    /// The 4 KiB map of the half `page` lies in.
    fn small(&self, page: u64) -> &BTreeMap<u64, Mapping> {
        &self.small[half_of(page)]
    }

    /// [`PageTable::small`], unshared for mutation.
    fn small_mut(&mut self, page: u64) -> &mut BTreeMap<u64, Mapping> {
        Arc::make_mut(&mut self.small[half_of(page)])
    }

    fn lookup(&self, va: VirtAddr) -> Option<Mapping> {
        let page = va.page_number();
        if let Some(m) = self.small(page).get(&page) {
            return Some(*m);
        }
        self.huge.get(&(va.raw() >> HUGE_PAGE_SHIFT)).copied()
    }

    /// Translate `va` for `access` at privilege `level`.
    ///
    /// # Errors
    ///
    /// Returns a [`PageFault`] when the page is absent, the permission
    /// bits deny the access, or a user access touches a supervisor page.
    pub fn translate(
        &self,
        va: VirtAddr,
        access: AccessKind,
        level: PrivilegeLevel,
    ) -> Result<PhysAddr, PageFault> {
        let fault = |reason| PageFault {
            addr: va,
            access,
            reason,
        };
        let m = self
            .lookup(va)
            .ok_or_else(|| fault(FaultReason::NotPresent))?;
        if !m.flags.contains(PageFlags::PRESENT) {
            return Err(fault(FaultReason::NotPresent));
        }
        if level == PrivilegeLevel::User && !m.flags.contains(PageFlags::USER) {
            return Err(fault(FaultReason::Privilege));
        }
        match access {
            AccessKind::Read => {}
            AccessKind::Write => {
                if !m.flags.contains(PageFlags::WRITE) {
                    return Err(fault(FaultReason::NotWritable));
                }
            }
            AccessKind::Execute => {
                if !m.flags.contains(PageFlags::EXEC) {
                    return Err(fault(FaultReason::NotExecutable));
                }
            }
        }
        let offset = if m.flags.contains(PageFlags::HUGE) {
            va.raw() & (HUGE_PAGE_SIZE - 1)
        } else {
            va.page_offset()
        };
        Ok(m.frame + offset)
    }

    /// Number of mappings (4 KiB + huge).
    pub fn len(&self) -> usize {
        self.small.iter().map(|m| m.len()).sum::<usize>() + self.huge.len()
    }

    /// Whether the table has no mappings.
    pub fn is_empty(&self) -> bool {
        self.small.iter().all(|m| m.is_empty()) && self.huge.is_empty()
    }
}

/// Which half of the address space (index into `PageTable::small`) a
/// 4 KiB page number lies in: VA bit 63 is page-number bit 51.
fn half_of(page: u64) -> usize {
    (page >> (63 - PAGE_SHIFT)) as usize
}

/// Move the entries keyed `first..first + count` to `dest(i)`, where
/// `i` is the key's offset from `first`; return how many moved. The
/// entries are spread over `maps`, key `k` living in `maps[part(k)]`,
/// so a range may straddle maps and a moved entry may change map.
/// Each map that loses or gains an entry is rebuilt in one pass into
/// a fresh allocation: its entries outside the source range as they
/// are, then the moved ones landing in it chained last. Collecting
/// into a `BTreeMap` sorts stably and keeps the last entry of equal
/// keys (std's bulk build; the rebase proptest fails if that ever
/// changes), so a moved entry replaces whatever the destination held
/// — the same maps remove-all-then-insert-all yields, for any overlap
/// of source and destination. A map with nothing to lose or gain (and
/// its sharing) is left alone. A source range running past the top of
/// the key space is clipped there rather than wrapped.
fn rebase_keys(
    maps: &mut [Arc<BTreeMap<u64, Mapping>>],
    part: impl Fn(u64) -> usize,
    first: u64,
    count: u64,
    dest: impl Fn(u64) -> u64,
) -> usize {
    let end = first.saturating_add(count);
    let shifted: Vec<(u64, Mapping)> = maps
        .iter()
        .flat_map(|map| map.range(first..end))
        .map(|(&k, &m)| (dest(k - first), m))
        .collect();
    if shifted.is_empty() {
        return 0;
    }
    for (i, map) in maps.iter_mut().enumerate() {
        let incoming = shifted.iter().filter(|&&(k, _)| part(k) == i);
        if map.range(first..end).next().is_none() && incoming.clone().next().is_none() {
            continue;
        }
        let kept = map.range(..first).chain(map.range(end..));
        let rebased = kept
            .map(|(&k, &m)| (k, m))
            .chain(incoming.copied())
            .collect();
        *map = Arc::new(rebased);
    }
    shifted.len()
}

/// Test-only oracle: the per-entry rebase that [`rebase_keys`]
/// replaced — remove every source entry from a deep-cloned map, then
/// insert every moved one. `proptests.rs` checks the one-pass rebase
/// against it.
#[cfg(test)]
impl PageTable {
    pub(crate) fn rebase_4k_range_per_entry(
        &mut self,
        old_base: VirtAddr,
        new_base: VirtAddr,
        pages: u64,
    ) -> usize {
        if old_base == new_base || pages == 0 {
            return 0;
        }
        let mut moved = Vec::new();
        for i in 0..pages {
            let key = (old_base + (i << PAGE_SHIFT)).page_number();
            if let Some(m) = self.small_mut(key).remove(&key) {
                moved.push((i, m));
            }
        }
        for &(i, m) in &moved {
            let key = (new_base + (i << PAGE_SHIFT)).page_number();
            self.small_mut(key).insert(key, m);
        }
        if !moved.is_empty() {
            self.bump_version();
        }
        moved.len()
    }

    pub(crate) fn rebase_2m_range_per_entry(
        &mut self,
        old_base: VirtAddr,
        new_base: VirtAddr,
        count: u64,
    ) -> usize {
        if old_base == new_base || count == 0 {
            return 0;
        }
        let huge = Arc::make_mut(&mut self.huge);
        let mut moved = Vec::new();
        for i in 0..count {
            let key = (old_base.raw() + i * HUGE_PAGE_SIZE) >> HUGE_PAGE_SHIFT;
            if let Some(m) = huge.remove(&key) {
                moved.push((i, m));
            }
        }
        for &(i, m) in &moved {
            huge.insert((new_base.raw() + i * HUGE_PAGE_SIZE) >> HUGE_PAGE_SHIFT, m);
        }
        if !moved.is_empty() {
            self.bump_version();
        }
        moved.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> PageTable {
        let mut pt = PageTable::new();
        pt.map_4k(
            VirtAddr::new(0x1000),
            PhysAddr::new(0x10_000),
            PageFlags::USER_DATA,
        );
        pt.map_4k(
            VirtAddr::new(0x2000),
            PhysAddr::new(0x20_000),
            PageFlags::USER_TEXT,
        );
        pt.map_4k(
            VirtAddr::new(0x3000),
            PhysAddr::new(0x30_000),
            PageFlags::KERNEL_TEXT,
        );
        pt.map_4k(
            VirtAddr::new(0x4000),
            PhysAddr::new(0x40_000),
            PageFlags::KERNEL_DATA,
        );
        pt
    }

    #[test]
    fn translation_applies_page_offset() {
        let pt = table();
        let pa = pt
            .translate(
                VirtAddr::new(0x1abc),
                AccessKind::Read,
                PrivilegeLevel::User,
            )
            .unwrap();
        assert_eq!(pa, PhysAddr::new(0x10_abc));
    }

    #[test]
    fn nx_blocks_execute_but_not_read() {
        let pt = table();
        // User data page: readable, not executable.
        assert!(pt
            .translate(
                VirtAddr::new(0x1000),
                AccessKind::Read,
                PrivilegeLevel::User
            )
            .is_ok());
        let err = pt
            .translate(
                VirtAddr::new(0x1000),
                AccessKind::Execute,
                PrivilegeLevel::User,
            )
            .unwrap_err();
        assert_eq!(err.reason, FaultReason::NotExecutable);
    }

    #[test]
    fn user_cannot_touch_supervisor_pages() {
        let pt = table();
        for access in [AccessKind::Read, AccessKind::Write, AccessKind::Execute] {
            let err = pt
                .translate(VirtAddr::new(0x3000), access, PrivilegeLevel::User)
                .unwrap_err();
            assert_eq!(err.reason, FaultReason::Privilege, "{access}");
        }
        // Supervisor can execute kernel text but not write it.
        assert!(pt
            .translate(
                VirtAddr::new(0x3000),
                AccessKind::Execute,
                PrivilegeLevel::Supervisor
            )
            .is_ok());
        assert_eq!(
            pt.translate(
                VirtAddr::new(0x3000),
                AccessKind::Write,
                PrivilegeLevel::Supervisor
            )
            .unwrap_err()
            .reason,
            FaultReason::NotWritable
        );
    }

    #[test]
    fn kernel_data_is_nx_even_for_supervisor() {
        let pt = table();
        // This is the physmap situation: present, supervisor, NX.
        assert_eq!(
            pt.translate(
                VirtAddr::new(0x4000),
                AccessKind::Execute,
                PrivilegeLevel::Supervisor
            )
            .unwrap_err()
            .reason,
            FaultReason::NotExecutable
        );
        assert!(pt
            .translate(
                VirtAddr::new(0x4000),
                AccessKind::Read,
                PrivilegeLevel::Supervisor
            )
            .is_ok());
    }

    #[test]
    fn unmapped_is_not_present() {
        let pt = table();
        assert_eq!(
            pt.translate(
                VirtAddr::new(0x9000),
                AccessKind::Read,
                PrivilegeLevel::Supervisor
            )
            .unwrap_err()
            .reason,
            FaultReason::NotPresent
        );
    }

    #[test]
    fn huge_pages_translate_with_21_bit_offset() {
        let mut pt = PageTable::new();
        pt.map_2m(
            VirtAddr::new(0x4000_0000),
            PhysAddr::new(0x800_0000),
            PageFlags::USER_DATA,
        );
        let pa = pt
            .translate(
                VirtAddr::new(0x4000_0000 + 0x12_3456),
                AccessKind::Read,
                PrivilegeLevel::User,
            )
            .unwrap();
        assert_eq!(pa, PhysAddr::new(0x800_0000 + 0x12_3456));
    }

    #[test]
    fn small_mapping_shadows_huge() {
        let mut pt = PageTable::new();
        pt.map_2m(
            VirtAddr::new(0),
            PhysAddr::new(0x20_0000),
            PageFlags::USER_DATA,
        );
        pt.map_4k(
            VirtAddr::new(0x1000),
            PhysAddr::new(0x99_9000),
            PageFlags::USER_TEXT,
        );
        let pa = pt
            .translate(
                VirtAddr::new(0x1010),
                AccessKind::Execute,
                PrivilegeLevel::User,
            )
            .unwrap();
        assert_eq!(pa, PhysAddr::new(0x99_9010));
        // Other offsets still hit the huge page.
        let pa2 = pt
            .translate(
                VirtAddr::new(0x2010),
                AccessKind::Read,
                PrivilegeLevel::User,
            )
            .unwrap();
        assert_eq!(pa2, PhysAddr::new(0x20_2010));
    }

    #[test]
    fn set_flags_changes_permissions() {
        let mut pt = table();
        // The §6.2 trick: make a kernel page user-accessible.
        let old = pt
            .set_flags(VirtAddr::new(0x3000), PageFlags::USER_TEXT)
            .unwrap();
        assert_eq!(old, PageFlags::KERNEL_TEXT);
        assert!(pt
            .translate(
                VirtAddr::new(0x3000),
                AccessKind::Execute,
                PrivilegeLevel::User
            )
            .is_ok());
    }

    #[test]
    fn unmap_removes_translation() {
        let mut pt = table();
        assert!(pt.unmap_4k(VirtAddr::new(0x1000)).is_some());
        assert!(pt
            .translate(
                VirtAddr::new(0x1000),
                AccessKind::Read,
                PrivilegeLevel::User
            )
            .is_err());
        assert!(pt.unmap_4k(VirtAddr::new(0x1000)).is_none());
    }

    #[test]
    fn non_present_flags_fault_even_if_mapped() {
        let mut pt = PageTable::new();
        pt.map_4k(
            VirtAddr::new(0x5000),
            PhysAddr::new(0x50_000),
            PageFlags::NONE,
        );
        assert_eq!(
            pt.translate(
                VirtAddr::new(0x5000),
                AccessKind::Read,
                PrivilegeLevel::Supervisor
            )
            .unwrap_err()
            .reason,
            FaultReason::NotPresent
        );
    }

    #[test]
    fn version_tracks_mutations_only() {
        let mut pt = PageTable::new();
        let v0 = pt.version();
        assert!(pt
            .translate(
                VirtAddr::new(0x1000),
                AccessKind::Read,
                PrivilegeLevel::User
            )
            .is_err());
        assert_eq!(pt.version(), v0, "reads leave the version alone");
        pt.map_4k(
            VirtAddr::new(0x1000),
            PhysAddr::new(0x10_000),
            PageFlags::USER_DATA,
        );
        let v1 = pt.version();
        assert!(v1 > v0);
        assert!(pt.unmap_4k(VirtAddr::new(0x9000)).is_none());
        assert!(pt
            .set_flags(VirtAddr::new(0x9000), PageFlags::NONE)
            .is_none());
        assert_eq!(pt.version(), v1, "no-op mutators leave the version alone");
        pt.set_flags(VirtAddr::new(0x1000), PageFlags::USER_TEXT);
        assert!(pt.version() > v1);
    }

    #[test]
    fn clones_share_until_mutated() {
        let mut pt = table();
        let clone = pt.clone();
        assert_eq!(clone.version(), pt.version());
        pt.unmap_4k(VirtAddr::new(0x1000));
        assert!(clone
            .translate(
                VirtAddr::new(0x1000),
                AccessKind::Read,
                PrivilegeLevel::User
            )
            .is_ok());
        assert!(pt.version() > clone.version());
    }

    #[test]
    fn a_mapping_unshares_only_its_own_half() {
        let mut pt = table();
        pt.map_4k(
            VirtAddr::new(0xffff_ffff_8000_0000),
            PhysAddr::new(0x80_000),
            PageFlags::KERNEL_TEXT,
        );
        let template = pt.clone();
        pt.map_4k(
            VirtAddr::new(0x9000),
            PhysAddr::new(0x90_000),
            PageFlags::USER_DATA,
        );
        assert!(!Arc::ptr_eq(&pt.small[0], &template.small[0]));
        assert!(Arc::ptr_eq(&pt.small[1], &template.small[1]));
        let template = pt.clone();
        pt.unmap_4k(VirtAddr::new(0xffff_ffff_8000_0000));
        assert!(Arc::ptr_eq(&pt.small[0], &template.small[0]));
        assert!(!Arc::ptr_eq(&pt.small[1], &template.small[1]));
    }

    #[test]
    fn rebase_4k_moves_translations_and_skips_holes() {
        let mut pt = PageTable::new();
        // Map pages 0 and 2 of a 3-page region; leave page 1 a hole.
        for (i, flags) in [(0u64, PageFlags::KERNEL_TEXT), (2, PageFlags::KERNEL_DATA)] {
            pt.map_4k(
                VirtAddr::new(0x10_0000 + (i << 12)),
                PhysAddr::new(0x50_000 + (i << 12)),
                flags,
            );
        }
        let moved = pt.rebase_4k_range(VirtAddr::new(0x10_0000), VirtAddr::new(0x40_0000), 3);
        assert_eq!(moved, 2);
        // Old range fully unmapped, new range has the same frames/flags.
        for i in 0..3u64 {
            assert!(pt.flags_of(VirtAddr::new(0x10_0000 + (i << 12))).is_none());
        }
        assert_eq!(
            pt.translate(
                VirtAddr::new(0x40_0000 + 0xabc),
                AccessKind::Execute,
                PrivilegeLevel::Supervisor
            )
            .unwrap(),
            PhysAddr::new(0x50_abc)
        );
        assert!(pt.flags_of(VirtAddr::new(0x40_1000)).is_none());
        assert_eq!(
            pt.flags_of(VirtAddr::new(0x40_2000)),
            Some(PageFlags::KERNEL_DATA)
        );
    }

    #[test]
    fn rebase_4k_survives_overlapping_ranges() {
        // KASLR image slots are 2 MiB apart but the image spans ~4 MiB,
        // so source and destination overlap. Model that with a 4-page
        // region shifted by one page, both directions.
        for shift in [1i64, -1] {
            let mut pt = PageTable::new();
            for i in 0..4u64 {
                pt.map_4k(
                    VirtAddr::new(0x10_0000 + (i << 12)),
                    PhysAddr::new(0x70_000 + (i << 12)),
                    PageFlags::KERNEL_TEXT,
                );
            }
            let new_base = VirtAddr::new((0x10_0000i64 + shift * 0x1000) as u64);
            assert_eq!(pt.rebase_4k_range(VirtAddr::new(0x10_0000), new_base, 4), 4);
            assert_eq!(pt.len(), 4, "no entries dropped or duplicated");
            for i in 0..4u64 {
                let pa = pt
                    .translate(
                        new_base + (i << 12),
                        AccessKind::Read,
                        PrivilegeLevel::Supervisor,
                    )
                    .unwrap();
                assert_eq!(pa, PhysAddr::new(0x70_000 + (i << 12)), "shift {shift}");
            }
        }
    }

    #[test]
    fn rebase_2m_moves_huge_mappings() {
        let mut pt = PageTable::new();
        for i in 0..4u64 {
            pt.map_2m(
                VirtAddr::new(0x4000_0000 + i * HUGE_PAGE_SIZE),
                PhysAddr::new(i * HUGE_PAGE_SIZE),
                PageFlags::KERNEL_DATA,
            );
        }
        let moved = pt.rebase_2m_range(VirtAddr::new(0x4000_0000), VirtAddr::new(0x8000_0000), 4);
        assert_eq!(moved, 4);
        assert!(pt.flags_of(VirtAddr::new(0x4000_0000)).is_none());
        let pa = pt
            .translate(
                VirtAddr::new(0x8000_0000 + 2 * HUGE_PAGE_SIZE + 0x123),
                AccessKind::Read,
                PrivilegeLevel::Supervisor,
            )
            .unwrap();
        assert_eq!(pa, PhysAddr::new(2 * HUGE_PAGE_SIZE + 0x123));
    }

    #[test]
    fn rebase_no_op_leaves_version_alone() {
        let mut pt = table();
        let v = pt.version();
        // Equal bases and empty source ranges are no-ops.
        assert_eq!(
            pt.rebase_4k_range(VirtAddr::new(0x1000), VirtAddr::new(0x1000), 4),
            0
        );
        assert_eq!(
            pt.rebase_4k_range(VirtAddr::new(0x90_0000), VirtAddr::new(0xa0_0000), 4),
            0
        );
        assert_eq!(
            pt.rebase_2m_range(VirtAddr::new(0x4000_0000), VirtAddr::new(0x8000_0000), 4),
            0
        );
        assert_eq!(pt.version(), v);
        // A real rebase bumps it.
        assert!(pt.rebase_4k_range(VirtAddr::new(0x1000), VirtAddr::new(0x8000), 1) == 1);
        assert!(pt.version() > v);
    }

    #[test]
    fn flags_display() {
        assert_eq!(PageFlags::USER_TEXT.to_string(), "p-xu-");
        assert_eq!(PageFlags::KERNEL_DATA.to_string(), "pw---");
    }
}
