//! Page tables: mapping, permission checks, translation.

use std::fmt;
use std::ops::{BitOr, BitOrAssign, Range};
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

/// `len` consecutive pages mapped to consecutive frames with one set of
/// flags: page `key + i` maps to frame number `frame + i` (a frame
/// number is the frame's address shifted down by its map's page shift).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Extent {
    key: u64,
    len: u64,
    frame: u64,
    flags: PageFlags,
}

impl Extent {
    /// One past the last key.
    fn end(&self) -> u64 {
        self.key + self.len
    }

    /// Whether `next` continues `self`: the next key, the next frame
    /// and the same flags.
    fn joins(&self, next: &Extent) -> bool {
        self.end() == next.key && self.frame + self.len == next.frame && self.flags == next.flags
    }

    /// The part of `self` keyed within `keys`, if any.
    fn clip(&self, keys: Range<u64>) -> Option<Extent> {
        let (start, end) = (keys.start.max(self.key), keys.end.min(self.end()));
        (start < end).then(|| Extent {
            key: start,
            len: end - start,
            frame: self.frame + (start - self.key),
            flags: self.flags,
        })
    }
}

/// Append `e` to `out`, extending the last extent when `e` continues it.
fn push_joined(out: &mut Vec<Extent>, e: Extent) {
    match out.last_mut() {
        Some(last) if last.joins(&e) => last.len += e.len,
        _ => out.push(e),
    }
}

/// One page-table map, keyed by `va >> SHIFT`: sorted, non-overlapping
/// extents, each as long as it can be (no extent [joins](Extent::joins)
/// the one after it). A boot maps an image's pages to consecutive
/// frames with one set of flags, so a kernel half of a thousand pages
/// is a couple of extents. A lookup binary-searches the extents,
/// `insert` extends a neighbour when the page continues it, and
/// `remove` splits the extent holding the page; a clone (the first
/// write to an `Arc`-shared map) copies the extents.
#[derive(Debug, Clone, Default)]
struct PageRun<const SHIFT: u32>(Vec<Extent>);

impl<const SHIFT: u32> PageRun<SHIFT> {
    /// Keys are `va >> SHIFT`: the size of the key space.
    const KEYS: u64 = 1 << (64 - SHIFT);

    /// Index of the extent holding `key`.
    fn find(&self, key: u64) -> Option<usize> {
        let i = self.0.partition_point(|e| e.key <= key);
        (i > 0 && key < self.0[i - 1].end()).then(|| i - 1)
    }

    /// The mapping `e` gives `key`.
    fn mapping(e: &Extent, key: u64) -> Mapping {
        Mapping {
            frame: PhysAddr::new((e.frame + (key - e.key)) << SHIFT),
            flags: e.flags,
        }
    }

    fn get(&self, key: u64) -> Option<Mapping> {
        self.find(key).map(|i| Self::mapping(&self.0[i], key))
    }

    /// Insert or replace the mapping of `key`, returning the replaced one.
    fn insert(&mut self, key: u64, mapping: Mapping) -> Option<Mapping> {
        let old = self.remove(key);
        let page = Extent {
            key,
            len: 1,
            frame: mapping.frame.raw() >> SHIFT,
            flags: mapping.flags,
        };
        let i = self.0.partition_point(|e| e.key < key);
        let left = i.checked_sub(1).filter(|&l| self.0[l].joins(&page));
        let right = self.0.get(i).is_some_and(|r| page.joins(r));
        match (left, right) {
            (Some(l), true) => {
                self.0[l].len += 1 + self.0[i].len;
                self.0.remove(i);
            }
            (Some(l), false) => self.0[l].len += 1,
            (None, true) => {
                self.0[i] = Extent {
                    len: 1 + self.0[i].len,
                    ..page
                }
            }
            (None, false) => self.0.insert(i, page),
        }
        old
    }

    /// Remove the mapping of `key`, splitting the extent that held it.
    fn remove(&mut self, key: u64) -> Option<Mapping> {
        let i = self.find(key)?;
        let e = self.0[i];
        match (e.clip(e.key..key), e.clip(key + 1..e.end())) {
            (Some(left), Some(right)) => {
                self.0[i] = left;
                self.0.insert(i + 1, right);
            }
            (Some(rest), None) | (None, Some(rest)) => self.0[i] = rest,
            (None, None) => {
                self.0.remove(i);
            }
        }
        Some(Self::mapping(&e, key))
    }

    /// Change the flags of `key`'s mapping, returning the old flags.
    fn set_flags(&mut self, key: u64, flags: PageFlags) -> Option<PageFlags> {
        let old = self.remove(key)?;
        self.insert(
            key,
            Mapping {
                frame: old.frame,
                flags,
            },
        );
        Some(old.flags)
    }

    /// The parts of the extents keyed within `keys`, in key order.
    fn overlapping(&self, keys: &Range<u64>) -> impl Iterator<Item = Extent> + '_ {
        let (start, end) = (keys.start, keys.end);
        let lo = self.0.partition_point(|e| e.end() <= start);
        self.0[lo..].iter().map_while(move |e| e.clip(start..end))
    }

    /// Every mapping as `(key, frame, flags)`, in key order.
    fn entries(&self) -> impl Iterator<Item = (u64, PhysAddr, PageFlags)> + '_ {
        self.0.iter().flat_map(|e| {
            (0..e.len).map(move |i| (e.key + i, PhysAddr::new((e.frame + i) << SHIFT), e.flags))
        })
    }
}

/// The user and kernel halves' 4 KiB maps.
type SmallRun = PageRun<PAGE_SHIFT>;
/// The 2 MiB map.
type HugeRun = PageRun<HUGE_PAGE_SHIFT>;

/// A flat page table: virtual page → (physical frame, flags).
///
/// Supports 4 KiB pages and 2 MiB huge pages. Translation checks the
/// present, write, exec and user bits against the access kind and
/// privilege level, mirroring the x86-64 rules Phantom's primitives rely
/// on. Each of its three maps holds sorted extents — runs of pages
/// mapped to consecutive frames with equal flags — so a lookup
/// binary-searches a handful of extents and a KASLR rebase moves whole
/// extents; every method still speaks in single pages.
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
    /// 4 KiB mappings keyed by page number, one extent list per
    /// address-space half (index 0: user, bit 63 clear; index 1:
    /// kernel). A user mapping after a clone then unshares only the
    /// user half, never the kernel image's.
    small: [Arc<SmallRun>; 2],
    /// 2 MiB mappings keyed by `va >> 21`, one extent list.
    huge: Arc<HugeRun>,
    /// Restamped from [`PT_VERSIONS`] on every mutation; lets cached
    /// translations (the TLB fast path) prove their entry still
    /// reflects the table. The maps are `Arc`-backed so cloning a table
    /// (snapshots, per-shard setup) is three pointer bumps; the first
    /// mutation of a map after a clone unshares it by copying its
    /// extents.
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
        self.small(page).find(page)?;
        self.bump_version();
        self.small_mut(page)
            .remove(page)
            .map(|m| (m.frame, m.flags))
    }

    /// Change the flags of the mapping covering `va` (4 KiB first, then
    /// huge), returning the old flags. The paper's reverse-engineering
    /// setup does exactly this: "changing the PTE attributes of address K,
    /// we make it accessible to user space".
    pub fn set_flags(&mut self, va: VirtAddr, flags: PageFlags) -> Option<PageFlags> {
        let page = va.page_number();
        let huge_key = va.raw() >> HUGE_PAGE_SHIFT;
        // Look before unsharing, so a miss leaves the maps shared and
        // the version stamp untouched.
        if self.small(page).find(page).is_some() {
            self.bump_version();
            self.small_mut(page).set_flags(page, flags)
        } else if self.huge.find(huge_key).is_some() {
            self.bump_version();
            Arc::make_mut(&mut self.huge).set_flags(huge_key, flags | PageFlags::HUGE)
        } else {
            None
        }
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
    /// move works on extents, not pages (see `rebase_keys`): a boot's
    /// image is one extent, so its cost does not grow with its length.
    ///
    /// Returns the number of mappings (pages) moved. A no-op rebase (equal
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
            old_base.page_number(),
            pages,
            new_base.page_number(),
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
            old_base.raw() >> HUGE_PAGE_SHIFT,
            count,
            new_base.raw() >> HUGE_PAGE_SHIFT,
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

    /// Whether `self` shares all three maps — the user and kernel
    /// halves' 4 KiB maps and the 2 MiB map — with `other`. A shared
    /// map is one allocation both tables hold, and either table
    /// unshares it before its first mutation, so shared maps prove that
    /// every translation is the same in both tables (a rewind's decode
    /// cache keeps its decodes then).
    pub fn shares_runs(&self, other: &PageTable) -> bool {
        let [user, kernel] = &self.small;
        let [other_user, other_kernel] = &other.small;
        Arc::ptr_eq(user, other_user)
            && Arc::ptr_eq(kernel, other_kernel)
            && Arc::ptr_eq(&self.huge, &other.huge)
    }

    /// Draw a fresh global stamp for a mutation.
    fn bump_version(&mut self) {
        self.version = next_pt_version();
    }

    /// The 4 KiB map of the half `page` lies in.
    fn small(&self, page: u64) -> &SmallRun {
        &self.small[half_of(page)]
    }

    /// [`PageTable::small`], unshared for mutation.
    fn small_mut(&mut self, page: u64) -> &mut SmallRun {
        Arc::make_mut(&mut self.small[half_of(page)])
    }

    fn lookup(&self, va: VirtAddr) -> Option<Mapping> {
        let page = va.page_number();
        self.small(page)
            .get(page)
            .or_else(|| self.huge.get(va.raw() >> HUGE_PAGE_SHIFT))
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
        self.translate_with_flags(va, access, level)
            .map(|(pa, _)| pa)
    }

    /// [`PageTable::translate`], also returning the flags of the mapping
    /// that served it (what [`PageTable::flags_of`] reports for `va`),
    /// from the same walk.
    ///
    /// # Errors
    ///
    /// As [`PageTable::translate`].
    pub fn translate_with_flags(
        &self,
        va: VirtAddr,
        access: AccessKind,
        level: PrivilegeLevel,
    ) -> Result<(PhysAddr, PageFlags), PageFault> {
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
        Ok((m.frame + offset, m.flags))
    }

    /// Every mapping as `(page key, frame, flags)`, one key-ordered list
    /// per map: the user half's 4 KiB pages, the kernel half's, then the
    /// 2 MiB pages (keys are `va >> 12` and `va >> 21`). For parity
    /// checks between tables built by different paths, such as a
    /// boot-template instance and a fresh boot. Each extent expands
    /// into its pages.
    pub fn entry_lists(&self) -> [Vec<(u64, PhysAddr, PageFlags)>; 3] {
        let [user, kernel] = &self.small;
        [
            user.entries().collect(),
            kernel.entries().collect(),
            self.huge.entries().collect(),
        ]
    }
}

/// Which half of the address space (index into `PageTable::small`) a
/// 4 KiB page number lies in: VA bit 63 is page-number bit 51.
fn half_of(page: u64) -> usize {
    (page >> (63 - PAGE_SHIFT)) as usize
}

/// Move the pages keyed `first..first + count` so that page
/// `first + i` lands on key `new_first + i`, wrapping past the top of
/// the key space; return how many pages moved. `maps` split the key
/// space into equal consecutive spans, in order: the two halves of the
/// 4 KiB map, or the one huge map. A source range running past the top
/// of the key space is clipped there rather than wrapped.
///
/// The result is remove-every-source-page-then-insert-every-moved-one,
/// for any overlap of source and destination, and it costs
/// O(extents), not O(pages):
///
/// 1. The extents the source range touches are cut out of each map,
///    the two at its ends clipped to it.
/// 2. Each cut extent is shifted by `new_first - first` and split where
///    it crosses into the next map's span or wraps past the top. A map's
///    incoming pieces stay in key order unless the destination wraps
///    back into the map it started in; only then are they sorted.
/// 3. Each map that loses or gains a page is rebuilt into a fresh
///    allocation: its extents clipped to outside the source range,
///    overlaid by the incoming pieces (a piece replaces whatever the
///    kept extents map under it), joining neighbours that continue each
///    other. A map with nothing to lose or gain keeps its sharing.
fn rebase_keys<const SHIFT: u32>(
    maps: &mut [Arc<PageRun<SHIFT>>],
    first: u64,
    count: u64,
    new_first: u64,
) -> usize {
    let keys = PageRun::<SHIFT>::KEYS;
    let span = keys / maps.len() as u64;
    let source = first..first.saturating_add(count).min(keys);
    let mut incoming = vec![Vec::new(); maps.len()];
    let mut moved = 0;
    for cut in maps.iter().flat_map(|map| map.overlapping(&source)) {
        moved += cut.len;
        let mut piece = Extent {
            key: (new_first + (cut.key - first)) % keys,
            ..cut
        };
        while piece.len > 0 {
            let len = piece.len.min(span - piece.key % span);
            incoming[(piece.key / span) as usize].push(Extent { len, ..piece });
            piece = Extent {
                key: (piece.key + len) % keys,
                len: piece.len - len,
                frame: piece.frame + len,
                flags: piece.flags,
            };
        }
    }
    if moved == 0 {
        return 0;
    }
    for (map, incoming) in maps.iter_mut().zip(&mut incoming) {
        if incoming.is_empty() && map.overlapping(&source).next().is_none() {
            continue;
        }
        if !incoming.is_sorted_by_key(|e| e.key) {
            incoming.sort_unstable_by_key(|e| e.key);
        }
        let kept = map
            .0
            .iter()
            .flat_map(|e| [e.clip(0..source.start), e.clip(source.end..u64::MAX)])
            .flatten();
        *map = Arc::new(PageRun(overlay(kept, incoming)));
    }
    moved as usize
}

/// `top` laid over `base`, both sorted and non-overlapping: every
/// extent of `top`, plus the parts of `base` no `top` extent covers, in
/// key order and with neighbours that continue each other joined.
fn overlay(base: impl Iterator<Item = Extent>, top: &[Extent]) -> Vec<Extent> {
    let mut out = Vec::new();
    let mut top = top.iter().copied().peekable();
    for e in base {
        let mut rest = Some(e);
        while let Some(r) = rest {
            let Some(&t) = top.peek().filter(|t| t.key < r.end()) else {
                push_joined(&mut out, r);
                break;
            };
            if let Some(head) = r.clip(r.key..t.key) {
                push_joined(&mut out, head);
            }
            // A `top` extent reaching past `r` may cover later `base`
            // extents too, so it stays until one reaches past it.
            if t.end() > r.end() {
                break;
            }
            push_joined(&mut out, t);
            top.next();
            rest = r.clip(t.end()..r.end());
        }
    }
    for t in top {
        push_joined(&mut out, t);
    }
    out
}

/// Test-only oracle: the per-entry rebase that [`rebase_keys`]
/// replaced — remove every source page from a deep-cloned map, then
/// insert every moved one. `proptests.rs` checks the extent rebase
/// against it.
#[cfg(test)]
impl PageTable {
    /// How many extents each map holds: the user half's, the kernel
    /// half's and the huge map's.
    pub(crate) fn extent_counts(&self) -> [usize; 3] {
        let [user, kernel] = &self.small;
        [user.0.len(), kernel.0.len(), self.huge.0.len()]
    }

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
            if let Some(m) = self.small_mut(key).remove(key) {
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
            if let Some(m) = huge.remove(key) {
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
            let entries: usize = pt.entry_lists().iter().map(Vec::len).sum();
            assert_eq!(entries, 4, "no entries dropped or duplicated");
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

    /// A boot-shaped table — 1,056 image pages on consecutive frames,
    /// five module pages with other flags, 512 physmap huge pages — is
    /// two kernel extents and one huge extent, and stays so when KASLR
    /// moves the image by one slot (source and destination overlap)
    /// and the physmap by seven, matching the per-entry rebase.
    #[test]
    fn a_boot_shaped_table_is_three_extents_before_and_after_a_rebase() {
        let image = VirtAddr::new(0xffff_ffff_8000_0000);
        let module = VirtAddr::new(0xffff_ffff_c000_0000);
        let physmap = VirtAddr::new(0xffff_8880_0000_0000);
        let mut pt = PageTable::new();
        for i in 0..1_056u64 {
            let frame = PhysAddr::new(0x10_0000 + (i << PAGE_SHIFT));
            pt.map_4k(image + (i << PAGE_SHIFT), frame, PageFlags::KERNEL_TEXT);
        }
        for i in 0..5u64 {
            let frame = PhysAddr::new(0x60_0000 + (i << PAGE_SHIFT));
            let flags = PageFlags::KERNEL_TEXT | PageFlags::WRITE;
            pt.map_4k(module + (i << PAGE_SHIFT), frame, flags);
        }
        for i in 0..512u64 {
            let frame = PhysAddr::new(i * HUGE_PAGE_SIZE);
            pt.map_2m(physmap + i * HUGE_PAGE_SIZE, frame, PageFlags::KERNEL_DATA);
        }
        assert_eq!(pt.extent_counts(), [0, 2, 1]);

        let mut oracle = pt.clone();
        let (new_image, new_physmap) = (image + HUGE_PAGE_SIZE, physmap + 7 * 0x4000_0000);
        assert_eq!(pt.rebase_4k_range(image, new_image, 1_056), 1_056);
        assert_eq!(pt.rebase_2m_range(physmap, new_physmap, 512), 512);
        assert_eq!(
            oracle.rebase_4k_range_per_entry(image, new_image, 1_056),
            1_056
        );
        assert_eq!(
            oracle.rebase_2m_range_per_entry(physmap, new_physmap, 512),
            512
        );
        assert_eq!(pt.extent_counts(), [0, 2, 1]);
        assert_eq!(pt.entry_lists(), oracle.entry_lists());
    }

    #[test]
    fn flags_display() {
        assert_eq!(PageFlags::USER_TEXT.to_string(), "p-xu-");
        assert_eq!(PageFlags::KERNEL_DATA.to_string(), "pw---");
    }
}
