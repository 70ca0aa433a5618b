//! Property-based tests for the memory substrate.

use proptest::prelude::*;

use crate::addr::{PhysAddr, VirtAddr, HUGE_PAGE_SIZE, PAGE_SIZE};
use crate::fault::AccessKind;
use crate::paging::{PageFlags, PageTable, PrivilegeLevel};
use crate::phys::PhysMemory;

/// One step of the copy-on-write model check.
#[derive(Debug, Clone)]
enum CowOp {
    /// Write a byte at an address.
    Write(u64, u8),
    /// Take a checkpoint of the live memory.
    Snapshot,
    /// Rewind to checkpoint `i % snapshots.len()` (no-op when none).
    Restore(usize),
}

fn arb_cow_ops() -> impl Strategy<Value = Vec<CowOp>> {
    proptest::collection::vec(
        prop_oneof![
            (0u64..0x8000, any::<u8>()).prop_map(|(a, v)| CowOp::Write(a, v)),
            (0u64..0x8000, any::<u8>()).prop_map(|(a, v)| CowOp::Write(a, v)),
            (0u64..0x8000, any::<u8>()).prop_map(|(a, v)| CowOp::Write(a, v)),
            Just(CowOp::Snapshot),
            any::<usize>().prop_map(CowOp::Restore),
        ],
        1..80,
    )
}

fn arb_flags() -> impl Strategy<Value = PageFlags> {
    (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()).prop_map(|(p, w, x, u)| {
        let mut f = PageFlags::NONE;
        if p {
            f |= PageFlags::PRESENT;
        }
        if w {
            f |= PageFlags::WRITE;
        }
        if x {
            f |= PageFlags::EXEC;
        }
        if u {
            f |= PageFlags::USER;
        }
        f
    })
}

/// Rebase windows: one user-half and one kernel-half base per page
/// size, so a rebase can stay in one half or cross to the other.
const WINDOWS_4K: [u64; 2] = [0x10_0000, 0xffff_ffff_8000_0000];
const WINDOWS_2M: [u64; 2] = [0x4000_0000, 0xffff_8880_0000_0000];
/// Slots per window: sources and destinations (`slot + count`) stay
/// inside it.
const SLOTS: u64 = 80;

/// One mapping of a rebase test table: `(huge, kernel window, slot,
/// frame number, flags)`.
type Entry = (bool, bool, u64, u64, PageFlags);

fn arb_entries() -> impl Strategy<Value = Vec<Entry>> {
    proptest::collection::vec(
        (
            any::<bool>(),
            any::<bool>(),
            0u64..48,
            0u64..1 << 12,
            arb_flags(),
        ),
        0..40,
    )
}

/// A rebase request: `(huge, source window, source slot, destination
/// window, destination slot, count)`; `old == new` is forced by
/// `same_base`.
type Rebase = (bool, bool, u64, bool, u64, u64);

fn arb_rebase() -> impl Strategy<Value = (Rebase, bool)> {
    (
        (
            any::<bool>(),
            any::<bool>(),
            0u64..40,
            any::<bool>(),
            0u64..40,
            0u64..40,
        ),
        0u8..6,
    )
        .prop_map(|(r, same)| (r, same == 0))
}

fn slot_va(huge: bool, kernel: bool, slot: u64) -> VirtAddr {
    let (windows, unit) = if huge {
        (WINDOWS_2M, HUGE_PAGE_SIZE)
    } else {
        (WINDOWS_4K, PAGE_SIZE)
    };
    VirtAddr::new(windows[kernel as usize] + slot * unit)
}

/// Everything observable at every slot of both windows of one page
/// size: flags and a supervisor read translation.
fn observe(pt: &PageTable, huge: bool) -> Vec<(Option<PageFlags>, Option<PhysAddr>)> {
    let mut seen = Vec::new();
    for kernel in [false, true] {
        for slot in 0..SLOTS {
            let va = slot_va(huge, kernel, slot) + 0x123;
            seen.push((
                pt.flags_of(va),
                pt.translate(va, AccessKind::Read, PrivilegeLevel::Supervisor)
                    .ok(),
            ));
        }
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The one-pass rebase equals remove-all-then-insert-all on random
    /// 4 KiB and 2 MiB tables: same moved count, same translation at
    /// every touched key (both windows, both page sizes), same length,
    /// and the version stamp moving alike. Covers overlapping source
    /// and destination ranges, holes, pre-existing destination
    /// mappings, empty sources, zero counts and `old == new`. The
    /// table the rebased one was cloned from (a boot template, say)
    /// is unaffected.
    #[test]
    fn one_pass_rebase_matches_per_entry_oracle(
        entries in arb_entries(),
        request in arb_rebase(),
    ) {
        let (rebase, same_base) = request;
        let mut template = PageTable::new();
        for &(huge, kernel, slot, frame, flags) in &entries {
            let va = slot_va(huge, kernel, slot);
            if huge {
                template.map_2m(va, PhysAddr::new(frame * HUGE_PAGE_SIZE), flags);
            } else {
                template.map_4k(va, PhysAddr::new(frame * PAGE_SIZE), flags);
            }
        }
        let (huge, src_kernel, src_slot, dst_kernel, dst_slot, count) = rebase;
        let old = slot_va(huge, src_kernel, src_slot);
        let new = if same_base { old } else { slot_va(huge, dst_kernel, dst_slot) };
        let before = [observe(&template, false), observe(&template, true)];

        let mut fast = template.clone();
        let mut oracle = template.clone();
        let (moved, expected) = if huge {
            (fast.rebase_2m_range(old, new, count), oracle.rebase_2m_range_per_entry(old, new, count))
        } else {
            (fast.rebase_4k_range(old, new, count), oracle.rebase_4k_range_per_entry(old, new, count))
        };
        prop_assert_eq!(moved, expected);
        prop_assert_eq!(fast.entry_lists(), oracle.entry_lists());
        for size in [false, true] {
            prop_assert_eq!(observe(&fast, size), observe(&oracle, size));
        }
        let (v0, vf, vo) = (template.version(), fast.version(), oracle.version());
        prop_assert_eq!(vf != v0, vo != v0, "version moved differently");
        if moved == 0 {
            prop_assert_eq!(vf, v0, "a no-op rebase must leave the version alone");
        }
        prop_assert_eq!([observe(&template, false), observe(&template, true)], before);
    }

    /// Translation preserves the page offset and lands in the mapped frame.
    #[test]
    fn translate_preserves_offset(vpn in 0u64..1 << 30, fpn in 0u64..1 << 20, off in 0u64..PAGE_SIZE) {
        let mut pt = PageTable::new();
        let va = VirtAddr::new(vpn << 12);
        let pa = PhysAddr::new(fpn << 12);
        pt.map_4k(va, pa, PageFlags::USER_DATA);
        let got = pt.translate(va + off, AccessKind::Read, PrivilegeLevel::User).unwrap();
        prop_assert_eq!(got, pa + off);
    }

    /// Permission soundness: a translation only succeeds when every
    /// relevant permission bit allows it.
    #[test]
    fn permission_soundness(flags in arb_flags(), access_idx in 0usize..3, user in any::<bool>()) {
        let access = [AccessKind::Read, AccessKind::Write, AccessKind::Execute][access_idx];
        let level = if user { PrivilegeLevel::User } else { PrivilegeLevel::Supervisor };
        let mut pt = PageTable::new();
        pt.map_4k(VirtAddr::new(0x7000), PhysAddr::new(0x9000), flags);
        let res = pt.translate(VirtAddr::new(0x7000), access, level);
        let allowed = flags.contains(PageFlags::PRESENT)
            && (!user || flags.contains(PageFlags::USER))
            && match access {
                AccessKind::Read => true,
                AccessKind::Write => flags.contains(PageFlags::WRITE),
                AccessKind::Execute => flags.contains(PageFlags::EXEC),
            };
        prop_assert_eq!(res.is_ok(), allowed, "flags={} access={:?} level={}", flags, access, level);
    }

    /// Physical memory behaves like a big byte array: last write wins.
    #[test]
    fn phys_memory_is_a_byte_array(writes in proptest::collection::vec((0u64..0x10000, any::<u8>()), 1..100)) {
        let mut m = PhysMemory::new(1 << 20);
        let mut model = std::collections::BTreeMap::new();
        for (addr, val) in &writes {
            m.write_u8(PhysAddr::new(*addr), *val);
            model.insert(*addr, *val);
        }
        for (addr, val) in model {
            prop_assert_eq!(m.read_u8(PhysAddr::new(addr)), val);
        }
    }

    /// u64 round-trip at any (possibly frame-straddling) address.
    #[test]
    fn phys_u64_round_trip(addr in 0u64..0x10000, val in any::<u64>()) {
        let mut m = PhysMemory::new(1 << 20);
        m.write_u64(PhysAddr::new(addr), val);
        prop_assert_eq!(m.read_u64(PhysAddr::new(addr)), val);
    }

    /// Contiguous allocation never overlaps previous allocations.
    #[test]
    fn allocations_are_disjoint(sizes in proptest::collection::vec(1u64..8, 1..20)) {
        let mut m = PhysMemory::new(1 << 24);
        let mut prev_end = 0u64;
        for n in sizes {
            let base = m.alloc_contiguous(n).unwrap();
            prop_assert!(base.raw() >= prev_end);
            prev_end = base.raw() + n * PAGE_SIZE;
        }
    }

    /// Copy-on-write snapshot/restore is observationally identical to
    /// a plain byte map cloned at every checkpoint: any interleaving
    /// of writes, snapshots and (possibly out-of-order) restores reads
    /// back exactly what the model does, and no snapshot's contents
    /// ever change after it is taken.
    #[test]
    fn cow_snapshots_match_a_plain_map_model(
        ops in arb_cow_ops(),
        probes in proptest::collection::vec(0u64..0x8000, 1..30),
    ) {
        let mut m = PhysMemory::new(1 << 20);
        let mut model: std::collections::BTreeMap<u64, u8> = std::collections::BTreeMap::new();
        let mut snaps: Vec<(PhysMemory, std::collections::BTreeMap<u64, u8>)> = Vec::new();
        for op in ops {
            match op {
                CowOp::Write(addr, val) => {
                    m.write_u8(PhysAddr::new(addr), val);
                    model.insert(addr, val);
                }
                CowOp::Snapshot => snaps.push((m.snapshot(), model.clone())),
                CowOp::Restore(i) => {
                    if !snaps.is_empty() {
                        let (snap, snap_model) = &snaps[i % snaps.len()];
                        m.restore_from(snap);
                        model = snap_model.clone();
                    }
                }
            }
        }
        for addr in probes {
            let want = model.get(&addr).copied().unwrap_or(0);
            prop_assert_eq!(m.read_u8(PhysAddr::new(addr)), want);
        }
        // Snapshots are immutable: later writes and restores through
        // the live memory never leak into a checkpoint.
        for (snap, snap_model) in &snaps {
            for (&addr, &val) in snap_model {
                prop_assert_eq!(snap.read_u8(PhysAddr::new(addr)), val);
            }
        }
    }

    /// Frame-pool recycling never aliases a live frame: after any
    /// interleaving of writes, snapshots and restores, every pooled
    /// buffer is exclusively owned (strong count 1, no weak refs) and
    /// backs no resident frame — checked after every restore, the only
    /// point where frames retire into the pool.
    #[test]
    fn frame_pool_never_aliases_a_live_frame(ops in arb_cow_ops()) {
        let mut m = PhysMemory::new(1 << 20);
        let mut snaps: Vec<PhysMemory> = Vec::new();
        for op in ops {
            match op {
                CowOp::Write(addr, val) => m.write_u8(PhysAddr::new(addr), val),
                CowOp::Snapshot => snaps.push(m.snapshot()),
                CowOp::Restore(i) => {
                    if !snaps.is_empty() {
                        m.restore_from(&snaps[i % snaps.len()]);
                        prop_assert!(m.pool_is_alias_free());
                    }
                }
            }
        }
        prop_assert!(m.pool_is_alias_free());
    }

    /// The journaled rewind and the full-scan oracle
    /// (`restore_from_scan`) are the same function: identical contents,
    /// restored page sets and `restore_frames_copied` counts over any
    /// operation interleaving.
    #[test]
    fn journaled_rewind_matches_full_scan(
        ops in arb_cow_ops(),
        probes in proptest::collection::vec(0u64..0x8000, 1..30),
    ) {
        let mut fast = PhysMemory::new(1 << 20);
        let mut slow = PhysMemory::new(1 << 20);
        let mut fast_snaps = Vec::new();
        let mut slow_snaps = Vec::new();
        for op in ops {
            match op {
                CowOp::Write(addr, val) => {
                    fast.write_u8(PhysAddr::new(addr), val);
                    slow.write_u8(PhysAddr::new(addr), val);
                }
                CowOp::Snapshot => {
                    fast_snaps.push(fast.snapshot());
                    slow_snaps.push(slow.snapshot());
                }
                CowOp::Restore(i) => {
                    if !fast_snaps.is_empty() {
                        let a = fast.restore_from(&fast_snaps[i % fast_snaps.len()]);
                        let b = slow.restore_from_scan(&slow_snaps[i % slow_snaps.len()]);
                        prop_assert_eq!(a, b, "restored page sets diverge");
                    }
                }
            }
        }
        prop_assert_eq!(fast.restore_frames_copied(), slow.restore_frames_copied());
        for addr in probes {
            prop_assert_eq!(fast.read_u8(PhysAddr::new(addr)), slow.read_u8(PhysAddr::new(addr)));
        }
    }
}

// ----- the half-split 4 KiB map against a single-map model -----------

/// VA windows for the split-table model check: user, straddling the
/// halves (bit 63 flips 32 pages in), kernel, and the top of the
/// address space (slot addresses past 16 pages wrap to VA 0).
const SPLIT_WINDOWS: [u64; 4] = [
    0x10_0000,
    0x8000_0000_0000_0000 - 32 * PAGE_SIZE,
    0xffff_ffff_8000_0000,
    0u64.wrapping_sub(16 * PAGE_SIZE),
];
/// Slots per window.
const SPLIT_SLOTS: u64 = 64;
/// Page numbers are 52 bits wide; VA arithmetic wraps them.
const PAGE_KEYS: u64 = 1 << 52;

fn split_va(window: usize, slot: u64) -> VirtAddr {
    VirtAddr::new(SPLIT_WINDOWS[window]) + slot * PAGE_SIZE
}

/// One mutation of the split-table model check.
#[derive(Debug, Clone)]
enum PtOp {
    Map(usize, u64, u64, PageFlags),
    Unmap(usize, u64),
    SetFlags(usize, u64, PageFlags),
    /// `(source window, slot, destination window, slot, pages)`.
    Rebase(usize, u64, usize, u64, u64),
}

fn arb_pt_ops() -> impl Strategy<Value = Vec<PtOp>> {
    let op = (
        0u8..8,
        (0usize..4, 0u64..SPLIT_SLOTS),
        (0usize..4, 0u64..SPLIT_SLOTS),
        0u64..1 << 12,
        arb_flags(),
        0u64..SPLIT_SLOTS,
    )
        .prop_map(|(k, (w, s), (w2, s2), frame, flags, pages)| match k {
            0..=2 => PtOp::Map(w, s, frame, flags),
            3 => PtOp::Unmap(w, s),
            4 => PtOp::SetFlags(w, s, flags),
            _ => PtOp::Rebase(w, s, w2, s2, pages),
        });
    proptest::collection::vec(op, 1..60)
}

/// The reference: one `BTreeMap` for every 4 KiB mapping, one for the
/// huge ones, and `PageTable::translate`'s rules spelled out.
#[derive(Debug, Default)]
struct PtModel {
    small: std::collections::BTreeMap<u64, (PhysAddr, PageFlags)>,
    huge: std::collections::BTreeMap<u64, (PhysAddr, PageFlags)>,
}

impl PtModel {
    fn lookup(&self, va: VirtAddr) -> Option<(PhysAddr, PageFlags, u64)> {
        if let Some(&(f, fl)) = self.small.get(&va.page_number()) {
            return Some((f, fl, va.page_offset()));
        }
        self.huge
            .get(&(va.raw() >> 21))
            .map(|&(f, fl)| (f, fl, va.raw() & (HUGE_PAGE_SIZE - 1)))
    }

    fn translate(
        &self,
        va: VirtAddr,
        access: AccessKind,
        level: PrivilegeLevel,
    ) -> Result<PhysAddr, crate::fault::FaultReason> {
        use crate::fault::FaultReason;
        let (frame, flags, offset) = self.lookup(va).ok_or(FaultReason::NotPresent)?;
        if !flags.contains(PageFlags::PRESENT) {
            return Err(FaultReason::NotPresent);
        }
        if level == PrivilegeLevel::User && !flags.contains(PageFlags::USER) {
            return Err(FaultReason::Privilege);
        }
        match access {
            AccessKind::Write if !flags.contains(PageFlags::WRITE) => Err(FaultReason::NotWritable),
            AccessKind::Execute if !flags.contains(PageFlags::EXEC) => {
                Err(FaultReason::NotExecutable)
            }
            _ => Ok(frame + offset),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The half-split 4 KiB map is observationally one map: after any
    /// sequence of `map_4k`/`unmap_4k`/`set_flags`/`rebase_4k_range`
    /// — including ranges that straddle the halves, rebases that move
    /// entries from one half to the other, and destinations wrapping
    /// past the top of the address space — `translate` for every
    /// access kind and privilege level, `flags_of` and `len` equal a
    /// single-`BTreeMap` model's, and the version stamp moves exactly
    /// when the table changed. Huge mappings under the windows check that 4 KiB
    /// entries still shadow them from either half.
    #[test]
    fn split_page_table_matches_a_single_map_model(
        huge in proptest::collection::vec((0usize..4, 0u64..1 << 8, arb_flags()), 0..4),
        ops in arb_pt_ops(),
    ) {
        let mut pt = PageTable::new();
        let mut model = PtModel::default();
        for &(w, frame, flags) in &huge {
            let va = VirtAddr::new(SPLIT_WINDOWS[w]).huge_page_base();
            let pa = PhysAddr::new(frame * HUGE_PAGE_SIZE);
            pt.map_2m(va, pa, flags);
            model.huge.insert(va.raw() >> 21, (pa, flags | PageFlags::HUGE));
        }
        for op in ops {
            let before = pt.version();
            let moved = match op {
                PtOp::Map(w, s, frame, flags) => {
                    let va = split_va(w, s);
                    let pa = PhysAddr::new(frame * PAGE_SIZE);
                    let old = pt.map_4k(va, pa, flags);
                    prop_assert_eq!(old, model.small.insert(va.page_number(), (pa, flags)));
                    true
                }
                PtOp::Unmap(w, s) => {
                    let va = split_va(w, s);
                    let old = pt.unmap_4k(va);
                    prop_assert_eq!(old, model.small.remove(&va.page_number()));
                    old.is_some()
                }
                PtOp::SetFlags(w, s, flags) => {
                    let va = split_va(w, s);
                    let old = pt.set_flags(va, flags);
                    let want = if let Some(m) = model.small.get_mut(&va.page_number()) {
                        Some(std::mem::replace(&mut m.1, flags))
                    } else {
                        model
                            .huge
                            .get_mut(&(va.raw() >> 21))
                            .map(|m| std::mem::replace(&mut m.1, flags | PageFlags::HUGE))
                    };
                    prop_assert_eq!(old, want);
                    old.is_some()
                }
                PtOp::Rebase(w, s, w2, s2, pages) => {
                    let (old, new) = (split_va(w, s), split_va(w2, s2));
                    let count = pt.rebase_4k_range(old, new, pages);
                    let mut want = 0;
                    if old != new {
                        // Source keys run up (clipped at the top of the
                        // key space); destinations wrap with the VA.
                        let first = old.page_number();
                        let taken: Vec<(u64, (PhysAddr, PageFlags))> = model
                            .small
                            .range(first..first + pages)
                            .map(|(&k, &m)| (k - first, m))
                            .collect();
                        for &(i, _) in &taken {
                            model.small.remove(&(first + i));
                        }
                        for &(i, m) in &taken {
                            model.small.insert((new.page_number() + i) % PAGE_KEYS, m);
                        }
                        want = taken.len();
                    }
                    prop_assert_eq!(count, want);
                    count != 0
                }
            };
            prop_assert_eq!(pt.version() != before, moved, "version stamp");
            let entries: usize = pt.entry_lists().iter().map(Vec::len).sum();
            prop_assert_eq!(entries, model.small.len() + model.huge.len());
            for w in 0..SPLIT_WINDOWS.len() {
                for s in 0..SPLIT_SLOTS {
                    let va = split_va(w, s) + 0x123;
                    prop_assert_eq!(
                        pt.flags_of(va),
                        model.lookup(va).map(|(_, fl, _)| fl)
                    );
                    for access in [AccessKind::Read, AccessKind::Write, AccessKind::Execute] {
                        for level in [PrivilegeLevel::User, PrivilegeLevel::Supervisor] {
                            prop_assert_eq!(
                                pt.translate(va, access, level).map_err(|f| f.reason),
                                model.translate(va, access, level)
                            );
                        }
                    }
                }
            }
        }
    }

    /// `PhysMemory::read_u64` (one frame lookup unless the 8 bytes
    /// straddle frames) equals the per-byte oracle at every offset
    /// near a frame end, with either neighbouring frame resident or
    /// absent.
    #[test]
    fn read_u64_matches_the_per_byte_oracle(
        back in 0u64..16,
        first in any::<bool>(),
        second in any::<bool>(),
        fill in any::<u8>(),
    ) {
        let mut m = PhysMemory::new(1 << 20);
        let base = PhysAddr::new(3 * PAGE_SIZE);
        if first {
            m.write_bytes(base, &[fill; PAGE_SIZE as usize]);
            m.write_u64(base + (PAGE_SIZE - 8), 0x0102_0304_0506_0708);
        }
        if second {
            m.write_bytes(base + PAGE_SIZE, &[fill ^ 0x5a; 8]);
            m.write_u8(base + PAGE_SIZE, 0xee);
        }
        let pa = base + (PAGE_SIZE - back);
        prop_assert_eq!(m.read_u64(pa), m.read_u64_per_byte(pa));
        let mut bytes = [0u8; 24];
        m.read_into(base + (PAGE_SIZE - 12), &mut bytes);
        for (i, &b) in bytes.iter().enumerate() {
            prop_assert_eq!(b, m.read_u8(base + (PAGE_SIZE - 12) + i as u64));
        }
    }
}

// ----- extents against the single-map model -----------------------------

/// Huge-page windows for the extent model check: user, straddling the
/// halves, kernel (the physmap's region), and the top of the address
/// space (slots past 8 wrap to VA 0, under the 4 KiB windows 0 and 3).
const HUGE_WINDOWS: [u64; 4] = [
    0x4000_0000,
    0x8000_0000_0000_0000 - 8 * HUGE_PAGE_SIZE,
    0xffff_8880_0000_0000,
    0u64.wrapping_sub(8 * HUGE_PAGE_SIZE),
];
/// Huge slots per window.
const HUGE_SLOTS: u64 = 16;
/// Huge keys are `va >> 21`, 43 bits wide.
const HUGE_KEYS: u64 = 1 << 43;

/// The VA of `slot` in `window`, and the number of keys of its page
/// size.
fn extent_va(huge: bool, window: usize, slot: u64) -> (VirtAddr, u64) {
    if huge {
        (
            VirtAddr::new(HUGE_WINDOWS[window]) + slot * HUGE_PAGE_SIZE,
            HUGE_KEYS,
        )
    } else {
        (split_va(window, slot), PAGE_KEYS)
    }
}

/// One mutation of the extent model check. Runs of pages map to
/// consecutive frames, so extents form; single-page unmaps and flag
/// changes split them; rebases cut them.
#[derive(Debug, Clone)]
enum ExtentOp {
    /// `(huge, window, slot, pages, first frame, flags)`: map `pages`
    /// pages from the slot up to consecutive frames.
    MapRun(bool, usize, u64, u64, u64, PageFlags),
    Unmap(usize, u64),
    SetFlags(bool, usize, u64, PageFlags),
    /// `(huge, source window, slot, destination window, slot, pages)`.
    Rebase(bool, usize, u64, usize, u64, u64),
}

/// Mostly two flag values, so that neighbouring runs often carry equal
/// flags and can join.
fn arb_run_flags() -> impl Strategy<Value = PageFlags> {
    prop_oneof![
        Just(PageFlags::KERNEL_TEXT),
        Just(PageFlags::USER_DATA),
        arb_flags(),
    ]
}

fn arb_extent_ops() -> impl Strategy<Value = Vec<ExtentOp>> {
    let op = (
        (0u8..10, any::<bool>()),
        (0usize..4, 0u64..SPLIT_SLOTS),
        (0usize..4, 0u64..SPLIT_SLOTS),
        (1u64..24, 0u8..3, 0u64..1 << 12),
        arb_run_flags(),
    )
        .prop_map(
            |((k, huge), (w, s), (w2, s2), (pages, frame_kind, frame), flags)| {
                let slots = if huge { HUGE_SLOTS } else { SPLIT_SLOTS };
                let (s, s2) = (s % slots, s2 % slots);
                // The identity-like frame lets runs mapped by different ops
                // continue each other.
                let frame = if frame_kind == 0 {
                    frame
                } else {
                    w as u64 * slots + s
                };
                match k {
                    0..=3 => ExtentOp::MapRun(huge, w, s, pages.min(slots), frame, flags),
                    4 => ExtentOp::Unmap(w, s),
                    5 => ExtentOp::SetFlags(huge, w, s, flags),
                    // Counts spread over 0..=slots.
                    _ => ExtentOp::Rebase(huge, w, s, w2, s2, pages * 3 % (slots + 1)),
                }
            },
        );
    proptest::collection::vec(op, 1..40)
}

/// How many maximal runs (next key, next frame of `unit` bytes, same
/// flags) the key-ordered `entries` form: what a map of extents holds
/// when no two neighbours could join.
fn model_runs<'a>(
    entries: impl Iterator<Item = (&'a u64, &'a (PhysAddr, PageFlags))>,
    unit: u64,
) -> usize {
    let mut runs = 0;
    let mut next = None;
    for (&k, &(frame, flags)) in entries {
        runs += usize::from(next != Some((k, frame, flags)));
        next = Some((k + 1, frame + unit, flags));
    }
    runs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Page maps held as extents are observationally one map per page
    /// size. Ops map runs of consecutive pages to consecutive frames,
    /// then unmap and change flags inside them and rebase ranges that
    /// cut runs at both ends, straddle the halves and wrap past the
    /// top, on the 4 KiB and the 2 MiB map. After every op `translate`
    /// for every access kind and privilege level, `flags_of`, the
    /// moved count and the version stamp equal the single-`BTreeMap`
    /// model's, `entry_lists` lists the model's entries, and each map
    /// holds exactly as many extents as the model has maximal runs.
    #[test]
    fn extent_page_table_matches_a_single_map_model(ops in arb_extent_ops()) {
        let mut pt = PageTable::new();
        let mut model = PtModel::default();
        for op in ops {
            let before = pt.version();
            let changed = match op {
                ExtentOp::MapRun(huge, w, s, pages, frame, flags) => {
                    let (base, _) = extent_va(huge, w, s);
                    for i in 0..pages {
                        if huge {
                            let (va, pa) = (base + i * HUGE_PAGE_SIZE, PhysAddr::new((frame + i) * HUGE_PAGE_SIZE));
                            let want = model.huge.insert(va.raw() >> 21, (pa, flags | PageFlags::HUGE));
                            prop_assert_eq!(pt.map_2m(va, pa, flags), want);
                        } else {
                            let (va, pa) = (base + i * PAGE_SIZE, PhysAddr::new((frame + i) * PAGE_SIZE));
                            let want = model.small.insert(va.page_number(), (pa, flags));
                            prop_assert_eq!(pt.map_4k(va, pa, flags), want);
                        }
                    }
                    true
                }
                ExtentOp::Unmap(w, s) => {
                    let va = split_va(w, s);
                    let old = pt.unmap_4k(va);
                    prop_assert_eq!(old, model.small.remove(&va.page_number()));
                    old.is_some()
                }
                ExtentOp::SetFlags(huge, w, s, flags) => {
                    let (va, _) = extent_va(huge, w, s);
                    let old = pt.set_flags(va, flags);
                    let want = if let Some(m) = model.small.get_mut(&va.page_number()) {
                        Some(std::mem::replace(&mut m.1, flags))
                    } else {
                        model
                            .huge
                            .get_mut(&(va.raw() >> 21))
                            .map(|m| std::mem::replace(&mut m.1, flags | PageFlags::HUGE))
                    };
                    prop_assert_eq!(old, want);
                    old.is_some()
                }
                ExtentOp::Rebase(huge, w, s, w2, s2, pages) => {
                    let ((old, keys), (new, _)) = (extent_va(huge, w, s), extent_va(huge, w2, s2));
                    let (count, map, shift) = if huge {
                        (pt.rebase_2m_range(old, new, pages), &mut model.huge, 21)
                    } else {
                        (pt.rebase_4k_range(old, new, pages), &mut model.small, 12)
                    };
                    let mut want = 0;
                    if old != new {
                        let (first, new_first) = (old.raw() >> shift, new.raw() >> shift);
                        let taken: Vec<(u64, (PhysAddr, PageFlags))> = map
                            .range(first..first + pages)
                            .map(|(&k, &m)| (k - first, m))
                            .collect();
                        for &(i, _) in &taken {
                            map.remove(&(first + i));
                        }
                        for &(i, m) in &taken {
                            map.insert((new_first + i) % keys, m);
                        }
                        want = taken.len();
                    }
                    prop_assert_eq!(count, want, "moved count");
                    count != 0
                }
            };
            prop_assert_eq!(pt.version() != before, changed, "version stamp");

            let half = PAGE_KEYS / 2;
            let expected = [
                model.small.range(..half).map(|(&k, &(f, fl))| (k, f, fl)).collect::<Vec<_>>(),
                model.small.range(half..).map(|(&k, &(f, fl))| (k, f, fl)).collect(),
                model.huge.iter().map(|(&k, &(f, fl))| (k, f, fl)).collect(),
            ];
            prop_assert_eq!(pt.entry_lists(), expected);
            prop_assert_eq!(
                pt.extent_counts(),
                [
                    model_runs(model.small.range(..half), PAGE_SIZE),
                    model_runs(model.small.range(half..), PAGE_SIZE),
                    model_runs(model.huge.iter(), HUGE_PAGE_SIZE),
                ],
                "extents are maximal"
            );
            let vas = (0..SPLIT_WINDOWS.len()).flat_map(|w| {
                (0..SPLIT_SLOTS).map(move |s| split_va(w, s) + 0x123)
                    .chain((0..HUGE_SLOTS).map(move |s| extent_va(true, w, s).0 + 0x12_3456))
            });
            for va in vas {
                prop_assert_eq!(pt.flags_of(va), model.lookup(va).map(|(_, fl, _)| fl));
                for access in [AccessKind::Read, AccessKind::Write, AccessKind::Execute] {
                    for level in [PrivilegeLevel::User, PrivilegeLevel::Supervisor] {
                        prop_assert_eq!(
                            pt.translate(va, access, level).map_err(|f| f.reason),
                            model.translate(va, access, level)
                        );
                    }
                }
            }
        }
    }
}

// ----- the chunked frame store against the flat one -------------------

/// One step of the chunked-vs-flat model check. Addresses span four
/// 64-frame chunks, so writes land in shared and private chunks alike.
#[derive(Debug, Clone)]
enum PhysOp {
    AllocFrame,
    AllocContiguous(u64),
    AllocHuge,
    WriteU8(u64, u8),
    WriteU64(u64, u64),
    /// `(address, length, fill byte)`: may straddle frames and chunks.
    WriteBytes(u64, usize, u8),
    Read(u64, usize),
    /// Take a checkpoint of the live memory.
    Snapshot,
    /// Keep a plain clone of the live memory (shares every chunk).
    Clone,
    /// Write through kept clone `i % clones.len()`.
    CloneWrite(usize, u64, u8),
    /// Drop kept clone `i % clones.len()`.
    DropClone(usize),
    BeginEpoch,
    /// Rewind to checkpoint `i % snapshots.len()` (no-op when none).
    Restore(usize),
}

/// Addresses over four chunks (64 frames × 4 KiB each).
const PHYS_SPAN: u64 = 4 * 64 * PAGE_SIZE;

fn arb_phys_ops() -> impl Strategy<Value = Vec<PhysOp>> {
    proptest::collection::vec(
        prop_oneof![
            Just(PhysOp::AllocFrame),
            (1u64..40).prop_map(PhysOp::AllocContiguous),
            Just(PhysOp::AllocHuge),
            (0..PHYS_SPAN, any::<u8>()).prop_map(|(a, v)| PhysOp::WriteU8(a, v)),
            (0..PHYS_SPAN, any::<u8>()).prop_map(|(a, v)| PhysOp::WriteU8(a, v)),
            (0..PHYS_SPAN - 8, any::<u64>()).prop_map(|(a, v)| PhysOp::WriteU64(a, v)),
            (0..PHYS_SPAN - 9000, 1usize..9000, any::<u8>())
                .prop_map(|(a, n, v)| PhysOp::WriteBytes(a, n, v)),
            (0..PHYS_SPAN - 5000, 1usize..5000).prop_map(|(a, n)| PhysOp::Read(a, n)),
            Just(PhysOp::Snapshot),
            Just(PhysOp::Clone),
            (any::<usize>(), 0..PHYS_SPAN, any::<u8>())
                .prop_map(|(i, a, v)| PhysOp::CloneWrite(i, a, v)),
            any::<usize>().prop_map(PhysOp::DropClone),
            Just(PhysOp::BeginEpoch),
            any::<usize>().prop_map(PhysOp::Restore),
            any::<usize>().prop_map(PhysOp::Restore),
        ],
        1..80,
    )
}

/// Every observable counter of a memory, in one comparable tuple:
/// the six counters (the five public ones plus the pool length) and
/// `resident_frames`.
macro_rules! phys_counters {
    ($m:expr) => {
        (
            $m.cow_faults(),
            $m.restore_frames_copied(),
            $m.rewind_journal_frames(),
            $m.frame_pool_reuses(),
            $m.cow_frames_shared(),
            $m.pool_len(),
            $m.resident_frames(),
        )
    };
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The chunked frame store is the flat one it replaced: over any
    /// sequence of allocations, writes, reads (and `holds` compares),
    /// checkpoints, clones
    /// (kept alive and written through), epochs and interleaved
    /// restores, both layouts read back the same bytes, report the
    /// same counters after every step (including `cow_frames_shared`
    /// while chunks are shared) and rewind the same page lists.
    #[test]
    fn chunked_frames_match_the_flat_store(
        ops in arb_phys_ops(),
        probes in proptest::collection::vec(0..PHYS_SPAN, 1..30),
    ) {
        use crate::flat_model::FlatPhysMemory;
        const CAPACITY: u64 = 1 << 24;
        let mut live = PhysMemory::new(CAPACITY);
        let mut flat = FlatPhysMemory::new(CAPACITY);
        let mut snaps: Vec<(PhysMemory, FlatPhysMemory)> = Vec::new();
        let mut clones: Vec<(PhysMemory, FlatPhysMemory)> = Vec::new();
        for op in ops {
            match op {
                PhysOp::AllocFrame => prop_assert_eq!(live.alloc_frame(), flat.alloc_frame()),
                PhysOp::AllocContiguous(n) => {
                    prop_assert_eq!(live.alloc_contiguous(n), flat.alloc_contiguous(n));
                }
                PhysOp::AllocHuge => prop_assert_eq!(live.alloc_huge(), flat.alloc_huge()),
                PhysOp::WriteU8(a, v) => {
                    live.write_u8(PhysAddr::new(a), v);
                    flat.write_u8(PhysAddr::new(a), v);
                }
                PhysOp::WriteU64(a, v) => {
                    live.write_u64(PhysAddr::new(a), v);
                    flat.write_u64(PhysAddr::new(a), v);
                }
                PhysOp::WriteBytes(a, n, v) => {
                    live.write_bytes(PhysAddr::new(a), &vec![v; n]);
                    flat.write_bytes(PhysAddr::new(a), &vec![v; n]);
                }
                PhysOp::Read(a, n) => {
                    let got = live.read_bytes(PhysAddr::new(a), n);
                    prop_assert_eq!(&got, &flat.read_bytes(PhysAddr::new(a), n));
                    let mut buf = vec![0xa5; n];
                    live.read_into(PhysAddr::new(a), &mut buf);
                    prop_assert_eq!(&buf, &got);
                    // `holds` compares in place: the read bytes match,
                    // and flipping any one of them (first, middle or
                    // last, on either side of a frame edge) does not.
                    prop_assert!(live.holds(PhysAddr::new(a), &got));
                    for i in [0, n / 2, n - 1] {
                        buf[i] ^= 1;
                        prop_assert!(!live.holds(PhysAddr::new(a), &buf));
                        buf[i] ^= 1;
                    }
                }
                PhysOp::Snapshot => snaps.push((live.snapshot(), flat.snapshot())),
                PhysOp::Clone => clones.push((live.clone(), flat.clone())),
                PhysOp::CloneWrite(i, a, v) => {
                    if !clones.is_empty() {
                        let n = clones.len();
                        let (c, f) = &mut clones[i % n];
                        c.write_u8(PhysAddr::new(a), v);
                        f.write_u8(PhysAddr::new(a), v);
                        prop_assert_eq!(phys_counters!(c), phys_counters!(f));
                    }
                }
                PhysOp::DropClone(i) => {
                    if !clones.is_empty() {
                        let n = clones.len();
                        clones.remove(i % n);
                    }
                }
                PhysOp::BeginEpoch => {
                    live.begin_epoch();
                    flat.begin_epoch();
                }
                PhysOp::Restore(i) => {
                    if !snaps.is_empty() {
                        let (s, f) = &snaps[i % snaps.len()];
                        prop_assert_eq!(live.restore_from(s), flat.restore_from(f));
                    }
                }
            }
            prop_assert_eq!(phys_counters!(live), phys_counters!(flat));
        }
        for a in probes {
            prop_assert_eq!(
                live.read_u64(PhysAddr::new(a)).to_le_bytes().to_vec(),
                flat.read_bytes(PhysAddr::new(a), 8)
            );
        }
        for ((s, f), a) in snaps.iter().zip(0..) {
            prop_assert_eq!(phys_counters!(s), phys_counters!(f), "snapshot {}", a);
            for a in (0..PHYS_SPAN).step_by(4093) {
                prop_assert_eq!(s.read_u8(PhysAddr::new(a)), f.read_u8(PhysAddr::new(a)));
            }
        }
        for (c, f) in &clones {
            prop_assert_eq!(phys_counters!(c), phys_counters!(f));
            for a in (0..PHYS_SPAN).step_by(4093) {
                prop_assert_eq!(c.read_u8(PhysAddr::new(a)), f.read_u8(PhysAddr::new(a)));
            }
        }
    }
}

// ----- the row store against a clone-everything table -----

use crate::rows::{RowStore, CHUNK_ROWS};

/// A [`RowStore`] and the flat words it must hold.
#[derive(Debug, Clone)]
struct Modeled {
    store: RowStore<u64>,
    words: Vec<u64>,
}

impl Modeled {
    fn new(rows: usize, width: usize) -> Modeled {
        Modeled {
            store: RowStore::new(rows, width, 0),
            words: vec![0; rows * width],
        }
    }

    /// Write `value` into a row and item, both taken modulo the shape.
    fn write(&mut self, row: usize, item: usize, value: u64) {
        let (row, item) = (row % self.store.rows(), item % self.store.width());
        self.store.row_mut(row)[item] = value;
        self.words[row * self.store.width() + item] = value;
    }

    /// The store holds exactly the model's words.
    fn check(&self) -> Result<(), TestCaseError> {
        let flat: Vec<u64> = self.store.iter_rows().flatten().copied().collect();
        prop_assert_eq!(&flat, &self.words);
        prop_assert!(self.store.logged_rows() <= self.store.rows());
        Ok(())
    }
}

/// One step of the row store model check.
#[derive(Debug, Clone)]
enum RowOp {
    /// Write an item of the live table.
    Write(usize, usize, u64),
    /// Open an epoch without taking a snapshot.
    BeginEpoch,
    /// Open an epoch, then clone the live table (the checkpoint protocol).
    Checkpoint,
    /// Share the live table's owned chunks.
    Seal,
    /// Clone the live table without opening an epoch.
    PlainClone,
    /// Write an item of snapshot `i % snapshots.len()` after it was taken.
    SnapWrite(usize, usize, usize, u64),
    /// Clone snapshot `i % snapshots.len()`, write an item of the clone
    /// and keep it as another snapshot: a fork written through.
    Fork(usize, usize, usize, u64),
    /// Rewind to snapshot `i % snapshots.len()`.
    Restore(usize),
    /// Rewind to an independent table of another shape.
    ForeignRestore,
    /// Return to the reset state.
    Reset,
    /// Reset to the other shape (and back, alternately).
    Reshape,
}

fn arb_row_ops() -> impl Strategy<Value = Vec<RowOp>> {
    let op = (
        0u8..20,
        any::<usize>(),
        0usize..200,
        0usize..4,
        any::<u64>(),
    )
        .prop_map(|(k, i, row, item, value)| match k {
            0..=5 => RowOp::Write(row, item, value),
            6 => RowOp::BeginEpoch,
            7 | 8 => RowOp::Checkpoint,
            9 => RowOp::PlainClone,
            10 => RowOp::SnapWrite(i, row, item, value),
            11..=13 => RowOp::Restore(i),
            14 => RowOp::ForeignRestore,
            15 => RowOp::Reset,
            16 | 17 => RowOp::Seal,
            18 => RowOp::Fork(i, row, item, value),
            _ => RowOp::Reshape,
        });
    proptest::collection::vec(op, 1..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A [`RowStore`] is a table that rewinds by cloning the snapshot
    /// and resets by zeroing every word, however its chunks are shared:
    /// after every step the live table and every snapshot hold their
    /// model's words, so a write to the live table, a snapshot or a
    /// fork never shows in a table it shares chunks with. After every
    /// restore the journal equals the snapshot's; after every reset the
    /// log is empty and a clone of a sealed table owns no chunk. Covers
    /// tables of one chunk and of several, a last chunk padded past the
    /// last row, rows on both sides of a bitmap word, epochs
    /// opened without a snapshot, seals at any point, plain clones and
    /// checkpoints written after they were taken (same token, non-empty
    /// log), and foreign tables and resets of another shape.
    #[test]
    fn row_store_matches_a_clone_everything_table(
        rows in 1usize..130,
        width in 1usize..4,
        other_rows in 1usize..130,
        other_width in 1usize..4,
        ops in arb_row_ops(),
    ) {
        let mut live = Modeled::new(rows, width);
        let mut foreign = Modeled::new(other_rows, other_width);
        foreign.write(1, 0, 7);
        foreign.store.seal();
        let mut snaps: Vec<Modeled> = Vec::new();
        let mut reshapes = 0;
        for op in ops {
            match op {
                RowOp::Write(row, item, value) => live.write(row, item, value),
                RowOp::BeginEpoch => live.store.begin_epoch(),
                RowOp::Checkpoint => {
                    live.store.begin_epoch();
                    snaps.push(live.clone());
                }
                RowOp::Seal => {
                    live.store.seal();
                    prop_assert_eq!(live.store.owned_chunks(), 0);
                    prop_assert_eq!(live.clone().store.owned_chunks(), 0);
                }
                RowOp::PlainClone => snaps.push(live.clone()),
                RowOp::SnapWrite(i, row, item, value) => {
                    if !snaps.is_empty() {
                        let n = snaps.len();
                        snaps[i % n].write(row, item, value);
                    }
                }
                RowOp::Fork(i, row, item, value) => {
                    if !snaps.is_empty() {
                        let mut fork = snaps[i % snaps.len()].clone();
                        fork.write(row, item, value);
                        prop_assert!(fork.store.owned_chunks() >= 1);
                        snaps.push(fork);
                    }
                }
                RowOp::Restore(i) => {
                    if !snaps.is_empty() {
                        let snap = &snaps[i % snaps.len()];
                        live.store.restore_from(&snap.store);
                        live.words.clone_from(&snap.words);
                        prop_assert!(live.store == snap.store);
                        prop_assert_eq!(live.store.journal(), snap.store.journal());
                    }
                }
                RowOp::ForeignRestore => {
                    live.store.restore_from(&foreign.store);
                    live.words.clone_from(&foreign.words);
                    prop_assert_eq!(live.store.journal(), foreign.store.journal());
                }
                RowOp::Reset => {
                    live.store.clear();
                    live.words.fill(0);
                    prop_assert_eq!(live.store.logged_rows(), 0);
                }
                RowOp::Reshape => {
                    let (r, w) = if reshapes % 2 == 0 { (other_rows, other_width) } else { (rows, width) };
                    reshapes += 1;
                    let reshaped = (r, w) != (live.store.rows(), live.store.width());
                    live.store.reset(r, w, 0);
                    live.words = vec![0; r * w];
                    if reshaped {
                        prop_assert_eq!(live.store.owned_chunks(), 0);
                    }
                }
            }
            live.check()?;
            foreign.check()?;
            for snap in &snaps {
                snap.check()?;
            }
        }
        // The chunk count follows the shape.
        let chunks = live.store.rows().div_ceil(CHUNK_ROWS);
        prop_assert!(live.store.owned_chunks() <= chunks);
    }
}

// ----- the flat TLB against the one-`Vec`-per-set model -----------------

/// One step of the flat-TLB model check.
#[derive(Debug, Clone)]
enum TlbOp {
    Lookup(u64, u16),
    Peek(u64, u16),
    /// `(page, asid, frame, version)`.
    Insert(u64, u16, u64, u64),
    Refresh(u64, u16, u64, u64),
    InvalidatePage(u64, u16),
    InvalidateAsid(u16),
    FlushAll,
    /// Take a snapshot of both TLBs.
    Checkpoint,
    /// Rewind both to snapshot `i % snapshots.len()` by `clone_from`.
    Rewind(usize),
    /// Rewind both to a TLB of another shape.
    Foreign,
    /// Rewind both to a new TLB of the same shape (no slots allocated).
    Fresh,
    /// `reset` the flat TLB; the model becomes a new one.
    Reset,
}

fn arb_tlb_ops() -> impl Strategy<Value = Vec<TlbOp>> {
    // Few pages and ASIDs, so sets fill, evict and hit often.
    let op = (
        0u8..18,
        0u64..48,
        0u16..3,
        0u64..1 << 20,
        0u64..4,
        any::<usize>(),
    )
        .prop_map(|(k, page, asid, frame, version, i)| match k {
            0..=3 => TlbOp::Lookup(page, asid),
            4 => TlbOp::Peek(page, asid),
            5..=8 => TlbOp::Insert(page, asid, frame, version),
            9 => TlbOp::Refresh(page, asid, frame, version),
            10 => TlbOp::InvalidatePage(page, asid),
            11 => TlbOp::InvalidateAsid(asid),
            12 => TlbOp::FlushAll,
            13 => TlbOp::Checkpoint,
            14 => TlbOp::Rewind(i),
            15 => TlbOp::Fresh,
            16 => TlbOp::Reset,
            _ => TlbOp::Foreign,
        });
    proptest::collection::vec(op, 1..160)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The flat TLB (`sets × ways` slots and a fill count per set) is
    /// the one-`Vec`-per-set TLB it replaced: every `lookup` and `peek`
    /// returns the same entry, and after every step the hit and miss
    /// counters and the occupancy agree, over inserts that evict,
    /// re-inserts, refreshes, `invlpg`, ASID and full flushes, resets,
    /// and `clone_from` rewinds to snapshots of the same and another
    /// shape and to new TLBs whose slots are not yet allocated.
    #[test]
    fn flat_tlb_matches_nested_model(
        set_bits in 0u32..4,
        ways in 1usize..5,
        ops in arb_tlb_ops(),
    ) {
        let sets = 1usize << set_bits;
        use crate::nested_tlb::NestedTlb;
        use crate::tlb::Tlb;
        let va = |page: u64| VirtAddr::new(page << 12 | page & 0xfff);
        let mut flat = Tlb::new(sets, ways);
        let mut nested = NestedTlb::new(sets, ways);
        let mut foreign = (Tlb::new(8, 2), NestedTlb::new(8, 2));
        for page in 0..5 {
            let pa = PhysAddr::new(page << 12);
            foreign.0.insert(va(page), pa, PageFlags::USER_DATA, 1, 9);
            foreign.1.insert(va(page), pa, PageFlags::USER_DATA, 1, 9);
        }
        // The live TLBs' shape, which a reset keeps.
        let mut shape = (sets, ways);
        let mut snaps: Vec<(Tlb, NestedTlb, (usize, usize))> = Vec::new();
        for op in ops {
            match op {
                TlbOp::Lookup(page, asid) => {
                    prop_assert_eq!(flat.lookup(va(page), asid), nested.lookup(va(page), asid));
                }
                TlbOp::Peek(page, asid) => {
                    prop_assert_eq!(flat.peek(va(page), asid), nested.peek(va(page), asid));
                }
                TlbOp::Insert(page, asid, frame, version) => {
                    let pa = PhysAddr::new(frame << 12);
                    flat.insert(va(page), pa, PageFlags::USER_TEXT, asid, version);
                    nested.insert(va(page), pa, PageFlags::USER_TEXT, asid, version);
                }
                TlbOp::Refresh(page, asid, frame, version) => {
                    let pa = PhysAddr::new(frame << 12);
                    if let Some(slot) = flat.find(va(page), asid) {
                        flat.refresh_at(slot, pa, PageFlags::USER_DATA, version);
                    }
                    nested.refresh(va(page), asid, pa, PageFlags::USER_DATA, version);
                }
                TlbOp::InvalidatePage(page, asid) => {
                    flat.invalidate_page(va(page), asid);
                    nested.invalidate_page(va(page), asid);
                }
                TlbOp::InvalidateAsid(asid) => {
                    flat.invalidate_asid(asid);
                    nested.invalidate_asid(asid);
                }
                TlbOp::FlushAll => {
                    flat.flush_all();
                    nested.flush_all();
                }
                TlbOp::Checkpoint => snaps.push((flat.clone(), nested.clone(), shape)),
                TlbOp::Rewind(i) => {
                    if !snaps.is_empty() {
                        let (f, n, s) = &snaps[i % snaps.len()];
                        flat.clone_from(f);
                        nested.clone_from(n);
                        shape = *s;
                    }
                }
                TlbOp::Foreign => {
                    flat.clone_from(&foreign.0);
                    nested.clone_from(&foreign.1);
                    shape = (8, 2);
                }
                TlbOp::Fresh => {
                    flat.clone_from(&Tlb::new(sets, ways));
                    nested.clone_from(&NestedTlb::new(sets, ways));
                    shape = (sets, ways);
                }
                TlbOp::Reset => {
                    flat.reset();
                    nested = NestedTlb::new(shape.0, shape.1);
                }
            }
            prop_assert_eq!((flat.hits(), flat.misses()), (nested.hits(), nested.misses()));
            prop_assert_eq!(flat.len(), nested.len());
        }
        // Every resident translation, without charging anything.
        for page in 0..48 {
            for asid in 0..3 {
                prop_assert_eq!(flat.peek(va(page), asid), nested.peek(va(page), asid));
            }
        }
    }

    /// `translate_with_flags` is `translate` and `flags_of` from one
    /// walk: same address or fault, and on success the flags of the
    /// mapping that served it, over 4 KiB mappings shadowing huge ones.
    #[test]
    fn translate_with_flags_is_translate_and_flags_of(
        small in proptest::collection::vec((0u64..8, arb_flags()), 0..6),
        huge_flags in arb_flags(),
        page in 0u64..600,
        off in 0u64..PAGE_SIZE,
        access_idx in 0usize..3,
        user in any::<bool>(),
    ) {
        let mut pt = PageTable::new();
        pt.map_2m(VirtAddr::new(0), PhysAddr::new(HUGE_PAGE_SIZE), huge_flags);
        for &(p, flags) in &small {
            pt.map_4k(VirtAddr::new(p * PAGE_SIZE), PhysAddr::new((p + 1) * PAGE_SIZE), flags);
        }
        let va = VirtAddr::new(page * PAGE_SIZE + off);
        let access = [AccessKind::Read, AccessKind::Write, AccessKind::Execute][access_idx];
        let level = if user { PrivilegeLevel::User } else { PrivilegeLevel::Supervisor };
        let fused = pt.translate_with_flags(va, access, level);
        prop_assert_eq!(fused.map(|(pa, _)| pa), pt.translate(va, access, level));
        if let Ok((_, flags)) = fused {
            prop_assert_eq!(Some(flags), pt.flags_of(va));
        }
    }
}
