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
        prop_assert_eq!(fast.len(), oracle.len());
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
            prop_assert_eq!(pt.len(), model.small.len() + model.huge.len());
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
