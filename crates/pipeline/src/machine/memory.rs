//! Memory setup helpers, architectural translation timing, and the
//! TLB-backed translation fast paths.

use phantom_isa::asm::Blob;
use phantom_mem::{
    AccessKind, FaultReason, PageFault, PageFlags, PhysAddr, PrivilegeLevel, TlbEntry, VirtAddr,
    PAGE_SIZE,
};

use super::{Machine, MachineError};

/// ASID for `level` (0 = user, 1 = supervisor).
fn asid_for(level: PrivilegeLevel) -> u16 {
    match level {
        PrivilegeLevel::User => 0,
        PrivilegeLevel::Supervisor => 1,
    }
}

/// Translate through a trusted (version-current) TLB entry, applying
/// exactly the permission rules and fault precedence of
/// [`phantom_mem::PageTable::translate`]. The entry's cached flags
/// equal the table's (same version ⇒ unchanged table), so the outcome
/// — physical address or precise fault — is identical to a walk.
fn entry_translate(
    entry: &TlbEntry,
    va: VirtAddr,
    access: AccessKind,
    level: PrivilegeLevel,
) -> Result<PhysAddr, PageFault> {
    let fault = |reason| PageFault {
        addr: va,
        access,
        reason,
    };
    let flags = entry.flags;
    if !flags.contains(PageFlags::PRESENT) {
        return Err(fault(FaultReason::NotPresent));
    }
    if level == PrivilegeLevel::User && !flags.contains(PageFlags::USER) {
        return Err(fault(FaultReason::Privilege));
    }
    match access {
        AccessKind::Read => {}
        AccessKind::Write => {
            if !flags.contains(PageFlags::WRITE) {
                return Err(fault(FaultReason::NotWritable));
            }
        }
        AccessKind::Execute => {
            if !flags.contains(PageFlags::EXEC) {
                return Err(fault(FaultReason::NotExecutable));
            }
        }
    }
    // TLB entries are 4 KiB-granular even under a huge mapping (the
    // frame is the page base of the fill translation), so the page
    // offset reconstructs the walk's result for either page size.
    Ok(entry.frame + va.page_offset())
}

impl Machine {
    /// Page-walk cost charged on a TLB miss, in cycles.
    pub const PAGE_WALK_CYCLES: u64 = 20;

    /// Translate `va` without charging timing or touching TLB state:
    /// a non-perturbing [`Tlb::peek`](phantom_mem::Tlb::peek) serves
    /// version-current entries, everything else falls back to the
    /// `BTreeMap` page walk. Observationally identical to calling
    /// `page_table.translate` directly — for the uncharged call sites
    /// (setup pokes, wrong-path probes, return-address resolution).
    pub(super) fn translate_fast(
        &self,
        va: VirtAddr,
        access: AccessKind,
        level: PrivilegeLevel,
    ) -> Result<PhysAddr, PageFault> {
        if let Some(entry) = self.tlb.peek(va, asid_for(level)) {
            if entry.pt_version == self.page_table.version() {
                return entry_translate(entry, va, access, level);
            }
        }
        self.page_table.translate(va, access, level)
    }

    /// Translate `va` for an architectural access at the current
    /// privilege level, charging TLB hit/miss timing. State evolution
    /// (cycle counter, TLB hit/miss counters, LRU order, fills) is
    /// bit-identical to the pre-fast-path sequence `page_table.translate`
    /// then lookup-and-fill-on-miss; the page walk itself only runs when
    /// no version-current TLB entry covers `va`.
    ///
    /// # Errors
    ///
    /// Returns the precise [`PageFault`] of the failed translation; the
    /// fault path leaves TLB state and the cycle counter untouched, as
    /// the walk-first ordering did.
    pub(super) fn translate_charged(
        &mut self,
        va: VirtAddr,
        access: AccessKind,
    ) -> Result<PhysAddr, PageFault> {
        let level = self.level;
        let asid = asid_for(level);
        let version = self.page_table.version();
        if let Some(entry) = self.tlb.peek(va, asid) {
            if entry.pt_version == version {
                let resolved = entry_translate(entry, va, access, level);
                if resolved.is_ok() {
                    // The walk would have succeeded and the charged
                    // lookup would have hit: count the hit and refresh
                    // LRU, exactly as before.
                    self.tlb.lookup(va, asid);
                }
                // On a fault the walk failed *before* any TLB charge, so
                // the fault path touches nothing.
                return resolved;
            }
        }
        let pa = self.page_table.translate(va, access, level)?;
        if self.tlb.lookup(va, asid).is_none() {
            self.cycles += Self::PAGE_WALK_CYCLES;
            let flags = self.page_table.flags_of(va).unwrap_or(PageFlags::NONE);
            self.tlb.insert(va, pa, flags, asid, version);
        } else {
            // A resident entry whose fill predates the last page-table
            // mutation: the hit (and its timing) is architecturally
            // real, but the cached translation must be revalidated
            // before the fast path may trust it. Content-only update —
            // no counter, clock or LRU movement.
            let flags = self.page_table.flags_of(va).unwrap_or(PageFlags::NONE);
            self.tlb.refresh(va, asid, pa, flags, version);
        }
        Ok(pa)
    }

    /// Map `[va, va+len)` with fresh frames and the given flags.
    ///
    /// Idempotent over pages already mapped with the *same* flags; a
    /// page mapped with *different* flags is an error — silently keeping
    /// the old flags would blur the X-vs-NX distinction primitives
    /// P1/P2 depend on. The range is validated before any page is
    /// mapped, so a flag mismatch leaves the machine unchanged. Use
    /// [`phantom_mem::PageTable::set_flags`] (via
    /// [`Machine::page_table_mut`]) to change flags deliberately.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::OutOfMemory`] if physical memory runs
    /// out, or [`MachineError::FlagMismatch`] if any page in the range
    /// is already mapped with different flags.
    pub fn map_range(
        &mut self,
        va: VirtAddr,
        len: u64,
        flags: PageFlags,
    ) -> Result<(), MachineError> {
        let start = va.page_base();
        let end = (va + len + PAGE_SIZE - 1).page_base();
        let mut page = start;
        while page < end {
            if let Some(existing) = self.page_table.flags_of(page) {
                if existing != flags {
                    return Err(MachineError::FlagMismatch {
                        va: page,
                        existing,
                        requested: flags,
                    });
                }
            }
            page = page + PAGE_SIZE;
        }
        let mut page = start;
        while page < end {
            if self.page_table.flags_of(page).is_none() {
                let frame = self.phys.alloc_frame()?;
                self.page_table.map_4k(page, frame, flags);
            }
            page = page + PAGE_SIZE;
        }
        // No decode invalidation: mapping *fresh* (zero) pages cannot
        // change any successful decode — a decoded instruction depends
        // only on its own bytes (decoding is prefix-closed, so newly
        // readable bytes past a former truncation point can't
        // reinterpret it), and those bytes' translations are unchanged.
        Ok(())
    }

    /// Unmap every 4 KiB page of `[va, va+len)` that is mapped,
    /// dropping the mappings and their TLB entries. Frames are not
    /// reused (the allocator is a bump allocator), but the virtual
    /// range becomes free for remapping. Returns the number of pages
    /// unmapped.
    pub fn unmap_range(&mut self, va: VirtAddr, len: u64) -> usize {
        let start = va.page_base();
        let end = (va + len + PAGE_SIZE - 1).page_base();
        let mut page = start;
        let mut unmapped = 0;
        while page < end {
            if self.page_table.unmap_4k(page).is_some() {
                unmapped += 1;
                for asid in [0, 1] {
                    self.tlb.invalidate_page(page, asid);
                }
            }
            page = page + PAGE_SIZE;
        }
        if unmapped > 0 {
            self.decode_cache.invalidate();
        }
        unmapped
    }

    /// Load an assembled blob: map its pages with `flags` and copy the
    /// bytes.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::OutOfMemory`] if physical memory runs out.
    pub fn load_blob(&mut self, blob: &Blob, flags: PageFlags) -> Result<(), MachineError> {
        self.map_range(
            VirtAddr::new(blob.base),
            blob.bytes.len().max(1) as u64,
            flags,
        )?;
        self.poke(VirtAddr::new(blob.base), &blob.bytes);
        Ok(())
    }

    /// Write bytes through the page table, ignoring permission bits
    /// (setup/debug only — not an architectural store).
    ///
    /// Chunks that match the current contents byte-for-byte are skipped
    /// entirely: no write, no copy-on-write fault, no cache
    /// invalidation. Re-poking identical setup bytes every trial (the
    /// campaign training loop does) therefore keeps the decode cache
    /// warm, soundly: its validity is a pure function of the bytes and
    /// translations, both unchanged. Chunks that *do* change go through
    /// `note_code_write`-style frame-precise invalidation of the decode
    /// cache (the self-modifying-code hook in `decode.rs`).
    ///
    /// # Panics
    ///
    /// Panics if any page in the range is unmapped.
    pub fn poke(&mut self, va: VirtAddr, bytes: &[u8]) {
        // Translate once per page and write page-sized chunks.
        let mut off = 0usize;
        while off < bytes.len() {
            let addr = va + off as u64;
            let pa = self
                .translate_fast(addr, AccessKind::Read, PrivilegeLevel::Supervisor)
                .unwrap_or_else(|e| panic!("poke at unmapped {addr}: {e}"));
            let in_page = (PAGE_SIZE - addr.page_offset()) as usize;
            let chunk = &bytes[off..off + in_page.min(bytes.len() - off)];
            if self.phys.read_bytes(pa, chunk.len()) != chunk {
                self.note_code_write(pa);
                self.phys.write_bytes(pa, chunk);
            }
            off += chunk.len();
        }
    }

    /// Read bytes through the page table, ignoring permission bits
    /// (setup/debug only), faulting precisely at the first unreadable
    /// page — a range straddling into an unmapped page never silently
    /// joins bytes from a physically adjacent frame.
    ///
    /// # Errors
    ///
    /// Returns the [`PageFault`] of the first untranslatable page.
    pub fn try_peek(&self, va: VirtAddr, len: usize) -> Result<Vec<u8>, PageFault> {
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let addr = va + out.len() as u64;
            let pa = self.translate_fast(addr, AccessKind::Read, PrivilegeLevel::Supervisor)?;
            let in_page = (PAGE_SIZE - addr.page_offset()) as usize;
            let chunk = in_page.min(len - out.len());
            out.extend(self.phys.read_bytes(pa, chunk));
        }
        Ok(out)
    }

    /// Read bytes through the page table, ignoring permission bits
    /// (setup/debug only).
    ///
    /// # Panics
    ///
    /// Panics if any page in the range is unmapped.
    pub fn peek(&self, va: VirtAddr, len: usize) -> Vec<u8> {
        self.try_peek(va, len)
            .unwrap_or_else(|e| panic!("peek at unmapped {}: {e}", e.addr))
    }

    /// Write a u64 via [`Machine::poke`].
    pub fn poke_u64(&mut self, va: VirtAddr, value: u64) {
        self.poke(va, &value.to_le_bytes());
    }

    /// Read a u64 via [`Machine::try_peek`], faulting if either page the
    /// read touches is unmapped.
    ///
    /// # Errors
    ///
    /// Returns the [`PageFault`] of the first untranslatable page.
    pub fn try_peek_u64(&self, va: VirtAddr) -> Result<u64, PageFault> {
        Ok(u64::from_le_bytes(
            self.try_peek(va, 8)?.try_into().expect("len-8 peek"),
        ))
    }

    /// Read a u64 via [`Machine::peek`].
    ///
    /// # Panics
    ///
    /// Panics if either page the read touches is unmapped.
    pub fn peek_u64(&self, va: VirtAddr) -> u64 {
        self.try_peek_u64(va)
            .unwrap_or_else(|e| panic!("peek at unmapped {}: {e}", e.addr))
    }

    /// Architectural u64 read at `va` honoring *virtual* page
    /// boundaries: the bytes come from the pages `va` maps through, and
    /// a read straddling into an unmapped or protected page faults
    /// precisely instead of silently reading the physically adjacent
    /// frame (`PhysMemory::read_u64` knows only frame adjacency). This
    /// is the `Ret` stack-read path — a stack pointer parked 4 bytes
    /// below an unmapped page must fault, not return a garbage target.
    /// Non-perturbing: uses [`translate_fast`](Machine::translate_fast)
    /// only.
    pub(super) fn read_u64_virt(
        &self,
        va: VirtAddr,
        access: AccessKind,
        level: PrivilegeLevel,
    ) -> Result<u64, PageFault> {
        let pa = self.translate_fast(va, access, level)?;
        let in_page = (PAGE_SIZE - va.page_offset()) as usize;
        if in_page >= 8 {
            return Ok(self.phys.read_u64(pa));
        }
        let pa2 = self.translate_fast((va + 8u64).page_base(), access, level)?;
        let mut bytes = self.phys.read_bytes(pa, in_page);
        bytes.extend(self.phys.read_bytes(pa2, 8 - in_page));
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }
}
