//! The fetch stage: architectural and wrong-path instruction fetch.

use phantom_mem::{AccessKind, PageFault, VirtAddr, PAGE_SIZE};

use crate::events::PipelineEvent;

use super::Machine;

/// Lines a [`LineSet`] holds without allocating; a wrong path that
/// touches more spills to the heap.
const INLINE_LINES: usize = 16;

/// The cache lines one wrong path has touched, for de-duplication: a
/// linear scan of an inline array, spilling to the heap only past
/// [`INLINE_LINES`] lines.
#[derive(Debug)]
pub(crate) struct LineSet {
    inline: [u64; INLINE_LINES],
    len: usize,
    spill: Vec<u64>,
}

impl LineSet {
    /// An empty set.
    pub(crate) fn new() -> LineSet {
        LineSet {
            inline: [0; INLINE_LINES],
            len: 0,
            spill: Vec::new(),
        }
    }

    /// Add `line`, returning whether it was absent (`IntSet::insert`).
    pub(crate) fn insert(&mut self, line: u64) -> bool {
        if self.inline[..self.len].contains(&line) || self.spill.contains(&line) {
            return false;
        }
        if self.len < INLINE_LINES {
            self.inline[self.len] = line;
            self.len += 1;
        } else {
            self.spill.push(line);
        }
        true
    }
}

impl Machine {
    /// Architecturally fetch the line at `pc`: translate with execute
    /// permission, charge TLB and I-cache timing, and emit
    /// [`PipelineEvent::FetchLine`]. A translation fault is returned to
    /// the caller (the commit stage decides whether it is caught).
    pub(super) fn arch_fetch(&mut self, pc: VirtAddr) -> Result<(), PageFault> {
        let pa = self.translate_charged(pc, AccessKind::Execute)?;
        let (level, lat) = self.caches.access_inst(pa.raw());
        self.cycles += lat;
        self.emit(PipelineEvent::FetchLine {
            va: pc,
            level,
            transient: false,
        });
        Ok(())
    }

    /// Read up to `out.len()` code bytes at `va` into `out` with
    /// execute permission at the current privilege level, stopping at
    /// the first fault; returns how many bytes were read. Every byte of
    /// a 4 KiB page translates alike, so this is one translation and
    /// one slice copy per page, and no allocation.
    pub(crate) fn read_code_bytes(&self, va: VirtAddr, out: &mut [u8]) -> usize {
        let n = out.len();
        let mut done = 0;
        while done < n {
            let addr = va + done as u64;
            let Ok(pa) = self.translate_fast(addr, AccessKind::Execute, self.level) else {
                break;
            };
            let chunk = ((PAGE_SIZE - addr.page_offset()) as usize).min(n - done);
            self.phys.read_into(pa, &mut out[done..done + chunk]);
            done += chunk;
        }
        done
    }

    /// Test oracle for [`read_code_bytes`](Machine::read_code_bytes):
    /// one translation and one byte read per byte (the pre-chunking
    /// implementation).
    #[cfg(test)]
    pub(crate) fn read_code_bytes_per_byte(&self, va: VirtAddr, n: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            match self.translate_fast(va + i as u64, AccessKind::Execute, self.level) {
                Ok(pa) => {
                    let mut byte = [0];
                    self.phys.read_into(pa, &mut byte);
                    out.push(byte[0]);
                }
                Err(_) => break,
            }
        }
        out
    }

    /// Transiently touch the cache line holding `va`: fetch it into the
    /// I-cache and, when `decode_stage` is set, fill the µop cache for
    /// it. `lines` de-duplicates per-window touches. Returns whether
    /// the address was accessible — an inaccessible target (unmapped /
    /// NX / supervisor-only from user) fills nothing, which is
    /// primitive P1's signal.
    pub(super) fn transient_touch(
        &mut self,
        va: VirtAddr,
        decode_stage: bool,
        lines: &mut LineSet,
    ) -> bool {
        let line = va.raw() & !63;
        if !lines.insert(line) {
            return true;
        }
        match self.translate_fast(va, AccessKind::Execute, self.level) {
            Ok(pa) => {
                let (level, _) = self.caches.access_inst(pa.raw());
                self.emit(PipelineEvent::FetchLine {
                    va,
                    level,
                    transient: true,
                });
                if decode_stage {
                    self.uop_cache.fill(va.raw());
                    self.emit(PipelineEvent::UopCacheFill {
                        va,
                        transient: true,
                    });
                }
                true
            }
            Err(_) => false,
        }
    }
}
