//! The decode stage: instruction decode, µop-cache dispatch, and the
//! transient-window policy (everything the decoder can gate).

use std::sync::Arc;

use phantom_bpu::Prediction;
use phantom_isa::decode::decode;
use phantom_isa::{BranchKind, Inst};
use phantom_mem::{AccessKind, IntMap, IntSet, PhysAddr, PrivilegeLevel, VirtAddr};

use crate::events::PipelineEvent;
use crate::resteer::ResteerKind;
use crate::transient::TransientWindow;

use super::{Machine, MachineError};

/// Per-line decoded-instruction cache.
///
/// `decode_at` used to translate and read up to 15 code bytes per step
/// (and per transient µop); hot loops re-decode the same handful of
/// addresses millions of times. The cache memoizes `(pc, privilege) →
/// (inst, len)` — a pure function of the page table, physical memory
/// and privilege level — so a warm step skips translation and byte
/// reads entirely. It is invisible state: no timing, events or
/// architectural results depend on it.
///
/// Coherence: any path that can change code bytes or translations
/// invalidates. Architectural stores and `poke` check `code_frames`
/// (the physical frames backing cached decodes) so data writes stay
/// free; `unmap_range` and the raw `phys_mut`/`page_table_mut`
/// accessors clear conservatively. `map_range` does *not* invalidate:
/// it only maps fresh pages, which can't change a cached (successful)
/// decode — decode failures are never cached.
#[derive(Debug, Clone)]
pub(super) struct DecodeCache {
    /// `Arc`-backed so machine clones and snapshot/restore share the
    /// warm cache with pointer bumps; the first miss after a clone
    /// unshares. Invisible state either way — no timing depends on it.
    entries: Arc<IntMap<(u64, u8), (Inst, u64)>>,
    /// Physical frames backing at least one cached decode.
    code_frames: Arc<IntSet<u64>>,
    enabled: bool,
    hits: u64,
    misses: u64,
}

impl DecodeCache {
    pub(super) fn new() -> DecodeCache {
        DecodeCache {
            entries: Arc::default(),
            code_frames: Arc::default(),
            enabled: true,
            hits: 0,
            misses: 0,
        }
    }

    /// Drop every cached decode (counters survive).
    pub(super) fn invalidate(&mut self) {
        match Arc::get_mut(&mut self.entries) {
            Some(entries) => entries.clear(),
            None => self.entries = Arc::default(),
        }
        match Arc::get_mut(&mut self.code_frames) {
            Some(frames) => frames.clear(),
            None => self.code_frames = Arc::default(),
        }
    }

    pub(super) fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
        self.invalidate();
    }

    pub(super) fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

pub(super) fn level_tag(level: PrivilegeLevel) -> u8 {
    match level {
        PrivilegeLevel::User => 0,
        PrivilegeLevel::Supervisor => 1,
    }
}

impl Machine {
    /// Decode the instruction at `pc` through the per-line cache.
    /// Returns `None` on truncated/unreadable code bytes. Timing- and
    /// event-neutral: hit or miss, the step's observable behaviour is
    /// identical.
    pub(super) fn cached_decode(&mut self, pc: VirtAddr) -> Option<(Inst, u64)> {
        let key = (pc.raw(), level_tag(self.level));
        if self.decode_cache.enabled {
            if let Some(&pair) = self.decode_cache.entries.get(&key) {
                self.decode_cache.hits += 1;
                return Some(pair);
            }
        }
        let bytes = self.read_code_bytes(pc, 15);
        let (inst, len) = decode(&bytes)?;
        let pair = (inst, len as u64);
        if self.decode_cache.enabled {
            self.decode_cache.misses += 1;
            // Remember the frames the decoded bytes live in, so
            // architectural stores into them invalidate. Both
            // translations succeeded inside read_code_bytes.
            for off in [0, bytes.len() as u64 - 1] {
                if let Ok(pa) = self.translate_fast(pc + off, AccessKind::Execute, self.level) {
                    Arc::make_mut(&mut self.decode_cache.code_frames).insert(pa.page_number());
                }
            }
            Arc::make_mut(&mut self.decode_cache.entries).insert(key, pair);
        }
        Some(pair)
    }

    /// Invalidate cached decodes (and overlapping trace blocks) if the
    /// write to `pa` hits a frame that backs one (self-modifying code);
    /// data writes don't pay.
    #[inline]
    pub(super) fn note_code_write(&mut self, pa: PhysAddr) {
        if self.decode_cache.code_frames.contains(&pa.page_number()) {
            self.decode_cache.invalidate();
        }
        self.trace_note_code_write(pa);
    }

    /// Decode-cache accounting for a trace-replayed µop. The replay
    /// already holds the validated `(inst, len)` for `pc`, so a present
    /// entry is a plain hit; an absent one goes through the real miss
    /// path (`cached_decode`) so counters, entries and code frames
    /// evolve exactly as a generic step's decode would.
    pub(super) fn replay_decode_account(&mut self, pc: VirtAddr, inst: Inst, len: u64) {
        if !self.decode_cache.enabled {
            return;
        }
        let key = (pc.raw(), level_tag(self.level));
        if self.decode_cache.entries.contains_key(&key) {
            self.decode_cache.hits += 1;
        } else {
            let _decoded = self.cached_decode(pc);
            debug_assert_eq!(
                _decoded,
                Some((inst, len)),
                "validated trace block disagrees with a fresh decode"
            );
        }
    }

    /// Decode the instruction at `pc`, rejecting truncated and invalid
    /// encodings. Returns the instruction and its length in bytes.
    pub(super) fn decode_at(&mut self, pc: VirtAddr) -> Result<(Inst, u64), MachineError> {
        let (inst, len) = match self.cached_decode(pc) {
            Some(pair) => pair,
            None => return Err(MachineError::TruncatedCode(pc)),
        };
        if let Inst::Invalid { byte } = inst {
            return Err(MachineError::InvalidInstruction { pc, byte });
        }
        Ok((inst, len))
    }

    /// Dispatch µops for `pc`: from the µop cache on a hit, or through
    /// the decoder (filling the µop cache and paying decode latency) on
    /// a miss.
    pub(super) fn uop_dispatch(&mut self, pc: VirtAddr) {
        if self.uop_cache.dispatch_lookup(pc.raw()) {
            self.emit(PipelineEvent::UopDispatch { pc, hit: true });
        } else {
            self.emit(PipelineEvent::UopDispatch { pc, hit: false });
            self.uop_cache.fill(pc.raw());
            self.emit(PipelineEvent::UopCacheFill {
                va: pc,
                transient: false,
            });
            self.cycles += self.profile.decode_latency;
            // SuppressBPOnNonBr makes the frontend wait for decode
            // confirmation before acting on a prediction at a block not
            // yet known to contain a branch — a small bubble on every
            // decoder-path (µop-cache-miss) fetch. This is the §6.3
            // performance cost (0.69% single-core on UnixBench).
            if self.bpu.msr().suppress_bp_on_non_br {
                self.cycles += 1;
            }
        }
    }

    /// Derive the transient window for a misprediction at `inst`, gated
    /// by the active mitigations.
    pub(super) fn window_for(
        &self,
        inst: &Inst,
        pred: Option<&Prediction>,
        resteer: ResteerKind,
    ) -> TransientWindow {
        // Intel jmp*-victim blind spot (§6): no IF/ID signal.
        if self.profile.indirect_victim_blind
            && inst.kind() == BranchKind::Indirect
            && pred.is_some()
        {
            return TransientWindow::suppressed(resteer);
        }
        let mut window = TransientWindow::for_resteer(&self.profile, resteer);
        // AutoIBRS: a restricted prediction may fetch and decode, never
        // execute (O5).
        if pred.is_some_and(|p| p.restricted) {
            window = window.without_execute();
        }
        // SuppressBPOnNonBr: gates execute only, and only when the victim
        // decodes as a non-branch (O4).
        if self.bpu.msr().suppress_bp_on_non_br
            && self.profile.supports_suppress_bp_on_non_br
            && inst.kind() == BranchKind::NotBranch
        {
            window = window.without_execute();
        }
        window
    }
}
