//! The trace/superblock engine: straight-line replay of hot basic
//! blocks.
//!
//! The campaign hot loop (`TrialRunner` → `System::syscall` →
//! [`Machine::run`]) retires the same short instruction sequences
//! millions of times. The generic [`Machine::step`] re-derives
//! everything per instruction — translation, code-byte reads, decode,
//! window classification — even though the decode cache already proves
//! the answers never change while the code and page table stay put.
//! This module lifts that observation one level up: it records a hot
//! basic block once into a compact µop IR (a [`TraceBlock`]), validates
//! the recording against cheap content stamps at lookup, and then
//! replays the whole block as a straight-line run that *mirrors
//! [`Machine::step`] side effect for side effect*.
//!
//! # Bit-identity contract
//!
//! Replay is a host-performance optimization only. Cycles, PMU
//! counters, decode-/µop-cache statistics, architectural state and the
//! `PipelineEvent` stream are bit-identical with the engine on or off;
//! only the host wall-clock changes (mirroring the decode cache's
//! contract, one level up). Attached sinks observe the same events in
//! the same order either way — the replay loop emits every event the
//! stage machine would (fetch, µop dispatch, resteer, transient and
//! retirement), which `machine::tests` enforces by comparing full
//! recorded streams. The engine earns the rest of the contract by
//! *bailing out* to the stage machine at anything it cannot prove it
//! replays exactly:
//!
//! * block validation failure — page-table stamp, BTB content
//!   generation, MSR state, SMT thread (see [`TraceBlock`]);
//! * a fetch fault (bails *before* any state is touched — the
//!   charged-translation fault path mutates nothing);
//! * a branch misprediction — the full misprediction tail (resteer
//!   event and latency, transient window, wrong-path run) executes
//!   inline first, then the replay conservatively ends;
//! * a caught data fault or any other control-flow redirect (detected
//!   by the next-µop PC check);
//! * a self-modifying-code write landing in a traced frame mid-replay
//!   (detected by the [`TraceCache::generation`] check —
//!   `note_code_write` invalidates overlapping blocks);
//! * fences, syscalls, `sysret` and `hlt` — never recorded into blocks
//!   at all, so they always take the generic path;
//! * snapshot/restore boundaries — restore invalidates blocks
//!   overlapping frames the rewind copied back, and revalidation
//!   (below) covers everything else.
//!
//! # Keying and validation
//!
//! Blocks are keyed by `(fetch VA, privilege tag)` and stamped with the
//! page-table *class* versions (user and kernel half — see
//! `PageTable::class_version`; only the halves the block's code pages
//! touch gate validity, so kernel-text blocks ride out the user-half
//! mapping churn every campaign trial causes), the BTB content
//! generation, the MSR state and the SMT thread at record time. The
//! stamps are *globally unique* (process-wide counters), so a stamp
//! match after any sequence of snapshot/restore rewinds still proves
//! content equality. On a
//! page-table stamp mismatch the block's code pages are re-translated:
//! same frames ⇒ restamp, anything else ⇒ invalidate. The predictor
//! context (BTB content generation, MSR, SMT thread) is stamped but
//! never *revalidated*: while every stamp matches, a µop whose span
//! provably had no visible BTB hit skips `predict_window` entirely
//! during replay — the call is side-effect-free in that case, and the
//! skip is where the bulk of the replay win comes from — and on any
//! drift replay simply makes the live `predict_window` call exactly as
//! `step()` would, bit-identically. (Re-stamping the flags eagerly
//! would cost a BTB probe per µop every time training bumps the
//! generation, which campaign trials do constantly.)

use std::sync::Arc;

use phantom_bpu::MsrState;
use phantom_isa::decode::decode;
use phantom_isa::{BranchKind, Inst};
use phantom_mem::{AccessKind, IntMap, IntSet, PhysAddr, PrivilegeLevel, VirtAddr};

use crate::events::PipelineEvent;
use crate::resteer::{classify_predicted, classify_unpredicted, ResteerKind, SpeculationVerdict};
use crate::transient::TransientReport;

use super::decode::level_tag;
use super::{Machine, MachineError};

/// Lookups at a block head before recording kicks in. Cold code never
/// pays the recording walk; anything the campaign loop touches this
/// often is worth a block.
const HEAT_THRESHOLD: u32 = 8;

/// Hard cap on µops per block (blocks end at the first branch anyway;
/// this bounds pathological branch-free runs).
const MAX_BLOCK_UOPS: usize = 64;

/// One recorded µop: the decoded instruction at its recorded PC.
#[derive(Debug, Clone, Copy)]
struct TraceUop {
    pc: VirtAddr,
    inst: Inst,
    len: u64,
}

/// A recorded superblock: one hot basic block in straight-line µop IR.
/// Immutable once recorded — everything that drifts with machine state
/// (stamps, per-µop predictor flags) lives in the cache's [`TraceEntry`]
/// instead, so revalidation never clones the block.
#[derive(Debug)]
struct TraceBlock {
    /// Privilege level the block was recorded at (also in the key tag;
    /// kept here for revalidation translations).
    level: PrivilegeLevel,
    uops: Vec<TraceUop>,
    /// `(page base VA, physical frame number)` for every page holding
    /// the block's code bytes — the revalidation and SMC surface.
    code_pages: Vec<(VirtAddr, u64)>,
    /// Whether any code page lies in the user (bit 63 clear) and/or
    /// kernel half — selects which page-table class stamps gate
    /// validity, so kernel-text blocks survive user-half mapping churn
    /// (every campaign trial maps attacker pages) without a walk.
    uses_user: bool,
    uses_kernel: bool,
}

/// The mutable cache entry wrapping an immutable [`TraceBlock`]: the
/// content stamps and the per-µop "no visible BTB hit" flags (bit *i* =
/// µop *i*; [`MAX_BLOCK_UOPS`] is exactly 64). Restamping mutates this
/// in place — forks sharing the `Arc`'d block each restamp their own
/// entry for free.
#[derive(Debug, Clone)]
struct TraceEntry {
    /// SMT thread the µop flags were stamped for.
    thread: u8,
    /// MSR state the µop flags were stamped for.
    msr: MsrState,
    /// Page-table class stamps ([`phantom_mem::PageTable::class_version`]) for the
    /// user and kernel halves: a match on every half the block's code
    /// pages touch ⇒ every translation the block depends on is
    /// unchanged.
    pt_user: u64,
    pt_kernel: u64,
    /// BTB content-generation stamp: match ⇒ the `no_visible_hit` flags
    /// are still exact.
    btb_generation: u64,
    /// CBP content-generation stamp. The CBP never makes a hidden
    /// window visible (direction only gates *served* BTB hits), so this
    /// is conservative — a stale stamp forces a live `predict_window`
    /// call, which is pure when it returns `None` — but it keeps every
    /// predictor structure covered by the same stamped-not-revalidated
    /// contract.
    cbp_generation: u64,
    /// Bit *i* set ⇔ at stamp time no visible BTB entry covered µop
    /// *i*'s span for (level, thread, MSR) — `predict_window` would
    /// return `None` without touching any predictor state, so replay
    /// may skip the call while the BTB generation still matches.
    no_visible_hit: u64,
    block: Arc<TraceBlock>,
}

/// The per-machine trace cache. Cloned with the machine (blocks are
/// `Arc`-shared, so forks inherit a warm cache for pointer bumps);
/// deliberately *not* rewound by [`Machine::restore`] — the globally
/// unique stamps let surviving blocks revalidate against the restored
/// content instead.
#[derive(Debug, Clone)]
pub(super) struct TraceCache {
    enabled: bool,
    blocks: IntMap<(u64, u8), TraceEntry>,
    /// Union of the frames backing any block's code bytes, for the O(1)
    /// SMC check in `note_code_write`.
    code_frames: IntSet<u64>,
    /// Lookup-miss counts per candidate block head.
    heat: IntMap<(u64, u8), u32>,
    /// Bumped on every invalidation; an in-flight replay that observes
    /// a bump bails before its next µop (its block may be stale).
    generation: u64,
    hits: u64,
    bailouts: u64,
    invalidations: u64,
}

impl TraceCache {
    pub(super) fn new(enabled: bool) -> TraceCache {
        TraceCache {
            enabled,
            blocks: IntMap::default(),
            code_frames: IntSet::default(),
            heat: IntMap::default(),
            generation: 0,
            hits: 0,
            bailouts: 0,
            invalidations: 0,
        }
    }

    /// `(hits, bailouts, invalidations)` since construction.
    pub(super) fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.bailouts, self.invalidations)
    }

    fn clear(&mut self) {
        self.blocks.clear();
        self.code_frames.clear();
        self.heat.clear();
        self.generation += 1;
    }
}

/// What a block replay accomplished before returning to the run loop.
pub(super) struct ReplayOutcome {
    /// Architectural steps retired (≥ 1).
    pub(super) steps: u64,
    /// A `hlt` retired (never set today — halts are not recorded into
    /// blocks — but handled for robustness).
    pub(super) halted: bool,
    /// Transient reports in program order, exactly as the equivalent
    /// `step()` sequence would have produced.
    pub(super) transients: Vec<TransientReport>,
}

impl Machine {
    // ----- public knobs ----------------------------------------------

    /// Enable or disable the trace/superblock engine on this machine
    /// (enabled by default). Disabling selects the plain stage machine,
    /// the reference semantics replay is checked against — results are
    /// bit-identical either way, only host wall-clock changes. Toggling
    /// drops all recorded blocks; the counters survive.
    ///
    /// The `PHANTOM_TRACE_CACHE=0` environment variable disables the
    /// engine at construction. It is a process-level setting: boot
    /// templates (see `phantom_kernel::boot_cache`) capture the value
    /// seen at their first boot and every later instance inherits it,
    /// so changing the variable mid-process has no reliable effect.
    /// Use this setter for in-process A/B runs.
    pub fn set_trace_cache_enabled(&mut self, enabled: bool) {
        self.trace_cache.enabled = enabled;
        self.trace_cache.clear();
    }

    /// Trace-engine `(hits, bailouts, invalidations)` since
    /// construction. A hit is a fully replayed block; a bailout is a
    /// replay abandoned early (including before its first µop); an
    /// invalidation is a recorded block dropped for staleness.
    pub fn trace_stats(&self) -> (u64, u64, u64) {
        self.trace_cache.stats()
    }

    // ----- invalidation ----------------------------------------------

    /// Drop recorded blocks whose code bytes live in the written frame.
    /// Called from `note_code_write` on every architectural store and
    /// changed-byte `poke` chunk; the `code_frames` check keeps data
    /// writes free.
    #[inline]
    pub(super) fn trace_note_code_write(&mut self, pa: PhysAddr) {
        if self.trace_cache.code_frames.contains(&pa.page_number()) {
            self.trace_invalidate_frames(&[pa.page_number()]);
        }
    }

    /// Drop recorded blocks whose code bytes live in any of `frames`
    /// (physical frame numbers). Restore feeds this the frames a rewind
    /// copied back.
    pub(super) fn trace_invalidate_frames(&mut self, frames: &[u64]) {
        let touched = frames
            .iter()
            .any(|f| self.trace_cache.code_frames.contains(f));
        if !touched {
            return;
        }
        let before = self.trace_cache.blocks.len();
        self.trace_cache
            .blocks
            .retain(|_, e| !e.block.code_pages.iter().any(|(_, f)| frames.contains(f)));
        let removed = (before - self.trace_cache.blocks.len()) as u64;
        if removed == 0 {
            return;
        }
        self.trace_cache.invalidations += removed;
        self.trace_cache.generation += 1;
        let mut live = IntSet::default();
        for entry in self.trace_cache.blocks.values() {
            live.extend(entry.block.code_pages.iter().map(|&(_, f)| f));
        }
        self.trace_cache.code_frames = live;
    }

    /// Drop every recorded block (raw `phys_mut`/`page_table_mut`
    /// access — anything could have changed).
    pub(super) fn trace_invalidate_all(&mut self) {
        let removed = self.trace_cache.blocks.len() as u64;
        self.trace_cache.invalidations += removed;
        self.trace_cache.clear();
    }

    // ----- lookup / record / validate --------------------------------

    /// Offer the trace engine up to `budget` architectural steps at the
    /// current PC. `Ok(Some(_))` means at least one step retired with
    /// effects bit-identical to the same number of [`Machine::step`]
    /// calls; `Ok(None)` means the stage machine should take the next
    /// step.
    ///
    /// # Errors
    ///
    /// Exactly the [`MachineError`]s the equivalent `step()` sequence
    /// would have returned (unhandled faults mid-replay propagate).
    pub(super) fn try_trace_step(
        &mut self,
        budget: u64,
    ) -> Result<Option<ReplayOutcome>, MachineError> {
        if !self.trace_cache.enabled {
            return Ok(None);
        }
        let Some(entry) = self.trace_entry_at(self.pc) else {
            return Ok(None);
        };
        if entry.block.uops.len() as u64 > budget {
            // Partial-block replay would complicate the hit/bailout
            // accounting for no win; let the stage machine finish the
            // run's tail.
            return Ok(None);
        }
        self.replay_block(&entry)
    }

    /// A validated cache entry starting at `pc`, recording one if `pc`
    /// has warmed past the heat threshold. The returned entry is a
    /// cheap copy (stamps + `Arc` bump) so replay doesn't hold a borrow
    /// of the cache.
    fn trace_entry_at(&mut self, pc: VirtAddr) -> Option<TraceEntry> {
        let key = (pc.raw(), level_tag(self.level));
        // Fast path: recorded and the page-table class stamps current
        // for every half the block's code lives in — one lookup.
        // (Predictor-context stamps never gate a lookup; see
        // `trace_validate`.)
        if let Some(entry) = self.trace_cache.blocks.get(&key) {
            if (!entry.block.uses_user || entry.pt_user == self.page_table.class_version(false))
                && (!entry.block.uses_kernel
                    || entry.pt_kernel == self.page_table.class_version(true))
            {
                return Some(entry.clone());
            }
            return self.trace_validate(key);
        }
        let heat = self.trace_cache.heat.entry(key).or_insert(0);
        *heat += 1;
        if *heat < HEAT_THRESHOLD {
            return None;
        }
        match self.trace_record(pc) {
            Some(entry) => {
                for &(_, frame) in &entry.block.code_pages {
                    self.trace_cache.code_frames.insert(frame);
                }
                self.trace_cache.heat.remove(&key);
                self.trace_cache.blocks.insert(key, entry.clone());
                Some(entry)
            }
            None => {
                // Unrecordable head (terminator or undecodable first
                // instruction): restart the warmup so the next attempt
                // is a threshold away instead of every step.
                self.trace_cache.heat.insert(key, 0);
                None
            }
        }
    }

    /// Revalidate the entry at `key` against live content, restamping
    /// in place where the content still matches and dropping it where
    /// it doesn't. Restamps touch only the entry's stamp words — the
    /// `Arc`'d block itself is immutable, so no clone ever happens.
    fn trace_validate(&mut self, key: (u64, u8)) -> Option<TraceEntry> {
        // Page-table class stamps: a match on every half the block's
        // code touches proves its translations unchanged. On mismatch,
        // re-translate the code pages — identical frames mean the bytes
        // the block decoded are still the bytes fetch would see (byte
        // *content* changes go through note_code_write or full
        // invalidation, never silently).
        let pt_user = self.page_table.class_version(false);
        let pt_kernel = self.page_table.class_version(true);
        let entry = self.trace_cache.blocks.get(&key)?;
        let stale = (entry.block.uses_user && entry.pt_user != pt_user)
            || (entry.block.uses_kernel && entry.pt_kernel != pt_kernel);
        if stale {
            let block = Arc::clone(&entry.block);
            let same_frames = block.code_pages.iter().all(|&(page, frame)| {
                self.translate_fast(page, AccessKind::Execute, block.level)
                    .is_ok_and(|pa| pa.page_number() == frame)
            });
            if !same_frames {
                self.trace_cache.blocks.remove(&key);
                self.trace_cache.invalidations += 1;
                self.trace_cache.generation += 1;
                let mut live = IntSet::default();
                for e in self.trace_cache.blocks.values() {
                    live.extend(e.block.code_pages.iter().map(|&(_, f)| f));
                }
                self.trace_cache.code_frames = live;
                return None;
            }
            if let Some(entry) = self.trace_cache.blocks.get_mut(&key) {
                entry.pt_user = pt_user;
                entry.pt_kernel = pt_kernel;
            }
        }

        // Predictor context (BTB generation, MSR, thread) is *not*
        // revalidated here: a stale stamp merely disables the per-µop
        // `predict_window` skip, and replay then makes the live call —
        // exactly what `step()` does, bit-identically. Re-stamping the
        // flags eagerly would cost a `window_has_visible_hit` probe per
        // µop per predictor drift, which on training-heavy loops (every
        // campaign trial retrains the BTB) is more than the skip saves.
        self.trace_cache.blocks.get(&key).cloned()
    }

    /// Statically decode one basic block starting at `start`. Pure
    /// reads only — nothing about the machine changes. Terminators
    /// (syscall/sysret/hlt/fences/invalid) end the block *exclusive*;
    /// the first branch ends it *inclusive*.
    fn trace_record(&self, start: VirtAddr) -> Option<TraceEntry> {
        let mut uops = Vec::new();
        let mut no_visible_hit = 0u64;
        let mut code_pages: Vec<(VirtAddr, u64)> = Vec::new();
        let mut cur = start;
        while uops.len() < MAX_BLOCK_UOPS {
            let bytes = self.read_code_bytes(cur, 15);
            let Some((inst, len)) = decode(&bytes) else {
                break;
            };
            let len = len as u64;
            if matches!(
                inst,
                Inst::Syscall
                    | Inst::Sysret
                    | Inst::Halt
                    | Inst::Lfence
                    | Inst::Mfence
                    | Inst::Invalid { .. }
            ) {
                break;
            }
            // Record the frames backing this µop's bytes (first and
            // last byte bound the page span; instructions are ≤ 15 B).
            let mut pages_ok = true;
            for va in [cur, cur + (len - 1)] {
                let page = va.page_base();
                if code_pages.iter().any(|&(p, _)| p == page) {
                    continue;
                }
                match self.translate_fast(page, AccessKind::Execute, self.level) {
                    Ok(pa) => code_pages.push((page, pa.page_number())),
                    Err(_) => {
                        pages_ok = false;
                        break;
                    }
                }
            }
            if !pages_ok {
                break;
            }
            if !self
                .bpu
                .window_has_visible_hit(cur, len, self.level, self.thread)
            {
                no_visible_hit |= 1 << uops.len();
            }
            let is_branch = inst.kind() != BranchKind::NotBranch;
            uops.push(TraceUop { pc: cur, inst, len });
            if is_branch {
                break;
            }
            cur = cur + len;
        }
        if uops.is_empty() {
            return None;
        }
        let uses_user = code_pages.iter().any(|&(p, _)| p.raw() >> 63 == 0);
        let uses_kernel = code_pages.iter().any(|&(p, _)| p.raw() >> 63 != 0);
        Some(TraceEntry {
            thread: self.thread,
            msr: self.bpu.msr(),
            pt_user: self.page_table.class_version(false),
            pt_kernel: self.page_table.class_version(true),
            btb_generation: self.bpu.btb_generation(),
            cbp_generation: self.bpu.cbp_generation(),
            no_visible_hit,
            block: Arc::new(TraceBlock {
                level: self.level,
                uops,
                code_pages,
                uses_user,
                uses_kernel,
            }),
        })
    }

    // ----- replay ----------------------------------------------------

    /// Replay the entry's µops, mirroring [`Machine::step`] stage for
    /// stage, until the block ends or a bail-out condition fires.
    fn replay_block(&mut self, entry: &TraceEntry) -> Result<Option<ReplayOutcome>, MachineError> {
        let block = &*entry.block;
        let entry_generation = self.trace_cache.generation;
        let mut out = ReplayOutcome {
            steps: 0,
            halted: false,
            transients: Vec::new(),
        };
        for (i, uop) in block.uops.iter().enumerate() {
            // Bail-out checks, both before any state is touched: an SMC
            // store earlier in this replay invalidated traced code, or
            // the previous µop redirected control flow (caught data
            // fault → handler) off the recorded straight line.
            if self.trace_cache.generation != entry_generation || self.pc != uop.pc {
                break;
            }
            let (pc, inst, len) = (uop.pc, uop.inst, uop.len);

            // --- Instruction fetch (mirrors `arch_fetch`). ---
            let pa = match self.translate_charged(pc, AccessKind::Execute) {
                Ok(pa) => pa,
                // The charged-translation fault path mutates nothing,
                // so bailing here lets step() take the fault from
                // scratch, bit-identically.
                Err(_) => break,
            };
            let (level, lat) = self.caches.access_inst(pa.raw());
            self.cycles += lat;
            self.emit(PipelineEvent::FetchLine {
                va: pc,
                level,
                transient: false,
            });

            // --- Decode and µop dispatch. ---
            self.replay_decode_account(pc, inst, len);
            self.uop_dispatch(pc);

            // --- Pre-decode prediction for this instruction's span.
            // While the full predictor context (BTB and CBP content
            // generations, MSR, thread) still matches the stamps, a stamped
            // `no_visible_hit` proves `predict_window` would return
            // `None` without any side effect — skip it. Any drift makes
            // the live call instead, exactly as `step()` would. ---
            let pred = if entry.no_visible_hit & (1 << i) != 0
                && self.bpu.btb_generation() == entry.btb_generation
                && self.bpu.cbp_generation() == entry.cbp_generation
                && self.thread == entry.thread
                && self.bpu.msr() == entry.msr
            {
                None
            } else {
                self.bpu.predict_window(pc, len, self.level, self.thread)
            };

            // --- Resolve, classify, run the wrong path (mirrors
            // `step()` exactly, inline). ---
            let (taken, actual_target) = self.resolve_branch(&inst, pc)?;
            let verdict = match &pred {
                Some(p) => classify_predicted(p, &inst, actual_target, taken),
                None => classify_unpredicted(&inst, pc, taken),
            };
            let mispredicted = verdict.is_misprediction();
            if let SpeculationVerdict::Mispredicted {
                resteer,
                transient_target,
            } = verdict
            {
                self.emit(PipelineEvent::Resteer {
                    pc,
                    kind: resteer,
                    target: transient_target,
                });
                match resteer {
                    ResteerKind::Frontend => self.cycles += self.profile.frontend_resteer_latency,
                    ResteerKind::Backend => self.cycles += self.profile.backend_resteer_latency,
                }
                let window = self.window_for(&inst, pred.as_ref(), resteer);
                out.transients.push(match transient_target {
                    Some(target) => self.run_transient(target, window),
                    None => TransientReport {
                        window: Some(window),
                        ..TransientReport::none()
                    },
                });
            }

            // --- Architectural execute and retire. ---
            let halted = self.execute(inst, pc, len, taken, actual_target, pred.as_ref())?;
            self.cycles += 1;
            self.emit(PipelineEvent::Retired {
                pc,
                inst,
                cycles: self.cycles,
            });
            out.steps += 1;
            if halted {
                out.halted = true;
                break;
            }
            if mispredicted {
                // The misprediction itself replayed exactly (resteer,
                // window, wrong path, training); ending the block here
                // is the conservative bail-out contract.
                break;
            }
        }
        if out.steps == 0 {
            self.trace_cache.bailouts += 1;
            return Ok(None);
        }
        if out.steps == block.uops.len() as u64 {
            self.trace_cache.hits += 1;
        } else {
            self.trace_cache.bailouts += 1;
        }
        Ok(Some(out))
    }
}
