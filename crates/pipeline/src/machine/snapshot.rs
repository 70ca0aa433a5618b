//! Whole-machine checkpoints.
//!
//! A snapshot captures every architectural *and* microarchitectural
//! state element — registers, flags, PC, privilege, memory, page
//! tables, BTB/RSB/direction predictor, all cache levels, the µop
//! cache, TLB, PMU and the cycle counter — but never the attached
//! event sinks, which are observation state. Trial runners use
//! snapshots to rewind a trained machine instead of rebuilding and
//! retraining it from scratch.
//!
//! Checkpoint and rewind are O(dirty state), not O(machine):
//! [`phantom_mem::PhysMemory`] frames are `Arc`-shared copy-on-write
//! in chunks of 64, so the memory part of a snapshot is one pointer
//! bump per chunk, and `restore` copies back only frames written since
//! the checkpoint (see [`phantom_mem::PhysMemory::restore_from`]). The
//! page-table maps and the decoded-line cache are `Arc`-backed too, so
//! the big cold structures are shared rather than deep-copied.
//!
//! The decoded-line cache is the one part a rewind does not reset: it
//! is invisible host state, and `restore` keeps the live cache minus
//! the decodes that read a physical page the memory rewind copied
//! back. If the trial changed the page table (the live table no longer
//! shares every run with the checkpoint's, see
//! [`phantom_mem::PageTable::shares_runs`]), it drops them all. A
//! rewound trial therefore starts with its predecessor's decodes of
//! every untouched code page.
//!
//! What a whole-machine clone (a snapshot, a fork, a boot-template
//! instance) does copy: the frame map (one `Arc` per 64-frame chunk
//! plus the dirty-frame journal); the sets of the L1I, L1D, L2, µop
//! cache and CBP as one pointer per 16-set chunk the source shares,
//! plus a copy of each chunk it owns (see [`phantom_mem::RowStore`]);
//! the TLB's two flat buffers (slots and fill counts), the BTB's
//! occupancy bitmap and bucket vector, the PMU and the architectural
//! registers. [`Machine::snapshot`] and
//! [`Machine::into_checkpoint`] seal the sets first, so a snapshot, a
//! seal and every fork of it share all of them, and a fork copies a
//! chunk only when a trial first writes one of its sets.
//! [`Machine::snapshot`] copies memory once; [`Machine::into_checkpoint`]
//! copies nothing — it seals the machine itself.

use std::sync::Arc;

use super::Machine;
use crate::events::EventBus;

/// An immutable checkpoint of a [`Machine`].
///
/// Boxed so the (large) state lives on the heap and moving a snapshot
/// between threads is a pointer copy.
#[derive(Debug, Clone)]
pub struct MachineSnapshot {
    inner: Box<Machine>,
}

impl Machine {
    /// Checkpoint the full machine state. Attached sinks are not part
    /// of the snapshot (cloning the machine detaches them; see
    /// [`crate::events::EventBus`]).
    ///
    /// Takes `&mut self` because checkpointing opens a new
    /// copy-on-write epoch on physical memory: frames written after
    /// this call are unshared on first touch, which is what lets
    /// [`Machine::restore`] copy only the dirty ones back.
    pub fn snapshot(&mut self) -> MachineSnapshot {
        // Open restore epochs on the set-associative structures before
        // cloning, so the clone (the snapshot) carries the same epoch
        // token and `restore` can copy back only sets the live machine
        // dirtied since this point; seal them so the clone shares every
        // set chunk with the live machine.
        self.open_restore_point();
        // Memory is copied once: take it out for the machine clone,
        // then give the copy `PhysMemory::snapshot`'s pre-epoch-bump
        // frame set and the live machine its post-bump memory back.
        let live = std::mem::take(&mut self.phys);
        let mut inner = Box::new(self.clone());
        self.phys = live;
        inner.phys = self.phys.snapshot();
        MachineSnapshot { inner }
    }

    /// Open restore epochs on the caches, µop cache and predictors, and
    /// seal their sets.
    fn open_restore_point(&mut self) {
        self.caches.begin_epoch();
        self.uop_cache.begin_epoch();
        self.bpu.begin_epoch();
        self.seal();
    }

    /// Share every cache, µop-cache and CBP set chunk this machine owns,
    /// so clones taken from now on (snapshots, forks, template
    /// instances) copy none of those sets until they write them. State
    /// and restore epochs are unchanged; see
    /// [`RowStore::seal`](phantom_mem::RowStore::seal).
    pub fn seal(&mut self) {
        self.caches.seal();
        self.uop_cache.seal();
        self.bpu.seal();
    }

    /// Number of cache, µop-cache and CBP set chunks this machine owns
    /// rather than shares: those it wrote (or was cloned owning) since
    /// its sets were last sealed or reset. A fork of a sealed machine
    /// owns none.
    pub fn owned_set_chunks(&self) -> usize {
        self.caches.owned_chunks() + self.uop_cache.owned_chunks() + self.bpu.cbp().owned_chunks()
    }

    /// Rewind to `snapshot`. Sinks currently attached to `self` stay
    /// attached and keep observing after the restore.
    ///
    /// Restores field-by-field into the live machine — no intermediate
    /// whole-machine clone. Physical memory rewinds through
    /// [`phantom_mem::PhysMemory::restore_from`] (copies only frames
    /// dirtied since the checkpoint), the predictors through
    /// [`phantom_bpu::Bpu::restore_from`] (the CBP copies only sets
    /// updated since the checkpoint); the `Arc`-backed profile and
    /// page-table maps restore as pointer bumps. The decode cache is
    /// host state and stays warm: the rewind drops only the decodes
    /// whose code pages it copied back (all of them if the trial
    /// changed the page table), so the next trial re-decodes only what
    /// its predecessor changed. Its hit and miss counts, like the
    /// probe-arena re-arm count, are not rewound.
    pub fn restore(&mut self, snapshot: &MachineSnapshot) {
        let s = &*snapshot.inner;
        self.profile = Arc::clone(&s.profile);
        // O(sets dirtied since the checkpoint) when the snapshot opened
        // the structures' journal epochs (the common rewind loop); full
        // copies otherwise. See `phantom_mem::RowStore`.
        self.bpu.restore_from(&s.bpu);
        self.caches.restore_from(&s.caches);
        self.uop_cache.restore_from(&s.uop_cache);
        self.pmu = s.pmu.clone();
        let restored = self.phys.restore_from(&s.phys);
        let shared = self.page_table.shares_runs(&s.page_table);
        self.decode_cache.rewind(&s.decode_cache, shared, restored);
        self.page_table = s.page_table.clone();
        self.tlb.clone_from(&s.tlb);
        self.regs = s.regs;
        self.zf = s.zf;
        self.sf = s.sf;
        self.cf = s.cf;
        self.pc = s.pc;
        self.level = s.level;
        self.thread = s.thread;
        self.cycles = s.cycles;
        self.syscall_entry = s.syscall_entry;
        self.syscall_return = s.syscall_return;
        self.fault_handler = s.fault_handler;
        self.last_fault = s.last_fault;
        self.halted = s.halted;
        // `self.bus` and `self.probe_rearms` deliberately untouched:
        // sinks are observation state and the re-arm count host
        // instrumentation, not machine state.
    }

    /// Seal the machine into a thread-shareable [`Checkpoint`] and
    /// consume it: the machine itself becomes the restore point, with
    /// no copy. Observationally the same as [`Machine::checkpoint`]
    /// (the snapshot of a machine that is then dropped): the restore
    /// epochs open exactly as `snapshot` opens them, the sealed machine
    /// keeps no event sinks (a clone would detach them) and no pooled
    /// frames (a clone starts with an empty pool). Forks and rewinds
    /// from either checkpoint are indistinguishable; the pipeline
    /// proptests compare them.
    pub fn into_checkpoint(mut self) -> Checkpoint {
        self.open_restore_point();
        self.bus = EventBus::new();
        self.phys.clear_frame_pool();
        Checkpoint::new(MachineSnapshot {
            inner: Box::new(self),
        })
    }

    /// Take a [`Checkpoint`] of the current state, leaving the machine
    /// usable (its later writes are dirty with respect to the
    /// checkpoint, exactly as after [`Machine::snapshot`]).
    pub fn checkpoint(&mut self) -> Checkpoint {
        Checkpoint::new(self.snapshot())
    }
}

/// A shareable, immutable fork point: an `Arc`-held [`MachineSnapshot`]
/// that any number of worker threads can [`fork`](Checkpoint::fork)
/// private machines from, or [`rewind`](Checkpoint::rewind) their fork
/// back to between trials.
///
/// Cloning a checkpoint is an `Arc` bump; every fork shares the
/// checkpoint's physical frames copy-on-write (the read-only base) and
/// unshares only the frames it writes (its private dirty overlay), so
/// a fork costs one machine clone (its memory one pointer bump per
/// 64-frame chunk, its sets one per 16-set chunk) and each trial's
/// writes cost one 4 KiB copy per dirtied frame plus one 64-slot copy
/// per frame chunk and one set-chunk copy per set chunk first
/// written — never a reboot.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    base: Arc<MachineSnapshot>,
}

impl Checkpoint {
    /// Wrap an existing snapshot as a shareable fork point.
    pub fn new(snapshot: MachineSnapshot) -> Checkpoint {
        Checkpoint {
            base: Arc::new(snapshot),
        }
    }

    /// Fork a private machine whose state equals the checkpoint.
    ///
    /// The fork shares every physical frame with the checkpoint (and
    /// with sibling forks) copy-on-write, and opens a fresh write epoch
    /// so its own writes stay distinguishable — which is what lets
    /// [`rewind`](Checkpoint::rewind) undo a trial in O(dirty frames).
    /// Like any machine clone, the fork carries no event sinks.
    pub fn fork(&self) -> Machine {
        let mut machine = (*self.base.inner).clone();
        machine.phys.begin_epoch();
        machine
    }

    /// Rewind a fork (or the original checkpointed machine) back to the
    /// checkpoint. Sinks attached to `machine` stay attached.
    pub fn rewind(&self, machine: &mut Machine) {
        machine.restore(&self.base);
    }
}
