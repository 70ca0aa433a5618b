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
//! [`phantom_mem::PhysMemory`] frames are `Arc`-shared copy-on-write,
//! so `snapshot` is a per-resident-frame pointer bump and `restore`
//! copies back only frames written since the checkpoint (see
//! [`phantom_mem::PhysMemory::restore_from`]). The page-table maps and
//! the decoded-line cache are `Arc`-backed too, so the big cold
//! structures are shared rather than deep-copied.
//!
//! What a whole-machine clone (a snapshot, a fork, a boot-template
//! instance) does copy: the frame map (one `Arc` per resident frame,
//! the largest term), each set-associative cache as one flat line
//! array plus one PLRU word and one dirty flag per set (L1I, L1D, L2
//! and the µop cache: a few allocations and memcpys each, however
//! many sets), the TLB, the predictor tables, the PMU and the
//! architectural registers.

use std::sync::Arc;

use super::Machine;

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
        // dirtied since this point.
        self.caches.begin_epoch();
        self.uop_cache.begin_epoch();
        self.bpu.begin_epoch();
        // `PhysMemory::snapshot` returns the pre-epoch-bump frame set;
        // the machine clone below carries the post-bump live memory, so
        // swap the snapshot's copy in.
        let phys = self.phys.snapshot();
        let mut inner = Box::new(self.clone());
        inner.phys = phys;
        MachineSnapshot { inner }
    }

    /// Rewind to `snapshot`. Sinks currently attached to `self` stay
    /// attached and keep observing after the restore.
    ///
    /// Restores field-by-field into the live machine — no intermediate
    /// whole-machine clone. Physical memory rewinds through
    /// [`phantom_mem::PhysMemory::restore_from`] (copies only frames
    /// dirtied since the checkpoint), the predictors through
    /// [`phantom_bpu::Bpu::restore_from`] (the CBP copies only sets
    /// updated since the checkpoint); the `Arc`-backed profile,
    /// page-table maps and decode cache restore as pointer bumps.
    pub fn restore(&mut self, snapshot: &MachineSnapshot) {
        let s = &*snapshot.inner;
        self.profile = Arc::clone(&s.profile);
        // O(sets dirtied since the checkpoint) when the epoch tokens
        // match (the common rewind loop); full copies otherwise.
        self.bpu.restore_from(&s.bpu);
        self.caches.restore_from(&s.caches);
        self.uop_cache.restore_from(&s.uop_cache);
        self.pmu = s.pmu.clone();
        self.phys.restore_from(&s.phys);
        self.page_table = s.page_table.clone();
        self.tlb = s.tlb.clone();
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
        // `self.bus` deliberately untouched: sinks are observation
        // state, not machine state.
        self.decode_cache = s.decode_cache.clone();
    }

    /// Seal the machine into a thread-shareable [`Checkpoint`] and
    /// consume it. Equivalent to [`Machine::snapshot`] followed by
    /// [`Checkpoint::new`], but makes the intended lifecycle — boot
    /// once, fork per worker — read directly at the call site.
    pub fn into_checkpoint(mut self) -> Checkpoint {
        Checkpoint::new(self.snapshot())
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
/// a fork costs O(resident-frame pointer bumps) and each trial's writes
/// cost one 4 KiB copy per dirtied frame — never a reboot.
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

    /// The underlying snapshot (for [`Machine::restore`]).
    pub fn snapshot(&self) -> &MachineSnapshot {
        &self.base
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
